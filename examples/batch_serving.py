"""Production serving patterns: bulk scoring, live updates, HTTP API.

Three deployment-oriented features on one dataset:

1. :class:`~repro.core.vectorized.BatchRecommender` — sparse-matrix bulk
   scoring, bit-identical to the reference strategies but built for
   throughput (compared here with a quick wall-clock measurement);
2. :class:`~repro.core.incremental.IncrementalGoalModel` — a new recipe is
   published to the mutation log, and recommendations over the log's next
   ``freeze()`` reflect it;
3. :class:`~repro.service.RecommenderService` — the stdlib HTTP JSON API.

Run:  python examples/batch_serving.py
"""

import json
import time
import urllib.request

from repro.core import AssociationGoalModel, GoalRecommender, IncrementalGoalModel
from repro.core.vectorized import BatchRecommender
from repro.data import FoodMartConfig, generate_foodmart
from repro.service import RecommenderService


def main() -> None:
    dataset = generate_foodmart(FoodMartConfig.small(), seed=0)
    model = AssociationGoalModel.from_library(dataset.library)
    carts = [user.full_activity for user in dataset.users[:200]]
    print(dataset.summary())

    # 1. Bulk scoring -------------------------------------------------
    reference = GoalRecommender(model)
    batch = BatchRecommender(model)
    start = time.perf_counter()
    slow = [reference.recommend(cart, k=10, strategy="breadth") for cart in carts]
    reference_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fast = batch.recommend_many(carts, k=10, strategy="breadth")
    batch_seconds = time.perf_counter() - start
    agree = all(a.actions() == b.actions() for a, b in zip(slow, fast))
    print(
        f"\nbulk breadth over {len(carts)} carts: reference "
        f"{reference_seconds * 1e3:.0f}ms, vectorized {batch_seconds * 1e3:.0f}ms, "
        f"identical output: {agree}"
    )

    # 2. Live updates --------------------------------------------------
    live = IncrementalGoalModel.from_library(dataset.library)
    cart = set(sorted(carts[0])[:4])
    # Focus_cl: the new recipe is one action from completion, so its
    # missing product tops the list the moment the recipe is indexed.
    before = GoalRecommender(model).recommend(
        cart, k=5, strategy="focus_cl"
    ).action_set()
    live.add_implementation("todays special", set(cart) | {"brand_new_product"})
    after = GoalRecommender(live.freeze()).recommend(
        cart, k=5, strategy="focus_cl"
    ).action_set()
    print(
        f"\nlive update: new recipe published -> 'brand_new_product' "
        f"recommended: {'brand_new_product' in after} "
        f"(was {'brand_new_product' in before})"
    )

    # 3. HTTP API -------------------------------------------------------
    with RecommenderService(model, port=0) as server:
        url = f"http://127.0.0.1:{server.port}/recommend"
        body = json.dumps(
            {"activity": sorted(map(str, cart)), "k": 3}
        ).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
        print(
            f"\nHTTP /recommend on port {server.port}: "
            f"{[row['action'] for row in payload['recommendations']]}"
        )


if __name__ == "__main__":
    main()
