"""Single-request hot path: CSR vs scalar, and the pruned approximate tier.

Three gates (all in the CI ``bench`` job, against constants committed here):

1. **Exact path**: at ``FortyThreeConfig.paper_scale()`` the CSR-routed
   ``GoalRecommender`` must answer single requests at least 5x faster than
   the scalar reference strategies for all four paper strategies, with
   bit-identical output (the CRC32 checksums of both paths must match each
   other *and* the committed ``PAPER_CHECKSUMS``).
2. **Approximate tier**: on a dense grocery workload at the paper's ~1.2K
   action connectivity (Section 6.2's regime, where posting lists are
   long), ``breadth_pruned`` at the default budget must reach recall@10 of
   at least 0.95 against the exact Breadth rankings while cutting the
   measured per-request latency below the exact CSR path's.
3. **Dense checksums**: on the same dense workload, the CSR rankings of
   all four strategies must reproduce the committed ``DENSE_CHECKSUMS``;
   dense reads take engine branches that paper scale never reaches.

Timing legs use best-of-``REPEATS`` over a fixed activity sample; the
engine, co-occurrence index included, is built before every timed region
so the gates price steady-state serving, not construction.
"""

from __future__ import annotations

import gc
import time
import zlib

import numpy as np
import pytest

from conftest import publish

from repro.core import (
    AssociationGoalModel,
    CachedModelView,
    GoalRecommender,
    recall_at_k,
)
from repro.core.approximate import PrunedBreadthStrategy
from repro.core.recommender import PAPER_STRATEGIES
from repro.core.vectorized import (
    _PARTITION_CUTOVER,
    _SWEEP_SHARE,
    BatchRecommender,
)
from repro.data import (
    FoodMartConfig,
    FortyThreeConfig,
    generate_foodmart,
    generate_fortythree,
)
from repro.eval import format_table

TOP_K = 10
SAMPLE = 60      # activities per timed leg
REPEATS = 5      # best-of repeats per leg
SPEEDUP_BAR = 5.0
RECALL_BAR = 0.95

#: Committed CRC32 baselines of the paper-scale rankings (seed 1, first
#: ``SAMPLE`` users, top-10).  Scalar and CSR paths must both reproduce
#: these exactly — the dataset generator is deterministic, so any drift
#: here means the ranking semantics changed.
PAPER_CHECKSUMS = {
    "focus_cmp": 4198772013,
    "focus_cl": 2064477266,
    "breadth": 1053447515,
    "best_match": 3043722569,
}

#: Committed CRC32 baselines of the dense workload's CSR rankings
#: (``DENSE_CONFIG``, seed ``DENSE_SEED``, first ``SAMPLE`` users, top-10).
#: Dense reads take engine branches that paper scale never reaches — the
#: Focus walk's partial ranking above ``_PARTITION_CUTOVER`` touched
#: implementations and the Best Match sweep over ``C`` — and the scalar
#: strategies cost seconds per dense activity, so these constants stand in
#: for the scalar parity run.
DENSE_CHECKSUMS = {
    "focus_cmp": 4195837503,
    "focus_cl": 1254307155,
    "breadth": 1701177346,
    "best_match": 2346646416,
}

#: Dense grocery workload at the paper's connectivity (~1.2K): long recipes
#: over a small catalog make every posting list long, which is exactly the
#: regime the pruned tier exists for.  Generation stays under ~15s.
DENSE_CONFIG = FoodMartConfig(
    num_products=350,
    num_categories=48,
    num_recipes=12_700,
    num_carts=192,
    recipe_length_mean=33.0,
    recipe_length_min=5,
    recipe_length_max=60,
)
DENSE_SEED = 11


def _checksum(lists) -> int:
    digest = 0
    for result in lists:
        for item in result:
            line = f"{item.action}:{item.score:.9f};"
            digest = zlib.crc32(line.encode("utf-8"), digest)
    return digest


def _leg_minima(fn, items, best: list[float]) -> None:
    """One consecutive pass over ``items``, folding per-item minima."""
    perf_counter = time.perf_counter
    for index, item in enumerate(items):
        start = perf_counter()
        fn(item)
        elapsed = perf_counter() - start
        if elapsed < best[index]:
            best[index] = elapsed


def _paired_minima(
    slow_fn, fast_fn, items, repeats: int = REPEATS
) -> tuple[float, float]:
    """Per-item best times of two legs, alternating leg passes.

    Each leg's total is the sum over ``items`` of the minimum per-item
    wall time across ``repeats`` — the standard estimator of unloaded
    cost, so a scheduler transient (this box is a single-core VM)
    corrupts a few samples that the minima then discard, instead of
    silently inflating a whole timed leg.  The legs alternate *pass by
    pass* (not request by request: consecutive same-path requests keep
    the caches warm, like real serving traffic does), so slow drifts in
    machine conditions still land on both sides.  GC stays paused for
    the same reason ``timeit`` pauses it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best_slow = [float("inf")] * len(items)
        best_fast = [float("inf")] * len(items)
        for _ in range(repeats):
            _leg_minima(slow_fn, items, best_slow)
            _leg_minima(fast_fn, items, best_fast)
        return sum(best_slow), sum(best_fast)
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def paper_workload():
    """Paper-scale life-goal model plus a fixed activity sample."""
    dataset = generate_fortythree(FortyThreeConfig.paper_scale(), seed=1)
    model = AssociationGoalModel.from_library(dataset.library)
    activities = [user.full_activity for user in dataset.users[:SAMPLE]]
    return model, activities


@pytest.fixture(scope="module")
def dense_workload():
    """Dense grocery model (paper-connectivity regime) plus activities."""
    dataset = generate_foodmart(DENSE_CONFIG, seed=DENSE_SEED)
    model = AssociationGoalModel.from_library(dataset.library)
    activities = [user.full_activity for user in dataset.users[:SAMPLE]]
    return model, activities


def test_csr_hot_path_speedup_with_parity(paper_workload):
    model, activities = paper_workload
    scalar = GoalRecommender(model, use_csr=False)
    csr = GoalRecommender(CachedModelView(model))
    assert csr.csr_engine() is not None, "no CSR engine: nothing to gate"

    rows = []
    failures = []
    for strategy in PAPER_STRATEGIES:
        def run(recommender=scalar, name=strategy):
            return [
                recommender.recommend(a, k=TOP_K, strategy=name)
                for a in activities
            ]

        scalar_lists = run()
        csr_lists = run(csr)
        assert scalar_lists == csr_lists, (
            f"{strategy}: CSR output diverges from the scalar reference"
        )
        digest = _checksum(scalar_lists)
        assert digest == _checksum(csr_lists)
        assert digest == PAPER_CHECKSUMS[strategy], (
            f"{strategy}: rankings drifted from the committed baseline"
        )

        def scalar_one(activity, name=strategy):
            scalar.recommend(activity, k=TOP_K, strategy=name)

        def csr_one(activity, name=strategy):
            csr.recommend(activity, k=TOP_K, strategy=name)

        scalar_seconds, csr_seconds = _paired_minima(
            scalar_one, csr_one, activities
        )
        # A strategy landing under the bar earns bounded extra rounds: a
        # noise spike washes out of the running minima, a real regression
        # stays under the bar through all of them.
        for _ in range(2):
            if scalar_seconds / csr_seconds >= SPEEDUP_BAR:
                break
            more_scalar, more_csr = _paired_minima(
                scalar_one, csr_one, activities
            )
            scalar_seconds = min(scalar_seconds, more_scalar)
            csr_seconds = min(csr_seconds, more_csr)
        speedup = scalar_seconds / csr_seconds
        rows.append([
            strategy, digest, scalar_seconds * 1e3 / len(activities),
            csr_seconds * 1e3 / len(activities), speedup,
        ])
        if speedup < SPEEDUP_BAR:
            failures.append(f"{strategy}: {speedup:.1f}x")

    table = format_table(
        ["strategy", "crc32", "scalar_ms_per_req", "csr_ms_per_req",
         "speedup"],
        rows,
        title=(
            f"single-request hot path at paper scale "
            f"({len(activities)} activities, top-{TOP_K}, best of "
            f"{REPEATS})"
        ),
    )
    publish("single_request_speedup", table)
    assert not failures, (
        f"speedup below the {SPEEDUP_BAR:.0f}x bar: {', '.join(failures)}"
    )


def test_dense_checksums(dense_workload):
    model, activities = dense_workload
    csr = GoalRecommender(CachedModelView(model))
    engine = csr.csr_engine()
    assert engine is not None, "no CSR engine: nothing to gate"
    encoded = [model.encode_activity(a) for a in activities]
    widest = max(engine.space_sizes(e)[0] for e in encoded if e)
    assert widest > _PARTITION_CUTOVER, (
        f"|IS(H)| peaks at {widest}: the partial Focus ranking never runs"
    )
    indptr = engine._c_indptr
    held = 0
    for e in (e for e in encoded if e):
        reach = engine._action_mask(e)
        reach[list(e)] = False
        candidates = np.flatnonzero(reach)
        held = max(
            held, int((indptr[candidates + 1] - indptr[candidates]).sum())
        )
    assert held > _SWEEP_SHARE * engine._c_data.size, (
        f"Best Match candidates hold at most {held} of C's "
        f"{engine._c_data.size} entries: the sweep over C never runs"
    )
    digests = {
        strategy: _checksum(
            csr.recommend(a, k=TOP_K, strategy=strategy) for a in activities
        )
        for strategy in PAPER_STRATEGIES
    }
    assert digests == DENSE_CHECKSUMS, (
        f"dense rankings drifted from the committed baseline: {digests}"
    )


def test_pruned_tier_recall_and_latency(dense_workload):
    model, activities = dense_workload
    engine = BatchRecommender(model)
    pruned = PrunedBreadthStrategy()  # serving default budget
    encoded = [model.encode_activity(a) for a in activities]

    exact_lists = [engine.rank(e, TOP_K, "breadth") for e in encoded]
    approx_lists = [pruned.rank(model, e, TOP_K) for e in encoded]
    scored = [
        (exact, approx)
        for exact, approx in zip(exact_lists, approx_lists)
        if exact
    ]
    assert scored, "dense workload produced no rankings"
    recall = sum(recall_at_k(e, a) for e, a in scored) / len(scored)

    exact_seconds, approx_seconds = _paired_minima(
        lambda e: engine.rank(e, TOP_K, "breadth"),
        lambda e: engine.pruned_breadth_rank(e, TOP_K, pruned.budget),
        encoded,
    )
    table = format_table(
        ["tier", "budget", "ms_per_req", "recall_at_10"],
        [
            ["exact", "-", exact_seconds * 1e3 / len(encoded), 1.0],
            [
                "approx", pruned.budget,
                approx_seconds * 1e3 / len(encoded), recall,
            ],
        ],
        title=(
            f"pruned breadth tier on the dense workload "
            f"({len(encoded)} activities, connectivity ~1.2K, best of "
            f"{REPEATS})"
        ),
    )
    publish("single_request_approx_tier", table)
    assert recall >= RECALL_BAR, (
        f"recall@10 {recall:.3f} below the {RECALL_BAR} bar"
    )
    assert approx_seconds < exact_seconds, (
        f"approx tier not faster: {approx_seconds:.4f}s vs "
        f"{exact_seconds:.4f}s exact"
    )
