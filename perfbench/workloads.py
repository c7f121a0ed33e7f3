"""The benchmark's three workloads and their seeded inputs.

A workload is a library (a fixed fixture per workload, generated once per
checkout and cached) plus traffic generated from the run's ``--seed``: the
read stream and the mutation stream, sent at evenly spaced times.  The same seed always
gives byte-identical schedules (see :func:`schedule_bytes`); the program
under test only ever sees the generated requests.

Why each workload exists (one layer exercised, one bypassed):

- ``sparse-unique`` -- 43Things at paper scale, 2-4-action activities that
  never repeat.  The engine is a few percent of the round trip and the
  result cache never hits, so the HTTP front, JSON, admission and the
  recorders dominate.  Engine or cache changes should show no change here.
- ``dense-repeat`` -- FoodMart with the paper's catalog and recipe lengths
  (12K recipes, connectivity ~250), 5-15-action activities drawn
  Zipf-skewed from a pool larger than the 1,024-entry result LRU, so about
  a quarter of the fixed phase's reads hit.  Engine ranking and
  trace-detail space queries cost 1-50 ms on a miss; the result cache
  answers a hit.  Engine, cache and coalescing changes show here.
- ``reload-pool`` -- two workers over a 1.9K-implementation 43Things
  library, ``sparse-unique``-shaped reads beside ~2 mutations/s that add
  one implementation and delete it again.  Every mutation refreezes the
  model and rebuilds the engine in every process under the write lock:
  reload cost, the read tail during swaps and the pool's ordered replay
  show here and nowhere else.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from client import Request

PAPER_STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")
K = 10

#: Seed of every workload's library; the library is part of the workload's
#: definition, the run seed only drives traffic.
LIBRARY_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    #: Fixed offered read rate of the latency phase: a fifth to a seventh
    #: of the 1-worker capacity measured on a 2-core host.  At a third, a
    #: spell of a slow host pushed the server toward saturation and
    #: queueing multiplied the latency figures up to 16-fold.
    rate: float
    #: Mutations per second issued beside the reads (0: none).
    mutation_rate: float
    #: Serial add/delete pairs timed after the reads (0: none).
    final_mutation_pairs: int
    #: Every ``check_stride``-th read is checked against the scalar oracle
    #: (0: none).
    check_stride: int
    #: Every read of the ``hot_checked`` hottest pool keys is checked too.
    #: ``dense-repeat`` relies on this alone: the scalar BestMatch costs
    #: seconds per dense activity, so only answers that repeat across runs
    #: (and are cached) can be afforded.
    hot_checked: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-unique", workers=1, rate=75.0, mutation_rate=0.0,
            final_mutation_pairs=4, check_stride=32,
        ),
        Workload(
            "dense-repeat", workers=1, rate=12.0, mutation_rate=0.0,
            final_mutation_pairs=3, check_stride=0, hot_checked=16,
        ),
        Workload(
            "reload-pool", workers=2, rate=150.0, mutation_rate=2.0,
            final_mutation_pairs=0, check_stride=16,
        ),
    )
}

#: ``dense-repeat`` read pool: size (> the 1,024-entry result LRU) and Zipf
#: exponent, which put the fixed phase's hit ratio near 25%: the median
#: read is then a miss, so p50 follows the engine instead of sitting
#: between two modes.
DENSE_POOL = 4096
DENSE_ZIPF = 0.9
#: ``dense-repeat`` strategy mix: (strategy, tier, weight).
DENSE_MIX = (
    ("breadth", "exact", 0.15),
    ("breadth", "approx", 0.10),
    ("focus_cmp", "exact", 0.25),
    ("focus_cl", "exact", 0.25),
    ("best_match", "exact", 0.25),
)


# ----------------------------------------------------------------------
# Libraries
# ----------------------------------------------------------------------


def library_path(cache: Path, workload: Workload) -> Path:
    return cache / f"library-{workload.name}-{LIBRARY_SEED}.json"


def ensure_library(cache: Path, workload: Workload) -> Path:
    """Generate (once) and return the workload's library file.

    Duplicate ``(goal, actions)`` pairs are dropped so the served model, the
    predicted ids of added implementations and the oracle's model all index
    the same implementations.
    """
    path = library_path(cache, workload)
    if path.exists():
        return path
    from repro.core.library import ImplementationLibrary
    from repro.data.synthetic.foodmart import FoodMartConfig, generate_foodmart
    from repro.data.synthetic.fortythree import (
        FortyThreeConfig,
        generate_fortythree,
    )
    from repro.storage import JsonLibraryStore

    if workload.name == "sparse-unique":
        dataset = generate_fortythree(
            FortyThreeConfig.paper_scale(), seed=LIBRARY_SEED
        )
    elif workload.name == "dense-repeat":
        dataset = generate_foodmart(
            FoodMartConfig(
                num_products=1560, num_categories=128, num_recipes=12000,
                num_carts=1, recipe_length_mean=33.0, recipe_length_min=5,
                recipe_length_max=60,
            ),
            seed=LIBRARY_SEED,
        )
    else:
        dataset = generate_fortythree(FortyThreeConfig.small(), seed=LIBRARY_SEED)
    unique = ImplementationLibrary()
    seen: set[tuple[str, frozenset[str]]] = set()
    for impl in dataset.library:
        key = (str(impl.goal), frozenset(str(a) for a in impl.actions))
        if key not in seen:
            seen.add(key)
            unique.add_pair(key[0], sorted(key[1]))
    JsonLibraryStore(path).save(unique)
    return path


@dataclass(frozen=True)
class LibraryShape:
    """What the traffic generators need to know about a library."""

    implementations: list[tuple[str, tuple[str, ...]]]
    goals: list[str]
    actions: list[str]

    @classmethod
    def load(cls, path: Path) -> "LibraryShape":
        payload = json.loads(path.read_text(encoding="utf-8"))
        impls = [
            (str(item["goal"]), tuple(sorted(str(a) for a in item["actions"])))
            for item in payload["implementations"]
        ]
        return cls(
            implementations=impls,
            goals=sorted({goal for goal, _ in impls}),
            actions=sorted({a for _, acts in impls for a in acts}),
        )


# ----------------------------------------------------------------------
# Read streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Read:
    activity: tuple[str, ...]
    strategy: str
    tier: str
    #: Position of the key in the ``dense-repeat`` pool (-1: no pool).
    rank: int = -1

    def path(self) -> str:
        return "/recommend?tier=approx" if self.tier == "approx" else "/recommend"

    def body(self) -> bytes:
        return json.dumps(
            {"activity": list(self.activity), "strategy": self.strategy, "k": K}
        ).encode("utf-8")

    @property
    def served_strategy(self) -> str:
        return "breadth_pruned" if self.tier == "approx" else self.strategy


def _spread_evenly(rng: random.Random, reads: list[Read]) -> list[Read]:
    """Seeded order in which each strategy's reads are evenly spaced.

    Expensive strategies (BestMatch above all) then never bunch up by
    chance, so a run's tail reflects the server, not the luck of the draw.
    """
    groups: dict[str, list[Read]] = {}
    for read in reads:
        groups.setdefault(read.served_strategy, []).append(read)
    placed = []
    for group in groups.values():
        rng.shuffle(group)
        offset = rng.random()
        placed += [((i + offset) / len(group), read) for i, read in enumerate(group)]
    placed.sort(key=lambda item: item[0])
    return [read for _, read in placed]


class _SparseReads:
    """2-4 actions from the union of two implementations; never repeats.

    Each batch holds the four strategies and the three sizes in equal
    shares, evenly spaced, so runs differ in which activities they send but
    not in their mix.
    """

    def __init__(self, rng: random.Random, shape: LibraryShape) -> None:
        self._rng = rng
        self._impls = shape.implementations
        self._seen: set[tuple[str, ...]] = set()

    def take(self, count: int) -> list[Read]:
        rng = self._rng
        strategies = [PAPER_STRATEGIES[i % 4] for i in range(count)]
        sizes = [2 + i % 3 for i in range(count)]
        rng.shuffle(strategies)
        rng.shuffle(sizes)
        reads = []
        for strategy, size in zip(strategies, sizes):
            while True:
                first, second = rng.choice(self._impls)[1], rng.choice(self._impls)[1]
                union = sorted(set(first) | set(second))
                activity = tuple(sorted(rng.sample(union, min(size, len(union)))))
                if activity not in self._seen:
                    break
            self._seen.add(activity)
            reads.append(Read(activity, strategy, "exact"))
        return _spread_evenly(rng, reads)


def dense_pool(shape: LibraryShape) -> list[Read]:
    """The fixed ``dense-repeat`` key pool, hottest key first."""
    rng = random.Random(f"dense-pool-{LIBRARY_SEED}")
    weights = [w for _, _, w in DENSE_MIX]
    pool: list[Read] = []
    seen: set[tuple[tuple[str, ...], str, str]] = set()
    impls = shape.implementations
    while len(pool) < DENSE_POOL:
        recipe = rng.choice(impls)[1]
        size = rng.randint(5, min(15, len(recipe)))
        activity = tuple(sorted(rng.sample(recipe, size)))
        strategy, tier, _ = rng.choices(DENSE_MIX, weights=weights)[0]
        key = (activity, strategy, tier)
        if key in seen:
            continue
        seen.add(key)
        pool.append(Read(activity, strategy, tier, rank=len(pool)))
    return pool


class _DenseReads:
    """Zipf-skewed draws from the fixed pool, stratified per batch.

    A batch of ``n`` reads takes the pool keys at the Zipf quantiles
    ``(i + 1/2) / n`` and sends them in seeded order with each strategy
    evenly spaced: every run of a given length sends the same keys equally
    often, so the hit ratio and the amount of ranking work do not move with
    the seed.  (A seeded quantile offset picked a different sample of the
    pool's cold keys per seed; their ranking costs differ by an order of
    magnitude, and one seed's p50 stayed 45% above the others' on reruns.)
    """

    def __init__(self, rng: random.Random, pool: list[Read]) -> None:
        self._rng = rng
        self._pool = pool
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(len(pool)):
            total += 1.0 / (rank + 1) ** DENSE_ZIPF
            self._cumulative.append(total)

    def take(self, count: int) -> list[Read]:
        total = self._cumulative[-1]
        last = len(self._pool) - 1
        reads = [
            self._pool[min(last, bisect.bisect_left(
                self._cumulative, (i + 0.5) / count * total))]
            for i in range(count)
        ]
        return _spread_evenly(self._rng, reads)


class Traffic:
    """The seeded request generator of one run.

    Phases draw successive reads from one stream, so every schedule of a
    run is a deterministic function of the seed and of the phase sequence.
    """

    def __init__(
        self, workload: Workload, seed: int, shape: LibraryShape,
        pool: list[Read] | None = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.shape = shape
        self._rng = random.Random(f"{workload.name}-{seed}")
        self._mutations = random.Random(f"{workload.name}-{seed}-mutations")
        self._reads: _SparseReads | _DenseReads = (
            _DenseReads(self._rng, pool or dense_pool(shape))
            if workload.name == "dense-repeat"
            else _SparseReads(self._rng, shape)
        )
        self._base_keys = {(g, frozenset(a)) for g, a in shape.implementations}
        #: Id the server assigns to the next added implementation: ids are
        #: handed out sequentially after the library's.
        self.next_impl_id = len(shape.implementations)
        self.adds: list[tuple[int, str, tuple[str, ...]]] = []
        self._phase = 0

    def _new_implementation(self) -> tuple[str, tuple[str, ...]]:
        while True:
            goal = self._mutations.choice(self.shape.goals)
            actions = tuple(sorted(self._mutations.sample(self.shape.actions, 3)))
            if (goal, frozenset(actions)) not in self._base_keys:
                return goal, actions

    def _mutation_pair(
        self, due: float, gap: float, requests: list[Request], tag: str
    ) -> None:
        goal, actions = self._new_implementation()
        impl_id = self.next_impl_id
        self.next_impl_id += 1
        self.adds.append((impl_id, goal, actions))
        body = json.dumps(
            {"implementations": [{"goal": goal, "actions": list(actions)}]}
        ).encode("utf-8")
        requests.append(Request(
            due, "PUT", "/model/implementations", body,
            rid=f"{tag}-put-{impl_id}", kind="put",
        ))
        requests.append(Request(
            due + gap, "DELETE", f"/model/implementations/{impl_id}",
            rid=f"{tag}-delete-{impl_id}", kind="delete",
        ))

    def phase(
        self, rate: float, duration: float, growth: float = 1.0
    ) -> tuple[list[Request], list[Read | None]]:
        """Reads for ``duration`` s, plus the mutation stream.

        The read rate starts at ``rate`` and grows exponentially to
        ``rate * growth`` (1: constant).  Arrivals are evenly spaced for
        the rate: with Poisson arrivals the chance bursts of a 2-connection
        client decide too much of a run's tail.  Returns the requests sorted
        by due time and, index for index, the :class:`Read` behind each
        request (``None`` for a mutation).
        """
        self._phase += 1
        tag = f"{self.workload.name}-{self.seed}-p{self._phase}"
        dues = arrivals(rate, duration, growth)
        timed: list[tuple[float, Request, Read | None]] = [
            (due, Request(due, "POST", read.path(), read.body(),
                          rid=f"{tag}-r{i}"), read)
            for i, (due, read) in enumerate(zip(dues, self._reads.take(len(dues))))
        ]
        mutations: list[Request] = []
        if self.workload.mutation_rate > 0:
            period = 2.0 / self.workload.mutation_rate
            start = period / 4
            while start + period / 2 < duration:
                self._mutation_pair(start, period / 2, mutations, tag)
                start += period
        merged = sorted(
            timed + [(m.due, m, None) for m in mutations],
            key=lambda item: item[0],
        )
        return _chain_mutations([req for _, req, _ in merged]), [
            read for _, _, read in merged
        ]

    def serial_mutations(self, pairs: int) -> list[Request]:
        """``pairs`` add/delete pairs, each sent after the previous ends."""
        requests: list[Request] = []
        tag = f"{self.workload.name}-{self.seed}-final"
        for _ in range(pairs):
            self._mutation_pair(0.0, 0.0, requests, tag)
        return _chain_mutations(requests)


def arrivals(rate: float, duration: float, growth: float = 1.0) -> list[float]:
    """Due times in ``(0, duration)`` for a rate growing from ``rate`` to
    ``rate * growth`` exponentially: the i-th read is due when the integral
    of the rate reaches i."""
    if growth == 1.0:
        return [i / rate for i in range(1, math.ceil(duration * rate))]
    k = math.log(growth) / duration
    total = rate * (growth - 1.0) / k
    return [math.log1p(i * k / rate) / k for i in range(1, math.ceil(total))]


def rate_at(rate: float, duration: float, growth: float, due: float) -> float:
    """The offered rate of :func:`arrivals` at time ``due``."""
    return rate * growth ** (due / duration)


def _chain_mutations(requests: list[Request]) -> list[Request]:
    """Make every mutation wait for the previous one to complete.

    The server numbers generations in the order mutations arrive, and the
    oracle derives the library at a generation from the same order, so two
    mutations must never race, however late the generator runs.
    """
    chained: list[Request] = []
    previous: int | None = None
    for index, req in enumerate(requests):
        if req.kind != "read":
            req = Request(
                req.due, req.method, req.path, req.body, req.rid, req.kind,
                after=previous,
            )
            previous = index
        chained.append(req)
    return chained


def schedule_bytes(requests: list[Request]) -> bytes:
    """Canonical serialization of a schedule, for comparing two of them."""
    return json.dumps([
        [round(r.due, 9), r.method, r.path, r.body.decode("utf-8"), r.rid,
         r.kind, r.after]
        for r in requests
    ]).encode("utf-8")
