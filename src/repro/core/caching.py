"""Serving-layer caches over the goal model (paper Section 4's indexes, warm).

The reference strategies recompute the implementation space ``IS(H)`` and the
full ranking on every request.  At serving scale (the paper motivates the
index structures with a 20K-cart FoodMart workload) two observations make a
cache pay for itself:

- activities repeat — carts cluster around popular product combinations, so
  a small LRU keyed on ``(generation, strategy, frozen activity, k)``
  answers a large fraction of ``/recommend`` traffic without ranking at
  all;
- distinct activities overlap — different requests share ``IS(H)``
  sub-queries, so memoizing ``implementation_space`` accelerates even cache
  *misses*.

Three pieces live here:

- :class:`LRUCache` — a thread-safe, size-bounded LRU with hit/miss/eviction
  counters and a lookup-latency histogram registered in :mod:`repro.obs`
  (families ``repro_cache_*``, labelled by cache name);
- :class:`CachedModelView` — a read-only proxy over an
  :class:`~repro.core.model.AssociationGoalModel` that memoizes
  ``implementation_space`` (and the ``GS``/``AS`` queries derived from it)
  through an :class:`LRUCache` and carries the generation's CSR engine;
- :class:`CachingRecommender` — a :class:`~repro.core.recommender.GoalRecommender`
  wrapper that consults the recommendation LRU before ranking.

All caches are invalidated wholesale by the serving layer's *generation
counter* when the model mutates (see ``docs/serving.md``); entries never
carry their own TTL, so a cached value is exactly as fresh as its
generation.  The generation is also part of every cache key: a request
that resolved a snapshot before a model swap may ``store()`` *after* the
swap's ``clear()``, and the key prefix makes that late entry unreachable
from the new generation instead of poisoning it with results computed
against retired implementation ids.  Results served from the cache are the same
:class:`~repro.core.entities.RecommendationList` objects the reference path
produced — bit-identical by construction (asserted in the parity suite).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.entities import ActionLabel, GoalLabel, RecommendationList
from repro.core.model import AssociationGoalModel
from repro.core.recommender import GoalRecommender
from repro.resilience.faults import inject
from repro.utils.concurrency import make_lock

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy (keeps SciPy off import)
    from repro.core.vectorized import BatchRecommender

_SENTINEL = object()

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md).  ``LRUCache`` state lives under its lock;
#: ``CachedModelView`` is an immutable proxy — its fields, the CSR engine
#: included, are bound once in ``__init__`` and never reassigned, which is
#: what makes sharing one view across handler threads safe without any
#: locking.
_GUARDED_BY = {
    "LRUCache._data": "_lock",
    "LRUCache._hits": "_lock",
    "LRUCache._misses": "_lock",
    "LRUCache._evictions": "_lock",
    "LRUCache._invalidations": "_lock",
    "CachedModelView._model": "<final>",
    "CachedModelView._cache": "<final>",
    "CachedModelView._generation": "<final>",
    "CachedModelView._engine": "<final>",
    "LRUCache._lock": "<final>",
}


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time view of one cache's counters."""

    name: str
    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A thread-safe, size-bounded LRU cache with metrics.

    Lookups and stores are O(1); the least recently *looked up* entry is
    evicted when the cache is full.  Counters are kept locally (so
    :meth:`stats` works with observability off) and mirrored into the
    process metrics registry when metric recording is enabled:

    - ``repro_cache_hits_total{cache=...}`` / ``repro_cache_misses_total``
    - ``repro_cache_evictions_total`` / ``repro_cache_invalidations_total``
    - ``repro_cache_size`` (gauge)
    - ``repro_cache_lookup_seconds`` (histogram, sub-microsecond buckets)

    A ``maxsize`` of 0 disables the cache: every lookup misses and stores
    are dropped, so call sites need no branching.
    """

    def __init__(self, maxsize: int, name: str = "default") -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.name = name
        self._maxsize = maxsize
        self._lock = make_lock("LRUCache._lock")
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------

    def _record_lookup(self, hit: bool, elapsed: float) -> None:
        registry = obs.get_registry()
        if hit:
            registry.counter(
                "repro_cache_hits_total",
                "Cache lookup hits, by cache name.",
                cache=self.name,
            ).inc()
        else:
            registry.counter(
                "repro_cache_misses_total",
                "Cache lookup misses, by cache name.",
                cache=self.name,
            ).inc()
        registry.histogram(
            "repro_cache_lookup_seconds",
            "Cache lookup latency (hit or miss), by cache name.",
            buckets=obs.CACHE_LOOKUP_BUCKETS,
            cache=self.name,
        ).observe(elapsed)

    def _record_gauge(self, size: int) -> None:
        obs.get_registry().gauge(
            "repro_cache_size",
            "Live entries in the cache, by cache name.",
            cache=self.name,
        ).set(size)

    # ------------------------------------------------------------------
    # Cache operations
    # ------------------------------------------------------------------

    @property
    def maxsize(self) -> int:
        """The configured capacity (0 = caching disabled)."""
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """Return ``(hit, value)``; ``value`` is ``None`` on a miss."""
        inject("cache")
        start = perf_counter()
        with self._lock:
            value = self._data.get(key, _SENTINEL)
            if value is not _SENTINEL:
                self._data.move_to_end(key)
                self._hits += 1
                hit = True
            else:
                self._misses += 1
                hit = False
                value = None
        if obs.metrics_enabled():
            self._record_lookup(hit, perf_counter() - start)
        return hit, value

    def store(self, key: Any, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry when full."""
        if self._maxsize == 0:
            return
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                evicted += 1
            self._evictions += evicted
            size = len(self._data)
        if obs.metrics_enabled():
            if evicted:
                obs.get_registry().counter(
                    "repro_cache_evictions_total",
                    "Entries evicted by the LRU policy, by cache name.",
                    cache=self.name,
                ).inc(evicted)
            self._record_gauge(size)

    def get_or_compute(self, key: Any, compute: Any) -> Any:
        """Return the cached value for ``key``, computing and storing on miss.

        ``compute`` runs *outside* the cache lock, so concurrent misses on
        the same key may compute twice — both arrive at the same value (the
        compute functions used here are deterministic), and the second store
        simply refreshes the entry.
        """
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        self.store(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and count one invalidation."""
        with self._lock:
            self._data.clear()
            self._invalidations += 1
        if obs.metrics_enabled():
            obs.get_registry().counter(
                "repro_cache_invalidations_total",
                "Wholesale cache invalidations (e.g. model generation "
                "swaps), by cache name.",
                cache=self.name,
            ).inc()
            self._record_gauge(0)

    def stats(self) -> CacheStats:
        """Snapshot the counters (works with observability disabled)."""
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._data),
                maxsize=self._maxsize,
            )


class CachedModelView:
    """Read-only model proxy memoizing ``implementation_space``.

    ``IS(H)`` is the shared sub-query of every space query and every
    strategy: ``GS``/``AS`` are projections of it, and each ranking pass
    starts from it.  This view delegates the full
    :class:`AssociationGoalModel` query surface and routes the three space
    queries through one memoized ``IS`` lookup, so repeated and overlapping
    activities skip the inverted-index unions.

    The view never mutates the underlying model and the memoized sets are
    handed out by reference — callers (the shipped strategies) treat them as
    read-only, which keeps hits allocation-free.

    ``generation`` is baked into every cache key so views over different
    model generations can safely share one :class:`LRUCache`: a late store
    by an in-flight request against a retired generation lands under that
    generation's keys and is unreachable from the current one (frozen ids
    are re-densified on every freeze, so a cross-generation hit would be
    outright wrong, not merely stale).

    The view also carries the generation's CSR engine
    (:class:`~repro.core.vectorized.BatchRecommender`), built completely in
    ``__init__`` unless one is passed in: multi-worker serving passes an
    engine rebuilt zero-copy from the shared-memory arena, so workers skip
    the sparse products.
    """

    def __init__(
        self,
        model: AssociationGoalModel,
        cache: LRUCache | None = None,
        generation: int = 0,
        engine: BatchRecommender | None = None,
    ) -> None:
        self._model = model
        self._generation = generation
        self._cache = cache if cache is not None else LRUCache(
            4096, name="implementation_space"
        )
        if engine is None:
            from repro.core.vectorized import BatchRecommender

            engine = BatchRecommender(model)
        self._engine = engine

    @property
    def wrapped(self) -> AssociationGoalModel:
        """The underlying immutable model."""
        return self._model

    def csr_engine(self) -> BatchRecommender:
        """The generation's CSR engine.

        The view is generation-scoped, so the engine's precomputed matrices
        are exactly as fresh as every other cache keyed on this generation.
        Every engine consumer of a serving snapshot reads this one instance
        (see :func:`~repro.core.protocols.engine_of`).
        """
        return self._engine

    @property
    def space_cache(self) -> LRUCache:
        """The LRU memoizing ``implementation_space``."""
        return self._cache

    def __getattr__(self, name: str) -> Any:
        # Everything not overridden below (label translation, index access,
        # derived statistics) delegates to the wrapped model unchanged.
        return getattr(self._model, name)

    def implementation_space(self, activity: frozenset[int]) -> set[int]:
        """Memoized ``IS(H)``."""
        if not obs.tracing_enabled():
            return self._cache.get_or_compute(
                (self._generation, activity),
                lambda: self._model.implementation_space(activity),
            )
        # Stage span even on a cache hit: the per-stage breakdown and the
        # slow-request trees must show where a request spent its time
        # whether or not the memo answered.  A miss nests the model's own
        # ``implementation_space`` span inside this one; the stage profiler
        # counts only the outermost occurrence of a stage name.
        with obs.trace_span("implementation_space") as span:
            hit, value = self._cache.lookup((self._generation, activity))
            if not hit:
                value = self._model.implementation_space(activity)
                self._cache.store((self._generation, activity), value)
            span.set_attrs(cached=hit, size=len(value))
        return value

    def goal_space(self, activity: frozenset[int]) -> set[int]:
        """``GS(H)`` derived from the memoized ``IS(H)``."""
        if not obs.tracing_enabled():
            return self._goal_space_ids(activity)
        with obs.trace_span("goal_space") as span:
            space = self._goal_space_ids(activity)
            span.set_attrs(size=len(space))
        return space

    def _goal_space_ids(self, activity: frozenset[int]) -> set[int]:
        return {
            self._model.implementation_goal(pid)
            for pid in self.implementation_space(activity)
        }

    def action_space(self, activity: frozenset[int]) -> set[int]:
        """``AS(H)`` derived from the memoized ``IS(H)``."""
        if not obs.tracing_enabled():
            return self._action_space_ids(activity)
        with obs.trace_span("action_space") as span:
            space = self._action_space_ids(activity)
            span.set_attrs(size=len(space))
        return space

    def _action_space_ids(self, activity: frozenset[int]) -> set[int]:
        space: set[int] = set()
        for pid in self.implementation_space(activity):
            space |= self._model.implementation_actions(pid)
        return space

    def candidate_actions(self, activity: frozenset[int]) -> set[int]:
        """``AS(H) − H`` via the memoized space."""
        return self.action_space(activity) - activity

    def goal_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[GoalLabel]:
        """Label-level ``GS(H)`` through the memoized path."""
        encoded = self._model.encode_activity(activity)
        return {
            self._model.goal_label(gid) for gid in self.goal_space(encoded)
        }

    def action_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[ActionLabel]:
        """Label-level ``AS(H)`` through the memoized path."""
        encoded = self._model.encode_activity(activity)
        return {
            self._model.action_label(aid) for aid in self.action_space(encoded)
        }


class CachingRecommender:
    """LRU front over a :class:`GoalRecommender`.

    Results are keyed on ``(generation, strategy, frozen activity, k)`` —
    the activity at the *label* level, so two raw activities that encode to
    the same id set still get their own entries (their
    ``RecommendationList.activity`` fields differ).  A hit returns the
    exact object the reference path produced earlier; a miss delegates and
    stores.  As with :class:`CachedModelView`, the ``generation`` prefix
    keeps a shared cache safe across hot model swaps: an in-flight request
    that stores after the swap's invalidation cannot serve its stale result
    to the new generation.
    """

    def __init__(
        self,
        recommender: GoalRecommender,
        cache: LRUCache,
        generation: int = 0,
    ) -> None:
        self.recommender = recommender
        self.cache = cache
        self.generation = generation

    def recommend(
        self,
        activity: Iterable[ActionLabel],
        k: int = 10,
        strategy: str | None = None,
    ) -> tuple[RecommendationList, bool]:
        """Return ``(result, cache_hit)`` for one request."""
        chosen = strategy or self.recommender.default_strategy
        frozen = frozenset(activity)
        key = (self.generation, chosen, frozen, k)
        hit, cached = self.cache.lookup(key)
        if hit:
            return cached, True
        result = self.recommender.recommend(frozen, k=k, strategy=chosen)
        self.cache.store(key, result)
        return result, False
