"""Serving-layer caches over the goal model (paper Section 4's indexes, warm).

The reference strategies recompute the implementation space ``IS(H)`` and the
full ranking on every request.  At serving scale (the paper motivates the
index structures with a 20K-cart FoodMart workload) activities repeat —
carts cluster around popular product combinations, so a small LRU keyed on
``(generation, strategy, frozen activity, k)`` answers a large fraction of
``/recommend`` traffic without ranking at all.

Three pieces live here:

- :class:`LRUCache` — a thread-safe, size-bounded LRU with hit/miss/eviction
  counters and a lookup-latency histogram registered in :mod:`repro.obs`
  (families ``repro_cache_*``, labelled by cache name);
- :class:`CachedModelView` — a generation's CSR engine presented as the
  whole :class:`~repro.core.protocols.ModelView` surface, answered from the
  engine's arrays and label tables; :func:`build_served_view` builds one
  from the mutation log and hands the build's freed scratch back to the
  OS (:func:`trim_heap`);
- :class:`CachingRecommender` — a :class:`~repro.core.recommender.GoalRecommender`
  wrapper that consults the recommendation LRU before ranking.

The recommendation cache is invalidated wholesale by the serving layer's
*generation counter* when the model mutates (see ``docs/serving.md``);
entries never carry their own TTL, so a cached value is exactly as fresh as
its generation.  The generation is also part of every cache key: a request
that resolved a snapshot before a model swap may ``store()`` *after* the
swap's ``clear()``, and the key prefix makes that late entry unreachable
from the new generation instead of poisoning it with results computed
against retired implementation ids.  Results served from the cache are the same
:class:`~repro.core.entities.RecommendationList` objects the reference path
produced — bit-identical by construction (asserted in the parity suite).
"""

from __future__ import annotations

import ctypes
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.core.entities import (
    ActionLabel,
    GoalImplementation,
    GoalLabel,
    RecommendationList,
)
from repro.core.incremental import IncrementalGoalModel
from repro.core.library import LibraryStats
from repro.core.model import LabelTables, intern_rows
from repro.core.recommender import GoalRecommender
from repro.resilience.faults import inject
from repro.utils.concurrency import make_lock

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy
    from repro.core.vectorized import BatchRecommender, EngineSource

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
    "CachedModelView._engine": "<final>",
    "CachedModelView._labels": "<final>",
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
    """A generation's CSR engine as the whole model query surface.

    The serving snapshot's model view: every
    :class:`~repro.core.protocols.ModelView` method, plus :meth:`stats`
    and :meth:`action_frequencies`, answers from the engine's arrays and
    label tables — index lookups slice ``M``, the posting lists and
    ``goal_of_impl``; the three space queries (``IS``/``GS``/``AS``) read
    the engine's masks (:meth:`~repro.core.vectorized.BatchRecommender.spaces`).
    So ``/spaces``, ``/health``, the drift baseline and the scalar-only
    strategies read the same structure that ranks, and no dict index is
    kept beside it.  Every answer equals the
    :class:`~repro.core.model.AssociationGoalModel` built from the same
    library (asserted in the test suite).

    The engine is built from ``source`` unless one is passed in: the
    multi-worker bootstrap passes an engine rebuilt zero-copy from the
    shared-memory arena, so workers skip the sparse products.
    """

    def __init__(
        self,
        source: EngineSource | None = None,
        engine: BatchRecommender | None = None,
    ) -> None:
        if engine is None:
            from repro.core.vectorized import BatchRecommender

            if source is None:
                raise TypeError("CachedModelView needs a source or an engine")
            engine = BatchRecommender(source)
        self._engine = engine
        self._labels: LabelTables = engine.labels

    def csr_engine(self) -> BatchRecommender:
        """The generation's CSR engine.

        The view is generation-scoped, so the engine's precomputed matrices
        are exactly as fresh as every other cache keyed on this generation.
        Every engine consumer of a serving snapshot reads this one instance
        (see :func:`~repro.core.protocols.engine_of`).
        """
        return self._engine

    @property
    def labels(self) -> LabelTables:
        """The generation's label tables (the engine's)."""
        return self._labels

    # -- sizes ---------------------------------------------------------

    @property
    def num_actions(self) -> int:
        """Number of distinct actions."""
        return self._engine.num_actions

    @property
    def num_goals(self) -> int:
        """Number of distinct goals."""
        return self._engine.num_goals

    @property
    def num_implementations(self) -> int:
        """Number of implementations."""
        return self._engine.num_implementations

    # -- label/id translation -----------------------------------------

    def action_id(self, label: ActionLabel) -> int:
        """Id of an action label; raises :class:`UnknownActionError`."""
        return self._labels.action_id(label)

    def goal_id(self, label: GoalLabel) -> int:
        """Id of a goal label; raises :class:`UnknownGoalError`."""
        return self._labels.goal_id(label)

    def action_label(self, aid: int) -> ActionLabel:
        """Label of an action id."""
        return self._labels.actions[aid]

    def goal_label(self, gid: int) -> GoalLabel:
        """Label of a goal id."""
        return self._labels.goals[gid]

    def has_action(self, label: ActionLabel) -> bool:
        """``True`` when ``label`` is an indexed action."""
        return label in self._labels.action_ids

    def has_goal(self, label: GoalLabel) -> bool:
        """``True`` when ``label`` is an indexed goal."""
        return label in self._labels.goal_ids

    def encode_activity(
        self, activity: Iterable[ActionLabel], strict: bool = False
    ) -> frozenset[int]:
        """Translate action labels to ids (unknown ones dropped unless
        ``strict``)."""
        return self._labels.encode(activity, strict)

    # -- index lookups -------------------------------------------------

    def _row(self, pid: int) -> np.ndarray:
        """Row ``pid`` of ``M``: its action ids, ascending."""
        engine = self._engine
        return engine._m_indices[engine._m_indptr[pid]:engine._m_indptr[pid + 1]]

    def implementation_actions(self, pid: int) -> frozenset[int]:
        """``GI-A-idx[pid]`` — row ``pid`` of ``M``."""
        return frozenset(self._row(pid).tolist())

    def implementation_goal(self, pid: int) -> int:
        """``GI-G-idx[pid]`` — ``goal_of_impl[pid]``."""
        return int(self._engine._goal_of_impl[pid])

    def implementations_of_action(self, aid: int) -> frozenset[int]:
        """``A-GI-idx[aid]`` — the action's posting list."""
        return frozenset(self._engine.posting_list(aid).tolist())

    def implementations_of_goal(self, gid: int) -> frozenset[int]:
        """``G-GI-idx[gid]`` — the implementations whose goal is ``gid``."""
        return frozenset(
            np.flatnonzero(self._engine._goal_of_impl == gid).tolist()
        )

    def implementation(self, pid: int) -> GoalImplementation:
        """Implementation ``pid`` at the label level."""
        actions = self._labels.actions
        return GoalImplementation(
            goal=self.goal_label(self.implementation_goal(pid)),
            actions=frozenset(actions[a] for a in self._row(pid).tolist()),
            impl_id=pid,
        )

    # -- space queries -------------------------------------------------

    def _space(self, name: str, index: int, activity: frozenset[int]) -> set[int]:
        """One of the engine's ``(IS, GS, AS)`` arrays as a set, under its
        span when tracing is on."""
        if not obs.tracing_enabled():
            return set(self._engine.spaces(activity)[index].tolist())
        with obs.trace_span(name) as span:
            space = set(self._engine.spaces(activity)[index].tolist())
            span.set_attrs(size=len(space))
        return space

    def implementation_space(self, activity: frozenset[int]) -> set[int]:
        """``IS(H)`` from the engine."""
        return self._space("implementation_space", 0, activity)

    def goal_space(self, activity: frozenset[int]) -> set[int]:
        """``GS(H)`` from the engine."""
        return self._space("goal_space", 1, activity)

    def action_space(self, activity: frozenset[int]) -> set[int]:
        """``AS(H)`` from the engine."""
        return self._space("action_space", 2, activity)

    def candidate_actions(self, activity: frozenset[int]) -> set[int]:
        """``AS(H) − H`` from the engine."""
        return self.action_space(activity) - activity

    def goal_completeness(self, gid: int, activity: frozenset[int]) -> float:
        """Best ``|A∩H| / |A|`` over the goal's implementations (Eq. 3)."""
        best = 0.0
        for pid in self.implementations_of_goal(gid):
            row = self._row(pid).tolist()
            value = len(activity.intersection(row)) / len(row)
            if value > best:
                best = value
        return best

    def goal_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[GoalLabel]:
        """Label-level ``GS(H)`` from the engine."""
        goals = self._labels.goals
        return {goals[gid] for gid in self.goal_space(self.encode_activity(activity))}

    def action_space_labels(
        self, activity: Iterable[ActionLabel]
    ) -> set[ActionLabel]:
        """Label-level ``AS(H)`` from the engine."""
        actions = self._labels.actions
        return {
            actions[aid]
            for aid in self.action_space(self.encode_activity(activity))
        }

    # -- library statistics --------------------------------------------

    def action_frequencies(self) -> dict[int, float]:
        """Per-action frequency ``|A-GI-idx[a]| / |L|`` (posting-list
        lengths over the implementation count)."""
        total = self.num_implementations
        lengths = np.diff(self._engine._post_indptr).tolist()
        return {aid: length / total for aid, length in enumerate(lengths)}

    def stats(self) -> LibraryStats:
        """Library-level statistics from the CSR row lengths."""
        engine = self._engine
        entries = int(engine._m_indptr[-1])
        return LibraryStats(
            num_implementations=engine.num_implementations,
            num_goals=engine.num_goals,
            num_actions=engine.num_actions,
            connectivity=entries / engine.num_actions,
            avg_implementation_length=entries / engine.num_implementations,
            max_implementation_length=int(np.diff(engine._m_indptr).max()),
            avg_implementations_per_goal=(
                engine.num_implementations / engine.num_goals
            ),
        )


def build_served_view(log: IncrementalGoalModel) -> CachedModelView:
    """Index a mutation log's live implementations for serving.

    Interns the log's label rows in ascending log-id order
    (:func:`~repro.core.model.intern_rows`: the walk
    :meth:`~repro.core.incremental.IncrementalGoalModel.freeze` takes,
    without sorting each row again, so the ids equal the reference
    model's), builds the generation's CSR engine from the label tables
    and id-sorted rows, and wraps it.  No
    :class:`~repro.core.model.AssociationGoalModel` is built.  The log
    must hold at least one live implementation.

    Every generation build ends with one :func:`trim_heap`, which hands
    the build's freed scratch back to the OS.  Inside a
    :func:`trim_after` block (a hot swap, which builds under the model's
    write lock) the trim runs when the block ends instead.
    """
    view = CachedModelView(intern_rows(log.rows()))
    if getattr(_TRIM_DEFERRED, "pending", None) is None:
        trim_heap()
    else:
        _TRIM_DEFERRED.pending = True
    return view


def _find_malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()

#: Set (to whether a build is waiting for its trim) inside a
#: :func:`trim_after` block on this thread.
_TRIM_DEFERRED = threading.local()


def trim_heap() -> None:
    """Return the heap pages a generation build freed to the OS.

    After the first large NumPy temporary is freed, glibc raises its
    dynamic mmap threshold, so the build's later temporaries (the
    ``MᵀM`` pair keys, the sort keys) come from the heap, whose freed pages
    stay resident: 28.6 MB on a dense 12K-recipe library
    (docs/performance.md, "Served-process memory").  ``malloc_trim(0)``
    releases them in about 1 ms.  A no-op where the C library has no
    ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@contextmanager
def trim_after() -> Iterator[None]:
    """Hold back the :func:`trim_heap` of every :func:`build_served_view`
    in the block; trim once when the block ends, if one was built.

    Entered outside a lock the block then takes, it keeps the trim out of
    that lock.  Not reentrant.
    """
    _TRIM_DEFERRED.pending = False
    try:
        yield
    finally:
        built = _TRIM_DEFERRED.pending
        del _TRIM_DEFERRED.pending
        if built:
            trim_heap()


class CachingRecommender:
    """LRU front over a :class:`GoalRecommender`.

    Results are keyed on ``(generation, strategy, frozen activity, k)`` —
    the activity at the *label* level, so two raw activities that encode to
    the same id set still get their own entries (their
    ``RecommendationList.activity`` fields differ).  A hit returns the
    exact object the reference path produced earlier; a miss delegates and
    stores.  The ``generation`` prefix keeps a shared cache safe across hot
    model swaps: an in-flight request that stores after the swap's
    invalidation cannot serve its stale result to the new generation.
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
