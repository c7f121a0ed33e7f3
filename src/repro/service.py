"""An HTTP JSON service over the goal recommender (stdlib only).

Deployments usually front a recommender with a small service; this module
provides one with zero dependencies beyond the standard library, suitable
for demos and integration tests (it is *not* hardened for the open
internet).

Endpoints (JSON unless noted):

- ``GET  /health`` — liveness plus version, model statistics, library size
  and the current model generation;
- ``GET  /metrics`` — Prometheus text exposition of the process metrics
  registry (request/error counters, per-strategy recommend latency
  histograms, cache hit/miss/eviction counters, model gauges); with
  ``Accept: application/openmetrics-text`` the OpenMetrics 1.0 rendering
  is served instead, carrying per-bucket request-id exemplars;
- ``GET  /model`` — the serving state: generation counter, live model
  sizes, and per-cache statistics (hits, misses, evictions, hit rate);
- ``GET  /debug/vars`` — introspection snapshot: uptime, model generation,
  cache statistics, in-flight requests, span-buffer occupancy, per-stage
  latency breakdown (p50/p95/p99), slow-log and profile-session state;
- ``GET  /debug/slow`` — the N slowest requests above the configured
  threshold, each with its full span tree;
- ``GET  /debug/quality`` — the recommendation-quality snapshot: per-
  strategy request/empty/below-threshold counts, OOV and catalog-coverage
  rates, drift-detector state (PSI score, alert flag, baseline
  generation), SLO burn rates and flight-recorder statistics (see
  ``docs/quality.md``);
- ``GET  /debug/locks`` — the lock-sanitizer snapshot: manifest in
  force, per-site acquisition/contention/hold statistics and detected
  violations (``{"enabled": false}`` unless started with
  ``--lock-sanitizer`` / ``REPRO_LOCK_SANITIZER=1``);
- ``GET  /debug/history`` — the metrics-history index (captured families,
  retention math, memory estimate); with ``?family=...`` (plus optional
  ``window=`` / ``step=`` seconds) an aligned time-series view: counters
  as rates, gauges as last values, histograms as windowed p50/p95/p99
  (see ``docs/monitoring.md``);
- ``GET  /debug/trace/<request-id>`` — every retained trace of that
  request (or trace id): matching span trees still in the tracer's ring
  buffer and matching slow-log entries;
- ``POST /debug/profile`` / ``DELETE /debug/profile`` — start/stop a
  guarded on-demand cProfile session (409 when already active, 404 when
  none is); DELETE returns the :mod:`pstats` report as plain text and
  accepts ``?sort=...&limit=...``;
- ``POST /recommend`` — body ``{"activity": [...], "k": 10,
  "strategy": "breadth"}`` → ranked actions with scores (served through
  the recommendation LRU; the response carries ``"cached"``);
- ``POST /recommend/batch`` — body ``{"activities": [[...], ...], "k": 10,
  "strategy": "breadth"}`` → one ranked list per activity, each scored
  by the CSR :class:`~repro.core.vectorized.BatchRecommender` (built once
  per model generation, reused across requests);
- ``POST /spaces`` — body ``{"activity": [...]}`` → the goal and action
  spaces of the activity (paper Equations 1-2);
- ``POST /explain`` — body ``{"activity": [...], "action": "..."}`` → the
  implementations grounding that candidate (from the CSR engine);
- ``POST /goals`` — body ``{"activity": [...], "scorer": "coverage",
  "top": 10}`` → the goals the activity most likely pursues, scored by
  the CSR engine;
- ``POST /related`` — body ``{"action": "...", "k": 10}`` → the actions
  sharing implementations with that one, by Tanimoto similarity over a
  row of the engine's co-occurrence index;
- ``PUT    /model/implementations`` — body ``{"implementations":
  [{"goal": g, "actions": [...]}, ...]}`` → hot-add implementations;
- ``DELETE /model/implementations/<id>`` — hot-remove one implementation
  by its (stable, monotonic) id.

Hot reload semantics: the service owns a mutation log
(:class:`~repro.core.incremental.IncrementalGoalModel`) behind a
readers-writer lock.  Every generation, the first included, is built the
same way: the log's live implementations are interned into label tables
and id-sorted rows, the CSR engine is built from them and wrapped in a
:class:`~repro.core.caching.CachedModelView` that answers every read
(:func:`~repro.core.caching.build_served_view`); no
:class:`~repro.core.model.AssociationGoalModel` is built.  Each mutation
takes the write lock, appends to the log, builds the next generation and
bumps the **generation counter**; the swap invalidates the recommendation
LRU and publishes the snapshot only once its engine is built, so no
``ThreadingHTTPServer`` worker thread ever observes a half-updated index.
Reads resolve the current snapshot under the read lock and then run
lock-free against immutable state; the generation is part of every cache
key, so a request still in flight on a retired snapshot can finish (and
even store its result) without ever being visible to the new generation.

Conventions:

- errors share one shape, ``{"error": <message>, "detail": <context>}``;
- invalid client input (bad ``k``, malformed ``Content-Length``, wrong
  body shapes) answers ``400``; domain errors (unknown strategy, unknown
  action) answer ``422``; a removal of an unknown implementation id
  answers ``404``;
- every route is one entry of the route table ``_ROUTES``; a known route
  hit with the wrong method answers ``405`` with an ``Allow`` header
  (unknown paths answer ``404``), and both are decided before admission,
  so they never answer ``429`` or ``503``; ``HEAD`` is accepted on every
  ``GET`` route and answers the same status and headers with no body; a
  method the service does not serve at all (``OPTIONS``, ``PATCH``, ...)
  answers ``501`` in the same envelope, counted under ``method="other"``;
- connections are HTTP/1.1 and persistent: a connection serves requests
  until the client closes it or it idles for ``_IDLE_TIMEOUT_SECONDS``; a
  response says ``Connection: close`` and the connection closes whenever
  the request's body was not read in full (a malformed, oversized or
  chunked body, or an error decided before the body was read) and while
  the service drains or stops; a body that stalls past the idle timeout
  answers ``408``;
- a client that disconnects mid-request is recorded in the metrics under
  the nginx-style ``499`` sentinel status (no response is written);
- every response echoes an ``X-Request-Id`` header — the client's, when it
  is at most 64 characters of ``[A-Za-z0-9._:-]``, else a freshly minted
  id — and the same id is bound to the structured-log context for the
  duration of the request;
- every response likewise carries a W3C ``traceparent`` header: an
  incoming valid ``traceparent`` pins the trace id (and flags), otherwise
  a fresh trace id is minted; the ``parent-id`` field is the span id this
  service minted for the request.  The trace id is stamped on the root
  ``http.request`` span, slow-log entries and flight-recorder records,
  and ``GET /debug/trace/<request-id>`` joins them back together.  Shed
  (429), drain (503) and error responses carry both headers — they all
  flow through the same header path;
- while trace detail is on, every response also carries a W3C
  ``Server-Timing`` header: the duration, in milliseconds, of each stage
  (:data:`repro.obs.STAGES`) the request ended before its response was
  written.

Resilience (see ``docs/resilience.md``):

- work routes sit behind an :class:`~repro.resilience.AdmissionController`
  — past ``max_inflight`` executing plus ``max_queue`` briefly-waiting
  requests, excess traffic is shed with ``429`` + ``Retry-After`` (the ops
  routes ``/health``, ``/metrics`` and ``/debug/*`` bypass admission so an
  overloaded server stays observable);
- a request may carry ``X-Request-Deadline-Ms`` (or inherit
  ``default_deadline_ms``); the deadline is checked as the request enters
  each stage up to ``rank`` (:data:`repro.obs.STAGES`) and before every
  activity of a batch, and an expired request answers ``504`` naming the
  stage reached (also recorded on the request span as ``deadline_stage``);
- :meth:`RecommenderService.drain` flips ``/health`` to ``draining``
  (work routes answer ``503`` + ``Retry-After``), stops accepting, closes
  idle kept-alive connections, waits for in-flight requests up to a
  timeout, then tears the server down — the CLI wires SIGTERM/SIGINT to
  it.  Admission counts requests, not connections.

Usage::

    server = RecommenderService(model, port=0)   # 0 = ephemeral port
    server.start()
    ...  # requests against http://127.0.0.1:{server.port}
    server.stop()

Constructing a service enables metrics, tracing, exemplar capture and
trace detail process-wide — a service without request accounting is not
observable, and its ``/debug/slow`` span trees and ``/metrics`` exemplars
need spans and request ids recorded.  Pass ``enable_metrics=False`` /
``enable_tracing=False`` / ``enable_exemplars=False`` /
``trace_detail=False`` to opt out piecewise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import socket
import threading
import time
from collections.abc import Callable, Iterable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Any, Literal

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy
    from repro.core.vectorized import BatchRecommender

from repro import obs
from repro._version import __version__
from repro.core.approximate import PrunedBreadthStrategy
from repro.core.caching import (
    CachedModelView,
    CachingRecommender,
    LRUCache,
    build_served_view,
    trim_after,
)
from repro.core.entities import ActionLabel, GoalLabel, RecommendationList
from repro.core.goal_inference import SCORERS
from repro.core.library import LibraryStats
from repro.core.incremental import IncrementalGoalModel
from repro.core.model import AssociationGoalModel
from repro.core.recommender import GoalRecommender, PAPER_STRATEGIES
from repro.core.strategies import create_strategy
from repro.exceptions import ModelError, ReproError
from repro.obs.profiling import mark_stage, request_marks, server_timing, stage_durations
from repro.resilience import (
    Deadline,
    DeadlineExceededError,
    deadline_scope,
    enter_stage,
    record_deadline_exceeded,
    record_shed,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.faults import inject
from repro.utils.concurrency import (
    RWLock,
    lock_sanitizer_snapshot,
    make_condition,
    make_lock,
)
from repro.utils.validation import require_in

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: an activity list, not a bulk upload
_MAX_BATCH_BODY_BYTES = 8 << 20  # batch scoring legitimately ships more
_MAX_BATCH_ACTIVITIES = 50_000  # backstop against unbounded fan-out

#: Socket timeout of every accepted connection, in seconds: an idle
#: kept-alive connection that sends no request for this long is closed,
#: and a request body that stalls this long answers ``408``.
_IDLE_TIMEOUT_SECONDS = 5.0

#: Serving tiers of ``POST /recommend``: ``exact`` runs the requested
#: strategy as-is, ``approx`` swaps Breadth for its budgeted pruning tier
#: (``breadth_pruned``) — see docs/performance.md.
_TIERS = ("exact", "approx")

#: The strategy the ``approx`` tier serves.  A response echoes tier
#: ``approx`` whenever this strategy ran, whether the request asked for
#: the tier or named the strategy itself.
_APPROX_STRATEGY = "breadth_pruned"

#: ``?sort=`` values accepted by ``DELETE /debug/profile`` (pstats keys).
_PROFILE_SORTS = (
    "cumulative", "tottime", "time", "calls", "ncalls", "filename",
    "line", "name", "module", "pcalls", "stdname",
)

#: The methods the handler serves.  Any other method token answers ``501``
#: and is counted under the one ``method="other"`` label, so clients cannot
#: mint new label values.
_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE")

#: A client's ``X-Request-Id`` is adopted only when it matches; any other
#: value is replaced by a minted id.  The id is echoed, logged, kept in the
#: slow log and flight recorder and stamped as the OpenMetrics exemplar
#: label, whose label set is capped at 128 code points.
_REQUEST_ID = re.compile(r"[A-Za-z0-9._:-]{1,64}")


@dataclasses.dataclass(frozen=True, slots=True)
class _Route:
    """One entry of the route table :data:`_ROUTES`.

    ``methods`` maps each HTTP method to the name of its ``_Handler``
    method — a name, not a function, so a handler patched on the class is
    the one called; ``GET`` implies ``HEAD``.  A route with a ``param``
    matches every path starting with ``path``; its handler gets the
    trailing segment, and its metrics label ``path + param`` stays one
    value.  A nonzero ``body_cap`` reads a JSON object body of at most
    that many bytes and hands it to the handler.  ``kind`` is the path
    through the service: ``work`` routes are shed while draining, admitted,
    given their deadline and profiled; ``ops`` routes are only profiled, so
    an overloaded or draining server stays observable (the drain sequence
    relies on ``/health``); ``debug`` routes get neither — ``DELETE
    /debug/profile`` must not wait on itself, and a profile should show
    serving work.
    """

    path: str
    methods: dict[str, str]
    kind: Literal["work", "ops", "debug"] = "work"
    body_cap: int = 0
    param: str = ""

    @property
    def endpoint(self) -> str:
        """The metrics ``endpoint`` label."""
        return self.path + self.param

    @property
    def allow(self) -> str:
        """The ``Allow`` header of a ``405`` on this route."""
        return ", ".join(
            method for method in _METHODS
            if method in self.methods or (method == "HEAD" and "GET" in self.methods)
        )


_ROUTES = (
    _Route("/health", {"GET": "_handle_health"}, kind="ops"),
    _Route("/metrics", {"GET": "_handle_metrics"}, kind="ops"),
    _Route("/model", {"GET": "_handle_model_info"}),
    _Route("/debug/vars", {"GET": "_handle_debug_vars"}, kind="debug"),
    _Route("/debug/slow", {"GET": "_handle_debug_slow"}, kind="debug"),
    _Route("/debug/quality", {"GET": "_handle_debug_quality"}, kind="debug"),
    _Route("/debug/locks", {"GET": "_handle_debug_locks"}, kind="debug"),
    _Route("/debug/history", {"GET": "_handle_debug_history"}, kind="debug"),
    _Route("/debug/trace/", {"GET": "_handle_debug_trace"}, kind="debug",
           param="<request-id>"),
    _Route("/debug/profile",
           {"POST": "_handle_profile_start", "DELETE": "_handle_profile_stop"},
           kind="debug"),
    _Route("/recommend", {"POST": "_handle_recommend"},
           body_cap=_MAX_BODY_BYTES),
    _Route("/recommend/batch", {"POST": "_handle_recommend_batch"},
           body_cap=_MAX_BATCH_BODY_BYTES),
    _Route("/spaces", {"POST": "_handle_spaces"}, body_cap=_MAX_BODY_BYTES),
    _Route("/explain", {"POST": "_handle_explain"}, body_cap=_MAX_BODY_BYTES),
    _Route("/goals", {"POST": "_handle_goals"}, body_cap=_MAX_BODY_BYTES),
    _Route("/related", {"POST": "_handle_related"}, body_cap=_MAX_BODY_BYTES),
    _Route("/model/implementations", {"PUT": "_handle_put_implementations"},
           body_cap=_MAX_BODY_BYTES),
    _Route("/model/implementations/", {"DELETE": "_handle_delete_implementation"},
           param="<id>"),
)
_EXACT_ROUTES = {route.path: route for route in _ROUTES if not route.param}
_PREFIX_ROUTES = tuple(route for route in _ROUTES if route.param)
#: The ``detail`` of a ``404``: every route's endpoint, by method.
_ROUTE_LISTING = {
    method.lower(): [route.endpoint for route in _ROUTES if method in route.methods]
    for method in ("GET", "POST", "PUT", "DELETE")
}


def _route_for(path: str) -> _Route | None:
    """The route serving ``path``, or ``None`` for an unknown path."""
    route = _EXACT_ROUTES.get(path)
    if route is None:
        for candidate in _PREFIX_ROUTES:
            if path.startswith(candidate.path):
                return candidate
    return route


class _ClientError(Exception):
    """A request answered with an error envelope instead of its handler's
    response: raised by the router and the validators, answered once by
    ``_Handler._dispatch``."""

    def __init__(
        self, status: int, error: str, detail: object = None,
        allow: str | None = None,
    ) -> None:
        super().__init__(error)
        self.status = status
        self.error = error
        self.detail = detail
        self.allow = allow


@dataclasses.dataclass(frozen=True, slots=True)
class _RequestRecord:
    """The facts of one finished request, built once by
    ``_Handler._dispatch`` and fanned out by ``RecommenderService._record``;
    ``end_ns`` is the end of the response write, on the ``marks``' clock."""

    request_id: str
    trace_id: str
    endpoint: str
    method: str
    status: int
    elapsed: float
    root: obs.Span | None
    deadline_stage: str | None
    marks: list[tuple[str, int]]
    end_ns: int


_LOG = obs.get_logger("repro.service")

#: ``/health`` statistics of a generation with no live implementation.
_EMPTY_STATS = LibraryStats(
    num_implementations=0,
    num_goals=0,
    num_actions=0,
    connectivity=0.0,
    avg_implementation_length=0.0,
    max_implementation_length=0,
    avg_implementations_per_goal=0.0,
)

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md).  ``ModelManager`` methods either take the
#: RWLock themselves or carry the ``_locked`` suffix marking that their
#: caller already holds it.
_GUARDED_BY = {
    "ModelManager._log": "_lock",
    "ModelManager._generation": "_lock",
    "ModelManager._snapshot": "_lock",
    "ModelManager._base_recommender": "_lock",
    "ModelManager._lock": "<final>",
    # Set once during single-threaded worker bootstrap, before the server
    # thread exists; read-only afterwards.
    "ModelManager._mutation_router": "<caller>",
    "RecommenderService._inflight": "_inflight_lock",
    "RecommenderService._draining": "_inflight_lock",
    "RecommenderService._inflight_lock": "<final>",
    "_Server._connections": "_conn_lock",
    "_Server._closing": "_conn_lock",
    "_Server._conn_lock": "<final>",
}


class ModelSnapshot:
    """One immutable model generation plus its scorers.

    Everything a read path needs hangs off the snapshot, so a handler
    resolves it once (under the read lock) and then runs against state that
    no writer will ever mutate.  ``view`` is ``None`` for the empty model
    (every implementation removed) — read endpoints degrade to empty
    results instead of erroring.  ``engine`` is the generation's one CSR
    engine, built before the snapshot is published and carried by
    ``view``; every read route — ``/recommend``, ``/recommend/batch``,
    the approximate tier, ``/spaces``, ``/goals``, ``/related``,
    ``/explain``, ``/health`` — and the quality monitor read through it.
    """

    __slots__ = (
        "generation", "view", "recommender", "caching_recommender", "engine",
    )

    def __init__(
        self,
        generation: int,
        view: CachedModelView | None,
        recommender: GoalRecommender | None,
        caching_recommender: CachingRecommender | None,
    ) -> None:
        self.generation = generation
        self.view = view
        self.recommender = recommender
        self.caching_recommender = caching_recommender
        self.engine: BatchRecommender | None = (
            None if view is None else view.csr_engine()
        )


class ModelManager:
    """The mutable serving state: mutation log, cache, generation.

    Every generation is built from the log by
    :func:`~repro.core.caching.build_served_view`.  An
    :class:`AssociationGoalModel` given to the constructor is turned into
    a log once; an ``engine`` given with a log (a pool worker's
    shared-memory engine, exported by the parent from the same log) serves
    generation 0 as it is.  Readers call :meth:`snapshot` (read lock,
    O(1)) and work against the returned :class:`ModelSnapshot`.  Writers
    (:meth:`add_implementations`, :meth:`remove_implementation`) take the
    write lock for the whole mutate-rebuild-invalidate-swap sequence, so
    the generation counter, the result cache and the engine always change
    together.
    """

    def __init__(
        self,
        model: AssociationGoalModel | IncrementalGoalModel,
        cache_size: int = 1024,
        on_swap: Callable[[ModelSnapshot], None] | None = None,
        approx_budget: int = 128,
        initial_generation: int = 0,
        engine: BatchRecommender | None = None,
    ) -> None:
        self._lock = RWLock(site="ModelManager._lock")
        self._log = (
            model
            if isinstance(model, IncrementalGoalModel)
            else IncrementalGoalModel.from_library(model.to_library())
        )
        # ``initial_generation`` lets a respawned multi-worker process
        # (forked from the parent's *current* model state) report the same
        # generation as its surviving siblings instead of restarting at 0.
        self._generation = initial_generation
        self._approx_budget = approx_budget
        # When set (multi-worker mode), public mutations are forwarded to
        # the parent for serialization instead of applied locally — see
        # set_mutation_router().
        self._mutation_router: Any = None
        # Invoked (under the write lock) with every snapshot published by
        # a hot mutation — the service uses it to re-seed the drift
        # baseline per generation.  NOT called for the initial snapshot
        # built here; the service seeds that itself after construction.
        self._on_swap = on_swap
        self.recommendation_cache = LRUCache(cache_size, name="recommendations")
        self._base_recommender: GoalRecommender | None = None
        self._snapshot = self._build_snapshot_locked(
            None if engine is None else CachedModelView(engine=engine)
        )
        self._publish_generation_locked()

    def set_mutation_router(self, router: Any) -> None:
        """Route public mutations through ``router`` (multi-worker mode).

        ``router`` needs ``route_add(pairs)`` and ``route_remove(pid)``
        with the same return contracts as :meth:`add_implementations` /
        :meth:`remove_implementation`.  A worker's router forwards the
        mutation to the parent supervisor, which serializes it across the
        pool and broadcasts an ordered apply command back to every worker
        (this one included) — the local application then happens through
        :meth:`apply_add_implementations` / :meth:`apply_remove_implementation`.
        Must be called before the worker starts serving (single-threaded
        bootstrap), never while requests are in flight.
        """
        self._mutation_router = router

    # ------------------------------------------------------------------
    # Snapshot construction and swap (callers hold the write lock, or are
    # still single-threaded in __init__)
    # ------------------------------------------------------------------

    def _build_snapshot_locked(
        self, cached_view: CachedModelView | None = None
    ) -> ModelSnapshot:
        if self._log.num_implementations == 0:
            return ModelSnapshot(self._generation, None, None, None)
        if cached_view is None:
            # The generation's CSR engine is built here, before the
            # snapshot is published.
            cached_view = build_served_view(self._log)
        if self._base_recommender is None:
            recommender = GoalRecommender(cached_view)
            # The approximate tier's budget is service configuration, not a
            # registry default; the pin lives in the shared strategy cache,
            # so it survives generation swaps.
            recommender.use_strategy(
                PrunedBreadthStrategy(budget=self._approx_budget)
            )
        else:
            # Rebind instead of rebuilding so strategy instances survive
            # generation swaps.
            recommender = self._base_recommender.with_model(cached_view)
        self._base_recommender = recommender
        return ModelSnapshot(
            self._generation,
            cached_view,
            recommender,
            CachingRecommender(
                recommender,
                self.recommendation_cache,
                generation=self._generation,
            ),
        )

    def _publish_generation_locked(self) -> None:
        if obs.metrics_enabled():
            obs.get_registry().gauge(
                "repro_model_generation",
                "Current model generation of the serving layer.",
            ).set(self._generation)

    def _swap_locked(self, op: str) -> ModelSnapshot:
        self._generation += 1
        # Invalidate the cache before the new snapshot becomes visible:
        # every entry was computed against the previous generation.
        self.recommendation_cache.clear()
        self._snapshot = self._build_snapshot_locked()
        self._publish_generation_locked()
        if obs.metrics_enabled():
            obs.get_registry().counter(
                "repro_model_reloads_total",
                "Hot model mutations applied, by operation.",
                op=op,
            ).inc()
        obs.log_event(
            _LOG, "model.reload", op=op, generation=self._generation,
            implementations=self._log.num_implementations,
        )
        if self._on_swap is not None:
            self._on_swap(self._snapshot)
        return self._snapshot

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The current generation counter."""
        with self._lock.read_locked():
            return self._generation

    def snapshot(self) -> ModelSnapshot:
        """The current immutable serving snapshot."""
        # Fault seam: snapshot resolution is the one point every read path
        # (recommend, batch, spaces, explain) passes through.
        inject("model")
        with self._lock.read_locked():
            return self._snapshot

    def stats(self) -> dict[str, Any]:
        """The served generation's statistics for ``/health``."""
        with self._lock.read_locked():
            snap = self._snapshot
        library = _EMPTY_STATS if snap.view is None else snap.view.stats()
        return {
            "generation": snap.generation,
            "implementations": library.num_implementations,
            "goals": library.num_goals,
            "actions": library.num_actions,
            "library": dataclasses.asdict(library),
        }

    def describe(self) -> dict[str, Any]:
        """Serving-state summary for ``GET /model``."""
        with self._lock.read_locked():
            generation = self._generation
            live = self._log.live_implementation_ids()
        stats = self.recommendation_cache.stats()
        payload = dataclasses.asdict(stats)
        payload["hit_rate"] = stats.hit_rate
        return {
            "generation": generation,
            "implementations": len(live),
            "max_implementation_id": live[-1] if live else None,
            "caches": {stats.name: payload},
        }

    def recommend(
        self,
        activity: Iterable[ActionLabel],
        k: int,
        strategy: str,
    ) -> tuple[RecommendationList, bool, int]:
        """One cached recommendation: ``(result, cache_hit, generation)``."""
        enter_stage("cache")
        activity = list(activity)
        snap = self.snapshot()
        if snap.caching_recommender is None:
            # Validate the request exactly as the live path would, so the
            # answer for bad input does not depend on the model state:
            # an unknown strategy is 422 whether or not implementations
            # are loaded.
            create_strategy(strategy)
            return (
                RecommendationList(strategy=strategy, items=(),
                                   activity=frozenset(activity)),
                False,
                snap.generation,
            )
        result, hit = snap.caching_recommender.recommend(
            activity, k=k, strategy=strategy
        )
        # Request-level quality hook: unlike the GoalRecommender hook this
        # one sees cache hits too, and it has the labels + snapshot needed
        # for OOV, drift and coverage accounting.
        if obs.quality_enabled() and snap.view is not None:
            obs.get_quality_monitor().observe_traffic(
                activity, snap.view, result, generation=snap.generation
            )
        return result, hit, snap.generation

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def add_implementations(
        self, pairs: list[tuple[GoalLabel, list[ActionLabel]]]
    ) -> tuple[list[int], ModelSnapshot]:
        """Hot-add implementations; returns their ids and the new snapshot.

        The batch is atomic from the serving layer's point of view: every
        pair is validated before the first index mutation (an empty action
        set raises :class:`ModelError` with nothing applied), and if an add
        still fails mid-list the already-applied ones are published through
        the normal invalidate-and-swap so serving state never diverges from
        the log.
        """
        inject("model")
        materialized = [(goal, list(actions)) for goal, actions in pairs]
        for goal, actions in materialized:
            if not actions:
                raise ModelError(f"implementation of {goal!r} has no actions")
        if self._mutation_router is not None:
            result: tuple[list[int], ModelSnapshot] = (
                self._mutation_router.route_add(materialized)
            )
            return result
        return self.apply_add_implementations(materialized)

    def apply_add_implementations(
        self, pairs: list[tuple[GoalLabel, list[ActionLabel]]]
    ) -> tuple[list[int], ModelSnapshot]:
        """Apply a (pre-validated) add batch to the local model.

        The local half of :meth:`add_implementations`: in single-process
        mode it is called directly; in multi-worker mode every worker's
        control thread calls it with the parent's broadcast, so each
        process's log replays the identical mutation sequence.
        """
        # The generation's heap trim runs after the write lock is released.
        with trim_after(), self._lock.write_locked():
            ids: list[int] = []
            try:
                for goal, actions in pairs:
                    ids.append(self._log.add_implementation(goal, actions))
            except BaseException:
                if ids:
                    self._swap_locked("add")
                raise
            return ids, self._swap_locked("add")

    def remove_implementation(self, pid: int) -> ModelSnapshot:
        """Hot-remove implementation ``pid``; returns the new snapshot.

        Raises :class:`ModelError` when ``pid`` is not live (mapped to 404
        by the HTTP layer).
        """
        inject("model")
        if self._mutation_router is not None:
            snapshot: ModelSnapshot = self._mutation_router.route_remove(pid)
            return snapshot
        return self.apply_remove_implementation(pid)

    def apply_remove_implementation(self, pid: int) -> ModelSnapshot:
        """Apply one removal to the local model (see
        :meth:`apply_add_implementations` for the single- vs multi-worker
        split)."""
        with trim_after(), self._lock.write_locked():
            self._log.remove_implementation(pid)
            return self._swap_locked("remove")

    def num_implementations(self) -> int:
        """Live implementation count, read consistently under the lock."""
        with self._lock.read_locked():
            return self._log.num_implementations


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a service instance via the server object.

    One handler serves one connection: HTTP/1.1 keeps it open across
    requests until the client closes it, it idles past
    :data:`_IDLE_TIMEOUT_SECONDS`, a response says ``Connection: close``
    or drain/stop closes it (see :class:`_Server`).
    """

    # Set by RecommenderService when the server is constructed.
    service: "RecommenderService"
    server: "_Server"
    # The stdlib's pending status line and headers; _send_headers appends
    # the body so one write carries the whole response.
    _headers_buffer: list[bytes]

    protocol_version = "HTTP/1.1"
    # A kept-alive response is one small write followed by a read; with
    # Nagle on, a second small segment would wait for the peer's delayed
    # ACK (~40 ms).
    disable_nagle_algorithm = True
    timeout = _IDLE_TIMEOUT_SECONDS

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (structured logs replace it)."""

    def handle(self) -> None:
        """Serve requests on this connection until it is to be closed.

        Between requests the connection is idle, which drain and stop may
        close at once (:meth:`_Server.close_connections`).
        """
        try:
            self.handle_one_request()
            while not self.close_connection and self.server.mark(
                self.connection, idle=True
            ):
                self.handle_one_request()
        except ConnectionError:
            # The client reset the connection between requests: there is
            # nobody to answer, and socketserver would print a traceback.
            pass

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _send_headers(
        self,
        status: int,
        content_type: str,
        body: bytes,
        allow: str | None,
        retry_after: float | None = None,
    ) -> None:
        """Send the whole response — status line, headers and body — in
        one write.

        A HEAD response carries the Content-Length of the body that a GET
        would have carried but not the body itself.  The response says
        ``Connection: close`` (and the connection closes after it) when
        the request's body was not read in full — the next bytes on the
        stream would not be a request line — or the service is draining
        or stopping.
        """
        mark_stage("write")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._request_id)
        # Every response — including 429 shed, 503 drain, 504 deadline and
        # error envelopes — flows through here, so the trace context echo
        # holds unconditionally, mirroring X-Request-Id.
        self.send_header(
            "traceparent",
            obs.format_traceparent(
                self._trace_id, self._span_id, self._trace_flags
            ),
        )
        if allow is not None:
            self.send_header("Allow", allow)
        if retry_after is not None:
            # Retry-After takes integer seconds; round up so "0.5s" does
            # not tell clients to retry immediately.
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.999))))
        timing = server_timing() if obs.trace_detail_enabled() else None
        if timing is not None:
            self.send_header("Server-Timing", timing)
        if (
            self._body_unread
            or self.service.is_draining()
            or self.server.is_closing()
        ):
            self.send_header("Connection", "close")
        self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(body)
        self.flush_headers()
        self._write_end_ns = time.perf_counter_ns()

    def _send_json(
        self,
        status: int,
        payload: dict,
        allow: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        mark_stage("encode")
        self._send_headers(
            status, "application/json", json.dumps(payload).encode("utf-8"),
            allow, retry_after=retry_after,
        )

    def _send_error(
        self,
        status: int,
        error: str,
        detail: object = None,
        allow: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        """Send the service's uniform error shape."""
        self._send_json(
            status,
            {"error": error, "detail": detail},
            allow=allow,
            retry_after=retry_after,
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        mark_stage("encode")
        self._send_headers(status, content_type, text.encode("utf-8"), None)

    def _read_json(self, max_bytes: int) -> dict:
        enter_stage("decode")
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            # A malformed header is client error, not a reason to take the
            # handler thread down with a ValueError.
            raise _ClientError(
                400, "malformed Content-Length header", f"got {raw_length!r}"
            ) from None
        if length <= 0 or length > max_bytes or "Transfer-Encoding" in self.headers:
            raise _ClientError(
                400,
                "missing or oversized body",
                f"Content-Length must be in (0, {max_bytes}]",
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _ClientError(
                408, "request body timed out",
                f"no body bytes for {_IDLE_TIMEOUT_SECONDS:g}s",
            ) from None
        self._body_unread = len(raw) < length
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # json.loads(bytes) decodes before parsing: a body that is not
            # valid UTF-8 fails there, and is the same client error.
            raise _ClientError(400, "invalid JSON body", str(exc)) from None
        if not isinstance(payload, dict):
            raise _ClientError(
                400,
                "body must be a JSON object",
                f"got {type(payload).__name__}",
            )
        return payload

    @staticmethod
    def _activity_from(payload: dict) -> list:
        activity = payload.get("activity")
        if not isinstance(activity, list) or not all(
            isinstance(item, str) for item in activity
        ):
            raise _ClientError(
                400,
                "'activity' must be a list of strings",
                "body key 'activity'",
            )
        return activity

    @staticmethod
    def _positive_int_from(payload: dict, key: str, default: int) -> int:
        """Validate an optional positive-integer body key, else answer 400.

        Booleans are rejected explicitly — ``True`` is an ``int`` to
        ``isinstance`` but never a meaningful ``k``.
        """
        value = payload.get(key, default)
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value <= 0
        ):
            raise _ClientError(
                400, f"'{key}' must be a positive integer", f"got {value!r}"
            )
        return value

    @staticmethod
    def _strategy_from(payload: dict) -> str:
        strategy = payload.get("strategy", "breadth")
        if not isinstance(strategy, str):
            raise _ClientError(
                400, "'strategy' must be a string", f"got {strategy!r}"
            )
        return strategy

    def _tier_from(self, payload: dict) -> str:
        """The requested serving tier: ``exact`` (default) or ``approx``.

        Read from the query string (``?tier=approx``, which wins) or the
        body key ``tier``; anything else answers 400.
        """
        tier = self._query.get("tier", payload.get("tier", "exact"))
        if tier not in _TIERS:
            raise _ClientError(
                400,
                f"'tier' must be one of {', '.join(_TIERS)}",
                f"got {tier!r}",
            )
        return str(tier)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_HEAD(self) -> None:  # noqa: N802 (stdlib naming)
        # HEAD routes exactly like GET; the send helpers suppress the body
        # (self.command == "HEAD") while keeping the status and headers —
        # including Content-Length — identical.
        self._dispatch("HEAD")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("DELETE")

    def parse_request(self) -> bool:
        """Parse the request line and headers, then answer any method
        without a ``do_*`` handler here: the stdlib would send its own
        HTML ``501`` with none of the service's headers.  ``False`` tells
        the stdlib the response is already sent.  A request that arrives
        after drain or stop closed the connection is not answered.  The
        request's ``parse`` stage starts here, once its request line is in."""
        self._parse_ns = time.perf_counter_ns()
        if not self.server.mark(self.connection, idle=False):
            self.close_connection = True
            return False
        if not super().parse_request():
            return False
        if self.command in _METHODS:
            return True
        self._dispatch("other")
        return False

    def _dispatch(self, method: str) -> None:
        """Serve one request with request id, trace context, stage marks,
        span, error envelope and one request record."""
        self._write_end_ns = 0
        path, _, query = self.path.partition("?")
        self._query = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        client_id = self.headers.get("X-Request-Id")
        self._request_id = (
            client_id
            if client_id is not None and _REQUEST_ID.fullmatch(client_id)
            else obs.new_request_id()
        )
        # W3C trace context: a valid incoming traceparent pins the trace
        # id and flags; otherwise mint a fresh trace.  The span id is
        # always ours — it names this hop in the echoed header.
        incoming_trace = obs.parse_traceparent(self.headers.get("traceparent"))
        if incoming_trace is not None:
            self._trace_id = incoming_trace.trace_id
            self._trace_flags = incoming_trace.flags
        else:
            self._trace_id = obs.new_trace_id()
            self._trace_flags = "01"
        self._span_id = obs.new_span_id()
        self._status = 0
        self._deadline_stage: str | None = None
        # Until _read_json consumes it, a declared body is still on the
        # stream, and the response must close the connection.
        raw_length = self.headers.get("Content-Length")
        self._body_unread = "Transfer-Encoding" in self.headers or (
            raw_length is not None and raw_length.strip() != "0"
        )
        route = _route_for(path)
        endpoint = route.endpoint if route is not None else "<unknown>"
        start = time.perf_counter()
        self.service._publish_inflight(1)
        root: obs.Span | None = None
        with obs.request_context(self._request_id), \
                obs.trace_context(self._trace_id), \
                request_marks("parse", self._parse_ns) as marks:
            try:
                with obs.trace_span(
                    "http.request", endpoint=endpoint, method=method,
                    request_id=self._request_id, trace_id=self._trace_id,
                ) as span:
                    if isinstance(span, obs.Span):
                        root = span
                    try:
                        self._serve(route, method, path)
                    except _ClientError as exc:
                        self._send_error(
                            exc.status, exc.error, detail=exc.detail,
                            allow=exc.allow,
                        )
                    except DeadlineExceededError as exc:
                        # Before the ReproError arm: an expired deadline is
                        # 504 with the stage reached, not a 422 domain
                        # error.
                        self._deadline_stage = exc.stage
                        record_deadline_exceeded(exc.stage)
                        self._send_error(
                            504, "deadline exceeded", detail=str(exc)
                        )
                    except ReproError as exc:
                        self._send_error(
                            422, str(exc), detail=type(exc).__name__
                        )
                    except (BrokenPipeError, ConnectionResetError):
                        raise  # handled below, bypassing the 500 path
                    except Exception as exc:  # keep the handler thread alive
                        obs.log_event(
                            _LOG, "http.error", level=40, endpoint=endpoint,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                        if not self._status:
                            self._send_error(
                                500,
                                "internal server error",
                                detail=f"{type(exc).__name__}: {exc}",
                            )
                        else:
                            # The response may be cut short mid-write.
                            self.close_connection = True
                    span.set_attr("status", self._status)
                    if self._deadline_stage is not None:
                        span.set_attr("deadline_stage", self._deadline_stage)
            except (BrokenPipeError, ConnectionResetError):
                # The client went away mid-request (possibly while an error
                # response was being written): there is nobody left to
                # answer, and propagating would make socketserver print a
                # traceback.  Record the nginx-style 499 sentinel instead
                # of the meaningless initial 0.
                self._status = 499
                self.close_connection = True
            finally:
                # Record inside the request context so the http.request log
                # line carries the request_id for correlation (and the
                # latency histograms pick it up as their exemplar).
                self.service._record(_RequestRecord(
                    self._request_id, self._trace_id, endpoint, method,
                    self._status, time.perf_counter() - start, root,
                    self._deadline_stage, marks,
                    self._write_end_ns or time.perf_counter_ns(),
                ))
                self.service._publish_inflight(-1)

    def _serve(self, route: _Route | None, method: str, path: str) -> None:
        """Resolve the handler — unsupported method, unknown path and wrong
        method are answered here, before admission — then run it on the
        route kind's path."""
        if method == "other":
            raise _ClientError(
                501, "method not implemented",
                f"{self.command} is not supported; use one of "
                f"{', '.join(_METHODS)}",
            )
        if route is None:
            raise _ClientError(404, f"unknown path {path}", _ROUTE_LISTING)
        handler = route.methods.get("GET" if method == "HEAD" else method)
        if handler is None:
            allow = route.allow
            raise _ClientError(
                405, "method not allowed", f"{route.endpoint} supports {allow}",
                allow=allow,
            )
        if route.kind == "work":
            self._admit_and_run(route, handler, path)
        elif route.kind == "ops":
            self.service.profile_session.profile_call(
                self._run, route, handler, path
            )
        else:
            self._run(route, handler, path)

    def _run(self, route: _Route, handler: str, path: str) -> None:
        """Call ``handler`` with the route's JSON body or trailing path
        segment, if it takes one."""
        if route.body_cap:
            getattr(self, handler)(self._read_json(route.body_cap))
        elif route.param:
            getattr(self, handler)(path[len(route.path):])
        else:
            getattr(self, handler)()

    # ------------------------------------------------------------------
    # Resilience front: draining, admission, deadlines
    # ------------------------------------------------------------------

    def _deadline_from_header(self) -> Deadline | None:
        """The request's deadline, or ``None`` for none.

        ``X-Request-Deadline-Ms`` must be a positive, finite number of
        milliseconds, else the request answers 400; absent, the service's
        ``default_deadline_ms`` applies (itself possibly ``None`` = no
        deadline).
        """
        raw = self.headers.get("X-Request-Deadline-Ms")
        if raw is None:
            default = self.service.default_deadline_ms
            return None if default is None else Deadline.after_ms(default)
        try:
            budget_ms = float(raw)
        except ValueError:
            budget_ms = float("nan")
        if not budget_ms > 0 or budget_ms == float("inf"):
            raise _ClientError(
                400,
                "malformed X-Request-Deadline-Ms header",
                f"must be a positive number of milliseconds, got {raw!r}",
            )
        return Deadline.after_ms(budget_ms)

    def _admit_and_run(self, route: _Route, handler: str, path: str) -> None:
        """Run a work route through the resilience front.

        Work routes are shed with ``503`` while draining and ``429`` once
        the admission controller is saturated (both with
        ``Retry-After``); admitted requests run under their deadline scope
        so every stage checkpoint below can see it.
        """
        service = self.service
        if service.is_draining():
            record_shed("draining")
            self._send_error(
                503,
                "service is draining",
                detail="shutting down; not accepting new work",
                retry_after=service.retry_after_seconds,
            )
            return
        deadline = self._deadline_from_header()
        mark_stage("admission")
        admitted, reason = service.admission.try_acquire(deadline)
        if not admitted:
            record_shed(reason or "saturated")
            self._send_error(
                429,
                "server overloaded",
                detail=f"request shed: {reason}",
                retry_after=service.retry_after_seconds,
            )
            return
        try:
            with deadline_scope(deadline):
                # A deadline spent waiting for the slot fails here, before
                # the handler's work starts.
                enter_stage("admission")
                service.profile_session.profile_call(
                    self._run, route, handler, path
                )
        finally:
            service.admission.release()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _handle_health(self) -> None:
        stats = self.service.manager.stats()
        draining = self.service.is_draining()
        self._send_json(
            200,
            {
                "status": "draining" if draining else "ok",
                "draining": draining,
                "version": __version__,
                "strategies": list(PAPER_STRATEGIES),
                **stats,
            },
        )

    def _handle_metrics(self) -> None:
        if "application/openmetrics-text" in self.headers.get("Accept", ""):
            self._send_text(
                200,
                self.service.registry.render_openmetrics(),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            )
            return
        self._send_text(
            200,
            self.service.registry.render(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _handle_model_info(self) -> None:
        self._send_json(200, self.service.manager.describe())

    # ------------------------------------------------------------------
    # Debug surface
    # ------------------------------------------------------------------

    def _handle_debug_vars(self) -> None:
        self._send_json(200, self.service.debug_vars())

    def _handle_debug_slow(self) -> None:
        log = self.service.slow_log
        self._send_json(
            200,
            {
                "threshold_seconds": log.threshold_seconds,
                "capacity": log.size,
                "count": len(log),
                "requests": log.snapshot(),
            },
        )

    def _handle_debug_quality(self) -> None:
        self._send_json(200, self.service.debug_quality())

    def _handle_debug_locks(self) -> None:
        self._send_json(200, self.service.debug_locks())

    def _handle_debug_history(self) -> None:
        history = self.service.history
        if history is None:
            self._send_json(200, {"enabled": False})
            return
        params = self._query
        family = params.get("family")
        if family is None:
            self._send_json(200, {"enabled": True, **history.index()})
            return
        try:
            window = float(params["window"]) if "window" in params else None
            step = float(params["step"]) if "step" in params else None
        except ValueError:
            raise _ClientError(
                400,
                "'window' and 'step' must be numbers of seconds",
                f"got window={params.get('window')!r} "
                f"step={params.get('step')!r}",
            ) from None
        try:
            series = history.series(family, window=window, step=step)
        except ValueError as exc:
            raise _ClientError(400, "invalid history query", str(exc)) from None
        if series is None:
            raise _ClientError(
                404,
                f"no history for family {family!r}",
                {"families": history.families()},
            )
        self._send_json(200, series)

    def _handle_debug_trace(self, key: str) -> None:
        found = self.service.debug_trace(key)
        if not found["spans"] and not found["slow"]:
            raise _ClientError(
                404,
                f"no retained trace for {key!r}",
                "the span ring buffer and slow log hold a bounded window; "
                "older requests age out",
            )
        self._send_json(200, found)

    def _handle_profile_start(self) -> None:
        try:
            self.service.profile_session.start()
        except RuntimeError as exc:
            raise _ClientError(409, str(exc), "ProfileSession") from None
        self.service._set_profile_active(1)
        obs.log_event(_LOG, "profile.start")
        self._send_json(200, {"profiling": True})

    def _handle_profile_stop(self) -> None:
        sort = self._query.get("sort", "cumulative")
        if sort not in _PROFILE_SORTS:
            raise _ClientError(
                400,
                f"'sort' must be one of {', '.join(_PROFILE_SORTS)}",
                f"got {sort!r}",
            )
        raw_limit = self._query.get("limit", "40")
        try:
            limit = int(raw_limit)
        except ValueError:
            limit = 0
        if limit <= 0:
            raise _ClientError(
                400, "'limit' must be a positive integer", f"got {raw_limit!r}"
            )
        try:
            report = self.service.profile_session.stop(sort=sort, limit=limit)
        except RuntimeError as exc:
            raise _ClientError(404, str(exc), "ProfileSession") from None
        self.service._set_profile_active(0)
        obs.log_event(_LOG, "profile.stop", sort=sort, limit=limit)
        self._send_text(200, report, "text/plain; charset=utf-8")

    def _handle_recommend(self, payload: dict) -> None:
        activity = self._activity_from(payload)
        k = self._positive_int_from(payload, "k", 10)
        strategy = self._strategy_from(payload)
        tier = self._tier_from(payload)
        if tier == "approx":
            # Only Breadth has a pruned tier; a request pairing
            # tier=approx with another strategy is a contradiction, not a
            # silent fallback to exact.
            if strategy != "breadth":
                raise _ClientError(
                    400,
                    "tier 'approx' requires strategy 'breadth'",
                    f"got strategy {strategy!r}",
                )
            strategy = _APPROX_STRATEGY
        result, cached, generation = self.service.manager.recommend(
            activity, k=k, strategy=strategy
        )
        self._send_json(
            200,
            {
                "strategy": result.strategy,
                "tier": (
                    "approx" if result.strategy == _APPROX_STRATEGY else "exact"
                ),
                "cached": cached,
                "generation": generation,
                "recommendations": [
                    {"action": str(item.action), "score": item.score}
                    for item in result
                ],
            },
        )

    def _handle_recommend_batch(self, payload: dict) -> None:
        activities = payload.get("activities")
        if not isinstance(activities, list) or not all(
            isinstance(activity, list)
            and all(isinstance(item, str) for item in activity)
            for activity in activities
        ):
            raise _ClientError(
                400,
                "'activities' must be a list of lists of strings",
                "body key 'activities'",
            )
        if len(activities) > _MAX_BATCH_ACTIVITIES:
            raise _ClientError(
                400,
                "batch too large",
                f"at most {_MAX_BATCH_ACTIVITIES} activities per request, "
                f"got {len(activities)}",
            )
        k = self._positive_int_from(payload, "k", 10)
        strategy = self._strategy_from(payload)
        if strategy not in PAPER_STRATEGIES:
            raise _ClientError(
                400,
                f"'strategy' must be one of {', '.join(PAPER_STRATEGIES)}",
                f"got {strategy!r}",
            )
        snap = self.service.manager.snapshot()
        start = time.perf_counter()
        batch = snap.engine
        if batch is None:
            results: list[list[dict]] = [[] for _ in activities]
        else:
            ranked = batch.recommend_many(
                [frozenset(activity) for activity in activities],
                k=k,
                strategy=strategy,
                # Re-checks the deadline before every activity.
                checkpoint=lambda _index: enter_stage("rank"),
            )
            results = [
                [
                    {"action": str(item.action), "score": item.score}
                    for item in result
                ]
                for result in ranked
            ]
        elapsed = time.perf_counter() - start
        self.service._record_batch(strategy, len(activities), elapsed)
        self._send_json(
            200,
            {
                "strategy": strategy,
                "k": k,
                "generation": snap.generation,
                "count": len(results),
                "results": results,
            },
        )

    def _handle_spaces(self, payload: dict) -> None:
        activity = self._activity_from(payload)
        snap = self.service.manager.snapshot()
        if snap.view is None or snap.engine is None:
            self._send_json(200, {"goal_space": [], "action_space": []})
            return
        _, goal_ids, action_ids = snap.engine.spaces(
            snap.view.encode_activity(activity)
        )
        labels = snap.view.labels
        self._send_json(
            200,
            {
                "goal_space": sorted(
                    str(labels.goals[gid]) for gid in goal_ids.tolist()
                ),
                "action_space": sorted(
                    str(labels.actions[aid]) for aid in action_ids.tolist()
                ),
            },
        )

    def _handle_goals(self, payload: dict) -> None:
        activity = self._activity_from(payload)
        scorer = payload.get("scorer", "coverage")
        top = self._positive_int_from(payload, "top", 10)
        # Validated before the empty-model short-circuit, so a bad scorer
        # is 400 whatever the model state.
        try:
            require_in(scorer, SCORERS, "scorer")
        except ValueError as exc:
            raise _ClientError(400, str(exc), "body key 'scorer'") from None
        engine = self.service.manager.snapshot().engine
        if engine is None:
            self._send_json(200, {"scorer": scorer, "goals": []})
            return
        inferred = engine.infer_goals(activity, scorer=scorer, top=top)
        self._send_json(
            200,
            {
                "scorer": scorer,
                "goals": [
                    {"goal": str(goal), "score": score}
                    for goal, score in inferred
                ],
            },
        )

    @staticmethod
    def _action_from(payload: dict) -> str:
        action = payload.get("action")
        if not isinstance(action, str):
            raise _ClientError(400, "'action' must be a string", f"got {action!r}")
        return action

    def _live_engine(self) -> BatchRecommender:
        """The current generation's CSR engine; 422 when no implementation
        is live."""
        engine = self.service.manager.snapshot().engine
        if engine is None:
            raise _ClientError(
                422, "model has no live implementations", "ModelError"
            )
        return engine

    def _handle_related(self, payload: dict) -> None:
        action = self._action_from(payload)
        k = self._positive_int_from(payload, "k", 10)
        related = self._live_engine().related_actions(action, k=k)
        self._send_json(
            200,
            {
                "action": action,
                "related": [
                    {"action": str(other), "similarity": similarity}
                    for other, similarity in related
                ],
            },
        )

    def _handle_explain(self, payload: dict) -> None:
        activity = self._activity_from(payload)
        action = self._action_from(payload)
        evidence = self._live_engine().explain(activity, action)
        self._send_json(
            200,
            {
                "action": action,
                "evidence": {
                    str(goal): [sorted(map(str, acts)) for acts in activities]
                    for goal, activities in evidence.items()
                },
            },
        )

    # ------------------------------------------------------------------
    # Hot reload routes
    # ------------------------------------------------------------------

    def _handle_put_implementations(self, payload: dict) -> None:
        raw = payload.get("implementations")
        if not isinstance(raw, list) or not raw:
            raise _ClientError(
                400,
                "'implementations' must be a non-empty list",
                "body key 'implementations'",
            )
        pairs: list[tuple[GoalLabel, list[ActionLabel]]] = []
        for index, item in enumerate(raw):
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("goal"), str)
                or not isinstance(item.get("actions"), list)
                or not item["actions"]
                or not all(isinstance(a, str) for a in item["actions"])
            ):
                raise _ClientError(
                    400,
                    "each implementation needs a 'goal' string and a "
                    "non-empty 'actions' list of strings",
                    f"implementations[{index}]",
                )
            pairs.append((item["goal"], item["actions"]))
        ids, snap = self.service.manager.add_implementations(pairs)
        self._send_json(
            200,
            {
                "added": ids,
                "generation": snap.generation,
                "implementations":
                    self.service.manager.num_implementations(),
            },
        )

    def _handle_delete_implementation(self, suffix: str) -> None:
        try:
            pid = int(suffix)
        except ValueError:
            raise _ClientError(
                400, "implementation id must be an integer", f"got {suffix!r}"
            ) from None
        try:
            snap = self.service.manager.remove_implementation(pid)
        except ModelError as exc:
            raise _ClientError(404, str(exc), type(exc).__name__) from None
        self._send_json(
            200,
            {
                "removed": pid,
                "generation": snap.generation,
                "implementations":
                    self.service.manager.num_implementations(),
            },
        )


class _Server(ThreadingHTTPServer):
    """The threaded HTTP server plus a registry of its open connections.

    An accepted connection is idle (awaiting a request line) or busy
    (serving a request).  :meth:`close_connections`, called by drain and
    stop once the server has stopped accepting, shuts the idle ones down
    at once; a busy one closes after its response, and no connection
    serves another request.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._conn_lock = make_lock("_Server._conn_lock")
        # Every open connection, mapped to whether it is idle.
        self._connections: dict[socket.socket, bool] = {}
        self._closing = False

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._conn_lock:
            self._connections[request] = True
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._conn_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def mark(self, conn: socket.socket, idle: bool) -> bool:
        """Mark ``conn`` idle (between requests) or busy (serving one);
        ``False`` if it must close instead, without another answer."""
        with self._conn_lock:
            if self._closing:
                return False
            self._connections[conn] = idle
            return True

    def is_closing(self) -> bool:
        """``True`` once :meth:`close_connections` has run."""
        with self._conn_lock:
            return self._closing

    def close_connections(self) -> None:
        """Close every idle connection now and every busy one after its
        response.  ``shutdown()`` wakes the handler thread blocked reading
        the next request line; that thread closes the socket."""
        with self._conn_lock:
            self._closing = True
            idle = [conn for conn, idle in self._connections.items() if idle]
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler or the peer
                pass


class _AdoptedListenerServer(_Server):
    """A server over a shared non-blocking listener (see ``_build_server``)."""

    def get_request(self) -> tuple[socket.socket, Any]:
        conn, addr = self.socket.accept()
        # Some platforms hand out accepted sockets that inherit the
        # listener's O_NONBLOCK; the handlers expect blocking reads.
        conn.setblocking(True)
        return conn, addr


def _build_server(
    host: str,
    port: int,
    handler: type,
    reuse_port: bool = False,
    listen_socket: socket.socket | None = None,
) -> _Server:
    """Construct the HTTP server, with the multi-worker socket options.

    - default: the stdlib bind-and-activate path, unchanged;
    - ``reuse_port``: bind with ``SO_REUSEPORT`` so N worker processes
      can each bind the *same* explicit port and let the kernel spread
      accepted connections across them (raises :class:`OSError` where the
      platform lacks the option — the supervisor falls back to an
      inherited listener);
    - ``listen_socket``: adopt an already-bound, already-listening socket
      (the pre-fork parent's), skipping bind/listen entirely.  Every
      worker sharing it wakes for each connection, so it is switched to
      non-blocking: the losers of the accept race get ``BlockingIOError``
      (an ``OSError``, which ``socketserver`` ignores) instead of parking
      in ``accept()`` where ``shutdown()`` cannot reach them.
    """
    if listen_socket is not None:
        listen_socket.setblocking(False)
        server = _AdoptedListenerServer((host, port), handler,
                                        bind_and_activate=False)
        server.socket.close()
        server.socket = listen_socket
        bound_host, bound_port = listen_socket.getsockname()[:2]
        server.server_address = (bound_host, bound_port)
        server.server_name = socket.getfqdn(bound_host)
        server.server_port = bound_port
        return server
    if reuse_port:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not available on this platform")
        server = _Server((host, port), handler, bind_and_activate=False)
        try:
            server.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            server.server_bind()
            server.server_activate()
        except BaseException:
            server.server_close()
            raise
        return server
    return _Server((host, port), handler)


class RecommenderService:
    """Threaded HTTP server wrapping the cached, hot-reloadable serving layer.

    Args:
        model: the goal model to serve — an
            :class:`IncrementalGoalModel` log (what ``repro serve`` loads),
            or an :class:`AssociationGoalModel`, turned into a log once.
            Every generation, the first included, is built from the log.
        host: bind address (loopback by default).
        port: TCP port; 0 binds an ephemeral port (read :attr:`port` after
            construction).
        registry: metrics registry backing ``GET /metrics`` and the request
            accounting; defaults to the process-wide registry (resolved at
            request time), which is also where the recommend-path
            instrumentation records.
        enable_metrics: turn on process-wide metric recording at
            construction.
        enable_tracing: turn on process-wide span recording — required for
            the ``/debug/slow`` span trees.
        enable_exemplars: capture per-bucket request-id exemplars on the
            latency histograms (rendered by the OpenMetrics ``/metrics``
            variant); implies nothing unless metrics are on.
        trace_detail: recommend spans additionally carry the space sizes
            |IS|, |GS|, |AS| and the candidate count (one CSR engine call
            per request), and every response a ``Server-Timing`` header;
            implies nothing unless tracing is on.
        cache_size: capacity of the ``(generation, strategy, activity, k)``
            recommendation LRU; 0 disables result caching.
        approx_budget: per-action posting-list cap of the ``tier=approx``
            recommend path (``breadth_pruned``) — see docs/performance.md
            for the recall/latency trade-off.
        slow_threshold_seconds: requests at least this slow are logged in
            ``/debug/slow`` and counted in ``repro_slow_requests_total``.
        slow_log_size: how many slow requests ``/debug/slow`` retains (the
            slowest seen, not the most recent).
        max_inflight: how many work-route requests may execute
            concurrently before admission control starts queueing.
        max_queue: how many more may wait briefly for an execution slot;
            beyond this, requests are shed with ``429`` + ``Retry-After``.
        queue_timeout_seconds: longest a request waits in the admission
            queue before being shed.
        retry_after_seconds: the ``Retry-After`` hint on ``429``/``503``.
        default_deadline_ms: deadline applied to work requests that carry
            no ``X-Request-Deadline-Ms`` header (``None`` = no default).
        quality_window: sliding-window size (requests) of the quality
            monitor's catalog-coverage accounting.
        score_threshold: top scores below this count toward the
            below-threshold-result rate.
        drift_window: sliding-window size (requests) of the live activity
            profile the drift detector compares against the baseline.
        drift_threshold: PSI value at which the drift alert gauge raises
            and a ``quality.drift`` event is logged.
        slo_availability: availability objective (fraction of requests
            that must not be 5xx) behind the availability burn-rate gauge.
        slo_latency_ms: latency objective in milliseconds — requests
            slower than this are "slow" for the latency SLO.
        slo_latency_target: fraction of requests that must meet the
            latency objective.
        telemetry_dir: directory for the durable flight recorder's rotating
            JSONL files (``None`` disables the recorder).
        telemetry_sample_rate: fraction of requests whose span trees the
            recorder persists (head-based, deterministic per request id).
        reuse_port: bind with ``SO_REUSEPORT`` so several worker
            processes can share one explicit port (multi-worker mode).
        listen_socket: adopt an already-bound, already-listening socket
            instead of binding — the pre-fork parent's inherited
            listener (``host``/``port`` are then ignored).
        initial_generation: starting value of the model generation
            counter — a respawned worker resumes at the pool's current
            generation instead of 0.
        engine: the initial generation's CSR engine, built from this
            log's live implementations; the multi-worker bootstrap passes
            the zero-copy shared-memory reconstruction so workers skip the
            build.  ``None`` builds it from the log.
    """

    def __init__(
        self,
        model: AssociationGoalModel | IncrementalGoalModel,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: obs.MetricsRegistry | None = None,
        enable_metrics: bool = True,
        enable_tracing: bool = True,
        enable_exemplars: bool = True,
        trace_detail: bool = True,
        cache_size: int = 1024,
        approx_budget: int = 128,
        slow_threshold_seconds: float = 0.1,
        slow_log_size: int = 32,
        max_inflight: int = 64,
        max_queue: int = 128,
        queue_timeout_seconds: float = 0.5,
        retry_after_seconds: float = 1.0,
        default_deadline_ms: float | None = None,
        quality_window: int = 512,
        score_threshold: float = 0.05,
        drift_window: int = 256,
        drift_threshold: float = 0.25,
        slo_availability: float = 0.999,
        slo_latency_ms: float = 250.0,
        slo_latency_target: float = 0.99,
        telemetry_dir: Path | str | None = None,
        telemetry_sample_rate: float = 1.0,
        history_interval_seconds: float = obs.DEFAULT_INTERVAL_SECONDS,
        history_window_seconds: float = obs.DEFAULT_WINDOW_SECONDS,
        history_enabled: bool = True,
        reuse_port: bool = False,
        listen_socket: socket.socket | None = None,
        initial_generation: int = 0,
        engine: BatchRecommender | None = None,
    ) -> None:
        self._registry = registry
        obs.enable(
            metrics=enable_metrics,
            tracing=enable_tracing,
            exemplars=enable_metrics and enable_exemplars,
            trace_detail=enable_tracing and trace_detail,
            quality=enable_metrics,
        )
        # Quality telemetry is wired before the manager: the swap callback
        # below references the monitor's drift detector.
        self.recorder: obs.FlightRecorder | None = None
        if telemetry_dir is not None:
            self.recorder = obs.FlightRecorder(
                Path(telemetry_dir), sample_rate=telemetry_sample_rate
            )
        self.quality = obs.QualityMonitor(
            window_size=quality_window,
            score_threshold=score_threshold,
            drift=obs.DriftDetector(
                window_size=drift_window, threshold=drift_threshold
            ),
        )
        if self.recorder is not None:
            self.quality.set_event_sink(self.recorder.record_event)
        obs.set_quality_monitor(self.quality)
        self.slo = obs.SLOTracker(
            availability_objective=slo_availability,
            latency_objective_seconds=slo_latency_ms / 1000.0,
            latency_target=slo_latency_target,
        )
        self.manager = ModelManager(
            model,
            cache_size=cache_size,
            on_swap=self._on_model_swap,
            approx_budget=approx_budget,
            initial_generation=initial_generation,
            engine=engine,
        )
        # The manager's constructor built the generation-0 snapshot before
        # the swap callback could see it; seed the initial baseline now.
        self._on_model_swap(self.manager.snapshot())
        self._started_at = time.time()
        self.slow_log = obs.SlowRequestLog(
            size=slow_log_size, threshold_seconds=slow_threshold_seconds
        )
        self.profile_session = obs.ProfileSession()
        # A Condition (its lock taken with the same ``with`` statement the
        # old plain Lock used) so drain() can wait for in-flight == 0.
        self._inflight_lock = make_condition(
            "RecommenderService._inflight_lock"
        )
        self._inflight = 0
        self._draining = False
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_queue=max_queue,
            queue_timeout_seconds=queue_timeout_seconds,
        )
        self.retry_after_seconds = retry_after_seconds
        self.default_deadline_ms = default_deadline_ms
        # The metrics history snapshots whatever registry /metrics serves
        # (the private one in tests, the process-wide one otherwise); its
        # capture thread starts in start() and stops in stop()/drain().
        self.history: obs.MetricsHistory | None = None
        if history_enabled:
            self.history = obs.MetricsHistory(
                interval_seconds=history_interval_seconds,
                window_seconds=history_window_seconds,
                registry_getter=lambda: self.registry,
            )
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._server = _build_server(
            host, port, handler,
            reuse_port=reuse_port, listen_socket=listen_socket,
        )
        self._thread: threading.Thread | None = None

    @property
    def model(self) -> CachedModelView | None:
        """The model view of the current generation (``None`` if empty)."""
        return self.manager.snapshot().view

    @property
    def recommender(self) -> GoalRecommender | None:
        """The reference recommender of the current generation."""
        return self.manager.snapshot().recommender

    @property
    def registry(self) -> obs.MetricsRegistry:
        """The registry served by ``GET /metrics``."""
        return self._registry if self._registry is not None else obs.get_registry()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.server_address[1]

    def _on_model_swap(self, snapshot: ModelSnapshot) -> None:
        """Re-seed the drift baseline for a newly published generation.

        Registered as the manager's ``on_swap`` callback (invoked under the
        write lock, so it must stay cheap) and called once by ``__init__``
        for the generation the manager constructed before the callback was
        wired.
        """
        if snapshot.view is None:
            baseline = obs.BaselineProfile({}, generation=snapshot.generation)
        else:
            baseline = obs.BaselineProfile.from_model(
                snapshot.view, generation=snapshot.generation
            )
        self.quality.drift.set_baseline(baseline)

    def _publish_inflight(self, delta: int) -> None:
        """Track one request entering (+1) or leaving (-1) the handler."""
        with self._inflight_lock:
            self._inflight += delta
            inflight = self._inflight
            if inflight == 0:
                # drain() may be waiting for the last request to finish.
                self._inflight_lock.notify_all()
        if obs.metrics_enabled():
            self.registry.gauge(
                "repro_http_inflight_requests",
                "HTTP requests currently being handled.",
            ).set(inflight)

    @property
    def inflight_requests(self) -> int:
        """Requests currently inside the handler (including this one)."""
        with self._inflight_lock:
            return self._inflight

    def is_draining(self) -> bool:
        """``True`` once :meth:`drain` has started shedding new work."""
        with self._inflight_lock:
            return self._draining

    def _publish_draining(self, value: int) -> None:
        if obs.metrics_enabled():
            self.registry.gauge(
                "repro_service_draining",
                "1 while the service is draining (shedding new work).",
            ).set(value)

    def drain(self, timeout: float = 10.0, grace: float = 0.0) -> bool:
        """Gracefully wind the service down; returns ``True`` if clean.

        The sequence (see ``docs/resilience.md``):

        1. flip the draining flag — ``/health`` reports ``draining`` and
           work routes answer ``503`` + ``Retry-After`` from here on;
        2. after an optional ``grace`` window (time for a load balancer
           polling ``/health`` to stop routing here), stop accepting new
           connections and close the idle kept-alive ones;
        3. wait up to ``timeout`` seconds for the in-flight requests to
           finish — they complete normally, nothing is killed, and each
           connection closes after its response;
        4. tear the server down.

        Returns ``False`` when requests were still in flight at the
        timeout (the socket is closed anyway; their daemon threads die
        with the process).  Safe to call more than once and safe to
        follow with :meth:`stop`.
        """
        with self._inflight_lock:
            self._draining = True
        self._publish_draining(1)
        self._stop_history()
        obs.log_event(
            _LOG, "service.drain.start", timeout=timeout, grace=grace,
        )
        if grace > 0:
            time.sleep(grace)
        if self._thread is None:
            self._close_recorder()
            obs.log_event(_LOG, "service.drain.done", drained=True, dropped=0)
            return True
        self._server.shutdown()
        self._thread.join()
        self._server.close_connections()
        with self._inflight_lock:
            end = time.monotonic() + timeout
            while self._inflight > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_lock.wait(remaining)
            dropped = self._inflight
        # server_close() does not join the handler threads: they are
        # daemons, so a request stuck past the timeout dies with the
        # process.
        self._server.server_close()
        self._thread = None
        self._close_recorder()
        obs.log_event(
            _LOG, "service.drain.done", drained=not dropped, dropped=dropped,
        )
        return not dropped

    def _record(self, record: _RequestRecord) -> None:
        """Account one finished request, in order: SLO, counters,
        histogram and log line; the stage profiler; the slow log; the
        flight recorder.

        The span tree is serialized only for a request past the slow
        threshold or admitted by the recorder's head-based sampler —
        ``to_dict()`` walks the whole tree, and fast unsampled requests
        never pay for it.
        """
        endpoint, method = record.endpoint, record.method
        status, elapsed, root = record.status, record.elapsed, record.root
        if obs.quality_enabled():
            # 5xx burns the availability budget; client errors and the 499
            # client-went-away sentinel do not.
            self.slo.observe(status >= 500, elapsed)
        registry = self.registry
        registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint, method and status.",
            endpoint=endpoint, method=method, status=str(status),
        ).inc()
        if status >= 400:
            registry.counter(
                "repro_http_errors_total",
                "HTTP error responses (status >= 400), by endpoint and status.",
                endpoint=endpoint, status=str(status),
            ).inc()
        registry.histogram(
            "repro_http_request_seconds",
            "Wall-clock request handling time, by endpoint.",
            endpoint=endpoint,
        ).observe(elapsed)
        stage = {} if record.deadline_stage is None else {
            "deadline_stage": record.deadline_stage
        }
        obs.log_event(
            _LOG, "http.request", level=20,
            endpoint=endpoint, method=method, status=status,
            seconds=round(elapsed, 6), **stage,
        )
        obs.get_profiler().observe_span(stage_durations(record.marks, record.end_ns))
        if elapsed >= self.slow_log.threshold_seconds:
            self.slow_log.offer(
                record.request_id, endpoint, method, status, elapsed,
                [root.to_dict()] if root is not None else [],
                trace_id=record.trace_id,
            )
            if obs.metrics_enabled():
                registry.counter(
                    "repro_slow_requests_total",
                    "Requests at or above the slow-log threshold, by endpoint.",
                    endpoint=endpoint,
                ).inc()
        recorder = self.recorder
        if recorder is not None:
            spans = None
            if root is not None and recorder.should_sample(record.request_id):
                spans = [root.to_dict()]
            recorder.record_request(
                record.request_id, endpoint, method, status, elapsed,
                spans=spans, trace_id=record.trace_id,
            )

    def _set_profile_active(self, value: int) -> None:
        """Publish the cProfile-session state gauge (1 active, 0 idle)."""
        if obs.metrics_enabled():
            self.registry.gauge(
                "repro_profile_active",
                "1 while an on-demand cProfile session is running.",
            ).set(value)

    def debug_vars(self) -> dict[str, Any]:
        """The ``GET /debug/vars`` introspection snapshot."""
        tracer = obs.get_tracer()
        profiler = obs.get_profiler()
        return {
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "generation": self.manager.generation,
            "implementations": self.manager.num_implementations(),
            "inflight_requests": self.inflight_requests,
            "caches": self.manager.describe()["caches"],
            "span_buffer": {
                "occupancy": tracer.occupancy(),
                "capacity": tracer.capacity,
                "dropped": tracer.dropped(),
            },
            "telemetry": (
                self.recorder.snapshot()
                if self.recorder is not None
                else {"enabled": False}
            ),
            "history": (
                {"enabled": True, **self.history.index()}
                if self.history is not None
                else {"enabled": False}
            ),
            "slow_log": {
                "count": len(self.slow_log),
                "capacity": self.slow_log.size,
                "threshold_seconds": self.slow_log.threshold_seconds,
            },
            "profile": {
                "active": self.profile_session.active,
                "calls": self.profile_session.calls,
            },
            "stages": profiler.breakdown(),
            "resilience": {
                "draining": self.is_draining(),
                "admission": {
                    "active": self.admission.active(),
                    "waiting": self.admission.waiting(),
                    "max_inflight": self.admission.max_inflight,
                    "max_queue": self.admission.max_queue,
                    "queue_timeout_seconds":
                        self.admission.queue_timeout_seconds,
                },
                "default_deadline_ms": self.default_deadline_ms,
                "retry_after_seconds": self.retry_after_seconds,
            },
            "flags": {
                "metrics": obs.metrics_enabled(),
                "tracing": obs.tracing_enabled(),
                "exemplars": obs.exemplars_enabled(),
                "trace_detail": obs.trace_detail_enabled(),
                "quality": obs.quality_enabled(),
            },
        }

    def debug_quality(self) -> dict[str, Any]:
        """The ``GET /debug/quality`` recommendation-quality snapshot."""
        return {
            "quality": self.quality.snapshot(),
            "slo": self.slo.snapshot(),
            "telemetry": (
                self.recorder.snapshot()
                if self.recorder is not None
                else {"enabled": False}
            ),
        }

    def debug_locks(self) -> dict[str, Any]:
        """The ``GET /debug/locks`` lock-sanitizer snapshot.

        ``{"enabled": false, ...}`` when the sanitizer is off; otherwise
        the manifest in force, per-site acquisition/contention/hold
        statistics and every violation detected so far.
        """
        return lock_sanitizer_snapshot()

    def debug_trace(self, key: str) -> dict[str, Any]:
        """Everything retained about one request id (or trace id).

        Searches the tracer's root-span ring buffer and the slow-request
        log for entries stamped with ``key`` as either ``request_id`` or
        ``trace_id``.  Both buffers are bounded, so this is a window into
        recent traffic, not an archive — the flight recorder
        (``repro telemetry report``) is the durable tail.
        """
        spans = []
        for root in obs.get_tracer().spans():
            attributes = root.get("attributes", {})
            if key in (
                attributes.get("request_id"), attributes.get("trace_id")
            ):
                spans.append(root)
        slow = [
            entry for entry in self.slow_log.snapshot()
            if key in (entry.get("request_id"), entry.get("trace_id"))
        ]
        trace_id: object = None
        for source in (*spans, *slow):
            attributes = source.get("attributes", source)
            if isinstance(attributes, dict) and attributes.get("trace_id"):
                trace_id = attributes["trace_id"]
                break
        return {
            "key": key,
            "trace_id": trace_id,
            "spans": spans,
            "slow": slow,
        }

    def _record_batch(
        self, strategy: str, activities: int, elapsed: float
    ) -> None:
        """Account one batch scoring pass."""
        registry = self.registry
        registry.counter(
            "repro_batch_requests_total",
            "Batch recommendation requests served, by strategy.",
            strategy=strategy,
        ).inc()
        registry.counter(
            "repro_batch_activities_total",
            "Activities scored through /recommend/batch, by strategy.",
            strategy=strategy,
        ).inc(activities)
        registry.histogram(
            "repro_batch_scoring_seconds",
            "Bulk scoring time of one /recommend/batch request, by strategy.",
            strategy=strategy,
        ).observe(elapsed)

    def start(self) -> "RecommenderService":
        """Serve requests on a daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        if self.history is not None:
            # After the server thread: the first capture then already sees
            # a live registry, and /debug/history has a baseline point.
            self.history.start()
        obs.log_event(
            _LOG, "service.start", version=__version__,
            port=self.port,
            implementations=self.manager.num_implementations(),
        )
        return self

    def _close_recorder(self) -> None:
        """Flush and close the flight recorder (idempotent, ``None``-safe)."""
        if self.recorder is not None:
            self.recorder.close()

    def _stop_history(self) -> None:
        """Stop the history capture thread (idempotent, ``None``-safe)."""
        if self.history is not None:
            self.history.stop()

    def stop(self) -> None:
        """Shut the server down and join the serving thread; idle
        connections close at once, busy ones after their response."""
        self._stop_history()
        if self._thread is None:
            self._close_recorder()
            return
        self._server.shutdown()
        self._thread.join()
        self._server.close_connections()
        self._server.server_close()
        self._thread = None
        self._close_recorder()
        obs.log_event(_LOG, "service.stop")

    def __enter__(self) -> "RecommenderService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
