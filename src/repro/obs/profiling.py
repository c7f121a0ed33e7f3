"""Per-stage deterministic profiling, slow-request capture, cProfile sessions.

The paper's pipeline is a chain of discrete stages — build ``IS(H)``, then
``GS(H)`` and ``AS(H)``, then rank (§4–5) — and each stage is already
wrapped in a span by the core instrumentation.  This module turns those
spans into answers to "where does time go inside a request":

- :class:`StageProfiler` — a tracer *sink* that walks every finished root
  span tree, extracts the stage spans (``implementation_space``,
  ``goal_space``, ``action_space``, ``rank``) and aggregates per-stage
  latency into bounded reservoirs with p50/p95/p99.  Deterministic
  (instrumentation-based), not sampling: every traced request contributes.
- :class:`SlowRequestLog` — keeps the N slowest requests above a threshold,
  each with its full span tree, for ``GET /debug/slow``.
- :class:`ProfileSession` — a guarded on-demand :mod:`cProfile` wrapper
  start/stoppable from the CLI (``repro --profile``) and the service
  (``POST``/``DELETE /debug/profile``), rendering :mod:`pstats` text.

The stage profiler double-counts nothing: a model view that delegates to
another model yields *nested* same-name stage spans (the outer view's
span around the inner model's); the tree walk attributes time to the
outermost occurrence of each stage name only.
"""

from __future__ import annotations

import cProfile
import heapq
import io
import pstats
import threading
from collections import deque
from collections.abc import Callable
from typing import ParamSpec, TypeVar

from repro.obs import runtime
from repro.obs.metrics import get_registry
from repro.obs.tracing import Span
from repro.utils.timing import quantile

P = ParamSpec("P")
T = TypeVar("T")

#: The pipeline stages a recommend request decomposes into, in paper order.
STAGES: tuple[str, ...] = (
    "implementation_space",
    "goal_space",
    "action_space",
    "rank",
)

_STAGE_SET = frozenset(STAGES)

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md): profiler state is written from tracer sinks on
#: handler threads and read from debug endpoints.
_GUARDED_BY = {
    "StageProfiler._samples": "_lock",
    "StageProfiler._counts": "_lock",
    "StageProfiler._totals": "_lock",
    "SlowRequestLog._heap": "_lock",
    "SlowRequestLog._sequence": "_lock",
    "ProfileSession._profile": "_lock",
    "ProfileSession._calls": "_lock",
}


class StageProfiler:
    """Aggregates stage-span durations into per-stage latency breakdowns.

    Install on a tracer with ``tracer.add_sink(profiler.observe_span)``;
    every finished root span tree is walked once.  Per stage it keeps the
    total count, total seconds, and a bounded reservoir of the most recent
    ``max_samples`` durations from which the percentiles are computed —
    recent-window percentiles, matching what a dashboard wants.

    When metrics are enabled each observation also feeds the
    ``repro_stage_latency_seconds{stage=...}`` histogram and refreshes the
    ``repro_profiler_samples{stage=...}`` gauge, so the breakdown is
    scrapeable as well as introspectable.
    """

    def __init__(self, max_samples: int = 2048) -> None:
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._lock = threading.Lock()
        self.max_samples = max_samples
        self._samples: dict[str, deque[float]] = {
            stage: deque(maxlen=max_samples) for stage in STAGES
        }
        self._counts: dict[str, int] = {stage: 0 for stage in STAGES}
        self._totals: dict[str, float] = {stage: 0.0 for stage in STAGES}

    def observe_span(self, root: Span) -> None:
        """Tracer-sink entry point: harvest stage durations from one tree."""
        found: list[tuple[str, float]] = []
        self._harvest(root, set(), found)
        if not found:
            return
        record_metrics = runtime.metrics_enabled()
        registry = get_registry() if record_metrics else None
        with self._lock:
            for stage, seconds in found:
                self._samples[stage].append(seconds)
                self._counts[stage] += 1
                self._totals[stage] += seconds
        if registry is not None:
            for stage, seconds in found:
                registry.histogram(
                    "repro_stage_latency_seconds",
                    "Latency of one pipeline stage, harvested from spans.",
                    stage=stage,
                ).observe(seconds)
            with self._lock:
                sizes = {stage: len(self._samples[stage]) for stage in STAGES}
            for stage, size in sizes.items():
                registry.gauge(
                    "repro_profiler_samples",
                    "Stage-profiler reservoir occupancy.",
                    stage=stage,
                ).set(size)

    def _harvest(
        self,
        span: Span,
        active: set[str],
        found: list[tuple[str, float]],
    ) -> None:
        is_stage = span.name in _STAGE_SET and span.name not in active
        if is_stage and span.duration is not None:
            found.append((span.name, span.duration))
            active = active | {span.name}
        for child in span.children:
            self._harvest(child, active, found)

    def record(self, stage: str, seconds: float) -> None:
        """Record one stage duration directly (no span tree needed)."""
        if stage not in _STAGE_SET:
            raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
        with self._lock:
            self._samples[stage].append(seconds)
            self._counts[stage] += 1
            self._totals[stage] += seconds

    def breakdown(self) -> dict[str, dict[str, float | int]]:
        """Per-stage summary: count, total/mean seconds, p50/p95/p99.

        Percentiles cover the bounded recent window; count and total cover
        the profiler's lifetime.  Stages never observed report zeros.
        """
        with self._lock:
            snapshot = {
                stage: (
                    list(self._samples[stage]),
                    self._counts[stage],
                    self._totals[stage],
                )
                for stage in STAGES
            }
        result: dict[str, dict[str, float | int]] = {}
        for stage, (samples, count, total) in snapshot.items():
            entry: dict[str, float | int] = {
                "count": count,
                "total_seconds": round(total, 9),
                "mean_seconds": round(total / count, 9) if count else 0.0,
            }
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                entry[f"{label}_seconds"] = (
                    round(quantile(samples, q), 9) if samples else 0.0
                )
            result[stage] = entry
        return result

    def reset(self) -> None:
        """Drop all accumulated stage data."""
        with self._lock:
            for stage in STAGES:
                self._samples[stage].clear()
                self._counts[stage] = 0
                self._totals[stage] = 0.0


class SlowRequestLog:
    """Bounded log of the slowest requests above a latency threshold.

    A min-heap of at most ``size`` entries keyed by duration: once full, a
    new slow request displaces the *fastest* logged one, so the log always
    holds the worst offenders seen, not merely the most recent.  Entries
    carry the full span tree, giving ``GET /debug/slow`` per-stage timings
    for exactly the requests that matter.
    """

    def __init__(self, size: int = 32, threshold_seconds: float = 0.1) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if threshold_seconds < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold_seconds}")
        self.size = size
        self.threshold_seconds = threshold_seconds
        self._lock = threading.Lock()
        # Heap items are (seconds, sequence, entry); the sequence breaks
        # duration ties so entry dicts are never compared.
        self._heap: list[tuple[float, int, dict[str, object]]] = []
        self._sequence = 0

    def offer(
        self,
        request_id: str,
        endpoint: str,
        method: str,
        status: int,
        seconds: float,
        spans: list[dict[str, object]],
        trace_id: str | None = None,
    ) -> bool:
        """Log the request if it is slow enough; returns whether it was."""
        if seconds < self.threshold_seconds:
            return False
        entry: dict[str, object] = {
            "request_id": request_id,
            "endpoint": endpoint,
            "method": method,
            "status": status,
            "seconds": round(seconds, 6),
            "spans": spans,
        }
        if trace_id is not None:
            entry["trace_id"] = trace_id
        with self._lock:
            self._sequence += 1
            item = (seconds, self._sequence, entry)
            if len(self._heap) < self.size:
                heapq.heappush(self._heap, item)
                return True
            if seconds > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)
                return True
        return False

    def snapshot(self) -> list[dict[str, object]]:
        """Logged requests, slowest first."""
        with self._lock:
            items = list(self._heap)
        items.sort(key=lambda item: (-item[0], item[1]))
        return [entry for _, _, entry in items]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def reset(self) -> None:
        """Drop all logged requests."""
        with self._lock:
            self._heap.clear()


class ProfileSession:
    """A guarded on-demand :mod:`cProfile` session.

    ``cProfile.Profile`` objects are not thread-safe, and the HTTP service
    handles each request on its own thread — so while a session is active,
    :meth:`profile_call` profiles **one call at a time** (non-blocking
    try-lock); concurrent calls simply run unprofiled rather than queueing
    behind the profiler.  :meth:`start`/:meth:`stop` are idempotent-guarded:
    starting an active session raises, as does stopping an inactive one,
    which the service maps to 409/404.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profile: cProfile.Profile | None = None
        self._calls = 0
        # Serializes the profiled region itself (not just the state), so
        # two handler threads never drive one Profile object concurrently.
        self._run_lock = threading.Lock()

    @property
    def active(self) -> bool:
        """Whether a session is currently running."""
        with self._lock:
            return self._profile is not None

    @property
    def calls(self) -> int:
        """Number of calls profiled by the current/most recent session."""
        with self._lock:
            return self._calls

    def start(self) -> None:
        """Begin a session; raises :class:`RuntimeError` if one is active."""
        with self._lock:
            if self._profile is not None:
                raise RuntimeError("a profile session is already active")
            self._profile = cProfile.Profile()
            self._calls = 0

    def stop(self, sort: str = "cumulative", limit: int = 40) -> str:
        """End the session and return the :mod:`pstats` report text.

        Raises :class:`RuntimeError` if no session is active.
        """
        with self._lock:
            profile = self._profile
            self._profile = None
            calls = self._calls
        if profile is None:
            raise RuntimeError("no profile session is active")
        # Wait for any in-flight profiled call to leave the region before
        # reading the stats.
        header = f"# profiled calls: {calls}\n"
        with self._run_lock:
            buffer = io.StringIO()
            try:
                stats = pstats.Stats(profile, stream=buffer)
            except TypeError:
                # pstats refuses to wrap a Profile that never ran anything;
                # a session stopped before any call is still a valid stop.
                return header + "(no calls were profiled)\n"
        stats.sort_stats(sort).print_stats(limit)
        return header + buffer.getvalue()

    def profile_call(self, func: Callable[P, T], *args: P.args, **kwargs: P.kwargs) -> T:
        """Run ``func`` under the profiler when a session is active and idle.

        Falls through to a plain call when no session is running or another
        thread currently holds the profiled region.
        """
        with self._lock:
            profile = self._profile
        if profile is None:
            return func(*args, **kwargs)
        if not self._run_lock.acquire(blocking=False):
            return func(*args, **kwargs)
        try:
            with self._lock:
                # Re-check under the lock: stop() may have raced us.
                if self._profile is not profile:
                    return func(*args, **kwargs)
                self._calls += 1
            return profile.runcall(func, *args, **kwargs)
        finally:
            self._run_lock.release()


_profiler = StageProfiler()


def get_profiler() -> StageProfiler:
    """The process-wide stage profiler."""
    return _profiler


def set_profiler(profiler: StageProfiler) -> StageProfiler:
    """Replace the process-wide stage profiler; returns the previous one."""
    global _profiler
    previous = _profiler
    _profiler = profiler
    return previous
