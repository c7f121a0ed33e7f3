"""Per-stage request profiling, slow-request capture, cProfile sessions.

A served request opens its stage marks with :func:`request_marks` and
enters each of its :data:`STAGES` with :func:`mark_stage` (or with
:func:`~repro.resilience.deadlines.enter_stage`, which also checks its
deadline).  This module turns the marks into answers to "where does time
go inside a request":

- :func:`stage_durations` — one request's marks as per-stage nanoseconds,
  and :func:`server_timing` — the ended stages as a ``Server-Timing`` value;
- :class:`StageProfiler` — aggregates those durations into bounded
  per-stage reservoirs with p50/p95/p99;
- :class:`SlowRequestLog` — keeps the N slowest requests above a threshold,
  each with its full span tree, for ``GET /debug/slow``;
- :class:`ProfileSession` — a guarded on-demand :mod:`cProfile` wrapper
  start/stoppable from the CLI (``repro --profile``) and the service
  (``POST``/``DELETE /debug/profile``), rendering :mod:`pstats` text.
"""

from __future__ import annotations

import cProfile
import heapq
import io
import pstats
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from typing import ParamSpec, TypeVar

from repro.obs import runtime
from repro.obs.metrics import get_registry
from repro.utils.timing import quantile

P = ParamSpec("P")
T = TypeVar("T")

#: The stages a served request passes through, in order; a request skips
#: those its route does not run (see docs/profiling.md).  The ``stage``
#: label of ``repro_stage_latency_seconds``, ``repro_profiler_samples`` and
#: ``repro_deadline_exceeded_total``.
STAGES: tuple[str, ...] = ("parse", "admission", "decode", "cache", "rank", "encode", "write")

_STAGE_SET = frozenset(STAGES)

#: One request's stage marks, ``(stage, perf_counter_ns())``.
StageMarks = list[tuple[str, int]]

_MARKS: ContextVar[StageMarks | None] = ContextVar("repro_obs_stage_marks", default=None)


@contextmanager
def request_marks(stage: str, start_ns: int) -> Iterator[StageMarks]:
    """Open one served request's marks, starting in ``stage`` at
    ``start_ns``; :func:`mark_stage` appends to them until the block ends."""
    marks = [(stage, start_ns)]
    token = _MARKS.set(marks)
    try:
        yield marks
    finally:
        _MARKS.reset(token)


def mark_stage(stage: str) -> None:
    """Enter ``stage`` on the request being served: a no-op outside one,
    and re-entering the current stage adds no mark."""
    marks = _MARKS.get()
    if marks is not None and marks[-1][0] != stage:
        marks.append((stage, time.perf_counter_ns()))


def stage_durations(marks: StageMarks, end_ns: int) -> dict[str, int]:
    """Per-stage nanoseconds of one request: each stage lasts from its mark
    to the next one, the last to ``end_ns``, and a stage entered twice sums
    both intervals, so the durations add up to ``end_ns - marks[0][1]``."""
    durations: dict[str, int] = {}
    for index, (stage, start) in enumerate(marks):
        stop = marks[index + 1][1] if index + 1 < len(marks) else end_ns
        durations[stage] = durations.get(stage, 0) + stop - start
    return durations


def server_timing() -> str | None:
    """The W3C ``Server-Timing`` value of the request being served: every
    stage that ended before the current one, with its duration in ms;
    ``None`` outside a served request."""
    marks = _MARKS.get()
    if marks is None:
        return None
    ended = stage_durations(marks[:-1], marks[-1][1])
    return ", ".join(f"{stage};dur={ns / 1e6:.3f}" for stage, ns in ended.items())


#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md): profiler state is written from handler threads
#: as requests finish and read from debug endpoints.
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
    """Aggregates served requests' stage durations into per-stage breakdowns.

    The service passes every finished request's :func:`stage_durations`
    to :meth:`observe_span`.  Per stage it keeps the count of requests
    that entered it, the total seconds, and a bounded reservoir of the
    most recent ``max_samples`` durations from which the percentiles are
    computed — recent-window percentiles, matching what a dashboard wants.

    When metrics are enabled each observation also feeds the
    ``repro_stage_latency_seconds{stage=...}`` histogram and refreshes the
    ``repro_profiler_samples{stage=...}`` gauge of the stages the request
    entered, so the breakdown is scrapeable as well as introspectable.
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

    def observe_span(self, durations: Mapping[str, int]) -> None:
        """Record one request's per-stage nanoseconds (see
        :func:`stage_durations`); every key must be one of :data:`STAGES`."""
        if not durations.keys() <= _STAGE_SET:
            unknown = sorted(durations.keys() - _STAGE_SET)
            raise ValueError(f"unknown stage {unknown}; expected one of {STAGES}")
        found = [(stage, ns / 1e9) for stage, ns in durations.items()]
        with self._lock:
            for stage, seconds in found:
                self._samples[stage].append(seconds)
                self._counts[stage] += 1
                self._totals[stage] += seconds
            sizes = [len(self._samples[stage]) for stage, _ in found]
        if not runtime.metrics_enabled():
            return
        registry = get_registry()
        for (stage, seconds), size in zip(found, sizes):
            registry.histogram(
                "repro_stage_latency_seconds",
                "Time a served request spent in one stage, from its stage "
                "marks.",
                stage=stage,
            ).observe(seconds)
            registry.gauge(
                "repro_profiler_samples",
                "Stage-profiler reservoir occupancy.",
                stage=stage,
            ).set(size)

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
