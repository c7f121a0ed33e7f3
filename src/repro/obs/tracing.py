"""Lightweight tracing spans with JSON export.

A span is one timed operation; spans opened while another span is active
become its children, so one traced ``recommend`` call yields a tree::

    recommend(strategy=breadth, is_size=.., gs_size=.., as_size=..)
    └── rank(strategy=breadth)

Usage mirrors OpenTelemetry's context-manager API without the dependency::

    with obs.trace_span("recommend", strategy="breadth", k=10) as span:
        ...
        span.set_attr("candidates", len(candidates))

    obs.get_tracer().spans()        # list of root-span dicts
    obs.get_tracer().export_json()  # the same, as a JSON document

:func:`trace_span` is the only entry point instrumented code uses: when
tracing is disabled (:mod:`repro.obs.runtime`) it yields the shared
:data:`NOOP_SPAN` without touching the tracer — one boolean check, no
allocation.  Parenting uses a :class:`~contextvars.ContextVar`, so spans
nest correctly across the HTTP service's handler threads.

The HTTP service keeps each request's root span on its request record,
so the slow-request log and the flight recorder read the tree without
polling :meth:`Tracer.spans`; the per-stage breakdown comes from the
request's stage marks, not from spans (:mod:`repro.obs.profiling`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextvars import ContextVar
from types import TracebackType

from repro.obs import runtime

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md): the bounded root-span deque is shared across
#: handler threads.
_GUARDED_BY = {
    "Tracer._roots": "_lock",
    "Tracer._dropped": "_lock",
}


class Span:
    """One timed operation with attributes and child spans."""

    __slots__ = ("name", "attributes", "start_time", "duration", "children")

    is_recording = True

    def __init__(self, name: str, attributes: dict[str, object]) -> None:
        self.name = name
        # The dict is taken by reference, not copied: every constructor site
        # passes a fresh ``**kwargs`` dict, and spans sit on the hot traced
        # path where the copy is measurable.
        self.attributes = attributes
        self.start_time = time.time()
        self.duration: float | None = None
        self.children: list["Span"] = []

    def set_attr(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def set_attrs(self, **attributes: object) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        """The span tree as plain JSON-serializable data."""
        return {
            "name": self.name,
            "start_time": round(self.start_time, 6),
            "duration_ms": (
                None if self.duration is None else round(self.duration * 1e3, 4)
            ),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


class _NoopSpan:
    """Inert stand-in yielded when tracing is disabled."""

    __slots__ = ()

    is_recording = False

    def set_attr(self, key: str, value: object) -> None:
        """Discard the attribute."""

    def set_attrs(self, **attributes: object) -> None:
        """Discard the attributes."""


#: The shared no-op span; ``span.is_recording`` distinguishes it, letting
#: call sites skip computing expensive attributes when tracing is off.
NOOP_SPAN = _NoopSpan()

_current_span: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


class _SpanGuard:
    """Class-based span context manager.

    A hand-rolled ``__enter__``/``__exit__`` pair is roughly 3x cheaper
    than the generator-based ``@contextmanager`` it replaced — spans open
    on every instrumented pipeline stage, so the constant matters for the
    ≤10% enabled-path budget of ``benchmarks/bench_obs_overhead.py``.
    """

    __slots__ = ("_tracer", "_span", "_parent", "_token", "_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        self._parent = _current_span.get()
        self._token = _current_span.set(span)
        self._start = time.perf_counter()
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        span = self._span
        span.duration = time.perf_counter() - self._start
        _current_span.reset(self._token)
        if exc is not None:
            span.attributes["error"] = f"{type(exc).__name__}: {exc}"
        parent = self._parent
        if parent is not None:
            parent.children.append(span)
        else:
            self._tracer._finish_root(span)
        return False


class _NoopGuard:
    """Inert context manager yielded when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


#: Shared inert guard: stateless, so one instance serves every disabled
#: ``trace_span`` call without allocation.
_NOOP_GUARD = _NoopGuard()


class Tracer:
    """Collects finished root spans, bounded to the most recent ``max_spans``.

    When the buffer is full the **oldest** root is dropped to make room —
    a tracer favours recent traffic, matching the bounded deque semantics
    (``tests/test_obs.py`` pins this down).  :attr:`capacity`,
    :meth:`occupancy` and :meth:`dropped` expose the buffer state for
    ``GET /debug/vars`` — a climbing dropped count tells an operator the
    buffer is shedding history faster than anyone reads it.
    """

    def __init__(self, max_spans: int = 1024) -> None:
        self._lock = threading.Lock()
        self._roots: deque[Span] = deque(maxlen=max_spans)
        self._dropped = 0
        self.capacity = max_spans

    def span(self, name: str, **attributes: object) -> _SpanGuard:
        """Open a recording span; nests under the context's active span."""
        return _SpanGuard(self, Span(name, attributes))

    def _finish_root(self, span: Span) -> None:
        """Buffer a finished root span."""
        with self._lock:
            # A full deque evicts its oldest root silently; count the
            # eviction so /debug/vars can report the shed history.
            if len(self._roots) == self.capacity:
                self._dropped += 1
            self._roots.append(span)

    def occupancy(self) -> int:
        """Number of root spans currently buffered (≤ :attr:`capacity`)."""
        with self._lock:
            return len(self._roots)

    def dropped(self) -> int:
        """Root spans evicted from the full buffer since construction."""
        with self._lock:
            return self._dropped

    def spans(self) -> list[dict]:
        """Finished root spans (oldest first) as dict trees."""
        with self._lock:
            roots = list(self._roots)
        return [span.to_dict() for span in roots]

    def export_json(self, indent: int | None = None) -> str:
        """The finished root spans as one JSON document."""
        return json.dumps({"spans": self.spans()}, indent=indent, default=str)

    def reset(self) -> None:
        """Drop all finished spans."""
        with self._lock:
            self._roots.clear()


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer all built-in instrumentation uses."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def trace_span(name: str, **attributes: object) -> _SpanGuard | _NoopGuard:
    """Open a span on the global tracer, or yield :data:`NOOP_SPAN` when off."""
    if not runtime.tracing_enabled():
        return _NOOP_GUARD
    return _SpanGuard(_tracer, Span(name, attributes))
