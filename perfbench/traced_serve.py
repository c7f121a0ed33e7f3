"""Run ``repro serve`` with benchmark-owned spans around each layer.

Usage (the benchmark launches it; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/traced_serve.py TRACE_DIR serve --library L --port P ...

Before handing the arguments to ``repro.cli.main``, this bootstrap replaces
the public functions of each layer with wrappers that time the call with
``perf_counter_ns`` and keep a per-thread span stack, so each span knows the
time its children took (self time = duration - children).  Spans inside a
request are keyed by the request id the client sent, read through
``obs.current_request_id()``; the root span around ``_Handler._dispatch``
reads the ``X-Request-Id`` header because the request context is entered
inside it.  Spans are kept in memory and written to
``TRACE_DIR/spans-<pid>.json`` when the process ends: the single server and
the pool parent on return from ``main``, every pool worker on return from
its worker main.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: (request id or None, span name, tag, duration ns, self ns, on path)
SPANS: list[tuple[str | None, str, str, int, int, bool]] = []
#: LRU lookups on the request path: cache name -> [hits, lookups]
LOOKUPS: dict[str, list[int]] = {}
#: Nested spans whose ``current_request_id()`` differed from the root's.
CONTEXT_MISMATCHES = [0]
_tls = threading.local()


def _stack() -> list[list[Any]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
        _tls.responded = None
    return stack


def _record(name: str, tag: str, fn: Callable[..., Any], args: tuple,
            kwargs: dict, rid: str | None, tagger: Callable | None) -> Any:
    # frame: [children ns, request id, children ns that ended on the path]
    stack = _stack()
    frame = [0, rid, 0]
    stack.append(frame)
    start = perf_counter_ns()
    result: Any = None
    try:
        result = fn(*args, **kwargs)
        return result
    finally:
        end = perf_counter_ns()
        duration = end - start
        stack.pop()
        on_path = _tls.responded is None
        if stack:
            stack[-1][0] += duration
            if on_path:
                stack[-1][2] += duration
        if tagger is not None:
            tag = tagger(args, kwargs, result)
        if stack or rid is None:
            SPANS.append((rid, name, tag, duration, duration - frame[0], on_path))
        else:
            # A request root: split it at the moment the response was
            # written.  Spans that ended before that are on the client's
            # round trip; the rest (recorders, admission release in
            # ``finally`` blocks) runs after the client has its answer.
            responded = _tls.responded if _tls.responded is not None else end
            before = responded - start
            SPANS.append((rid, name, "on_path", before, before - frame[2], True))
            after = end - responded
            SPANS.append((rid, name, "after_response", after,
                          after - (frame[0] - frame[2]), False))


def span(name: str, fn: Callable[..., Any],
         tagger: Callable[[tuple, dict, Any], str] | None = None) -> Callable[..., Any]:
    """Wrap ``fn`` in a span named ``name`` nested under the current one.

    The span's tag is ``tagger(args, kwargs, result)``, or the function's
    name without one.
    """
    from repro import obs

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        rid = obs.current_request_id()
        if stack and stack[0][1] is not None and rid != stack[0][1]:
            CONTEXT_MISMATCHES[0] += 1
        return _record(name, fn.__name__, fn, args, kwargs, rid, tagger)

    return wrapper


class _StampingWriter:
    """A handler's ``wfile`` that stamps the start of every write."""

    def __init__(self, raw: Any) -> None:
        self._raw = raw

    def write(self, data: bytes) -> Any:
        _tls.write_start = perf_counter_ns()
        return self._raw.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._raw, name)


def root_span(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(handler: Any, *args: Any, **kwargs: Any) -> Any:
        rid = handler.headers.get("X-Request-Id")
        if not isinstance(handler.wfile, _StampingWriter):
            handler.wfile = _StampingWriter(handler.wfile)
        _stack()
        _tls.responded = None
        return _record(name, "", fn, (handler, *args), kwargs, rid, None)

    return wrapper


def response_mark(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark where the current request's response went out.

    The mark is the start of the response's last write: once the bytes are
    in the socket the client may finish reading before this thread even
    gets the interpreter lock back, so the write itself and that wait
    belong to the residual, not to a layer.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        finally:
            if _tls.responded is None:
                _tls.responded = _tls.write_start

    return wrapper


def _patch(cls: type, attr: str, name: str, tagger: Callable | None = None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(span(name, raw.__func__, tagger)))
    else:
        setattr(cls, attr, span(name, raw, tagger))


def install() -> None:
    from repro.core.caching import CachedModelView, CachingRecommender, LRUCache
    from repro.core.incremental import IncrementalGoalModel
    from repro.core.recommender import GoalRecommender
    from repro.core.vectorized import BatchRecommender
    from repro.obs.profiling import SlowRequestLog, StageProfiler
    from repro.obs.quality import QualityMonitor, SLOTracker
    from repro.resilience.admission import AdmissionController
    from repro.service import ModelManager, _Handler
    from repro.serving import workers
    from repro.serving.shared import SharedModelArena
    from repro.storage.json_store import JsonLibraryStore

    _Handler._dispatch = root_span("service.dispatch", _Handler._dispatch)
    _Handler._send_json = response_mark(_Handler._send_json)
    _Handler._send_text = response_mark(_Handler._send_text)
    _patch(ModelManager, "recommend", "service.manager_recommend")
    _patch(ModelManager, "snapshot", "service.snapshot")
    _patch(ModelManager, "apply_add_implementations", "service.apply")
    _patch(ModelManager, "apply_remove_implementation", "service.apply")
    _patch(AdmissionController, "try_acquire", "resilience.admit")
    _patch(AdmissionController, "release", "resilience.admit")
    _patch(CachingRecommender, "recommend", "caching.result",
           lambda a, k, result: "hit" if result and result[1] else "miss")
    for attr in ("implementation_space", "goal_space", "action_space"):
        _patch(CachedModelView, attr, "caching.space")
    _patch(GoalRecommender, "recommend", "recommender.recommend")
    _patch(BatchRecommender, "rank", "vectorized.rank",
           lambda a, k, result: str(k.get("strategy", a[3] if len(a) > 3 else "")))
    _patch(BatchRecommender, "pruned_breadth_rank", "vectorized.rank",
           lambda a, k, result: "breadth_pruned")
    _patch(BatchRecommender, "__init__", "vectorized.build")
    _patch(BatchRecommender, "from_arrays", "vectorized.build")
    for attr in ("freeze", "add_implementation", "remove_implementation"):
        _patch(IncrementalGoalModel, attr, "incremental.freeze")
    _patch(SharedModelArena, "__init__", "serving.arena")
    _patch(JsonLibraryStore, "load", "storage.load")
    _patch(QualityMonitor, "observe_traffic", "obs.recorders")
    _patch(QualityMonitor, "observe_recommend", "obs.recorders")
    _patch(SLOTracker, "observe", "obs.recorders")
    _patch(StageProfiler, "observe_span", "obs.recorders")
    _patch(SlowRequestLog, "offer", "obs.recorders")

    lookup = LRUCache.lookup

    @functools.wraps(lookup)
    def counting_lookup(self: Any, key: Any) -> tuple[bool, Any]:
        hit, value = lookup(self, key)
        counts = LOOKUPS.setdefault(self.name, [0, 0])
        counts[0] += hit
        counts[1] += 1
        return hit, value

    LRUCache.lookup = counting_lookup

    worker_main = workers._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(config: Any) -> int:
        # A forked worker inherits the parent's start-up spans; the parent
        # writes those itself.
        SPANS.clear()
        LOOKUPS.clear()
        try:
            return int(worker_main(config))
        finally:
            dump("worker")

    workers._worker_main = traced_worker_main


def dump(role: str) -> None:
    out = Path(os.environ["PERFBENCH_TRACE_DIR"]) / f"spans-{os.getpid()}.json"
    out.write_text(json.dumps({
        "pid": os.getpid(),
        "role": role,
        "spans": SPANS,
        "lookups": LOOKUPS,
        "context_mismatches": CONTEXT_MISMATCHES[0],
    }), encoding="utf-8")


def main(argv: list[str]) -> int:
    os.environ["PERFBENCH_TRACE_DIR"] = argv[0]
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        dump("main")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
