"""Process-wide metrics registry with Prometheus text exposition.

Three metric kinds, matching the Prometheus data model:

- :class:`Counter` — monotonically increasing count (requests served,
  errors raised);
- :class:`Gauge` — a value that goes both ways (library size, in-flight
  requests);
- :class:`Histogram` — fixed-bucket distribution with cumulative bucket
  counts, a sum and a count (latencies).

Metrics are addressed by *family name* plus a *label set*; children are
created on first use and memoized by the registry, so call sites simply
write the lookup inline, on every call::

    registry = obs.get_registry()
    registry.counter("repro_http_requests_total",
                     "HTTP requests served.",
                     endpoint="/recommend", method="POST", status="200").inc()
    registry.histogram("repro_recommend_latency_seconds",
                       "recommend() latency.",
                       strategy="breadth").observe(elapsed)

A repeated lookup costs one dict probe: the registry keeps every child it
has handed out under the exact call that asked for it (name, kind, buckets
and label items), so no call site needs a memo of its own, and
:meth:`MetricsRegistry.reset` drops that memo with the families.

Everything is stdlib-only and thread-safe: family/child creation takes the
registry lock, and each child serializes its own updates, so handler threads
of the HTTP service can record concurrently.  :meth:`MetricsRegistry.render`
produces the Prometheus text exposition format (version 0.0.4) served by the
``GET /metrics`` endpoint; :meth:`MetricsRegistry.render_openmetrics`
produces OpenMetrics 1.0, which additionally carries **exemplars** — when
exemplar capture is enabled (:mod:`repro.obs.runtime`) each histogram bucket
remembers the request id of a recent observation that landed in it, so a
slow bucket on a dashboard links straight to a concrete request whose span
tree sits in ``GET /debug/slow``.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from collections.abc import Sequence

from repro.obs import runtime
from repro.obs.logs import current_request_id

#: Default latency buckets, in seconds: 100µs .. 10s, roughly 1-2.5-5 per
#: decade.  Chosen to straddle both the microsecond-scale space queries and
#: second-scale model builds of the paper's Figure 7 study.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for sub-microsecond operations (cache lookups, dict probes):
#: 100ns .. 10ms.  ``DEFAULT_LATENCY_BUCKETS`` starts at 100µs, which would
#: collapse every cache hit into the first bucket.
CACHE_LOOKUP_BUCKETS: tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5,
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001, see
#: docs/static-analysis.md): these attributes may only be touched inside
#: ``with self.<lock>``.
_GUARDED_BY = {
    "Counter._value": "_lock",
    "Gauge._value": "_lock",
    "Histogram._counts": "_lock",
    "Histogram._sum": "_lock",
    "Histogram._count": "_lock",
    "Histogram._exemplars": "_lock",
    "MetricsRegistry._families": "_lock",
}


class Exemplar:
    """One concrete observation attached to a histogram bucket.

    OpenMetrics lets each ``_bucket`` sample carry a labelled exemplar —
    here the ``trace_id`` is the request id minted by the service (also
    returned as ``X-Request-Id`` and recorded in ``/debug/slow``), so the
    bucket links to a findable trace.
    """

    __slots__ = ("trace_id", "value", "timestamp")

    def __init__(self, trace_id: str, value: float, timestamp: float) -> None:
        self.trace_id = trace_id
        self.value = value
        self.timestamp = timestamp

    def render(self) -> str:
        """The OpenMetrics exemplar suffix, without the leading ``# ``."""
        return (
            f'{{trace_id="{_escape_label_value(self.trace_id)}"}} '
            f"{_format_value(self.value)} {_format_value(round(self.timestamp, 3))}"
        )


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value)}"
    return repr(float(value))


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with cumulative exposition.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the tail, so ``observe`` never drops a
    sample.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count", "_exemplars")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]  # the +Inf bucket is implicit
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._exemplars: list[Exemplar | None] = [None] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one sample.

        When exemplar capture is on and a request id is in scope, the
        sample's bucket remembers ``(request_id, value, now)`` — last
        writer wins, which keeps exemplars recent without extra state.
        The request-id lookup happens outside the lock; only the slot
        write is serialized.
        """
        index = bisect_left(self._bounds, value)
        exemplar: Exemplar | None = None
        if runtime.exemplars_enabled():
            trace_id = current_request_id()
            if trace_id is not None:
                exemplar = Exemplar(trace_id, value, time.time())
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[index] = exemplar

    @property
    def bounds(self) -> tuple[float, ...]:
        """The finite bucket upper bounds."""
        return self._bounds

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        """Number of observed samples."""
        with self._lock:
            return self._count

    def cumulative_counts(self) -> list[int]:
        """Cumulative per-bucket counts, ``+Inf`` last (Prometheus ``le``)."""
        with self._lock:
            raw = list(self._counts)
        total = 0
        cumulative = []
        for bucket_count in raw:
            total += bucket_count
            cumulative.append(total)
        return cumulative

    def exemplars(self) -> list[Exemplar | None]:
        """Per-bucket exemplars (``+Inf`` last); ``None`` where never captured."""
        with self._lock:
            return list(self._exemplars)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric with its labelled children."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: tuple[str, ...],
                 buckets: tuple[float, ...] | None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Thread-safe collection of metric families.

    One process-wide instance (:func:`get_registry`) backs all built-in
    instrumentation; tests construct private registries (or swap the global
    one with :func:`set_registry`) for isolation.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}
        # ``(name, kind, buckets, *label items) -> child`` for calls already
        # resolved.  Written under ``_lock`` and read without it: a dict
        # probe is atomic, and an entry is only ever added for a child that
        # is in ``_families``.
        self._memo: dict[tuple[object, ...], object] = {}

    # ------------------------------------------------------------------
    # Metric accessors (create-on-first-use)
    # ------------------------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """Return the counter child of ``name`` for this label set."""
        return self._child(name, "counter", help, labels, None)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """Return the gauge child of ``name`` for this label set."""
        return self._child(name, "gauge", help, labels, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        **labels: object,
    ) -> Histogram:
        """Return the histogram child of ``name`` for this label set.

        ``buckets`` applies on family creation; later calls must agree (or
        omit it) — a family cannot mix bucket layouts.
        """
        if buckets is not None and type(buckets) is not tuple:
            buckets = tuple(buckets)  # hashable, for the child memo
        return self._child(name, "histogram", help, labels, buckets)

    def _child(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: dict[str, object],
        buckets: Sequence[float] | None,
    ) -> object:
        # Fast path for a call already resolved.  Only ``str`` label values
        # take it: ``1``, ``1.0`` and ``True`` compare equal as dict keys
        # but ``str()`` tells them apart.  A kind, label-name or bucket
        # clash never has an entry, so it reaches the checks below.
        memo_key: tuple[object, ...] | None = None
        for value in labels.values():
            if type(value) is not str:
                break
        else:
            memo_key = (name, kind, buckets, *labels.items())
            child = self._memo.get(memo_key)
            if child is not None:
                return child
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        resolved = tuple(float(b) for b in buckets) if buckets is not None else None
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        key = tuple(sorted((label, str(value)) for label, value in labels.items()))
        label_names = tuple(label for label, _ in key)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, resolved)
                self._families[name] = family
            else:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} is a {family.kind}, not a {kind}"
                    )
                if family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} has labels {family.label_names}, "
                        f"got {label_names}"
                    )
                if resolved is not None and family.buckets is not None \
                        and resolved != family.buckets:
                    raise ValueError(
                        f"metric {name!r} already has buckets {family.buckets}"
                    )
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(family.buckets or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _KINDS[kind]()
                family.children[key] = child
            if memo_key is not None:
                self._memo[memo_key] = child
            return child

    # ------------------------------------------------------------------
    # Introspection and exposition
    # ------------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered family names, sorted."""
        with self._lock:
            return sorted(self._families)

    def snapshot(self, *, include_buckets: bool = False) -> dict[str, dict]:
        """A picklable view: name -> {kind, help, samples}.

        Counter/gauge samples map the label tuple to the value; histogram
        samples map it to ``{"count": n, "sum": s}``.  With
        ``include_buckets=True`` each histogram sample additionally carries
        ``"buckets"`` (cumulative per-bucket counts, ``+Inf`` last) and the
        family carries ``"bounds"`` — enough for a consumer such as
        :class:`repro.obs.history.MetricsHistory` to derive quantiles over a
        window from bucket-count deltas.
        """
        with self._lock:
            families = list(self._families.values())
        result: dict[str, dict] = {}
        for family in families:
            samples: dict[tuple, object] = {}
            bounds: tuple[float, ...] | None = None
            for key, child in sorted(family.children.items()):
                if isinstance(child, Histogram):
                    sample: dict[str, object] = {
                        "count": child.count, "sum": child.sum,
                    }
                    if include_buckets:
                        sample["buckets"] = child.cumulative_counts()
                        bounds = child.bounds
                    samples[key] = sample
                else:
                    samples[key] = child.value  # type: ignore[union-attr]
            entry: dict[str, object] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
            if include_buckets and bounds is not None:
                entry["bounds"] = bounds
            result[family.name] = entry
        return result

    def reset(self) -> None:
        """Drop every family (test isolation helper)."""
        with self._lock:
            self._families.clear()
            self._memo.clear()

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            if family.help:
                escaped = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {family.name} {escaped}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in sorted(family.children.items()):
                if isinstance(child, Histogram):
                    cumulative = child.cumulative_counts()
                    bounds = [*child.bounds, math.inf]
                    for bound, count in zip(bounds, cumulative):
                        le = f'le="{_format_value(bound)}"'
                        lines.append(
                            f"{family.name}_bucket{_format_labels(key, le)} {count}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(key)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(key)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(key)} "
                        f"{_format_value(child.value)}"  # type: ignore[union-attr]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def render_openmetrics(self) -> str:
        """The OpenMetrics 1.0 text exposition, exemplars included.

        Differences from :meth:`render` (Prometheus 0.0.4), per the
        OpenMetrics spec:

        - counter metadata (``# TYPE``/``# HELP``) names the family
          *without* the ``_total`` suffix; the sample line keeps it;
        - histogram ``_bucket`` samples may carry an exemplar suffix
          ``# {trace_id="..."} value timestamp``;
        - the exposition ends with ``# EOF``.
        """
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            meta_name = family.name
            if family.kind == "counter" and meta_name.endswith("_total"):
                meta_name = meta_name[: -len("_total")]
            lines.append(f"# TYPE {meta_name} {family.kind}")
            if family.help:
                escaped = family.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {meta_name} {escaped}")
            for key, child in sorted(family.children.items()):
                if isinstance(child, Histogram):
                    cumulative = child.cumulative_counts()
                    exemplars = child.exemplars()
                    bounds = [*child.bounds, math.inf]
                    for index, (bound, count) in enumerate(zip(bounds, cumulative)):
                        le = f'le="{_format_value(bound)}"'
                        line = f"{family.name}_bucket{_format_labels(key, le)} {count}"
                        exemplar = exemplars[index]
                        if exemplar is not None:
                            line = f"{line} # {exemplar.render()}"
                        lines.append(line)
                    lines.append(
                        f"{family.name}_sum{_format_labels(key)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(key)} {child.count}"
                    )
                else:
                    sample_name = family.name
                    if family.kind == "counter" and not sample_name.endswith("_total"):
                        sample_name = f"{sample_name}_total"
                    lines.append(
                        f"{sample_name}{_format_labels(key)} "
                        f"{_format_value(child.value)}"  # type: ignore[union-attr]
                    )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation writes to."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
