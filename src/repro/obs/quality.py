"""Online recommendation-quality accounting, drift detection and SLOs.

Infra observability (latency, cache hits, span trees) cannot see a model
that answers fast and *badly*: every list empty, every top score ~0, every
request full of actions the model has never indexed.  This module watches
the recommendations themselves:

- :class:`QualityMonitor` — per-strategy score distributions, empty and
  below-threshold result rates, unknown-activity (OOV) rate, inferred
  space-size distributions (|IS|/|GS|/|AS|) and sliding-window catalog
  coverage, exported as the ``repro_quality_*`` metric families;
- :class:`DriftDetector` — a **deterministic** comparison of the live
  request-activity distribution against a baseline profile frozen at model
  load / generation swap, scored with the Population Stability Index
  (:func:`population_stability_index`).  Same baseline + same request
  stream ⇒ bit-identical scores (pinned by ``tests/test_quality.py``), so
  a drift alert found in production replays in a test;
- :class:`SLOTracker` — availability and latency burn-rate gauges derived
  from the request stream: burn rate 1.0 means the error budget is being
  spent exactly at the objective's rate, >1 means faster.

Everything is gated at the call sites by ``obs.quality_enabled()`` (a
plain boolean, see :mod:`repro.obs.runtime`) and holds the same ≤10%
enabled-path overhead budget as the rest of the observability layer —
``benchmarks/bench_quality_telemetry.py`` enforces it.

The process-wide monitor mirrors the tracer/registry pattern:
:func:`get_quality_monitor` / :func:`set_quality_monitor`, with the HTTP
service installing a configured instance at startup.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.obs import metrics as obs_metrics
from repro.obs import runtime
from repro.obs.logs import current_request_id, get_logger, log_event
from repro.obs.tracecontext import current_trace_id

if TYPE_CHECKING:
    from repro.core.entities import RecommendationList
    from repro.core.protocols import ModelView

#: Histogram buckets for strategy top scores (dimensionless, open-ended:
#: breadth counts goals, so scores are not capped at 1).
SCORE_BUCKETS: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0, 5.0)

#: Histogram buckets for ratios in [0, 1] (OOV rate).
RATIO_BUCKETS: tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Histogram buckets for inferred space sizes (|IS|, |GS|, |AS|).
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000)

#: An event sink receives ``(event_kind, payload)`` — the flight recorder's
#: :meth:`~repro.obs.export.FlightRecorder.record_event` matches it.
EventSink = Callable[[str, dict[str, object]], None]

#: Lock discipline, machine-checked by ``repro-lint`` (rule RL001): all
#: sliding-window state is shared across the service's handler threads.
_GUARDED_BY = {
    "DriftDetector._baseline": "_lock",
    "DriftDetector._window": "_lock",
    "DriftDetector._counts": "_lock",
    "DriftDetector._since_recompute": "_lock",
    "DriftDetector._psi": "_lock",
    "DriftDetector._alerting": "_lock",
    "DriftDetector._alerts": "_lock",
    "SLOTracker._window": "_lock",
    "SLOTracker._errors": "_lock",
    "SLOTracker._slow": "_lock",
    "SLOTracker._availability_burn": "_lock",
    "SLOTracker._latency_burn": "_lock",
    "QualityMonitor._handles": "_lock",
    "QualityMonitor._traffic_handles": "_lock",
    "QualityMonitor._stats": "_lock",
    "QualityMonitor._observations": "_lock",
    "QualityMonitor._coverage_window": "_lock",
    "QualityMonitor._coverage_counts": "_lock",
    "QualityMonitor._catalog_size": "_lock",
    "QualityMonitor._last_oov": "_lock",
    "QualityMonitor._oov_sum": "_lock",
    "QualityMonitor._oov_count": "_lock",
    "QualityMonitor._generation": "_lock",
}

_logger = get_logger("repro.obs.quality")


def population_stability_index(
    baseline: Mapping[str, float],
    live: Mapping[str, float],
    epsilon: float = 1e-6,
) -> float:
    """PSI between a baseline and a live probability distribution.

    ``Σ (p_live − p_base) · ln(p_live / p_base)`` over the baseline's
    support, plus one out-of-vocabulary bucket collecting all live mass on
    labels the baseline has never seen.  Probabilities are floored at
    ``epsilon`` so empty cells contribute finitely.  Iteration order is
    sorted, so the floating-point sum — and therefore the score — is
    bit-identical for identical inputs.

    Rule of thumb from the credit-scoring literature: < 0.1 stable,
    0.1–0.25 moderate shift, > 0.25 drifted.
    """
    score = 0.0
    for label in sorted(baseline):
        p_base = max(baseline[label], epsilon)
        p_live = max(live.get(label, 0.0), epsilon)
        score += (p_live - p_base) * math.log(p_live / p_base)
    oov_mass = sum(
        probability
        for label, probability in sorted(live.items())
        if label not in baseline
    )
    if oov_mass > 0.0:
        p_live = max(oov_mass, epsilon)
        score += (p_live - epsilon) * math.log(p_live / epsilon)
    return score


@dataclass(frozen=True)
class BaselineProfile:
    """A frozen activity-frequency distribution to drift against.

    ``distribution`` maps action labels to probabilities (summing to ~1);
    ``generation`` records which model generation froze it, surfaced on the
    ``repro_drift_baseline_generation`` gauge so a drift score can always
    be traced to the baseline it was computed against.
    """

    distribution: Mapping[str, float] = field(default_factory=dict)
    generation: int = 0

    @classmethod
    def from_counts(
        cls, counts: Mapping[str, float], generation: int = 0
    ) -> "BaselineProfile":
        """Normalize raw label counts/frequencies into a profile."""
        total = float(sum(counts.values()))
        if total <= 0.0:
            return cls({}, generation)
        return cls(
            {str(label): value / total for label, value in sorted(counts.items())},
            generation,
        )

    @classmethod
    def from_model(cls, model: "ModelView", generation: int = 0) -> "BaselineProfile":
        """Freeze a profile from a model's library action frequencies.

        Uses ``action_frequencies()`` when the model offers it (both the
        reference :class:`~repro.core.model.AssociationGoalModel` and the
        serving layer's :class:`~repro.core.caching.CachedModelView`, which
        reads the CSR engine's posting-list lengths, do); other
        :class:`~repro.core.protocols.ModelView` implementations fall back
        to a uniform profile over their action vocabulary — still enough
        to flag vocabulary drift via the OOV bucket.
        """
        frequencies = getattr(model, "action_frequencies", None)
        if callable(frequencies):
            counts = {
                str(model.action_label(aid)): float(value)
                for aid, value in frequencies().items()
                if value > 0
            }
        else:
            counts = {
                str(model.action_label(aid)): 1.0
                for aid in range(model.num_actions)
            }
        return cls.from_counts(counts, generation)


class DriftDetector:
    """Sliding-window PSI of live activity labels against a frozen baseline.

    Deterministic by construction: the score depends only on the baseline
    and the observed label sequence (the injectable ``clock`` stamps alert
    events, never the score), so the same seeded request stream replays to
    bit-identical scores.  Recomputing every ``recompute_every``
    observations amortizes the PSI pass; tests set it to 1.
    """

    def __init__(
        self,
        window_size: int = 256,
        threshold: float = 0.25,
        recompute_every: int = 128,
        clock: Callable[[], float] = time.time,
        event_sink: EventSink | None = None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if recompute_every <= 0:
            raise ValueError("recompute_every must be positive")
        self.window_size = window_size
        self.threshold = threshold
        self.recompute_every = recompute_every
        self._clock = clock
        self.event_sink = event_sink
        self._lock = threading.Lock()
        self._baseline: BaselineProfile | None = None
        self._window: deque[str] = deque()
        self._counts: Counter[str] = Counter()
        self._since_recompute = 0
        self._psi = 0.0
        self._alerting = False
        self._alerts = 0

    # One helper per gauge keeps each family name at exactly one call site
    # (RL003) while several methods update it.

    def _score_gauge(self) -> obs_metrics.Gauge:
        return obs_metrics.get_registry().gauge(
            "repro_drift_score",
            "PSI of the live activity window against the frozen baseline "
            "profile (<0.1 stable, >0.25 drifted).",
        )

    def _alert_gauge(self) -> obs_metrics.Gauge:
        return obs_metrics.get_registry().gauge(
            "repro_drift_alert",
            "1 while the drift score is at or above the alert threshold.",
        )

    def _generation_gauge(self) -> obs_metrics.Gauge:
        return obs_metrics.get_registry().gauge(
            "repro_drift_baseline_generation",
            "Model generation the current drift baseline was frozen at.",
        )

    def set_baseline(self, baseline: BaselineProfile) -> None:
        """Freeze a new baseline and restart the live window.

        Called at model load and on every hot-reload generation swap: the
        old window described traffic scored against the old vocabulary.
        """
        with self._lock:
            self._baseline = baseline
            self._window.clear()
            self._counts.clear()
            self._since_recompute = 0
            self._psi = 0.0
            self._alerting = False
        if runtime.metrics_enabled():
            self._score_gauge().set(0.0)
            self._alert_gauge().set(0.0)
            self._generation_gauge().set(baseline.generation)

    def observe(self, labels: Iterable[str]) -> None:
        """Feed one request's activity labels into the live window."""
        event: dict[str, object] | None = None
        score: float | None = None
        alert = False
        with self._lock:
            baseline = self._baseline
            if baseline is None or not baseline.distribution:
                return
            for label in labels:
                if len(self._window) == self.window_size:
                    evicted = self._window.popleft()
                    self._counts[evicted] -= 1
                    if self._counts[evicted] <= 0:
                        del self._counts[evicted]
                self._window.append(label)
                self._counts[label] += 1
                self._since_recompute += 1
            if self._since_recompute < self.recompute_every:
                return
            self._since_recompute = 0
            total = len(self._window)
            live = {
                label: count / total for label, count in self._counts.items()
            }
            self._psi = population_stability_index(baseline.distribution, live)
            score = self._psi
            crossed = score >= self.threshold
            if crossed and not self._alerting:
                self._alerts += 1
                event = {
                    "score": round(score, 6),
                    "threshold": self.threshold,
                    "window": total,
                    "baseline_generation": baseline.generation,
                }
            self._alerting = crossed
            alert = crossed
        # Gauge updates, logging and the event sink all run outside the
        # lock: none of them may stall another handler thread's observe.
        if score is not None and runtime.metrics_enabled():
            self._score_gauge().set(score)
            self._alert_gauge().set(1.0 if alert else 0.0)
        if event is not None:
            # Drift fires from inside a handler thread's recommend path, so
            # the request/trace ids of the tipping request are in scope —
            # stamp them so the alert joins against /debug/trace and the
            # flight recorder's sampled records.
            request_id = current_request_id()
            if request_id is not None:
                event["request_id"] = request_id
            trace_id = current_trace_id()
            if trace_id is not None:
                event["trace_id"] = trace_id
            if runtime.metrics_enabled():
                obs_metrics.get_registry().counter(
                    "repro_drift_alerts_total",
                    "Drift-threshold crossings (rising edges) since start.",
                ).inc()
            log_event(_logger, "quality.drift", ts=self._clock(), **event)
            sink = self.event_sink
            if sink is not None:
                event_payload: dict[str, object] = dict(event)
                sink("drift", event_payload)

    def score(self) -> float:
        """The most recently computed PSI (0.0 before the first window)."""
        with self._lock:
            return self._psi

    def snapshot(self) -> dict[str, object]:
        """Detector state for ``GET /debug/quality``."""
        with self._lock:
            baseline = self._baseline
            return {
                "score": round(self._psi, 6),
                "threshold": self.threshold,
                "alerting": self._alerting,
                "alerts": self._alerts,
                "window": len(self._window),
                "window_size": self.window_size,
                "baseline_generation": (
                    None if baseline is None else baseline.generation
                ),
                "baseline_actions": (
                    0 if baseline is None else len(baseline.distribution)
                ),
            }


class SLOTracker:
    """Availability and latency burn rates over a sliding request window.

    ``burn = observed_bad_fraction / (1 − objective)``: 1.0 spends the
    error budget exactly at the objective rate, 2.0 twice as fast.  The
    gauges are the standard multi-window burn-rate alert input; the window
    here is count-based so the math is deterministic and clock-free.
    """

    def __init__(
        self,
        availability_objective: float = 0.999,
        latency_objective_seconds: float = 0.25,
        latency_target: float = 0.99,
        window_size: int = 1024,
    ) -> None:
        if not 0.0 < availability_objective < 1.0:
            raise ValueError("availability_objective must be in (0, 1)")
        if not 0.0 < latency_target < 1.0:
            raise ValueError("latency_target must be in (0, 1)")
        if latency_objective_seconds <= 0:
            raise ValueError("latency_objective_seconds must be positive")
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.availability_objective = availability_objective
        self.latency_objective_seconds = latency_objective_seconds
        self.latency_target = latency_target
        self.window_size = window_size
        self._lock = threading.Lock()
        self._window: deque[tuple[bool, bool]] = deque()
        self._errors = 0
        self._slow = 0
        self._availability_burn = 0.0
        self._latency_burn = 0.0

    def _availability_gauge(self) -> obs_metrics.Gauge:
        return obs_metrics.get_registry().gauge(
            "repro_slo_availability_burn_rate",
            "Error-budget burn rate for the availability SLO over the "
            "sliding request window (1.0 = burning at the objective rate).",
        )

    def _latency_gauge(self) -> obs_metrics.Gauge:
        return obs_metrics.get_registry().gauge(
            "repro_slo_latency_burn_rate",
            "Error-budget burn rate for the latency SLO over the sliding "
            "request window (1.0 = burning at the objective rate).",
        )

    def observe(self, error: bool, seconds: float) -> None:
        """Feed one request outcome into the window and refresh the gauges."""
        slow = seconds > self.latency_objective_seconds
        with self._lock:
            if len(self._window) == self.window_size:
                old_error, old_slow = self._window.popleft()
                self._errors -= old_error
                self._slow -= old_slow
            self._window.append((error, slow))
            self._errors += error
            self._slow += slow
            total = len(self._window)
            self._availability_burn = (self._errors / total) / (
                1.0 - self.availability_objective
            )
            self._latency_burn = (self._slow / total) / (
                1.0 - self.latency_target
            )
            availability_burn = self._availability_burn
            latency_burn = self._latency_burn
        if runtime.metrics_enabled():
            self._availability_gauge().set(availability_burn)
            self._latency_gauge().set(latency_burn)

    def snapshot(self) -> dict[str, object]:
        """Tracker state for ``GET /debug/quality``."""
        with self._lock:
            total = len(self._window)
            return {
                "availability_objective": self.availability_objective,
                "latency_objective_seconds": self.latency_objective_seconds,
                "latency_target": self.latency_target,
                "window": total,
                "window_size": self.window_size,
                "errors": self._errors,
                "slow": self._slow,
                "availability_burn_rate": round(self._availability_burn, 6),
                "latency_burn_rate": round(self._latency_burn, 6),
            }


class _StrategyHandles(NamedTuple):
    """Memoized metric children for one strategy label set."""

    requests: obs_metrics.Counter
    empty: obs_metrics.Counter
    below: obs_metrics.Counter
    top_score: obs_metrics.Histogram


class _TrafficHandles(NamedTuple):
    """Memoized metric children of the request-level hook."""

    oov: obs_metrics.Histogram
    coverage: obs_metrics.Gauge
    generation: obs_metrics.Gauge


@dataclass
class _StrategyStats:
    """Plain counters mirrored for ``snapshot()`` (registry-independent)."""

    requests: int = 0
    empty: int = 0
    below_threshold: int = 0
    last_top_score: float | None = None


class QualityMonitor:
    """Online accounting of recommendation health.

    Two hooks feed it, because the serving path caches:

    - :meth:`observe_recommend` — from
      :class:`~repro.core.recommender.GoalRecommender` on every *computed*
      recommendation (cache misses): score distributions, empty/below-
      threshold rates, sampled |IS|/|GS|/|AS| sizes;
    - :meth:`observe_traffic` — from the service's
      :class:`~repro.service.ModelManager` on every request including
      cache hits: OOV rate, drift-window feed, catalog coverage.
    """

    def __init__(
        self,
        window_size: int = 512,
        score_threshold: float = 0.05,
        space_sample_every: int = 64,
        drift: DriftDetector | None = None,
        event_sink: EventSink | None = None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if space_sample_every <= 0:
            raise ValueError("space_sample_every must be positive")
        self.window_size = window_size
        self.score_threshold = score_threshold
        self.space_sample_every = space_sample_every
        self.drift = drift if drift is not None else DriftDetector()
        self.event_sink = event_sink
        self._lock = threading.Lock()
        # Call-site memo for per-strategy metric children, swapped as one
        # ``(registry, {strategy: handles})`` tuple (the GoalRecommender
        # pattern): the steady-state cost is one dict lookup, which is how
        # the ≤10% budget of bench_quality_telemetry.py holds.
        self._handles: (
            tuple[object, dict[str, _StrategyHandles]] | None
        ) = None
        self._traffic_handles: tuple[object, _TrafficHandles] | None = None
        self._stats: dict[str, _StrategyStats] = {}
        self._observations = 0
        self._coverage_window: deque[tuple[str, ...]] = deque()
        self._coverage_counts: Counter[str] = Counter()
        self._catalog_size = 0
        self._last_oov = 0.0
        self._oov_sum = 0.0
        self._oov_count = 0
        self._generation = 0

    def set_event_sink(self, sink: EventSink | None) -> None:
        """Route quality/drift events (e.g. into the flight recorder)."""
        self.event_sink = sink
        self.drift.event_sink = sink

    # -- computation-level hook ------------------------------------------

    def observe_recommend(
        self,
        strategy: str,
        model: "ModelView",
        activity: frozenset[int],
        result: "RecommendationList",
    ) -> None:
        """Account one computed recommendation (GoalRecommender hook)."""
        top_score = result.items[0].score if result.items else None
        below = top_score is not None and top_score < self.score_threshold
        with self._lock:
            stats = self._stats.get(strategy)
            if stats is None:
                stats = _StrategyStats()
                self._stats[strategy] = stats
            stats.requests += 1
            stats.last_top_score = top_score
            if top_score is None:
                stats.empty += 1
            elif below:
                stats.below_threshold += 1
            self._observations += 1
            sample_spaces = self._observations % self.space_sample_every == 0
            handles = self._handles_locked(strategy)
        if handles is not None:
            handles.requests.inc()
            if top_score is None:
                handles.empty.inc()
            else:
                handles.top_score.observe(top_score)
                if below:
                    handles.below.inc()
        if sample_spaces:
            self._observe_spaces(model, activity)

    def _handles_locked(self, strategy: str) -> _StrategyHandles | None:
        """Fetch/build the memoized metric children for ``strategy``."""
        if not runtime.metrics_enabled():
            return None
        registry = obs_metrics.get_registry()
        memo = self._handles
        if memo is None or memo[0] is not registry:
            memo = (registry, {})
            self._handles = memo
        handles = memo[1].get(strategy)
        if handles is None:
            handles = _StrategyHandles(
                requests=registry.counter(
                    "repro_quality_requests_total",
                    "Recommendations accounted by the quality monitor, by "
                    "strategy.",
                    strategy=strategy,
                ),
                empty=registry.counter(
                    "repro_quality_empty_total",
                    "Recommendations that returned an empty list, by "
                    "strategy.",
                    strategy=strategy,
                ),
                below=registry.counter(
                    "repro_quality_below_threshold_total",
                    "Non-empty recommendations whose top score fell below "
                    "the configured quality threshold, by strategy.",
                    strategy=strategy,
                ),
                top_score=registry.histogram(
                    "repro_quality_top_score",
                    "Distribution of the top recommendation score, by "
                    "strategy (dimensionless).",
                    buckets=SCORE_BUCKETS,
                    strategy=strategy,
                ),
            )
            memo[1][strategy] = handles
        return handles

    def _observe_spaces(self, model: "ModelView", activity: frozenset[int]) -> None:
        """Record |IS|/|GS|/|AS| for one deterministically sampled request.

        A model view with a CSR engine answers from one engine call
        (:meth:`~repro.core.vectorized.BatchRecommender.space_sizes`); a
        bare model runs the scalar space queries.
        """
        if not runtime.metrics_enabled():
            return
        # Imported here: repro.core imports repro.obs at module level.
        from repro.core.protocols import engine_of

        registry = obs_metrics.get_registry()
        engine = engine_of(model)
        if engine is not None:
            is_size, gs_size, as_size, _ = engine.space_sizes(activity)
        else:
            is_size = len(model.implementation_space(activity))
            gs_size = len(model.goal_space(activity))
            as_size = len(model.action_space(activity))
        for space, size in (("is", is_size), ("gs", gs_size), ("as", as_size)):
            registry.histogram(
                "repro_quality_space_size_items",
                "Inferred space sizes |IS(H)|, |GS(H)|, |AS(H)| for sampled "
                "requests, by space.",
                buckets=SIZE_BUCKETS,
                space=space,
            ).observe(size)

    # -- request-level hook ----------------------------------------------

    def _traffic_handles_locked(self) -> _TrafficHandles | None:
        """Fetch/build the memoized request-level metric handles.

        Same shape as :meth:`_handles_locked`: the registry lookups run
        once per registry swap, not once per served request — that keeps
        the hot path inside the ≤10% budget of
        ``bench_quality_telemetry.py``.
        """
        if not runtime.metrics_enabled():
            return None
        registry = obs_metrics.get_registry()
        memo = self._traffic_handles
        if memo is None or memo[0] is not registry:
            handles = _TrafficHandles(
                oov=registry.histogram(
                    "repro_quality_oov_ratio",
                    "Per-request fraction of distinct activity actions "
                    "unknown to the serving model.",
                    buckets=RATIO_BUCKETS,
                ),
                coverage=registry.gauge(
                    "repro_quality_catalog_coverage_ratio",
                    "Fraction of the action catalog recommended at least "
                    "once within the sliding coverage window.",
                ),
                generation=registry.gauge(
                    "repro_quality_model_generation",
                    "Model generation the quality window is currently "
                    "observing.",
                ),
            )
            memo = (registry, handles)
            self._traffic_handles = memo
        return memo[1]

    def observe_traffic(
        self,
        activity: Iterable[str],
        model: "ModelView",
        result: "RecommendationList",
        generation: int = 0,
    ) -> None:
        """Account one served request, cache hits included (service hook)."""
        distinct = {str(label) for label in activity}
        unknown = sum(1 for label in distinct if not model.has_action(label))
        oov = unknown / len(distinct) if distinct else 0.0
        recommended = tuple(item.action for item in result.items)
        with self._lock:
            self._last_oov = oov
            self._oov_sum += oov
            self._oov_count += 1
            self._generation = generation
            self._catalog_size = model.num_actions
            if len(self._coverage_window) == self.window_size:
                for label in self._coverage_window.popleft():
                    self._coverage_counts[label] -= 1
                    if self._coverage_counts[label] <= 0:
                        del self._coverage_counts[label]
            self._coverage_window.append(recommended)
            for label in recommended:
                self._coverage_counts[label] += 1
            coverage = len(self._coverage_counts) / max(self._catalog_size, 1)
            handles = self._traffic_handles_locked()
        if handles is not None:
            handles.oov.observe(oov)
            handles.coverage.set(coverage)
            handles.generation.set(generation)
        # Drift sees the *sorted distinct* labels: per-request order is
        # irrelevant to a frequency window, and sorting makes the fed
        # sequence — hence the PSI — independent of set-iteration order.
        self.drift.observe(sorted(distinct))

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Monitor state for ``GET /debug/quality``."""
        with self._lock:
            strategies = {
                name: {
                    "requests": stats.requests,
                    "empty": stats.empty,
                    "below_threshold": stats.below_threshold,
                    "last_top_score": stats.last_top_score,
                }
                for name, stats in sorted(self._stats.items())
            }
            oov_mean = (
                self._oov_sum / self._oov_count if self._oov_count else 0.0
            )
            state: dict[str, object] = {
                "strategies": strategies,
                "observations": self._observations,
                "score_threshold": self.score_threshold,
                "generation": self._generation,
                "oov": {
                    "last": round(self._last_oov, 6),
                    "mean": round(oov_mean, 6),
                    "requests": self._oov_count,
                },
                "coverage": {
                    "covered_actions": len(self._coverage_counts),
                    "catalog_actions": self._catalog_size,
                    "window": len(self._coverage_window),
                    "window_size": self.window_size,
                    "ratio": round(
                        len(self._coverage_counts)
                        / max(self._catalog_size, 1),
                        6,
                    ),
                },
            }
        state["drift"] = self.drift.snapshot()
        return state

    def reset(self) -> None:
        """Clear all accumulated state (tests and generation experiments)."""
        with self._lock:
            self._handles = None
            self._traffic_handles = None
            self._stats.clear()
            self._observations = 0
            self._coverage_window.clear()
            self._coverage_counts.clear()
            self._catalog_size = 0
            self._last_oov = 0.0
            self._oov_sum = 0.0
            self._oov_count = 0
            self._generation = 0


_monitor = QualityMonitor()


def get_quality_monitor() -> QualityMonitor:
    """The process-wide quality monitor the built-in hooks feed."""
    return _monitor


def set_quality_monitor(monitor: QualityMonitor) -> QualityMonitor:
    """Replace the process-wide monitor; returns the previous one."""
    global _monitor
    previous = _monitor
    _monitor = monitor
    return previous
