"""Declared benchmark suites for the regression harness.

A :class:`BenchmarkSpec` names one deterministic workload and a callable
producing ``{metric_name: Metric}``.  The *smoke* suite is small enough for
CI (a few seconds end to end) yet covers the hot pipeline: the four paper
strategies, the three association-space queries, the evaluation protocol
and the observability overhead ratio.

Every gated metric is machine independent — counts, CRC32 checksums over
the ranked output, protocol metrics with tight relative bands, and one
wide-band ratio.  Wall-clock totals are published as ``info`` metrics so a
report still *shows* timing without the baseline gating on it.
"""

from __future__ import annotations

import statistics
import tempfile
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.approximate import PrunedBreadthStrategy, recall_at_k
from repro.core.caching import CachedModelView
from repro.core.entities import ActionLabel
from repro.core.recommender import PAPER_STRATEGIES, GoalRecommender
from repro.data import FoodMartConfig, generate_foodmart
from repro.eval.harness import ExperimentHarness
from repro.eval.metrics import average_true_positive_rate

#: Seed and sizing of the smoke workload; changing either invalidates the
#: committed baseline (regenerate with ``repro-bench --update-baseline``).
_SMOKE_SEED = 7
_SMOKE_MAX_USERS = 24
_SMOKE_K = 10
#: Posting-list cap of the smoke pruned-tier leg — small enough to truncate
#: rows even on the tiny harness, so the gated recall actually exercises
#: the approximation (the paper-scale recall gate lives in
#: ``benchmarks/bench_single_request.py``).
_SMOKE_PRUNE_BUDGET = 8
#: Each timed leg of an ``overhead_ratio`` walks the split's activities this
#: many times.  One walk takes 1.3-6 ms, about one 4 ms scheduler tick, so
#: a single tick lost to another process moved a ratio by more than the
#: overhead it measures; sixteen walks (22-100 ms) span many ticks.  The
#: legs stay in wall time, which counts the recorders' background writes
#: and lock waits.
_OVERHEAD_REPEATS = 16


@dataclass(frozen=True, slots=True)
class Metric:
    """One measured quantity with its gating policy.

    ``kind`` is ``exact`` (baseline must match bit-for-bit), ``relative``
    (may drift by ``tolerance`` relative to the baseline value) or ``info``
    (published, never gated).
    """

    value: float
    kind: str = "exact"
    tolerance: float = 0.0

    def to_dict(self) -> dict[str, float | str]:
        return {
            "value": self.value,
            "kind": self.kind,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True, slots=True)
class BenchmarkSpec:
    """A named benchmark: ``run`` returns the metrics of one execution."""

    name: str
    description: str
    run: Callable[[ExperimentHarness], dict[str, Metric]]


def build_smoke_harness() -> ExperimentHarness:
    """The shared deterministic workload of the smoke suite."""
    dataset = generate_foodmart(FoodMartConfig.tiny(), seed=_SMOKE_SEED)
    return ExperimentHarness(
        dataset, k=_SMOKE_K, max_users=_SMOKE_MAX_USERS, seed=_SMOKE_SEED
    )


def _ranking_checksum(recommender: GoalRecommender,
                      activities: list[frozenset[ActionLabel]],
                      strategy: str) -> tuple[int, int]:
    """(CRC32 over the ranked output, number of non-empty lists)."""
    digest = 0
    nonempty = 0
    for activity in activities:
        result = recommender.recommend(activity, k=_SMOKE_K, strategy=strategy)
        if result.items:
            nonempty += 1
        for item in result:
            line = f"{item.action}:{item.score:.9f};"
            digest = zlib.crc32(line.encode("utf-8"), digest)
    return digest, nonempty


def _bench_recommend_strategies(
    harness: ExperimentHarness,
) -> dict[str, Metric]:
    recommender = harness.recommender
    activities = [user.observed for user in harness.split]
    metrics: dict[str, Metric] = {}
    start = time.perf_counter()
    for strategy in PAPER_STRATEGIES:
        digest, nonempty = _ranking_checksum(
            recommender, activities, strategy
        )
        metrics[f"{strategy}_checksum"] = Metric(float(digest))
        metrics[f"{strategy}_nonempty"] = Metric(float(nonempty))
    metrics["wall_seconds"] = Metric(
        time.perf_counter() - start, kind="info"
    )
    return metrics


def _bench_association_spaces(
    harness: ExperimentHarness,
) -> dict[str, Metric]:
    model = harness.model
    start = time.perf_counter()
    is_total = gs_total = as_total = 0
    for activity in harness.observed_activities():
        encoded = model.encode_activity(activity)
        is_total += len(model.implementation_space(encoded))
        gs_total += len(model.goal_space(encoded))
        as_total += len(model.action_space(encoded))
    return {
        "is_size_total": Metric(float(is_total)),
        "gs_size_total": Metric(float(gs_total)),
        "as_size_total": Metric(float(as_total)),
        "wall_seconds": Metric(time.perf_counter() - start, kind="info"),
    }


def _bench_evaluation_protocol(
    harness: ExperimentHarness,
) -> dict[str, Metric]:
    hidden = harness.hidden_sets()
    start = time.perf_counter()
    metrics: dict[str, Metric] = {}
    for strategy in ("breadth", "focus_cmp"):
        lists = harness.run_goal_method(strategy)
        tpr = average_true_positive_rate(lists, hidden)
        # Deterministic pure-Python float arithmetic; the tight band only
        # absorbs summation-order differences across interpreter builds.
        metrics[f"{strategy}_avg_tpr"] = Metric(
            tpr, kind="relative", tolerance=1e-6
        )
    metrics["wall_seconds"] = Metric(
        time.perf_counter() - start, kind="info"
    )
    return metrics


def _bench_obs_overhead(harness: ExperimentHarness) -> dict[str, Metric]:
    """Enabled-path cost ratio, gated with a wide machine-tolerant band."""
    recommender = harness.recommender
    activities = [user.observed for user in harness.split] * _OVERHEAD_REPEATS

    def run_once() -> float:
        start = time.perf_counter()
        for activity in activities:
            recommender.recommend(activity, k=_SMOKE_K, strategy="breadth")
        return time.perf_counter() - start

    obs.disable()
    run_once()  # warm caches outside the timed region
    disabled: list[float] = []
    enabled: list[float] = []
    try:
        for _ in range(11):
            obs.disable()
            disabled.append(run_once())
            obs.enable(metrics=True, tracing=True, exemplars=True)
            enabled.append(run_once())
    finally:
        obs.disable()
    # Median of the paired per-pass ratios: on a shared host a
    # min-over-passes ratio swings with whichever leg happened to catch a
    # fast scheduling window.
    ratio = statistics.median(e / d for e, d in zip(enabled, disabled))
    return {
        # Noise-tolerant band: the committed baseline stores ~1.0x and CI
        # machines may jitter; the separate bench_obs_overhead.py pytest
        # bench enforces the hard 1.10x budget.
        "overhead_ratio": Metric(ratio, kind="relative", tolerance=0.5),
        "disabled_seconds": Metric(min(disabled), kind="info"),
        "enabled_seconds": Metric(min(enabled), kind="info"),
    }


def _bench_quality_telemetry(harness: ExperimentHarness) -> dict[str, Metric]:
    """Quality monitor + flight recorder: cost ratio and determinism.

    The gated metrics are machine independent: the PSI drift score depends
    only on the frozen baseline and the observed label sequence, and the
    head-based sampler admits a fixed subset of the synthetic request ids.
    The cost ratio gets the same wide noise band as ``obs_overhead``; the
    hard 1.10x budget lives in ``bench_quality_telemetry.py``.
    """
    recommender = harness.recommender
    model = harness.model
    activities = [user.observed for user in harness.split]
    request_ids = [f"req-{index:05d}" for index in range(len(activities))]
    requests = list(zip(request_ids, activities)) * _OVERHEAD_REPEATS

    def run_plain() -> float:
        start = time.perf_counter()
        for _, activity in requests:
            recommender.recommend(activity, k=_SMOKE_K, strategy="breadth")
        return time.perf_counter() - start

    def run_monitored(
        monitor: obs.QualityMonitor, recorder: obs.FlightRecorder
    ) -> float:
        start = time.perf_counter()
        for request_id, activity in requests:
            result = recommender.recommend(
                activity, k=_SMOKE_K, strategy="breadth"
            )
            monitor.observe_traffic(activity, model, result, generation=0)
            recorder.record_request(request_id, "/recommend", "POST", 200, 0.0)
        return time.perf_counter() - start

    plain: list[float] = []
    monitored: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        recorder = obs.FlightRecorder(Path(tmp), sample_rate=0.25)
        monitor = obs.QualityMonitor(window_size=256)
        monitor.drift.set_baseline(obs.BaselineProfile.from_model(model))
        previous = obs.set_quality_monitor(monitor)
        obs.disable()
        run_plain()  # warm caches outside the timed region
        try:
            for _ in range(5):
                obs.disable()
                obs.enable(metrics=True, tracing=True, exemplars=True)
                plain.append(run_plain())
                obs.enable(
                    metrics=True, tracing=True, exemplars=True, quality=True
                )
                monitored.append(run_monitored(monitor, recorder))
                recorder.flush(timeout=10.0)  # drain outside the timed region
        finally:
            obs.set_quality_monitor(previous)
            obs.disable()
            sampled = sum(
                1
                for request_id in request_ids
                if recorder.should_sample(request_id)
            )
            recorder.close()
    return {
        "overhead_ratio": Metric(
            min(monitored) / min(plain), kind="relative", tolerance=0.5
        ),
        "drift_score": Metric(
            monitor.drift.score(), kind="relative", tolerance=1e-6
        ),
        "sampled_requests": Metric(float(sampled)),
        "plain_seconds": Metric(min(plain), kind="info"),
        "monitored_seconds": Metric(min(monitored), kind="info"),
    }


def _bench_metrics_history(harness: ExperimentHarness) -> dict[str, Metric]:
    """Fake-clock history capture: exact rates, counts and retention math.

    Every gated number is a pure function of the capture schedule: a
    private registry isolates the run from whatever families the
    surrounding suite registered, so the only call sites writing to it
    are the history's own self-metrics.  Twelve captures at a 5s fake
    step must derive a counter rate of exactly 1/5 per second, and the
    index's series/point/memory accounting follows from
    ``capacity = window // interval + 1`` alone.  The hard 2% overhead
    budget lives in ``benchmarks/bench_history_overhead.py``.
    """
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.MetricsRegistry()
    fake_now = [1000.0]
    history = obs.MetricsHistory(
        5.0,
        60.0,
        clock=lambda: fake_now[0],
        registry_getter=lambda: registry,
    )
    start = time.perf_counter()
    obs.enable(metrics=True)
    try:
        for _ in range(12):
            history.capture()
            fake_now[0] += 5.0
    finally:
        obs.disable()
    def last_value(family: str, key: str) -> float:
        payload = history.series(family)
        assert payload is not None
        rendered = payload["series"]
        assert isinstance(rendered, list)
        first = rendered[0]
        assert isinstance(first, dict)
        values = [v for v in first[key] if v is not None]
        return float(values[-1])

    index = history.index()
    families = index["families"]
    assert isinstance(families, dict)
    captures = index["captures"]
    memory = index["memory_bytes_estimate"]
    assert isinstance(captures, int) and isinstance(memory, int)
    return {
        "captures": Metric(float(captures)),
        "tracked_families": Metric(float(len(families))),
        "buffered_points": Metric(float(sum(
            int(entry["points"]) for entry in families.values()
        ))),
        "snapshot_rate_per_second": Metric(
            last_value("repro_history_snapshots_total", "values")
        ),
        "points_gauge_last": Metric(
            last_value("repro_history_points", "values")
        ),
        "capture_count_rate": Metric(
            last_value("repro_history_capture_seconds", "count_rate")
        ),
        "memory_bytes_estimate": Metric(float(memory)),
        "wall_seconds": Metric(time.perf_counter() - start, kind="info"),
    }


def _bench_lock_sanitizer(harness: ExperimentHarness) -> dict[str, Metric]:
    """Instrumented-lock cost on the serving path, wide machine band.

    Mirrors ``benchmarks/bench_lock_sanitizer.py`` at smoke scale: the
    gated metrics are the violation count (always zero against the
    committed ``locks.toml``) and a noise-tolerant overhead ratio; the
    hard 2%/25% budgets live in the standalone paper-scale bench.
    """
    # Imported here: repro.service pulls the HTTP stack, which the other
    # smoke benches do not need at module import time.
    from repro.service import ModelManager
    from repro.utils.concurrency import (
        enable_lock_sanitizer,
        lock_sanitizer_violations,
        reset_lock_sanitizer,
    )

    activities = [list(user.observed) for user in harness.split] * _OVERHEAD_REPEATS

    def build() -> ModelManager:
        # A unit cache: every request runs real scoring, not a lock loop.
        return ModelManager(harness.model, cache_size=1)

    def run_once(manager: ModelManager) -> float:
        start = time.perf_counter()
        for activity in activities:
            manager.recommend(activity, k=_SMOKE_K, strategy="breadth")
        return time.perf_counter() - start

    reset_lock_sanitizer()
    try:
        plain = build()
        enable_lock_sanitizer()  # discovers the committed locks.toml
        instrumented = build()
        run_once(plain)  # warm caches outside the timed region
        run_once(instrumented)
        disabled: list[float] = []
        enabled: list[float] = []
        for _ in range(5):
            disabled.append(run_once(plain))
            enabled.append(run_once(instrumented))
        violations = lock_sanitizer_violations()
    finally:
        reset_lock_sanitizer()
    ratio = min(enabled) / min(disabled)
    return {
        "overhead_ratio": Metric(ratio, kind="relative", tolerance=0.5),
        "violations": Metric(float(len(violations))),
        "disabled_seconds": Metric(min(disabled), kind="info"),
        "enabled_seconds": Metric(min(enabled), kind="info"),
    }


def _bench_single_request(harness: ExperimentHarness) -> dict[str, Metric]:
    """CSR hot path vs scalar reference: bit-parity plus pruned-tier recall.

    The CSR checksums are gated as exact values — they must equal the
    scalar checksums committed under ``recommend_strategies``, which is the
    bit-parity contract of the unified hot path stated as data.  The pruned
    leg runs both the scalar fallback and the engine kernel at a budget
    small enough to truncate on the tiny harness, gating their mutual
    parity and the (deterministic) recall against the exact rankings.
    """
    scalar = GoalRecommender(harness.model, use_csr=False)
    activities = [user.observed for user in harness.split]
    metrics: dict[str, Metric] = {}
    start = time.perf_counter()
    csr = GoalRecommender(CachedModelView(harness.model))
    parity = 1.0
    for strategy in PAPER_STRATEGIES:
        digest, nonempty = _ranking_checksum(csr, activities, strategy)
        metrics[f"{strategy}_csr_checksum"] = Metric(float(digest))
        metrics[f"{strategy}_csr_nonempty"] = Metric(float(nonempty))
        for activity in activities:
            reference = scalar.recommend(
                activity, k=_SMOKE_K, strategy=strategy
            )
            routed = csr.recommend(activity, k=_SMOKE_K, strategy=strategy)
            if reference != routed:
                parity = 0.0
    metrics["csr_scalar_parity"] = Metric(parity)

    pruned = PrunedBreadthStrategy(budget=_SMOKE_PRUNE_BUDGET)
    engine = csr.csr_engine()
    model = harness.model
    breadth = scalar.strategy("breadth")
    engine_parity = 1.0
    recall_total = 0.0
    recall_count = 0
    for activity in activities:
        encoded = model.encode_activity(activity)
        exact = breadth.rank(model, encoded, _SMOKE_K)
        approx = pruned.rank(model, encoded, _SMOKE_K)
        if engine is not None and approx != engine.pruned_breadth_rank(
            encoded, _SMOKE_K, _SMOKE_PRUNE_BUDGET
        ):
            engine_parity = 0.0
        if exact:
            recall_total += recall_at_k(exact, approx)
            recall_count += 1
    metrics["pruned_engine_parity"] = Metric(engine_parity)
    metrics["pruned_recall_at_10"] = Metric(
        recall_total / recall_count if recall_count else 1.0
    )
    metrics["wall_seconds"] = Metric(
        time.perf_counter() - start, kind="info"
    )
    return metrics


def _bench_shared_arena(harness: ExperimentHarness) -> dict[str, Metric]:
    """Shared-memory arena round trip: bit-parity of the rebuilt engine.

    Exercises the multi-worker publication path without forking: export
    the CSR engine's arrays, pack them into a
    :class:`~repro.serving.shared.SharedModelArena`, rebuild an engine
    over zero-copy views, and gate that the rebuilt engine's rankings
    checksum identically to the direct engine's — the same contract the
    subprocess parity suite (``tests/test_multiworker.py``) states over
    HTTP.  The arena byte size is machine-shaped (dtype widths), so only
    the array *count* and the checksums gate.
    """
    from repro.core.vectorized import BatchRecommender
    from repro.serving.shared import SharedModelArena

    activities = [user.observed for user in harness.split]
    start = time.perf_counter()
    direct = GoalRecommender(CachedModelView(harness.model))
    engine = direct.csr_engine()
    assert engine is not None, "the smoke harness model is never empty"
    arena = SharedModelArena(engine.export_arrays())
    metrics: dict[str, Metric] = {
        "packed_arrays": Metric(float(len(arena.keys()))),
        "arena_bytes": Metric(float(arena.size_bytes), kind="info"),
    }
    rebuilt = BatchRecommender.from_arrays(harness.model, arena.views())
    view = CachedModelView(harness.model, engine=rebuilt)
    shared = GoalRecommender(view)
    parity = 1.0
    for strategy in ("best_match", "breadth"):
        digest, nonempty = _ranking_checksum(shared, activities, strategy)
        reference, _ = _ranking_checksum(direct, activities, strategy)
        if digest != reference:
            parity = 0.0
        metrics[f"{strategy}_shared_checksum"] = Metric(float(digest))
        metrics[f"{strategy}_shared_nonempty"] = Metric(float(nonempty))
    metrics["shared_direct_parity"] = Metric(parity)
    metrics["wall_seconds"] = Metric(
        time.perf_counter() - start, kind="info"
    )
    # Release every view before unmapping, or close() raises BufferError.
    del shared, view, rebuilt
    arena.close()
    return metrics


_SMOKE_SUITE: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        "recommend_strategies",
        "CRC32-checksummed top-k output of the four paper strategies",
        _bench_recommend_strategies,
    ),
    BenchmarkSpec(
        "single_request",
        "CSR hot-path parity checksums and pruned-tier recall",
        _bench_single_request,
    ),
    BenchmarkSpec(
        "shared_arena",
        "shared-memory arena round trip: rebuilt-engine bit-parity",
        _bench_shared_arena,
    ),
    BenchmarkSpec(
        "association_spaces",
        "summed |IS|/|GS|/|AS| over the split activities",
        _bench_association_spaces,
    ),
    BenchmarkSpec(
        "evaluation_protocol",
        "average TPR of breadth and focus_cmp under the paper protocol",
        _bench_evaluation_protocol,
    ),
    BenchmarkSpec(
        "obs_overhead",
        "metrics+tracing+exemplars enabled/disabled latency ratio",
        _bench_obs_overhead,
    ),
    BenchmarkSpec(
        "quality_telemetry",
        "quality monitor + sampled flight recorder cost and determinism",
        _bench_quality_telemetry,
    ),
    BenchmarkSpec(
        "metrics_history",
        "fake-clock metrics-history capture: exact rates and retention",
        _bench_metrics_history,
    ),
    BenchmarkSpec(
        "lock_sanitizer",
        "instrumented-lock overhead ratio and zero order violations",
        _bench_lock_sanitizer,
    ),
)

_SUITES: dict[str, tuple[BenchmarkSpec, ...]] = {"smoke": _SMOKE_SUITE}


def suite_names() -> tuple[str, ...]:
    """The declared suite names."""
    return tuple(sorted(_SUITES))


def get_suite(name: str) -> tuple[BenchmarkSpec, ...]:
    """The specs of suite ``name``; raises ``KeyError`` on unknown names."""
    return _SUITES[name]
