"""The quality monitor, drift detector and SLO tracker.

Covers the PR's determinism acceptance criterion: the drift detector is a
pure function of (baseline, observed label stream) — the same seeded
stream replayed against the same baseline produces **bit-identical** PSI
scores, with the injectable fake clock only stamping alert events.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import obs
from repro.core import AssociationGoalModel, CachedModelView, GoalRecommender
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import (
    SIZE_BUCKETS,
    BaselineProfile,
    DriftDetector,
    QualityMonitor,
    SLOTracker,
    population_stability_index,
)


@pytest.fixture
def registry():
    """An isolated registry with metrics enabled (quality flag off).

    The quality *flag* stays off so ``GoalRecommender.recommend`` does not
    additionally feed the process-wide monitor — these tests drive their
    own monitor instances explicitly, and both would share this registry.
    """
    registry = MetricsRegistry()
    previous = obs.set_registry(registry)
    obs.enable(metrics=True, tracing=False)
    yield registry
    obs.disable()
    obs.set_registry(previous)


def gauge_value(registry, name):
    assert name in registry.names(), f"{name} not in registry"
    return registry.gauge(name).value


class TestPSI:
    def test_identical_distributions_score_zero(self):
        dist = {"a": 0.5, "b": 0.3, "c": 0.2}
        assert population_stability_index(dist, dist) == 0.0

    def test_shifted_distribution_scores_positive(self):
        baseline = {"a": 0.5, "b": 0.5}
        live = {"a": 0.9, "b": 0.1}
        score = population_stability_index(baseline, live)
        # Hand-computed: (0.9-0.5)ln(0.9/0.5) + (0.1-0.5)ln(0.1/0.5)
        expected = 0.4 * math.log(0.9 / 0.5) + (-0.4) * math.log(0.1 / 0.5)
        assert score == pytest.approx(expected)
        assert score > 0

    def test_oov_mass_is_penalized(self):
        baseline = {"a": 1.0}
        live = {"a": 0.5, "never-seen": 0.5}
        with_oov = population_stability_index(baseline, live)
        without = population_stability_index(baseline, {"a": 0.5})
        assert with_oov > without

    def test_sorted_iteration_makes_the_sum_order_independent(self):
        baseline = {f"a{i}": 1 / 50 for i in range(50)}
        live_forward = {f"a{i}": (i + 1) / sum(range(1, 51)) for i in range(50)}
        live_reversed = dict(reversed(list(live_forward.items())))
        assert population_stability_index(
            baseline, live_forward
        ) == population_stability_index(baseline, live_reversed)


class TestBaselineProfile:
    def test_from_counts_normalizes(self):
        profile = BaselineProfile.from_counts({"a": 3, "b": 1}, generation=2)
        assert profile.distribution == {"a": 0.75, "b": 0.25}
        assert profile.generation == 2

    def test_from_counts_empty_is_empty(self):
        assert BaselineProfile.from_counts({}).distribution == {}

    def test_from_model_uses_action_frequencies(self, recipe_model):
        profile = BaselineProfile.from_model(recipe_model, generation=1)
        assert profile.generation == 1
        assert set(profile.distribution) == {
            "potatoes", "carrots", "pickles", "nutmeg",
            "butter", "oil", "flour", "eggs", "sugar",
        }
        assert sum(profile.distribution.values()) == pytest.approx(1.0)
        # potatoes appears in 2 of 4 implementations, sugar in 1.
        assert (
            profile.distribution["potatoes"]
            > profile.distribution["sugar"]
        )

    def test_from_model_without_frequencies_is_uniform(self):
        class Vocab:
            num_actions = 4

            def action_label(self, aid):
                return f"a{aid}"

        profile = BaselineProfile.from_model(Vocab())
        assert profile.distribution == {
            "a0": 0.25, "a1": 0.25, "a2": 0.25, "a3": 0.25
        }


def feed(detector, stream):
    """Feed a label stream one observation at a time; return all scores."""
    scores = []
    for labels in stream:
        detector.observe(labels)
        scores.append(detector.score())
    return scores


def seeded_stream(seed, n, vocabulary):
    rng = random.Random(seed)
    return [
        sorted(rng.sample(vocabulary, k=rng.randint(1, 3))) for _ in range(n)
    ]


class TestDriftDetector:
    def test_no_baseline_means_no_scoring(self):
        detector = DriftDetector(recompute_every=1)
        detector.observe(["a"])
        assert detector.score() == 0.0
        assert detector.snapshot()["baseline_generation"] is None

    def test_replaying_a_seeded_stream_is_bit_identical(self):
        baseline = BaselineProfile.from_counts(
            {"a": 5, "b": 3, "c": 2, "d": 1}
        )
        stream = seeded_stream(42, 200, ["a", "b", "c", "d", "e", "f"])
        runs = []
        for _ in range(2):
            detector = DriftDetector(
                window_size=64, recompute_every=1, clock=lambda: 0.0
            )
            detector.set_baseline(baseline)
            runs.append(feed(detector, stream))
        assert runs[0] == runs[1]  # bit-identical floats, not approx
        assert any(score != 0.0 for score in runs[0])

    def test_threshold_crossing_raises_alert_and_fires_sink(self, registry):
        events = []
        fake_now = 1234.5
        detector = DriftDetector(
            window_size=16,
            threshold=0.25,
            recompute_every=1,
            clock=lambda: fake_now,
            event_sink=lambda kind, payload: events.append((kind, payload)),
        )
        detector.set_baseline(BaselineProfile.from_counts({"a": 1, "b": 1}))
        # Traffic matching the baseline: no alert.
        for _ in range(8):
            detector.observe(["a", "b"])
        assert detector.snapshot()["alerting"] is False
        # Vocabulary the baseline has never seen: PSI explodes past 0.25.
        for _ in range(16):
            detector.observe(["z"])
        snap = detector.snapshot()
        assert snap["alerting"] is True
        assert snap["alerts"] == 1  # rising edge counted once, not per obs
        assert gauge_value(registry, "repro_drift_alert") == 1.0
        assert gauge_value(registry, "repro_drift_score") == pytest.approx(
            snap["score"], abs=1e-6
        )
        kinds = [kind for kind, _ in events]
        assert kinds == ["drift"]
        payload = events[0][1]
        assert payload["threshold"] == 0.25
        assert payload["baseline_generation"] == 0
        assert payload["score"] >= 0.25

    def test_set_baseline_resets_window_and_alert(self, registry):
        detector = DriftDetector(
            window_size=8, threshold=0.1, recompute_every=1
        )
        detector.set_baseline(BaselineProfile.from_counts({"a": 1}))
        for _ in range(8):
            detector.observe(["z"])
        assert detector.snapshot()["alerting"] is True
        detector.set_baseline(
            BaselineProfile.from_counts({"z": 1}, generation=3)
        )
        snap = detector.snapshot()
        assert snap["alerting"] is False
        assert snap["window"] == 0
        assert snap["score"] == 0.0
        assert snap["baseline_generation"] == 3
        assert (
            gauge_value(registry, "repro_drift_baseline_generation") == 3.0
        )

    def test_recompute_every_amortizes(self):
        detector = DriftDetector(window_size=32, recompute_every=10)
        detector.set_baseline(BaselineProfile.from_counts({"a": 1, "b": 1}))
        for _ in range(9):
            detector.observe(["z"])
        assert detector.score() == 0.0  # not recomputed yet
        detector.observe(["z"])
        assert detector.score() > 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window_size=0)
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(recompute_every=0)


class TestSLOTracker:
    def test_burn_rates_scale_with_the_objective(self, registry):
        tracker = SLOTracker(
            availability_objective=0.99,
            latency_objective_seconds=0.1,
            latency_target=0.9,
            window_size=100,
        )
        for _ in range(99):
            tracker.observe(False, 0.01)
        tracker.observe(True, 0.5)  # one error, also slow
        snap = tracker.snapshot()
        # 1% errors against a 99% objective burns exactly at rate 1.
        assert snap["availability_burn_rate"] == pytest.approx(1.0)
        # 1% slow against a 10% tolerance burns at 0.1.
        assert snap["latency_burn_rate"] == pytest.approx(0.1)
        assert gauge_value(
            registry, "repro_slo_availability_burn_rate"
        ) == pytest.approx(1.0)

    def test_window_eviction_forgets_old_outcomes(self):
        tracker = SLOTracker(window_size=4)
        for _ in range(4):
            tracker.observe(True, 1.0)
        assert tracker.snapshot()["errors"] == 4
        for _ in range(4):
            tracker.observe(False, 0.0)
        snap = tracker.snapshot()
        assert snap["errors"] == 0
        assert snap["availability_burn_rate"] == 0.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SLOTracker(availability_objective=1.0)
        with pytest.raises(ValueError):
            SLOTracker(latency_target=0.0)
        with pytest.raises(ValueError):
            SLOTracker(latency_objective_seconds=0.0)
        with pytest.raises(ValueError):
            SLOTracker(window_size=0)


class TestQualityMonitor:
    def test_observe_recommend_counts_per_strategy(
        self, registry, recipe_model
    ):
        monitor = QualityMonitor(score_threshold=0.05)
        recommender = GoalRecommender(recipe_model)
        encoded = recipe_model.encode_activity({"potatoes", "carrots"})
        result = recommender.recommend({"potatoes", "carrots"}, k=3)
        monitor.observe_recommend("breadth", recipe_model, encoded, result)
        empty = recommender.recommend({"unknown-action"}, k=3)
        monitor.observe_recommend("breadth", recipe_model, frozenset(), empty)
        snap = monitor.snapshot()
        stats = snap["strategies"]["breadth"]
        assert stats["requests"] == 2
        assert stats["empty"] == 1
        assert stats["last_top_score"] is None  # the empty one came last
        rendered = registry.render()
        assert (
            'repro_quality_requests_total{strategy="breadth"} 2' in rendered
        )
        assert 'repro_quality_empty_total{strategy="breadth"} 1' in rendered

    def test_below_threshold_counting(self, registry, recipe_model):
        monitor = QualityMonitor(score_threshold=10.0)  # everything is below
        recommender = GoalRecommender(recipe_model)
        encoded = recipe_model.encode_activity({"potatoes"})
        result = recommender.recommend({"potatoes"}, k=3)
        monitor.observe_recommend("breadth", recipe_model, encoded, result)
        assert (
            monitor.snapshot()["strategies"]["breadth"]["below_threshold"]
            == 1
        )

    def test_space_size_sampling_is_deterministic(
        self, registry, recipe_model
    ):
        monitor = QualityMonitor(space_sample_every=2)
        recommender = GoalRecommender(recipe_model)
        encoded = recipe_model.encode_activity({"potatoes"})
        result = recommender.recommend({"potatoes"}, k=3)
        for _ in range(4):
            monitor.observe_recommend(
                "breadth", recipe_model, encoded, result
            )
        rendered = registry.render()
        # Observations 2 and 4 were sampled: each records is/gs/as once.
        assert 'repro_quality_space_size_items_count{space="is"} 2' in rendered
        assert 'repro_quality_space_size_items_count{space="gs"} 2' in rendered
        assert 'repro_quality_space_size_items_count{space="as"} 2' in rendered

    def test_space_sizes_come_from_the_engine_over_a_cached_view(
        self, registry, recipe_model
    ):
        """A view with a CSR engine answers the sampled sizes from the
        engine; the numbers match the scalar queries of a bare model."""
        view = CachedModelView(recipe_model)
        encoded = recipe_model.encode_activity({"potatoes", "carrots"})
        result = GoalRecommender(view).recommend({"potatoes", "carrots"}, k=3)
        sums = {}
        for model in (view, recipe_model):
            isolated = MetricsRegistry()
            obs.set_registry(isolated)
            QualityMonitor(space_sample_every=1).observe_recommend(
                "breadth", model, encoded, result
            )
            sums[model is view] = {
                space: isolated.histogram(
                    "repro_quality_space_size_items",
                    buckets=SIZE_BUCKETS,
                    space=space,
                ).sum
                for space in ("is", "gs", "as")
            }
        assert sums[True] == sums[False]
        assert sums[True]["is"] == len(recipe_model.implementation_space(encoded))

    def test_observe_traffic_oov_and_coverage(self, registry, recipe_model):
        monitor = QualityMonitor(window_size=2)
        recommender = GoalRecommender(recipe_model)
        result = recommender.recommend({"potatoes"}, k=3)
        monitor.observe_traffic(
            ["potatoes", "bogus"], recipe_model, result, generation=5
        )
        snap = monitor.snapshot()
        assert snap["oov"] == {"last": 0.5, "mean": 0.5, "requests": 1}
        assert snap["generation"] == 5
        assert snap["coverage"]["catalog_actions"] == 9
        assert snap["coverage"]["covered_actions"] == len(result.items)
        # The coverage window evicts: after two empty results the early
        # recommendations age out.
        empty = recommender.recommend({"bogus"}, k=3)
        monitor.observe_traffic(["bogus"], recipe_model, empty)
        monitor.observe_traffic(["bogus"], recipe_model, empty)
        assert monitor.snapshot()["coverage"]["covered_actions"] == 0

    def test_traffic_feeds_the_drift_window(self, recipe_model):
        drift = DriftDetector(window_size=8, recompute_every=1)
        monitor = QualityMonitor(drift=drift)
        drift.set_baseline(BaselineProfile.from_model(recipe_model))
        recommender = GoalRecommender(recipe_model)
        result = recommender.recommend({"potatoes"}, k=3)
        monitor.observe_traffic(["potatoes"], recipe_model, result)
        assert drift.snapshot()["window"] == 1

    def test_reset_clears_everything(self, recipe_model):
        monitor = QualityMonitor()
        recommender = GoalRecommender(recipe_model)
        result = recommender.recommend({"potatoes"}, k=3)
        monitor.observe_traffic(["potatoes"], recipe_model, result)
        monitor.observe_recommend(
            "breadth",
            recipe_model,
            recipe_model.encode_activity({"potatoes"}),
            result,
        )
        monitor.reset()
        snap = monitor.snapshot()
        assert snap["strategies"] == {}
        assert snap["observations"] == 0
        assert snap["oov"]["requests"] == 0

    def test_set_event_sink_wires_the_drift_detector(self):
        monitor = QualityMonitor()
        events = []
        sink = lambda kind, payload: events.append(kind)  # noqa: E731
        monitor.set_event_sink(sink)
        assert monitor.drift.event_sink is sink

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QualityMonitor(window_size=0)
        with pytest.raises(ValueError):
            QualityMonitor(space_sample_every=0)


class TestRecommenderHook:
    def test_recommend_feeds_the_global_monitor(self, registry, recipe_model):
        obs.enable(metrics=True, tracing=False, quality=True)
        previous = obs.set_quality_monitor(QualityMonitor())
        try:
            recommender = GoalRecommender(recipe_model)
            recommender.recommend({"potatoes"}, k=3)
            snap = obs.get_quality_monitor().snapshot()
            assert snap["strategies"]["breadth"]["requests"] == 1
        finally:
            obs.set_quality_monitor(previous)

    def test_disabled_quality_records_nothing(self, recipe_model):
        obs.disable()
        previous = obs.set_quality_monitor(QualityMonitor())
        try:
            GoalRecommender(recipe_model).recommend({"potatoes"}, k=3)
            assert obs.get_quality_monitor().snapshot()["observations"] == 0
        finally:
            obs.set_quality_monitor(previous)
