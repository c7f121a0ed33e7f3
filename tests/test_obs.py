"""Unit tests for the observability layer (``repro.obs``)."""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.utils.timing import Stopwatch


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# ---------------------------------------------------------------------------
# Counters and gauges
# ---------------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("c_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("c_total").inc(-1)

    def test_label_children_are_independent(self, registry):
        registry.counter("c_total", endpoint="/a").inc()
        registry.counter("c_total", endpoint="/b").inc(2)
        assert registry.counter("c_total", endpoint="/a").value == 1
        assert registry.counter("c_total", endpoint="/b").value == 2

    def test_same_label_set_returns_same_child(self, registry):
        first = registry.counter("c_total", a="1", b="2")
        second = registry.counter("c_total", b="2", a="1")  # order-insensitive
        assert first is second


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_bucketing_is_cumulative_with_inf_tail(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 10.0):
            hist.observe(value)
        # le=1: {0.5, 1.0}; le=2: +{1.5}; le=5: nothing new; +Inf: +{10}.
        assert hist.cumulative_counts() == [2, 3, 3, 4]
        assert hist.count == 4
        assert hist.sum == pytest.approx(13.0)

    def test_boundary_value_falls_in_its_le_bucket(self, registry):
        hist = registry.histogram("h", buckets=(0.01, 0.1))
        hist.observe(0.01)
        assert hist.cumulative_counts()[0] == 1

    def test_bounds_must_increase(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())

    def test_conflicting_bucket_layout_rejected(self, registry):
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="already has buckets"):
            registry.histogram("h", buckets=(3.0,))


# ---------------------------------------------------------------------------
# Registry semantics and exposition format
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_kind_conflict_rejected(self, registry):
        registry.counter("m")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("m")

    def test_label_name_mismatch_rejected(self, registry):
        registry.counter("m", endpoint="/a")
        with pytest.raises(ValueError, match="has labels"):
            registry.counter("m", status="200")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("m", **{"bad-label": "x"})

    def test_render_counter_and_gauge(self, registry):
        registry.counter("req_total", "Requests.", path="/a").inc(3)
        registry.gauge("size", "Library size.").set(7)
        text = registry.render()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{path="/a"} 3' in text
        assert "# TYPE size gauge" in text
        assert "size 7" in text
        assert text.endswith("\n")

    def test_render_histogram_exposition(self, registry):
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0), op="x")
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render()
        assert 'lat_seconds_bucket{op="x",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{op="x",le="1"} 1' in text
        assert 'lat_seconds_bucket{op="x",le="+Inf"} 2' in text
        assert 'lat_seconds_count{op="x"} 2' in text
        assert 'lat_seconds_sum{op="x"}' in text

    def test_label_values_escaped(self, registry):
        registry.counter("m", label='quote " slash \\ newline \n').inc()
        text = registry.render()
        (sample_line,) = [
            line for line in text.splitlines() if line.startswith("m{")
        ]
        # One complete line: quote/backslash/newline all escaped.
        assert sample_line == 'm{label="quote \\" slash \\\\ newline \\n"} 1'

    def test_snapshot_and_reset(self, registry):
        registry.counter("m", a="1").inc(2)
        snap = registry.snapshot()
        assert snap["m"]["kind"] == "counter"
        assert snap["m"]["samples"][(("a", "1"),)] == 2
        registry.reset()
        assert registry.names() == []

    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("m")
        hist = registry.histogram("h", buckets=(1.0,))

        def worker():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert hist.count == 8000

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            assert obs.get_registry() is fresh
        finally:
            obs.set_registry(previous)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracing:
    def test_disabled_trace_span_is_noop(self):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            with obs.trace_span("op", key="value") as span:
                assert span.is_recording is False
                span.set_attr("ignored", 1)  # must not raise
            assert tracer.spans() == []
        finally:
            obs.set_tracer(previous)

    def test_nesting_and_attributes(self):
        tracer = Tracer()
        with tracer.span("parent", a=1) as parent:
            with tracer.span("child") as child:
                child.set_attr("b", 2)
            parent.set_attrs(c=3)
        roots = tracer.spans()
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "parent"
        assert root["attributes"] == {"a": 1, "c": 3}
        assert root["duration_ms"] is not None
        (child_dict,) = root["children"]
        assert child_dict["name"] == "child"
        assert child_dict["attributes"] == {"b": 2}

    def test_export_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        parsed = json.loads(tracer.export_json())
        assert parsed["spans"][0]["name"] == "op"

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kapow")
        (root,) = tracer.spans()
        assert root["attributes"]["error"] == "RuntimeError: kapow"

    def test_reset_and_bound_retention(self):
        tracer = Tracer(max_spans=2)
        for index in range(3):
            with tracer.span(f"op{index}"):
                pass
        names = [span["name"] for span in tracer.spans()]
        assert names == ["op1", "op2"]  # oldest dropped
        tracer.reset()
        assert tracer.spans() == []


def _span_names(span: dict) -> set[str]:
    """All span names in one tree, root included."""
    names = {span["name"]}
    for child in span["children"]:
        names |= _span_names(child)
    return names


class TestRecommendTracing:
    """The acceptance-criterion span tree: strategy name + space sizes."""

    def test_recommend_span_carries_space_sizes(self, figure1_recommender):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        obs.enable(metrics=False, tracing=True, trace_detail=True)
        try:
            figure1_recommender.recommend({"a1"}, k=3, strategy="breadth")
        finally:
            obs.disable()
            obs.set_tracer(previous)
        roots = tracer.spans()
        recommend = next(s for s in roots if s["name"] == "recommend")
        attrs = recommend["attributes"]
        # Paper Example 4.3: a1 reaches p1,p2,p3,p5 -> 4 goals, 6 actions.
        assert attrs["strategy"] == "breadth"
        assert attrs["is_size"] == 4
        assert attrs["gs_size"] == 4
        assert attrs["as_size"] == 6
        assert attrs["candidates"] == 5
        child_names = [child["name"] for child in recommend["children"]]
        assert "rank" in child_names
        rank = recommend["children"][child_names.index("rank")]
        assert rank["attributes"]["strategy"] == "breadth"
        # With trace detail on, the tree carries all four stage spans.
        assert {
            "implementation_space", "goal_space", "action_space", "rank"
        } <= _span_names(recommend)

    @pytest.mark.parametrize(
        "strategy", ["breadth", "focus_cl", "best_match", "breadth_pruned"]
    )
    def test_csr_and_scalar_paths_report_the_same_sizes(
        self, figure1_model, strategy
    ):
        """The CSR path's span is recommend -> rank with the scalar sizes.

        Over a cached view the default recommender ranks in the CSR engine
        (the pruned tier included) and takes the space sizes from it, so
        no space-stage span runs; ``use_csr=False`` keeps the paper's
        IS -> GS -> AS -> rank stages.
        """
        from repro.core import CachedModelView, GoalRecommender

        trees = {}
        for use_csr in (None, False):
            recommender = GoalRecommender(
                CachedModelView(figure1_model), use_csr=use_csr
            )
            tracer = Tracer()
            previous = obs.set_tracer(tracer)
            obs.enable(metrics=False, tracing=True, trace_detail=True)
            try:
                recommender.recommend({"a1", "a4"}, k=3, strategy=strategy)
            finally:
                obs.disable()
                obs.set_tracer(previous)
            (trees[use_csr],) = tracer.spans()
        csr, scalar = trees[None], trees[False]
        size_keys = ("is_size", "gs_size", "as_size", "candidates")
        assert {key: csr["attributes"][key] for key in size_keys} == {
            key: scalar["attributes"][key] for key in size_keys
        }
        assert [child["name"] for child in csr["children"]] == ["rank"]
        assert csr["children"][0]["children"] == []
        assert {
            "implementation_space", "goal_space", "action_space", "rank"
        } <= _span_names(scalar)

    def test_recommend_span_skips_space_sizes_without_detail(
        self, figure1_recommender
    ):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        obs.enable(metrics=False, tracing=True)
        try:
            figure1_recommender.recommend({"a1"}, k=3, strategy="breadth")
        finally:
            obs.disable()
            obs.set_tracer(previous)
        recommend = next(
            s for s in tracer.spans() if s["name"] == "recommend"
        )
        attrs = recommend["attributes"]
        # The space sizes cost three extra index queries; without the
        # trace-detail flag only the cheap attributes are recorded.
        assert attrs["strategy"] == "breadth"
        assert "is_size" not in attrs
        assert "gs_size" not in attrs
        assert attrs["returned"] == 3


class TestRecommendMetrics:
    def test_recommend_records_counter_and_histogram(self, figure1_recommender):
        fresh = MetricsRegistry()
        previous = obs.set_registry(fresh)
        obs.enable(metrics=True, tracing=False)
        try:
            figure1_recommender.recommend({"a1"}, k=3, strategy="breadth")
            figure1_recommender.recommend({"a1"}, k=3, strategy="best_match")
        finally:
            obs.disable()
            obs.set_registry(previous)
        assert fresh.counter(
            "repro_recommend_requests_total", strategy="breadth"
        ).value == 1
        assert fresh.histogram(
            "repro_recommend_latency_seconds", strategy="best_match"
        ).count == 1
        assert fresh.counter(
            "repro_space_queries_total", space="implementation"
        ).value > 0

    def test_disabled_records_nothing(self, figure1_recommender):
        fresh = MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            figure1_recommender.recommend({"a1"}, k=3)
        finally:
            obs.set_registry(previous)
        assert fresh.names() == []


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

class TestStructuredLogs:
    def _configured(self, json_logs):
        stream = io.StringIO()
        logger = obs.configure_logging(
            level="INFO", json_logs=json_logs, stream=stream
        )
        return logger, stream

    def test_json_lines_carry_run_and_request_ids(self):
        logger, stream = self._configured(json_logs=True)
        with obs.request_context("req-123"):
            obs.log_event(logger, "unit.test", answer=42)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "unit.test"
        assert record["answer"] == 42
        assert record["run_id"] == obs.RUN_ID
        assert record["request_id"] == "req-123"
        assert record["level"] == "info"

    def test_text_format_appends_fields(self):
        logger, stream = self._configured(json_logs=False)
        obs.log_event(logger, "unit.test", key="value")
        line = stream.getvalue()
        assert "unit.test" in line and "key=value" in line

    def test_configure_is_idempotent(self):
        obs.configure_logging(level="INFO", stream=io.StringIO())
        obs.configure_logging(level="INFO", stream=io.StringIO())
        root = logging.getLogger("repro")
        installed = [
            h for h in root.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(installed) == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs.configure_logging(level="loud")

    def test_request_context_mints_ids(self):
        assert obs.current_request_id() is None
        with obs.request_context() as rid:
            assert obs.current_request_id() == rid
        assert obs.current_request_id() is None

    def test_below_threshold_events_suppressed(self):
        logger, stream = self._configured(json_logs=True)
        obs.log_event(logger, "debug.event", level=logging.DEBUG)
        assert stream.getvalue() == ""


# ---------------------------------------------------------------------------
# Runtime switches
# ---------------------------------------------------------------------------

class TestRuntimeSwitches:
    def test_enable_is_selective_and_composable(self):
        obs.enable(metrics=True, tracing=False)
        assert obs.metrics_enabled() and not obs.tracing_enabled()
        obs.enable(metrics=False, tracing=True)  # must not clear metrics
        assert obs.metrics_enabled() and obs.tracing_enabled()
        assert obs.is_enabled()
        obs.disable()
        assert not obs.is_enabled()


# ---------------------------------------------------------------------------
# Thread-safe Stopwatch (satellite) and the obs re-export
# ---------------------------------------------------------------------------

class TestStopwatchThreadSafety:
    def test_concurrent_records_all_land(self):
        watch = Stopwatch()

        def worker():
            for _ in range(500):
                watch.record("op", 0.001)
                with watch.measure("measured"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert watch.summary("op").count == 4000
        assert watch.summary("measured").count == 4000

    def test_reexported_from_obs(self):
        assert obs.Stopwatch is Stopwatch
        from repro.utils.timing import TimingSummary, timed

        assert obs.TimingSummary is TimingSummary
        assert obs.timed is timed


# ---------------------------------------------------------------------------
# Version single-sourcing (satellite)
# ---------------------------------------------------------------------------

class TestVersion:
    def test_version_matches_pyproject(self):
        import tomllib
        from pathlib import Path

        import repro

        pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            expected = tomllib.load(handle)["project"]["version"]
        assert repro.__version__ == expected
