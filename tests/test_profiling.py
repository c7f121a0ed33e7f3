"""Unit tests: stage durations and the stage profiler, slow-request log,
cProfile sessions, and the tracer under pressure (bounded buffer,
concurrent producers).
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    STAGES,
    ProfileSession,
    SlowRequestLog,
    StageProfiler,
    stage_durations,
)
from repro.obs.tracing import Tracer


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    yield
    obs.disable()


class TestStageProfiler:
    def test_harvests_every_stage_from_one_tree(self):
        # One request's marks, every stage entered once.
        marks = [(stage, 1_000 * i) for i, stage in enumerate(STAGES)]
        durations = stage_durations(marks, 1_000 * len(STAGES) + 500)
        assert list(durations) == list(STAGES)
        assert durations["write"] == 1_500
        profiler = StageProfiler()
        profiler.observe_span(durations)
        breakdown = profiler.breakdown()
        assert set(breakdown) == set(STAGES)
        assert breakdown["rank"]["count"] == 1
        assert breakdown["rank"]["total_seconds"] == pytest.approx(1e-6)
        assert breakdown["write"]["p50_seconds"] == pytest.approx(1.5e-6)

    def test_sibling_same_name_stages_both_counted(self):
        # A stage entered twice sums both of its intervals into the one
        # request's duration.
        marks = [("parse", 0), ("rank", 10), ("cache", 15), ("rank", 40)]
        assert stage_durations(marks, 100) == {
            "parse": 10, "rank": 65, "cache": 25,
        }
        profiler = StageProfiler()
        profiler.observe_span(stage_durations(marks, 100))
        entry = profiler.breakdown()["rank"]
        assert entry["count"] == 1
        assert entry["total_seconds"] == pytest.approx(65e-9)

    def test_unobserved_stages_report_zeros(self):
        entry = StageProfiler().breakdown()["cache"]
        assert entry == {
            "count": 0,
            "total_seconds": 0.0,
            "mean_seconds": 0.0,
            "p50_seconds": 0.0,
            "p95_seconds": 0.0,
            "p99_seconds": 0.0,
        }

    def test_record_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            StageProfiler().observe_span({"implementation_space": 100})

    def test_reservoir_is_bounded_but_totals_are_lifetime(self):
        profiler = StageProfiler(max_samples=4)
        for i in range(10):
            profiler.observe_span({"rank": i * 1_000_000_000})
        entry = profiler.breakdown()["rank"]
        assert entry["count"] == 10
        assert entry["total_seconds"] == pytest.approx(45.0)
        # Percentiles cover only the recent window (6..9).
        assert entry["p50_seconds"] >= 6.0

    def test_feeds_stage_metrics_when_enabled(self):
        registry = MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            obs.enable(metrics=True)
            profiler = StageProfiler()
            profiler.observe_span({"parse": 50_000_000, "rank": 100_000_000})
            snapshot = registry.snapshot()
            assert snapshot["repro_stage_latency_seconds"]["samples"][
                (("stage", "rank"),)
            ] == {"count": 1, "sum": pytest.approx(0.1)}
            # The occupancy gauge is set only for the stages entered.
            assert snapshot["repro_profiler_samples"]["samples"] == {
                (("stage", "parse"),): 1,
                (("stage", "rank"),): 1,
            }
        finally:
            obs.set_registry(previous)

    def test_reset_clears_everything(self):
        profiler = StageProfiler()
        profiler.observe_span({"rank": 1_000_000_000})
        profiler.reset()
        assert profiler.breakdown()["rank"]["count"] == 0

    def test_invalid_max_samples_rejected(self):
        with pytest.raises(ValueError):
            StageProfiler(max_samples=0)


class TestSlowRequestLog:
    def test_below_threshold_not_logged(self):
        log = SlowRequestLog(size=4, threshold_seconds=0.5)
        assert not log.offer("r1", "/recommend", "POST", 200, 0.1, [])
        assert len(log) == 0

    def test_keeps_the_slowest_not_the_most_recent(self):
        log = SlowRequestLog(size=2, threshold_seconds=0.0)
        log.offer("slowest", "/a", "GET", 200, 3.0, [])
        log.offer("middle", "/b", "GET", 200, 2.0, [])
        assert not log.offer("fast", "/c", "GET", 200, 1.0, [])
        assert log.offer("new-slow", "/d", "GET", 200, 2.5, [])
        ids = [entry["request_id"] for entry in log.snapshot()]
        assert ids == ["slowest", "new-slow"]

    def test_entries_carry_the_span_tree(self):
        log = SlowRequestLog(size=4, threshold_seconds=0.0)
        spans = [{"name": "http.request", "children": []}]
        log.offer("r1", "/recommend", "POST", 200, 0.2, spans)
        entry = log.snapshot()[0]
        assert entry["endpoint"] == "/recommend"
        assert entry["status"] == 200
        assert entry["spans"] == spans

    def test_reset_drops_entries(self):
        log = SlowRequestLog(size=4, threshold_seconds=0.0)
        log.offer("r1", "/a", "GET", 200, 1.0, [])
        log.reset()
        assert log.snapshot() == []

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            SlowRequestLog(size=0)
        with pytest.raises(ValueError):
            SlowRequestLog(threshold_seconds=-1.0)


class TestProfileSession:
    def test_double_start_and_stop_without_start_raise(self):
        session = ProfileSession()
        session.start()
        with pytest.raises(RuntimeError, match="already active"):
            session.start()
        session.stop()
        with pytest.raises(RuntimeError, match="no profile session"):
            session.stop()

    def test_profiled_calls_are_counted_in_the_report(self):
        session = ProfileSession()
        session.start()
        assert session.profile_call(sum, [1, 2, 3]) == 6
        assert session.profile_call(sum, [4]) == 4
        report = session.stop(sort="tottime", limit=5)
        assert report.startswith("# profiled calls: 2\n")
        assert not session.active

    def test_profile_call_without_session_is_a_plain_call(self):
        session = ProfileSession()
        assert session.profile_call(len, "abc") == 3
        assert session.calls == 0


class TestTracerUnderPressure:
    def test_overflow_drops_the_oldest_roots(self):
        tracer = Tracer(max_spans=4)
        previous = obs.set_tracer(tracer)
        try:
            obs.enable(tracing=True)
            for i in range(10):
                with obs.trace_span("req", index=i):
                    pass
            spans = tracer.spans()
            assert len(spans) == 4
            assert tracer.occupancy() == 4
            assert [s["attributes"]["index"] for s in spans] == [6, 7, 8, 9]
        finally:
            obs.set_tracer(previous)

    def test_concurrent_producers_land_every_tree_intact(self):
        threads, per_thread = 8, 50
        tracer = Tracer(max_spans=threads * per_thread)
        previous = obs.set_tracer(tracer)

        def produce(worker):
            for i in range(per_thread):
                with obs.trace_span("req", worker=worker, index=i):
                    with obs.trace_span("child"):
                        pass

        try:
            obs.enable(tracing=True)
            workers = [
                threading.Thread(target=produce, args=(w,))
                for w in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            spans = tracer.spans()
            assert len(spans) == threads * per_thread
            assert tracer.occupancy() == tracer.capacity
            # Nesting is per-thread (contextvars): every root keeps exactly
            # its own child even with eight producers interleaving.
            assert all(
                len(s["children"]) == 1 and s["children"][0]["name"] == "child"
                for s in spans
            )
            seen = {
                (s["attributes"]["worker"], s["attributes"]["index"])
                for s in spans
            }
            assert len(seen) == threads * per_thread
        finally:
            obs.set_tracer(previous)

    def test_occupancy_never_exceeds_capacity_under_concurrent_overflow(self):
        tracer = Tracer(max_spans=16)
        previous = obs.set_tracer(tracer)

        def produce():
            for _ in range(50):
                with obs.trace_span("req"):
                    pass

        try:
            obs.enable(tracing=True)
            workers = [threading.Thread(target=produce) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert tracer.occupancy() == tracer.capacity == 16
            assert len(tracer.spans()) == 16
        finally:
            obs.set_tracer(previous)
