"""The metrics-history layer: deterministic derivation, retention, HTTP.

Unit tests drive :class:`repro.obs.MetricsHistory` with a fake clock and a
private registry, pinning the derived views bit-for-bit: counter families
become clamped rates, gauges report last values, histograms interpolate
window quantiles from cumulative-bucket deltas.  Retention (ring-buffer
eviction, stale-series pruning after a registry reset) and the
frozen-clock idempotence rule are covered, plus a concurrent
capture/read/reset hammer.

Integration tests exercise ``GET /debug/history`` on a live service —
index and family views, query validation, survival across a hot-reload
generation swap (the generation gauge steps visibly inside one window) —
and the ``repro monitor`` CLI in ``--once`` / ``--once --json`` modes.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.history import MAX_GRID_POINTS, MetricsHistory
from repro.obs.metrics import MetricsRegistry
from repro.service import RecommenderService


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def registry():
    return MetricsRegistry()


def make_history(registry, clock, interval=5.0, window=60.0):
    return MetricsHistory(
        interval, window, clock=clock, registry_getter=lambda: registry
    )


# ----------------------------------------------------------------------
# Derivation determinism (fake clock)
# ----------------------------------------------------------------------


class TestCounterRates:
    def test_rates_are_deltas_over_elapsed(self, registry):
        clock = FakeClock(1_000.0)
        history = make_history(registry, clock)
        counter = registry.counter("jobs_total", "test counter")
        counter.inc(0)
        history.capture()
        clock.advance(5.0)
        counter.inc(10)
        history.capture()
        clock.advance(5.0)
        counter.inc(30)
        history.capture()

        result = history.series("jobs_total", window=10.0, step=5.0)
        assert result is not None
        assert result["kind"] == "counter"
        assert result["timestamps"] == [1_000.0, 1_005.0, 1_010.0]
        (series,) = result["series"]
        # No predecessor at the first point; then (10-0)/5 and (40-10)/5.
        assert series["values"] == [None, 2.0, 6.0]

    def test_labelled_children_stay_separate_series(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock)
        registry.counter("ops_total", "test", kind="read").inc(5)
        registry.counter("ops_total", "test", kind="write").inc(1)
        history.capture()
        clock.advance(5.0)
        registry.counter("ops_total", "test", kind="read").inc(5)
        registry.counter("ops_total", "test", kind="write").inc(3)
        history.capture()

        result = history.series("ops_total", window=5.0, step=5.0)
        by_label = {
            series["labels"]["kind"]: series["values"]
            for series in result["series"]
        }
        assert by_label == {
            "read": [None, 1.0],
            "write": [None, 0.6],
        }

    def test_counter_reset_clamps_to_zero_rate(self):
        # A counter that goes backwards (registry reset, process restart)
        # must read as a dip to zero, never a negative rate.
        out = MetricsHistory._rate_series(
            [1_000.0, 1_005.0], [100.0, 40.0], [1_005.0]
        )
        assert out == [0.0]


class TestGaugeSeries:
    def test_last_value_wins_and_gaps_are_none(self, registry):
        clock = FakeClock(1_000.0)
        history = make_history(registry, clock)
        gauge = registry.gauge("depth", "test gauge")
        gauge.set(5.0)
        history.capture()
        clock.advance(5.0)
        gauge.set(7.0)
        history.capture()

        result = history.series("depth", window=15.0, step=5.0)
        (series,) = result["series"]
        # Grid runs 990 → 1005: the two points before the first capture
        # have no data; then the captured values verbatim.
        assert series["values"] == [None, None, 5.0, 7.0]


class TestHistogramQuantiles:
    def test_interpolated_quantiles_from_bucket_deltas(self, registry):
        clock = FakeClock(1_000.0)
        history = make_history(registry, clock)
        histogram = registry.histogram(
            "latency_seconds", "test histogram", buckets=(1.0, 2.0, 4.0)
        )
        history.capture()
        clock.advance(5.0)
        for _ in range(100):
            histogram.observe(0.5)   # bucket <= 1.0
        for _ in range(100):
            histogram.observe(1.5)   # bucket <= 2.0
        history.capture()

        result = history.series(
            "latency_seconds", window=5.0, step=5.0
        )
        assert result["kind"] == "histogram"
        (series,) = result["series"]
        # 200 observations over 5 seconds.
        assert series["count_rate"] == [None, 40.0]
        # Cumulative delta [100, 200, 200, 200]: the median lands exactly
        # at the top of the first bucket, p95 interpolates 90% into the
        # second, p99 98% into it.
        assert series["p50"] == [None, 1.0]
        assert series["p95"] == [None, pytest.approx(1.9)]
        assert series["p99"] == [None, pytest.approx(1.98)]

    def test_overflow_reports_highest_finite_bound(self):
        # Everything in +Inf: the quantile saturates at the last bound.
        assert obs.histogram_quantile(0.5, [0.0, 0.0, 5.0], (1.0, 2.0)) == 2.0

    def test_empty_window_is_none(self):
        assert obs.histogram_quantile(0.5, [], (1.0,)) is None
        assert obs.histogram_quantile(0.5, [0.0, 0.0], (1.0,)) is None


# ----------------------------------------------------------------------
# Capture semantics: idempotence, retention, pruning
# ----------------------------------------------------------------------


class TestCaptureSemantics:
    def test_frozen_clock_replaces_newest_point(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock)
        counter = registry.counter("ticks_total", "test")
        counter.inc(1)
        history.capture()
        counter.inc(1)
        history.capture()  # same timestamp: replace, not append
        index = history.index()
        assert index["captures"] == 2
        assert index["families"]["ticks_total"]["points"] == 1
        # And rate derivation never divides by the zero-width interval.
        result = history.series("ticks_total", window=5.0, step=5.0)
        assert result["series"][0]["values"] == [None, None]

    def test_ring_buffer_retention_is_window_over_interval(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock, interval=1.0, window=5.0)
        assert history.capacity == 6
        gauge = registry.gauge("depth", "test")
        for tick in range(10):
            gauge.set(float(tick))
            history.capture()
            clock.advance(1.0)
        index = history.index()
        assert index["families"]["depth"]["points"] == 6
        assert index["capacity_points_per_series"] == 6

    def test_vanished_family_is_pruned_after_window(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock, interval=5.0, window=20.0)
        registry.counter("doomed_total", "test").inc(1)
        history.capture()
        assert "doomed_total" in history.families()
        registry.reset()  # the family vanishes; no new points arrive
        for _ in range(6):
            clock.advance(5.0)
            history.capture()
        assert "doomed_total" not in history.families()
        assert history.index()["memory_bytes_estimate"] == 0

    def test_memory_estimate_follows_documented_constants(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock)
        registry.gauge("depth", "test").set(1.0)
        registry.histogram(
            "lat_seconds", "test", buckets=(1.0, 2.0)
        ).observe(0.5)
        history.capture()
        # One scalar point (120 B) + one histogram point
        # (200 B + 32 B × 3 buckets incl. +Inf) — docs/monitoring.md math.
        assert history.index()["memory_bytes_estimate"] == 120 + 200 + 32 * 3


class TestQueryValidation:
    def test_unknown_family_is_none(self, registry):
        history = make_history(registry, FakeClock())
        history.capture()
        assert history.series("nope_total") is None

    def test_explicit_step_overflowing_grid_raises(self, registry):
        history = make_history(registry, FakeClock(), interval=1.0,
                               window=10.0)
        with pytest.raises(ValueError, match="grid points"):
            history.series("x", window=10_000.0, step=0.001)

    def test_default_step_auto_coarsens_instead_of_raising(self, registry):
        clock = FakeClock()
        history = make_history(registry, clock, interval=0.01, window=900.0)
        registry.gauge("depth", "test").set(1.0)
        history.capture()
        result = history.series("depth")  # 90 001 raw points: must coarsen
        assert len(result["timestamps"]) <= MAX_GRID_POINTS

    def test_nonpositive_window_or_step_raises(self, registry):
        history = make_history(registry, FakeClock())
        with pytest.raises(ValueError):
            history.series("x", window=0.0)
        with pytest.raises(ValueError):
            history.series("x", step=-1.0)

    def test_bad_construction_raises(self):
        with pytest.raises(ValueError):
            MetricsHistory(0.0, 60.0)
        with pytest.raises(ValueError):
            MetricsHistory(10.0, 5.0)  # window shorter than interval


class TestConcurrency:
    def test_concurrent_capture_read_reset(self, registry):
        history = MetricsHistory(
            0.001, 1.0, registry_getter=lambda: registry
        )
        counter = registry.counter("hammer_total", "test")
        gauge = registry.gauge("hammer_depth", "test")
        stop = threading.Event()
        errors: list[BaseException] = []

        def guard(fn):
            def run():
                while not stop.is_set():
                    try:
                        fn()
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
            return run

        def write():
            counter.inc(1)
            gauge.set(time.time() % 100)
            history.capture()

        def read():
            history.index()
            history.families()
            history.series("hammer_total", window=1.0, step=0.05)

        threads = [
            threading.Thread(target=guard(write)),
            threading.Thread(target=guard(write)),
            threading.Thread(target=guard(read)),
            threading.Thread(target=guard(read)),
            threading.Thread(target=guard(history.reset)),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(5.0)
        assert not errors, errors

    def test_start_stop_lifecycle_is_idempotent(self, registry):
        history = MetricsHistory(
            0.01, 1.0, registry_getter=lambda: registry
        )
        registry.gauge("depth", "test").set(1.0)
        history.start()
        history.start()  # no second thread
        deadline = time.monotonic() + 5.0
        while history.index()["captures"] < 3:
            assert time.monotonic() < deadline, "capture loop never ticked"
            time.sleep(0.01)
        history.stop()
        history.stop()
        captures = history.index()["captures"]
        time.sleep(0.05)
        assert history.index()["captures"] == captures  # loop really dead


# ----------------------------------------------------------------------
# HTTP integration: /debug/history on a live service
# ----------------------------------------------------------------------


PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]


@pytest.fixture
def service(request):
    """A live service capturing history every 50 ms into a private registry."""
    previous_registry = obs.set_registry(MetricsRegistry())
    model = AssociationGoalModel.from_pairs(PAIRS)
    server = RecommenderService(
        model, port=0, history_interval_seconds=0.05,
        history_window_seconds=30.0,
    ).start()

    def teardown():
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)

    request.addfinalizer(teardown)
    return server


def call(service, path, payload=None, method=None, headers=None):
    url = f"http://127.0.0.1:{service.port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    request_headers = dict(headers or {})
    if data is not None:
        request_headers.setdefault("Content-Type", "application/json")
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers=request_headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
            parsed = (
                json.loads(raw) if content_type.startswith("application/json")
                else raw.decode("utf-8")
            )
            return response.status, parsed, dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def wait_for(fetch, predicate, timeout=5.0):
    """Poll until ``predicate(fetch())``; request accounting runs after the
    response is written, so history/trace reads must tolerate a beat."""
    deadline = time.monotonic() + timeout
    while True:
        value = fetch()
        if predicate(value):
            return value
        if time.monotonic() >= deadline:
            return value
        time.sleep(0.02)


class TestDebugHistoryEndpoint:
    def test_index_shape(self, service):
        status, body, _ = wait_for(
            lambda: call(service, "/debug/history"),
            lambda result: result[1].get("captures", 0) >= 2,
        )
        assert status == 200
        assert body["enabled"] is True
        assert body["interval_seconds"] == 0.05
        assert body["window_seconds"] == 30.0
        assert (
            body["capacity_points_per_series"] == service.history.capacity
        )
        assert body["memory_bytes_estimate"] > 0
        assert body["families"]  # the service's own gauges at minimum
        sample = next(iter(body["families"].values()))
        assert set(sample) == {"kind", "series", "points"}

    def test_family_series_after_traffic(self, service):
        status, _, _ = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        assert status == 200

        def fetch():
            return call(
                service,
                "/debug/history?family=repro_http_requests_total&window=10",
            )

        status, body, _ = wait_for(
            fetch,
            lambda result: result[0] == 200 and any(
                value for series in result[1].get("series", ())
                for value in series["values"] if value
            ),
        )
        assert status == 200
        assert body["kind"] == "counter"
        for series in body["series"]:
            assert len(series["values"]) == len(body["timestamps"])
            assert set(series["labels"]) == {"endpoint", "method", "status"}

    def test_histogram_family_renders_quantiles(self, service):
        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        status, body, _ = wait_for(
            lambda: call(
                service,
                "/debug/history?family=repro_http_request_seconds&window=10",
            ),
            lambda result: result[0] == 200,
        )
        assert status == 200
        assert body["kind"] == "histogram"
        for series in body["series"]:
            assert {"labels", "count_rate", "p50", "p95", "p99"} <= set(series)

    def test_query_validation(self, service):
        status, body, _ = call(
            service, "/debug/history?family=x&window=abc"
        )
        assert status == 400
        assert "window" in body["error"]
        status, body, _ = call(
            service, "/debug/history?family=x&window=9000&step=0.0001"
        )
        assert status == 400
        assert "grid points" in body["detail"]
        status, body, _ = wait_for(
            lambda: call(service, "/debug/history?family=no_such_family"),
            lambda result: result[0] == 404,
        )
        assert status == 404
        assert isinstance(body["detail"]["families"], list)

    def test_method_not_allowed(self, service):
        status, _, headers = call(
            service, "/debug/history", method="DELETE"
        )
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"

    def test_history_self_metrics_are_exported(self, service):
        _, text, _ = wait_for(
            lambda: call(service, "/metrics"),
            lambda result: "repro_history_snapshots_total" in result[1],
        )
        assert "repro_history_snapshots_total" in text
        assert "repro_history_series" in text
        assert "repro_history_points" in text
        assert "repro_history_capture_seconds_bucket" in text

    def test_debug_vars_carries_the_index(self, service):
        _, body, _ = call(service, "/debug/vars")
        assert body["history"]["enabled"] is True
        assert body["history"]["interval_seconds"] == 0.05

    def test_series_survive_generation_swap(self, service):
        """A hot-reload steps the generation gauge inside one window."""
        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        family = "/debug/history?family=repro_quality_model_generation"
        _, before, _ = wait_for(
            lambda: call(service, family + "&window=20"),
            lambda result: result[0] == 200,
        )
        status, _, _ = call(
            service, "/model/implementations",
            {"implementations": [{"goal": "soup", "actions": ["leek"]}]},
            method="PUT",
        )
        assert status == 200
        call(service, "/recommend", {"activity": ["leek"], "k": 3})

        def levels(result):
            if result[0] != 200:
                return set()
            return {
                value
                for series in result[1]["series"]
                for value in series["values"]
                if value is not None
            }

        status, body, _ = wait_for(
            lambda: call(service, family + "&window=20"),
            lambda result: {0.0, 1.0} <= levels(result),
        )
        assert {0.0, 1.0} <= levels((status, body, None)), (
            "generation step never surfaced in the history window"
        )
        assert before["kind"] == "gauge"


class TestHistoryDisabled:
    def test_disabled_service_reports_and_still_serves(self):
        previous_registry = obs.set_registry(MetricsRegistry())
        model = AssociationGoalModel.from_pairs(PAIRS)
        server = RecommenderService(
            model, port=0, history_window_seconds=0
        ).start()
        try:
            status, body, _ = call(server, "/debug/history")
            assert (status, body) == (200, {"enabled": False})
            _, vars_body, _ = call(server, "/debug/vars")
            assert vars_body["history"] == {"enabled": False}
        finally:
            server.stop()
            obs.disable()
            obs.set_registry(previous_registry)


# ----------------------------------------------------------------------
# The repro monitor CLI against a live server
# ----------------------------------------------------------------------


class TestMonitorCli:
    def test_once_json_snapshot(self, service, capsys):
        from repro.cli import main

        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        wait_for(
            lambda: call(service, "/debug/history"),
            lambda result: result[1].get("captures", 0) >= 2,
        )
        url = f"http://127.0.0.1:{service.port}"
        exit_code = main(["monitor", "--once", "--json", "--url", url])
        assert exit_code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) >= {
            "url", "ts", "rps", "latency", "stages", "cache",
            "resilience", "drift", "slo", "history",
        }
        assert snapshot["history"]["captures"] >= 2
        assert snapshot["cache"]["hits"] + snapshot["cache"]["misses"] >= 1
        assert snapshot["drift"]["alerting"] is False
        assert "availability_burn_rate" in snapshot["slo"]

    def test_once_renders_a_frame(self, service, capsys):
        from repro.cli import main

        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        url = f"http://127.0.0.1:{service.port}"
        exit_code = main(["monitor", "--once", "--url", url])
        assert exit_code == 0
        frame = capsys.readouterr().out
        assert "repro monitor" in frame
        assert "rps" in frame
        assert "drift" in frame
        assert "history" in frame

    def test_once_against_dead_server_fails(self, capsys):
        from repro.cli import main

        exit_code = main(
            ["monitor", "--once", "--url", "http://127.0.0.1:1"]
        )
        assert exit_code == 1
        assert "cannot poll" in capsys.readouterr().out

    def test_sparkline_helper(self):
        from repro.obs.console import sparkline

        assert sparkline([]) == ""
        assert sparkline([None, None]) == "··"
        line = sparkline([0.0, 1.0, 2.0, None, 4.0])
        assert len(line) == 5
        assert line[3] == "·"
        assert line[4] == "█"

    def test_parse_metrics_sums_families(self):
        from repro.obs.console import parse_metrics

        text = (
            "# HELP x help\n"
            "# TYPE x counter\n"
            'x_total{a="1"} 2\n'
            'x_total{a="2"} 3\n'
            "lat_seconds_bucket{le=\"1\"} 9\n"
            "lat_seconds_count 4\n"
        )
        totals = parse_metrics(text)
        assert totals["x_total"] == 5.0
        assert "lat_seconds_bucket" not in totals
        assert totals["lat_seconds_count"] == 4.0
