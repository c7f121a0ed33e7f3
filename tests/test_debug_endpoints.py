"""Integration tests: the service's debug surface and OpenMetrics scrape.

Covers the debug surface end to end: a slow request shows up in
``GET /debug/slow`` with its full span tree (and a fast one is never
serialized); ``GET /debug/vars`` reports span-buffer occupancy and the per-stage
breakdown; the ``/debug/profile`` lifecycle answers 409/404/400 on misuse;
and ``GET /metrics`` under ``Accept: application/openmetrics-text`` emits
a valid OpenMetrics 1.0 exposition whose histogram buckets carry
request-id exemplars (validated by a hand-written grammar checker — the
environment has no prometheus_client to parse with).
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import STAGES, StageProfiler
from repro.obs.tracing import Span, Tracer
from repro.service import RecommenderService


@pytest.fixture
def service(request):
    """A service with a zero slow-threshold so every request is logged."""
    return _start_service(request, slow_threshold_seconds=0.0)


def _start_service(request, slow_threshold_seconds):
    registry = MetricsRegistry()
    tracer = Tracer()
    profiler = StageProfiler()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    previous_profiler = obs.set_profiler(profiler)
    model = AssociationGoalModel.from_pairs(
        [
            ("olivier salad", {"potatoes", "carrots", "pickles"}),
            ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
            ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
        ]
    )
    server = RecommenderService(
        model, port=0, slow_threshold_seconds=slow_threshold_seconds
    ).start()

    def teardown():
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)
        obs.set_profiler(previous_profiler)

    request.addfinalizer(teardown)
    return server


def call(service, path, payload=None, method=None, headers=None):
    """Return ``(status, body, response_headers)`` for one request."""
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
        with urllib.request.urlopen(request, timeout=5) as response:
            raw = response.read()
            parsed = (
                json.loads(raw)
                if response.headers.get("Content-Type", "").startswith(
                    "application/json"
                )
                else raw.decode("utf-8")
            )
            return response.status, parsed, dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def span_names(span):
    """Every span name in one tree, preorder."""
    yield span["name"]
    for child in span["children"]:
        yield from span_names(child)


def wait_for(fetch, predicate, timeout=5.0):
    """Poll ``fetch()`` until ``predicate`` accepts it; return the value.

    The service writes its response *before* the handler thread closes the
    request's root span and runs the slow-log/profiler accounting, so a
    client can observe its own response a moment before the introspection
    surfaces it — the follow-up read has to poll briefly.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = fetch()
        if predicate(value):
            return value
        if time.monotonic() >= deadline:
            return value
        time.sleep(0.01)


class TestDebugSlow:
    def test_slow_request_carries_full_span_tree(self, service):
        status, _, headers = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        assert status == 200
        request_id = headers["X-Request-Id"]

        body = wait_for(
            lambda: call(service, "/debug/slow")[1],
            lambda b: any(
                e["request_id"] == request_id for e in b["requests"]
            ),
        )
        assert body["threshold_seconds"] == 0.0
        by_id = {entry["request_id"]: entry for entry in body["requests"]}
        entry = by_id[request_id]
        assert entry["endpoint"] == "/recommend"
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["seconds"] >= 0
        (root,) = entry["spans"]
        assert root["name"] == "http.request"
        assert root["attributes"]["status"] == 200
        # The served read is CSR-routed: the whole tree is
        # http.request -> recommend -> rank, and the recommend span
        # carries the trace-detail space sizes from the engine.
        assert list(span_names(root)) == ["http.request", "recommend", "rank"]
        attrs = root["children"][0]["attributes"]
        assert (
            attrs["is_size"], attrs["gs_size"], attrs["as_size"],
            attrs["candidates"],
        ) == (2, 2, 5, 4)

    def test_log_is_ordered_slowest_first(self, service):
        for _ in range(3):
            call(service, "/health")
        body = wait_for(
            lambda: call(service, "/debug/slow")[1],
            lambda b: len(b["requests"]) >= 3,
        )
        seconds = [entry["seconds"] for entry in body["requests"]]
        assert seconds == sorted(seconds, reverse=True)
        assert body["count"] == len(body["requests"])

    def test_debug_routes_are_not_logged_as_slow(self, service):
        call(service, "/debug/vars")
        _, body, _ = call(service, "/debug/slow")
        endpoints = {entry["endpoint"] for entry in body["requests"]}
        # /debug/* requests themselves go through the same accounting...
        # but the introspection traffic must not hide real requests: the
        # log keeps the slowest, and all entries carry full span trees.
        for entry in body["requests"]:
            assert entry["spans"][0]["name"] == "http.request"
        assert "/debug/slow" not in endpoints  # the snapshot precedes itself


class TestSlowLogSerialization:
    def test_fast_request_never_serializes_its_span_tree(
        self, request, monkeypatch
    ):
        fast = _start_service(request, slow_threshold_seconds=60.0)
        serialized = []
        to_dict = Span.to_dict

        def counting_to_dict(span):
            serialized.append(span.name)
            return to_dict(span)

        monkeypatch.setattr(Span, "to_dict", counting_to_dict)
        status, _, _ = call(fast, "/recommend", {"activity": ["potatoes"]})
        assert status == 200
        # The handler records the request after the response is written;
        # wait for it to leave the in-flight count.
        assert wait_for(lambda: fast.inflight_requests, lambda n: n == 0) == 0
        assert serialized == []
        _, body, _ = call(fast, "/debug/slow")
        assert body["requests"] == []


class TestDebugVars:
    def test_snapshot_shape_and_stage_breakdown(self, service):
        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        body = wait_for(
            lambda: call(service, "/debug/vars")[1],
            lambda b: b["stages"]["rank"]["count"] >= 1,
        )
        for key in (
            "version", "uptime_seconds", "generation", "implementations",
            "inflight_requests", "caches", "span_buffer", "slow_log",
            "profile", "stages", "flags", "telemetry",
        ):
            assert key in body, f"missing {key}"
        assert body["implementations"] == 3
        assert body["generation"] == 0
        # The /debug/vars request itself is in flight while the snapshot
        # is taken.
        assert body["inflight_requests"] >= 1
        assert set(body["stages"]) == set(STAGES)
        assert body["stages"]["rank"]["count"] >= 1
        assert body["stages"]["rank"]["p95_seconds"] >= 0
        assert body["flags"] == {
            "metrics": True, "tracing": True,
            "exemplars": True, "trace_detail": True, "quality": True,
        }
        # No --telemetry-dir on this fixture: the recorder is off, and the
        # span buffer reports its dropped count alongside occupancy.
        assert body["telemetry"] == {"enabled": False}
        assert body["span_buffer"]["dropped"] == 0

    def test_span_buffer_occupancy_tracks_traffic(self, service):
        _, before, _ = call(service, "/debug/vars")
        for _ in range(5):
            call(service, "/health")
        after = wait_for(
            lambda: call(service, "/debug/vars")[1],
            lambda b: (
                b["span_buffer"]["occupancy"]
                >= before["span_buffer"]["occupancy"] + 5
            ),
        )
        assert after["span_buffer"]["capacity"] == before["span_buffer"]["capacity"]
        assert (
            after["span_buffer"]["occupancy"]
            >= before["span_buffer"]["occupancy"] + 5
        )
        assert after["span_buffer"]["occupancy"] <= after["span_buffer"]["capacity"]


class TestDebugProfile:
    def test_lifecycle_with_conflict_and_missing(self, service):
        status, body, _ = call(service, "/debug/profile", method="POST")
        assert (status, body) == (200, {"profiling": True})

        status, body, _ = call(service, "/debug/profile", method="POST")
        assert status == 409
        assert set(body) == {"error", "detail"}

        _, vars_body, _ = call(service, "/debug/vars")
        assert vars_body["profile"]["active"] is True

        call(service, "/recommend", {"activity": ["carrots"], "k": 2})
        status, report, _ = call(
            service, "/debug/profile?sort=tottime&limit=10", method="DELETE"
        )
        assert status == 200
        assert report.startswith("# profiled calls:")

        status, body, _ = call(service, "/debug/profile", method="DELETE")
        assert status == 404
        assert set(body) == {"error", "detail"}

    def test_stop_with_bad_query_is_400(self, service):
        call(service, "/debug/profile", method="POST")
        status, body, _ = call(
            service, "/debug/profile?sort=bogus", method="DELETE"
        )
        assert status == 400
        status, body, _ = call(
            service, "/debug/profile?limit=0", method="DELETE"
        )
        assert status == 400
        # The session survived both rejected stops.
        status, _, _ = call(service, "/debug/profile", method="DELETE")
        assert status == 200

    def test_profile_active_gauge_follows_the_session(self, service):
        call(service, "/debug/profile", method="POST")
        _, text, _ = call(service, "/metrics")
        assert "repro_profile_active 1" in text
        call(service, "/debug/profile", method="DELETE")
        _, text, _ = call(service, "/metrics")
        assert "repro_profile_active 0" in text


# ----------------------------------------------------------------------
# OpenMetrics validity
# ----------------------------------------------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\}"
_NUMBER = r"(?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|\+Inf|-Inf|NaN)"
_SAMPLE_LINE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})(?P<labels>{_LABELS})? (?P<value>{_NUMBER})"
    rf"(?P<exemplar> # \{{trace_id=\"[^\"]*\"\}} {_NUMBER} {_NUMBER})?$"
)
_TYPE_LINE = re.compile(
    rf"^# TYPE (?P<name>{_METRIC_NAME}) (?P<kind>counter|gauge|histogram)$"
)
_HELP_LINE = re.compile(rf"^# HELP (?P<name>{_METRIC_NAME}) .*$")


def parse_openmetrics(text):
    """Validate an OpenMetrics 1.0 exposition; return the parsed samples.

    A deliberately strict hand-written checker (no prometheus_client in
    this environment): every line must be a TYPE/HELP line, a sample line,
    or the final ``# EOF``; samples must belong to a declared family;
    exemplars may only ride on histogram ``_bucket`` samples.
    """
    lines = text.split("\n")
    assert lines[-1] == "", "exposition must end with a newline"
    lines = lines[:-1]
    assert lines[-1] == "# EOF", "OpenMetrics must terminate with # EOF"
    families = {}
    samples = []
    for line in lines[:-1]:
        type_match = _TYPE_LINE.match(line)
        if type_match:
            name = type_match.group("name")
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = type_match.group("kind")
            continue
        if _HELP_LINE.match(line):
            assert _HELP_LINE.match(line).group("name") in families, (
                f"HELP before TYPE: {line!r}"
            )
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed OpenMetrics line: {line!r}"
        name = match.group("name")
        family = next(
            (
                declared
                for declared in families
                if name == declared
                or name.startswith(declared + "_")
            ),
            None,
        )
        assert family is not None, f"sample {name!r} has no TYPE metadata"
        kind = families[family]
        if match.group("exemplar"):
            assert kind == "histogram" and name.endswith("_bucket"), (
                f"exemplar on non-bucket sample: {line!r}"
            )
        if kind == "histogram" and name.endswith("_bucket"):
            assert 'le="' in (match.group("labels") or ""), (
                f"bucket without le label: {line!r}"
            )
        samples.append(
            (name, match.group("labels") or "", match.group("value"),
             match.group("exemplar"))
        )
    return families, samples


class TestOpenMetricsScrape:
    def test_negotiated_exposition_is_valid_and_carries_exemplars(
        self, service
    ):
        request_id = "exemplar-test-0001"
        status, _, _ = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3},
            headers={"X-Request-Id": request_id},
        )
        assert status == 200

        def bucket_has_exemplar(result):
            # The request's own latency is recorded *after* its response is
            # written, so poll until the http histogram's bucket carries
            # this request's exemplar (the id may surface earlier on the
            # recommend-latency histogram, observed mid-request).
            return any(
                line.startswith("repro_http_request_seconds_bucket")
                and f'trace_id="{request_id}"' in line
                for line in result[1].splitlines()
            )

        status, text, headers = wait_for(
            lambda: call(
                service, "/metrics",
                headers={"Accept": "application/openmetrics-text"},
            ),
            bucket_has_exemplar,
        )
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )
        families, samples = parse_openmetrics(text)
        assert families["repro_http_request_seconds"] == "histogram"
        # Counter metadata drops the _total suffix per the spec.
        assert "repro_http_requests" in families
        exemplar_samples = [
            (name, labels, exemplar)
            for name, labels, _value, exemplar in samples
            if exemplar is not None
        ]
        assert exemplar_samples, "no exemplars rendered"
        assert any(
            name == "repro_http_request_seconds_bucket"
            and f'trace_id="{request_id}"' in exemplar
            for name, _labels, exemplar in exemplar_samples
        ), "the recommend request's id never surfaced as an exemplar"

    def test_default_scrape_stays_prometheus_0_0_4(self, service):
        call(service, "/recommend", {"activity": ["potatoes"], "k": 3})
        status, text, headers = call(service, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# EOF" not in text
        assert "# {" not in text  # exemplars are OpenMetrics-only

    def test_quality_families_are_valid_openmetrics(self, service):
        status, _, _ = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        assert status == 200
        status, text, _ = wait_for(
            lambda: call(
                service, "/metrics",
                headers={"Accept": "application/openmetrics-text"},
            ),
            lambda result: "repro_slo_availability_burn_rate" in result[1],
        )
        assert status == 200
        families, _samples = parse_openmetrics(text)
        # Counter metadata drops the _total suffix per the spec.
        assert families["repro_quality_requests"] == "counter"
        assert families["repro_quality_top_score"] == "histogram"
        assert families["repro_quality_oov_ratio"] == "histogram"
        assert families["repro_quality_catalog_coverage_ratio"] == "gauge"
        assert families["repro_quality_model_generation"] == "gauge"
        assert families["repro_drift_score"] == "gauge"
        assert families["repro_drift_alert"] == "gauge"
        assert families["repro_drift_baseline_generation"] == "gauge"
        assert families["repro_slo_availability_burn_rate"] == "gauge"
        assert families["repro_slo_latency_burn_rate"] == "gauge"


class TestDebugQuality:
    def test_snapshot_shape_after_traffic(self, service):
        status, _, _ = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        assert status == 200
        body = wait_for(
            lambda: call(service, "/debug/quality")[1],
            lambda b: b["quality"]["oov"]["requests"] >= 1,
        )
        assert set(body) == {"quality", "slo", "telemetry"}
        quality = body["quality"]
        assert quality["strategies"]["breadth"]["requests"] >= 1
        assert quality["strategies"]["breadth"]["empty"] == 0
        assert quality["oov"]["last"] == 0.0
        assert quality["coverage"]["covered_actions"] >= 1
        assert quality["coverage"]["catalog_actions"] == 6
        drift = quality["drift"]
        assert drift["baseline_generation"] == 0
        assert drift["baseline_actions"] == 6
        assert drift["alerting"] is False
        slo = body["slo"]
        assert slo["errors"] == 0
        assert slo["availability_burn_rate"] == 0.0
        assert body["telemetry"] == {"enabled": False}

    def test_oov_and_generation_track_traffic(self, service):
        call(
            service, "/recommend",
            {"activity": ["potatoes", "no-such-action"], "k": 3},
        )
        body = wait_for(
            lambda: call(service, "/debug/quality")[1],
            lambda b: b["quality"]["oov"]["last"] > 0,
        )
        assert body["quality"]["oov"]["last"] == 0.5
        # A hot-reload bumps the generation and refreezes the baseline.
        call(
            service, "/model/implementations",
            {"implementations": [{"goal": "soup", "actions": ["water"]}]},
            method="PUT",
        )
        call(service, "/recommend", {"activity": ["water"], "k": 3})
        body = wait_for(
            lambda: call(service, "/debug/quality")[1],
            lambda b: b["quality"]["generation"] == 1,
        )
        assert body["quality"]["drift"]["baseline_generation"] == 1
        assert body["quality"]["drift"]["baseline_actions"] == 7

    def test_method_not_allowed(self, service):
        status, body, headers = call(
            service, "/debug/quality", method="DELETE"
        )
        assert status == 405
        assert set(body) == {"error", "detail"}
        assert headers["Allow"] == "GET, HEAD"


class TestTelemetryService:
    def test_recorder_surfaces_in_debug_and_metrics(self, tmp_path):
        registry = MetricsRegistry()
        previous_registry = obs.set_registry(registry)
        model = AssociationGoalModel.from_pairs(
            [("olivier salad", {"potatoes", "carrots", "pickles"})]
        )
        server = RecommenderService(
            model, port=0, telemetry_dir=tmp_path, telemetry_sample_rate=1.0
        ).start()
        try:
            status, _, _ = call(
                server, "/recommend", {"activity": ["potatoes"], "k": 2}
            )
            assert status == 200
            body = wait_for(
                lambda: call(server, "/debug/quality")[1],
                lambda b: b["telemetry"]["enqueued"] >= 1,
            )
            telemetry = body["telemetry"]
            assert telemetry["directory"] == str(tmp_path)
            assert telemetry["sample_rate"] == 1.0
            assert telemetry["enqueued"] >= 1
            _, vars_body, _ = call(server, "/debug/vars")
            assert vars_body["telemetry"]["directory"] == str(tmp_path)
            assert server.recorder.flush()
            status, text, _ = call(
                server, "/metrics",
                headers={"Accept": "application/openmetrics-text"},
            )
            families, _samples = parse_openmetrics(text)
            assert families["repro_telemetry_records"] == "counter"
            assert families["repro_telemetry_backlog"] == "gauge"
        finally:
            server.stop()
            obs.disable()
            obs.set_registry(previous_registry)
        records = list(obs.iter_telemetry_records(tmp_path))
        assert any(r["kind"] == "request" for r in records)
        # stop() closed the recorder; a second close must be a no-op.
        server.recorder.close()
