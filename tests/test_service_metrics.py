"""Integration tests: the service's observability surface.

Covers ``GET /metrics`` reflecting traffic against the JSON endpoints
(including error counts on bad bodies), the ``X-Request-Id`` echo, the
uniform ``{"error", "detail"}`` envelope, 405 handling on known routes, and
the enriched ``/health`` payload.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.service import RecommenderService


@pytest.fixture
def service(request):
    """A service writing into a fresh process-wide registry and tracer."""
    registry = MetricsRegistry()
    tracer = Tracer()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    model = AssociationGoalModel.from_pairs(
        [
            ("olivier salad", {"potatoes", "carrots", "pickles"}),
            ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
            ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
        ]
    )
    server = RecommenderService(model, port=0).start()

    def teardown():
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)

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


def scrape_until(service, needle, timeout=5.0):
    """Poll ``/metrics`` until ``needle`` appears; return the final text.

    Request accounting deliberately runs *after* the response is written
    (the recorded status must cover write failures), so a scrape issued
    right after a request returns can land before that request's counters
    do.  Polling absorbs the handoff without weakening the assertions —
    the settled exposition is still checked exactly.
    """
    deadline = time.monotonic() + timeout
    while True:
        status, text, headers = call(service, "/metrics")
        assert status == 200
        if needle in text or time.monotonic() >= deadline:
            assert needle in text
            return text, headers


class TestMetricsEndpoint:
    def test_metrics_reflect_recommend_traffic(self, service):
        for _ in range(3):
            status, _, _ = call(
                service, "/recommend",
                {"activity": ["potatoes", "carrots"], "k": 3},
            )
            assert status == 200
        text, headers = scrape_until(
            service,
            'repro_http_requests_total{endpoint="/recommend",'
            'method="POST",status="200"} 3',
        )
        assert headers["Content-Type"].startswith("text/plain")
        # The three identical requests collapse onto one core ranking pass:
        # the first misses the recommendation LRU, the other two hit it.
        assert (
            'repro_recommend_latency_seconds_count{strategy="breadth"} 1'
            in text
        )
        assert 'repro_recommend_latency_seconds_bucket{strategy="breadth"' in text
        assert 'repro_recommend_requests_total{strategy="breadth"} 1' in text
        assert 'repro_cache_misses_total{cache="recommendations"} 1' in text
        assert 'repro_cache_hits_total{cache="recommendations"} 2' in text
        assert 'repro_cache_lookup_seconds_count{cache="recommendations"} 3' in text

    def test_metrics_count_errors_on_bad_bodies(self, service):
        url = f"http://127.0.0.1:{service.port}/recommend"
        request = urllib.request.Request(url, data=b"{broken", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        excinfo.value.read()
        status, _, _ = call(service, "/recommend", {"k": 3})  # no activity
        assert status == 400
        scrape_until(
            service,
            'repro_http_errors_total{endpoint="/recommend",status="400"} 2',
        )

    def test_unknown_paths_grouped_under_unknown(self, service):
        call(service, "/nope")
        scrape_until(
            service,
            'repro_http_errors_total{endpoint="<unknown>",status="404"} 1',
        )

    def test_metrics_scrape_counts_itself(self, service):
        call(service, "/metrics")
        scrape_until(
            service,
            'repro_http_requests_total{endpoint="/metrics",'
            'method="GET",status="200"}',
        )


class TestRequestId:
    def test_client_request_id_echoed(self, service):
        _, _, headers = call(
            service, "/health", headers={"X-Request-Id": "trace-me-42"}
        )
        assert headers["X-Request-Id"] == "trace-me-42"

    def test_request_id_minted_when_absent(self, service):
        _, _, first = call(service, "/health")
        _, _, second = call(service, "/health")
        assert first["X-Request-Id"]
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_error_responses_carry_request_id(self, service):
        status, _, headers = call(
            service, "/nope", headers={"X-Request-Id": "err-1"}
        )
        assert status == 404
        assert headers["X-Request-Id"] == "err-1"


class TestErrorShape:
    def test_404_has_error_and_detail(self, service):
        status, body, _ = call(service, "/nope")
        assert status == 404
        assert set(body) == {"error", "detail"}
        assert "/recommend" in body["detail"]["post"]

    def test_422_detail_names_the_exception(self, service):
        status, body, _ = call(
            service, "/recommend",
            {"activity": ["potatoes"], "strategy": "nope"},
        )
        assert status == 422
        assert "unknown strategy" in body["error"]
        assert body["detail"] == "StrategyNotFoundError"

    def test_400_validation_has_detail(self, service):
        status, body, _ = call(service, "/recommend", {"k": 3})
        assert status == 400
        assert "'activity'" in body["error"]
        assert body["detail"] is not None


class TestMethodNotAllowed:
    def test_get_on_post_route_is_405_with_allow(self, service):
        status, body, headers = call(service, "/recommend", method="GET")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert body["error"] == "method not allowed"

    def test_post_on_get_route_is_405_with_allow(self, service):
        status, body, headers = call(
            service, "/health", payload={}, method="POST"
        )
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"

    def test_put_on_known_route_is_405(self, service):
        status, _, headers = call(
            service, "/recommend",
            payload={"activity": []}, method="PUT",
        )
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_405_counted_as_error(self, service):
        call(service, "/recommend", method="GET")
        _, text, _ = call(service, "/metrics")
        assert (
            'repro_http_errors_total{endpoint="/recommend",status="405"} 1'
            in text
        )


class TestHealth:
    def test_health_reports_version_and_library_stats(self, service):
        status, body, _ = call(service, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__
        assert body["implementations"] == 3
        library = body["library"]
        assert library["num_implementations"] == 3
        assert library["num_goals"] == 3
        assert library["num_actions"] == 6
        assert library["connectivity"] > 0
        assert "max_implementation_length" in library


def _find_spans(trees, name):
    """Depth-first search for every span called ``name`` in the trees."""
    found = []
    for span in trees:
        if span["name"] == name:
            found.append(span)
        found.extend(_find_spans(span["children"], name))
    return found


class TestTracedService:
    def test_traced_recommend_yields_span_tree_with_space_sizes(self, service):
        obs.enable(tracing=True, trace_detail=True)
        status, _, _ = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        obs.disable(metrics=False, tracing=True)
        assert status == 200
        # The request root is the http.request span; recommend nests inside.
        # The root closes *after* the response bytes reach the client, so
        # poll briefly instead of racing the handler thread.
        deadline = time.monotonic() + 2.0
        roots = []
        while not roots and time.monotonic() < deadline:
            roots = [
                s for s in obs.get_tracer().spans()
                if s["name"] == "http.request"
                and s["attributes"]["endpoint"] == "/recommend"
            ]
            if not roots:
                time.sleep(0.01)
        assert roots, "no http.request root span recorded"
        recommend = _find_spans(roots, "recommend")[-1]
        attrs = recommend["attributes"]
        assert attrs["strategy"] == "breadth"
        assert attrs["is_size"] == 2  # potatoes -> salad + mash
        assert attrs["gs_size"] == 2
        assert attrs["as_size"] == 5  # salad ∪ mash actions
        assert attrs["candidates"] == 4  # AS(H) − {potatoes}
        # A CSR-routed read ranks in the engine and takes the sizes from
        # one engine call: the tree is http.request -> recommend -> rank,
        # with no scalar space-stage spans under it.
        (root,) = roots
        assert [child["name"] for child in root["children"]] == ["recommend"]
        assert [child["name"] for child in recommend["children"]] == ["rank"]
        assert recommend["children"][0]["children"] == []
        # The tree is valid JSON end to end.
        json.loads(obs.get_tracer().export_json())
