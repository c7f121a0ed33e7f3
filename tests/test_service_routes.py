"""HTTP tests for the service's route table, request ids and method handling.

Every route is swept with every method: each answer carries the
``X-Request-Id`` and ``traceparent`` headers, a wrong method answers
``405`` with the ``Allow`` header the route implies, a method the service
does not serve answers a ``501`` envelope, and the ``endpoint``/``method``
labels of the request counter stay bounded.  Unknown paths and wrong
methods are answered before admission, so they never see ``429``/``503``.
A client's ``X-Request-Id`` is adopted only when it is short and plain.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.resilience import FaultInjector, FaultRule, clear_faults, install_faults
from repro.service import RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]
RECOMMEND = {"activity": ["potatoes", "carrots"], "k": 5}

#: (request path, metrics endpoint label, expected Allow header)
ROUTES = [
    ("/health", "/health", "GET, HEAD"),
    ("/metrics", "/metrics", "GET, HEAD"),
    ("/model", "/model", "GET, HEAD"),
    ("/debug/vars", "/debug/vars", "GET, HEAD"),
    ("/debug/slow", "/debug/slow", "GET, HEAD"),
    ("/debug/quality", "/debug/quality", "GET, HEAD"),
    ("/debug/locks", "/debug/locks", "GET, HEAD"),
    ("/debug/history", "/debug/history", "GET, HEAD"),
    ("/debug/trace/never-seen", "/debug/trace/<request-id>", "GET, HEAD"),
    ("/debug/profile", "/debug/profile", "POST, DELETE"),
    ("/recommend", "/recommend", "POST"),
    ("/recommend/batch", "/recommend/batch", "POST"),
    ("/spaces", "/spaces", "POST"),
    ("/explain", "/explain", "POST"),
    ("/goals", "/goals", "POST"),
    ("/related", "/related", "POST"),
    ("/model/implementations", "/model/implementations", "PUT"),
    ("/model/implementations/999", "/model/implementations/<id>", "DELETE"),
]
SWEPT_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS")
METHOD_LABELS = {"GET", "HEAD", "POST", "PUT", "DELETE", "other"}
REQUEST_LABEL = re.compile(
    r'^repro_http_requests_total\{endpoint="([^"]*)",method="([^"]*)",'
    r'status="\d+"\}',
    re.MULTILINE,
)


@pytest.fixture
def make_service(request):
    """Services over a fresh registry and tracer, so the request ids sent
    here never reach another test's ``/debug/trace`` lookups."""
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_tracer = obs.set_tracer(Tracer())
    started = []

    def factory(**kwargs):
        model = AssociationGoalModel.from_pairs(PAIRS)
        server = RecommenderService(model, port=0, **kwargs).start()
        started.append(server)
        return server

    def teardown():
        clear_faults()
        for server in started:
            server.stop()
        obs.disable()
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)

    request.addfinalizer(teardown)
    return factory


def send(service, method, path, payload=None, headers=None):
    """One request with any method token: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body, headers=dict(headers or {}))
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def scrape_until(service, needle, timeout=5.0):
    """Poll ``/metrics`` until ``needle`` appears (a request is recorded
    just after its response is written); return the final text."""
    deadline = time.monotonic() + timeout
    while True:
        text = send(service, "GET", "/metrics")[2].decode()
        if needle in text or time.monotonic() > deadline:
            return text
        time.sleep(0.01)


def request_labels(service):
    _, _, raw = send(service, "GET", "/metrics")
    return set(REQUEST_LABEL.findall(raw.decode()))


class TestRouteTable:
    def test_every_route_and_method(self, make_service):
        service = make_service()
        for path, endpoint, allow in ROUTES:
            for method in SWEPT_METHODS:
                status, headers, raw = send(service, method, path)
                where = (method, path, status)
                assert headers.get("X-Request-Id"), where
                assert headers.get("traceparent"), where
                served = allow.split(", ")
                if method == "OPTIONS":
                    assert status == 501, where
                elif method in served:
                    assert status not in (405, 501), where
                else:
                    assert status == 405, where
                    assert headers["Allow"] == allow, where
                if status >= 400 and method != "HEAD":
                    body = json.loads(raw)
                    assert set(body) == {"error", "detail"}, where
                if status == 405 and method != "HEAD":
                    assert json.loads(raw)["detail"] == (
                        f"{endpoint} supports {allow}"
                    )

        labels = request_labels(service)
        endpoints = {endpoint for endpoint, _ in labels}
        assert endpoints == {endpoint for _, endpoint, _ in ROUTES}
        assert {method for _, method in labels} == METHOD_LABELS

    def test_labels_stay_bounded_for_unknown_paths_and_methods(
        self, make_service
    ):
        service = make_service()
        for index in range(5):
            send(service, "GET", f"/nope-{index}")
            send(service, f"FOO{index}", "/recommend")
            send(service, "PATCH", f"/model/implementations/{index}")
        labels = request_labels(service)
        assert labels == {
            ("<unknown>", "GET"),
            ("/recommend", "other"),
            ("/model/implementations/<id>", "other"),
        }

    def test_404_lists_every_route_by_method(self, make_service):
        service = make_service()
        status, _, raw = send(service, "GET", "/nope")
        assert status == 404
        detail = json.loads(raw)["detail"]
        assert set(detail) == {"get", "post", "put", "delete"}
        for _, endpoint, allow in ROUTES:
            for method in allow.split(", "):
                if method != "HEAD":
                    assert endpoint in detail[method.lower()], endpoint


class TestUnsupportedMethods:
    @pytest.mark.parametrize("method", ["OPTIONS", "PATCH"])
    @pytest.mark.parametrize("path", ["/recommend", "/health", "/nope"])
    def test_501_goes_through_the_envelope(self, make_service, method, path):
        service = make_service()
        status, headers, raw = send(
            service, method, path, headers={"X-Request-Id": "odd-method-1"}
        )
        assert status == 501
        assert headers["X-Request-Id"] == "odd-method-1"
        assert headers["traceparent"]
        assert headers["Content-Type"] == "application/json"
        body = json.loads(raw)
        assert set(body) == {"error", "detail"}
        assert method in body["detail"]
        needle = 'method="other",status="501"} 1'
        assert needle in scrape_until(service, needle)


class TestDecidedBeforeAdmission:
    def test_while_draining(self, make_service):
        service = make_service()
        with service._inflight_lock:
            service._draining = True
        try:
            assert send(service, "GET", "/nope")[0] == 404
            assert send(service, "GET", "/recommend")[0] == 405
            assert send(service, "OPTIONS", "/recommend")[0] == 501
            # A served method on a work route is still shed.
            assert send(service, "POST", "/recommend", RECOMMEND)[0] == 503
        finally:
            with service._inflight_lock:
                service._draining = False

    def test_while_saturated(self, make_service):
        service = make_service(max_inflight=1, max_queue=0)
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=800.0)])
        )
        occupant = threading.Thread(
            target=send, args=(service, "POST", "/recommend", RECOMMEND)
        )
        occupant.start()
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline, "occupant never admitted"
            time.sleep(0.01)
        try:
            assert send(service, "GET", "/nope")[0] == 404
            assert send(service, "GET", "/recommend")[0] == 405
            assert send(service, "HEAD", "/recommend")[0] == 405
            assert send(service, "POST", "/recommend", RECOMMEND)[0] == 429
        finally:
            occupant.join(10.0)
        _, _, metrics = send(service, "GET", "/metrics")
        assert 'repro_shed_requests_total{reason="saturated"} 1' in (
            metrics.decode()
        )


class TestRequestIdAcceptance:
    @pytest.mark.parametrize(
        "request_id",
        ["trace-me-42", "err-1", "my-req-7", "lookup-req-1",
         "a.b:c_d-E9", "x" * 64],
        ids=["trace-me-42", "err-1", "my-req-7", "lookup-req-1",
             "every-class", "64-chars"],
    )
    def test_plain_ids_are_echoed(self, make_service, request_id):
        service = make_service()
        _, headers, _ = send(
            service, "GET", "/health", headers={"X-Request-Id": request_id}
        )
        assert headers["X-Request-Id"] == request_id

    @pytest.mark.parametrize(
        "request_id",
        ["x" * 65, "a" * 5000, "has space", 'quote"d', "semi;colon", "é"],
        ids=["65-chars", "5000-chars", "space", "quote", "semicolon",
             "non-ascii"],
    )
    def test_other_ids_are_replaced(self, make_service, request_id):
        service = make_service()
        _, headers, _ = send(
            service, "GET", "/health",
            headers={"X-Request-Id": request_id},
        )
        echoed = headers["X-Request-Id"]
        assert echoed != request_id
        assert re.fullmatch(r"[A-Za-z0-9._:-]{1,64}", echoed)

    def test_exemplar_label_sets_stay_within_openmetrics_cap(
        self, make_service
    ):
        service = make_service()
        oversized = "a" * 5000
        for path in ("/health", "/nope"):
            send(service, "GET", path, headers={"X-Request-Id": oversized})
        send(service, "POST", "/recommend", RECOMMEND,
             headers={"X-Request-Id": oversized})
        _, _, raw = send(
            service, "GET", "/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        text = raw.decode()
        label_sets = re.findall(r" # (\{[^}]*\})", text)
        assert label_sets, "no exemplars rendered"
        assert max(len(labels) for labels in label_sets) <= 128
        assert oversized not in text
