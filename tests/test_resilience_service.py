"""HTTP-level tests for the resilience layer and serving-edge bugfixes.

Covers admission control (429 + ``Retry-After`` under saturation, never a
connection reset), per-request deadlines (504 naming the pipeline stage
reached, malformed header → 400), graceful drain (in-flight requests
complete, ``/health`` flips to draining, work routes answer 503), the
``HEAD`` support regression tests, the fault-injection matrix the CI
``resilience`` step runs, and a subprocess SIGTERM integration test of
``repro serve``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FaultInjector,
    FaultRule,
    clear_faults,
    install_faults,
    parse_fault_spec,
)
from repro.service import RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]


@pytest.fixture
def make_service(request):
    """Factory for services with per-test resilience settings.

    Each service writes into a fresh registry; teardown stops the server,
    clears any installed fault injector and restores the registry.
    """
    previous_registry = obs.set_registry(MetricsRegistry())
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

    request.addfinalizer(teardown)
    return factory


def call(service, path, payload=None, method=None, headers=None):
    """Return ``(status, response_headers, body_bytes)`` — never raises
    for HTTP error statuses (connection-level failures do propagate,
    which is exactly what the no-reset assertions rely on)."""
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
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def body_json(raw: bytes) -> dict:
    return json.loads(raw)


RECOMMEND = {"activity": ["potatoes", "carrots"], "k": 5}
BATCH = {"activities": [["potatoes", "carrots"], ["oil"]], "k": 5}
RELOAD = {"implementations": [{"goal": "soup", "actions": ["leek", "salt"]}]}


# ----------------------------------------------------------------------
# HEAD support (bugfix: stdlib default was 501)
# ----------------------------------------------------------------------


class TestHeadRequests:
    def test_head_mirrors_get_headers_with_empty_body(self, make_service):
        service = make_service()
        get_status, get_headers, get_body = call(service, "/health")
        head_status, head_headers, head_body = call(
            service, "/health", method="HEAD"
        )
        assert (get_status, head_status) == (200, 200)
        assert head_body == b""
        assert len(get_body) > 0
        assert head_headers["Content-Length"] == get_headers["Content-Length"]
        assert head_headers["Content-Type"] == get_headers["Content-Type"]
        assert head_headers["X-Request-Id"]

    def test_head_metrics(self, make_service):
        service = make_service()
        status, headers, body = call(service, "/metrics", method="HEAD")
        assert status == 200
        assert body == b""
        assert int(headers["Content-Length"]) > 0

    def test_head_unknown_path_is_404_with_empty_body(self, make_service):
        service = make_service()
        status, headers, body = call(service, "/nope", method="HEAD")
        assert status == 404
        assert body == b""
        assert headers["X-Request-Id"]

    def test_head_on_post_route_is_405(self, make_service):
        service = make_service()
        status, headers, body = call(service, "/recommend", method="HEAD")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert body == b""


# ----------------------------------------------------------------------
# Admission control / load shedding
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_saturation_sheds_429_with_retry_after(self, make_service):
        service = make_service(
            max_inflight=1, max_queue=0, retry_after_seconds=2.0
        )
        # One latency fault at the model seam keeps the admitted request
        # holding its slot long enough for the probes to hit saturation.
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=600.0)])
        )
        slow_result = []

        def slow_request():
            slow_result.append(call(service, "/recommend", RECOMMEND))

        thread = threading.Thread(target=slow_request)
        thread.start()
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline, "slow request never admitted"
            time.sleep(0.01)
        shed = [call(service, "/recommend", RECOMMEND) for _ in range(4)]
        thread.join(10.0)

        # Every probe got a proper HTTP answer — a connection reset would
        # have raised out of call() and failed the test right there.
        for status, headers, raw in shed:
            assert status == 429
            assert headers["Retry-After"] == "2"
            body = body_json(raw)
            assert body["error"] == "server overloaded"
            assert "saturated" in body["detail"]
        # The occupant itself completed normally.
        assert slow_result[0][0] == 200

        _, _, metrics = call(service, "/metrics")
        text = metrics.decode()
        assert 'repro_shed_requests_total{reason="saturated"} 4' in text

    def test_queued_request_is_admitted_when_slot_frees(self, make_service):
        service = make_service(
            max_inflight=1, max_queue=4, queue_timeout_seconds=5.0
        )
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=200.0)])
        )
        results = []

        def request():
            results.append(call(service, "/recommend", RECOMMEND))

        threads = [threading.Thread(target=request) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert [status for status, _, _ in results] == [200, 200, 200]

    def test_ops_routes_bypass_admission(self, make_service):
        service = make_service(max_inflight=1, max_queue=0)
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=500.0)])
        )
        occupant = threading.Thread(
            target=call, args=(service, "/recommend", RECOMMEND)
        )
        occupant.start()
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # The server is saturated, yet stays observable.
        health_status, _, _ = call(service, "/health")
        metrics_status, _, _ = call(service, "/metrics")
        debug_status, _, _ = call(service, "/debug/vars")
        occupant.join(10.0)
        assert (health_status, metrics_status, debug_status) == (200, 200, 200)

    def test_deadline_spent_in_the_queue_is_shed_429(self, make_service):
        service = make_service(
            max_inflight=1, max_queue=4, queue_timeout_seconds=5.0,
            retry_after_seconds=2.0,
        )
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=600.0)])
        )
        occupant = threading.Thread(
            target=call, args=(service, "/recommend", RECOMMEND)
        )
        occupant.start()
        deadline = time.monotonic() + 5.0
        while service.admission.active() == 0:
            assert time.monotonic() < deadline, "occupant never admitted"
            time.sleep(0.01)
        # The deadline caps the queue wait below queue_timeout, so the
        # wait ends with the deadline spent: still a shed, not a 504.
        status, headers, raw = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": "50"},
        )
        occupant.join(10.0)
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert "queue_timeout" in body_json(raw)["detail"]
        text = call(service, "/metrics")[2].decode()
        assert 'repro_shed_requests_total{reason="queue_timeout"} 1' in text
        assert "repro_deadline_exceeded_total{" not in text

    def test_debug_vars_reports_resilience_state(self, make_service):
        service = make_service(max_inflight=7, max_queue=9)
        _, _, raw = call(service, "/debug/vars")
        resilience = body_json(raw)["resilience"]
        assert resilience["draining"] is False
        assert resilience["admission"]["max_inflight"] == 7
        assert resilience["admission"]["max_queue"] == 9


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_names_stage_recommend(self, make_service):
        service = make_service()
        # The model seam stalls 80 ms inside the cache stage; a 20 ms
        # deadline therefore expires before the ranking starts.
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=80.0)])
        )
        status, _, raw = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": "20"},
        )
        assert status == 504
        body = body_json(raw)
        assert body["error"] == "deadline exceeded"
        assert "'rank'" in body["detail"]

    def test_expired_deadline_names_stage_batch(self, make_service):
        service = make_service()
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=80.0)])
        )
        status, _, raw = call(
            service, "/recommend/batch", BATCH,
            headers={"X-Request-Deadline-Ms": "20"},
        )
        assert status == 504
        assert "'rank'" in body_json(raw)["detail"]

    def test_deadline_exceeded_counter_labels_stage(self, make_service):
        service = make_service()
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=80.0)])
        )
        status, _, _ = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": "20"},
        )
        assert status == 504
        _, _, metrics = call(service, "/metrics")
        assert (
            'repro_deadline_exceeded_total{stage="rank"} 1'
            in metrics.decode()
        )

    def test_default_deadline_applies_without_header(self, make_service):
        service = make_service(default_deadline_ms=20.0)
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=80.0)])
        )
        status, _, raw = call(service, "/recommend", RECOMMEND)
        assert status == 504
        assert body_json(raw)["error"] == "deadline exceeded"

    def test_generous_deadline_passes(self, make_service):
        service = make_service()
        status, _, raw = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": "30000"},
        )
        assert status == 200
        assert body_json(raw)["recommendations"]

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_mutation_past_its_deadline_is_answered_or_not_applied(
        self, make_service, method
    ):
        service = make_service()
        # The model seam stalls 80 ms inside the mutation, after its last
        # deadline checkpoint: a 20 ms deadline expires during the work.
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=80.0)])
        )
        if method == "PUT":
            path, payload = "/model/implementations", RELOAD
        else:
            path, payload = "/model/implementations/0", None
        status, _, raw = call(
            service, path, payload, method=method,
            headers={"X-Request-Deadline-Ms": "20"},
        )
        clear_faults()
        model = body_json(call(service, "/model")[2])
        if status == 504:
            assert model["generation"] == 0
            assert model["implementations"] == len(PAIRS)
        else:
            assert status == 200
            body = body_json(raw)
            assert body["generation"] == model["generation"] == 1
            assert body["implementations"] == model["implementations"]
            assert model["implementations"] == (
                len(PAIRS) + 1 if method == "PUT" else len(PAIRS) - 1
            )

    @pytest.mark.parametrize("bad", ["abc", "-5", "0", "inf", "nan", ""])
    def test_malformed_deadline_header_is_400(self, make_service, bad):
        service = make_service()
        status, _, raw = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": bad},
        )
        assert status == 400
        assert "X-Request-Deadline-Ms" in body_json(raw)["error"]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_health_reports_draining_and_work_is_503(self, make_service):
        service = make_service(retry_after_seconds=3.0)
        with service._inflight_lock:
            service._draining = True
        try:
            status, _, raw = call(service, "/health")
            body = body_json(raw)
            assert status == 200
            assert body["status"] == "draining"
            assert body["draining"] is True

            status, headers, raw = call(service, "/recommend", RECOMMEND)
            assert status == 503
            assert headers["Retry-After"] == "3"
            assert body_json(raw)["error"] == "service is draining"

            _, _, metrics = call(service, "/metrics")
            text = metrics.decode()
            assert 'repro_shed_requests_total{reason="draining"} 1' in text
        finally:
            with service._inflight_lock:
                service._draining = False

    def test_drain_completes_inflight_requests(self, make_service):
        service = make_service()
        install_faults(
            FaultInjector([FaultRule("model", "latency", delay_ms=400.0)])
        )
        results = []

        def slow_request():
            results.append(call(service, "/recommend", RECOMMEND))

        thread = threading.Thread(target=slow_request)
        thread.start()
        deadline = time.monotonic() + 5.0
        while service.inflight_requests == 0:
            assert time.monotonic() < deadline, "request never started"
            time.sleep(0.01)

        drained = service.drain(timeout=10.0)
        thread.join(10.0)

        assert drained is True
        status, _, raw = results[0]
        assert status == 200
        assert body_json(raw)["recommendations"]

    def test_drain_without_start_is_clean(self):
        model = AssociationGoalModel.from_pairs(PAIRS)
        service = RecommenderService(model, port=0)
        assert service.drain(timeout=0.1) is True


# ----------------------------------------------------------------------
# Fault-injection matrix (the CI `resilience` step runs this class)
# ----------------------------------------------------------------------


class TestFaultMatrix:
    @pytest.mark.parametrize(
        "path,payload,method",
        [
            ("/recommend", RECOMMEND, None),
            ("/recommend/batch", BATCH, None),
            ("/model/implementations", RELOAD, "PUT"),
        ],
        ids=["recommend", "batch", "reload"],
    )
    def test_model_exception_fault_surfaces_as_500(
        self, make_service, path, payload, method
    ):
        service = make_service()
        install_faults(parse_fault_spec("model:exception"))
        status, headers, raw = call(service, path, payload, method=method)
        assert status == 500
        body = body_json(raw)
        assert body["error"] == "internal server error"
        assert "injected fault" in body["detail"]
        assert headers["X-Request-Id"]

    @pytest.mark.parametrize(
        "spec",
        ["model:latency:1.0:5", "model:slow_storage:1.0:5",
         "cache:latency:1.0:5", "cache:slow_storage:1.0:5"],
    )
    def test_latency_faults_slow_but_do_not_fail(self, make_service, spec):
        service = make_service()
        install_faults(parse_fault_spec(spec))
        for path, payload, method in (
            ("/recommend", RECOMMEND, None),
            ("/recommend/batch", BATCH, None),
            ("/model/implementations", RELOAD, "PUT"),
        ):
            status, _, _ = call(service, path, payload, method=method)
            assert status == 200, (spec, path)

    def test_cache_exception_fault_fails_recommend(self, make_service):
        service = make_service()
        install_faults(parse_fault_spec("cache:exception"))
        status, _, raw = call(service, "/recommend", RECOMMEND)
        assert status == 500
        assert "injected fault" in body_json(raw)["detail"]

    def test_injected_faults_are_counted(self, make_service):
        service = make_service()
        install_faults(parse_fault_spec("model:exception"))
        status, _, _ = call(service, "/recommend", RECOMMEND)
        assert status == 500
        _, _, metrics = call(service, "/metrics")
        assert (
            'repro_faults_injected_total{kind="exception",site="model"}'
            in metrics.decode()
        )

    def test_probabilistic_fault_sequence_is_reproducible(self, make_service):
        def run() -> list[int]:
            previous = obs.set_registry(MetricsRegistry())
            model = AssociationGoalModel.from_pairs(PAIRS)
            server = RecommenderService(model, port=0).start()
            install_faults(parse_fault_spec("seed=7,model:exception:0.5"))
            try:
                return [
                    call(server, "/recommend", RECOMMEND)[0]
                    for _ in range(8)
                ]
            finally:
                clear_faults()
                server.stop()
                obs.set_registry(previous)

        first, second = run(), run()
        assert first == second
        assert 500 in first and 200 in first


# ----------------------------------------------------------------------
# CLI: SIGTERM drains the subprocess (satellite bugfix)
# ----------------------------------------------------------------------


class TestServeSignalIntegration:
    def _write_library(self, tmp_path: Path) -> Path:
        from repro.core.library import ImplementationLibrary
        from repro.storage import JsonLibraryStore

        library = ImplementationLibrary()
        for goal, actions in PAIRS:
            library.add_pair(goal, sorted(actions))
        path = tmp_path / "library.json"
        JsonLibraryStore(path).save(library)
        return path

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        library_path = self._write_library(tmp_path)
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH") else str(src_dir)
        )
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve", "--library", str(library_path), "--port", "0",
                "--drain-timeout", "10",
                # A latency fault keeps the in-flight request busy across
                # the SIGTERM, proving drain waits for it.
                "--fault-spec", "model:latency:1.0:700",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner, banner
            port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])

            url = f"http://127.0.0.1:{port}/recommend"
            request = urllib.request.Request(
                url,
                data=json.dumps(RECOMMEND).encode(),
                headers={"Content-Type": "application/json"},
            )
            result = {}

            def inflight_request():
                with urllib.request.urlopen(request, timeout=30) as response:
                    result["status"] = response.status
                    result["body"] = json.loads(response.read())

            thread = threading.Thread(target=inflight_request)
            thread.start()
            time.sleep(0.25)  # let the request reach the model-seam stall
            process.send_signal(signal.SIGTERM)
            thread.join(30.0)

            returncode = process.wait(timeout=30)
            assert returncode == 0
            # The in-flight request was completed, not dropped.
            assert result.get("status") == 200
            assert result["body"]["recommendations"]
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()

    def test_malformed_fault_spec_exits_2(self, tmp_path):
        library_path = self._write_library(tmp_path)
        from repro.cli import main

        code = main(
            [
                "serve", "--library", str(library_path), "--port", "0",
                "--fault-spec", "nowhere:exception",
            ]
        )
        assert code == 2
