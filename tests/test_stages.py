"""Integration tests: the stages a served request passes through.

A served request enters each stage of :data:`repro.obs.STAGES` with one
call that marks it on the request record; the stages before the
handler's work is done also check the request's deadline.  These tests
pin that the vocabulary is exactly what the routes run, that every
deadline checkpoint names a stage and none runs after the work, that a
request's stage
durations add up to its marked time, and the ``Server-Timing`` header.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import STAGES, StageProfiler
from repro.resilience import Deadline, DeadlineExceededError
from repro.service import RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]
RECOMMEND = {"activity": ["potatoes", "carrots"], "k": 5}
BATCH = {"activities": [["potatoes", "carrots"], ["oil"]], "k": 5}
#: The stages that check the deadline, in the order a ``/recommend`` miss
#: enters them; ``encode`` and ``write`` come after the work and are only
#: marked.
CHECKPOINTS = ("admission", "decode", "cache", "rank")


@pytest.fixture
def make_service(request):
    """Factory for services over a fresh registry and stage profiler;
    each captures the request records it accounts."""
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_profiler = obs.set_profiler(StageProfiler())
    started = []

    def factory(**kwargs):
        server = RecommenderService(
            AssociationGoalModel.from_pairs(PAIRS), port=0, **kwargs
        )
        server.records = []
        record = server._record

        def capture(entry):
            record(entry)
            server.records.append(entry)

        server._record = capture
        started.append(server.start())
        return server

    def teardown():
        for server in started:
            server.stop()
        obs.disable()
        obs.set_registry(previous_registry)
        obs.set_profiler(previous_profiler)

    request.addfinalizer(teardown)
    return factory


def call(service, path, payload=None, headers=None):
    """``(status, response headers, body bytes)`` of one request."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        headers=dict(headers or {}),
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


def records_of(service, count):
    """The first ``count`` request records; a request is recorded just
    after its response is written, so wait for it."""
    deadline = time.monotonic() + 5.0
    while len(service.records) < count:
        assert time.monotonic() < deadline, "request never recorded"
        time.sleep(0.005)
    return service.records[:count]


def stages_of(record):
    return [stage for stage, _ in record.marks]


class TestStageVocabulary:
    def test_served_routes_enter_every_stage_in_order(self, make_service):
        service = make_service()
        for request_id, path, payload in (
            ("miss", "/recommend", RECOMMEND),
            ("hit", "/recommend", RECOMMEND),
            ("batch", "/recommend/batch", BATCH),
        ):
            status, _, _ = call(
                service, path, payload, headers={"X-Request-Id": request_id}
            )
            assert status == 200
        # Requests are recorded as they finish, not in the order sent.
        stages = {
            record.request_id: stages_of(record)
            for record in records_of(service, 3)
        }
        miss, hit, batch = stages["miss"], stages["hit"], stages["batch"]
        assert miss == list(STAGES)
        assert hit == [stage for stage in STAGES if stage != "rank"]
        assert batch == [stage for stage in STAGES if stage != "cache"]

    def test_deadline_is_checked_only_before_the_work_is_done(
        self, make_service, monkeypatch
    ):
        checked = []
        check = Deadline.check

        def spy(deadline, reached):
            checked.append(reached)
            check(deadline, reached)

        monkeypatch.setattr(Deadline, "check", spy)
        service = make_service()
        for path, payload in (
            ("/recommend", RECOMMEND), ("/recommend/batch", BATCH)
        ):
            status, _, _ = call(
                service, path, payload,
                headers={"X-Request-Deadline-Ms": "30000"},
            )
            assert status == 200
        assert set(checked) <= set(CHECKPOINTS)
        assert checked[:4] == list(CHECKPOINTS)

    @pytest.mark.parametrize("stage", CHECKPOINTS)
    def test_deadline_checkpoint_504_names_its_stage(
        self, make_service, monkeypatch, stage
    ):
        # Expire the deadline exactly at the checkpoint under test.
        check = Deadline.check

        def expire_at(deadline, reached):
            if reached == stage:
                raise DeadlineExceededError(reached, deadline.budget_ms)
            check(deadline, reached)

        monkeypatch.setattr(Deadline, "check", expire_at)
        service = make_service()
        status, _, raw = call(
            service, "/recommend", RECOMMEND,
            headers={"X-Request-Deadline-Ms": "30000"},
        )
        assert status == 504
        assert json.loads(raw)["detail"].startswith(
            f"deadline exceeded entering stage {stage!r}"
        )
        assert records_of(service, 1)[0].deadline_stage == stage
        metrics = call(service, "/metrics")[2].decode()
        assert f'repro_deadline_exceeded_total{{stage="{stage}"}} 1' in metrics

    def test_debug_vars_and_console_rows_are_the_stages(self, make_service):
        from repro.obs.console import render_frame

        service = make_service()
        assert call(service, "/recommend", RECOMMEND)[0] == 200
        records_of(service, 1)
        stages = json.loads(call(service, "/debug/vars")[2])["stages"]
        assert list(stages) == list(STAGES)
        assert all(stages[stage]["count"] == 1 for stage in STAGES)
        (row,) = [
            line for line in render_frame({"url": "x", "stages": stages})
            .splitlines() if "stage p95" in line
        ]
        assert row.split()[2::2] == list(STAGES)

    def test_stage_durations_add_up_to_the_marked_time(
        self, make_service, monkeypatch
    ):
        profiler = obs.get_profiler()
        observed = []
        observe = profiler.observe_span

        def capture(durations):
            observed.append(dict(durations))
            observe(durations)

        monkeypatch.setattr(profiler, "observe_span", capture)
        service = make_service()
        assert call(service, "/recommend", RECOMMEND)[0] == 200
        (record,) = records_of(service, 1)
        (durations,) = observed
        assert list(durations) == list(STAGES)
        assert all(isinstance(ns, int) and ns >= 0 for ns in durations.values())
        assert sum(durations.values()) == record.end_ns - record.marks[0][1]
        assert record.end_ns >= record.marks[-1][1]


def server_timing(headers):
    """The ``(name, milliseconds)`` entries of a ``Server-Timing`` header."""
    value = headers.get("Server-Timing")
    if value is None:
        return None
    entries = []
    for metric in value.split(", "):
        name, _, duration = metric.partition(";dur=")
        entries.append((name, float(duration)))
    return entries


class TestServerTiming:
    def test_names_are_stages_that_ended_before_the_write(self, make_service):
        service = make_service()
        for path, payload in (
            ("/recommend", RECOMMEND),
            ("/recommend/batch", BATCH),
            ("/health", None),
            ("/nope", None),
        ):
            _, headers, _ = call(service, path, payload)
            entries = server_timing(headers)
            assert entries, path
            names = [name for name, _ in entries]
            assert set(names) <= set(STAGES) - {"write"}
            assert names[0] == "parse"
            assert all(duration >= 0 for _, duration in entries)

    def test_absent_without_trace_detail(self, make_service):
        service = make_service(trace_detail=False)
        _, headers, _ = call(service, "/recommend", RECOMMEND)
        assert server_timing(headers) is None
