"""Runtime lock-sanitizer coverage and the schedule-stress gate.

Three layers, mirroring the static RL006/RL007 pass from the other side:

- unit tests for the sanitizer itself — instrumented factories, order and
  reentrancy checks against a ``locks.toml`` manifest, ``wait``-while-
  holding detection, hold-time outliers, dedup'd snapshots;
- :class:`~repro.utils.concurrency.RWLock` edge cases (writer preference,
  release-without-acquire, reentrant reads) under BOTH the plain and the
  instrumented construction paths, since the proxies must not change the
  lock's semantics;
- the stress gate: a live :class:`~repro.service.RecommenderService`
  hammered by concurrent recommend / hot-reload / fault-injected traffic
  over kept-alive connections, then drained with them open, with the
  sanitizer enabled and the repo's committed ``locks.toml`` as
  ground truth — any order inversion, undeclared nesting or reentrant
  acquisition that a schedule exposes fails the build, which is the
  runtime counterpart of ``repro-lint --select RL006,RL007 src/``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FaultInjector,
    FaultRule,
    clear_faults,
    install_faults,
)
from repro.service import RecommenderService
from repro.utils import concurrency
from repro.utils.concurrency import (
    RWLock,
    enable_lock_sanitizer,
    lock_sanitizer_enabled,
    lock_sanitizer_snapshot,
    lock_sanitizer_violations,
    make_condition,
    make_lock,
    make_rlock,
    reset_lock_sanitizer,
)
from repro.utils.lockmanifest import LockManifest


@pytest.fixture(autouse=True)
def _sanitizer_isolation():
    """Every test starts and ends with the sanitizer fully torn down."""
    reset_lock_sanitizer()
    yield
    reset_lock_sanitizer()


def manifest(*edges: tuple[str, str]) -> LockManifest:
    return LockManifest(edges=frozenset(edges))


def kinds() -> list[tuple[str, str, str]]:
    """``(kind, site, other)`` for each recorded violation."""
    return [(v.kind, v.site, v.other) for v in lock_sanitizer_violations()]


# ----------------------------------------------------------------------
# Sanitizer unit tests
# ----------------------------------------------------------------------


def test_factories_return_raw_primitives_when_disabled():
    assert not lock_sanitizer_enabled()
    assert type(make_lock("A.x")) is type(threading.Lock())
    assert type(make_rlock("A.x")) is type(threading.RLock())
    assert isinstance(make_condition("A.x"), threading.Condition)


def test_factories_return_instrumented_proxies_when_enabled():
    enable_lock_sanitizer(manifest())
    assert lock_sanitizer_enabled()
    assert type(make_lock("A.x")).__name__ == "_InstrumentedLock"
    assert type(make_rlock("A.x")).__name__ == "_InstrumentedRLock"
    assert type(make_condition("A.x")).__name__ == "_InstrumentedCondition"


def test_construction_mode_is_pinned_not_live():
    """A lock built before enable stays plain — and is never checked."""
    lock = make_lock("A.x")
    enable_lock_sanitizer(manifest())
    other = make_lock("B.y")
    with lock:
        with other:
            pass
    # The plain lock is invisible, so no nesting was ever observed.
    assert kinds() == []


def test_declared_nesting_is_clean():
    enable_lock_sanitizer(manifest(("A.x", "B.y")))
    outer, inner = make_lock("A.x"), make_lock("B.y")
    with outer:
        with inner:
            pass
    assert kinds() == []


def test_manifest_closure_applies_at_runtime():
    """A -> B and B -> C declared; the transitive A -> C nesting is legal."""
    enable_lock_sanitizer(manifest(("A.x", "B.y"), ("B.y", "C.z")))
    outer, inner = make_lock("A.x"), make_lock("C.z")
    with outer:
        with inner:
            pass
    assert kinds() == []


def test_undeclared_nesting_records_one_deduped_order_violation():
    enable_lock_sanitizer(manifest())
    outer, inner = make_lock("A.x"), make_lock("B.y")
    for _ in range(3):
        with outer:
            with inner:
                pass
    assert kinds() == [("order", "B.y", "A.x")]
    snap = lock_sanitizer_snapshot()
    assert snap["violation_occurrences"] == 3
    [violation] = lock_sanitizer_violations()
    assert "locks.toml" in violation.detail


def test_sanitizer_flags_the_inverted_pair_at_runtime():
    """Runtime counterpart of the static RL006 fixture: the declared
    direction passes, the inverted one is an order violation even though
    no schedule actually deadlocked."""
    enable_lock_sanitizer(manifest(("D.gen", "D.cache")))
    gen, cache = make_lock("D.gen"), make_lock("D.cache")

    def declared_direction():
        with gen:
            with cache:
                pass

    worker = threading.Thread(target=declared_direction)
    worker.start()
    worker.join()
    assert kinds() == []
    with cache:
        with gen:  # the inversion
            pass
    assert kinds() == [("order", "D.gen", "D.cache")]


def test_reentrant_acquisition_is_flagged_without_deadlocking():
    enable_lock_sanitizer(manifest())
    lock = make_lock("A.x")
    assert lock.acquire()
    # The reentry would deadlock a plain Lock; the timeout keeps the test
    # alive while the sanitizer still records the bug.
    assert not lock.acquire(timeout=0.05)
    lock.release()
    assert kinds() == [("reentrant", "A.x", "A.x")]


def test_rlock_reentry_is_legal():
    enable_lock_sanitizer(manifest())
    lock = make_rlock("A.x")
    with lock:
        with lock:
            pass
    assert kinds() == []


def test_rlock_foreign_release_raises():
    enable_lock_sanitizer(manifest())
    lock = make_rlock("A.x")
    with pytest.raises(RuntimeError):
        lock.release()


def test_wait_while_holding_another_lock_is_flagged():
    enable_lock_sanitizer(manifest(("A.x", "C.cond")))
    guard = make_lock("A.x")
    cond = make_condition("C.cond")
    with guard:
        with cond:
            cond.wait(timeout=0.01)
    assert ("wait-held", "C.cond", "A.x") in kinds()


def test_wait_alone_is_not_flagged():
    enable_lock_sanitizer(manifest())
    cond = make_condition("C.cond")
    with cond:
        cond.wait(timeout=0.01)
        cond.wait_for(lambda: False, timeout=0.01)
    assert kinds() == []


def test_hold_outlier_is_recorded():
    enable_lock_sanitizer(manifest(), hold_outlier_seconds=0.01)
    lock = make_lock("A.x")
    with lock:
        time.sleep(0.03)
    assert kinds() == [("hold-outlier", "A.x", "")]
    stats = lock_sanitizer_snapshot()["sites"]["A.x"]
    assert stats["max_hold_seconds"] >= 0.01


def test_contention_is_counted():
    enable_lock_sanitizer(manifest())
    lock = make_lock("A.x")
    lock.acquire()
    started = threading.Event()

    def blocked():
        started.set()
        with lock:
            pass

    worker = threading.Thread(target=blocked)
    worker.start()
    started.wait()
    time.sleep(0.02)
    lock.release()
    worker.join()
    assert lock_sanitizer_snapshot()["sites"]["A.x"]["contentions"] >= 1.0
    assert kinds() == []


def test_snapshot_is_inert_when_disabled():
    assert lock_sanitizer_snapshot() == {
        "enabled": False, "sites": {}, "violations": []
    }


def test_snapshot_shape_when_enabled():
    enable_lock_sanitizer(manifest(("A.x", "B.y")))
    with make_lock("A.x"):
        pass
    snap = lock_sanitizer_snapshot()
    assert snap["enabled"] is True
    assert snap["declared_edges"] == 1
    assert snap["sites"]["A.x"]["acquisitions"] == 1.0
    assert snap["violations"] == []


def test_violations_survive_disable_until_reset():
    enable_lock_sanitizer(manifest())
    with make_lock("A.x") as _outer, make_lock("B.y"):
        pass
    assert len(kinds()) == 1
    concurrency.disable_lock_sanitizer()
    assert len(kinds()) == 1
    reset_lock_sanitizer()
    assert kinds() == []


# ----------------------------------------------------------------------
# RWLock edge cases, plain and instrumented
# ----------------------------------------------------------------------


@pytest.fixture(params=["plain", "instrumented"])
def rwlock(request):
    if request.param == "instrumented":
        enable_lock_sanitizer(manifest())
    return RWLock(site="Demo._lock")


def test_rwlock_writer_preference_bounds_reader_starvation(rwlock):
    """A queued writer goes ahead of readers that arrive after it."""
    order: list[str] = []
    rwlock.acquire_read()

    def writer():
        rwlock.acquire_write()
        order.append("writer")
        rwlock.release_write()

    def late_reader():
        rwlock.acquire_read()
        order.append("late-reader")
        rwlock.release_read()

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    deadline = time.monotonic() + 5.0
    while rwlock._writers_waiting == 0:  # wait for the writer to queue
        assert time.monotonic() < deadline, "writer never queued"
        time.sleep(0.001)
    reader_thread = threading.Thread(target=late_reader)
    reader_thread.start()
    time.sleep(0.02)
    assert order == []  # both still blocked behind the first reader
    rwlock.release_read()
    writer_thread.join(timeout=5.0)
    reader_thread.join(timeout=5.0)
    assert order == ["writer", "late-reader"]


def test_rwlock_release_read_without_acquire_raises(rwlock):
    with pytest.raises(RuntimeError, match="release_read without"):
        rwlock.release_read()


def test_rwlock_release_write_without_acquire_raises(rwlock):
    with pytest.raises(RuntimeError, match="release_write without"):
        rwlock.release_write()


def test_rwlock_write_release_read_still_raises(rwlock):
    """Holding the write side does not fake out the reader bookkeeping."""
    with rwlock.write_locked():
        with pytest.raises(RuntimeError, match="release_read without"):
            rwlock.release_read()


def test_rwlock_reentrant_read(rwlock):
    """With no writer queued a nested read succeeds in both modes; only
    the instrumented lock reports it (it deadlocks the moment a writer
    queues between the two acquisitions — exactly RL006's self-loop)."""
    with rwlock.read_locked():
        with rwlock.read_locked():
            pass
    if lock_sanitizer_enabled():
        assert kinds() == [("reentrant", "Demo._lock", "Demo._lock")]
    else:
        assert kinds() == []


def test_rwlock_sequential_readers_and_writers(rwlock):
    with rwlock.read_locked():
        pass
    with rwlock.write_locked():
        pass
    with rwlock.read_locked():
        pass
    assert kinds() == []


def test_rwlock_site_is_pinned_at_construction():
    """site= passed while the sanitizer is off never instruments."""
    lock = RWLock(site="Demo._lock")
    enable_lock_sanitizer(manifest())
    with lock.read_locked():
        with lock.read_locked():
            pass
    assert kinds() == []


# ----------------------------------------------------------------------
# Schedule-stress gate
# ----------------------------------------------------------------------

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]

RECOMMEND = {"activity": ["potatoes", "carrots"], "k": 5}


def call(server, path, payload=None, method=None):
    """``(status, parsed_json_or_None)``; HTTP errors return, never raise."""
    url = f"http://127.0.0.1:{server.port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as error:
        return error.code, None


class KeptAliveClient:
    """One persistent HTTP/1.1 connection; records every socket it used,
    so a server that closed the connection between requests shows up as
    more than one."""

    def __init__(self, server):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        self.sockets = set()

    def call(self, path, payload=None, method=None):
        """``(status, parsed_json_or_None)``, like :func:`call`."""
        body = json.dumps(payload).encode() if payload is not None else None
        self.conn.request(
            method or ("POST" if body else "GET"), path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        self.sockets.add(self.conn.sock)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if response.status == 200 else None


@pytest.fixture
def stress_service(request):
    """Sanitizer on (repo ``locks.toml``), faults installed, fresh metrics.

    The sanitizer is enabled *before* the service is built so every lock
    in the object graph comes out of the factories instrumented.
    """
    previous_registry = obs.set_registry(MetricsRegistry())
    enable_lock_sanitizer()  # discovers the committed locks.toml
    assert lock_sanitizer_snapshot()["declared_edges"] >= 1, (
        "locks.toml was not discovered; the gate would run unanchored"
    )
    model = AssociationGoalModel.from_pairs(PAIRS)
    server = RecommenderService(model, port=0).start()
    install_faults(
        FaultInjector(
            [FaultRule("model", "latency", probability=0.5, delay_ms=2.0)],
            seed=7,
        )
    )

    def teardown():
        clear_faults()
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)

    request.addfinalizer(teardown)
    return server


def test_schedule_stress_finds_no_lock_violations(stress_service):
    """Recommend + hot-reload + fault-injected latency over kept-alive
    connections, then drain with those connections open, with every
    instrumented acquisition order-checked against ``locks.toml``."""
    failures: list[str] = []
    clients = [KeptAliveClient(stress_service) for _ in range(5)]

    def recommender(client):
        for _ in range(25):
            status, _body = client.call("/recommend", RECOMMEND)
            if status != 200:
                failures.append(f"/recommend -> {status}")

    def reloader(client):
        for index in range(8):
            payload = {
                "implementations": [
                    {"goal": f"soup-{index}", "actions": ["leek", "salt"]}
                ]
            }
            status, body = client.call(
                "/model/implementations", payload, method="PUT",
            )
            if status != 200:
                failures.append(f"PUT /model/implementations -> {status}")
                continue
            for added in body["added"]:
                client.call(f"/model/implementations/{added}", method="DELETE")

    threads = [
        threading.Thread(target=recommender, args=(client,))
        for client in clients[:-1]
    ]
    threads.append(threading.Thread(target=reloader, args=(clients[-1],)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert stress_service.drain(timeout=10.0) is True
    for client in clients:
        client.conn.close()

    assert failures == []
    # Every client kept its one connection for all its requests.
    assert [len(client.sockets) for client in clients] == [1] * len(clients)
    violations = lock_sanitizer_violations()
    assert violations == (), "\n".join(
        f"{v.kind}: {v.site} (held: {v.other}) [{v.thread}] {v.detail}"
        for v in violations
    )
    sites = lock_sanitizer_snapshot()["sites"]
    # The schedule really exercised the interesting locks.
    assert "ModelManager._lock" in sites
    assert "LRUCache._lock" in sites
    assert "_Server._conn_lock" in sites


def test_debug_locks_endpoint_reports_the_snapshot(stress_service):
    call(stress_service, "/recommend", RECOMMEND)
    status, body = call(stress_service, "/debug/locks")
    assert status == 200
    assert body["enabled"] is True
    assert body["manifest"].endswith("locks.toml")
    assert "ModelManager._lock" in body["sites"]
    assert body["violations"] == []


def test_debug_locks_endpoint_when_sanitizer_is_off():
    previous_registry = obs.set_registry(MetricsRegistry())
    model = AssociationGoalModel.from_pairs(PAIRS)
    server = RecommenderService(model, port=0).start()
    try:
        status, body = call(server, "/debug/locks")
        assert status == 200
        assert body == {"enabled": False, "sites": {}, "violations": []}
    finally:
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)


def test_hold_metrics_are_emitted_under_the_sanitizer(stress_service):
    call(stress_service, "/recommend", RECOMMEND)
    url = f"http://127.0.0.1:{stress_service.port}/metrics"
    with urllib.request.urlopen(url, timeout=10) as response:
        text = response.read().decode()
    assert 'repro_lock_hold_seconds' in text
    assert 'site="ModelManager._lock"' in text
