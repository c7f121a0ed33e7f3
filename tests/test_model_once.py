"""The serving layer builds every generation from the mutation log.

Generation 0 and every hot mutation intern the log's live implementations
straight into the generation's CSR engine
(:func:`~repro.core.caching.build_served_view`); a pool worker rebuilds
the parent's engine zero-copy from the arena.  None of them constructs an
:class:`~repro.core.model.AssociationGoalModel`, which stays the
reference oracle.  ``AssociationGoalModel.__init__`` is spied on directly,
and ``repro_model_build_seconds`` (recorded by every
``AssociationGoalModel.from_library`` while metrics are on) must not move.

Every generation build ends with one ``malloc_trim(0)``
(:func:`~repro.core.caching.trim_heap`), run after the write lock on a
swap; and a library loaded with shared label strings builds exactly the
engine a plain ``json.load`` does.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core import AssociationGoalModel, IncrementalGoalModel, caching
from repro.core.caching import CachedModelView, build_served_view, trim_heap
from repro.data.loaders import library_from_dict
from repro.exceptions import ModelError
from repro.obs.metrics import MetricsRegistry
from repro.service import ModelManager, RecommenderService
from repro.serving import workers
from repro.storage import JsonLibraryStore

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]


@pytest.fixture
def registry():
    """A fresh process-wide registry with metrics on."""
    previous = obs.set_registry(MetricsRegistry())
    obs.enable(metrics=True)
    yield obs.get_registry()
    obs.disable()
    obs.set_registry(previous)


@pytest.fixture
def model_inits(monkeypatch):
    """Every ``AssociationGoalModel.__init__`` call from here on."""
    calls: list[AssociationGoalModel] = []
    original = AssociationGoalModel.__init__

    def spying_init(self, *args, **kwargs):
        calls.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AssociationGoalModel, "__init__", spying_init)
    return calls


def model_builds(registry: MetricsRegistry) -> int:
    family = registry.snapshot().get("repro_model_build_seconds")
    if family is None:
        return 0
    return sum(sample["count"] for sample in family["samples"].values())


def log_of(pairs) -> IncrementalGoalModel:
    log = IncrementalGoalModel()
    for goal, actions in pairs:
        log.add_implementation(goal, actions)
    return log


def call(service, path, payload=None, method="POST"):
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        method=method,
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.loads(response.read())


class TestSingleProcess:
    def test_service_construction_builds_no_model(self, registry, model_inits):
        service = RecommenderService(log_of(PAIRS), port=0, history_window_seconds=0)
        try:
            assert model_inits == []
            assert model_builds(registry) == 0
            assert isinstance(service.model, CachedModelView)
            assert service.model.csr_engine() is service.manager.snapshot().engine
            # A mutation builds the next generation from the log alone.
            service.manager.add_implementations([("leek soup", ["leek"])])
            assert model_inits == []
            assert service.model.num_implementations == len(PAIRS) + 1
        finally:
            service.stop()

    def test_put_and_delete_build_no_model(self, registry, model_inits):
        service = RecommenderService(
            log_of(PAIRS), port=0, history_window_seconds=0
        ).start()
        try:
            status, body = call(service, "/model/implementations", {
                "implementations": [{"goal": "leek soup", "actions": ["leek"]}],
            }, method="PUT")
            assert status == 200 and body["generation"] == 1
            (pid,) = body["added"]
            status, body = call(
                service, f"/model/implementations/{pid}", method="DELETE"
            )
            assert status == 200 and body["generation"] == 2
            status, health = call(service, "/health", method="GET")
            assert status == 200 and health["implementations"] == len(PAIRS)
            assert model_inits == []
            assert model_builds(registry) == 0
        finally:
            service.stop()

    def test_generation_zero_keeps_the_models_ids(self):
        model = AssociationGoalModel.from_pairs(PAIRS)
        manager = ModelManager(model)
        view = manager.snapshot().view
        # The log built from the model interns to the model's own ids.
        assert view.labels.actions == model.labels.actions
        assert view.labels.goals == model.labels.goals
        for pid in range(model.num_implementations):
            assert view.implementation(pid) == model.implementation(pid)
        # Log ids are the served ids: removing id 1 drops exactly the
        # implementation generation 0 served as 1.
        doomed = model.implementation(1)
        snap = manager.remove_implementation(1)
        remaining = {
            (impl.goal, impl.actions)
            for impl in map(snap.view.implementation, range(len(PAIRS) - 1))
        }
        assert (doomed.goal, doomed.actions) not in remaining
        assert len(remaining) == len(PAIRS) - 1

    def test_model_with_duplicate_implementations_is_frozen(
        self, registry, model_inits
    ):
        # Built directly, a model may index the same implementation twice;
        # the log deduplicates it, and generation 0 is indexed from the
        # log, so it serves the log's one implementation under its id.
        model = AssociationGoalModel(
            actions=["a", "b"],
            goals=["g"],
            impl_actions=[frozenset({0, 1}), frozenset({0, 1})],
            impl_goal=[0, 0],
        )
        model_inits.clear()
        view = ModelManager(model).snapshot().view
        assert view.num_implementations == 1
        assert view.implementation(0).actions == frozenset({"a", "b"})
        assert model_inits == []
        assert model_builds(registry) == 0


class TestWorkerBootstrap:
    def test_worker_generation_zero_serves_the_arena_model(
        self, registry, model_inits, monkeypatch
    ):
        """``_worker_main`` run in-process: the worker serves the parent's
        engine, rebuilt over the arena with the parent's label tables, and
        indexes nothing itself."""
        log = log_of(PAIRS)
        arena, labels = workers._build_arena(log)
        assert arena is not None and labels is not None
        built = build_served_view(log).csr_engine().export_arrays()
        captured: list[RecommenderService] = []

        class CapturingService(RecommenderService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.append(self)

        monkeypatch.setattr(
            "repro.service.RecommenderService", CapturingService
        )
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        # Queued before the worker starts: its control thread reads it
        # right after the ready handshake and the worker drains.
        parent_conn.send(("drain",))
        config = workers._WorkerConfig(
            index=0,
            conn=child_conn,
            host="127.0.0.1",
            port=0,
            log=log,
            labels=labels,
            arena=arena,
            initial_generation=0,
            listen_socket=None,
            reuse_port=False,
            drain_timeout=5.0,
            parent_pid=os.getppid(),
            service_kwargs={"history_window_seconds": 0},
        )
        handlers = {
            sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            assert workers._worker_main(config) == 0
            (service,) = captured
            snap = service.manager.snapshot()
            assert snap.generation == 0
            assert snap.engine.labels is labels
            served = snap.engine.export_arrays()
            assert served.keys() == built.keys()
            for name, array in built.items():
                assert served[name].dtype == array.dtype
                assert np.array_equal(served[name], array)
            assert model_inits == []
            assert model_builds(registry) == 0
            service.stop()
            del snap, served
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
            arena._shm.unlink()  # the worker marked its copy inherited
            parent_conn.close()


class TestTrimHeap:
    def test_is_a_noop_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(caching, "_MALLOC_TRIM", None)
        assert trim_heap() is None
        assert build_served_view(log_of(PAIRS)).num_implementations == len(PAIRS)

    def test_calls_malloc_trim_with_zero(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(caching, "_MALLOC_TRIM", calls.append)
        trim_heap()
        assert calls == [0]


@pytest.fixture
def trims(monkeypatch):
    """One entry per ``trim_heap`` call: whether a manager's write lock was
    held at the time (``None`` before a service exists)."""
    calls: list[bool | None] = []
    services: list[RecommenderService] = []

    def spy() -> None:
        calls.append(
            services[0].manager._lock._writer_active if services else None
        )

    monkeypatch.setattr(caching, "trim_heap", spy)
    return calls, services


class TestOneTrimPerGenerationBuild:
    def test_start_up_put_and_delete(self, trims):
        calls, services = trims
        service = RecommenderService(log_of(PAIRS), port=0, history_window_seconds=0)
        services.append(service)
        service.start()
        try:
            assert calls == [None]
            status, body = call(service, "/model/implementations", {
                "implementations": [{"goal": "leek soup", "actions": ["leek"]}],
            }, method="PUT")
            assert status == 200 and body["generation"] == 1
            # After the swap's write lock was released.
            assert calls == [None, False]
            (pid,) = body["added"]
            status, body = call(
                service, f"/model/implementations/{pid}", method="DELETE"
            )
            assert status == 200 and body["generation"] == 2
            assert calls == [None, False, False]
            # Reads build nothing.
            status, _ = call(
                service, "/recommend", {"activity": ["potatoes"], "k": 3}
            )
            assert status == 200
            assert calls == [None, False, False]
        finally:
            service.stop()

    def test_a_failed_delete_builds_and_trims_nothing(self, trims):
        calls, _ = trims
        service = RecommenderService(log_of(PAIRS), port=0, history_window_seconds=0)
        try:
            with pytest.raises(ModelError, match="no live implementation"):
                service.manager.remove_implementation(99)
            assert calls == [None]
        finally:
            service.stop()

    def test_pool_parent_arena_build(self, trims):
        calls, _ = trims
        arena, labels = workers._build_arena(log_of(PAIRS))
        assert arena is not None
        arena.close()
        assert calls == [None]


def test_shared_labels_build_the_same_engine(tmp_path, foodmart_tiny):
    path = tmp_path / "lib.json"
    JsonLibraryStore(path).save(foodmart_tiny.library)
    shared = JsonLibraryStore(path).load()
    plain = library_from_dict(json.loads(path.read_text(encoding="utf-8")))
    assert [(i.goal, i.actions) for i in shared] == [
        (i.goal, i.actions) for i in plain
    ]
    want = build_served_view(IncrementalGoalModel.from_library(plain))
    got = build_served_view(IncrementalGoalModel.from_library(shared))
    want_arrays = want.csr_engine().export_arrays()
    got_arrays = got.csr_engine().export_arrays()
    assert got_arrays.keys() == want_arrays.keys()
    for name, array in want_arrays.items():
        assert got_arrays[name].dtype == array.dtype, name
        np.testing.assert_array_equal(got_arrays[name], array, err_msg=name)
    assert got.labels.actions == want.labels.actions
    assert got.labels.goals == want.labels.goals
