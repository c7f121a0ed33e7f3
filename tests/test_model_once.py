"""Generation 0 serves the model the caller already indexed.

A single-process ``RecommenderService(model)`` serves ``model`` itself and
a pool worker serves the model its shared-memory engine is bound to;
neither re-indexes the library before its first read.  Builds are counted
through ``repro_model_build_seconds``, which every
``AssociationGoalModel.from_library`` call records while metrics are on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import obs
from repro.core import AssociationGoalModel, IncrementalGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.service import ModelManager, RecommenderService
from repro.serving import workers

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


def model_builds(registry: MetricsRegistry) -> int:
    family = registry.snapshot().get("repro_model_build_seconds")
    if family is None:
        return 0
    return sum(sample["count"] for sample in family["samples"].values())


class TestSingleProcess:
    def test_service_construction_builds_no_model(self, registry):
        model = AssociationGoalModel.from_pairs(PAIRS)
        assert model_builds(registry) == 1  # the caller's own build
        service = RecommenderService(model, port=0, history_enabled=False)
        try:
            assert model_builds(registry) == 1
            assert service.model is model
            assert service.manager.snapshot().engine.model is model
            # A mutation freezes the log: exactly one more build.
            service.manager.add_implementations([("leek soup", ["leek"])])
            assert model_builds(registry) == 2
            assert service.model is not model
        finally:
            service.stop()

    def test_generation_zero_keeps_the_models_ids(self):
        model = AssociationGoalModel.from_pairs(PAIRS)
        manager = ModelManager(model)
        assert manager.snapshot().frozen is model
        # Log ids are the served model's ids: removing id 1 drops exactly
        # the implementation generation 0 served as 1.
        doomed = model.implementation(1)
        snap = manager.remove_implementation(1)
        remaining = {
            (impl.goal, impl.actions)
            for impl in snap.frozen.to_library()
        }
        assert (doomed.goal, doomed.actions) not in remaining
        assert len(remaining) == len(PAIRS) - 1

    def test_model_with_duplicate_implementations_is_frozen(self, registry):
        # Built directly, a model may index the same implementation twice;
        # the log deduplicates it, so the counts differ and generation 0
        # freezes the log instead of serving ids the log does not have.
        model = AssociationGoalModel(
            actions=["a", "b"],
            goals=["g"],
            impl_actions=[frozenset({0, 1}), frozenset({0, 1})],
            impl_goal=[0, 0],
        )
        manager = ModelManager(model)
        frozen = manager.snapshot().frozen
        assert frozen is not model
        assert frozen.num_implementations == 1
        assert manager.snapshot().engine.model is frozen
        assert model_builds(registry) == 1

    def test_log_with_mismatched_engine_is_frozen(self):
        from repro.core.vectorized import BatchRecommender

        engine = BatchRecommender(AssociationGoalModel.from_pairs(PAIRS))
        log = IncrementalGoalModel()
        log.add_implementation("other", ["x", "y"])
        snap = ModelManager(log, engine=engine).snapshot()
        assert snap.frozen is not engine.model
        assert snap.engine is not engine
        assert snap.engine.model is snap.frozen


class TestWorkerBootstrap:
    def test_worker_generation_zero_serves_the_arena_model(
        self, registry, monkeypatch
    ):
        """``_worker_main`` run in-process: the worker serves the parent's
        model through the arena engine and indexes nothing itself."""
        model = AssociationGoalModel.from_pairs(PAIRS)
        arena, frozen = workers._build_arena(model)
        assert arena is not None and frozen is model
        builds_before = model_builds(registry)
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
            log=IncrementalGoalModel.from_library(model.to_library()),
            frozen=frozen,
            arena=arena,
            initial_generation=0,
            listen_socket=None,
            reuse_port=False,
            drain_timeout=5.0,
            parent_pid=os.getppid(),
            service_kwargs={"history_enabled": False},
        )
        handlers = {
            sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            assert workers._worker_main(config) == 0
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
            arena._shm.unlink()  # the worker marked its copy inherited
            parent_conn.close()
        (service,) = captured
        snap = service.manager.snapshot()
        assert snap.generation == 0
        assert snap.frozen is snap.engine.model
        assert snap.frozen is model
        assert model_builds(registry) == builds_before
        service.stop()
