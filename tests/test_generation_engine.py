"""One CSR engine per model generation, built before it is published.

The serving layer builds each generation's
:class:`~repro.core.vectorized.BatchRecommender` completely while the
generation's snapshot is constructed: in ``ModelManager.__init__`` for
the first generation and under the swap's write lock for every mutation.
Every engine consumer then reads that one object.  These tests pin:

- every engine consumer of a served generation (``/recommend``,
  ``?tier=approx``, ``/recommend/batch`` and the quality monitor's sampled
  reads) scores through the snapshot's one engine, and reads build none;
- a mutation's response returns only after the new generation's engine
  exists;
- concurrent first reads after a swap all see the same engine object;
- an engine handed to the manager serves the first generation only.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel, IncrementalGoalModel
from repro.core.recommender import PAPER_STRATEGIES
from repro.core.vectorized import BatchRecommender
from repro.obs.metrics import MetricsRegistry
from repro.service import ModelManager, RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
    ("carrot cake", {"carrots", "flour", "butter", "sugar"}),
]

_ENGINE_ENTRY_POINTS = (
    "rank", "pruned_breadth_rank", "recommend_many", "space_sizes",
)


@pytest.fixture
def engine_log(monkeypatch):
    """Record every engine build and every engine entry-point call.

    Returns ``(builds, calls)``: the engines constructed by
    ``BatchRecommender.__init__``, and ``(entry_point, engine)`` pairs.
    """
    builds: list[BatchRecommender] = []
    calls: list[tuple[str, BatchRecommender]] = []
    original_init = BatchRecommender.__init__

    def counting_init(self, model):
        original_init(self, model)
        builds.append(self)

    monkeypatch.setattr(BatchRecommender, "__init__", counting_init)
    for name in _ENGINE_ENTRY_POINTS:
        original = getattr(BatchRecommender, name)

        def recording(self, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BatchRecommender, name, recording)
    return builds, calls


@pytest.fixture
def service(request):
    """A service without trace detail, sampling spaces on every read.

    With trace detail off, the only ``space_sizes`` caller is the quality
    monitor, so its sampled reads are visible in the engine log.
    """
    previous_registry = obs.set_registry(MetricsRegistry())
    server = RecommenderService(
        AssociationGoalModel.from_pairs(PAIRS), port=0, trace_detail=False,
    ).start()
    server.quality.space_sample_every = 1

    def teardown():
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)

    request.addfinalizer(teardown)
    return server


def call(service, path, payload, method="POST"):
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.port}{path}",
        data=json.dumps(payload).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def read_every_route(service, activity):
    """Drive each engine consumer once with a fresh (uncached) activity."""
    for strategy in PAPER_STRATEGIES:
        status, _ = call(service, "/recommend", {
            "activity": activity, "strategy": strategy, "k": 3,
        })
        assert status == 200
    status, _ = call(service, "/recommend?tier=approx", {
        "activity": activity, "k": 3,
    })
    assert status == 200
    status, _ = call(service, "/recommend/batch", {
        "activities": [activity, []], "strategy": "breadth", "k": 3,
    })
    assert status == 200


class TestServedGeneration:
    def test_every_consumer_reads_the_snapshot_engine(
        self, engine_log, service
    ):
        builds, calls = engine_log
        snap = service.manager.snapshot()
        engine = snap.engine
        assert isinstance(engine, BatchRecommender)
        assert snap.recommender.csr_engine() is engine
        assert snap.recommender.model.csr_engine() is engine
        built_at_start = len(builds)

        read_every_route(service, ["potatoes", "carrots"])

        assert {name for name, _ in calls} == set(_ENGINE_ENTRY_POINTS)
        assert all(used is engine for _, used in calls)
        assert len(builds) == built_at_start, "a read built an engine"

    def test_put_returns_after_the_new_engine_exists(
        self, engine_log, service
    ):
        builds, calls = engine_log
        before = service.manager.snapshot().engine
        built_before = len(builds)

        status, body = call(service, "/model/implementations", {
            "implementations": [
                {"goal": "leek soup", "actions": ["leek", "potatoes"]},
            ],
        }, method="PUT")

        assert status == 200 and body["generation"] == 1
        assert len(builds) == built_before + 1
        snap = service.manager.snapshot()
        assert snap.generation == 1
        assert snap.engine is builds[-1]
        assert snap.engine is not before
        assert snap.view.csr_engine() is snap.engine

        calls.clear()
        read_every_route(service, ["leek", "carrots"])
        assert calls and all(used is snap.engine for _, used in calls)
        assert len(builds) == built_before + 1, "a read built an engine"


class TestConcurrentFirstReads:
    def test_first_reads_after_a_swap_share_one_engine(self, engine_log):
        builds, calls = engine_log
        manager = ModelManager(
            IncrementalGoalModel.from_library(
                AssociationGoalModel.from_pairs(PAIRS).to_library()
            ),
            cache_size=0,
        )
        readers = 8
        start = threading.Barrier(readers + 1)
        seen: list[BatchRecommender | None] = [None] * readers
        errors: list[BaseException] = []

        def first_read(index: int) -> None:
            try:
                start.wait(timeout=10)
                while True:
                    _, _, generation = manager.recommend(
                        ["potatoes", "leek"], k=3,
                        strategy=PAPER_STRATEGIES[index % 4],
                    )
                    if generation == 1:
                        break
                seen[index] = manager.snapshot().engine
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=first_read, args=(index,))
            for index in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            start.wait(timeout=10)
            _, snap = manager.apply_add_implementations(
                [("leek soup", ["leek", "potatoes"])]
            )
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert snap.engine is not None
        assert all(engine is snap.engine for engine in seen)
        assert len(builds) == 2, "one engine per generation, no more"
        ranked_by = {id(engine) for name, engine in calls if name == "rank"}
        assert id(snap.engine) in ranked_by
        assert ranked_by <= {id(builds[0]), id(snap.engine)}


class TestInitialEngine:
    def test_given_engine_serves_the_first_generation_only(self):
        model = AssociationGoalModel.from_pairs(PAIRS)
        given = BatchRecommender(model)
        manager = ModelManager(
            IncrementalGoalModel.from_library(model.to_library()),
            engine=given,
        )
        assert manager.snapshot().engine is given
        _, snap = manager.apply_add_implementations(
            [("leek soup", ["leek", "potatoes"])]
        )
        assert snap.engine is not given
        assert snap.view.csr_engine() is snap.engine
