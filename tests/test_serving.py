"""Integration tests for the cached, batched, hot-reloadable serving layer.

Covers ``POST /recommend/batch`` (parity with the single-request path),
``PUT /model/implementations`` / ``DELETE /model/implementations/<id>``
(hot reload with generation bumps and cache invalidation), ``GET /model``,
the hardened edge cases (malformed ``Content-Length``, invalid ``k``), the
empty-model lifecycle, and a concurrency hammer mixing reads with hot
mutations.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import AssociationGoalModel
from repro.obs.metrics import MetricsRegistry
from repro.service import RecommenderService

PAIRS = [
    ("olivier salad", {"potatoes", "carrots", "pickles"}),
    ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
]


@pytest.fixture
def service(request):
    """A service writing into a fresh process-wide registry.

    Metric-count assertions need isolation from the rest of the suite —
    the default registry is process-global and accumulates.
    """
    previous_registry = obs.set_registry(MetricsRegistry())
    model = AssociationGoalModel.from_pairs(PAIRS)
    server = RecommenderService(model, port=0).start()

    def teardown():
        server.stop()
        obs.disable()
        obs.set_registry(previous_registry)

    request.addfinalizer(teardown)
    return server


def call(service, path, payload=None, method=None):
    url = f"http://127.0.0.1:{service.port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
            parsed = (
                json.loads(raw)
                if response.headers.get("Content-Type", "").startswith(
                    "application/json"
                )
                else raw.decode("utf-8")
            )
            return response.status, parsed
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestBatchEndpoint:
    def test_batch_matches_single_requests(self, service):
        activities = [["potatoes", "carrots"], ["potatoes"], ["oil"], []]
        status, body = call(
            service, "/recommend/batch",
            {"activities": activities, "k": 5, "strategy": "breadth"},
        )
        assert status == 200
        assert body["count"] == len(activities)
        for activity, rows in zip(activities, body["results"]):
            single_status, single = call(
                service, "/recommend",
                {"activity": activity, "k": 5, "strategy": "breadth"},
            )
            assert single_status == 200
            assert rows == single["recommendations"]

    def test_batch_carries_generation(self, service):
        status, body = call(
            service, "/recommend/batch", {"activities": [["potatoes"]]}
        )
        assert status == 200
        assert body["generation"] == 0
        assert body["strategy"] == "breadth"

    def test_batch_validates_activities_shape(self, service):
        for bad in (None, "nope", [["ok"], "not-a-list"], [[1, 2]]):
            status, body = call(
                service, "/recommend/batch", {"activities": bad}
            )
            assert status == 400
            assert "activities" in body["error"]

    def test_batch_validates_k(self, service):
        status, body = call(
            service, "/recommend/batch",
            {"activities": [["potatoes"]], "k": 0},
        )
        assert status == 400
        assert "positive" in body["error"]

    def test_batch_rejects_unknown_strategy(self, service):
        status, body = call(
            service, "/recommend/batch",
            {"activities": [["potatoes"]], "strategy": "nope"},
        )
        assert status == 400

    def test_batch_counts_metrics(self, service):
        call(service, "/recommend/batch", {"activities": [["potatoes"], []]})
        _, text = call(service, "/metrics")
        assert 'repro_batch_requests_total{strategy="breadth"} 1' in text
        assert 'repro_batch_activities_total{strategy="breadth"} 2' in text


class TestHotReload:
    def test_put_adds_implementations_and_bumps_generation(self, service):
        status, body = call(
            service, "/model/implementations",
            {
                "implementations": [
                    {"goal": "soup", "actions": ["potatoes", "leek", "salt"]}
                ]
            },
            method="PUT",
        )
        assert status == 200
        assert body["generation"] == 1
        assert body["implementations"] == 4
        assert len(body["added"]) == 1
        # The new implementation is immediately recommendable.
        status, rec = call(
            service, "/recommend", {"activity": ["leek"], "k": 5}
        )
        assert status == 200
        actions = [row["action"] for row in rec["recommendations"]]
        assert "salt" in actions

    def test_delete_removes_implementation(self, service):
        status, body = call(
            service, "/model/implementations/0", method="DELETE"
        )
        assert status == 200
        assert body == {
            "removed": 0, "generation": 1, "implementations": 2
        }
        # "pickles" only appeared in implementation 0.
        status, rec = call(
            service, "/recommend",
            {"activity": ["potatoes", "carrots"], "k": 5},
        )
        actions = [row["action"] for row in rec["recommendations"]]
        assert "pickles" not in actions

    def test_delete_unknown_id_404(self, service):
        status, body = call(
            service, "/model/implementations/99", method="DELETE"
        )
        assert status == 404
        assert "99" in body["error"]

    def test_delete_non_integer_id_400(self, service):
        status, body = call(
            service, "/model/implementations/banana", method="DELETE"
        )
        assert status == 400

    def test_put_validates_shapes(self, service):
        for bad in (
            {},
            {"implementations": []},
            {"implementations": ["nope"]},
            {"implementations": [{"goal": "g"}]},
            {"implementations": [{"goal": "g", "actions": []}]},
            {"implementations": [{"goal": 3, "actions": ["a"]}]},
            {"implementations": [{"goal": "g", "actions": [1]}]},
        ):
            status, body = call(
                service, "/model/implementations", bad, method="PUT"
            )
            assert status == 400, bad

    def test_mutation_invalidates_recommendation_cache(self, service):
        payload = {"activity": ["potatoes", "carrots"], "k": 5}
        _, first = call(service, "/recommend", payload)
        _, second = call(service, "/recommend", payload)
        assert first["cached"] is False
        assert second["cached"] is True
        call(
            service, "/model/implementations",
            {"implementations": [{"goal": "soup", "actions": ["potatoes"]}]},
            method="PUT",
        )
        _, third = call(service, "/recommend", payload)
        assert third["cached"] is False
        assert third["generation"] == 1

    def test_reload_visible_in_metrics(self, service):
        call(
            service, "/model/implementations",
            {"implementations": [{"goal": "soup", "actions": ["potatoes"]}]},
            method="PUT",
        )
        call(service, "/model/implementations/0", method="DELETE")
        _, text = call(service, "/metrics")
        assert 'repro_model_reloads_total{op="add"} 1' in text
        assert 'repro_model_reloads_total{op="remove"} 1' in text
        assert "repro_model_generation 2" in text
        assert (
            'repro_cache_invalidations_total{cache="recommendations"} 2'
            in text
        )

    def test_wrong_methods_on_reload_routes_405(self, service):
        status, _ = call(
            service, "/model/implementations", {"x": 1}, method="POST"
        )
        assert status == 405
        status, _ = call(
            service, "/model/implementations/0", {"x": 1}, method="POST"
        )
        assert status == 405


class TestHealthCounts:
    def test_health_counts_the_served_model_after_an_orphaning_delete(
        self, service
    ):
        """Labels whose last implementation was removed are not counted."""
        status, body = call(
            service, "/model/implementations",
            {"implementations": [{"goal": "temp", "actions": ["x", "y"]}]},
            method="PUT",
        )
        assert status == 200
        (pid,) = body["added"]
        status, _ = call(
            service, f"/model/implementations/{pid}", method="DELETE"
        )
        assert status == 200
        status, health = call(service, "/health")
        assert status == 200
        served = service.model
        assert (health["goals"], health["actions"]) == (
            served.num_goals, served.num_actions,
        ) == (3, 6)
        assert health["implementations"] == served.num_implementations == 3
        assert health["library"]["num_goals"] == 3
        assert health["library"]["num_actions"] == 6


class TestEmptyModelLifecycle:
    def test_remove_all_then_add_again(self, service):
        for pid in range(3):
            status, _ = call(
                service, f"/model/implementations/{pid}", method="DELETE"
            )
            assert status == 200
        status, health = call(service, "/health")
        assert status == 200
        assert health["implementations"] == 0
        assert health["goals"] == 0
        assert health["actions"] == 0
        assert set(health["library"].values()) == {0}
        # Read endpoints degrade to empty results, not 500s.
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 5}
        )
        assert status == 200
        assert body["recommendations"] == []
        status, body = call(
            service, "/recommend/batch", {"activities": [["potatoes"]]}
        )
        assert status == 200
        assert body["results"] == [[]]
        status, body = call(
            service, "/spaces", {"activity": ["potatoes"]}
        )
        assert status == 200
        assert body == {"goal_space": [], "action_space": []}
        status, _ = call(
            service, "/related", {"action": "potatoes", "k": 3}
        )
        assert status == 422
        # Adding again revives the service; ids keep growing.
        status, body = call(
            service, "/model/implementations",
            {
                "implementations": [
                    {"goal": "olivier salad",
                     "actions": ["potatoes", "carrots", "pickles"]}
                ]
            },
            method="PUT",
        )
        assert status == 200
        assert body["added"] == [3]
        assert body["generation"] == 4
        status, rec = call(
            service, "/recommend",
            {"activity": ["potatoes", "carrots"], "k": 5},
        )
        assert status == 200
        assert [row["action"] for row in rec["recommendations"]] == ["pickles"]

    def test_unknown_strategy_422_regardless_of_model_state(self, service):
        payload = {"activity": ["potatoes"], "strategy": "nope"}
        status, body = call(service, "/recommend", payload)
        assert status == 422
        assert "nope" in body["error"]
        for pid in range(3):
            call(service, f"/model/implementations/{pid}", method="DELETE")
        # The empty-model short-circuit must validate the same way.
        status, body = call(service, "/recommend", payload)
        assert status == 422
        assert "nope" in body["error"]
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"]}
        )
        assert status == 200
        assert body["recommendations"] == []


    def test_bad_goal_scorer_400_regardless_of_model_state(self, service):
        payloads = [
            {"activity": ["potatoes"], "scorer": "bogus"},
            {"activity": ["potatoes"], "scorer": 5},
        ]
        for payload in payloads:
            status, body = call(service, "/goals", payload)
            assert status == 400
        for pid in range(3):
            call(service, f"/model/implementations/{pid}", method="DELETE")
        # The empty-model short-circuit must validate the same way.
        for payload in payloads:
            status, body = call(service, "/goals", payload)
            assert status == 400
            assert body["detail"] == "body key 'scorer'"
        status, body = call(service, "/goals", {"activity": ["potatoes"]})
        assert status == 200
        assert body == {"scorer": "coverage", "goals": []}


class TestStaleSnapshotIsolation:
    def test_late_store_from_old_generation_cannot_poison_new(self, service):
        """An in-flight request of a retired snapshot must stay invisible.

        A reader resolves the snapshot, then a hot mutation swaps the
        generation and clears the cache, and only *then* does the reader
        finish and store into the shared LRU.  Without the generation in
        the key that late entry would answer new-generation lookups
        with rankings over retired (and re-densified) implementation ids.
        """
        manager = service.manager
        activity = ["potatoes", "carrots"]
        old_snap = manager.snapshot()
        # The model mutates while the old-generation request is in flight:
        # implementation 0 (olivier salad, the only one with "pickles")
        # goes away and the swap clears the cache.
        status, _ = call(service, "/model/implementations/0", method="DELETE")
        assert status == 200
        # The old-generation request now finishes, storing its result into
        # the shared cache *after* the clear.
        stale, hit = old_snap.caching_recommender.recommend(
            activity, k=5, strategy="breadth"
        )
        assert hit is False
        assert "pickles" in [str(item.action) for item in stale]
        # A new-generation request must recompute, not hit the stale entry.
        result, hit, generation = manager.recommend(activity, 5, "breadth")
        assert hit is False
        assert generation == 1
        assert "pickles" not in [str(item.action) for item in result]
        # ... and the old generation's entries never come back: repeating
        # the request hits the cache and still excludes the retired
        # implementation.
        repeat, hit, _ = manager.recommend(activity, 5, "breadth")
        assert hit is True
        assert repeat == result


class TestAtomicAdds:
    def test_invalid_pair_leaves_state_untouched(self, service):
        """A bad pair anywhere in the batch must not half-apply the adds."""
        from repro.exceptions import ModelError

        manager = service.manager
        before = manager.stats()
        with pytest.raises(ModelError, match="no actions"):
            manager.add_implementations(
                [("soup", ["leek", "salt"]), ("broken", [])]
            )
        assert manager.stats() == before
        assert manager.generation == 0


class TestModelEndpoint:
    def test_reports_generation_and_cache_stats(self, service):
        call(service, "/recommend", {"activity": ["potatoes"], "k": 5})
        call(service, "/recommend", {"activity": ["potatoes"], "k": 5})
        status, body = call(service, "/model")
        assert status == 200
        assert body["generation"] == 0
        assert body["implementations"] == 3
        assert body["max_implementation_id"] == 2
        rec_stats = body["caches"]["recommendations"]
        assert rec_stats["hits"] == 1
        assert rec_stats["misses"] == 1
        assert rec_stats["hit_rate"] == pytest.approx(0.5)


class TestHardenedEdgeCases:
    def _raw_request(self, service, request_bytes: bytes) -> bytes:
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as conn:
            conn.sendall(request_bytes)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_malformed_content_length_400(self, service):
        response = self._raw_request(
            service,
            b"POST /recommend HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: banana\r\n"
            b"Connection: close\r\n\r\n",
        )
        status_line, _, rest = response.partition(b"\r\n")
        assert b"400" in status_line
        assert b"malformed Content-Length" in rest
        # ... and it lands in the error counters, not as a 500.
        _, text = call(service, "/metrics")
        assert (
            'repro_http_errors_total{endpoint="/recommend",status="400"} 1'
            in text
        )

    def test_malformed_content_length_on_related_400(self, service):
        response = self._raw_request(
            service,
            b"POST /related HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: 12banana\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert b"400" in response.partition(b"\r\n")[0]

    def test_non_positive_k_on_related_400(self, service):
        status, body = call(
            service, "/related", {"action": "nutmeg", "k": 0}
        )
        assert status == 400
        assert "positive" in body["error"]

    def test_boolean_k_on_related_400(self, service):
        status, _ = call(
            service, "/related", {"action": "nutmeg", "k": True}
        )
        assert status == 400

    def test_client_disconnect_recorded_as_499(self, service, monkeypatch):
        """A dropped connection is accounted as 499, not re-raised."""
        from repro import service as service_module

        def drop(handler) -> None:
            raise BrokenPipeError("client went away")

        monkeypatch.setattr(service_module._Handler, "_handle_health", drop)
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as conn:
            conn.sendall(
                b"GET /health HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Connection: close\r\n\r\n"
            )
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        # Nothing was written for the aborted request ...
        assert b"".join(chunks) == b""
        # ... and it is accounted under the 499 sentinel, not status 0.
        _, text = call(service, "/metrics")
        assert (
            'repro_http_requests_total'
            '{endpoint="/health",method="GET",status="499"} 1'
        ) in text

    def test_errors_counted_per_endpoint(self, service):
        call(service, "/recommend", {"activity": ["potatoes"], "k": -3})
        call(service, "/recommend", {"activity": ["potatoes"], "k": "x"})
        call(service, "/related", {"action": "nutmeg", "k": -1})
        _, text = call(service, "/metrics")
        assert (
            'repro_http_errors_total{endpoint="/recommend",status="400"} 2'
            in text
        )
        assert (
            'repro_http_errors_total{endpoint="/related",status="400"} 1'
            in text
        )


class TestConcurrentReloads:
    def test_reads_stay_consistent_while_model_mutates(self, service):
        """Hammer /recommend from several threads during add/remove cycles.

        Every response must be a well-formed 200 whose recommendations are
        one of the two valid worlds (pickles present or absent) — never a
        500, never a torn read mixing generations.
        """
        payload = json.dumps(
            {"activity": ["potatoes", "carrots"], "k": 5}
        ).encode()
        url = f"http://127.0.0.1:{service.port}/recommend"
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                request = urllib.request.Request(
                    url, data=payload,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as resp:
                        body = json.loads(resp.read())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(f"{type(exc).__name__}: {exc}")
                    return
                actions = [
                    row["action"] for row in body["recommendations"]
                ]
                if actions and actions[0] not in ("pickles", "nutmeg"):
                    errors.append(f"unexpected head: {actions}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            impl = {
                "implementations": [
                    {"goal": "olivier salad",
                     "actions": ["potatoes", "carrots", "pickles"]}
                ]
            }
            pid = 0
            for _ in range(10):
                status, _ = call(
                    service, f"/model/implementations/{pid}", method="DELETE"
                )
                assert status == 200
                status, body = call(
                    service, "/model/implementations", impl, method="PUT"
                )
                assert status == 200
                pid = body["added"][0]
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        status, body = call(service, "/model")
        assert status == 200
        assert body["generation"] == 20
