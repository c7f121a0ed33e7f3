"""Integration tests for the HTTP recommendation service."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import RecommenderService


@pytest.fixture(scope="module")
def service(request):
    from repro.core import AssociationGoalModel

    model = AssociationGoalModel.from_pairs(
        [
            ("olivier salad", {"potatoes", "carrots", "pickles"}),
            ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
            ("pan-fried carrots", {"carrots", "nutmeg", "oil"}),
        ]
    )
    server = RecommenderService(model, port=0).start()
    request.addfinalizer(server.stop)
    return server


def call(service, path, payload=None, method=None):
    url = f"http://127.0.0.1:{service.port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealth:
    def test_health_reports_model_stats(self, service):
        status, body = call(service, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["implementations"] == 3
        assert "breadth" in body["strategies"]

    def test_unknown_get_path_404(self, service):
        status, body = call(service, "/nope")
        assert status == 404


class TestRecommend:
    def test_basic_recommendation(self, service):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes", "carrots"], "k": 3},
        )
        assert status == 200
        actions = [row["action"] for row in body["recommendations"]]
        assert actions[0] == "pickles"
        assert body["strategy"] == "breadth"

    def test_strategy_selection(self, service):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes"], "strategy": "focus_cl", "k": 2},
        )
        assert status == 200
        assert body["strategy"] == "focus_cl"

    def test_unknown_strategy_422(self, service):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes"], "strategy": "nope"},
        )
        assert status == 422
        assert "unknown strategy" in body["error"]

    def test_non_positive_k_400(self, service):
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"], "k": -1}
        )
        assert status == 400
        assert "positive" in body["error"]

    def test_boolean_k_400(self, service):
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"], "k": True}
        )
        assert status == 400

    def test_non_integer_k_400(self, service):
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"], "k": "ten"}
        )
        assert status == 400

    def test_missing_activity_400(self, service):
        status, body = call(service, "/recommend", {"k": 3})
        assert status == 400
        assert "activity" in body["error"]

    def test_invalid_json_400(self, service):
        url = f"http://127.0.0.1:{service.port}/recommend"
        request = urllib.request.Request(
            url, data=b"{broken", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=5)
            raise AssertionError("expected HTTPError")
        except urllib.error.HTTPError as error:
            assert error.code == 400


class TestSpaces:
    def test_spaces_match_model(self, service):
        status, body = call(service, "/spaces", {"activity": ["potatoes"]})
        assert status == 200
        assert body["goal_space"] == ["mashed potatoes", "olivier salad"]
        assert "pickles" in body["action_space"]

    def test_unknown_actions_yield_empty_spaces(self, service):
        status, body = call(service, "/spaces", {"activity": ["martian"]})
        assert status == 200
        assert body["goal_space"] == []

    def test_one_engine_space_query_per_request(self, service, monkeypatch):
        from repro.core.vectorized import BatchRecommender

        calls = []
        masks = BatchRecommender._space_masks

        def counting(self, activity):
            calls.append(activity)
            return masks(self, activity)

        monkeypatch.setattr(BatchRecommender, "_space_masks", counting)
        status, _ = call(service, "/spaces", {"activity": ["potatoes"]})
        assert status == 200
        assert len(calls) == 1


class TestExplain:
    def test_evidence_returned(self, service):
        status, body = call(
            service,
            "/explain",
            {"activity": ["potatoes", "carrots"], "action": "nutmeg"},
        )
        assert status == 200
        assert set(body["evidence"]) == {"mashed potatoes", "pan-fried carrots"}

    def test_unknown_action_422(self, service):
        status, body = call(
            service, "/explain", {"activity": ["potatoes"], "action": "zzz"}
        )
        assert status == 422

    def test_missing_action_400(self, service):
        status, body = call(service, "/explain", {"activity": ["potatoes"]})
        assert status == 400

    def test_unknown_post_path_404(self, service):
        status, body = call(service, "/elsewhere", {"activity": []})
        assert status == 404


class TestLifecycle:
    def test_double_start_rejected(self, service):
        with pytest.raises(RuntimeError, match="already started"):
            service.start()

    def test_context_manager(self):
        from repro.core import AssociationGoalModel

        model = AssociationGoalModel.from_pairs([("g", {"a", "b"})])
        with RecommenderService(model, port=0) as server:
            status, body = call(server, "/health")
            assert status == 200
        # After stop, a new connection must fail.
        with pytest.raises(urllib.error.URLError):
            call(server, "/health")

    def test_stop_idempotent(self):
        from repro.core import AssociationGoalModel

        model = AssociationGoalModel.from_pairs([("g", {"a", "b"})])
        server = RecommenderService(model, port=0).start()
        server.stop()
        server.stop()  # no-op


class TestGoalsEndpoint:
    def test_goals_inferred(self, service):
        status, body = call(
            service, "/goals",
            {"activity": ["potatoes", "carrots"], "top": 2},
        )
        assert status == 200
        goals = [row["goal"] for row in body["goals"]]
        assert "olivier salad" in goals

    def test_scorer_selectable(self, service):
        status, body = call(
            service, "/goals",
            {"activity": ["potatoes"], "scorer": "evidence"},
        )
        assert status == 200
        assert body["scorer"] == "evidence"

    def test_unknown_scorer_400(self, service):
        status, body = call(
            service, "/goals", {"activity": ["potatoes"], "scorer": "vibes"}
        )
        assert status == 400

    def test_invalid_top_400(self, service):
        status, body = call(
            service, "/goals", {"activity": ["potatoes"], "top": 0}
        )
        assert status == 400


class TestRelatedEndpoint:
    def test_related_returned(self, service):
        status, body = call(service, "/related", {"action": "nutmeg", "k": 3})
        assert status == 200
        related = {row["action"] for row in body["related"]}
        assert {"butter", "oil"} & related

    def test_unknown_action_422(self, service):
        status, body = call(service, "/related", {"action": "martian"})
        assert status == 422

    def test_missing_action_400(self, service):
        status, body = call(service, "/related", {"k": 3})
        assert status == 400

    def test_invalid_k_400(self, service):
        status, body = call(service, "/related", {"action": "nutmeg", "k": -1})
        assert status == 400


class TestConcurrency:
    def test_parallel_requests_consistent(self, service):
        """ThreadingHTTPServer: concurrent identical requests must agree."""
        import threading

        payload = {"activity": ["potatoes", "carrots"], "k": 3}
        results = []
        errors = []

        def worker():
            try:
                status, body = call(service, "/recommend", payload)
                results.append((status, tuple(
                    row["action"] for row in body["recommendations"]
                )))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(results)) == 1
        assert results[0][0] == 200


class TestServingTiers:
    def test_default_tier_is_exact(self, service):
        status, body = call(
            service, "/recommend", {"activity": ["potatoes"], "k": 3}
        )
        assert status == 200
        assert body["tier"] == "exact"
        assert body["strategy"] == "breadth"

    def test_approx_tier_via_body(self, service):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes"], "k": 3, "tier": "approx"},
        )
        assert status == 200
        assert body["tier"] == "approx"
        assert body["strategy"] == "breadth_pruned"
        assert body["recommendations"]

    def test_approx_tier_via_query_param_wins(self, service):
        status, body = call(
            service,
            "/recommend?tier=approx",
            {"activity": ["potatoes"], "k": 3, "tier": "exact"},
        )
        assert status == 200
        assert body["tier"] == "approx"
        assert body["strategy"] == "breadth_pruned"

    @pytest.mark.parametrize("tier", [None, "exact"])
    def test_pruned_strategy_by_name_echoes_approx_tier(self, service, tier):
        """The echoed tier follows the strategy that ran, not the request's
        tier key: naming the pruned strategy runs the approximate tier."""
        payload = {"activity": ["potatoes"], "k": 3, "strategy": "breadth_pruned"}
        if tier is not None:
            payload["tier"] = tier
        status, body = call(service, "/recommend", payload)
        assert status == 200
        assert body["strategy"] == "breadth_pruned"
        assert body["tier"] == "approx"

    @pytest.mark.parametrize(
        "strategy", ["focus_cmp", "focus_cl", "best_match", "ensemble"]
    )
    def test_other_strategies_echo_exact_tier(self, service, strategy):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes"], "k": 3, "strategy": strategy},
        )
        assert status == 200
        assert body["tier"] == "exact"

    def test_approx_matches_exact_at_toy_scale(self, service):
        """Connectivity here is far below the default budget, so the pruned
        tier returns the exact Breadth ranking."""
        payload = {"activity": ["potatoes", "carrots"], "k": 5}
        _, exact = call(service, "/recommend", payload)
        _, approx = call(
            service, "/recommend", {**payload, "tier": "approx"}
        )
        assert approx["recommendations"] == exact["recommendations"]

    def test_invalid_tier_400(self, service):
        status, body = call(
            service,
            "/recommend",
            {"activity": ["potatoes"], "k": 3, "tier": "turbo"},
        )
        assert status == 400
        assert "tier" in body["error"]

    def test_approx_requires_breadth(self, service):
        status, body = call(
            service,
            "/recommend",
            {
                "activity": ["potatoes"],
                "k": 3,
                "tier": "approx",
                "strategy": "focus_cl",
            },
        )
        assert status == 400
        assert body["error"] == "tier 'approx' requires strategy 'breadth'"

    def test_approx_budget_survives_a_swap(self):
        """Every generation's recommender pins the service's budget: after
        a ``PUT``, ``tier=approx`` still answers the scalar
        ``PrunedBreadthStrategy(budget=1)`` ranking, not the default's."""
        from repro.core import AssociationGoalModel
        from repro.core.approximate import PrunedBreadthStrategy

        pairs = [("g1", {"a", "z", "c"}), ("g2", {"a", "z", "d"})]
        added = ("g3", ["a", "z", "e"])
        server = RecommenderService(
            AssociationGoalModel.from_pairs(pairs), port=0, approx_budget=1,
            history_window_seconds=0,
        ).start()
        try:
            status, _ = call(server, "/model/implementations", {
                "implementations": [{"goal": added[0], "actions": added[1]}],
            }, method="PUT")
            assert status == 200
            status, body = call(
                server, "/recommend?tier=approx", {"activity": ["z"], "k": 5}
            )
        finally:
            server.stop()
        assert status == 200 and body["strategy"] == "breadth_pruned"
        swapped = AssociationGoalModel.from_pairs(
            [*pairs, (added[0], set(added[1]))]
        )
        activity = swapped.encode_activity(["z"])
        expected = [
            {"action": swapped.action_label(aid), "score": score}
            for aid, score in PrunedBreadthStrategy(budget=1).rank(
                swapped, activity, 5
            )
        ]
        # One posting entry per action: only "a" survives the cap, where
        # the default budget would also rank "c", "d" and "e".
        assert body["recommendations"] == expected == [
            {"action": "a", "score": 3.0}
        ]
