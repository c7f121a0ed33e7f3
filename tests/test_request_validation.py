"""Request-count validation at the library layer (S2).

``isinstance(True, int)`` holds, so a naive ``k <= 0`` check lets ``k=True``
through as 1.  The HTTP layer already rejects boolean ``k``; these tests pin
the same contract *below* it, so embedded callers (notebooks, batch jobs)
get a :class:`~repro.exceptions.RecommendationError` instead of a silent
top-1 ranking.  Every public ranking entry point is covered: the facade,
the strategy base class, and the ``BatchRecommender`` entry points
(including the pruned tier's ``budget``).

The HTTP layer's body decoding is pinned here too: a body that is not
valid UTF-8 is a client error (400), never a handler crash (500).
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.core import GoalRecommender
from repro.core.strategies.base import require_request_count
from repro.core.strategies.breadth import BreadthStrategy
from repro.core.vectorized import BatchRecommender
from repro.exceptions import RecommendationError

BAD_COUNTS = (True, False, 0, -1, 2.0, "3", None)


class TestRequireRequestCount:
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_rejects_non_positive_and_non_int(self, value):
        with pytest.raises(RecommendationError):
            require_request_count(value)

    def test_error_names_the_parameter(self):
        with pytest.raises(RecommendationError, match="budget"):
            require_request_count(True, "budget")

    def test_accepts_positive_int(self):
        require_request_count(1)
        require_request_count(10_000)


class TestFacadeAndStrategy:
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_goal_recommender_rejects(self, figure1_recommender, value):
        with pytest.raises(RecommendationError):
            figure1_recommender.recommend({"a1"}, k=value)

    def test_strategy_recommend_rejects_bool(self, figure1_model):
        activity = figure1_model.encode_activity({"a1"})
        with pytest.raises(RecommendationError):
            BreadthStrategy().recommend(figure1_model, activity, k=True)


class TestBatchRecommender:
    @pytest.mark.parametrize("value", (True, False, 0, 2.0))
    def test_recommend_rejects(self, figure1_model, value):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError):
            batch.recommend({"a1"}, k=value)

    @pytest.mark.parametrize("value", (True, False, 0, 2.0))
    def test_recommend_many_rejects_k(self, figure1_model, value):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError):
            batch.recommend_many([frozenset({"a1"})], k=value)

    def test_pruned_budget_rejects_bool(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        activity = figure1_model.encode_activity({"a1"})
        with pytest.raises(RecommendationError, match="budget"):
            batch.pruned_breadth_rank(activity, 5, budget=True)

    def test_valid_request_passes(self, figure1_recommender):
        result = figure1_recommender.recommend({"a1"}, k=3)
        assert len(result) <= 3


class TestUndecodableBody:
    """``json.loads(bytes)`` raises ``UnicodeDecodeError`` (not
    ``JSONDecodeError``) on invalid UTF-8; both routes that read a JSON
    body must answer it as ``400 invalid JSON body``."""

    @pytest.fixture(scope="class")
    def service(self, request):
        from repro.core import AssociationGoalModel
        from repro.service import RecommenderService

        model = AssociationGoalModel.from_pairs(
            [("g1", {"a1", "a2"}), ("g2", {"a2", "a3"})]
        )
        server = RecommenderService(model, port=0).start()
        request.addfinalizer(server.stop)
        return server

    @pytest.mark.parametrize(
        "method,path",
        [("POST", "/recommend"), ("PUT", "/model/implementations")],
    )
    def test_invalid_utf8_body_is_400(self, service, method, path):
        body = b'{"activity": ["\xff"]}'
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=5
        )
        try:
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"] == "invalid JSON body"
        assert service.manager.generation == 0
