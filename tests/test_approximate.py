"""Unit tests for the sampled and pruned Breadth approximations."""

import pytest

from repro.core import AssociationGoalModel, recall_at_k
from repro.core.approximate import PrunedBreadthStrategy, SampledBreadthStrategy
from repro.core.caching import CachedModelView
from repro.core.entities import RecommendationList, ScoredAction
from repro.core.strategies import create_strategy
from repro.core.strategies.breadth import BreadthStrategy
from repro.data import FoodMartConfig, generate_foodmart


@pytest.fixture(scope="module")
def foodmart_model():
    dataset = generate_foodmart(FoodMartConfig.tiny(), seed=0)
    return AssociationGoalModel.from_library(dataset.library)


class TestConfiguration:
    def test_budget_validated(self):
        with pytest.raises(ValueError, match="max_implementations"):
            SampledBreadthStrategy(max_implementations=0)

    def test_registered(self):
        strategy = create_strategy("breadth_sampled", max_implementations=10)
        assert isinstance(strategy, SampledBreadthStrategy)


class TestExactRegime:
    def test_under_budget_equals_exact_breadth(self, figure1_model):
        activity = figure1_model.encode_activity({"a1"})
        exact = BreadthStrategy().scores(figure1_model, activity)
        sampled = SampledBreadthStrategy(max_implementations=100).scores(
            figure1_model, activity
        )
        assert sampled == pytest.approx(exact)

    def test_sampling_rate_one_under_budget(self, figure1_model):
        strategy = SampledBreadthStrategy(max_implementations=100)
        activity = figure1_model.encode_activity({"a1"})
        assert strategy.sampling_rate(figure1_model, activity) == 1.0

    def test_empty_activity(self, figure1_model):
        strategy = SampledBreadthStrategy(max_implementations=2)
        assert strategy.rank(figure1_model, frozenset(), k=5) == []
        assert strategy.sampling_rate(figure1_model, frozenset()) == 1.0


class TestSampledRegime:
    @pytest.fixture
    def activity(self, foodmart_model):
        labels = sorted(foodmart_model.action_labels())[:5]
        return foodmart_model.encode_activity(labels)

    def test_budget_respected(self, foodmart_model, activity):
        strategy = SampledBreadthStrategy(max_implementations=20)
        rate = strategy.sampling_rate(foodmart_model, activity)
        assert rate < 1.0

    def test_deterministic_per_request(self, foodmart_model, activity):
        strategy = SampledBreadthStrategy(max_implementations=20, seed=1)
        first = strategy.rank(foodmart_model, activity, k=10)
        second = strategy.rank(foodmart_model, activity, k=10)
        assert first == second

    def test_different_seeds_sample_differently(self, foodmart_model, activity):
        a = SampledBreadthStrategy(max_implementations=20, seed=1)
        b = SampledBreadthStrategy(max_implementations=20, seed=2)
        assert a.scores(foodmart_model, activity) != b.scores(
            foodmart_model, activity
        )

    def test_scores_scaled_unbiased_direction(self, foodmart_model, activity):
        """Estimated totals should be in the ballpark of exact totals."""
        exact = BreadthStrategy().scores(foodmart_model, activity)
        strategy = SampledBreadthStrategy(max_implementations=60, seed=0)
        sampled = strategy.scores(foodmart_model, activity)
        exact_total = sum(exact.values())
        sampled_total = sum(sampled.values())
        assert sampled_total == pytest.approx(exact_total, rel=0.5)

    def test_top_ranks_mostly_agree(self, foodmart_model):
        """With half the space sampled, top-10 overlap stays high."""
        exact = BreadthStrategy()
        hits = 0
        total = 0
        for start in range(0, 25, 5):
            labels = sorted(foodmart_model.action_labels())[start : start + 5]
            activity = foodmart_model.encode_activity(labels)
            size = len(foodmart_model.implementation_space(activity))
            strategy = SampledBreadthStrategy(
                max_implementations=max(1, size // 2), seed=0
            )
            exact_top = {a for a, _ in exact.rank(foodmart_model, activity, 10)}
            sampled_top = {
                a for a, _ in strategy.rank(foodmart_model, activity, 10)
            }
            hits += len(exact_top & sampled_top)
            total += len(exact_top)
        assert hits / total > 0.6

    def test_never_recommends_activity(self, foodmart_model, activity):
        strategy = SampledBreadthStrategy(max_implementations=20)
        ranked = strategy.rank(foodmart_model, activity, k=20)
        assert not {aid for aid, _ in ranked} & activity


class TestPrunedConfiguration:
    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            PrunedBreadthStrategy(budget=0)

    def test_registered(self):
        strategy = create_strategy("breadth_pruned", budget=7)
        assert isinstance(strategy, PrunedBreadthStrategy)
        assert strategy.budget == 7

    def test_default_budget_is_serving_default(self):
        assert PrunedBreadthStrategy().budget == 128


class TestPrunedExactRegime:
    def test_large_budget_equals_exact_breadth(self, figure1_model):
        """Connectivity below the budget makes the truncation a no-op."""
        exact = BreadthStrategy()
        pruned = PrunedBreadthStrategy(budget=1000)
        for raw in ({"a1"}, {"a1", "a2"}, {"a2", "a6"}):
            activity = figure1_model.encode_activity(raw)
            assert pruned.rank(figure1_model, activity, k=10) == (
                exact.rank(figure1_model, activity, k=10)
            )

    def test_large_budget_equals_exact_on_foodmart(self, foodmart_model):
        exact = BreadthStrategy()
        pruned = PrunedBreadthStrategy(budget=10_000)
        labels = sorted(foodmart_model.action_labels())[:4]
        activity = foodmart_model.encode_activity(labels)
        assert pruned.rank(foodmart_model, activity, k=10) == (
            exact.rank(foodmart_model, activity, k=10)
        )

    def test_empty_activity(self, figure1_model):
        assert PrunedBreadthStrategy().rank(
            figure1_model, frozenset(), k=5
        ) == []


class TestPrunedTruncation:
    def test_truncated_row_respects_budget(self, foodmart_model):
        strategy = PrunedBreadthStrategy(budget=3)
        for aid in range(min(20, foodmart_model.num_actions)):
            row = strategy._truncated_row(foodmart_model, aid)
            assert len(row) <= 3
            counts = [count for _, count in row]
            assert counts == sorted(counts, reverse=True)

    def test_tight_budget_never_recommends_activity(self, foodmart_model):
        labels = sorted(foodmart_model.action_labels())[:5]
        activity = foodmart_model.encode_activity(labels)
        ranked = PrunedBreadthStrategy(budget=2).rank(
            foodmart_model, activity, k=20
        )
        assert not {aid for aid, _ in ranked} & activity


class TestPrunedEngineParity:
    """The CSR kernel and the scalar fallback agree entry for entry."""

    @pytest.mark.parametrize("budget", (1, 2, 5, 10_000))
    def test_engine_matches_scalar_fallback(self, foodmart_model, budget):
        view = CachedModelView(foodmart_model)
        strategy = PrunedBreadthStrategy(budget=budget)
        labels = sorted(foodmart_model.action_labels())
        for raw in (labels[:3], labels[5:9], labels[:1]):
            activity = foodmart_model.encode_activity(raw)
            via_engine = strategy.rank(view, activity, k=10)
            via_scalar = strategy.rank(foodmart_model, activity, k=10)
            assert via_engine == via_scalar, f"budget={budget} raw={raw}"


class TestRecallAtK:
    def test_empty_exact_scores_one(self):
        assert recall_at_k([], [(1, 2.0)]) == 1.0

    def test_identical_rankings_score_one(self):
        ranked = [(3, 2.0), (1, 1.0)]
        assert recall_at_k(ranked, ranked) == 1.0

    def test_partial_overlap(self):
        exact = [(1, 3.0), (2, 2.0), (3, 1.0), (4, 1.0)]
        approx = [(1, 3.0), (3, 1.0), (9, 0.5), (8, 0.25)]
        assert recall_at_k(exact, approx) == 0.5

    def test_recommendation_list_inputs(self):
        exact = RecommendationList(
            strategy="breadth",
            items=(ScoredAction("x", 2.0), ScoredAction("y", 1.0)),
            activity=frozenset(),
        )
        approx = RecommendationList(
            strategy="breadth_pruned",
            items=(ScoredAction("x", 2.0), ScoredAction("z", 1.0)),
            activity=frozenset(),
        )
        assert recall_at_k(exact, approx) == 0.5
