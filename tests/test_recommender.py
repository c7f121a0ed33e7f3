"""Unit tests for the GoalRecommender facade and the strategy registry."""

import pytest

from repro.core import CachedModelView, GoalRecommender, PAPER_STRATEGIES
from repro.core.strategies import STRATEGY_REGISTRY, create_strategy
from repro.exceptions import RecommendationError, StrategyNotFoundError


class TestRegistry:
    def test_paper_strategies_registered(self):
        for name in PAPER_STRATEGIES:
            assert name in STRATEGY_REGISTRY

    def test_unknown_strategy_raises_with_choices(self):
        with pytest.raises(StrategyNotFoundError) as excinfo:
            create_strategy("nope")
        assert "breadth" in str(excinfo.value)

    def test_options_forwarded(self):
        strategy = create_strategy("best_match", distance="manhattan")
        assert strategy.distance_name == "manhattan"


class TestRecommend:
    def test_default_strategy_used(self, figure1_recommender):
        result = figure1_recommender.recommend({"a1"}, k=3)
        assert result.strategy == "breadth"

    def test_explicit_strategy(self, figure1_recommender):
        result = figure1_recommender.recommend({"a1"}, k=3, strategy="focus_cl")
        assert result.strategy == "focus_cl"

    def test_k_must_be_positive(self, figure1_recommender):
        with pytest.raises(RecommendationError, match="positive"):
            figure1_recommender.recommend({"a1"}, k=0)

    def test_unknown_actions_ignored(self, figure1_recommender):
        with_noise = figure1_recommender.recommend({"a1", "martian"}, k=3)
        clean = figure1_recommender.recommend({"a1"}, k=3)
        assert with_noise.actions() == clean.actions()

    def test_fully_unknown_activity_yields_empty_list(self, figure1_recommender):
        result = figure1_recommender.recommend({"martian"}, k=3)
        assert len(result) == 0

    def test_result_never_contains_activity(self, figure1_recommender):
        result = figure1_recommender.recommend({"a1", "a2"}, k=10)
        assert not result.action_set() & {"a1", "a2"}

    def test_result_activity_recorded(self, figure1_recommender):
        result = figure1_recommender.recommend({"a1"}, k=2)
        assert result.activity == frozenset({"a1"})

    def test_strategy_options_bypass_cache(self, figure1_recommender):
        default = figure1_recommender.strategy("breadth")
        variant = figure1_recommender.strategy("breadth", variant="count")
        assert default is not variant
        assert figure1_recommender.strategy("breadth") is default


class TestRecommendAll:
    def test_runs_all_paper_strategies(self, figure1_recommender):
        results = figure1_recommender.recommend_all({"a1"}, k=3)
        assert set(results) == set(PAPER_STRATEGIES)
        for name, result in results.items():
            assert result.strategy == name

    def test_subset_of_strategies(self, figure1_recommender):
        results = figure1_recommender.recommend_all(
            {"a1"}, k=3, strategies=("breadth",)
        )
        assert list(results) == ["breadth"]


class TestExplain:
    def test_evidence_for_candidate(self, recipe_model):
        recommender = GoalRecommender(recipe_model)
        evidence = recommender.explain({"potatoes", "carrots"}, "pickles")
        assert list(evidence) == ["olivier salad"]
        assert evidence["olivier salad"] == [
            frozenset({"potatoes", "carrots", "pickles"})
        ]

    def test_multi_goal_evidence(self, recipe_model):
        recommender = GoalRecommender(recipe_model)
        evidence = recommender.explain({"potatoes", "carrots"}, "nutmeg")
        assert set(evidence) == {"mashed potatoes", "pan-fried carrots"}

    def test_unreachable_action_has_no_evidence(self, recipe_model):
        recommender = GoalRecommender(recipe_model)
        # flour is only in carrot cake, reachable through carrots - so pick
        # an activity that cannot reach it.
        evidence = recommender.explain({"pickles"}, "flour")
        assert evidence == {}


class TestCsrRouting:
    """The ``use_csr`` switch: routing is a performance choice, never a
    results choice.  CSR routing comes only from a model view that carries
    an engine."""

    @pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
    def test_csr_and_scalar_agree(self, figure1_model, strategy):
        scalar = GoalRecommender(figure1_model, use_csr=False)
        csr = GoalRecommender(CachedModelView(figure1_model))
        assert csr.csr_engine() is not None
        for activity in ({"a1"}, {"a1", "a2"}, {"a2", "a6"}, set()):
            assert csr.recommend(activity, k=10, strategy=strategy) == (
                scalar.recommend(activity, k=10, strategy=strategy)
            )

    def test_use_csr_false_never_builds_engine(self, figure1_model):
        recommender = GoalRecommender(figure1_model, use_csr=False)
        assert recommender.csr_engine() is None

    def test_use_csr_false_ignores_the_views_engine(self, figure1_model):
        view = CachedModelView(figure1_model)
        recommender = GoalRecommender(view, use_csr=False)
        assert recommender.csr_engine() is None
        chosen = recommender.strategy("breadth")
        assert recommender._runner("breadth", chosen, {}) is chosen

    def test_bare_model_defaults_to_scalar(self, figure1_model):
        # Only a model view carrying an engine routes; a bare
        # AssociationGoalModel does not, and the facade never builds one.
        recommender = GoalRecommender(figure1_model)
        assert recommender.csr_engine() is None

    def test_cached_view_auto_routes(self, figure1_model):
        view = CachedModelView(figure1_model)
        recommender = GoalRecommender(view)
        engine = recommender.csr_engine()
        assert engine is not None
        # The engine belongs to the view (generation-keyed), not to the
        # facade: a second facade over the same view shares it.
        assert GoalRecommender(view).csr_engine() is engine

    def test_options_bypass_csr(self, figure1_model):
        csr = GoalRecommender(CachedModelView(figure1_model))
        chosen = csr.strategy("breadth")
        assert csr._runner("breadth", chosen, {"x": 1}) is chosen
        assert csr._runner("breadth", chosen, {}) is not chosen

    def test_recommend_all_parity(self, figure1_model):
        scalar = GoalRecommender(figure1_model, use_csr=False)
        csr = GoalRecommender(CachedModelView(figure1_model))
        assert csr.recommend_all({"a1"}, k=5) == scalar.recommend_all(
            {"a1"}, k=5
        )


class TestDeadlineSpaceMemo:
    """A deadline-carrying request over an uncached model runs each space
    query once (S3): the pipeline memo is handed to the strategy."""

    class _CountingModel:
        def __init__(self, model):
            self._model = model
            self.implementation_space_calls = 0

        def __getattr__(self, name):
            return getattr(self._model, name)

        def implementation_space(self, activity):
            self.implementation_space_calls += 1
            return self._model.implementation_space(activity)

    def test_space_queried_once_under_deadline(self, figure1_model):
        from repro.resilience.deadlines import Deadline, deadline_scope

        spy = self._CountingModel(figure1_model)
        recommender = GoalRecommender(spy, use_csr=False)
        with deadline_scope(Deadline.after_ms(10_000)):
            result = recommender.recommend({"a1"}, k=5, strategy="breadth")
        assert result.actions()
        assert spy.implementation_space_calls == 1

    def test_no_deadline_no_extra_queries(self, figure1_model):
        spy = self._CountingModel(figure1_model)
        recommender = GoalRecommender(spy, use_csr=False)
        recommender.recommend({"a1"}, k=5, strategy="breadth")
        # Without a deadline the facade never drives the pipeline itself.
        assert spy.implementation_space_calls <= 1
