"""Equivalence tests: the vectorized engine must match the reference
strategies bit for bit (same actions, same order, same scores)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import AssociationGoalModel, GoalRecommender
from repro.core.vectorized import BatchRecommender
from repro.data import (
    FoodMartConfig,
    FortyThreeConfig,
    generate_foodmart,
    generate_fortythree,
)
from repro.exceptions import RecommendationError

STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")


@pytest.fixture(scope="module")
def scenarios():
    result = []
    for dataset in (
        generate_foodmart(FoodMartConfig.tiny(), seed=0),
        generate_fortythree(FortyThreeConfig.tiny(), seed=1),
    ):
        model = AssociationGoalModel.from_library(dataset.library)
        result.append(
            (
                model,
                GoalRecommender(model),
                BatchRecommender(model),
                [user.full_activity for user in dataset.users[:25]],
            )
        )
    return result


class TestEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_on_both_datasets(self, scenarios, strategy):
        for model, reference, batch, activities in scenarios:
            for activity in activities:
                expected = reference.recommend(activity, k=10, strategy=strategy)
                actual = batch.recommend(activity, k=10, strategy=strategy)
                assert actual.actions() == expected.actions(), (
                    f"{strategy}: ranking diverged for activity {sorted(activity)[:4]}"
                )
                for exp_item, act_item in zip(expected, actual):
                    assert act_item.score == pytest.approx(exp_item.score)

    def test_breadth_scores_match_reference(self, scenarios, figure1_model):
        from repro.core.strategies.breadth import BreadthStrategy

        batch = BatchRecommender(figure1_model)
        activity = figure1_model.encode_activity({"a1"})
        reference_scores = BreadthStrategy().scores(figure1_model, activity)
        ranked = dict(
            batch.rank(activity, figure1_model.num_actions, "breadth")
        )
        assert ranked == pytest.approx(reference_scores)

    def test_best_match_distances_match_reference(self, figure1_model):
        from repro.core.strategies.best_match import BestMatchStrategy

        batch = BatchRecommender(figure1_model)
        activity = figure1_model.encode_activity({"a1", "a2"})
        reference = BestMatchStrategy().distances(figure1_model, activity)
        ranked = batch.rank(activity, figure1_model.num_actions, "best_match")
        vectorized = {aid: -score for aid, score in ranked}
        assert vectorized == pytest.approx(reference)


class TestApi:
    def test_unknown_strategy_rejected(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(ValueError, match="strategy"):
            batch.rank(frozenset(), k=5, strategy="nope")

    def test_k_validated(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError, match="positive"):
            batch.recommend({"a1"}, k=0)

    def test_empty_activity_empty_result(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        for strategy in STRATEGIES:
            assert batch.recommend(set(), k=5, strategy=strategy).actions() == []

    def test_unknown_actions_dropped(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with_noise = batch.recommend({"a1", "martian"}, k=5)
        clean = batch.recommend({"a1"}, k=5)
        assert with_noise.actions() == clean.actions()

    def test_recommend_many_order(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        activities = [frozenset({"a1"}), frozenset({"a6"})]
        results = batch.recommend_many(activities, k=3)
        assert len(results) == 2
        assert results[0].activity == frozenset({"a1"})
        assert results[1].activity == frozenset({"a6"})

    def test_recommend_many_breadth_matches_per_activity_path(self, scenarios):
        for model, reference, batch, activities in scenarios:
            bulk = batch.recommend_many(
                [frozenset(a) for a in activities], k=10, strategy="breadth",
            )
            for activity, result in zip(activities, bulk):
                expected = batch.recommend(activity, k=10, strategy="breadth")
                assert result.actions() == expected.actions()
                for exp_item, act_item in zip(expected, result):
                    assert act_item.score == exp_item.score  # bit-identical

    def test_recommend_many_validates_arguments(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError, match="k must be positive"):
            batch.recommend_many([frozenset({"a1"})], k=0)
        with pytest.raises(ValueError, match="strategy"):
            batch.recommend_many([frozenset({"a1"})], strategy="nope")

    def test_recommend_many_empty_batch(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        assert batch.recommend_many([], k=5) == []

    def test_recommend_many_empty_activity(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        results = batch.recommend_many([frozenset(), {"a1"}], k=5)
        assert results[0].actions() == []
        assert results[1] == batch.recommend({"a1"}, k=5)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_recommend_many_checks_before_every_activity(
        self, figure1_model, strategy
    ):
        """The checkpoint runs before each activity, so a raising one stops
        the batch right there."""
        batch = BatchRecommender(figure1_model)
        stop_at = 2
        seen = []

        def checkpoint(index):
            seen.append(index)
            if index == stop_at:
                raise TimeoutError(index)

        with pytest.raises(TimeoutError):
            batch.recommend_many(
                [frozenset({"a1"})] * 4,
                k=5,
                strategy=strategy,
                checkpoint=checkpoint,
            )
        assert seen == list(range(stop_at + 1))

    def test_recommend_many_non_breadth_delegates(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        results = batch.recommend_many(
            [frozenset({"a1"})], k=5, strategy="focus_cmp"
        )
        expected = batch.recommend({"a1"}, k=5, strategy="focus_cmp")
        assert results[0].actions() == expected.actions()


class TestEagerBuild:
    """Construction builds the whole engine, the co-occurrence index
    included, so an engine is complete and read-only from birth."""

    @staticmethod
    def _assert_complete(engine, model):
        state = vars(engine)
        assert all(value is not None for value in state.values())
        assert not any(
            hasattr(value, "acquire") for value in state.values()
        ), "an engine holds no locks"
        col_rows, val_rows = engine._cooc
        assert len(col_rows) == len(val_rows) == model.num_actions

    def test_init_and_from_arrays_answer_identically(self, scenarios):
        for model, _, engine, activities in scenarios:
            rebuilt = BatchRecommender.from_arrays(
                model, engine.export_arrays()
            )
            for built in (engine, rebuilt):
                self._assert_complete(built, model)
            for raw in activities:
                encoded = model.encode_activity(raw)
                assert engine.space_sizes(encoded) == (
                    rebuilt.space_sizes(encoded)
                )
                assert engine.pruned_breadth_rank(encoded, 10, 4) == (
                    rebuilt.pruned_breadth_rank(encoded, 10, 4)
                )
                for strategy in STRATEGIES:
                    assert engine.rank(encoded, 10, strategy) == (
                        rebuilt.rank(encoded, 10, strategy)
                    )

    def test_reads_leave_the_engine_unchanged(self, figure1_model):
        engine = BatchRecommender(figure1_model)
        before = dict(vars(engine))
        activity = figure1_model.encode_activity({"a1", "a2"})
        for strategy in STRATEGIES:
            engine.rank(activity, 5, strategy)
        engine.pruned_breadth_rank(activity, 5, 2)
        engine.space_sizes(activity)
        after = vars(engine)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)


#: Every ``export_arrays()`` key with its dtype: the int64 CSR arrays
#: the kernels read, ``C``'s counts and the co-occurrence index.
EXPORTED_DTYPES = {
    "m_indptr64": "int64",
    "m_indices64": "int64",
    "post_indptr64": "int64",
    "post_indices64": "int64",
    "c_data": "float64",
    "c_indptr64": "int64",
    "c_indices64": "int64",
    "goal_of_impl": "int64",
    "cooc_cols": "int64",
    "cooc_vals": "float64",
    "cooc_indptr": "int64",
}


class TestCsrShape:
    """``M`` is built straight from the id-sorted action lists; it must be
    the structure a COO conversion of the implementation entries gives."""

    @staticmethod
    def _coo_reference(model):
        rows, cols = [], []
        for pid in range(model.num_implementations):
            for aid in model.implementation_actions(pid):
                rows.append(pid)
                cols.append(aid)
        return sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(model.num_implementations, model.num_actions),
        )

    def test_m_is_canonical_with_the_coo_index_dtype(self, scenarios, figure1_model):
        models = [model for model, *_ in scenarios] + [figure1_model]
        for model in models:
            engine = BatchRecommender(model)
            reference = self._coo_reference(model)
            assert reference.has_canonical_format, "sorted, no duplicates"
            assert len(engine._m_indptr) == reference.shape[0] + 1
            for ours, theirs in (
                (engine._m_indptr, reference.indptr),
                (engine._m_indices, reference.indices),
            ):
                assert ours.dtype.kind == theirs.dtype.kind == "i"
                assert ours.dtype == np.int64
                np.testing.assert_array_equal(ours, theirs)

    def test_impl_sorted_rows_are_the_m_rows(self, scenarios):
        for model, _, engine, _ in scenarios:
            rebuilt = BatchRecommender.from_arrays(model, engine.export_arrays())
            expected = [
                sorted(model.implementation_actions(pid))
                for pid in range(model.num_implementations)
            ]
            for built in (engine, rebuilt):
                indptr, indices = built._m_indptr, built._m_indices
                rows = [
                    indices[indptr[pid]:indptr[pid + 1]].tolist()
                    for pid in range(model.num_implementations)
                ]
                assert rows == expected

    def test_export_keys_and_dtypes(self, scenarios):
        for _, _, engine, _ in scenarios:
            exported = engine.export_arrays()
            assert {
                key: array.dtype.name for key, array in exported.items()
            } == EXPORTED_DTYPES

    def test_engine_keeps_no_scipy_matrix(self, scenarios):
        for model, _, engine, _ in scenarios:
            rebuilt = BatchRecommender.from_arrays(model, engine.export_arrays())
            for built in (engine, rebuilt):
                kept = [
                    name for name, value in vars(built).items()
                    if sparse.issparse(value)
                ]
                assert kept == []
