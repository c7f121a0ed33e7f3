"""Property/parity suite: the cached and batched paths must be bit-identical
to the reference recommender.

Three serving-path variants are checked against ``GoalRecommender`` on
randomized libraries and on an adversarially tie-heavy library (many equal
scores, so any tie-breaking divergence surfaces):

- ``BatchRecommender.recommend`` (per-activity vectorized path),
- ``BatchRecommender.recommend_many`` (chunked bulk path),
- ``CachingRecommender`` (LRU front, including the hit path),

and the parity must survive a cache-invalidating mutation (implementations
added and removed through ``IncrementalGoalModel``, model refrozen).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    AssociationGoalModel,
    CachingRecommender,
    GoalRecommender,
    IncrementalGoalModel,
    LRUCache,
)
from repro.core.vectorized import BatchRecommender

STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")


def random_pairs(rng: random.Random, implementations: int = 40):
    """A random library over 10 goals and 26 actions with heavy overlap."""
    goals = [f"g{i}" for i in range(10)]
    actions = [f"a{i:02d}" for i in range(26)]
    pairs = []
    for _ in range(implementations):
        size = rng.randint(2, 6)
        pairs.append((rng.choice(goals), set(rng.sample(actions, size))))
    return pairs


def tie_heavy_pairs():
    """A library built to produce score collisions everywhere.

    Every goal has several implementations of identical shape over disjoint
    action blocks, so distinct candidates tie on every strategy's score and
    only the deterministic tie-break (ascending action id) orders them.
    """
    pairs = []
    for block in range(6):
        base = [f"t{block}_{i}" for i in range(4)]
        for goal_index in range(3):
            pairs.append((f"goal{goal_index}", set(base)))
            pairs.append(
                (f"goal{goal_index}", set(base[:2]) | {f"x{block}_{goal_index}"})
            )
    # One shared action links the blocks so activities reach across them.
    pairs.append(("bridge", {"t0_0", "t1_0", "t2_0", "t3_0"}))
    return pairs


def sample_activities(rng: random.Random, model, count: int = 30):
    """Random activities over the model's actions, including edge shapes."""
    labels = [model.action_label(aid) for aid in range(model.num_actions)]
    activities = [set(), {labels[0]}, set(labels[:3])]
    for _ in range(count):
        size = rng.randint(1, 5)
        activities.append(set(rng.sample(labels, min(size, len(labels)))))
    # Deduplicate (stable order): the cache checks below assume the first
    # lookup of each activity is a miss.
    unique = []
    seen = set()
    for activity in activities:
        key = frozenset(activity)
        if key not in seen:
            seen.add(key)
            unique.append(activity)
    return unique


def assert_identical(expected, actual, context):
    """Compare a serving-path result against the reference result.

    Actions and scores must be bit-identical for *every* strategy.
    Breadth and the focus variants work on small integer counts and their
    ratios, exact in float64 on both paths.  ``best_match`` is exact too
    because both paths accumulate integer-valued dot products and norms
    (exact in float64) and then evaluate the same
    ``1 - dot / sqrt(norm_u * norm_v)`` expression — one sqrt of the
    product, never ``sqrt(norm_u) * sqrt(norm_v)``, which differs in the
    last ulp and would let tied candidates permute.
    """
    assert actual.actions() == expected.actions(), context
    for exp_item, act_item in zip(expected, actual):
        assert act_item.score == exp_item.score, (
            f"{context}: score diverged on {act_item.action}"
        )
    # The recorded activity must agree too: both paths decode the *encoded*
    # activity, dropping labels the model has never seen (regression for
    # the batch path echoing raw ids in the ``activity`` field).
    assert actual.activity == expected.activity, (
        f"{context}: activity field diverged"
    )


def check_parity(model, activities, k=10):
    reference = GoalRecommender(model)
    batch = BatchRecommender(model)
    caching = CachingRecommender(reference, LRUCache(256, name="parity"))
    for strategy in STRATEGIES:
        expected = [
            reference.recommend(activity, k=k, strategy=strategy)
            for activity in activities
        ]
        for activity, want in zip(activities, expected):
            got = batch.recommend(activity, k=k, strategy=strategy)
            assert_identical(
                want, got, f"batch/{strategy}/{sorted(activity)}"
            )
            # Twice through the cache: miss path, then hit path.  The cache
            # wraps the reference recommender, so scores are bit-identical
            # for every strategy here.
            first, hit1 = caching.recommend(activity, k=k, strategy=strategy)
            second, hit2 = caching.recommend(activity, k=k, strategy=strategy)
            assert (hit1, hit2) == (False, True)
            assert_identical(want, first, f"cache/{strategy}/{sorted(activity)}")
            assert second is first
        # Bulk path.
        many = batch.recommend_many(
            [frozenset(activity) for activity in activities],
            k=k, strategy=strategy,
        )
        for activity, want, got in zip(activities, expected, many):
            assert_identical(
                want, got, f"many/{strategy}/{sorted(activity)}"
            )


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_libraries(self, seed):
        rng = random.Random(seed)
        model = AssociationGoalModel.from_pairs(random_pairs(rng))
        check_parity(model, sample_activities(rng, model))

    def test_tie_heavy_library(self):
        rng = random.Random(99)
        model = AssociationGoalModel.from_pairs(tie_heavy_pairs())
        check_parity(model, sample_activities(rng, model))

    def test_best_match_cosine_ties_order_identically(self):
        """Regression for the ``sqrt(a)*sqrt(b)`` vs ``sqrt(a*b)`` 1-ulp bug.

        Candidates engineered to carry the *same* cosine distance to the
        profile must come back in the same (ascending-id) order from the
        scalar and the vectorized path.  Before the fix the vectorized
        ``best_match`` normalized with two square roots, which lands one
        ulp away from the scalar's single square root for some integer
        norm products — enough to split a tie group and permute the
        ranking.
        """
        # Four goals with symmetric profiles: every yN action ends up at
        # the same distance from an activity inside the shared core.
        pairs = []
        for i in range(4):
            pairs.append((f"goal{i}", {"core0", "core1", "core2", f"y{i}"}))
        pairs.append(("hub", {"core0", "core1", "core2"}))
        model = AssociationGoalModel.from_pairs(pairs)
        reference = GoalRecommender(model)
        batch = BatchRecommender(model)
        for activity in ({"core0"}, {"core0", "core1"},
                         {"core0", "core1", "core2"}):
            want = reference.recommend(activity, k=10, strategy="best_match")
            got = batch.recommend(activity, k=10, strategy="best_match")
            assert_identical(want, got, f"best_match-ties/{sorted(activity)}")


class TestActivityFieldParity:
    """The ``activity`` echoed on results is label-level and OOV-free."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_labels_dropped_identically(self, strategy):
        rng = random.Random(3)
        model = AssociationGoalModel.from_pairs(random_pairs(rng))
        reference = GoalRecommender(model)
        batch = BatchRecommender(model)
        known = {model.action_label(0), model.action_label(1)}
        activity = known | {"never-seen", "also-unknown"}
        want = reference.recommend(activity, k=10, strategy=strategy)
        got = batch.recommend(activity, k=10, strategy=strategy)
        assert want.activity == known
        assert_identical(want, got, f"oov/{strategy}")
        # The bulk path echoes each row's own activity.
        many = batch.recommend_many(
            [frozenset(activity), frozenset(known)],
            k=10, strategy=strategy,
        )
        assert [r.activity for r in many] == [known, known]

    def test_activity_is_labels_not_ids(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        result = batch.recommend({"a1"}, k=5)
        assert result.activity == frozenset({"a1"})


class TestParityAcrossMutation:
    def test_parity_survives_add_and_remove(self):
        """The serving paths agree before and after a hot mutation."""
        rng = random.Random(7)
        incremental = IncrementalGoalModel()
        pids = [
            incremental.add_implementation(goal, actions)
            for goal, actions in random_pairs(rng, implementations=30)
        ]
        frozen = incremental.freeze()
        activities = sample_activities(rng, frozen, count=15)
        check_parity(frozen, activities)
        # The cache-invalidating mutation: drop a third, add fresh ones.
        for pid in pids[::3]:
            incremental.remove_implementation(pid)
        for goal, actions in random_pairs(rng, implementations=10):
            incremental.add_implementation(goal, actions)
        mutated = incremental.freeze()
        activities = [
            {a for a in activity if mutated.has_action(a)}
            for activity in activities
        ]
        check_parity(mutated, activities)

    def test_stale_cache_would_be_wrong(self):
        """The invalidation is load-bearing: pre- and post-mutation results
        differ, so serving a stale entry would be observable."""
        incremental = IncrementalGoalModel()
        incremental.add_implementation("salad", {"potatoes", "carrots", "pickles"})
        incremental.add_implementation("mash", {"potatoes", "butter"})
        before = GoalRecommender(incremental.freeze()).recommend(
            {"potatoes"}, k=5
        )
        incremental.remove_implementation(0)
        after = GoalRecommender(incremental.freeze()).recommend(
            {"potatoes"}, k=5
        )
        assert before.actions() != after.actions()
