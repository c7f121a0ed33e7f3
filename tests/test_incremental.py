"""Unit tests for the mutation log and the model its ``freeze()`` indexes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AssociationGoalModel,
    GoalImplementation,
    GoalRecommender,
    IncrementalGoalModel,
)
from repro.core.caching import build_served_view
from repro.core.strategies import create_strategy
from repro.exceptions import ModelError
from repro.storage import JsonLibraryStore


@pytest.fixture
def model(figure1_pairs):
    incremental = IncrementalGoalModel()
    for goal, actions in figure1_pairs:
        incremental.add_implementation(goal, actions)
    return incremental


def assert_id_identical(left: AssociationGoalModel, right: AssociationGoalModel):
    """Same label order and the same implementations under the same ids."""
    assert left.action_labels() == right.action_labels()
    assert left.goal_labels() == right.goal_labels()
    assert left.num_implementations == right.num_implementations
    for pid in range(left.num_implementations):
        assert left.implementation_actions(pid) == right.implementation_actions(pid)
        assert left.implementation_goal(pid) == right.implementation_goal(pid)


class TestAdd:
    def test_counts(self, model):
        assert model.num_implementations == 5
        frozen = model.freeze()
        assert frozen.num_goals == 5
        assert frozen.num_actions == 6

    def test_duplicate_returns_existing_id(self, model):
        pid = model.add_implementation("g1", {"a1", "a2", "a3"})
        assert pid == 0
        assert model.num_implementations == 5

    def test_same_set_in_another_order_returns_existing_id(self, model):
        pid = model.add_implementation("g9", ["b", "a", "c"])
        assert model.add_implementation("g9", ("c", "b", "a")) == pid
        assert model.add_implementation("g9", iter(["a", "c", "b", "a"])) == pid
        assert model.add_implementation("g9", frozenset({"c", "a", "b"})) == pid
        assert model.implementation(pid).actions == frozenset({"a", "b", "c"})
        # Another goal over the same set is another implementation.
        assert model.add_implementation("g8", ["a", "b", "c"]) == pid + 1
        assert model.num_implementations == 7

    def test_library_file_with_non_string_labels(self, tmp_path):
        """``JsonLibraryStore`` decodes such a file without sharing labels
        (``1``, ``1.0`` and ``true`` are equal keys); the log keeps each
        label as decoded and serves the reference model's ids."""
        path = tmp_path / "library.json"
        path.write_text(json.dumps({"implementations": [
            {"goal": 7, "actions": [3, 2.5, "x"]},
            {"goal": "g", "actions": [None, "x", True]},
            {"goal": 7, "actions": ["x", 2.5, 3]},
        ]}))
        library = JsonLibraryStore(path).load()
        assert len(library) == 2
        log = IncrementalGoalModel.from_library(library)
        assert log.live_implementation_ids() == [0, 1]
        assert [log.implementation(pid) for pid in (0, 1)] == list(library)
        assert log.add_implementation(7, [2.5, "x", 3]) == 0
        reference = AssociationGoalModel.from_library(library)
        served = build_served_view(log)
        assert served.labels.actions == reference.action_labels()
        assert list(map(type, served.labels.actions)) == list(
            map(type, reference.action_labels())
        )
        assert served.labels.goals == reference.goal_labels() == [7, "g"]
        for pid in (0, 1):
            assert served.implementation(pid) == reference.implementation(pid)

    def test_rows_keep_the_str_order_of_any_label(self):
        """``str`` rows sort without a key; rows of other labels still
        sort by ``str``, where ``10`` comes before ``9``."""
        log = IncrementalGoalModel()
        log.add_implementation("text", ["b10", "b9", "a"])
        log.add_implementation("ints", [9, 10, 100])
        log.add_implementation("mixed", [9, "10", None])
        assert list(log.rows()) == [
            ("text", ("a", "b10", "b9")),
            ("ints", (10, 100, 9)),
            ("mixed", ("10", 9, None)),
        ]

    def test_empty_actions_rejected(self, model):
        with pytest.raises(ModelError, match="no actions"):
            model.add_implementation("g9", [])

    def test_ids_monotonic(self, model):
        first = model.add_implementation("new", {"x"})
        model.remove_implementation(first)
        second = model.add_implementation("new2", {"y"})
        assert second > first


class TestRemove:
    def test_remove_updates_spaces(self, model):
        # g5's implementation (id 4) is {a1, a6}; removing it shrinks a1's
        # spaces in the next freeze.
        assert model.implementation(4).goal == "g5"
        model.remove_implementation(4)
        frozen = model.freeze()
        assert frozen.goal_space_labels({"a1"}) == {"g1", "g2", "g3"}
        assert "a6" not in frozen.action_space_labels({"a1"})

    def test_remove_unknown_raises(self, model):
        with pytest.raises(ModelError, match="no live"):
            model.remove_implementation(999)

    def test_double_remove_raises(self, model):
        model.remove_implementation(0)
        with pytest.raises(ModelError):
            model.remove_implementation(0)

    def test_readd_after_remove_allowed(self, model):
        model.remove_implementation(0)
        pid = model.add_implementation("g1", {"a1", "a2", "a3"})
        assert pid != 0
        assert model.freeze().goal_space_labels({"a2"}) >= {"g1"}


class TestQueriesMatchFrozenModel:
    def test_spaces_agree(self, figure1_pairs, model):
        expected = AssociationGoalModel.from_pairs(figure1_pairs)
        frozen = model.freeze()
        for activity in ({"a1"}, {"a2", "a6"}, {"a4", "a5"}):
            assert frozen.goal_space_labels(activity) == (
                expected.goal_space_labels(activity)
            )
            assert frozen.action_space_labels(activity) == (
                expected.action_space_labels(activity)
            )

    def test_strategies_run_against_incremental(self, model):
        frozen = model.freeze()
        activity = frozen.encode_activity({"a1"})
        for name in ("focus_cmp", "focus_cl", "breadth", "best_match"):
            ranked = create_strategy(name).rank(frozen, activity, k=5)
            labels = {frozen.action_label(aid) for aid, _ in ranked}
            assert labels
            assert "a1" not in labels

    def test_recommendations_change_after_update(self, model):
        before = GoalRecommender(model.freeze()).recommend({"a1"}, k=10)
        model.add_implementation("new goal", {"a1", "fresh_action"})
        after = GoalRecommender(model.freeze()).recommend({"a1"}, k=10)
        assert "fresh_action" in after.action_set()
        assert "fresh_action" not in before.action_set()


def assert_holds_no_frozenset(log: IncrementalGoalModel):
    """Each live implementation is one ``(goal, labels)`` tuple row; the
    log keeps no frozenset or GoalImplementation per implementation."""
    rows = list(log.rows())
    assert len(rows) == log.num_implementations
    for row in rows:
        assert type(row) is tuple and type(row[1]) is tuple
        assert not any(isinstance(part, frozenset) for part in (*row, *row[1]))
    for value in vars(log).values():
        items = value.items() if isinstance(value, dict) else ()
        for key, held in items:
            for part in (key, held):
                assert not isinstance(part, (frozenset, GoalImplementation))


class TestFreeze:
    def test_freeze_equivalent_queries(self, figure1_pairs, model):
        assert_id_identical(
            model.freeze(), AssociationGoalModel.from_pairs(figure1_pairs)
        )

    def test_freeze_drops_orphans(self, model):
        pid = model.add_implementation("temp", {"ephemeral"})
        model.remove_implementation(pid)
        frozen = model.freeze()
        assert not frozen.has_action("ephemeral")
        assert not frozen.has_goal("temp")

    def test_freeze_empty_raises(self):
        with pytest.raises(ModelError, match="no live"):
            IncrementalGoalModel().freeze()

    def test_from_library_roundtrip(self, recipe_library):
        incremental = IncrementalGoalModel.from_library(recipe_library)
        assert incremental.num_implementations == len(recipe_library)
        exported = incremental.to_library()
        assert [(i.goal, i.actions) for i in exported] == [
            (i.goal, i.actions) for i in recipe_library
        ]

    def test_from_library_keeps_the_librarys_implementations(self, recipe_library):
        incremental = IncrementalGoalModel.from_library(recipe_library)
        for impl in recipe_library:
            assert incremental.implementation(impl.impl_id) == impl
        assert_holds_no_frozenset(incremental)

    def test_from_library_renumbers_what_does_not_line_up(self):
        first = GoalImplementation("g", frozenset({"a"}), impl_id=0)
        unnumbered = GoalImplementation("h", frozenset({"b"}))
        duplicate = GoalImplementation("g", frozenset({"a"}), impl_id=2)
        misnumbered = GoalImplementation("k", frozenset({"c"}), impl_id=7)
        incremental = IncrementalGoalModel.from_library(
            [first, unnumbered, duplicate, misnumbered]
        )
        assert incremental.live_implementation_ids() == [0, 1, 2]
        assert incremental.implementation(0) == first
        assert incremental.implementation(1) == GoalImplementation(
            "h", frozenset({"b"}), impl_id=1
        )
        assert incremental.implementation(2) == GoalImplementation(
            "k", frozenset({"c"}), impl_id=2
        )
        assert_holds_no_frozenset(incremental)


class TestMisc:
    def test_goal_completeness(self, model):
        frozen = model.freeze()
        encoded = frozen.encode_activity({"a1", "a2"})
        assert frozen.goal_completeness(
            frozen.goal_id("g1"), encoded
        ) == pytest.approx(2 / 3)

    def test_implementation_reconstruction(self, model):
        impl = model.implementation(0)
        assert impl.goal == "g1"
        assert impl.actions == frozenset({"a1", "a2", "a3"})
        assert impl.impl_id == 0

    def test_dead_implementation_access_raises(self, model):
        model.remove_implementation(0)
        with pytest.raises(ModelError, match="no live"):
            model.implementation(0)


class TestEmptyModelLifecycle:
    """Removing the last implementation leaves an empty log that accepts
    implementations again."""

    def test_remove_all_then_stats_are_zero(self, model):
        for pid in model.live_implementation_ids():
            model.remove_implementation(pid)
        assert model.num_implementations == 0
        assert model.live_implementation_ids() == []
        assert len(model.to_library()) == 0

    def test_remove_all_freeze_message_is_clear(self, model):
        for pid in model.live_implementation_ids():
            model.remove_implementation(pid)
        with pytest.raises(
            ModelError, match="cannot freeze a model with no live"
        ):
            model.freeze()

    def test_remove_all_then_add_again(self, model):
        before = model.num_implementations
        for pid in model.live_implementation_ids():
            model.remove_implementation(pid)
        pid = model.add_implementation("revived", {"a1", "brand-new"})
        assert pid == before  # monotonic ids, never reused
        assert model.num_implementations == 1
        frozen = model.freeze()
        assert frozen.num_implementations == 1
        assert frozen.has_action("brand-new")
        assert frozen.goal_space_labels({"a1"}) == {"revived"}


class TestDerivedStatistics:
    def test_stats_match_frozen_model(self, figure1_pairs, model):
        assert model.freeze().stats() == (
            AssociationGoalModel.from_pairs(figure1_pairs).stats()
        )

    def test_stats_exclude_orphans(self, figure1_pairs, model):
        pid = model.add_implementation("temp", {"ephemeral", "a1"})
        model.remove_implementation(pid)
        # "ephemeral" and "temp" left no live implementation: the freeze
        # counts exactly what a rebuild from the live pairs would.
        assert model.freeze().stats() == (
            AssociationGoalModel.from_pairs(figure1_pairs).stats()
        )

    def test_connectivity_matches_frozen(self, figure1_pairs, model):
        assert model.freeze().connectivity() == pytest.approx(
            AssociationGoalModel.from_pairs(figure1_pairs).connectivity()
        )

    def test_live_implementation_ids_sorted(self, model):
        model.remove_implementation(1)
        model.add_implementation("late", {"a9"})
        live = model.live_implementation_ids()
        assert live == sorted(live)
        assert 1 not in live


# ----------------------------------------------------------------------
# The refreeze is id-identical
# ----------------------------------------------------------------------

#: A wide label space: random libraries, few ties.
wide_pairs = st.lists(
    st.tuples(
        st.integers(0, 30).map(lambda g: f"g{g}"),
        st.frozensets(
            st.integers(0, 60).map(lambda a: f"a{a}"), min_size=1, max_size=6
        ),
    ),
    min_size=1,
    max_size=25,
)
#: Few labels, many repeated and overlapping sets: score ties everywhere.
tie_pairs = st.lists(
    st.tuples(
        st.sampled_from(["g0", "g1"]),
        st.frozensets(st.sampled_from(["a0", "a1", "a2", "a3"]), min_size=1),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_pairs, tie_pairs))
def test_refreeze_is_id_identical(pairs):
    model = AssociationGoalModel.from_pairs(pairs)
    assert_id_identical(
        AssociationGoalModel.from_library(model.to_library()), model
    )
    assert_id_identical(
        IncrementalGoalModel.from_library(model.to_library()).freeze(), model
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_pairs, tie_pairs), st.data())
def test_refreeze_is_id_identical_after_orphaning_removals(pairs, data):
    """Removals orphan actions and goals; the freeze drops them and a
    rebuild of its own export reproduces it id for id."""
    log = IncrementalGoalModel()
    pids = [log.add_implementation(goal, actions) for goal, actions in pairs]
    live = sorted(set(pids))
    doomed = data.draw(
        st.lists(st.sampled_from(live), unique=True, max_size=len(live) - 1)
    )
    for pid in doomed:
        log.remove_implementation(pid)
    model = log.freeze()
    assert_id_identical(
        AssociationGoalModel.from_library(model.to_library()), model
    )
    assert_id_identical(
        AssociationGoalModel.from_library(log.to_library()), model
    )
