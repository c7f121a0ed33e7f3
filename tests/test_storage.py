"""Unit tests for the JSON and SQLite library stores."""

import json

import pytest

from repro.core import AssociationGoalModel, ImplementationLibrary
from repro.exceptions import StorageError
from repro.storage import JsonLibraryStore, SqliteLibraryStore


def pairs(library: ImplementationLibrary) -> list[tuple[str, frozenset]]:
    return [(impl.goal, impl.actions) for impl in library]


class TestJsonStore:
    def test_roundtrip(self, tmp_path, recipe_library):
        store = JsonLibraryStore(tmp_path / "lib.json")
        store.save(recipe_library)
        assert pairs(store.load()) == pairs(recipe_library)

    def test_exists(self, tmp_path, recipe_library):
        store = JsonLibraryStore(tmp_path / "lib.json")
        assert not store.exists()
        store.save(recipe_library)
        assert store.exists()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no library"):
            JsonLibraryStore(tmp_path / "missing.json").load()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text("{broken")
        with pytest.raises(StorageError, match="cannot load"):
            JsonLibraryStore(path).load()

    def test_invalid_utf8_raises(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_bytes(b'{"implementations": [{"goal": "\xff", "actions": ["a"]}]}')
        with pytest.raises(StorageError, match="cannot load"):
            JsonLibraryStore(path).load()

    def test_implementations_not_a_list_raises(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text(json.dumps({"implementations": 5}))
        with pytest.raises(StorageError, match="must be a list"):
            JsonLibraryStore(path).load()

    def test_top_level_list_raises(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text(json.dumps([{"goal": "g", "actions": ["a"]}]))
        with pytest.raises(StorageError, match="must be an object"):
            JsonLibraryStore(path).load()

    def test_unhashable_action_raises(self, tmp_path):
        path = tmp_path / "lib.json"
        path.write_text(
            json.dumps({"implementations": [{"goal": "g", "actions": [["a"]]}]})
        )
        with pytest.raises(StorageError, match="malformed"):
            JsonLibraryStore(path).load()

    def test_non_string_labels_keep_their_type(self, tmp_path):
        # 1 == 1.0 == True as dict keys: a shared label would swap them.
        path = tmp_path / "lib.json"
        path.write_text(
            json.dumps(
                {
                    "implementations": [
                        {"goal": "g", "actions": [True, "x"]},
                        {"goal": "h", "actions": [1, "y"]},
                        {"goal": 1.0, "actions": ["z"]},
                    ]
                }
            )
        )
        rows = [
            (impl.goal, sorted(map(repr, impl.actions)))
            for impl in JsonLibraryStore(path).load()
        ]
        assert rows == [("g", ["'x'", "True"]), ("h", ["'y'", "1"]), (1.0, ["'z'"])]
        assert type(rows[2][0]) is float

    def test_save_overwrites(self, tmp_path, recipe_library):
        store = JsonLibraryStore(tmp_path / "lib.json")
        store.save(recipe_library)
        smaller = ImplementationLibrary()
        smaller.add_pair("only", {"x"})
        store.save(smaller)
        assert pairs(store.load()) == [("only", frozenset({"x"}))]

    def test_no_tmp_file_left_behind(self, tmp_path, recipe_library):
        store = JsonLibraryStore(tmp_path / "lib.json")
        store.save(recipe_library)
        assert list(tmp_path.glob("*.tmp")) == []


class TestSqliteStore:
    def test_roundtrip_file(self, tmp_path, recipe_library):
        with SqliteLibraryStore(tmp_path / "lib.db") as store:
            store.save(recipe_library)
            assert pairs(store.load()) == pairs(recipe_library)

    def test_roundtrip_memory(self, recipe_library):
        with SqliteLibraryStore(":memory:") as store:
            store.save(recipe_library)
            assert pairs(store.load()) == pairs(recipe_library)

    def test_exists(self, tmp_path, recipe_library):
        store = SqliteLibraryStore(tmp_path / "lib.db")
        assert not store.exists()
        store.save(recipe_library)
        assert store.exists()
        store.close()

    def test_load_empty_raises(self):
        with SqliteLibraryStore(":memory:") as store:
            with pytest.raises(StorageError, match="no library"):
                store.load()

    def test_save_replaces_previous_content(self, recipe_library):
        with SqliteLibraryStore(":memory:") as store:
            store.save(recipe_library)
            smaller = ImplementationLibrary()
            smaller.add_pair("only", {"x"})
            store.save(smaller)
            assert pairs(store.load()) == [("only", frozenset({"x"}))]

    def test_model_equivalence_after_roundtrip(self, recipe_library):
        with SqliteLibraryStore(":memory:") as store:
            store.save(recipe_library)
            restored = AssociationGoalModel.from_library(store.load())
        original = AssociationGoalModel.from_library(recipe_library)
        activity = {"potatoes", "carrots"}
        assert restored.goal_space_labels(activity) == original.goal_space_labels(
            activity
        )


class TestSqliteSpaceQueries:
    @pytest.fixture
    def store(self, recipe_library):
        with SqliteLibraryStore(":memory:") as store:
            store.save(recipe_library)
            yield store

    def test_goal_space_sql_matches_model(self, store, recipe_model):
        activity = {"potatoes", "carrots"}
        assert store.goal_space_sql(activity) == recipe_model.goal_space_labels(
            activity
        )

    def test_action_space_sql_matches_model(self, store, recipe_model):
        activity = {"nutmeg"}
        assert store.action_space_sql(activity) == recipe_model.action_space_labels(
            activity
        )

    def test_empty_activity(self, store):
        assert store.goal_space_sql([]) == set()
        assert store.action_space_sql([]) == set()

    def test_unknown_actions_ignored(self, store):
        assert store.goal_space_sql(["martian"]) == set()


class TestSqliteRanking:
    @pytest.fixture
    def store(self, recipe_library):
        with SqliteLibraryStore(":memory:") as store:
            store.save(recipe_library)
            yield store

    def test_breadth_sql_matches_reference_scores(self, store, recipe_model):
        from repro.core.strategies.breadth import BreadthStrategy

        activity = {"potatoes", "carrots"}
        sql_scores = dict(store.breadth_sql(activity, k=10))
        encoded = recipe_model.encode_activity(activity)
        reference = {
            recipe_model.action_label(aid): score
            for aid, score in BreadthStrategy().scores(
                recipe_model, encoded
            ).items()
        }
        assert sql_scores == pytest.approx(reference)

    def test_breadth_sql_top2(self, store):
        # pickles (olivier overlap 2) and nutmeg (two recipes x overlap 1)
        # tie at score 2; SQL breaks ties alphabetically.
        ranked = store.breadth_sql({"potatoes", "carrots"}, k=2)
        assert ranked == [("nutmeg", 2.0), ("pickles", 2.0)]

    def test_breadth_sql_excludes_activity(self, store):
        labels = {label for label, _ in store.breadth_sql({"potatoes"}, k=20)}
        assert "potatoes" not in labels

    def test_breadth_sql_empty_activity(self, store):
        assert store.breadth_sql([], k=5) == []

    def test_breadth_sql_invalid_k(self, store):
        with pytest.raises(StorageError, match="positive"):
            store.breadth_sql({"potatoes"}, k=0)

    def test_closest_implementations(self, store):
        rows = store.closest_implementations_sql({"potatoes", "carrots"}, k=2)
        # Olivier salad misses exactly one action.
        assert rows[0][0] == "olivier salad"
        assert rows[0][2] == 1

    def test_closest_excludes_complete(self, store):
        rows = store.closest_implementations_sql(
            {"potatoes", "carrots", "pickles"}, k=10
        )
        goals = [goal for goal, _, _ in rows]
        assert "olivier salad" not in goals

    def test_closest_empty_activity(self, store):
        assert store.closest_implementations_sql([], k=3) == []


@pytest.fixture(params=["json", "sqlite"])
def any_store(request, tmp_path):
    if request.param == "json":
        yield JsonLibraryStore(tmp_path / "lib.json")
    else:
        with SqliteLibraryStore(tmp_path / "lib.db") as store:
            yield store


def test_equal_labels_are_one_object(any_store):
    library = ImplementationLibrary()
    library.add_pair("salad", {"tomato", "cucumber", "oil"})
    library.add_pair("salad", {"tomato", "lettuce", "oil"})
    library.add_pair("soup", {"tomato", "onion"})
    any_store.save(library)
    loaded = any_store.load()
    assert pairs(loaded) == pairs(library)
    shared: dict[str, str] = {}
    for impl in loaded:
        for label in (impl.goal, *impl.actions):
            assert shared.setdefault(label, label) is label
    assert len(shared) == 7
