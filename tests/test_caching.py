"""Unit tests for the serving-layer caches (repro.core.caching)."""

import threading

import pytest

from repro import obs
from repro.core import (
    AssociationGoalModel,
    CachedModelView,
    CachingRecommender,
    GoalRecommender,
    LRUCache,
)
from repro.obs.metrics import MetricsRegistry


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        hit, value = cache.lookup("a")
        assert (hit, value) == (False, None)
        cache.store("a", 1)
        hit, value = cache.lookup("a")
        assert (hit, value) == (True, 1)

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")  # refresh "a"; "b" becomes the LRU entry
        cache.store("c", 3)
        assert cache.lookup("a")[0] is True
        assert cache.lookup("b")[0] is False
        assert cache.lookup("c")[0] is True

    def test_store_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.store("a", 1)
        cache.store("a", 99)
        assert len(cache) == 1
        assert cache.lookup("a") == (True, 99)

    def test_zero_maxsize_disables_caching(self):
        cache = LRUCache(0)
        cache.store("a", 1)
        assert cache.lookup("a") == (False, None)
        assert len(cache) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            LRUCache(-1)

    def test_get_or_compute(self):
        cache = LRUCache(4)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_clear_counts_invalidation(self):
        cache = LRUCache(4)
        cache.store("a", 1)
        cache.clear()
        stats = cache.stats()
        assert stats.size == 0
        assert stats.invalidations == 1
        assert cache.lookup("a")[0] is False

    def test_stats_snapshot(self):
        cache = LRUCache(1, name="unit")
        cache.lookup("a")          # miss
        cache.store("a", 1)
        cache.lookup("a")          # hit
        cache.store("b", 2)        # evicts "a"
        stats = cache.stats()
        assert stats.name == "unit"
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 1
        assert stats.maxsize == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_defined_before_first_lookup(self):
        assert LRUCache(4).stats().hit_rate == 0.0

    def test_concurrent_mixed_operations_stay_consistent(self):
        cache = LRUCache(64)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    key = (base + i) % 100
                    cache.store(key, key)
                    hit, value = cache.lookup(key)
                    if hit:
                        assert value == key
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n * 17,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * 500

    def test_metrics_recorded_when_enabled(self):
        registry = MetricsRegistry()
        previous = obs.set_registry(registry)
        obs.enable(metrics=True, tracing=False)
        try:
            cache = LRUCache(1, name="metered")
            cache.lookup("a")      # miss
            cache.store("a", 1)
            cache.lookup("a")      # hit
            cache.store("b", 2)    # eviction
            cache.clear()          # invalidation
            text = registry.render()
        finally:
            obs.disable()
            obs.set_registry(previous)
        assert 'repro_cache_misses_total{cache="metered"} 1' in text
        assert 'repro_cache_hits_total{cache="metered"} 1' in text
        assert 'repro_cache_evictions_total{cache="metered"} 1' in text
        assert 'repro_cache_invalidations_total{cache="metered"} 1' in text
        assert 'repro_cache_size{cache="metered"} 0' in text
        assert 'repro_cache_lookup_seconds_count{cache="metered"} 2' in text


class TestCachedModelView:
    def test_space_queries_match_model(self, figure1_model):
        view = CachedModelView(figure1_model)
        for raw in ({"a1"}, {"a1", "a2"}, {"a6"}, set()):
            encoded = figure1_model.encode_activity(raw)
            assert view.implementation_space(encoded) == (
                figure1_model.implementation_space(encoded)
            )
            assert view.goal_space(encoded) == figure1_model.goal_space(encoded)
            assert view.action_space(encoded) == (
                figure1_model.action_space(encoded)
            )
            assert view.candidate_actions(encoded) == (
                figure1_model.candidate_actions(encoded)
            )
            assert view.goal_space_labels(raw) == (
                figure1_model.goal_space_labels(raw)
            )
            assert view.action_space_labels(raw) == (
                figure1_model.action_space_labels(raw)
            )

    def test_delegates_rest_of_query_surface(self, figure1_model):
        # The view answers the rest of the surface from the engine's label
        # tables and arrays; it keeps no model to delegate to.
        view = CachedModelView(figure1_model)
        assert view.num_implementations == figure1_model.num_implementations
        assert view.action_id("a1") == figure1_model.action_id("a1")
        assert view.labels is figure1_model.labels
        assert "__getattr__" not in vars(CachedModelView)
        assert not hasattr(view, "wrapped")

    def test_strategies_run_identically_through_view(self, figure1_model):
        reference = GoalRecommender(figure1_model)
        cached = GoalRecommender(CachedModelView(figure1_model))
        for strategy in ("breadth", "focus_cmp", "focus_cl", "best_match"):
            for raw in ({"a1"}, {"a1", "a2"}, {"a6"}):
                expected = reference.recommend(raw, k=10, strategy=strategy)
                actual = cached.recommend(raw, k=10, strategy=strategy)
                assert actual == expected


class TestCachingRecommender:
    @pytest.fixture
    def cached(self, figure1_model):
        return CachingRecommender(
            GoalRecommender(figure1_model), LRUCache(16, name="test")
        )

    def test_hit_returns_identical_object(self, cached):
        first, hit1 = cached.recommend({"a1"}, k=5)
        second, hit2 = cached.recommend({"a1"}, k=5)
        assert (hit1, hit2) == (False, True)
        assert second is first

    def test_key_includes_strategy_and_k(self, cached):
        cached.recommend({"a1"}, k=5, strategy="breadth")
        _, hit_other_k = cached.recommend({"a1"}, k=3, strategy="breadth")
        _, hit_other_strategy = cached.recommend(
            {"a1"}, k=5, strategy="focus_cmp"
        )
        assert hit_other_k is False
        assert hit_other_strategy is False

    def test_activity_order_does_not_matter(self, cached):
        cached.recommend(["a1", "a2"], k=5)
        _, hit = cached.recommend(["a2", "a1"], k=5)
        assert hit is True

    def test_cached_result_matches_reference(self, figure1_model, cached):
        reference = GoalRecommender(figure1_model)
        expected = reference.recommend({"a1", "a2"}, k=10)
        cached.recommend({"a1", "a2"}, k=10)
        result, hit = cached.recommend({"a1", "a2"}, k=10)
        assert hit is True
        assert result == expected


class TestGenerationKeying:
    """The generation prefix keeps the shared cache safe across model swaps.

    Serving shares one LRU across generations; a request still in flight on
    a retired snapshot may store *after* the swap's ``clear()``.  Its entry
    must be unreachable from the new generation (frozen ids are
    re-densified on every freeze, so a cross-generation hit would be
    wrong, not merely stale).
    """

    def test_caching_recommender_generations_do_not_collide(
        self, figure1_model
    ):
        cache = LRUCache(16, name="gen")
        old = CachingRecommender(
            GoalRecommender(figure1_model), cache, generation=0
        )
        new = CachingRecommender(
            GoalRecommender(figure1_model), cache, generation=1
        )
        old.recommend({"a1"}, k=5)  # late store under generation 0
        _, hit = new.recommend({"a1"}, k=5)
        assert hit is False
        _, hit_same_gen = new.recommend({"a1"}, k=5)
        assert hit_same_gen is True


def test_exports_available_from_core():
    from repro.core import CacheStats  # noqa: F401

    model = AssociationGoalModel.from_pairs([("g", {"a", "b"})])
    view = CachedModelView(model)
    assert view.num_implementations == 1


class TestCachedViewCsrEngine:
    def test_engine_built_at_construction(self, figure1_model):
        from repro.core.vectorized import BatchRecommender

        view = CachedModelView(figure1_model)
        engine = view._engine
        assert isinstance(engine, BatchRecommender)
        assert view.csr_engine() is engine
        assert view.csr_engine() is engine

    def test_given_engine_is_bound_unchanged(self, figure1_model):
        from repro.core.vectorized import BatchRecommender

        engine = BatchRecommender(figure1_model)
        view = CachedModelView(figure1_model, engine=engine)
        assert view.csr_engine() is engine

    def test_recommender_over_view_auto_routes_with_parity(
        self, figure1_model
    ):
        view = CachedModelView(figure1_model)
        routed = GoalRecommender(view)
        assert routed.csr_engine() is not None
        scalar = GoalRecommender(figure1_model, use_csr=False)
        for strategy in ("breadth", "focus_cmp", "focus_cl", "best_match"):
            for raw in ({"a1"}, {"a1", "a2"}, {"a6"}, set()):
                assert routed.recommend(raw, k=10, strategy=strategy) == (
                    scalar.recommend(raw, k=10, strategy=strategy)
                )
