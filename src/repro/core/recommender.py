"""The label-level recommendation facade.

:class:`GoalRecommender` bundles an
:class:`~repro.core.model.AssociationGoalModel` with the four goal-based
strategies and exposes a single :meth:`recommend` entry point working on
action *labels*.  This is the class downstream applications use; the
strategies themselves are reusable id-level components.

Example::

    model = AssociationGoalModel.from_pairs([
        ("olivier salad", {"potatoes", "carrots", "pickles"}),
        ("mashed potatoes", {"potatoes", "nutmeg", "butter"}),
    ])
    recommender = GoalRecommender(model)
    result = recommender.recommend({"potatoes", "carrots"}, k=3)
    result.actions()  # ['pickles', ...]
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.entities import ActionLabel, GoalLabel, RecommendationList
from repro.core.protocols import ModelView, engine_of
from repro.core.strategies import RankingStrategy, create_strategy
from repro.core.strategies.base import require_request_count
from repro.resilience.deadlines import enter_stage

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy
    from repro.core.vectorized import BatchRecommender

#: The strategy names the paper evaluates, in its presentation order.
PAPER_STRATEGIES = ("focus_cmp", "focus_cl", "breadth", "best_match")

#: Strategies with a bit-parity CSR kernel in
#: :class:`~repro.core.vectorized.BatchRecommender` — only these (in their
#: default configuration) are ever rerouted off the scalar path.
_CSR_STRATEGIES = frozenset(PAPER_STRATEGIES)


class GoalRecommender:
    """Recommend actions that advance the goals a user appears to pursue.

    Args:
        model: the indexed goal model.
        default_strategy: strategy used when :meth:`recommend` is called
            without an explicit one.
        use_csr: ``True`` (default) routes the four paper strategies
            through the CSR engine the model view carries
            (:func:`~repro.core.protocols.engine_of` — the serving layer's
            :class:`~repro.core.caching.CachedModelView` carries one); bare
            models carry none and stay on the scalar reference strategies.
            ``False`` ranks those four with their scalar implementations —
            the escape hatch the parity suite and the benchmark oracle use
            for their reference rankings.  Strategies that look the engine
            up themselves (the pruned tier, the ensemble's members) and a
            view's space queries are unaffected.  Both paths are
            bit-identical (scores, order, ties), so the setting is about
            performance, never results.
    """

    def __init__(
        self,
        model: ModelView,
        default_strategy: str = "breadth",
        use_csr: bool = True,
    ) -> None:
        self.model = model
        self.default_strategy = default_strategy
        self.use_csr = use_csr
        self._strategies: dict[str, RankingStrategy] = {}
        # The model view's engine is bound when the view is built, so the
        # CsrStrategy adapters are resolved once here, one per paper
        # strategy, and never change for this binding.
        engine = engine_of(model) if use_csr else None
        self._engine = engine
        self._csr_runners: dict[str, RankingStrategy] = {}
        if engine is not None:
            from repro.core.vectorized import CsrStrategy

            self._csr_runners = {
                name: CsrStrategy(engine, name) for name in _CSR_STRATEGIES
            }

    def with_model(self, model: ModelView) -> "GoalRecommender":
        """A recommender over ``model`` sharing this one's strategy cache.

        Strategies are stateless with respect to the model (it is passed to
        every ``rank`` call), so a hot-reloading serving layer can rebind
        the facade to each new model generation without re-instantiating
        the strategy objects.
        """
        rebound = GoalRecommender(
            model,
            default_strategy=self.default_strategy,
            use_csr=self.use_csr,
        )
        rebound._strategies = self._strategies
        return rebound

    def csr_engine(self) -> BatchRecommender | None:
        """The CSR engine this recommender routes through, or ``None``."""
        return self._engine

    def _runner(
        self, name: str, chosen: RankingStrategy, options: dict[str, Any]
    ) -> RankingStrategy:
        """The strategy that actually ranks: CSR adapter or ``chosen``.

        Only the four paper strategies in their default configuration are
        rerouted — ablation variants (``options``) and every other
        registered strategy run their scalar implementation unchanged.
        """
        if options:
            return chosen
        return self._csr_runners.get(name, chosen)

    def strategy(self, name: str, **options: Any) -> RankingStrategy:
        """Return (and cache) a strategy instance by registry name.

        Passing ``options`` bypasses the cache so ablation variants never
        alias the default configuration.
        """
        if options:
            return create_strategy(name, **options)
        cached = self._strategies.get(name)
        if cached is None:
            cached = create_strategy(name)
            self._strategies[name] = cached
        return cached

    def use_strategy(self, strategy: RankingStrategy) -> None:
        """Pin a configured strategy instance under its registry name.

        Later :meth:`recommend` calls naming it reuse this instance instead
        of instantiating registry defaults — the serving layer uses this to
        honour ``--approx-budget`` on the ``breadth_pruned`` tier.  The pin
        survives :meth:`with_model` rebinds (the strategy cache is shared).
        """
        self._strategies[strategy.name] = strategy

    def recommend(
        self,
        activity: Iterable[ActionLabel],
        k: int = 10,
        strategy: str | None = None,
        **options: Any,
    ) -> RecommendationList:
        """Produce a top-``k`` recommendation list for ``activity``.

        Actions in ``activity`` that appear in no implementation are ignored
        (they carry no goal evidence).  An activity with no known actions at
        all yields an empty list — the model has no evidence to rank on —
        rather than an error, so batch evaluation over raw logs is painless.
        """
        require_request_count(k, "k")
        encoded = self.model.encode_activity(activity)
        name = strategy or self.default_strategy
        chosen = self.strategy(name, **options)
        runner = self._runner(name, chosen, options)
        enter_stage("rank")
        if not obs.is_enabled():
            result = runner.recommend(self.model, encoded, k)
        else:
            result = self._recommend_observed(runner, encoded, k)
        if obs.quality_enabled():
            obs.get_quality_monitor().observe_recommend(
                runner.name, self.model, encoded, result
            )
        return result

    def _recommend_observed(
        self,
        chosen: RankingStrategy,
        encoded: frozenset[int],
        k: int,
    ) -> RecommendationList:
        """The instrumented recommend path (observability enabled).

        Emits a ``recommend`` span carrying the strategy name, and records
        the per-strategy latency histogram and request counter.  The space
        sizes |IS(H)|, |GS(H)|, |AS(H)|, |AS(H)−H| are computed only when
        *trace detail* is enabled on top of tracing
        (``obs.enable(trace_detail=True)``); the ≤10% enabled-path overhead
        budget of ``benchmarks/bench_obs_overhead.py`` holds without them.
        See :meth:`_space_sizes` for what they cost on each path.
        """
        with obs.trace_span("recommend", strategy=chosen.name, k=k) as span:
            start = perf_counter()
            result = chosen.recommend(self.model, encoded, k)
            elapsed = perf_counter() - start
            if obs.metrics_enabled():
                registry = obs.get_registry()
                registry.counter(
                    "repro_recommend_requests_total",
                    "Recommendation requests served, by strategy.",
                    strategy=chosen.name,
                ).inc()
                registry.histogram(
                    "repro_recommend_latency_seconds",
                    "End-to-end GoalRecommender.recommend latency, "
                    "by strategy.",
                    strategy=chosen.name,
                ).observe(elapsed)
            if span.is_recording:
                span.set_attrs(
                    activity_size=len(encoded),
                    returned=len(result.items),
                )
                if obs.trace_detail_enabled():
                    is_size, gs_size, as_size, candidates = (
                        self._space_sizes(encoded)
                    )
                    span.set_attrs(
                        is_size=is_size,
                        gs_size=gs_size,
                        as_size=as_size,
                        candidates=candidates,
                    )
        return result

    def _space_sizes(
        self, encoded: frozenset[int]
    ) -> tuple[int, int, int, int]:
        """``(|IS(H)|, |GS(H)|, |AS(H)|, |AS(H)−H|)`` for the trace detail.

        With a CSR engine (the serving path, where the four paper
        strategies and the pruned tier rank) the sizes come from one
        engine call (:meth:`~repro.core.vectorized.BatchRecommender.space_sizes`,
        about 0.2 ms at dense scale) and no space query runs.  Without
        one (``use_csr=False``, bare models) the scalar space queries
        answer, emitting their space spans.  Both give the same numbers.
        """
        if self._engine is not None:
            return self._engine.space_sizes(encoded)
        model = self.model
        impl_space = model.implementation_space(encoded)
        action_space = model.action_space(encoded)
        return (
            len(impl_space),
            len(model.goal_space(encoded)),
            len(action_space),
            len(action_space - encoded),
        )

    def recommend_all(
        self,
        activity: Iterable[ActionLabel],
        k: int = 10,
        strategies: Iterable[str] = PAPER_STRATEGIES,
    ) -> dict[str, RecommendationList]:
        """Run several strategies on the same activity.

        The activity is encoded once; returns ``{strategy_name: list}``.
        """
        encoded = self.model.encode_activity(activity)
        runners = {
            name: self._runner(name, self.strategy(name), {})
            for name in strategies
        }
        if not obs.is_enabled():
            return {
                name: runner.recommend(self.model, encoded, k)
                for name, runner in runners.items()
            }
        with obs.trace_span("recommend_all", k=k) as span:
            results = {
                name: self._recommend_observed(runner, encoded, k)
                for name, runner in runners.items()
            }
            span.set_attr("strategies", list(results))
        return results

    def explain(
        self, activity: Iterable[ActionLabel], action: ActionLabel
    ) -> dict[GoalLabel, list[frozenset[ActionLabel]]]:
        """Explain why ``action`` is a candidate for ``activity``.

        Returns, per goal, the activities of the implementations that both
        contain ``action`` and intersect the user activity — the evidence a
        goal-based recommendation is grounded in.  An action with no such
        implementation returns an empty mapping.
        """
        encoded = self.model.encode_activity(activity)
        aid = self.model.action_id(action)
        reachable = self.model.implementation_space(encoded)
        evidence: dict[GoalLabel, list[frozenset[ActionLabel]]] = {}
        for pid in sorted(self.model.implementations_of_action(aid) & reachable):
            impl = self.model.implementation(pid)
            evidence.setdefault(impl.goal, []).append(impl.actions)
        return evidence
