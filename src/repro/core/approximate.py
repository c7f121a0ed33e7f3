"""Approximate Breadth tiers for latency-bounded serving.

Section 6.2 shows the exact mechanisms scale to millions of implementations,
but per-request latency grows with *connectivity*: an activity whose actions
co-occur with thousands of others pays for every posting-list entry.  When a
latency budget matters more than exact scores, two approximations apply:

:class:`SampledBreadthStrategy` (``breadth_sampled``)
    scores a uniform sample of ``IS(H)``.  Because

    ``score(a) = Σ_{p∈IS(H), a∈A_p} |A_p ∩ H|``

    is a sum over implementations, an ``m``-of-``n`` uniform sample scaled
    by ``n / m`` estimates it with relative error ``O(1/sqrt(m))`` — and
    *ranking* only needs relative order, which converges even faster.
    Sampling is deterministic per ``(seed, activity)``.

:class:`PrunedBreadthStrategy` (``breadth_pruned``)
    truncates posting lists instead of sampling them.  Breadth is also a sum
    of co-occurrence rows — ``score(c) = Σ_{b∈H} S[b, c]`` with
    ``S = MᵀM`` — so capping each row at its ``budget`` heaviest entries
    (frequency-ordered, ties by ascending action id) bounds per-request
    work at ``|H| · budget`` while keeping the largest score contributions.
    The result is *exact* whenever every activity action co-occurs with at
    most ``budget`` other actions; recall@k degrades only for activities
    touching high-connectivity actions, and only when a true top-k
    candidate draws most of its score from entries beyond the cap.  The
    single-request benchmark measures recall@10 against the exact
    CRC32-checksummed rankings (:func:`recall_at_k`) and gates it at
    ``>= 0.95`` in CI.

Both strategies target the :class:`~repro.core.protocols.ModelView`
protocol, so they run over :class:`~repro.core.caching.CachedModelView` as
well as the concrete :class:`~repro.core.model.AssociationGoalModel`.  When the view carries a
CSR engine (:func:`~repro.core.protocols.engine_of`), the pruned tier
delegates to its budget-capped kernel; the scalar fallback below computes
the identical truncated sum without NumPy.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.entities import RecommendationList
from repro.core.protocols import ModelView, engine_of
from repro.core.strategies.base import (
    RankingStrategy,
    rank_scored_ids,
    register_strategy,
)
from repro.utils.validation import require_positive


@register_strategy("breadth_sampled")
class SampledBreadthStrategy(RankingStrategy):
    """Breadth over a uniform sample of the implementation space.

    Args:
        max_implementations: sample budget ``m``; implementation spaces at
            or below this size are scored exactly (the strategy is then
            identical to canonical Breadth).
        seed: base seed for the deterministic per-request sampling.
    """

    name = "breadth_sampled"

    def __init__(self, max_implementations: int = 1000, seed: int = 0) -> None:
        require_positive(max_implementations, "max_implementations")
        self.max_implementations = max_implementations
        self.seed = seed

    def _sample(self, pids: list[int], activity: frozenset[int]) -> list[int]:
        """Deterministic uniform sample of the (sorted) implementation ids."""
        if len(pids) <= self.max_implementations:
            return pids
        # Seed from (base seed, activity) so the same request samples the
        # same implementations while different activities decorrelate.
        mix = np.random.SeedSequence(
            [self.seed] + sorted(activity)
        )
        rng = np.random.default_rng(mix)
        chosen = rng.choice(
            len(pids), size=self.max_implementations, replace=False
        )
        return [pids[i] for i in np.sort(chosen)]

    def scores(
        self, model: ModelView, activity: frozenset[int]
    ) -> dict[int, float]:
        """Estimated ``{candidate: score}`` (exact when under budget)."""
        pids = sorted(model.implementation_space(activity))
        if not pids:
            return {}
        sample = self._sample(pids, activity)
        scale = len(pids) / len(sample)
        accumulated: dict[int, float] = defaultdict(float)
        for pid in sample:
            impl_actions = model.implementation_actions(pid)
            comm = len(impl_actions & activity)
            for aid in impl_actions:
                if aid not in activity:
                    accumulated[aid] += comm
        return {aid: value * scale for aid, value in accumulated.items()}

    def rank(
        self,
        model: ModelView,
        activity: frozenset[int],
        k: int,
    ) -> list[tuple[int, float]]:
        """Top-``k`` candidates by estimated score."""
        return rank_scored_ids(self.scores(model, activity), k)

    def sampling_rate(
        self, model: ModelView, activity: frozenset[int]
    ) -> float:
        """Fraction of ``IS(H)`` actually scored for this activity (<= 1)."""
        size = len(model.implementation_space(activity))
        if size == 0:
            return 1.0
        return min(1.0, self.max_implementations / size)


@register_strategy("breadth_pruned")
class PrunedBreadthStrategy(RankingStrategy):
    """Breadth over budget-capped, frequency-ordered posting lists.

    Each activity action contributes at most its ``budget`` heaviest
    co-occurrence entries (ties on the count break by ascending action id).
    Deterministic — the truncation point depends only on the model — and
    exact for every activity whose actions all have connectivity at or
    below ``budget``.

    When the model view carries a CSR engine (the serving layer's
    :class:`~repro.core.caching.CachedModelView` does), ranking delegates
    to :meth:`~repro.core.vectorized.BatchRecommender.pruned_breadth_rank`;
    otherwise a scalar fallback computes the identical truncated sum, so
    results do not depend on the model view.

    Args:
        budget: per-action posting-list cap (default 128 — at the paper's
            ~1.2K connectivity this cuts single-request latency by roughly
            40-55% while the benchmark's measured recall@10 stays >= 0.95).
    """

    name = "breadth_pruned"

    def __init__(self, budget: int = 128) -> None:
        require_positive(budget, "budget")
        self.budget = budget

    def _truncated_row(
        self, model: ModelView, aid: int
    ) -> list[tuple[int, int]]:
        """Action ``aid``'s co-occurrence row, capped at ``budget`` entries.

        The scalar mirror of one frequency-ordered CSR posting list: count
        co-occurring actions over the implementations of ``aid``, keep the
        ``budget`` largest counts (ties by ascending action id).
        """
        row: dict[int, int] = defaultdict(int)
        for pid in model.implementations_of_action(aid):
            for other in model.implementation_actions(pid):
                row[other] += 1
        entries = sorted(row.items(), key=lambda item: (-item[1], item[0]))
        return entries[: self.budget]

    def scores(
        self, model: ModelView, activity: frozenset[int]
    ) -> dict[int, float]:
        """Truncated-sum ``{candidate: score}`` (exact under budget)."""
        accumulated: dict[int, float] = defaultdict(float)
        for aid in activity:
            for other, count in self._truncated_row(model, aid):
                accumulated[other] += float(count)
        for aid in activity:
            accumulated.pop(aid, None)
        return dict(accumulated)

    def rank(
        self,
        model: ModelView,
        activity: frozenset[int],
        k: int,
    ) -> list[tuple[int, float]]:
        """Top-``k`` candidates by budget-capped Breadth score."""
        engine = engine_of(model)
        if engine is not None:
            return engine.pruned_breadth_rank(activity, k, self.budget)
        return rank_scored_ids(self.scores(model, activity), k)


def recall_at_k(
    exact: RecommendationList | list[tuple[int, float]],
    approximate: RecommendationList | list[tuple[int, float]],
) -> float:
    """Fraction of the exact top-k the approximate ranking recovered.

    Accepts either label-level :class:`RecommendationList`s or id-level
    ``(id, score)`` rankings; an empty exact ranking scores 1.0 (there was
    nothing to recall).
    """
    if isinstance(exact, RecommendationList):
        exact_ids: set[object] = {item.action for item in exact.items}
    else:
        exact_ids = {aid for aid, _ in exact}
    if not exact_ids:
        return 1.0
    if isinstance(approximate, RecommendationList):
        approx_ids: set[object] = {item.action for item in approximate.items}
    else:
        approx_ids = {aid for aid, _ in approximate}
    return len(exact_ids & approx_ids) / len(exact_ids)
