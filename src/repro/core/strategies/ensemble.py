"""Rank-fusion ensemble over goal-based strategies.

Tables 4 and 6 show the strategies behave differently per dataset regime
(Focus_cmp wins sparse 43Things, Breadth/Best Match win the dense grocery
set) while overlapping substantially.  When the regime is unknown, fusing
their rankings hedges: this strategy runs several member strategies and
combines their rankings with one of the two standard rank-aggregation
rules:

- **Reciprocal rank fusion** (``method="rrf"``, default):
  ``score(a) = Σ_members 1 / (rrf_k + rank_member(a))`` — robust to
  incomparable score scales (Cormack et al., SIGIR 2009);
- **Borda count** (``method="borda"``):
  ``score(a) = Σ_members (pool_size − rank_member(a))``.

Members contribute through their *rankings* only, so any registered
strategy (including another ensemble) can participate.  Over a model view
that carries a CSR engine (:func:`~repro.core.protocols.engine_of`), the
four paper strategies among the members rank in the engine, whose
rankings are bit-identical to theirs; every other member ranks scalar.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.core.protocols import ModelView, engine_of
from repro.core.strategies.base import (
    RankingStrategy,
    create_strategy,
    rank_scored_ids,
    register_strategy,
)
from repro.exceptions import RecommendationError
from repro.utils.validation import require_in, require_positive

_METHODS = ("rrf", "borda")
_DEFAULT_MEMBERS = ("focus_cmp", "breadth", "best_match")


@register_strategy("ensemble")
class EnsembleStrategy(RankingStrategy):
    """Fuse the rankings of several member strategies.

    Args:
        members: registry names of the member strategies (at least two).
        method: ``"rrf"`` or ``"borda"``.
        pool_size: how deep each member ranks before fusion; deeper pools
            let a candidate missed by one member still win on the others.
        rrf_k: the RRF dampening constant (60 per the original paper).
    """

    name = "ensemble"

    def __init__(
        self,
        members: Sequence[str] = _DEFAULT_MEMBERS,
        method: str = "rrf",
        pool_size: int = 50,
        rrf_k: int = 60,
    ) -> None:
        require_in(method, _METHODS, "method")
        require_positive(pool_size, "pool_size")
        require_positive(rrf_k, "rrf_k")
        if len(members) < 2:
            raise RecommendationError(
                "ensemble needs at least two member strategies"
            )
        self.members = tuple(members)
        self.method = method
        self.pool_size = pool_size
        self.rrf_k = rrf_k
        self._strategies = [create_strategy(name) for name in members]
        # Imported here: the recommender module imports this package.
        from repro.core.recommender import PAPER_STRATEGIES

        self._engine_ranked = [name in PAPER_STRATEGIES for name in members]
        self.name = f"ensemble_{method}_" + "+".join(self.members)

    def rank(
        self,
        model: ModelView,
        activity: frozenset[int],
        k: int,
    ) -> list[tuple[int, float]]:
        """Fuse the members' top-``pool_size`` rankings; return top-``k``."""
        engine = engine_of(model)
        fused: dict[int, float] = defaultdict(float)
        for name, strategy, engine_ranked in zip(
            self.members, self._strategies, self._engine_ranked
        ):
            if engine is not None and engine_ranked:
                ranking = engine.rank(activity, self.pool_size, name)
            else:
                ranking = strategy.rank(model, activity, self.pool_size)
            for rank, (aid, _) in enumerate(ranking, start=1):
                if self.method == "rrf":
                    fused[aid] += 1.0 / (self.rrf_k + rank)
                else:
                    fused[aid] += float(self.pool_size - rank + 1)
        return rank_scored_ids(dict(fused), k)
