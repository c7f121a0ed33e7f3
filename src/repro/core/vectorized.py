"""Vectorized scoring over the goal model (NumPy/SciPy CSR).

The reference strategies in :mod:`repro.core.strategies` are pure-Python and
score one activity at a time — clear, and exactly what the paper's
pseudocode describes.  Serving 20K carts (the paper's workload) benefits
from a bulk path, and a single ``/recommend`` at paper-scale connectivity
benefits from not walking Python sets at all.  This module lowers the model
into two sparse matrices

- ``M`` (implementations × actions): ``M[p, a] = 1`` iff ``a ∈ A_p``
  (the ``GI-A-idx`` as a matrix; its transpose is the ``A-GI-idx``),
- ``G`` (implementations × goals): ``G[p, g] = 1`` iff implementation ``p``
  fulfills ``g`` (the ``GI-G-idx``),

after which the paper's scores become sparse linear algebra.  With ``h``
the 0/1 activity vector of a user:

- per-implementation overlaps: ``o = M h``  (``|A_p ∩ H|`` for every p);
- **Breadth** (Eq. 5-6, intersection reading): ``s = Mᵀ o`` — every
  candidate accumulates the overlap of every implementation containing it.
  Expanding, ``s = (Mᵀ M) h``: the *action co-occurrence matrix*
  ``S = Mᵀ M`` turns one request into a sum of ``|H|`` precomputed rows;
- **Focus completeness/closeness**: ``o / |A_p|`` and ``1 / (|A_p| − o)``
  elementwise over implementations with ``0 < o`` and ``o < |A_p|``;
- **Best Match** profile: ``Gᵀ o`` restricted to the goal space; candidate
  vectors are rows of the precomputed ``C = Mᵀ G`` (action × goal counts).

The single-request :meth:`rank` never materializes full matrix-vector
products: it gathers only the CSR rows the activity touches (posting
lists), so per-request cost tracks ``|IS(H)|`` — the same asymptotics as
the reference strategies, minus the Python interpreter.  Top-``k``
selection is partial (:mod:`repro.core.topk`), not a full sort.

Results are bit-identical to the reference strategies (asserted in the test
suite), including the deterministic tie-breaking: every accumulated value is
an integer count (exact in float64 regardless of summation order), and the
single ``sqrt`` in the cosine distance matches the reference formula.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.entities import ActionLabel, RecommendationList, ScoredAction
from repro.core.model import AssociationGoalModel
from repro.core.strategies.base import RankingStrategy, require_request_count
from repro.core.topk import top_k_positions
from repro.utils.validation import require_in

_STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")

#: Above this many candidates, ranked selection goes through the
#: ``argpartition`` path of :mod:`repro.core.topk`; below it a single
#: stable ``argsort`` over the (id-ascending) candidates is cheaper than
#: the partition's extra array passes.
_PARTITION_CUTOVER = 4096


def _gather_positions(
    indptr: np.ndarray, rows: np.ndarray, cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR entries of ``rows`` (optionally capped).

    Returns ``(positions, lengths)`` where ``positions`` indexes the CSR
    ``indices``/``data`` arrays for every entry of every requested row,
    concatenated in row order, and ``lengths`` is the per-row entry count.
    ``cap`` truncates each row to its first ``cap`` entries — with rows
    pre-sorted by descending weight this is the budgeted posting-list
    traversal of the approximate tier.  Pure index arithmetic; no Python
    loop and no scipy fancy indexing (which would copy through an extractor
    matrix).
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    if cap is not None:
        lengths = np.minimum(lengths, cap)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, lengths)
        + np.repeat(starts, lengths)
    )
    return positions, lengths


def _frequency_order(
    rows: np.ndarray, counts: np.ndarray, cols: np.ndarray, n_actions: int
) -> np.ndarray:
    """The permutation sorting entries by ``(row, -count, col)``.

    ``rows`` and ``cols`` are action ids below ``n_actions`` and ``counts``
    positive integers (as float64); ``(row, col)`` pairs are unique.  One
    argsort over the packed key ``(row * span + span - 1 - count) *
    n_actions + col``, with ``span = max count + 1``, orders exactly like
    the three-key ``np.lexsort`` — every key is unique, so the sort's
    stability does not matter — at a fraction of its cost.  The key fits
    int64 while ``n_actions² · span < 2⁶³``; beyond that the lexsort runs.
    """
    if counts.size == 0:
        return np.empty(0, dtype=np.intp)
    span = int(counts.max()) + 1
    if n_actions * n_actions * span >= 2**63:
        return np.lexsort((cols, -counts, rows))
    key = rows.astype(np.int64) * span
    key += span - 1
    key -= counts.astype(np.int64)
    key *= n_actions
    key += cols
    return np.argsort(key)


class BatchRecommender:
    """Vectorized scorer over a frozen goal model.

    Build once per model generation; single requests are a few gathered
    CSR rows, bulk requests a few sparse matrix products.  Construction
    builds every derived structure, the co-occurrence index included, so
    an engine is complete and read-only from the moment it exists and
    concurrent readers share it without a lock.  The serving layer builds
    one instance per generation before publishing the generation's
    snapshot (``CachedModelView.csr_engine`` / ``ModelSnapshot.engine``)
    and routes the batch endpoint, single-activity ``rank()``, the
    approximate tier, the ensemble's members and every space query
    (``/spaces``, ``/explain``, ``/goals``, trace detail) through it.
    """

    def __init__(self, model: AssociationGoalModel) -> None:
        self.model = model
        n_impl = model.num_implementations
        # The per-implementation action lists pre-sorted by id: the Focus
        # walk reads them directly, and flattened they *are* ``M``'s
        # canonical CSR structure, so no COO conversion runs.
        self._impl_sorted: list[list[int]] = [
            sorted(model.implementation_actions(pid)) for pid in range(n_impl)
        ]
        # int64 CSR structure for gather arithmetic (scipy stores int32,
        # which _gather_positions' cumulative offsets would overflow on
        # very large models).
        self._m_indptr = np.zeros(n_impl + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._impl_sorted), dtype=np.int64, count=n_impl),
            out=self._m_indptr[1:],
        )
        self._m_indices = np.fromiter(
            chain.from_iterable(self._impl_sorted),
            dtype=np.int64,
            count=int(self._m_indptr[-1]),
        )
        self._m = sparse.csr_matrix(
            (np.ones(self._m_indices.size), self._m_indices, self._m_indptr),
            shape=(n_impl, model.num_actions),
        )
        self._mt = self._m.T.tocsr()
        goal_cols = np.fromiter(
            (model.implementation_goal(pid) for pid in range(n_impl)),
            dtype=np.int64,
            count=n_impl,
        )
        self._g = sparse.csr_matrix(
            (np.ones(n_impl), goal_cols, np.arange(n_impl + 1)),
            shape=(n_impl, model.num_goals),
        )
        # C[a, g]: number of implementations of goal g containing action a
        # (Equation 8's counts for every action at once).
        self._c = (self._mt @ self._g).tocsr()
        self._impl_lengths = np.asarray(self._m.sum(axis=1)).ravel()
        self._post_indptr = self._mt.indptr.astype(np.int64)
        self._post_indices = self._mt.indices.astype(np.int64)
        self._c_indptr = self._c.indptr.astype(np.int64)
        self._c_indices = self._c.indices.astype(np.int64)
        self._goal_of_impl = goal_cols
        # Per-action posting-list views (rows of the A-GI index): the
        # single-request rankers concatenate these directly, which
        # replaces the index arithmetic of ``_gather_positions`` with one
        # ``np.concatenate`` of a handful of views per request.
        self._post_rows: list[np.ndarray] = np.split(
            self._post_indices, self._post_indptr[1:-1]
        )
        self._labels = model.action_labels()
        self._cooc = self._build_cooccurrence()

    # ------------------------------------------------------------------
    # Array export / zero-copy reconstruction (multi-worker serving)
    # ------------------------------------------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Every derived array, keyed for shared-memory publication.

        The multi-worker parent builds the engine once, exports this dict
        into a :class:`~repro.serving.shared.SharedModelArena`, and each
        forked worker rebuilds an identical engine with
        :meth:`from_arrays` over zero-copy views of the same physical
        pages.  The co-occurrence index travels with the rest, so children
        never build (and privately allocate) it themselves.
        """
        col_rows, val_rows = self._cooc
        cooc_indptr = np.zeros(len(col_rows) + 1, dtype=np.int64)
        np.cumsum([row.size for row in col_rows], out=cooc_indptr[1:])
        return {
            "m_data": self._m.data,
            "m_indices": self._m.indices,
            "m_indptr": self._m.indptr,
            "mt_data": self._mt.data,
            "mt_indices": self._mt.indices,
            "mt_indptr": self._mt.indptr,
            "g_data": self._g.data,
            "g_indices": self._g.indices,
            "g_indptr": self._g.indptr,
            "c_data": self._c.data,
            "c_indices": self._c.indices,
            "c_indptr": self._c.indptr,
            "impl_lengths": self._impl_lengths,
            "m_indptr64": self._m_indptr,
            "m_indices64": self._m_indices,
            "post_indptr64": self._post_indptr,
            "post_indices64": self._post_indices,
            "c_indptr64": self._c_indptr,
            "c_indices64": self._c_indices,
            "goal_of_impl": self._goal_of_impl,
            "cooc_cols": np.concatenate(col_rows) if col_rows else np.empty(0, dtype=np.int64),
            "cooc_vals": np.concatenate(val_rows) if val_rows else np.empty(0),
            "cooc_indptr": cooc_indptr,
        }

    @classmethod
    def from_arrays(
        cls, model: AssociationGoalModel, arrays: dict[str, np.ndarray]
    ) -> "BatchRecommender":
        """Rebuild an engine from an :meth:`export_arrays` snapshot.

        ``arrays`` values may be views over shared memory; every CSR
        matrix is wrapped with ``copy=False`` so the rebuilt engine reads
        the exporter's pages directly.  Results are bit-identical to an
        engine built from ``model`` (asserted in the test suite) because
        *every* derived structure — including the frequency-ordered
        co-occurrence index with its tie-breaking order — is taken from
        the snapshot, never recomputed.
        """
        self = cls.__new__(cls)
        self.model = model
        n_impl = model.num_implementations
        n_actions = model.num_actions
        n_goals = model.num_goals
        self._m = sparse.csr_matrix(
            (arrays["m_data"], arrays["m_indices"], arrays["m_indptr"]),
            shape=(n_impl, n_actions),
            copy=False,
        )
        self._mt = sparse.csr_matrix(
            (arrays["mt_data"], arrays["mt_indices"], arrays["mt_indptr"]),
            shape=(n_actions, n_impl),
            copy=False,
        )
        self._g = sparse.csr_matrix(
            (arrays["g_data"], arrays["g_indices"], arrays["g_indptr"]),
            shape=(n_impl, n_goals),
            copy=False,
        )
        self._c = sparse.csr_matrix(
            (arrays["c_data"], arrays["c_indices"], arrays["c_indptr"]),
            shape=(n_actions, n_goals),
            copy=False,
        )
        self._impl_lengths = arrays["impl_lengths"]
        self._m_indptr = arrays["m_indptr64"]
        self._m_indices = arrays["m_indices64"]
        self._post_indptr = arrays["post_indptr64"]
        self._post_indices = arrays["post_indices64"]
        self._c_indptr = arrays["c_indptr64"]
        self._c_indices = arrays["c_indices64"]
        self._goal_of_impl = arrays["goal_of_impl"]
        self._post_rows = np.split(self._post_indices, self._post_indptr[1:-1])
        # ``M``'s rows are the id-sorted action lists (see ``__init__``).
        flat = self._m_indices.tolist()
        bounds = self._m_indptr.tolist()
        self._impl_sorted = [
            flat[start:end] for start, end in zip(bounds, bounds[1:])
        ]
        self._labels = model.action_labels()
        boundaries = arrays["cooc_indptr"][1:-1]
        self._cooc = (
            np.split(arrays["cooc_cols"], boundaries),
            np.split(arrays["cooc_vals"], boundaries),
        )
        return self

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _activity_array(self, activity: frozenset[int]) -> np.ndarray:
        return np.fromiter(activity, dtype=np.int64, count=len(activity))

    def _activity_vector(self, activity: frozenset[int]) -> np.ndarray:
        h = np.zeros(self.model.num_actions)
        for aid in activity:
            h[aid] = 1.0
        return h

    def _overlaps(self, h: np.ndarray) -> np.ndarray:
        """``|A_p ∩ H|`` for every implementation."""
        return self._m @ h

    def _overlap_counts(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(activity_ids, touched_pids, overlaps)`` via posting lists.

        Gathers the ``A-GI`` posting list of every activity action and
        counts multiplicities: an implementation appearing ``c`` times
        shares exactly ``c`` actions with ``H``.  Cost is proportional to
        the posting mass of the activity, not to the model size.
        """
        act = self._activity_array(activity)
        if not activity:
            return act, np.empty(0, dtype=np.int64), np.empty(0)
        touched = np.concatenate([self._post_rows[a] for a in activity])
        if touched.size == 0:
            return act, np.empty(0, dtype=np.int64), np.empty(0)
        pids, counts = np.unique(touched, return_counts=True)
        return act, pids, counts.astype(np.float64)

    def _build_cooccurrence(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The frequency-ordered co-occurrence index.

        ``S = MᵀM`` with every row sorted by ``(-count, action_id)``:
        ``S[b, c]`` counts the implementations containing both ``b`` and
        ``c``, so summing the rows of the activity's actions *is* the
        Breadth ranking, and truncating each row to its heaviest entries is
        the approximate tier's budgeted traversal.  The index is kept as
        per-row ``(columns, counts)`` views so a request is one
        ``np.concatenate`` of ``|H|`` views.  Building S costs one spmm
        plus one argsort over packed int64 keys (:func:`_frequency_order`):
        about 0.2 s at dense FoodMart scale (1.5M nonzeros), half of it
        the spmm.
        """
        s = (self._mt @ self._m).tocsr()
        indptr = s.indptr.astype(np.int64)
        row_of = np.repeat(np.arange(self.model.num_actions), np.diff(indptr))
        order = _frequency_order(row_of, s.data, s.indices, self.model.num_actions)
        boundaries = indptr[1:-1]
        return (
            np.split(s.indices.astype(np.int64)[order], boundaries),
            np.split(s.data[order], boundaries),
        )

    @staticmethod
    def _ranked_pairs(
        ids: np.ndarray, scores: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """Top-``k`` ``(id, score)`` pairs; ``ids`` must be ascending.

        Every engine call site passes ids straight out of ``np.unique`` /
        ``np.flatnonzero``, so within a tie group the input order already
        *is* the contract's ascending-id order — a single stable argsort on
        the negated scores reproduces the full ``(-score, id)`` lexsort.
        Large candidate sets go through the partial-selection path instead.
        """
        if ids.size > _PARTITION_CUTOVER:
            ranked = top_k_positions(ids, scores, k)
        else:
            ranked = np.argsort(-scores, kind="stable")[:k]
        return list(zip(ids[ranked].tolist(), scores[ranked].tolist()))

    @staticmethod
    def _top_k(scores: np.ndarray, mask: np.ndarray, k: int) -> list[tuple[int, float]]:
        """Top-``k`` (id, score) with the library's tie-break (id asc)."""
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            return []
        return BatchRecommender._ranked_pairs(
            candidates, scores[candidates], k
        )

    def _candidate_mask(self, h: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
        """Boolean mask of ``AS(H) − H`` derived from the overlaps."""
        touched = overlaps > 0
        reach = self._mt @ touched.astype(np.float64)
        return (reach > 0) & (h == 0)

    # ------------------------------------------------------------------
    # Strategy scorers (id level)
    # ------------------------------------------------------------------

    def breadth_scores(self, activity: frozenset[int]) -> np.ndarray:
        """Breadth intersection scores for every action (0 for non-candidates)."""
        h = self._activity_vector(activity)
        return self._mt @ self._overlaps(h)

    def _breadth_rank(
        self, activity: frozenset[int], k: int, budget: int | None = None
    ) -> list[tuple[int, float]]:
        """Breadth top-``k`` as a sum of co-occurrence rows.

        ``budget`` caps the traversal of each action's (frequency-ordered)
        co-occurrence posting list — ``None`` walks them fully and is
        exact.  A capped request whose rows all fit the budget is exact
        too, which is what bounds the approximate tier's recall loss to
        high-connectivity actions.
        """
        if not activity:
            return []
        col_rows, val_rows = self._cooc
        if budget is None:
            col_parts = [col_rows[a] for a in activity]
            val_parts = [val_rows[a] for a in activity]
        else:
            col_parts = [col_rows[a][:budget] for a in activity]
            val_parts = [val_rows[a][:budget] for a in activity]
        sub_cols = np.concatenate(col_parts)
        if sub_cols.size == 0:
            return []
        scores = np.bincount(
            sub_cols,
            weights=np.concatenate(val_parts),
            minlength=self.model.num_actions,
        )
        # Candidates are AS(H) − H: every reached action has a positive
        # co-occurrence count, so zeroing H and keeping the positive
        # touched columns is the candidate mask.
        scores[list(activity)] = 0.0
        candidates = np.unique(sub_cols)
        cand_scores = scores[candidates]
        keep = cand_scores > 0.0
        candidates = candidates[keep]
        if candidates.size == 0:
            return []
        return self._ranked_pairs(candidates, cand_scores[keep], k)

    def pruned_breadth_rank(
        self, activity: frozenset[int], k: int, budget: int
    ) -> list[tuple[int, float]]:
        """Breadth over budget-capped, frequency-ordered posting lists.

        The engine half of
        :class:`~repro.core.approximate.PrunedBreadthStrategy`: identical
        to :meth:`rank` with ``strategy="breadth"`` except that each
        activity action contributes at most its ``budget`` heaviest
        co-occurrence entries (ties on the count break by ascending action
        id, matching the scalar fallback).
        """
        require_request_count(budget, "budget")
        return self._breadth_rank(activity, k, budget=budget)

    def focus_rank(
        self, activity: frozenset[int], k: int, measure: str
    ) -> list[tuple[int, float]]:
        """Focus ranking via vectorized implementation scoring.

        Implementation scores are computed over the gathered posting lists
        (cost tracks ``|IS(H)|``); the list-filling walk over ranked
        implementations matches the reference algorithm.
        """
        if not activity:
            return []
        touched = np.concatenate([self._post_rows[a] for a in activity])
        size = touched.size
        if size == 0:
            return []
        # Inlined ``np.unique(touched, return_counts=True)``: the
        # concatenation is a fresh array, so the sort runs in place, and
        # run boundaries give both the unique pids and their overlap
        # counts with fewer temporary passes.
        touched.sort()
        boundary = np.empty(size, dtype=bool)
        boundary[0] = True
        np.not_equal(touched[1:], touched[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        pids = touched[starts]
        counts = np.diff(starts, append=size)
        lengths = self._impl_lengths[pids]
        # Every touched implementation has overlap >= 1; the ones with
        # *full* overlap (not recommendable) score exactly 1.0 under
        # completeness and +inf under closeness — both sort to the front
        # of the walk, where a sentinel comparison skips them without
        # materializing the filtered arrays.
        if measure == "completeness":
            scores = counts / lengths
            full = 1.0
        else:
            # Clamping the zero denominators (full overlap) to 0.5 maps
            # the sentinels to 2.0 — still strictly above every real
            # closeness score (<= 1.0) so they keep sorting to the front,
            # without the per-call ``np.errstate`` context that silencing
            # a division warning would cost.  Real scores are untouched.
            scores = 1.0 / np.maximum(lengths - counts, 0.5)
            full = 2.0
        # ``pids`` is ascending, so a stable sort on the negated scores
        # equals the reference's ``(-score, pid)`` lexsort.
        order = np.argsort(-scores, kind="stable")
        # The walk usually consumes a couple dozen implementations before
        # filling ``k``, so it materializes the ranked prefix chunk by
        # chunk — pure-Python iteration over small lists beats per-element
        # NumPy scalar access on the actual consumption pattern.
        impl_sorted = self._impl_sorted
        result: list[tuple[int, float]] = []
        seen: set[int] = set()
        chunk = max(2 * k, 16)
        for start in range(0, order.size, chunk):
            window = order[start:start + chunk]
            for pid, score in zip(
                pids[window].tolist(), scores[window].tolist()
            ):
                if score >= full:
                    continue
                for aid in impl_sorted[pid]:
                    if aid in activity or aid in seen:
                        continue
                    seen.add(aid)
                    result.append((aid, score))
                    if len(result) == k:
                        return result
        return result

    def _best_match_scores(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(candidate_ids, -distance)`` arrays for the Best Match ranking.

        Works entirely on gathered CSR rows: the goal profile is a bincount
        over the touched implementations' goals, and each candidate's dot
        product / squared norm over the goal space comes from its row of
        ``C`` — the profile vector is zero outside ``GS(H)``, which
        restricts the dot product exactly like the reference's axis
        projection.  All accumulations are integer-valued (exact in
        float64) and the distance applies the reference's single
        ``sqrt(norm_u * norm_v)``, so scores are bit-identical to
        :class:`~repro.core.strategies.best_match.BestMatchStrategy`.
        """
        act, pids, overlaps = self._overlap_counts(activity)
        empty = np.empty(0, dtype=np.int64), np.empty(0)
        if pids.size == 0:
            return empty
        positions, _ = _gather_positions(self._m_indptr, pids)
        reach = np.unique(self._m_indices[positions])
        candidates = reach[~np.isin(reach, act)]
        if candidates.size == 0:
            return empty
        touched_goals = self._goal_of_impl[pids]
        profile = np.bincount(
            touched_goals, weights=overlaps, minlength=self.model.num_goals
        )
        profile_norm_sq = float(profile @ profile)
        gs_indicator = np.zeros(self.model.num_goals)
        gs_indicator[touched_goals] = 1.0
        c_positions, c_lengths = _gather_positions(self._c_indptr, candidates)
        c_goals = self._c_indices[c_positions]
        c_counts = self._c.data[c_positions]
        row_ids = np.repeat(np.arange(candidates.size), c_lengths)
        dots = np.bincount(
            row_ids,
            weights=c_counts * profile[c_goals],
            minlength=candidates.size,
        )
        norms_sq = np.bincount(
            row_ids,
            weights=(c_counts * c_counts) * gs_indicator[c_goals],
            minlength=candidates.size,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            # One sqrt of the product, exactly like the reference
            # ``cosine_distance`` — ``sqrt(a) * sqrt(b)`` differs from
            # ``sqrt(a * b)`` by 1 ulp on some inputs, which is enough to
            # split a tie group relative to the scalar strategy.
            scores = -(1.0 - dots / np.sqrt(norms_sq * profile_norm_sq))
        degenerate = (norms_sq == 0.0) | (profile_norm_sq == 0.0)
        if degenerate.any():
            scores[degenerate] = -1.0
        return candidates, scores

    def _space_masks(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean ``IS``/``GS``/``AS`` masks of a non-empty activity.

        The scalar space queries (Eq. 1-2) as masks instead of Python
        sets: ``IS`` marks the activity's posting lists, ``GS`` the goals
        of those implementations, and ``AS`` the union of the activity's
        co-occurrence rows — exact because ``S = MᵀM`` has
        ``S[b, c] > 0`` iff some implementation contains both ``b`` and
        ``c`` (the diagonal keeps ``H``'s own co-occurring actions in
        ``AS``, as the scalar query does).
        """
        impl_mask = np.zeros(self.model.num_implementations, dtype=bool)
        impl_mask[np.concatenate([self._post_rows[a] for a in activity])] = True
        goal_mask = np.zeros(self.model.num_goals, dtype=bool)
        goal_mask[self._goal_of_impl[impl_mask]] = True
        col_rows = self._cooc[0]
        action_mask = np.zeros(self.model.num_actions, dtype=bool)
        action_mask[np.concatenate([col_rows[a] for a in activity])] = True
        return impl_mask, goal_mask, action_mask

    def spaces(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted ``(IS(H), GS(H), AS(H))`` id arrays.

        Equal, as sets, to the scalar model's ``implementation_space``,
        ``goal_space`` and ``action_space`` (asserted in the test suite).
        """
        if not activity:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        impl_mask, goal_mask, action_mask = self._space_masks(activity)
        return (
            np.flatnonzero(impl_mask),
            np.flatnonzero(goal_mask),
            np.flatnonzero(action_mask),
        )

    def space_sizes(
        self, activity: frozenset[int]
    ) -> tuple[int, int, int, int]:
        """``(|IS(H)|, |GS(H)|, |AS(H)|, |AS(H) − H|)`` from the engine arrays.

        Counts the masks behind :meth:`spaces` without materializing ids.
        """
        if not activity:
            return 0, 0, 0, 0
        impl_mask, goal_mask, action_mask = self._space_masks(activity)
        as_size = int(np.count_nonzero(action_mask))
        in_h = int(np.count_nonzero(action_mask[self._activity_array(activity)]))
        return (
            int(np.count_nonzero(impl_mask)),
            int(np.count_nonzero(goal_mask)),
            as_size,
            as_size - in_h,
        )

    def best_match_distances(self, activity: frozenset[int]) -> dict[int, float]:
        """Cosine distances of every candidate to the goal-space profile."""
        candidates, scores = self._best_match_scores(activity)
        return {
            int(aid): -float(score) for aid, score in zip(candidates, scores)
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def rank(
        self, activity: frozenset[int], k: int, strategy: str
    ) -> list[tuple[int, float]]:
        """Top-``k`` ``(action_id, score)`` under ``strategy``."""
        require_in(strategy, _STRATEGIES, "strategy")
        if strategy == "breadth":
            return self._breadth_rank(activity, k)
        if strategy in ("focus_cmp", "focus_cl"):
            measure = "completeness" if strategy == "focus_cmp" else "closeness"
            return self.focus_rank(activity, k, measure)
        candidates, scores = self._best_match_scores(activity)
        if candidates.size == 0:
            return []
        return self._ranked_pairs(candidates, scores, k)

    def recommend(
        self,
        activity: frozenset[ActionLabel] | set[ActionLabel],
        k: int = 10,
        strategy: str = "breadth",
    ) -> RecommendationList:
        """Label-level single-request entry point."""
        require_request_count(k, "k")
        encoded = self.model.encode_activity(activity)
        ranked = self.rank(encoded, k, strategy)
        labels = self._labels
        return RecommendationList(
            strategy=strategy,
            items=tuple(
                ScoredAction(labels[aid], score) for aid, score in ranked
            ),
            # Decode the *encoded* activity: labels the model has never
            # seen carry no goal evidence and are dropped, exactly like
            # RankingStrategy.recommend — the parity suite compares the
            # activity field across both paths.
            activity=frozenset(labels[aid] for aid in encoded),
        )

    def rank_many_breadth(
        self, encoded: list[frozenset[int]], k: int
    ) -> list[list[tuple[int, float]]]:
        """Breadth rankings for a block of activities via one spmm pipeline.

        Stacks the activities into a sparse ``H`` (activities × actions) and
        computes every overlap, score and candidate mask with three sparse
        matrix-matrix products instead of per-activity matvecs.  All values
        are small integer counts (exact in float64), so the results are
        bit-identical to :meth:`rank` row by row.
        """
        n = len(encoded)
        if n == 0:
            return []
        rows: list[int] = []
        cols: list[int] = []
        for i, activity in enumerate(encoded):
            for aid in activity:
                rows.append(i)
                cols.append(aid)
        h = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(n, self.model.num_actions),
        )
        overlaps = h @ self._mt  # (n × implementations): |A_p ∩ H_i|
        scores = (overlaps @ self._m).toarray()
        touched = overlaps.copy()
        touched.data = (touched.data > 0).astype(np.float64)
        reach = (touched @ self._m).toarray()
        h_dense = h.toarray()
        mask = (reach > 0) & (h_dense == 0) & (scores > 0)
        return [
            self._top_k(scores[i], mask[i], k) for i in range(n)
        ]

    def recommend_many(
        self,
        activities: list[frozenset[ActionLabel]],
        k: int = 10,
        strategy: str = "breadth",
        chunk_size: int = 1024,
        checkpoint: Callable[[int], None] | None = None,
    ) -> list[RecommendationList]:
        """Bulk entry point: one list per activity, in input order.

        ``breadth`` requests are scored in chunks of ``chunk_size``
        activities through :meth:`rank_many_breadth` (dense intermediates
        stay bounded at ``chunk_size × num_actions``); the other strategies
        reuse the per-activity vectorized path, which already amortizes the
        CSR build across the batch.

        ``checkpoint``, when given, is invoked with the index of the first
        activity of each chunk before the chunk is scored.  The serving
        layer uses it to abandon a batch whose deadline has expired (the
        callback raises) instead of scoring the remaining chunks; any
        exception it raises propagates unchanged.
        """
        require_request_count(k, "k")
        require_in(strategy, _STRATEGIES, "strategy")
        require_request_count(chunk_size, "chunk_size")
        activities = list(activities)
        if strategy != "breadth":
            results_scalar: list[RecommendationList] = []
            for i, activity in enumerate(activities):
                if checkpoint is not None and i % chunk_size == 0:
                    checkpoint(i)
                results_scalar.append(
                    self.recommend(activity, k=k, strategy=strategy)
                )
            return results_scalar
        encoded = [
            self.model.encode_activity(activity) for activity in activities
        ]
        results: list[RecommendationList] = []
        for start in range(0, len(activities), chunk_size):
            if checkpoint is not None:
                checkpoint(start)
            block = encoded[start:start + chunk_size]
            labels = self._labels
            for offset, ranked in enumerate(self.rank_many_breadth(block, k)):
                results.append(
                    RecommendationList(
                        strategy=strategy,
                        items=tuple(
                            ScoredAction(labels[aid], score)
                            for aid, score in ranked
                        ),
                        activity=frozenset(
                            labels[aid] for aid in encoded[start + offset]
                        ),
                    )
                )
        return results


class CsrStrategy(RankingStrategy):
    """Adapter presenting one :class:`BatchRecommender` strategy as a
    :class:`~repro.core.strategies.base.RankingStrategy`.

    The facade swaps this in for the scalar strategy of the same name when
    a CSR engine is available, so the whole instrumented ``recommend``
    machinery (spans, histograms, label decoding) runs unchanged while the
    scoring happens in the engine.  The ``model`` argument of :meth:`rank`
    is ignored — the engine is bound to its own model generation, and the
    facade guarantees both refer to the same frozen model.
    """

    def __init__(self, engine: BatchRecommender, name: str) -> None:
        require_in(name, _STRATEGIES, "strategy")
        self.engine = engine
        self.name = name

    def rank(
        self,
        model: object,
        activity: frozenset[int],
        k: int,
    ) -> list[tuple[int, float]]:
        return self.engine.rank(activity, k, self.name)

    def recommend(
        self,
        model: object,  # type: ignore[override]
        activity: frozenset[int],
        k: int,
    ) -> RecommendationList:
        """Validate, rank and decode — bit-identical to the base method.

        With observability off (the serving hot path) the base method's
        span/histogram plumbing and per-id ``action_label`` calls are pure
        overhead, so this override decodes through the engine's cached
        label table instead.  With observability on it defers to the
        instrumented base implementation unchanged.
        """
        if obs.is_enabled():
            return super().recommend(model, activity, k)  # type: ignore[arg-type]
        require_request_count(k, "k")
        ranked = self.engine.rank(activity, k, self.name)
        labels = self.engine._labels
        # The engine's contract already guarantees ``(id, float)`` pairs,
        # so the items skip the dataclass ``__init__``/``__post_init__``
        # re-validation — equality and hashing are field-based and see
        # objects identical to validated ones.
        new_item = ScoredAction.__new__
        set_field = object.__setattr__
        items: list[ScoredAction] = []
        for aid, score in ranked:
            item = new_item(ScoredAction)
            set_field(item, "action", labels[aid])
            set_field(item, "score", score)
            items.append(item)
        return RecommendationList(
            strategy=self.name,
            items=tuple(items),
            activity=frozenset(labels[aid] for aid in activity),
        )
