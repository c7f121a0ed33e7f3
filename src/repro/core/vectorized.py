"""Vectorized scoring over the goal model (NumPy CSR arrays).

The reference strategies in :mod:`repro.core.strategies` are pure-Python and
score one activity at a time — clear, and exactly what the paper's
pseudocode describes.  A single ``/recommend`` at paper-scale connectivity
benefits from not walking Python sets at all.  This module lowers the
model's indexes into int64 CSR arrays, each kept once, built from an
interned library's label tables and id-sorted rows
(:class:`~repro.core.model.InternedLibrary`, or an
:class:`~repro.core.model.AssociationGoalModel`, which offers the same
half):

- ``M`` (implementations × actions): ``M[p, a] = 1`` iff ``a ∈ A_p``
  (the ``GI-A-idx``; its rows are the id-sorted action lists).  Only the
  structure is kept — every entry is 1;
- ``Mᵀ`` (actions × implementations): the ``A-GI-idx`` posting lists;
- ``G`` (implementations × goals): one goal per implementation (the
  ``GI-G-idx``), kept as the ``goal_of_impl`` vector;
- ``C = Mᵀ G`` (actions × goals): ``C[a, g]`` counts the implementations
  of ``g`` containing ``a``;
- ``S = Mᵀ M`` (actions × actions): the co-occurrence counts, each row
  ordered by ``(-count, action_id)``.

Construction computes ``Mᵀ``, ``C`` and ``S`` with NumPy sorts and
counts (no sparse-matrix library); the engine keeps no matrix object,
and no per-row view either: a request slices the
rows it reads out of the flat arrays, between bounds read from each
index's ``indptr``, which the engine keeps once as a Python list.  With
``H`` a user's activity:

- per-implementation overlaps ``o_p = |A_p ∩ H|`` count each
  implementation's occurrences in the posting lists of ``H``;
- **Breadth** (Eq. 5-6, intersection reading): ``s = Mᵀ o = (Mᵀ M) h``
  with ``h`` the 0/1 activity vector — one request is a sum of ``|H|``
  precomputed rows of ``S``;
- **Focus completeness/closeness**: ``o / |A_p|`` and ``1 / (|A_p| − o)``
  elementwise over implementations with ``0 < o`` and ``o < |A_p|``;
- **Best Match** profile: ``Gᵀ o`` restricted to the goal space; candidate
  vectors are rows of ``C``;
- **goal inference** (``/goals``): a per-goal max of ``o / |A_p|`` (or
  ``(o / |A_p|)·(o / |H|)``) over ``goal_of_impl``, or the count of
  activity actions ``a`` with ``C[a, g] > 0``;
- **related actions** (``/related``): the Tanimoto similarity
  ``S[a, b] / (|A-GI[a]| + |A-GI[b]| − S[a, b])`` over row ``a`` of ``S``;
- **explanations** (``/explain``): the implementations of the action's
  posting list that ``IS(H)`` reaches, decoded from their rows of ``M``.

Every request, single or batched, gathers only the rows the activity
touches, so per-request cost tracks ``|IS(H)|`` — the same asymptotics as
the reference strategies, minus the Python interpreter.  (A Best Match
read whose candidate rows hold a large share of ``C`` sweeps ``C`` once
instead, which costs less than gathering them.)  Top-``k`` selection is
partial (:mod:`repro.core.topk`), not a full sort, and a Focus walk
over many implementations ranks only the prefix it consumes.

Results are bit-identical to the reference strategies and functions
(asserted in the test suite), including the deterministic tie-breaking:
every accumulated value is an integer count (exact in float64 regardless of
summation order), every ratio is the reference's expression evaluated
elementwise in the same order, and the single ``sqrt`` in the cosine
distance matches the reference formula.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from typing import Protocol, TypeVar

import numpy as np

from repro import obs
from repro.core.entities import (
    ActionLabel,
    GoalLabel,
    RecommendationList,
    ScoredAction,
)
from repro.core.goal_inference import SCORERS
from repro.core.model import LabelTables
from repro.core.strategies.base import RankingStrategy, require_request_count
from repro.core.topk import top_k_positions
from repro.exceptions import RecommendationError
from repro.utils.validation import require_in, require_positive

_STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")

#: Above this many candidates, ranked selection goes through the
#: ``argpartition`` path of :mod:`repro.core.topk`; below it a single
#: stable ``argsort`` over the (id-ascending) candidates is cheaper than
#: the partition's extra array passes.
_PARTITION_CUTOVER = 4096

#: The Focus walk's first window holds ``max(2 * k, _FIRST_WINDOW)``
#: implementations; a walk that runs past it widens the ranked prefix.
_FIRST_WINDOW = 16

#: The co-occurrence build counts action pairs in an ``n_actions²`` table
#: when that table has at most this many slots per pair, and by sorting
#: the pairs' keys otherwise.
_TABLE_SLOTS_PER_PAIR = 4

#: The co-occurrence rows are ordered by one packed int64 key while every
#: key stays below this bound, and by a three-key ``np.lexsort`` beyond it.
_PACKED_KEY_LIMIT = 2**63

#: Best Match sums the candidates' rows of ``C`` by one sweep over all of
#: ``C`` once those rows hold more than this share of its entries, and by
#: gathering them below it.
_SWEEP_SHARE = 0.25

_Label = TypeVar("_Label")


class EngineSource(Protocol):
    """What an engine is built from: the label tables, and per
    implementation its ascending action ids and its goal id."""

    @property
    def labels(self) -> LabelTables: ...

    @property
    def impl_rows(self) -> Sequence[Sequence[int]]: ...

    @property
    def impl_goal(self) -> Sequence[int]: ...


def _by_score_then_label(
    ids: np.ndarray, scores: np.ndarray, labels: list[_Label], top: int | None
) -> list[tuple[_Label, float]]:
    """``(label, score)`` pairs sorted by ``(-score, str(label))``, first ``top``.

    The order of the scalar ``/goals`` and ``/related`` functions.  Only the
    candidates scoring at least the ``top``-th best score can make the cut,
    so just those are decoded and sorted.
    """
    if top is not None and top < ids.size:
        kth = np.partition(scores, ids.size - top)[ids.size - top]
        keep = scores >= kth
        ids, scores = ids[keep], scores[keep]
    scored = [
        (labels[i], score) for i, score in zip(ids.tolist(), scores.tolist())
    ]
    scored.sort(key=lambda item: (-item[1], str(item[0])))
    return scored[:top]


def _gather_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR entries of ``rows``.

    Returns ``(positions, lengths)`` where ``positions`` indexes the CSR
    ``indices``/``data`` arrays for every entry of every requested row,
    concatenated in row order, and ``lengths`` is the per-row entry count.
    Pure index arithmetic; no Python loop.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
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


def _ranked_windows(
    ids: np.ndarray, scores: np.ndarray, chunk: int
) -> Iterator[np.ndarray]:
    """Positions of ``(ids, scores)`` ranked by ``(-score, id)``, in windows.

    ``ids`` must be ascending, so within a tie group the input order is
    the id order.  Up to :data:`_PARTITION_CUTOVER` candidates, one stable
    argsort on the negated scores ranks them all and the windows are
    ``chunk`` long.  Above it, :func:`~repro.core.topk.top_k_positions`
    ranks a prefix of ``chunk`` positions, and each further window doubles
    the prefix and yields its unseen part: a consumer that stops early
    pays for a partial selection instead of a full sort.  Either way the
    windows concatenate to the full ranking, since every prefix of a total
    order is that order's top-``n``.
    """
    if ids.size <= _PARTITION_CUTOVER:
        order = np.argsort(-scores, kind="stable")
        for start in range(0, order.size, chunk):
            yield order[start:start + chunk]
        return
    done, width = 0, chunk
    while done < ids.size:
        yield top_k_positions(ids, scores, width)[done:]
        done, width = width, 2 * width


def _run_lengths(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and how often each occurs."""
    size = ordered.size
    boundary = np.empty(size, dtype=bool)
    boundary[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    # Each run ends where the next starts; ``np.diff(starts, append=size)``
    # computes the same with several microseconds of argument handling, a
    # sizeable share of a sparse request.
    counts = np.empty(starts.size, dtype=np.int64)
    counts[:-1] = starts[1:]
    counts[-1:] = size
    counts -= starts
    return ordered[starts], counts


def _row_bounds(row_sizes: np.ndarray) -> np.ndarray:
    """A CSR ``indptr`` from per-row entry counts."""
    indptr = np.zeros(row_sizes.size + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=indptr[1:])
    return indptr


def _pair_keys(
    m_indptr: np.ndarray, m_indices: np.ndarray, n_actions: int
) -> Iterator[np.ndarray]:
    """The key ``a * n_actions + b`` of every pair ``a < b`` of actions
    sharing an implementation, once per implementation, in pieces.

    Implementations are grouped by length ``L``; each group's rows are
    gathered as one ``(n, L)`` block, ascending along each row, and the
    group yields one ``(n, L - 1 - i)`` piece per column ``i``: column
    ``i``'s actions paired with every later column.  No piece is longer
    than ``M`` has entries, so the keys never need to exist all at once.
    """
    lengths = np.diff(m_indptr)
    by_length = np.argsort(lengths, kind="stable")
    ordered = lengths[by_length]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    for group in np.split(by_length, cuts):
        width = int(lengths[group[0]])
        if width < 2:
            continue
        block = m_indices[m_indptr[group, None] + np.arange(width)]
        scaled = block * n_actions
        for i in range(width - 1):
            yield scaled[:, i, None] + block[:, i + 1:]


def _frequency_rows(
    upper: np.ndarray, counts: np.ndarray, diagonal: np.ndarray, n_actions: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric co-occurrence index, every row in ``(-count, col)``
    order: CSR ``(columns, counts, indptr)`` arrays.

    ``upper`` holds the distinct keys ``a * n_actions + b`` of the
    entries above the diagonal (``a < b``), with their positive
    ``counts``; ``diagonal[a]`` is entry ``(a, a)``, absent where 0.
    Each upper entry is written for both ``(a, b)`` and ``(b, a)``.  One
    in-place ``np.sort`` of the packed key ``(row * span + span - 1 -
    count) * n_actions + col``, with ``span = max count + 1``, orders the
    entries exactly like the three-key ``np.lexsort`` — every key is
    unique — at a fraction of its cost, and the columns and counts are
    decoded from the sorted keys.  The key fits int64 while
    ``n_actions² · span < 2⁶³`` (:data:`_PACKED_KEY_LIMIT`); beyond that
    the lexsort runs.
    """
    rows, cols = np.divmod(upper, n_actions)
    diag = np.flatnonzero(diagonal)
    row_sizes = np.bincount(rows, minlength=n_actions)
    row_sizes += np.bincount(cols, minlength=n_actions)
    row_sizes[diag] += 1
    indptr = _row_bounds(row_sizes)
    span = int(max(counts.max(initial=0), diagonal.max(initial=0))) + 1
    parts = (
        (rows, cols, counts), (cols, rows, counts),
        (diag, diag, diagonal[diag]),
    )
    if n_actions * n_actions * span >= _PACKED_KEY_LIMIT:
        every_row, every_col, every_count = (
            np.concatenate(column) for column in zip(*parts)
        )
        order = np.lexsort((every_col, -every_count, every_row))
        return (
            every_col[order], every_count[order].astype(np.float64), indptr
        )
    key = np.empty(2 * upper.size + diag.size, dtype=np.int64)
    start = 0
    for row, col, count in parts:
        part = key[start:start + row.size]
        np.multiply(row, span, out=part)
        part += span - 1
        part -= count
        part *= n_actions
        part += col
        start += row.size
    del rows, cols, parts
    key.sort()
    cols = key % n_actions
    key //= n_actions
    key %= span
    return cols, np.subtract(span - 1, key, dtype=np.float64), indptr


class BatchRecommender:
    """Vectorized scorer over one interned goal library.

    Build once per model generation; a request is a few gathered CSR
    rows, and a bulk request is one such request per activity.
    Construction builds every derived structure, the co-occurrence index
    included, so an engine is complete and read-only from the moment it
    exists and concurrent readers share it without a lock.  Besides the
    arrays it keeps only the label tables (:attr:`labels`).  The serving
    layer builds one instance per generation, from the mutation log's
    interned live implementations, before publishing the generation's
    snapshot (``CachedModelView.csr_engine`` / ``ModelSnapshot.engine``),
    and routes every read through it: ``/recommend`` (the four paper
    strategies and the approximate tier), the batch endpoint, the
    ensemble's members, ``/spaces``, ``/goals``, ``/related``,
    ``/explain`` and the trace detail.
    """

    def __init__(self, source: EngineSource) -> None:
        labels = source.labels
        impl_rows = source.impl_rows
        n_impl = len(impl_rows)
        n_actions = len(labels.actions)
        n_goals = len(labels.goals)
        # The per-implementation action lists come sorted by id: flattened
        # they *are* ``M``'s canonical CSR structure.  int64 throughout:
        # the gather arithmetic's cumulative offsets and the packed sort
        # keys below would overflow int32 on large models.
        self._m_indptr = _row_bounds(
            np.fromiter(map(len, impl_rows), dtype=np.int64, count=n_impl)
        )
        self._m_indices = m_indices = np.fromiter(
            chain.from_iterable(impl_rows),
            dtype=np.int64,
            count=int(self._m_indptr[-1]),
        )
        self._goal_of_impl = np.fromiter(
            source.impl_goal, dtype=np.int64, count=n_impl
        )
        impl_of_entry = np.repeat(np.arange(n_impl), np.diff(self._m_indptr))
        # Mᵀ, the A-GI posting lists: the packed key ``action * n_impl +
        # pid`` sorts by action, then by pid, so each posting list comes
        # out ascending.
        post_lengths = np.bincount(m_indices, minlength=n_actions)
        self._post_indptr = _row_bounds(post_lengths)
        key = m_indices * n_impl
        key += impl_of_entry
        key.sort()
        key %= n_impl
        self._post_indices = key
        # C[a, g]: number of implementations of goal g containing action a
        # (Equation 8's counts for every action at once), the run lengths
        # of the sorted ``action * n_goals + goal`` keys: each row comes
        # out ascending by goal id.
        key = m_indices * n_goals
        key += self._goal_of_impl[impl_of_entry]
        key.sort()
        key, counts = _run_lengths(key)
        rows, self._c_indices = np.divmod(key, n_goals)
        self._c_indptr = _row_bounds(np.bincount(rows, minlength=n_actions))
        self._c_data = counts.astype(np.float64)
        # Freed before the co-occurrence build, the largest step.
        del impl_of_entry, key, rows, counts
        self._cooc_cols, self._cooc_vals, self._cooc_indptr = (
            self._build_cooccurrence(
                self._m_indptr, m_indices, post_lengths, n_actions
            )
        )
        self._derive_views(labels)

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
        never build (and privately allocate) it themselves.  The values
        are the engine's own arrays, not copies.
        """
        return {
            "m_indptr64": self._m_indptr,
            "m_indices64": self._m_indices,
            "post_indptr64": self._post_indptr,
            "post_indices64": self._post_indices,
            "c_data": self._c_data,
            "c_indptr64": self._c_indptr,
            "c_indices64": self._c_indices,
            "goal_of_impl": self._goal_of_impl,
            "cooc_cols": self._cooc_cols,
            "cooc_vals": self._cooc_vals,
            "cooc_indptr": self._cooc_indptr,
        }

    @classmethod
    def from_arrays(
        cls,
        source: LabelTables | EngineSource,
        arrays: dict[str, np.ndarray],
    ) -> "BatchRecommender":
        """Rebuild an engine from an :meth:`export_arrays` snapshot.

        ``source`` supplies the label tables: the exporter's own
        :attr:`labels` (what a pool worker inherits through fork), or
        anything carrying them.  ``arrays`` values may be views over shared
        memory; the engine keeps them as given, so the rebuilt engine
        reads the exporter's pages directly.  Results are bit-identical to
        the exporting engine (asserted in the test suite) because every
        index — including the frequency-ordered co-occurrence index with
        its tie-breaking order — is taken from the snapshot, never
        recomputed; only the row lengths and row bounds of
        :meth:`_derive_views` are.
        """
        self = cls.__new__(cls)
        self._m_indptr = arrays["m_indptr64"]
        self._m_indices = arrays["m_indices64"]
        self._post_indptr = arrays["post_indptr64"]
        self._post_indices = arrays["post_indices64"]
        self._c_data = arrays["c_data"]
        self._c_indptr = arrays["c_indptr64"]
        self._c_indices = arrays["c_indices64"]
        self._goal_of_impl = arrays["goal_of_impl"]
        self._cooc_cols = arrays["cooc_cols"]
        self._cooc_vals = arrays["cooc_vals"]
        self._cooc_indptr = arrays["cooc_indptr"]
        self._derive_views(
            source if isinstance(source, LabelTables) else source.labels
        )
        return self

    def _derive_views(self, labels: LabelTables) -> None:
        """What both constructors derive from the arrays.

        Implementation lengths feed the Focus scores.  The row bounds of
        the posting lists (the ``A-GI`` index) and of the co-occurrence
        index, as Python lists, let a request slice the handful of rows
        it reads (:meth:`posting_list`, :meth:`cooccurrence_row`) with
        plain integers, instead of running the index arithmetic of
        ``_gather_positions`` or reading NumPy scalars out of ``indptr``.
        The label tables encode and decode ids.
        """
        self.labels = labels
        self.num_actions = len(labels.actions)
        self.num_goals = len(labels.goals)
        self.num_implementations = int(self._goal_of_impl.size)
        self._impl_lengths = np.diff(self._m_indptr).astype(np.float64)
        self._post_bounds: list[int] = self._post_indptr.tolist()
        self._cooc_bounds: list[int] = self._cooc_indptr.tolist()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _activity_array(self, activity: frozenset[int]) -> np.ndarray:
        return np.fromiter(activity, dtype=np.int64, count=len(activity))

    def posting_list(self, aid: int) -> np.ndarray:
        """``A-GI-idx[aid]``: the implementations containing action
        ``aid``, ascending (a view of the posting-list array)."""
        bounds = self._post_bounds
        return self._post_indices[bounds[aid]:bounds[aid + 1]]

    def _postings(self, actions: Iterable[int]) -> np.ndarray:
        """The posting lists of ``actions`` (at least one), concatenated
        into a fresh array."""
        indices, bounds = self._post_indices, self._post_bounds
        return np.concatenate(
            [indices[bounds[a]:bounds[a + 1]] for a in actions]
        )

    def cooccurrence_row(self, aid: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``aid`` of ``S`` in ``(-count, action_id)`` order: its
        ``(columns, counts)``, as views of the co-occurrence arrays."""
        bounds = self._cooc_bounds
        start, end = bounds[aid], bounds[aid + 1]
        return self._cooc_cols[start:end], self._cooc_vals[start:end]

    def _overlap_counts(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(touched_pids, overlaps)`` via posting lists, pids ascending.

        Gathers the ``A-GI`` posting list of every activity action and
        counts multiplicities: an implementation appearing ``c`` times
        shares exactly ``c`` actions with ``H``.  Cost is proportional to
        the posting mass of the activity, not to the model size.  The
        concatenation is a fresh array, so it is sorted in place, and run
        boundaries give both the pids and their (integer) overlaps.
        """
        if not activity:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        touched = self._postings(activity)
        touched.sort()
        return _run_lengths(touched)

    @staticmethod
    def _build_cooccurrence(
        m_indptr: np.ndarray,
        m_indices: np.ndarray,
        post_lengths: np.ndarray,
        n_actions: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The frequency-ordered co-occurrence index, as CSR ``(columns,
        counts, indptr)`` arrays.

        ``S = MᵀM`` with every row sorted by ``(-count, action_id)``:
        ``S[b, c]`` counts the implementations containing both ``b`` and
        ``c``, so summing the rows of the activity's actions *is* the
        Breadth ranking, and truncating each row to its heaviest entries is
        the approximate tier's budgeted traversal.  A request is one
        ``np.concatenate`` of ``|H|`` row slices.

        Only the upper triangle is counted, from each implementation's
        pairs (:func:`_pair_keys`); the diagonal is the posting-list
        lengths.  When an ``n_actions²`` table has at most
        :data:`_TABLE_SLOTS_PER_PAIR` slots per pair (a dense catalog), the
        pieces are added into it as they come, so the pairs never exist
        all at once; otherwise they are written into one array, sorted
        and run-length encoded.  :func:`_frequency_rows` mirrors and
        orders the counts.
        """
        lengths = np.diff(m_indptr)
        pair_count = int((lengths * (lengths - 1) // 2).sum())
        if n_actions * n_actions <= _TABLE_SLOTS_PER_PAIR * pair_count:
            table = np.zeros(n_actions * n_actions, dtype=np.int64)
            for keys in _pair_keys(m_indptr, m_indices, n_actions):
                np.add.at(table, keys, 1)
            upper = np.flatnonzero(table)
            counts = table[upper]
            del table
        else:
            pairs = np.empty(pair_count, dtype=np.int64)
            start = 0
            for keys in _pair_keys(m_indptr, m_indices, n_actions):
                pairs[start:start + keys.size] = keys.ravel()
                start += keys.size
            pairs.sort()
            upper, counts = _run_lengths(pairs)
            del pairs
        return _frequency_rows(upper, counts, post_lengths, n_actions)

    @staticmethod
    def _ranked_pairs(
        ids: np.ndarray, scores: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """Top-``k`` ``(id, score)`` pairs of non-empty, ascending ``ids``.

        Every engine call site passes ids straight out of
        ``np.flatnonzero``, so the first ``k``-long window of
        :func:`_ranked_windows` is the ranking's top ``k``.
        """
        ranked = next(_ranked_windows(ids, scores, k))
        return list(zip(ids[ranked].tolist(), scores[ranked].tolist()))

    # ------------------------------------------------------------------
    # Strategy scorers (id level)
    # ------------------------------------------------------------------

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
        bounds = self._cooc_bounds
        if budget is None:
            spans = [(bounds[a], bounds[a + 1]) for a in activity]
        else:
            spans = [
                (bounds[a], min(bounds[a] + budget, bounds[a + 1]))
                for a in activity
            ]
        cols, vals = self._cooc_cols, self._cooc_vals
        col_parts = [cols[start:end] for start, end in spans]
        val_parts = [vals[start:end] for start, end in spans]
        sub_cols = np.concatenate(col_parts)
        if sub_cols.size == 0:
            return []
        scores = np.bincount(
            sub_cols,
            weights=np.concatenate(val_parts),
            minlength=self.num_actions,
        )
        # Candidates are AS(H) − H: every co-occurrence count is positive,
        # so after zeroing H the positive scores are exactly the reached
        # columns outside H, already in ascending id order.
        scores[list(activity)] = 0.0
        candidates = np.flatnonzero(scores > 0.0)
        if candidates.size == 0:
            return []
        return self._ranked_pairs(candidates, scores[candidates], k)

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
        implementations matches the reference algorithm.  The walk reads
        the ranking window by window (:func:`_ranked_windows`), so above
        :data:`_PARTITION_CUTOVER` touched implementations it ranks only
        the prefix it consumes instead of sorting them all.
        """
        pids, counts = self._overlap_counts(activity)
        if pids.size == 0:
            return []
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
        # The walk usually consumes a handful of implementations before
        # filling ``k``, so it materializes the ranking window by window,
        # and each visited implementation's actions (its id-sorted row of
        # ``M``) as one small list.
        indptr, indices = self._m_indptr, self._m_indices
        result: list[tuple[int, float]] = []
        seen: set[int] = set()
        chunk = max(2 * k, _FIRST_WINDOW)
        for window in _ranked_windows(pids, scores, chunk):
            for pid, score in zip(
                pids[window].tolist(), scores[window].tolist()
            ):
                if score >= full:
                    continue
                for aid in indices[indptr[pid]:indptr[pid + 1]].tolist():
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

        The candidates ``AS(H) − H`` come from the activity's co-occurrence
        rows (:meth:`_action_mask`), which reach exactly the actions of
        the rows of ``M`` that ``IS(H)`` touches.  The goal profile is a
        bincount over the touched implementations' goals, and each
        candidate's dot product / squared norm over the goal space comes
        from its row of ``C`` (:meth:`_goal_products`) — the profile
        vector is zero outside ``GS(H)``, which restricts the dot product
        exactly like the reference's axis projection.  All accumulations
        are integer-valued (exact in float64) and the distance applies the
        reference's single ``sqrt(norm_u * norm_v)``, so scores are
        bit-identical to
        :class:`~repro.core.strategies.best_match.BestMatchStrategy`.
        """
        pids, overlaps = self._overlap_counts(activity)
        empty = np.empty(0, dtype=np.int64), np.empty(0)
        if pids.size == 0:
            return empty
        reach = self._action_mask(activity)
        reach[list(activity)] = False
        candidates = np.flatnonzero(reach)
        if candidates.size == 0:
            return empty
        touched_goals = self._goal_of_impl[pids]
        profile = np.bincount(
            touched_goals, weights=overlaps, minlength=self.num_goals
        )
        # Not ``profile @ profile``: issued between other array work, that
        # OpenBLAS dot wakes its thread pool, and with the second core of
        # a 2-vCPU host busy it took a 0.9 ms median (5 ms p90) instead of
        # 15 µs.  The squares are integers, so any summation order gives
        # the same sum.
        profile_norm_sq = float(np.square(profile).sum())
        gs_indicator = np.zeros(self.num_goals)
        gs_indicator[touched_goals] = 1.0
        dots, norms_sq = self._goal_products(candidates, profile, gs_indicator)
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

    def _goal_products(
        self, rows: np.ndarray, profile: np.ndarray, gs_indicator: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per ascending row ``a`` of ``C``: ``Σ_g C[a, g]·profile[g]`` and
        ``Σ_g C[a, g]²·gs_indicator[g]``.

        Rows holding at most :data:`_SWEEP_SHARE` of ``C``'s entries are
        gathered (:func:`_gather_positions`) and summed per row with
        ``bincount``.  Above that — the dense regime, where ``AS(H)``
        spans most of the catalog — one sweep over ``C`` costs less: the
        per-entry terms go into a single ``C``-sized scratch array, and
        one ``np.add.reduceat`` over the rows' interleaved ``[start,
        end)`` bounds sums each row (the odd segments, between one row's
        end and the next row's start, are discarded).  Every term is an
        integer, so both paths' sums are exact and equal.
        """
        indptr, goals, counts = self._c_indptr, self._c_indices, self._c_data
        starts = indptr[rows]
        ends = indptr[rows + 1]
        if int((ends - starts).sum()) <= _SWEEP_SHARE * counts.size:
            positions, lengths = _gather_positions(indptr, rows)
            row_goals = goals[positions]
            row_counts = counts[positions]
            row_ids = np.repeat(np.arange(rows.size), lengths)
            dots = np.bincount(
                row_ids,
                weights=row_counts * profile[row_goals],
                minlength=rows.size,
            )
            norms_sq = np.bincount(
                row_ids,
                weights=(row_counts * row_counts) * gs_indicator[row_goals],
                minlength=rows.size,
            )
            return dots, norms_sq
        bounds = np.empty(2 * rows.size, dtype=np.int64)
        bounds[0::2] = starts
        bounds[1::2] = ends
        # A trailing zero keeps an end bound equal to C's size a valid
        # reduceat index.  Every goal id is in range, so ``mode="clip"``
        # changes nothing but spares ``take`` the buffered copy that the
        # default ``"raise"`` makes when writing into ``out``.
        scratch = np.empty(counts.size + 1)
        scratch[-1] = 0.0
        terms = scratch[:-1]
        np.take(profile, goals, out=terms, mode="clip")
        terms *= counts
        dots = np.add.reduceat(scratch, bounds)[0::2]
        np.take(gs_indicator, goals, out=terms, mode="clip")
        terms *= counts
        terms *= counts
        norms_sq = np.add.reduceat(scratch, bounds)[0::2]
        # On an empty segment reduceat returns the element at its start,
        # not 0.
        hollow = starts == ends
        if hollow.any():
            dots[hollow] = 0.0
            norms_sq[hollow] = 0.0
        return dots, norms_sq

    def _action_mask(self, activity: frozenset[int]) -> np.ndarray:
        """``AS(H)`` of a non-empty activity as a boolean action mask.

        The union of the activity's co-occurrence rows — exact because
        ``S = MᵀM`` has ``S[b, c] > 0`` iff some implementation contains
        both ``b`` and ``c`` (the diagonal keeps ``H``'s own co-occurring
        actions in ``AS``, as the scalar query does).
        """
        cols, bounds = self._cooc_cols, self._cooc_bounds
        mask = np.zeros(self.num_actions, dtype=bool)
        mask[np.concatenate([cols[bounds[a]:bounds[a + 1]] for a in activity])] = True
        return mask

    def _space_masks(
        self, activity: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean ``IS``/``GS``/``AS`` masks of a non-empty activity.

        The scalar space queries (Eq. 1-2) as masks instead of Python
        sets: ``IS`` marks the activity's posting lists, ``GS`` the goals
        of those implementations, and ``AS`` is :meth:`_action_mask`.
        """
        impl_mask = np.zeros(self.num_implementations, dtype=bool)
        impl_mask[self._postings(activity)] = True
        goal_mask = np.zeros(self.num_goals, dtype=bool)
        goal_mask[self._goal_of_impl[impl_mask]] = True
        return impl_mask, goal_mask, self._action_mask(activity)

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

    # ------------------------------------------------------------------
    # Goal inference, related actions and explanations (label level)
    # ------------------------------------------------------------------

    def infer_goals(
        self,
        activity: Iterable[ActionLabel],
        scorer: str = "coverage",
        top: int | None = None,
    ) -> list[tuple[GoalLabel, float]]:
        """Every goal of ``GS(H)`` scored, best first; ties by goal label.

        Equal, list for list, to
        :meth:`~repro.core.goal_inference.GoalInferencer.infer` over the
        same library (asserted in the test suite): ``evidence`` counts the
        activity actions ``a`` with ``C[a, g] > 0``; ``completeness`` and
        ``coverage`` take a per-goal max over ``goal_of_impl`` of the
        scalar scorer's expression, evaluated elementwise.
        """
        require_in(scorer, SCORERS, "scorer")
        if top is not None and top <= 0:
            raise RecommendationError(f"top must be positive, got {top}")
        encoded = self.labels.encode(activity)
        pids, overlaps = self._overlap_counts(encoded)
        if pids.size == 0:
            return []
        if scorer == "evidence":
            positions, _ = _gather_positions(
                self._c_indptr, self._activity_array(encoded)
            )
            counts = np.bincount(
                self._c_indices[positions], minlength=self.num_goals
            )
            gids = np.flatnonzero(counts)
            scores = counts[gids] / len(encoded)
        else:
            values = overlaps / self._impl_lengths[pids]
            if scorer == "coverage":
                values = values * (overlaps / len(encoded))
            goals = self._goal_of_impl[pids]
            best = np.zeros(self.num_goals)
            np.maximum.at(best, goals, values)
            # Every touched goal's best value is positive.
            gids = np.flatnonzero(best)
            scores = best[gids]
        return _by_score_then_label(gids, scores, self.labels.goals, top)

    def related_actions(
        self, action: ActionLabel, k: int = 10
    ) -> list[tuple[ActionLabel, float]]:
        """The ``k`` actions most related to ``action``; ties by label.

        Equal, list for list, to :func:`repro.core.related.related_actions`
        (asserted in the test suite): row ``a`` of ``S`` holds every
        co-occurring action ``b`` with its intersection count, and the
        posting-list lengths are ``|A-GI[a]|`` and ``|A-GI[b]|``.  Raises
        :class:`~repro.exceptions.UnknownActionError` for unindexed actions.
        """
        require_positive(k, "k")
        aid = self.labels.action_id(action)
        cols, counts = self.cooccurrence_row(aid)
        others = cols != aid
        cols, counts = cols[others], counts[others]
        indptr = self._post_indptr
        degrees = indptr[cols + 1] - indptr[cols]
        similarity = counts / (indptr[aid + 1] - indptr[aid] + degrees - counts)
        return _by_score_then_label(cols, similarity, self.labels.actions, k)

    def explain(
        self, activity: Iterable[ActionLabel], action: ActionLabel
    ) -> dict[GoalLabel, list[frozenset[ActionLabel]]]:
        """Per goal, the actions of each implementation that contains
        ``action`` and intersects the activity.

        Equal to :meth:`~repro.core.recommender.GoalRecommender.explain`
        (asserted in the test suite): goals in order of their lowest
        implementation id, implementations ascending within a goal.
        Raises :class:`~repro.exceptions.UnknownActionError` for
        unindexed actions.
        """
        encoded = self.labels.encode(activity)
        aid = self.labels.action_id(action)
        evidence: dict[GoalLabel, list[frozenset[ActionLabel]]] = {}
        if not encoded:
            return evidence
        reached = np.zeros(self.num_implementations, dtype=bool)
        reached[self._postings(encoded)] = True
        pids = self.posting_list(aid)
        pids = pids[reached[pids]]
        goals, actions = self.labels.goals, self.labels.actions
        indptr, indices = self._m_indptr, self._m_indices
        for pid, gid in zip(pids.tolist(), self._goal_of_impl[pids].tolist()):
            row = indices[indptr[pid]:indptr[pid + 1]].tolist()
            evidence.setdefault(goals[gid], []).append(
                frozenset(actions[a] for a in row)
            )
        return evidence

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
        encoded = self.labels.encode(activity)
        ranked = self.rank(encoded, k, strategy)
        labels = self.labels.actions
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

    def recommend_many(
        self,
        activities: list[frozenset[ActionLabel]],
        k: int = 10,
        strategy: str = "breadth",
        checkpoint: Callable[[int], None] | None = None,
    ) -> list[RecommendationList]:
        """Bulk entry point: one :meth:`recommend` per activity, in order.

        ``checkpoint``, when given, is invoked with each activity's index
        before that activity is scored.  The serving layer uses it to
        abandon a batch whose deadline has expired (the callback raises)
        instead of scoring the remaining activities; any exception it
        raises propagates unchanged.
        """
        require_request_count(k, "k")
        require_in(strategy, _STRATEGIES, "strategy")
        results: list[RecommendationList] = []
        for i, activity in enumerate(activities):
            if checkpoint is not None:
                checkpoint(i)
            results.append(self.recommend(activity, k=k, strategy=strategy))
        return results


class CsrStrategy(RankingStrategy):
    """Adapter presenting one :class:`BatchRecommender` strategy as a
    :class:`~repro.core.strategies.base.RankingStrategy`.

    The facade swaps this in for the scalar strategy of the same name when
    a CSR engine is available, so the whole instrumented ``recommend``
    machinery (spans, histograms, label decoding) runs unchanged while the
    scoring happens in the engine.  The ``model`` argument of :meth:`rank`
    is ignored — the engine is bound to its own model generation, and the
    facade guarantees both refer to the same one.
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
        labels = self.engine.labels.actions
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
