"""Feature selection: CFS subset evaluation with best-first search, and
information-gain ranking.

These mirror the two Weka components the paper uses:

* ``CfsSubsetEval`` + ``BestFirst`` selects the feature subsets for the
  stall model (70 -> 4 features, §4.1) and the average-representation
  model (210 -> 15 features, §4.2).
* ``InfoGainAttributeEval`` produces the per-feature gains reported in
  Tables 2 and 5.

CFS (Hall, 1999) scores a subset S of k features by the *merit*

    merit(S) = k * mean(r_cf) / sqrt(k + k (k - 1) * mean(r_ff))

where ``r_cf`` is the mean feature-class correlation and ``r_ff`` the
mean feature-feature inter-correlation, both measured as symmetrical
uncertainty over supervised-discretised attributes.  Good subsets are
highly correlated with the class yet mutually non-redundant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import trace

from .information import (
    discretize,
    entropy_from_counts,
    information_gain,
    mdl_discretize,
)

__all__ = ["InfoGainRanker", "CfsSubsetSelector", "SelectionResult"]


def _discretize_matrix(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Supervised-discretised integer copy of a continuous feature matrix."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape, dtype=np.int64)
    for j in range(X.shape[1]):
        cuts = mdl_discretize(X[:, j], y)
        out[:, j] = discretize(X[:, j], cuts)
    return out


def _su_batch(rows, n_rows, h_rows, cols, n_cols, h_cols) -> np.ndarray:
    """Symmetrical uncertainty of T variable pairs in one pass.

    Pair ``t`` relates the compact codes ``rows[:, t]`` (``n_rows[t]``
    distinct values, entropy ``h_rows[t]``) to ``cols[:, t]``; ``cols``
    and its companions may broadcast.  All T contingency tables come
    from one ``np.bincount``.  The result equals
    :func:`repro.ml.information.symmetrical_uncertainty` bit for bit:
    table rows are visited in ascending code order, zero cells are
    dropped, each row's ``p log p`` terms are summed as one contiguous
    vector of the same length, and the conditional entropy accumulates
    row by row.
    """
    n, n_pairs = rows.shape
    if n_pairs == 0:
        return np.empty(0)
    n_rows = np.asarray(n_rows, dtype=np.int64)
    n_cols = np.broadcast_to(np.asarray(n_cols, dtype=np.int64), (n_pairs,))
    cells = n_rows * n_cols
    offsets = np.cumsum(cells) - cells
    counts = np.bincount(
        (offsets + rows * n_cols + cols).ravel(), minlength=int(cells.sum())
    )
    # Table rows, pair-major: row r holds row_len[r] cells.  Every code
    # occurs, so no row is empty.
    row_len = np.repeat(n_cols, n_rows)
    row_total = np.add.reduceat(counts, np.cumsum(row_len) - row_len)
    nonzero = counts > 0
    row_of_cell = np.repeat(np.arange(row_len.size), row_len)[nonzero]
    p = counts[nonzero] / row_total[row_of_cell]
    terms = p * np.log2(p)
    width = np.bincount(row_of_cell, minlength=row_len.size)
    start = np.cumsum(width) - width
    row_h = np.empty(row_len.size)
    for w in np.unique(width):
        which = np.nonzero(width == w)[0]
        row_h[which] = -terms[start[which, None] + np.arange(w)].sum(axis=1)
    # H(cols | rows): weighted row entropies summed in row order.
    grid = np.zeros((n_pairs, int(n_rows.max())))
    grid[np.repeat(np.arange(n_pairs), n_rows),
         np.arange(row_len.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
         ] = (row_total / n) * row_h
    h_cond = np.zeros(n_pairs)
    for column in grid.T:
        h_cond += column
    gain = h_cols - h_cond
    gain = np.where(gain > 0.0, gain, 0.0)
    denom = h_rows + h_cols
    with np.errstate(divide="ignore", invalid="ignore"):
        su = 2.0 * gain / denom
    return np.where(denom > 0, np.where(su < 1.0, su, 1.0), 0.0)


class _CodedColumns:
    """Discretised columns as compact codes with cached entropies."""

    def __init__(self, Xd: np.ndarray, y: np.ndarray) -> None:
        n, n_features = Xd.shape
        self.codes = np.empty((n, n_features), dtype=np.int64)
        self.sizes = np.empty(n_features, dtype=np.int64)
        self.entropy = np.empty(n_features)
        for j in range(n_features):
            _, self.codes[:, j], counts = np.unique(
                Xd[:, j], return_inverse=True, return_counts=True
            )
            self.sizes[j] = counts.size
            self.entropy[j] = entropy_from_counts(counts)
        _, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
        self.class_codes = inverse.reshape(-1, 1)
        self.class_size = counts.size
        self.class_entropy = entropy_from_counts(counts)

    def class_su(self) -> np.ndarray:
        """``symmetrical_uncertainty(X_j, y)`` for every column j."""
        return _su_batch(
            self.codes, self.sizes, self.entropy,
            self.class_codes, self.class_size, self.class_entropy,
        )

    def pair_su(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``symmetrical_uncertainty(X_lo, X_hi)`` for paired index arrays."""
        return _su_batch(
            self.codes[:, lo], self.sizes[lo], self.entropy[lo],
            self.codes[:, hi], self.sizes[hi], self.entropy[hi],
        )


@dataclass
class SelectionResult:
    """Outcome of a feature-selection run.

    Attributes
    ----------
    selected:
        Indices of the chosen features, in ranking order where the
        selector defines one.
    scores:
        Per-feature score aligned with ``selected`` (info gain for the
        ranker, merit contribution is not defined per-feature for CFS so
        the CFS selector reports each feature's individual info gain).
    names:
        Feature names aligned with ``selected`` when names were given.
    merit:
        Final subset merit (CFS only; ``None`` for the ranker).
    """

    selected: List[int]
    scores: List[float]
    names: Optional[List[str]] = None
    merit: Optional[float] = None

    def top(self, n: int) -> "SelectionResult":
        """Restrict to the ``n`` best entries."""
        return SelectionResult(
            selected=self.selected[:n],
            scores=self.scores[:n],
            names=self.names[:n] if self.names is not None else None,
            merit=self.merit,
        )


class InfoGainRanker:
    """Rank features by information gain w.r.t. the class.

    Numeric features are discretised with the Fayyad-Irani MDL criterion
    first, matching Weka's ``InfoGainAttributeEval`` behaviour.
    """

    def rank(
        self,
        X: np.ndarray,
        y: np.ndarray,
        names: Optional[Sequence[str]] = None,
    ) -> SelectionResult:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X/y shape mismatch")
        Xd = _discretize_matrix(X, y)
        gains = np.array(
            [information_gain(y, Xd[:, j]) for j in range(X.shape[1])]
        )
        order = np.argsort(-gains, kind="mergesort")
        return SelectionResult(
            selected=[int(j) for j in order],
            scores=[float(gains[j]) for j in order],
            names=[names[j] for j in order] if names is not None else None,
        )


class CfsSubsetSelector:
    """Correlation-based Feature Subset Selection with best-first search.

    Parameters
    ----------
    max_stale:
        Best-first gives up after this many consecutive expansions that
        fail to improve the best merit (Weka's ``searchTermination``,
        default 5).
    max_subset_size:
        Optional hard cap on the subset size (useful to keep the search
        cheap on the 210-feature set).
    """

    def __init__(self, max_stale: int = 5, max_subset_size: Optional[int] = None):
        if max_stale < 1:
            raise ValueError("max_stale must be >= 1")
        self.max_stale = max_stale
        self.max_subset_size = max_subset_size

    def select(
        self,
        X: np.ndarray,
        y: np.ndarray,
        names: Optional[Sequence[str]] = None,
    ) -> SelectionResult:
        """Run the search and return the best subset found."""
        with trace("ml.cfs_select") as span:
            result, evaluated, su_pairs = self._select(X, y, names)
            span.add("subsets_evaluated", evaluated)
            span.add("su_pairs", su_pairs)
        return result

    def _select(self, X, y, names):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X/y shape mismatch")
        n_features = X.shape[1]
        Xd = _discretize_matrix(X, y)
        coded = _CodedColumns(Xd, y)

        # Feature-class correlations, computed once.
        r_cf = coded.class_su()
        # Feature-feature correlations, filled one expansion at a time:
        # expanding S needs SU(s, j) for s in S and every candidate j,
        # and only the pairs with the newest member of S are not known.
        ff = np.full((n_features, n_features), np.nan)
        su_pairs = 0

        def fill(subset: FrozenSet[int], candidates: List[int]) -> int:
            members = np.fromiter(subset, dtype=np.int64)
            cand = np.asarray(candidates, dtype=np.int64)
            m, c = np.nonzero(np.isnan(ff[np.ix_(members, cand)]))
            if m.size == 0:
                return 0
            lo = np.minimum(members[m], cand[c])
            hi = np.maximum(members[m], cand[c])
            ff[lo, hi] = ff[hi, lo] = coded.pair_su(lo, hi)
            return int(m.size)

        def merit(subset: FrozenSet[int]) -> float:
            # The summation order (set iteration for r_cf, sorted pairs
            # for r_ff) is part of the result: merits, and so ties in
            # the search, must repeat bit for bit.
            k = len(subset)
            if k == 0:
                return 0.0
            sum_cf = sum(r_cf[j] for j in subset)
            if k == 1:
                return float(sum_cf)
            members = sorted(subset)
            sum_ff = 0.0
            for a in range(k):
                row = ff[members[a]]
                for b in range(a + 1, k):
                    sum_ff += row[members[b]]
            denom = np.sqrt(k + 2.0 * sum_ff)
            return float(sum_cf / denom) if denom > 0 else 0.0

        # Best-first forward search.
        start: FrozenSet[int] = frozenset()
        best_subset = start
        best_merit = merit(start)
        # heap of (-merit, tiebreak, subset); tiebreak keeps heap total-ordered
        counter = 0
        frontier: List[Tuple[float, int, FrozenSet[int]]] = [(-best_merit, counter, start)]
        visited = {start}
        stale = 0

        while frontier and stale < self.max_stale:
            _, __, subset = heapq.heappop(frontier)
            improved = False
            if self.max_subset_size is not None and len(subset) >= self.max_subset_size:
                candidates: List[int] = []
            else:
                candidates = [j for j in range(n_features) if j not in subset]
            if subset and candidates:
                su_pairs += fill(subset, candidates)
            for j in candidates:
                child = subset | {j}
                if child in visited:
                    continue
                visited.add(child)
                m = merit(child)
                counter += 1
                heapq.heappush(frontier, (-m, counter, child))
                if m > best_merit + 1e-12:
                    best_merit = m
                    best_subset = child
                    improved = True
            stale = 0 if improved else stale + 1

        # Order the subset by feature-class correlation and report each
        # member's individual information gain (what Tables 2/5 show).
        selected = sorted(best_subset, key=lambda j: -r_cf[j])
        scores = [information_gain(y, Xd[:, j]) for j in selected]
        result = SelectionResult(
            selected=[int(j) for j in selected],
            scores=[float(s) for s in scores],
            names=[names[j] for j in selected] if names is not None else None,
            merit=float(best_merit),
        )
        return result, counter, su_pairs
