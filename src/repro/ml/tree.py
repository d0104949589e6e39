"""CART decision-tree classifier implemented on numpy.

This is the base learner for :class:`repro.ml.forest.RandomForestClassifier`.
It supports the features the paper's Weka pipeline depends on:

* Gini or entropy split criterion on continuous features.
* Per-node random feature subsampling (``max_features``) so it can serve
  as a random-forest base learner.
* Probability estimates from leaf class frequencies (used for the
  forest's soft voting).

Split search is vectorised across the candidate features of a node:
one stable column-wise sort and one class-count prefix sum give the
impurity of every possible threshold of every feature in
O(n * m * k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeClassifier", "leaf_distribution"]

_LEAF = -1


@dataclass
class _TreeBuffers:
    """Growable flat arrays describing the fitted tree."""

    feature: list = field(default_factory=list)    # split feature or _LEAF
    threshold: list = field(default_factory=list)  # split threshold
    left: list = field(default_factory=list)       # left child index
    right: list = field(default_factory=list)      # right child index
    value: list = field(default_factory=list)      # class-count vector

    def add_node(self, counts: np.ndarray) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(counts)
        return len(self.feature) - 1


def _impurity(counts: np.ndarray, criterion: str) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    if criterion == "gini":
        return float(1.0 - (p * p).sum())
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def leaf_distribution(counts: np.ndarray, n_classes: int) -> np.ndarray:
    """Class distribution of each row of node class counts.

    A zero-total row answers the uniform distribution over
    ``n_classes``.  Shared by the tree's ``predict_proba`` and the
    forest's flattened walk, so both divide identically.
    """
    totals = counts.sum(axis=1, keepdims=True)
    empty = totals == 0.0
    if np.any(empty):
        counts = np.where(empty, 1.0, counts)
        totals = np.where(empty, float(n_classes), totals)
    return counts / totals


class DecisionTreeClassifier:
    """CART classifier over continuous features.

    Parameters
    ----------
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    max_depth:
        Maximum tree depth; ``None`` grows until pure/exhausted.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per node. ``None`` uses all,
        ``"sqrt"`` uses ``ceil(sqrt(n_features))`` (the random-forest
        default), or an explicit int.
    random_state:
        Seed or :class:`numpy.random.Generator` for feature subsampling.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion: {criterion!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight=None):
        """Grow the tree on ``X`` (n_samples, n_features) and labels ``y``.

        ``sample_weight`` weights both the node class counts (and hence
        leaf probabilities) and the impurity gains of the split search.
        ``min_samples_split``/``min_samples_leaf`` keep their sklearn
        meaning as raw sample counts.  ``None`` is exactly the
        unweighted fit, bit for bit.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape != (X.shape[0],):
                raise ValueError(
                    "sample_weight must be 1-dimensional with one weight "
                    f"per sample, got shape {sample_weight.shape}"
                )
            if not np.all(np.isfinite(sample_weight)) or np.any(
                sample_weight < 0
            ):
                raise ValueError("sample_weight must be finite and >= 0")
            if sample_weight.sum() <= 0:
                raise ValueError("sample_weight must not sum to zero")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_classes_ = self.classes_.size
        self.n_features_ = X.shape[1]
        self._rng = (
            self.random_state
            if isinstance(self.random_state, np.random.Generator)
            else np.random.default_rng(self.random_state)
        )
        self._n_sub = self._resolve_max_features()

        buffers = _TreeBuffers()
        indices = np.arange(X.shape[0])
        self._grow(buffers, X, y_enc, sample_weight, indices, depth=0)

        self._feature = np.asarray(buffers.feature, dtype=np.int64)
        self._threshold = np.asarray(buffers.threshold, dtype=float)
        self._left = np.asarray(buffers.left, dtype=np.int64)
        self._right = np.asarray(buffers.right, dtype=np.int64)
        self._value = np.asarray(buffers.value, dtype=float)
        self._backfill_empty_leaves()
        return self

    def _backfill_empty_leaves(self) -> None:
        """Give zero-weight leaves their parent's class distribution.

        A split can isolate rows whose weights are all zero; such a
        leaf carries no evidence of its own, so it inherits the nearest
        ancestor's counts rather than degrading ``predict_proba`` to an
        all-zero row (which ``predict`` would argmax to class 0).
        Nodes are appended parent-before-child, so one ascending pass
        propagates through chains of empty nodes; the root is never
        empty (``fit`` rejects all-zero weights).
        """
        if not np.any(self._value.sum(axis=1) == 0):
            return
        parent = np.zeros(self._feature.size, dtype=np.int64)
        for node in range(self._feature.size):
            if self._feature[node] != _LEAF:
                parent[self._left[node]] = node
                parent[self._right[node]] = node
        for node in range(1, self._feature.size):
            if self._value[node].sum() == 0:
                self._value[node] = self._value[parent[node]]

    def _resolve_max_features(self) -> int:
        mf = self.max_features
        if mf is None:
            return self.n_features_
        if mf == "sqrt":
            return max(1, int(np.ceil(np.sqrt(self.n_features_))))
        if mf == "log2":
            return max(1, int(np.ceil(np.log2(self.n_features_ + 1))))
        n = int(mf)
        if n < 1 or n > self.n_features_:
            raise ValueError("max_features out of range")
        return n

    def _grow(
        self,
        buffers: _TreeBuffers,
        X: np.ndarray,
        y: np.ndarray,
        w: Optional[np.ndarray],
        indices: np.ndarray,
        depth: int,
    ) -> int:
        if w is None:
            counts = np.bincount(
                y[indices], minlength=self.n_classes_
            ).astype(float)
        else:
            counts = np.bincount(
                y[indices], weights=w[indices], minlength=self.n_classes_
            )
        node = buffers.add_node(counts)

        if (
            indices.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node

        split = self._best_split(X, y, w, indices)
        if split is None:
            return node

        feat, thr = split
        mask = X[indices, feat] <= thr
        left_idx = indices[mask]
        right_idx = indices[~mask]
        if (
            left_idx.size < self.min_samples_leaf
            or right_idx.size < self.min_samples_leaf
        ):
            return node

        buffers.feature[node] = feat
        buffers.threshold[node] = thr
        buffers.left[node] = self._grow(buffers, X, y, w, left_idx, depth + 1)
        buffers.right[node] = self._grow(buffers, X, y, w, right_idx, depth + 1)
        return node

    def _best_split(self, X, y, w, indices):
        """Return (feature, threshold) of the impurity-minimising split.

        All candidate features are scored in one pass: a stable
        column-wise sort of the node's ``(n, m)`` feature block, one
        ``(n, m, k)`` class-count prefix sum, and one impurity
        evaluation over every ``(boundary, feature)`` cell.  Each cell
        goes through the same float operations a per-feature scan would
        apply to it, so the gains are identical.  The winner is the
        first feature, in draw order, whose best gain strictly beats
        the running best (floor ``1e-12``), at the first boundary that
        reaches that gain.
        """
        n = indices.size
        k = self.n_classes_
        y_node = y[indices]
        if w is None:
            parent_counts = np.bincount(y_node, minlength=k).astype(float)
        else:
            parent_counts = np.bincount(y_node, weights=w[indices], minlength=k)
        parent_imp = _impurity(parent_counts, self.criterion)
        if parent_imp <= 0:
            return None

        if self._n_sub < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=self._n_sub, replace=False
            )
        else:
            features = np.arange(self.n_features_)

        cols = X[indices[:, None], features]
        order = np.argsort(cols, axis=0, kind="mergesort")
        v = cols[order, np.arange(features.size)]
        # A cut after sorted row i is valid only where the value
        # changes (NaN never compares greater, so it is never cut on).
        valid = v[1:] > v[:-1]
        min_leaf = self.min_samples_leaf
        if min_leaf > 1:
            pos = np.arange(n - 1)
            valid[(pos + 1 < min_leaf) | (n - pos - 1 < min_leaf)] = False
        if not valid.any():
            return None

        # One-hot label rows (weighted if need be), gathered into each
        # feature's sort order: left class counts at every cut.
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_node] = 1.0
        if w is not None:
            onehot *= w[indices][:, None]
        left_counts = np.cumsum(onehot[order[:-1]], axis=0)
        right_counts = parent_counts - left_counts
        total = parent_counts.sum()
        n_left = left_counts.sum(axis=2)
        n_right = total - n_left
        with np.errstate(invalid="ignore", divide="ignore"):
            pl = left_counts / n_left[..., None]
            pr = right_counts / n_right[..., None]
            if self.criterion == "gini":
                gl = 1.0 - (pl**2).sum(axis=2)
                gr = 1.0 - (pr**2).sum(axis=2)
            else:
                gl = -np.where(pl > 0, pl * np.log2(pl), 0.0).sum(axis=2)
                gr = -np.where(pr > 0, pr * np.log2(pr), 0.0).sum(axis=2)
            child = (n_left * gl + n_right * gr) / total
        gains = parent_imp - child
        # A zero-weight side divides by zero above; such cuts carry no
        # information and must not win the argmax as NaN would.
        gains = np.where(valid & np.isfinite(gains), gains, -np.inf)

        per_feature = gains.max(axis=0)
        best_col = int(np.argmax(per_feature))
        if not per_feature[best_col] > 1e-12:
            return None
        cut_pos = int(np.argmax(gains[:, best_col]))
        thr = 0.5 * (v[cut_pos, best_col] + v[cut_pos + 1, best_col])
        return int(features[best_col]), float(thr)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _check_fitted(self) -> None:
        if not hasattr(self, "_feature"):
            raise RuntimeError("tree is not fitted; call fit() first")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row of ``X``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("X has the wrong shape")
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[nodes] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self._feature[cur]
            go_left = X[idx, feat] <= self._threshold[cur]
            nodes[idx] = np.where(go_left, self._left[cur], self._right[cur])
            active[idx] = self._feature[nodes[idx]] != _LEAF
        return nodes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf frequencies.

        Zero-total leaves are backfilled from their parent at fit time;
        should one slip through anyway (e.g. a hand-edited tree), it
        answers the uniform distribution rather than an all-zero row
        that ``predict`` would silently argmax to class 0.
        """
        leaves = self.apply(X)
        return leaf_distribution(self._value[leaves], self.n_classes_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class label for each row of ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        self._check_fitted()
        return int(self._feature.size)

    @property
    def max_depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        depth = np.zeros(self._feature.size, dtype=np.int64)
        out = 0
        for node in range(self._feature.size):
            if self._feature[node] != _LEAF:
                for child in (self._left[node], self._right[node]):
                    depth[child] = depth[node] + 1
                    out = max(out, int(depth[child]))
        return out

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances, normalised to sum 1."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)
        total_samples = self._value[0].sum()
        for node in range(self._feature.size):
            feat = self._feature[node]
            if feat == _LEAF:
                continue
            counts = self._value[node]
            left = self._value[self._left[node]]
            right = self._value[self._right[node]]
            n = counts.sum()
            decrease = n * _impurity(counts, self.criterion) - (
                left.sum() * _impurity(left, self.criterion)
                + right.sum() * _impurity(right, self.criterion)
            )
            importances[feat] += decrease / total_samples
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances
