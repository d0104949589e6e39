"""Random Forest classifier built on :mod:`repro.ml.tree`.

The paper's detection models (stall severity, average representation)
are Weka Random Forests.  This implementation follows Breiman's
algorithm: bootstrap-sampled training sets, per-node random feature
subsets of size sqrt(n_features), and aggregation by averaging the
trees' leaf class distributions (soft voting), which is also what Weka
does by default.

Trees are independent once seeded, so :meth:`fit` fans out over an
``n_jobs`` worker pool (:mod:`repro.ml.parallel`).  Each tree draws its
RNG from its own ``np.random.SeedSequence.spawn`` child — never from a
generator shared across trees — and floating-point partials are
combined per fixed-size tree block in block order, so a fitted forest
is bit-identical for any ``n_jobs`` given the same ``random_state``.

:meth:`predict_proba` runs in-process over all trees concatenated into
one node array (built lazily, once per fitted or loaded ensemble), by
one of two walks chosen by row count.  A batch steps every (row, tree)
pair through the array in one vectorised index walk; a single row —
the per-chunk early prediction of a live session — walks each tree in
Python over list views of the same nodes, where NumPy's per-call
overhead would cost more than the walk.  Both sum the leaf votes in
the order of tree-by-tree scoring — sequentially within each block,
then blocks in order — so every row gets the same bits either way.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.obs import get_registry, trace

from .parallel import block_ranges, run_tasks
from .tree import _LEAF, DecisionTreeClassifier, leaf_distribution

__all__ = ["RandomForestClassifier"]

_REG = get_registry()
_FITS = _REG.counter(
    "repro_ml_forest_fits_total", "Random-Forest ensembles fitted."
)
_PREDICTIONS = _REG.counter(
    "repro_ml_forest_predictions_total",
    "Rows scored through RandomForestClassifier.predict_proba.",
)

#: Trees per dispatched fit task, and per vote-summing block in
#: ``predict_proba``.  Fixed (independent of ``n_jobs``) because float
#: partials are summed per block in block order — the determinism
#: anchor that makes serial and parallel runs bit-identical.
_TREE_BLOCK = 8


def _tree_seed_sequences(random_state, n: int) -> List[np.random.SeedSequence]:
    """One independent SeedSequence per tree.

    Spawned children have disjoint, order-independent streams: tree i
    gets the same stream whether fitted first, last, or in another
    process.  (Handing one shared Generator to every tree — the old
    scheme — made each tree's stream depend on how much entropy the
    previous trees consumed, which is inherently serial.)
    """
    if isinstance(random_state, np.random.SeedSequence):
        base = random_state
    elif isinstance(random_state, np.random.Generator):
        base = np.random.SeedSequence(int(random_state.integers(2**63)))
    else:
        base = np.random.SeedSequence(random_state)
    return base.spawn(n)


def _fit_tree_block(payload):
    """Fit one block of trees; returns (trees, oob_votes_or_None).

    Module-level so it pickles into process workers.  The OOB partial is
    accumulated in tree order within the block; the caller sums block
    partials in block order.
    """
    X, y_enc, n_classes, params, seeds, bootstrap, want_oob = payload
    n = X.shape[0]
    trees: List[DecisionTreeClassifier] = []
    oob_votes = np.zeros((n, n_classes)) if (want_oob and bootstrap) else None
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tree = DecisionTreeClassifier(random_state=rng, **params)
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            tree.fit(X[sample], y_enc[sample])
            if oob_votes is not None:
                mask = np.ones(n, dtype=bool)
                mask[sample] = False
                if mask.any():
                    # A bootstrap sample can miss classes; align the
                    # tree's columns into the forest's class space.
                    rows = np.nonzero(mask)[0]
                    cols = tree.classes_.astype(int)
                    oob_votes[np.ix_(rows, cols)] += tree.predict_proba(X[rows])
        else:
            tree.fit(X, y_enc)
        trees.append(tree)
    return trees, oob_votes


class _FlatWalk(NamedTuple):
    """Every tree of a fitted forest, concatenated for one index walk.

    Node ``i`` of tree ``t`` is global node ``roots[t] + i``.  Leaves
    point both children at themselves (split feature 0), so a fixed
    ``depth`` steps leave every walker on its leaf.  ``proba[node]`` is
    the node's class distribution placed in the forest's class space.
    ``lists`` holds ``feature``, ``threshold``, ``left`` and ``right``
    again as Python lists, for the one-row walk.  ``estimators`` is the
    list the walk was built from.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    proba: np.ndarray
    depth: int
    lists: tuple
    estimators: list


def _flatten(estimators: list, n_classes: int) -> _FlatWalk:
    sizes = [tree.node_count for tree in estimators]
    roots = np.zeros(len(estimators), dtype=np.int64)
    np.cumsum(sizes[:-1], out=roots[1:])
    feature, threshold, left, right = [], [], [], []
    proba = np.zeros((sum(sizes), n_classes))
    for tree, root, size in zip(estimators, roots, sizes):
        nodes = np.arange(root, root + size)
        leaf = tree._feature == _LEAF
        feature.append(np.where(leaf, 0, tree._feature))
        threshold.append(tree._threshold)
        left.append(np.where(leaf, nodes, tree._left + root))
        right.append(np.where(leaf, nodes, tree._right + root))
        # A bootstrap sample can miss classes: the tree's columns land
        # in the forest's class space, the missing ones stay zero.
        proba[root:root + size, tree.classes_.astype(int)] = (
            leaf_distribution(tree._value, tree.n_classes_)
        )
    feature = np.concatenate(feature)
    threshold = np.concatenate(threshold)
    left = np.concatenate(left)
    right = np.concatenate(right)
    return _FlatWalk(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        roots=roots,
        proba=proba,
        depth=max(tree.max_depth_ for tree in estimators),
        lists=(
            feature.tolist(), threshold.tolist(), left.tolist(), right.tolist()
        ),
        estimators=estimators,
    )


def _batch_votes(walk: _FlatWalk, X: np.ndarray) -> np.ndarray:
    """Summed leaf votes of every row of ``X``, one walker per (row, tree)."""
    n_rows, n_trees = X.shape[0], walk.roots.size
    # Each walker steps through ``X[row, feature] <= threshold``
    # exactly as DecisionTreeClassifier.apply does.
    flat_x = np.ascontiguousarray(X).ravel()
    offsets = (np.arange(n_rows) * X.shape[1])[:, None]
    nodes = np.broadcast_to(walk.roots, (n_rows, n_trees))
    for _ in range(walk.depth):
        go_left = (
            flat_x[offsets + walk.feature[nodes]] <= walk.threshold[nodes]
        )
        nodes = np.where(go_left, walk.left[nodes], walk.right[nodes])
    votes = walk.proba[nodes]
    # Sum trees sequentially within each block, then blocks in order
    # (cumsum along the tree axis is sequential).
    proba = np.zeros((n_rows, walk.proba.shape[1]))
    for a, b in block_ranges(n_trees, _TREE_BLOCK):
        proba += np.cumsum(votes[:, a:b], axis=1)[:, -1]
    return proba


def _row_votes(walk: _FlatWalk, x: list) -> np.ndarray:
    """:func:`_batch_votes` of the single row ``x``, in Python floats.

    Each tree is walked until a node's child is the node itself (a
    leaf); the comparison is the same IEEE ``<=`` (NaN goes right).
    The votes are added in the batch walk's order, and Python floats
    are IEEE doubles, so the sums are the same bits.
    """
    feature, threshold, left, right = walk.lists
    leaves = []
    for node in walk.roots.tolist():
        while True:
            if x[feature[node]] <= threshold[node]:
                child = left[node]
            else:
                child = right[node]
            if child == node:
                break
            node = child
        leaves.append(node)
    votes = walk.proba.take(leaves, axis=0).tolist()
    blocks = block_ranges(len(votes), _TREE_BLOCK)
    total = []
    for k in range(walk.proba.shape[1]):
        column = 0.0
        for a, b in blocks:
            block = votes[a][k]
            for vote in votes[a + 1:b]:
                block += vote[k]
            column += block
        total.append(column)
    return np.array([total])


class RandomForestClassifier:
    """Bagged ensemble of CART trees with random feature subsets.

    Parameters
    ----------
    n_estimators:
        Number of trees (Weka's default is 100; the experiments here use
        smaller forests where runtime matters, without changing results
        qualitatively).
    criterion, max_depth, min_samples_split, min_samples_leaf:
        Passed to each :class:`DecisionTreeClassifier`.
    max_features:
        Per-node feature-subset size; defaults to ``"sqrt"``.
    bootstrap:
        Draw each tree's training set with replacement (size n).  When
        False every tree sees the full training set and only feature
        subsampling decorrelates them.
    oob_score:
        When True (and bootstrap), compute the out-of-bag accuracy after
        fitting and expose it as ``oob_score_``.
    random_state:
        Seed for reproducible resampling and feature subsampling.
    n_jobs:
        Worker processes for fitting.  ``None``/1 runs serially; ``-1``
        uses all cores.  Results are bit-identical for any value.
        Prediction always runs in-process, over one flat node array.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state=None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(self, X: np.ndarray, y: np.ndarray):
        """Fit the ensemble on ``X`` (n_samples, n_features), labels ``y``."""
        with trace("ml.forest_fit") as span:
            self._fit(X, y)
            span.add("trees", self.n_estimators)
            span.add("rows", int(np.asarray(X).shape[0]))
        _FITS.inc()
        return self

    def _tree_params(self) -> dict:
        return {
            "criterion": self.criterion,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def _fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        n = X.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]

        seeds = _tree_seed_sequences(self.random_state, self.n_estimators)
        params = self._tree_params()
        want_oob = self.oob_score and self.bootstrap
        payloads = [
            (X, y_enc, self.classes_.size, params, seeds[a:b],
             self.bootstrap, want_oob)
            for a, b in block_ranges(self.n_estimators, _TREE_BLOCK)
        ]
        results = run_tasks(
            _fit_tree_block, payloads, n_jobs=self.n_jobs, task="forest_fit"
        )

        self.estimators_ = []
        oob_votes = np.zeros((n, self.classes_.size)) if want_oob else None
        for trees, oob_partial in results:
            self.estimators_.extend(trees)
            if oob_votes is not None and oob_partial is not None:
                oob_votes += oob_partial

        if oob_votes is not None:
            seen = oob_votes.sum(axis=1) > 0
            if seen.any():
                pred = np.argmax(oob_votes[seen], axis=1)
                self.oob_score_ = float(np.mean(pred == y_enc[seen]))
            else:
                self.oob_score_ = float("nan")
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "estimators_"):
            raise RuntimeError("forest is not fitted; call fit() first")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of the trees' leaf class distributions.

        One row walks the trees in Python (:func:`_row_votes`), more
        rows in one vectorised walk (:func:`_batch_votes`); the votes
        are summed in one order, so a row's probabilities are the same
        bits alone or in a batch.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(
                f"X must be 2-dimensional, got ndim={X.ndim}; reshape a "
                "single sample to (1, n_features)"
            )
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the forest was fitted "
                f"with {self.n_features_}"
            )
        with trace("ml.forest_predict") as span:
            walk = self._walk()
            n_rows = X.shape[0]
            if n_rows == 1:
                proba = _row_votes(walk, X[0].tolist())
            else:
                proba = _batch_votes(walk, X)
            span.add("rows", n_rows)
        _PREDICTIONS.inc(n_rows)
        return proba / walk.roots.size

    def _walk(self) -> _FlatWalk:
        """The flattened trees, derived once per fitted ensemble.

        Published as one immutable tuple, so a thread racing the first
        call sees either nothing (and builds its own) or a whole walk.
        """
        walk = self.__dict__.get("_flat_walk")
        if walk is None or walk.estimators is not self.estimators_ or (
            walk.roots.size != len(self.estimators_)
        ):
            walk = _flatten(self.estimators_, self.classes_.size)
            self._flat_walk = walk
        return walk

    def __getstate__(self) -> dict:
        # The walk is derived, per process: never pickle it.
        state = self.__dict__.copy()
        state.pop("_flat_walk", None)
        return state

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority (soft) vote of the ensemble."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def feature_importances(self) -> np.ndarray:
        """Mean impurity-decrease importances across trees."""
        self._check_fitted()
        importances = np.zeros(self.n_features_)
        for tree in self.estimators_:
            importances += tree.feature_importances()
        importances /= len(self.estimators_)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances
