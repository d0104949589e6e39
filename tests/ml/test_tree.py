"""Unit tests for the CART decision tree."""

import copy
import types

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier, _impurity


def _separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestFit:
    def test_perfectly_separable_data_fits_exactly(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_classes_attribute_sorted(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y + 5)
        assert tree.classes_.tolist() == [5, 6]

    def test_string_labels(self):
        X, y = _separable()
        labels = np.where(y == 0, "low", "high")
        tree = DecisionTreeClassifier().fit(X, labels)
        assert set(tree.predict(X)) <= {"low", "high"}

    def test_max_depth_respected(self):
        X, y = _separable(400)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.max_depth_ <= 3

    def test_min_samples_leaf_respected(self):
        X, y = _separable(300, seed=1)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 20

    def test_single_class_gives_single_leaf(self):
        X = np.random.default_rng(2).normal(size=(50, 3))
        y = np.zeros(50)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count == 1

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.empty((0, 3)), np.empty(0))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4))

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))

    def test_invalid_criterion_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="mse")

    def test_entropy_criterion_works(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.95


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((2, 3)))

    def test_wrong_feature_count_raises(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 7)))

    def test_proba_rows_sum_to_one(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_proba_in_unit_interval(self):
        X, y = _separable(seed=5)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_three_class_problem(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(300, 3))
        y = np.digitize(X[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.95


class TestFeatureSubsampling:
    def test_max_features_sqrt(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0).fit(X, y)
        assert tree._n_sub == 2    # ceil(sqrt(4))

    def test_max_features_int_out_of_range(self):
        X, y = _separable()
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=10).fit(X, y)

    def test_deterministic_given_seed(self):
        X, y = _separable(seed=9)
        t1 = DecisionTreeClassifier(max_features=2, random_state=42).fit(X, y)
        t2 = DecisionTreeClassifier(max_features=2, random_state=42).fit(X, y)
        assert (t1.predict(X) == t2.predict(X)).all()


class TestImportances:
    def test_importances_sum_to_one(self):
        X, y = _separable(seed=3)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances().sum() == pytest.approx(1.0)

    def test_informative_feature_dominates(self):
        X, y = _separable(seed=4)
        tree = DecisionTreeClassifier().fit(X, y)
        importances = tree.feature_importances()
        assert importances[0] == importances.max()
        assert importances[0] > 0.8


def reference_best_split(tree, X, y, w, indices):
    """Per-feature split search: the oracle for the vectorised one.

    One sort, prefix sum and impurity scan per candidate feature, in
    draw order.  It consumes the tree's RNG exactly as
    ``DecisionTreeClassifier._best_split`` does (one ``choice`` per
    node), so a tree grown with it must be bit-identical.
    """
    n = indices.size
    k = tree.n_classes_
    y_node = y[indices]
    if w is None:
        parent_counts = np.bincount(y_node, minlength=k).astype(float)
    else:
        parent_counts = np.bincount(y_node, weights=w[indices], minlength=k)
    parent_imp = _impurity(parent_counts, tree.criterion)
    if parent_imp <= 0:
        return None
    if tree._n_sub < tree.n_features_:
        features = tree._rng.choice(
            tree.n_features_, size=tree._n_sub, replace=False
        )
    else:
        features = np.arange(tree.n_features_)
    best_gain = 1e-12
    best = None
    min_leaf = tree.min_samples_leaf
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_node] = 1.0
    if w is not None:
        onehot *= w[indices][:, None]
    total = parent_counts.sum()
    for feat in features:
        col = X[indices, feat]
        order = np.argsort(col, kind="mergesort")
        v = col[order]
        if v[0] == v[-1]:
            continue
        prefix = np.cumsum(onehot[order], axis=0)
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if boundaries.size == 0:
            continue
        if min_leaf > 1:
            boundaries = boundaries[
                (boundaries + 1 >= min_leaf) & (n - boundaries - 1 >= min_leaf)
            ]
            if boundaries.size == 0:
                continue
        left_counts = prefix[boundaries]
        right_counts = parent_counts - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = total - n_left
        with np.errstate(invalid="ignore", divide="ignore"):
            if tree.criterion == "gini":
                gl = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
                gr = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
            else:
                pl = left_counts / n_left[:, None]
                pr = right_counts / n_right[:, None]
                gl = -np.nansum(np.where(pl > 0, pl * np.log2(pl), 0.0), axis=1)
                gr = -np.nansum(np.where(pr > 0, pr * np.log2(pr), 0.0), axis=1)
            child = (n_left * gl + n_right * gr) / total
        gains = parent_imp - child
        gains = np.where(np.isfinite(gains), gains, -np.inf)
        best_local = int(np.argmax(gains))
        if gains[best_local] > best_gain:
            best_gain = float(gains[best_local])
            cut_pos = int(boundaries[best_local])
            thr = 0.5 * (v[cut_pos] + v[cut_pos + 1])
            best = (int(feat), float(thr))
    return best


def fit_with_reference_split(params, X, y, sample_weight=None):
    """A tree grown with :func:`reference_best_split` at every node."""
    tree = DecisionTreeClassifier(**params)
    tree._best_split = types.MethodType(reference_best_split, tree)
    return tree.fit(X, y, sample_weight=sample_weight)


def assert_same_tree(a, b):
    for attr in ("_feature", "_threshold", "_left", "_right", "_value"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


def _awkward_matrix(rng, n, n_classes):
    """Continuous, tied, constant and NaN-holed columns plus labels."""
    X = rng.normal(size=(n, 7))
    X[:, 1] = np.round(X[:, 1])            # heavy ties
    X[:, 2] = 3.0                          # constant
    X[:, 3] = rng.integers(0, 2, size=n)   # two values only
    X[rng.random(n) < 0.2, 4] = np.nan     # NaN entries
    X[:, 5] = np.nan                       # all NaN
    cuts = np.linspace(-0.8, 0.8, n_classes - 1)
    y = np.digitize(X[:, 0] + 0.4 * X[:, 1] + 0.3 * rng.normal(size=n), cuts)
    return X, y


class TestSplitSearchEquivalence:
    """The vectorised split search must match the per-feature oracle,
    split for split, on every option that reaches it."""

    CASES = [
        dict(criterion=criterion, min_samples_leaf=leaf, max_features=mf)
        for criterion in ("gini", "entropy")
        for leaf in (1, 4)
        for mf in (None, "sqrt", 3)
    ]

    @staticmethod
    def _weights(rng, n, kind):
        if kind == "none":
            return None
        w = rng.uniform(0.1, 3.0, size=n)
        if kind == "zeros":
            w[rng.random(n) < 0.3] = 0.0
        return w

    def test_best_split_matches_per_feature_reference(self):
        for n_classes in (2, 3, 4):
            for weights in ("none", "positive", "zeros"):
                rng = np.random.default_rng(100 + 10 * n_classes + len(weights))
                X, y = _awkward_matrix(rng, 120, n_classes)
                w = self._weights(rng, y.size, weights)
                y_enc = np.unique(y, return_inverse=True)[1]
                for params in self.CASES:
                    tree = DecisionTreeClassifier(random_state=7, **params)
                    tree.fit(X, y, sample_weight=w)   # sets n_classes_, _rng
                    for seed in range(4):
                        indices = np.sort(
                            np.random.default_rng(seed).choice(
                                y.size, size=40 + 20 * seed, replace=False
                            )
                        )
                        draws = copy.deepcopy(tree._rng)
                        fast = tree._best_split(X, y_enc, w, indices)
                        tree._rng = draws
                        assert fast == reference_best_split(
                            tree, X, y_enc, w, indices
                        )

    def test_fitted_trees_bit_identical_predictions(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(400, 8))
        y = np.digitize(X[:, 0] - 0.5 * X[:, 2], [-0.4, 0.4])
        a = DecisionTreeClassifier(max_features="sqrt", random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_features="sqrt", random_state=5).fit(X, y)
        assert np.array_equal(a._threshold, b._threshold)
        assert np.array_equal(a._feature, b._feature)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_all_constant_node_has_no_split(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count == 1
        assert tree._best_split(X, y, None, np.arange(10)) is None

    def test_float_noise_gain_does_not_split(self):
        # Each x value holds one row of each class with equal weight, so
        # every cut keeps the parent's class mix; rounding leaves gains
        # of a few ulps, which the 1e-12 floor must reject.
        rng = np.random.default_rng(32)
        n_vals = int(rng.integers(2, 7))
        X = np.repeat(np.arange(n_vals, dtype=float), 2)[:, None]
        y = np.tile([0, 1], n_vals)
        w = np.repeat(rng.uniform(0.1, 3, size=n_vals), 2)
        tree = DecisionTreeClassifier().fit(X, y, sample_weight=w)
        assert tree.node_count == 1
        indices = np.arange(y.size)
        assert tree._best_split(X, y, w, indices) is None
        assert reference_best_split(tree, X, y, w, indices) is None

    @pytest.mark.parametrize("params", CASES)
    def test_fitted_trees_match_reference(self, params):
        rng = np.random.default_rng(12)
        X, y = _awkward_matrix(rng, 300, 3)
        for w in (None, self._weights(rng, y.size, "zeros")):
            fast = DecisionTreeClassifier(random_state=5, **params).fit(
                X, y, sample_weight=w
            )
            slow = fit_with_reference_split(
                dict(random_state=5, **params), X, y, sample_weight=w
            )
            assert_same_tree(fast, slow)


class TestSampleWeight:
    def test_none_is_bit_identical_to_unit_weights(self):
        X, y = _separable(seed=3)
        plain = DecisionTreeClassifier(random_state=0).fit(X, y)
        unit = DecisionTreeClassifier(random_state=0).fit(
            X, y, sample_weight=np.ones(len(y))
        )
        assert np.array_equal(plain._feature, unit._feature)
        assert np.array_equal(plain._threshold, unit._threshold)
        assert np.array_equal(plain._value, unit._value)
        assert np.array_equal(plain.predict_proba(X), unit.predict_proba(X))

    def test_weighted_fit_differs_from_unweighted(self):
        # Two interleaved populations; weights silence the second one.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0).astype(int)
        # Mislabel a contiguous block, then weight those rows to zero:
        # a weight-aware fit must recover the clean structure.
        y_bad = y.copy()
        y_bad[:120] = 1 - y_bad[:120]
        w = np.ones(len(y_bad))
        w[:120] = 0.0
        weighted = DecisionTreeClassifier(
            max_depth=3, random_state=0
        ).fit(X, y_bad, sample_weight=w)
        unweighted = DecisionTreeClassifier(
            max_depth=3, random_state=0
        ).fit(X, y_bad)
        assert not np.array_equal(
            weighted.predict_proba(X), unweighted.predict_proba(X)
        )
        # The zero-weighted mislabelled block cannot distort the tree:
        # clean rows must be classified like a fit on them alone.
        clean = DecisionTreeClassifier(max_depth=3, random_state=0).fit(
            X[120:], y[120:]
        )
        agree = np.mean(weighted.predict(X) == clean.predict(X))
        assert agree > 0.95

    def test_leaf_values_are_weighted_counts(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        tree = DecisionTreeClassifier().fit(X, y, sample_weight=w)
        assert tree._value[0].tolist() == [3.0, 7.0]

    def test_invalid_sample_weight_rejected(self):
        X, y = _separable(n=20)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=np.ones(3))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                X, y, sample_weight=-np.ones(len(y))
            )
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                X, y, sample_weight=np.zeros(len(y))
            )
        with pytest.raises(ValueError):
            bad = np.ones(len(y))
            bad[0] = np.nan
            DecisionTreeClassifier().fit(X, y, sample_weight=bad)


class TestZeroTotalLeaves:
    def test_zero_weight_leaf_inherits_parent_distribution(self):
        # x <= 0.5 isolates the two zero-weight rows of class 0: their
        # leaf has no evidence and must answer the parent's mixture,
        # never an all-zero row argmaxing to class 0.
        X = np.array([[0.0], [0.4], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1, 1])
        w = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        tree = DecisionTreeClassifier(min_samples_split=2).fit(
            X, y, sample_weight=w
        )
        proba = tree.predict_proba(X)
        assert np.all(proba.sum(axis=1) > 0.999)
        assert (tree.predict(X) == 1).all()

    def test_handcrafted_zero_leaf_answers_uniform(self):
        X, y = _separable(n=50, seed=1)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        leaves = np.nonzero(tree._feature == -1)[0]
        tree._value[leaves[0]] = 0.0     # simulate a corrupted leaf
        hit = tree.apply(X) == leaves[0]
        if hit.any():
            proba = tree.predict_proba(X)
            assert np.allclose(proba[hit], 1.0 / tree.n_classes_)
