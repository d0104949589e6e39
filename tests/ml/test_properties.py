"""Property-based tests (hypothesis) for the ML substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.information import (
    entropy,
    information_gain,
    symmetrical_uncertainty,
)
from repro.ml.metrics import classification_report, confusion_matrix
from repro.ml.tree import DecisionTreeClassifier

labels_st = arrays(
    np.int64,
    st.integers(min_value=2, max_value=60),
    elements=st.integers(min_value=0, max_value=4),
)


@given(labels_st)
def test_entropy_nonnegative_and_bounded(y):
    h = entropy(y)
    assert 0.0 <= h <= np.log2(max(2, np.unique(y).size)) + 1e-9


@given(labels_st, st.integers(min_value=0, max_value=4))
def test_entropy_invariant_to_label_renaming(y, offset):
    assert entropy(y) == entropy(y + offset)


@given(labels_st)
def test_information_gain_self_is_entropy(y):
    assert information_gain(y, y) == np.float64(entropy(y)) or abs(
        information_gain(y, y) - entropy(y)
    ) < 1e-9


@given(labels_st, labels_st)
def test_information_gain_bounded_by_entropy(y, x):
    n = min(y.size, x.size)
    y, x = y[:n], x[:n]
    assert information_gain(y, x) <= entropy(y) + 1e-9


@given(labels_st, labels_st)
def test_su_symmetric_and_bounded(x, y):
    n = min(x.size, y.size)
    x, y = x[:n], y[:n]
    su_xy = symmetrical_uncertainty(x, y)
    su_yx = symmetrical_uncertainty(y, x)
    assert abs(su_xy - su_yx) < 1e-9
    assert 0.0 <= su_xy <= 1.0


@given(
    arrays(
        np.int64,
        st.integers(min_value=2, max_value=40),
        elements=st.integers(min_value=0, max_value=3),
    ),
    arrays(
        np.int64,
        st.integers(min_value=2, max_value=40),
        elements=st.integers(min_value=0, max_value=3),
    ),
)
def test_confusion_matrix_total_and_marginals(y_true, y_pred):
    n = min(y_true.size, y_pred.size)
    y_true, y_pred = y_true[:n], y_pred[:n]
    labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    matrix = confusion_matrix(y_true, y_pred, labels=labels)
    assert matrix.sum() == n
    for i, label in enumerate(labels):
        assert matrix[i].sum() == int(np.sum(y_true == label))
        assert matrix[:, i].sum() == int(np.sum(y_pred == label))


@given(
    arrays(
        np.int64,
        st.integers(min_value=4, max_value=40),
        elements=st.integers(min_value=0, max_value=2),
    )
)
def test_report_weighted_recall_equals_accuracy(y):
    rng = np.random.default_rng(0)
    y_pred = rng.permutation(y)
    report = classification_report(y, y_pred)
    assert abs(report.weighted_recall - report.accuracy) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=10, max_value=80),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=1000),
)
def test_tree_training_accuracy_perfect_on_unique_rows(n, n_features, seed):
    """With unbounded depth and unique feature rows the tree must
    reproduce its training labels exactly."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    # ensure rows are unique in at least one feature by adding index
    X[:, 0] += np.arange(n) * 10.0
    y = rng.integers(0, 3, n)
    tree = DecisionTreeClassifier().fit(X, y)
    assert (tree.predict(X) == y).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tree_proba_is_distribution(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 3, 50)
    tree = DecisionTreeClassifier(max_depth=4, random_state=seed).fit(X, y)
    proba = tree.predict_proba(X)
    assert np.all(proba >= 0)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


@st.composite
def _tree_problems(draw):
    """Small matrices with ties, constant columns and NaN holes."""
    n = draw(st.integers(min_value=2, max_value=60))
    n_features = draw(st.integers(min_value=1, max_value=6))
    n_classes = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.sampled_from([2, 5, 1000]))   # few levels -> ties
    X = rng.integers(0, levels, size=(n, n_features)) / 7.0
    X[rng.random((n, n_features)) < draw(st.sampled_from([0.0, 0.15]))] = np.nan
    if draw(st.booleans()):
        X[:, rng.integers(n_features)] = 1.5       # a constant column
    y = rng.integers(0, n_classes, size=n)
    weights = draw(st.sampled_from(["none", "positive", "zeros"]))
    w = None
    if weights != "none":
        w = rng.uniform(0.1, 2.0, size=n)
        if weights == "zeros":
            w[rng.random(n) < 0.3] = 0.0
            w[0] = 1.0                              # never all zero
    params = dict(
        criterion=draw(st.sampled_from(["gini", "entropy"])),
        max_features=draw(st.sampled_from([None, "sqrt", 1])),
        min_samples_leaf=draw(st.integers(min_value=1, max_value=3)),
        max_depth=draw(st.sampled_from([None, 3])),
        random_state=seed,
    )
    return X, y, w, params


@settings(max_examples=120, deadline=None)
@given(_tree_problems())
def test_tree_bit_identical_to_reference_split(problem):
    """Whole fitted trees equal trees grown with the per-feature
    reference split search, array for array."""
    from tests.ml.test_tree import assert_same_tree, fit_with_reference_split

    X, y, w, params = problem
    fast = DecisionTreeClassifier(**params).fit(X, y, sample_weight=w)
    slow = fit_with_reference_split(params, X, y, sample_weight=w)
    assert_same_tree(fast, slow)
