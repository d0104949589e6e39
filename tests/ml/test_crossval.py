"""Unit tests for stratified k-fold CV and splitting."""

import numpy as np
import pytest

from repro.ml.crossval import (
    clamped_cross_validate,
    cross_validate,
    stratified_kfold,
    train_test_split,
)
from repro.ml.forest import RandomForestClassifier


class TestStratifiedKfold:
    def test_every_index_tested_once(self):
        y = np.array([0] * 30 + [1] * 20)
        seen = []
        for _, test in stratified_kfold(y, n_splits=5, random_state=0):
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(50))

    def test_folds_disjoint_from_train(self):
        y = np.array([0] * 30 + [1] * 20)
        for train, test in stratified_kfold(y, n_splits=5, random_state=0):
            assert not set(train) & set(test)

    def test_stratification_preserved(self):
        y = np.array([0] * 40 + [1] * 10)
        for _, test in stratified_kfold(y, n_splits=5, random_state=1):
            labels, counts = np.unique(y[test], return_counts=True)
            assert set(labels) == {0, 1}
            ratio = counts[0] / counts[1]
            assert 2.0 <= ratio <= 8.0

    def test_too_many_splits_raises(self):
        y = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValueError):
            list(stratified_kfold(y, n_splits=5))

    def test_min_two_splits(self):
        with pytest.raises(ValueError):
            list(stratified_kfold(np.zeros(10), n_splits=1))


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(50, 2).astype(float)
        y = np.array([0, 1] * 25)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.2, random_state=0)
        assert len(y_te) == 10
        assert len(y_tr) == 40

    def test_stratified_keeps_both_classes(self):
        X = np.zeros((60, 1))
        y = np.array([0] * 50 + [1] * 10)
        _, __, ___, y_te = train_test_split(X, y, test_size=0.3, random_state=0)
        assert set(y_te) == {0, 1}

    def test_singleton_class_stays_in_training(self):
        """A class with one sample must not be swallowed whole by the
        test split — training would then never see that class."""
        X = np.zeros((21, 1))
        y = np.array([0] * 20 + [1])
        _, __, y_tr, y_te = train_test_split(X, y, test_size=0.3, random_state=0)
        assert 1 in y_tr
        assert 1 not in y_te

    def test_every_class_keeps_a_training_sample(self):
        X = np.zeros((12, 1))
        y = np.array([0] * 8 + [1] * 2 + [2] * 2)
        for seed in range(5):
            _, __, y_tr, ___ = train_test_split(
                X, y, test_size=0.5, random_state=seed
            )
            assert set(y_tr) == {0, 1, 2}

    def test_invalid_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros(5), test_size=1.5)

    def test_no_overlap(self):
        X = np.arange(40).reshape(40, 1).astype(float)
        y = np.array([0, 1] * 20)
        X_tr, X_te, _, __ = train_test_split(X, y, test_size=0.25, random_state=1)
        assert not set(X_tr[:, 0]) & set(X_te[:, 0])


class TestCrossValidate:
    def test_learnable_problem_scores_high(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(int)
        report = cross_validate(
            lambda: RandomForestClassifier(n_estimators=10, random_state=0),
            X,
            y,
            n_splits=5,
            random_state=0,
        )
        assert report.accuracy > 0.85

    def test_balance_hook_called_on_train_only(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = np.array([0] * 80 + [1] * 20)
        calls = []

        def balance(Xb, yb):
            calls.append(len(yb))
            return Xb, yb

        cross_validate(
            lambda: RandomForestClassifier(n_estimators=5, random_state=0),
            X,
            y,
            n_splits=5,
            random_state=0,
            balance=balance,
        )
        assert len(calls) == 5
        assert all(n == 80 for n in calls)   # train folds of 100 * 4/5

    def test_labels_order_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = np.array(["b", "a"] * 30)
        report = cross_validate(
            lambda: RandomForestClassifier(n_estimators=5, random_state=0),
            X,
            y,
            n_splits=3,
            random_state=0,
            labels=["b", "a"],
        )
        assert report.labels == ["b", "a"]


class TestClampedCrossValidate:
    @staticmethod
    def _factory():
        return RandomForestClassifier(n_estimators=5, random_state=0)

    def test_equals_cross_validate_with_clamped_folds(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(90, 3))
        y = np.array([0] * 60 + [1] * 26 + [2] * 4)
        for asked, used in ((10, 4), (3, 3), (1, 2)):
            clamped = clamped_cross_validate(
                self._factory, X, y, n_splits=asked, random_state=0
            )
            direct = cross_validate(
                self._factory, X, y, n_splits=used, random_state=0
            )
            assert clamped.classes == direct.classes
            assert np.array_equal(clamped.matrix, direct.matrix)

    def test_singleton_class_yields_report(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(41, 3))
        y = np.array(["a"] * 25 + ["b"] * 15 + ["c"])
        with pytest.raises(ValueError):
            cross_validate(self._factory, X, y, n_splits=2, random_state=0)
        report = clamped_cross_validate(
            self._factory, X, y, n_splits=10, random_state=0,
            labels=["a", "b", "c"],
        )
        rows = {row.label: row for row in report.classes}
        assert sum(row.support for row in rows.values()) == y.size
        # Tested by a model that never saw its class: an honest miss.
        assert rows["c"].support == 1
        assert rows["c"].recall == 0.0


def test_cross_validate_opens_span_with_folds():
    from repro.obs.tracing import Tracer, set_tracer

    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 2))
    y = np.array([0, 1] * 30)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        cross_validate(
            lambda: RandomForestClassifier(n_estimators=3, random_state=0),
            X, y, n_splits=4, random_state=0,
        )
    finally:
        set_tracer(previous)
    (node,) = [r for r in tracer.roots() if r.name == "ml.crossval"]
    assert node.count == 1
    assert node.counters["folds"] == 4
