"""Unit tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier


def _dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestFit:
    def test_basic_accuracy(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95

    def test_n_estimators_created(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(forest.estimators_) == 7

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.empty((0, 2)), np.empty(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.zeros((5, 2)), np.zeros(6))

    def test_deterministic_given_seed(self):
        X, y = _dataset(seed=2)
        f1 = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        f2 = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        assert (f1.predict(X) == f2.predict(X)).all()

    def test_string_labels(self):
        X, y = _dataset()
        labels = np.where(y == 0, "healthy", "stalled")
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(
            X, labels
        )
        assert set(forest.predict(X)) <= {"healthy", "stalled"}

    def test_no_bootstrap_mode(self):
        X, y = _dataset(seed=4)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95


class TestOob:
    def test_oob_score_in_unit_interval(self):
        X, y = _dataset(seed=5)
        forest = RandomForestClassifier(
            n_estimators=25, oob_score=True, random_state=0
        ).fit(X, y)
        assert 0.0 <= forest.oob_score_ <= 1.0

    def test_oob_reasonable_on_learnable_data(self):
        X, y = _dataset(n=500, seed=6)
        forest = RandomForestClassifier(
            n_estimators=30, oob_score=True, random_state=0
        ).fit(X, y)
        assert forest.oob_score_ > 0.8


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((2, 3)))

    def test_proba_rows_sum_to_one(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        proba = forest.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_three_class_bootstrap_may_miss_class(self):
        """Tiny classes can be absent from a bootstrap sample; the
        column alignment must still produce full-width probabilities."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 28 + [1] * 28 + [2] * 4)
        X[y == 2] += 5.0
        forest = RandomForestClassifier(n_estimators=12, random_state=1).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (60, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_one_dimensional_input_rejected(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="2-dimensional"):
            forest.predict_proba(X[0])
        with pytest.raises(ValueError, match="2-dimensional"):
            forest.predict(X[0])

    def test_feature_count_mismatch_rejected(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            forest.predict_proba(X[:, :4])
        with pytest.raises(ValueError, match="features"):
            forest.predict(np.zeros((3, X.shape[1] + 2)))

    def test_single_row_2d_accepted(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert forest.predict_proba(X[:1]).shape == (1, 2)

    def test_generalises_to_held_out(self):
        X, y = _dataset(n=600, seed=8)
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(
            X[:400], y[:400]
        )
        assert (forest.predict(X[400:]) == y[400:]).mean() > 0.85


class TestImportances:
    def test_sum_to_one(self):
        X, y = _dataset(seed=9)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert forest.feature_importances().sum() == pytest.approx(1.0)

    def test_informative_features_lead(self):
        X, y = _dataset(n=500, seed=10)
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        importances = forest.feature_importances()
        assert importances[0] + importances[1] > 0.6


# ----------------------------------------------------------------------
# Flat walk vs per-tree scoring
# ----------------------------------------------------------------------

#: Trees per summation block in the per-tree scoring below.
_ORACLE_BLOCK = 8


def _per_tree_proba(forest, X):
    """Oracle: score tree by tree, sum each 8-tree block, then blocks.

    A copy of the forest's earlier scoring: each tree's leaf
    distribution is added into the forest's class columns, trees summed
    sequentially within a block and block partials in block order.
    """
    X = np.asarray(X, dtype=float)
    n_classes = forest.classes_.size
    proba = np.zeros((X.shape[0], n_classes))
    trees = forest.estimators_
    for start in range(0, len(trees), _ORACLE_BLOCK):
        partial = np.zeros((X.shape[0], n_classes))
        for tree in trees[start:start + _ORACLE_BLOCK]:
            partial[:, tree.classes_.astype(int)] += tree.predict_proba(X)
        proba += partial
    return proba / len(trees)


def _rare_class_dataset(seed=0, n_rare=3):
    """Three classes, one tiny enough that bootstraps miss it."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(90, 5))
    y = np.array([0] * 42 + [1] * (48 - n_rare) + [2] * n_rare)
    X[y == 2] += 3.0
    return X, y


def _queries(n_rows, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=2.0, size=(n_rows, 5))
    if n_rows > 3:
        X[1, 2] = np.nan   # NaN compares False: the walk goes right
        X[3, :] = np.nan
    return X


class TestFlatWalk:
    @pytest.mark.parametrize("n_trees", [1, 8, 9, 20])
    @pytest.mark.parametrize("n_rows", [0, 1, 500])
    def test_matches_per_tree_scoring(self, n_trees, n_rows):
        X, y = _rare_class_dataset()
        forest = RandomForestClassifier(
            n_estimators=n_trees, random_state=n_trees
        ).fit(X, y)
        Q = _queries(n_rows)
        got = forest.predict_proba(Q)
        assert got.shape == (n_rows, 3)
        assert np.array_equal(got, _per_tree_proba(forest, Q))

    def test_votes_summed_per_block(self):
        """Non-dyadic leaf fractions: the summation order shows in bits."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(400, 5))
        y = rng.integers(0, 3, size=400)   # noise: mixed leaves
        forest = RandomForestClassifier(
            n_estimators=20, min_samples_leaf=7, random_state=4
        ).fit(X, y)
        Q = _queries(500, seed=15)
        want = _per_tree_proba(forest, Q)
        assert np.array_equal(forest.predict_proba(Q), want)
        # The data discriminates: one sequential sum over all 20 trees
        # rounds differently from the blocked sum somewhere.
        sequential = np.zeros_like(want)
        for tree in forest.estimators_:
            sequential[:, tree.classes_.astype(int)] += tree.predict_proba(Q)
        assert not np.array_equal(sequential / 20, want)

    def test_threshold_ties_go_left(self):
        """A value equal to a split threshold goes left, as in apply()."""
        X, y = _rare_class_dataset(seed=16)
        forest = RandomForestClassifier(n_estimators=9, random_state=6).fit(
            X, y
        )
        Q = np.repeat(X[:1], 60, axis=0)
        row = 0
        for tree in forest.estimators_:
            for node in np.nonzero(tree._feature != -1)[0][:6]:
                Q[row % 60, tree._feature[node]] = tree._threshold[node]
                row += 1
        assert np.array_equal(
            forest.predict_proba(Q), _per_tree_proba(forest, Q)
        )

    def test_bootstrap_trees_missing_a_class(self):
        X, y = _rare_class_dataset(seed=4, n_rare=1)
        forest = RandomForestClassifier(n_estimators=20, random_state=3).fit(
            X, y
        )
        assert any(t.classes_.size < 3 for t in forest.estimators_)
        Q = _queries(200, seed=5)
        assert np.array_equal(
            forest.predict_proba(Q), _per_tree_proba(forest, Q)
        )

    def test_zero_total_leaves(self):
        """Hand-zeroed leaves answer uniform over the tree's classes."""
        X, y = _rare_class_dataset(seed=6)
        forest = RandomForestClassifier(n_estimators=9, random_state=2).fit(
            X, y
        )
        for tree in forest.estimators_[::2]:
            leaves = np.nonzero(tree._feature == -1)[0]
            tree._value[leaves[::2]] = 0.0
        Q = _queries(300, seed=7)
        got = forest.predict_proba(Q)
        assert np.array_equal(got, _per_tree_proba(forest, Q))
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_persistence_round_trip(self):
        from repro.persistence import forest_from_dict, forest_to_dict

        X, y = _rare_class_dataset(seed=8)
        forest = RandomForestClassifier(n_estimators=20, random_state=5).fit(
            X, y
        )
        Q = _queries(150, seed=9)
        before = forest.predict_proba(Q)
        clone = forest_from_dict(forest_to_dict(forest))
        assert np.array_equal(clone.predict_proba(Q), before)
        assert np.array_equal(before, _per_tree_proba(clone, Q))

    def test_refit_rebuilds_the_walk(self):
        X, y = _rare_class_dataset(seed=10)
        forest = RandomForestClassifier(n_estimators=9, random_state=0)
        Q = _queries(50, seed=11)
        forest.fit(X, y).predict_proba(Q)
        forest.fit(X[::-1] * 0.5, y[::-1])
        assert np.array_equal(
            forest.predict_proba(Q), _per_tree_proba(forest, Q)
        )

    def test_walk_is_not_pickled(self):
        import pickle

        X, y = _rare_class_dataset()
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(
            X, y
        )
        Q = _queries(20)
        want = forest.predict_proba(Q)
        clone = pickle.loads(pickle.dumps(forest))
        assert "_flat_walk" not in vars(clone)
        assert np.array_equal(clone.predict_proba(Q), want)

    def test_concurrent_first_calls_agree(self):
        """Threads racing the lazy build of a fresh forest agree."""
        import sys
        import threading

        X, y = _rare_class_dataset(seed=12)
        forest = RandomForestClassifier(n_estimators=20, random_state=7).fit(
            X, y
        )
        Q = _queries(64, seed=13)
        want = _per_tree_proba(forest, Q)
        barrier = threading.Barrier(8)
        results, errors = [], []

        def score():
            try:
                barrier.wait()
                for _ in range(5):
                    results.append(forest.predict_proba(Q))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=score) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # force interleaving mid-build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 40
        assert all(np.array_equal(r, want) for r in results)


# ----------------------------------------------------------------------
# One-row walk vs the batch walk
# ----------------------------------------------------------------------


def _nonfinite_queries(n_rows, n_features, seed):
    """Normal rows with NaN, +inf and -inf features sprinkled in."""
    rng = np.random.default_rng(seed)
    Q = rng.normal(scale=2.0, size=(n_rows, n_features))
    for value, share in ((np.nan, 0.08), (np.inf, 0.04), (-np.inf, 0.04)):
        Q[rng.random(Q.shape) < share] = value
    Q[0, :] = np.nan
    return Q


def _assert_rows_match_batch(forest, Q):
    batch = forest.predict_proba(Q)
    for i in range(Q.shape[0]):
        row = forest.predict_proba(Q[i:i + 1])
        assert row.shape == (1, forest.classes_.size)
        assert row.tobytes() == batch[i:i + 1].tobytes(), i


class TestOneRowWalk:
    """A one-row call walks the trees in Python, the same bits as a batch."""

    def test_nan_and_infinite_features(self):
        X, y = _rare_class_dataset(seed=20)
        forest = RandomForestClassifier(n_estimators=20, random_state=1).fit(
            X, y
        )
        _assert_rows_match_batch(forest, _nonfinite_queries(300, 5, seed=21))

    def test_non_dyadic_votes(self):
        """Mixed leaves: a different summation order would show in bits."""
        rng = np.random.default_rng(22)
        X = rng.normal(size=(400, 5))
        y = rng.integers(0, 3, size=400)
        forest = RandomForestClassifier(
            n_estimators=20, min_samples_leaf=7, random_state=4
        ).fit(X, y)
        _assert_rows_match_batch(forest, _nonfinite_queries(300, 5, seed=23))

    def test_bootstrap_trees_missing_a_class(self):
        X, y = _rare_class_dataset(seed=4, n_rare=1)
        forest = RandomForestClassifier(n_estimators=20, random_state=3).fit(
            X, y
        )
        assert any(t.classes_.size < 3 for t in forest.estimators_)
        _assert_rows_match_batch(forest, _nonfinite_queries(200, 5, seed=24))

    def test_framework_round_trip(self, stall_records, adaptive_records):
        from repro import QoEFramework
        from repro.persistence import framework_from_dict, framework_to_dict

        framework = QoEFramework(random_state=0, n_estimators=12).fit(
            stall_records, adaptive_records
        )
        clone = framework_from_dict(framework_to_dict(framework))
        for name in ("stall", "representation"):
            forest = getattr(clone, name)._model
            Q = _nonfinite_queries(100, forest.n_features_, seed=25)
            _assert_rows_match_batch(forest, Q)
            original = getattr(framework, name)._model
            assert original.predict_proba(Q[:1]).tobytes() == (
                forest.predict_proba(Q[:1]).tobytes()
            )

    def test_pickled_forest_rebuilds_the_walk(self):
        import pickle

        X, y = _rare_class_dataset(seed=26)
        forest = RandomForestClassifier(n_estimators=20, random_state=8).fit(
            X, y
        )
        Q = _nonfinite_queries(100, 5, seed=27)
        want = forest.predict_proba(Q)
        clone = pickle.loads(pickle.dumps(forest))
        assert "_flat_walk" not in vars(clone)
        # A one-row call is the first: it builds the clone's walk.
        assert clone.predict_proba(Q[5:6]).tobytes() == want[5:6].tobytes()
        _assert_rows_match_batch(clone, Q)

    def test_one_span_and_one_counted_row_per_call(self):
        from repro.obs import get_registry
        from repro.obs.tracing import Tracer, set_tracer

        X, y = _rare_class_dataset(seed=28)
        forest = RandomForestClassifier(n_estimators=9, random_state=9).fit(
            X, y
        )
        counter = get_registry().counter("repro_ml_forest_predictions_total")
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            before = counter.value
            forest.predict_proba(_queries(1))
            counted = counter.value - before
        finally:
            set_tracer(previous)
        (span,) = [s for s in tracer.roots() if s.name == "ml.forest_predict"]
        assert span.count == 1
        assert span.counters == {"rows": 1}
        assert counted == 1
