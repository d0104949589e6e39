"""Unit tests for class balancing."""

import numpy as np
import pytest

from repro.ml.balance import balanced_indices, oversample


class TestOversample:
    def test_classes_equalised_to_majority(self):
        y = np.array([0] * 50 + [1] * 10)
        X = np.arange(60).reshape(-1, 1).astype(float)
        Xb, yb = oversample(X, y, random_state=0)
        _, counts = np.unique(yb, return_counts=True)
        assert counts.tolist() == [50, 50]

    def test_majority_class_fully_kept(self):
        y = np.array([0] * 30 + [1] * 5)
        X = np.arange(35).reshape(-1, 1).astype(float)
        Xb, yb = oversample(X, y, random_state=0)
        majority_values = set(Xb[yb == 0][:, 0].tolist())
        assert majority_values == set(range(30))

    def test_minority_duplicated(self):
        y = np.array([0] * 30 + [1] * 5)
        X = np.arange(35).reshape(-1, 1).astype(float)
        Xb, yb = oversample(X, y, random_state=0)
        minority = Xb[yb == 1][:, 0]
        assert len(minority) == 30
        assert len(set(minority.tolist())) <= 5


class TestBalancedIndices:
    def test_shuffled(self):
        y = np.array([0] * 100 + [1] * 100)
        idx = balanced_indices(y, random_state=0)
        assert not np.array_equal(idx, np.sort(idx))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            balanced_indices(np.array([]))

    def test_deterministic_with_seed(self):
        y = np.array([0] * 20 + [1] * 8)
        a = balanced_indices(y, random_state=7)
        b = balanced_indices(y, random_state=7)
        assert np.array_equal(a, b)

    def test_draw_sequence_pinned(self):
        """The exact indices a seed gives: training sets, and with them
        every reported table, depend on this draw order."""
        y = np.array([0] * 6 + [1] * 2 + [2] * 3 + [1])
        assert balanced_indices(y, random_state=3).tolist() == [
            0, 6, 6, 9, 2, 7, 10, 4, 5, 9, 8, 7, 6, 3, 8, 1, 7, 10,
        ]
        labels = np.array(["b", "a", "b", "c", "a", "b"])
        assert balanced_indices(labels, random_state=11).tolist() == [
            4, 3, 3, 1, 3, 0, 5, 2, 1,
        ]

    def test_majority_drawn_once_each(self):
        """The majority class is permuted, not resampled."""
        y = np.array([0] * 12 + [1] * 4 + [2] * 7)
        idx = balanced_indices(y, random_state=5)
        majority = idx[y[idx] == 0]
        assert sorted(majority.tolist()) == list(range(12))

    def test_every_class_gets_majority_size(self):
        y = np.array([2] * 3 + [0] * 9 + [1] * 5)
        idx = balanced_indices(y, random_state=1)
        _, counts = np.unique(y[idx], return_counts=True)
        assert counts.tolist() == [9, 9, 9]

    def test_single_class_is_a_permutation(self):
        y = np.zeros(15, dtype=int)
        idx = balanced_indices(y, random_state=2)
        assert sorted(idx.tolist()) == list(range(15))

    def test_string_labels(self):
        y = np.array(["HD"] * 8 + ["LD"] * 2 + ["SD"] * 5)
        idx = balanced_indices(y, random_state=4)
        labels, counts = np.unique(y[idx], return_counts=True)
        assert labels.tolist() == ["HD", "LD", "SD"]
        assert counts.tolist() == [8, 8, 8]


class TestOversampleRows:
    def test_rows_stay_aligned(self):
        y = np.array([0] * 20 + [1] * 6 + [2] * 3)
        X = np.column_stack([np.arange(29.0), y * 100.0])
        Xb, yb = oversample(X, y, random_state=9)
        np.testing.assert_array_equal(Xb[:, 1], yb * 100.0)
        np.testing.assert_array_equal(y[Xb[:, 0].astype(int)], yb)

    def test_inputs_not_modified(self):
        y = np.array([0] * 10 + [1] * 3)
        X = np.arange(13.0).reshape(-1, 1)
        X_copy, y_copy = X.copy(), y.copy()
        oversample(X, y, random_state=0)
        np.testing.assert_array_equal(X, X_copy)
        np.testing.assert_array_equal(y, y_copy)

    def test_list_inputs_accepted(self):
        Xb, yb = oversample([[1.0], [2.0], [3.0]], [0, 0, 1], random_state=0)
        assert Xb.shape == (4, 1)
        assert sorted(yb.tolist()) == [0, 0, 1, 1]
