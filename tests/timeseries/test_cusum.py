"""Unit tests for Page's CUSUM."""

import numpy as np
import pytest

from repro.timeseries.cusum import (
    CusumResult,
    cusum_score,
    cusum_scores,
    cusum_series,
    detect_changes,
)


class TestCusumSeries:
    def test_flat_series_stays_at_zero(self):
        result = cusum_series(np.ones(50))
        assert np.allclose(result.high, 0.0)
        assert np.allclose(result.low, 0.0)

    def test_empty_series(self):
        result = cusum_series(np.array([]))
        assert result.high.size == 0
        assert result.std() == 0.0

    def test_level_shift_accumulates_on_high_side(self):
        series = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        result = cusum_series(series)
        assert result.high[-1] > result.high[49]
        assert result.high.max() > 100

    def test_negative_shift_accumulates_on_low_side(self):
        series = np.concatenate([np.full(50, 10.0), np.zeros(50)])
        result = cusum_series(series)
        assert result.low[-1] > 100

    def test_drift_suppresses_small_wander(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 0.1, 200)
        with_drift = cusum_series(series, drift=1.0)
        assert with_drift.combined.max() < cusum_series(series).combined.max() + 1e-9
        assert np.allclose(with_drift.combined, 0.0)

    def test_explicit_target(self):
        series = np.full(20, 5.0)
        result = cusum_series(series, target=0.0)
        # every point is 5 above target -> high side ramps linearly
        assert result.high[-1] == pytest.approx(100.0)

    def test_statistics_nonnegative(self):
        rng = np.random.default_rng(1)
        result = cusum_series(rng.normal(size=100))
        assert (result.high >= 0).all()
        assert (result.low >= 0).all()

    def test_combined_is_sum(self):
        rng = np.random.default_rng(2)
        result = cusum_series(rng.normal(size=50))
        np.testing.assert_allclose(result.combined, result.high + result.low)

    def test_reset_on_detect(self):
        series = np.concatenate([np.zeros(20), np.full(30, 10.0)])
        result = cusum_series(series, reset_on_detect=True, threshold=20.0)
        assert result.high.max() <= 20.0 + 10.0


class TestDetectChanges:
    def test_detects_single_shift(self):
        series = np.concatenate([np.zeros(50), np.full(50, 5.0)])
        alarms = detect_changes(series, threshold=30.0, target=0.0)
        assert len(alarms) >= 1
        assert alarms[0] >= 50

    def test_no_alarms_on_flat(self):
        assert detect_changes(np.ones(100), threshold=5.0) == []

    def test_multiple_shifts_multiple_alarms(self):
        series = np.concatenate(
            [np.zeros(40), np.full(40, 8.0), np.zeros(40), np.full(40, 8.0)]
        )
        alarms = detect_changes(series, threshold=20.0, target=2.0, drift=1.0)
        assert len(alarms) >= 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            detect_changes(np.ones(10), threshold=0.0)

    def test_empty(self):
        assert detect_changes(np.array([]), threshold=1.0) == []


class TestCusumScore:
    def test_flat_scores_zero(self):
        assert cusum_score(np.full(100, 7.0)) == 0.0

    def test_shifted_scores_higher_than_stationary(self):
        rng = np.random.default_rng(3)
        stationary = rng.normal(10, 1, 100)
        shifted = np.concatenate([rng.normal(5, 1, 50), rng.normal(15, 1, 50)])
        assert cusum_score(shifted) > cusum_score(stationary)

    def test_scale_equivariance(self):
        """Scaling the series scales the score linearly — the reason the
        paper's threshold of 500 is unit-dependent."""
        rng = np.random.default_rng(4)
        series = np.concatenate([rng.normal(0, 1, 40), rng.normal(6, 1, 40)])
        assert cusum_score(series * 10) == pytest.approx(
            10 * cusum_score(series), rel=1e-9
        )


class TestCusumScores:
    """The padded batch scorer equals cusum_score row by row."""

    def _check(self, rows):
        lengths = np.array([len(r) for r in rows])
        block = np.full((len(rows), max(lengths.max(), 1)), 7.5)
        for i, row in enumerate(rows):
            block[i, :len(row)] = row
        got = cusum_scores(block, lengths)
        assert got.dtype == np.float64
        for i, row in enumerate(rows):
            want = cusum_score(np.asarray(row, dtype=float))
            assert got[i].tobytes() == np.float64(want).tobytes()

    def test_random_rows_of_many_lengths(self):
        rng = np.random.default_rng(11)
        rows = [rng.exponential(300.0, size=n) for n in rng.integers(0, 200, 40)]
        self._check(rows)

    def test_level_shifts_and_short_rows(self):
        rng = np.random.default_rng(12)
        rows = [
            np.concatenate([rng.normal(5, 1, 30), rng.normal(15, 1, 30)]),
            np.full(9, 3.0),
            [1.0],
            [],
        ]
        self._check(rows)

    def test_non_finite_rows_follow_the_scalar_path(self):
        self._check([[1.0, np.nan, 2.0], [np.inf, 1.0], [4.0, 5.0, 4.0]])
