"""Unit tests for Page's CUSUM."""

import numpy as np
import pytest

from repro.timeseries.cusum import (
    CusumResult,
    cusum_score,
    cusum_scores,
    cusum_series,
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

    def test_statistics_nonnegative(self):
        rng = np.random.default_rng(1)
        result = cusum_series(rng.normal(size=100))
        assert (result.high >= 0).all()
        assert (result.low >= 0).all()

    def test_combined_is_sum(self):
        rng = np.random.default_rng(2)
        result = cusum_series(rng.normal(size=50))
        np.testing.assert_allclose(result.combined, result.high + result.low)

    def test_target_is_series_mean(self):
        result = cusum_series(np.array([0.0, 10.0]))
        assert result.high.tolist() == [0.0, 5.0]
        assert result.low.tolist() == [5.0, 0.0]

    def test_constant_offset_does_not_change_trajectories(self):
        rng = np.random.default_rng(5)
        series = np.concatenate([rng.normal(0, 1, 30), rng.normal(4, 1, 30)])
        base = cusum_series(series)
        shifted = cusum_series(series + 1000.0)
        np.testing.assert_allclose(shifted.high, base.high, atol=1e-9)
        np.testing.assert_allclose(shifted.low, base.low, atol=1e-9)

    def test_negation_swaps_sides_exactly(self):
        rng = np.random.default_rng(6)
        series = rng.exponential(300.0, size=80)
        result = cusum_series(series)
        mirrored = cusum_series(-series)
        assert mirrored.high.tobytes() == result.low.tobytes()
        assert mirrored.low.tobytes() == result.high.tobytes()

    def test_std_is_population_std_of_combined(self):
        rng = np.random.default_rng(7)
        result = cusum_series(rng.normal(size=60))
        assert result.std() == float(np.std(result.combined))


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

    def test_single_value_scores_zero(self):
        assert cusum_score(np.array([123.0])) == 0.0

    def test_empty_scores_zero(self):
        assert cusum_score(np.array([])) == 0.0

    def test_step_up_and_step_down_score_alike(self):
        up = np.concatenate([np.zeros(40), np.full(40, 10.0)])
        assert cusum_score(up) == pytest.approx(cusum_score(up[::-1]), rel=1e-12)


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

    def test_all_empty_rows_score_zero(self):
        got = cusum_scores(np.full((3, 4), 9.0), np.zeros(3, dtype=np.int64))
        assert got.tolist() == [0.0, 0.0, 0.0]
