"""Unit tests for summary statistics and ECDFs."""

import numpy as np
import pytest

from repro.timeseries.stats import (
    SUMMARY_STATS_BASIC,
    SUMMARY_STATS_EXTENDED,
    ecdf,
    pooled_moments,
    summary_statistics,
)


class TestSummaryStatistics:
    def test_basic_set_has_seven(self):
        assert len(SUMMARY_STATS_BASIC) == 7

    def test_extended_set_has_fifteen(self):
        assert len(SUMMARY_STATS_EXTENDED) == 15

    def test_known_values(self):
        stats = summary_statistics([1.0, 2.0, 3.0, 4.0])
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["p50"] == pytest.approx(2.5)

    def test_std_population(self):
        stats = summary_statistics([2.0, 4.0])
        assert stats["std"] == pytest.approx(1.0)

    def test_empty_sequence_all_zero(self):
        stats = summary_statistics([])
        assert all(v == 0.0 for v in stats.values())

    def test_nan_values_dropped(self):
        stats = summary_statistics([1.0, np.nan, 3.0])
        assert stats["mean"] == pytest.approx(2.0)

    def test_all_nan_treated_as_empty(self):
        stats = summary_statistics([np.nan, np.inf])
        assert stats["max"] == 0.0

    def test_extended_percentiles(self):
        values = np.arange(101, dtype=float)
        stats = summary_statistics(values, stats=SUMMARY_STATS_EXTENDED)
        assert stats["p5"] == pytest.approx(5.0)
        assert stats["p95"] == pytest.approx(95.0)

    def test_unknown_statistic_raises(self):
        with pytest.raises(ValueError):
            summary_statistics([1.0], stats=("median",))

    def test_min_le_percentiles_le_max(self):
        rng = np.random.default_rng(0)
        stats = summary_statistics(rng.normal(size=200), SUMMARY_STATS_EXTENDED)
        assert stats["min"] <= stats["p5"] <= stats["p50"] <= stats["p95"] <= stats["max"]


class TestEcdf:
    def test_monotone_increasing(self):
        e = ecdf([3.0, 1.0, 2.0, 5.0])
        assert np.all(np.diff(e.y) >= 0)
        assert np.all(np.diff(e.x) >= 0)

    def test_last_probability_is_one(self):
        e = ecdf([1.0, 2.0])
        assert e.y[-1] == 1.0

    def test_call_evaluates_cdf(self):
        e = ecdf([1.0, 2.0, 3.0, 4.0])
        assert e(0.5) == 0.0
        assert e(2.0) == pytest.approx(0.5)
        assert e(10.0) == 1.0

    def test_quantile_inverse(self):
        e = ecdf(np.arange(1, 101, dtype=float))
        assert e.quantile(0.5) == pytest.approx(50.0)
        assert e.quantile(1.0) == 100.0

    def test_quantile_bounds(self):
        e = ecdf([1.0, 2.0])
        with pytest.raises(ValueError):
            e.quantile(1.5)

    def test_empty_ecdf(self):
        e = ecdf([])
        assert e(0.0) == 0.0
        with pytest.raises(ValueError):
            e.quantile(0.5)

    def test_nan_dropped(self):
        e = ecdf([1.0, np.nan, 2.0])
        assert e.x.size == 2


class TestPooledMoments:
    """Length-pooled row moments equal np.mean / np.std byte for byte."""

    @pytest.mark.parametrize("kind", ["normal", "ties", "constant", "huge"])
    def test_byte_equal_to_numpy(self, kind):
        rng = np.random.default_rng(["normal", "ties", "constant",
                                     "huge"].index(kind))
        block = rng.normal(size=(80, 300))
        if kind == "ties":
            block = rng.integers(0, 3, size=block.shape).astype(float)
        elif kind == "constant":
            block[:] = block[:, :1]
        elif kind == "huge":
            block *= 1e6
        lengths = np.concatenate(
            [[0, 1, 2, 300], rng.integers(1, 301, size=76)]
        )
        moments = pooled_moments(block, lengths)
        for i, n in enumerate(lengths):
            if n == 0:
                assert moments["mean"][i] == 0.0 and moments["std"][i] == 0.0
                continue
            row = block[i, :n]
            assert moments["mean"][i].tobytes() == np.mean(row).tobytes()
            assert moments["std"][i].tobytes() == np.std(row).tobytes()

    def test_every_length_from_one_to_three_hundred(self):
        rng = np.random.default_rng(5)
        block = rng.exponential(size=(300, 300)) * 1e3
        lengths = np.arange(1, 301)
        moments = pooled_moments(block, lengths)
        for i, n in enumerate(lengths):
            assert moments["mean"][i].tobytes() == np.mean(block[i, :n]).tobytes()
            assert moments["std"][i].tobytes() == np.std(block[i, :n]).tobytes()

    def test_padding_is_never_read(self):
        block = np.array([[1.0, 2.0, np.nan], [4.0, np.inf, np.nan]])
        moments = pooled_moments(block, np.array([2, 1]), ("mean",))
        assert list(moments) == ["mean"]
        assert moments["mean"].tolist() == [1.5, 4.0]

    def test_empty_block(self):
        moments = pooled_moments(np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
        assert moments["mean"].shape == moments["std"].shape == (0,)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            pooled_moments(np.zeros((1, 1)), np.array([1]), ("p50",))
