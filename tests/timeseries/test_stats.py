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


def _numpy_statistics(finite, stats):
    """The oracle: each statistic as NumPy computes it on its own."""
    out = []
    for stat in stats:
        if stat == "min":
            out.append(np.min(finite))
        elif stat == "max":
            out.append(np.max(finite))
        elif stat == "mean":
            out.append(np.mean(finite))
        elif stat == "std":
            out.append(np.std(finite))
        else:
            out.append(np.percentile(finite, float(stat[1:])))
    return np.array(out, dtype=np.float64)


def _series(rng, n, kind):
    values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 7)
    if kind == "ties":
        values = rng.integers(0, 4, size=n).astype(float)
    elif kind == "constant":
        values[:] = values[0]
    elif kind == "integers":
        # ``+ 0.0`` turns the -0.0 that rounding leaves into 0.0: which
        # signed zero a percentile returns is pinned only by value
        # (test_signed_zeros_equal_in_value).
        values = np.round(values) + 0.0
    elif kind == "huge":
        values = rng.normal(size=n) * 1e300
    elif kind == "tiny":
        values = rng.normal(size=n) * 1e-300
    return values


def _dirty(rng, values):
    """``values`` with NaN/+inf/-inf mixed in at random places."""
    n_bad = int(rng.integers(1, 6))
    bad = rng.choice([np.nan, np.inf, -np.inf], size=n_bad)
    return rng.permutation(np.concatenate((values, bad)))


def _percentile_subsets():
    """Every percentile subset of the basic set, and a spread of the
    extended set's (all singletons, pairs and the full set)."""
    basic = [s for s in SUMMARY_STATS_BASIC if s.startswith("p")]
    extended = [s for s in SUMMARY_STATS_EXTENDED if s.startswith("p")]
    subsets = [
        [p for k, p in enumerate(basic) if mask >> k & 1]
        for mask in range(1, 2 ** len(basic))
    ]
    subsets += [[p] for p in extended]
    subsets += [[a, b] for i, a in enumerate(extended) for b in extended[i + 1:]]
    subsets.append(extended)
    return subsets


class TestSummaryStatisticsAgainstNumpy:
    """The per-record path equals NumPy's own calls byte for byte.

    Order statistics come from one sort and a scalar replica of
    ``np.percentile``; this anchors that replica in NumPy itself, not
    only in the columnar engine it is the oracle of.
    """

    @staticmethod
    def _check(values, stats):
        finite = values[np.isfinite(values)]
        # Huge values square past the float range: std is inf on both
        # sides, which is part of what is compared.
        with np.errstate(over="ignore"):
            got = summary_statistics(values, stats)
            want = _numpy_statistics(finite, stats)
        assert list(got) == list(stats)
        assert np.array([got[s] for s in stats]).tobytes() == want.tobytes(), (
            stats, finite.size
        )

    @pytest.mark.parametrize(
        "kind", ["normal", "ties", "constant", "integers", "huge", "tiny"]
    )
    @pytest.mark.parametrize(
        "stats", [SUMMARY_STATS_BASIC, SUMMARY_STATS_EXTENDED], ids=len
    )
    def test_byte_equal_to_numpy(self, kind, stats):
        rng = np.random.default_rng([len(stats), len(kind)])
        lengths = np.concatenate(([1, 2, 300], rng.integers(1, 301, size=57)))
        for i, n in enumerate(lengths):
            values = _series(rng, int(n), kind)
            if i % 2:
                values = _dirty(rng, values)
            self._check(values, stats)

    def test_every_length_from_one_to_three_hundred(self):
        rng = np.random.default_rng(13)
        for n in range(1, 301):
            values = rng.exponential(size=n)
            self._check(values, SUMMARY_STATS_EXTENDED)
            self._check(_dirty(rng, values), SUMMARY_STATS_BASIC)

    @pytest.mark.parametrize("subset", _percentile_subsets(), ids=str)
    def test_every_percentile_subset(self, subset):
        rng = np.random.default_rng(len(subset))
        for n in (1, 2, 3, 7, 40):
            values = _series(rng, n, "ties")
            self._check(values, subset)
            self._check(_dirty(rng, values), ["max", *subset, "min"])

    def test_signed_zeros_equal_in_value(self):
        # Among equal values a sort and NumPy's partition may place
        # 0.0 and -0.0 differently, so only the value is pinned here.
        rng = np.random.default_rng(3)
        for n in range(1, 60):
            values = rng.choice([0.0, -0.0, 1.0, -1.0], size=n)
            got = summary_statistics(values, SUMMARY_STATS_EXTENDED)
            want = _numpy_statistics(values, SUMMARY_STATS_EXTENDED)
            assert [got[s] for s in SUMMARY_STATS_EXTENDED] == want.tolist()

    @pytest.mark.parametrize("stat", ["p-5", "p101", "pnan", "median", "q50"])
    def test_invalid_statistic_raises(self, stat):
        with pytest.raises(ValueError):
            summary_statistics([1.0, 2.0, 3.0], stats=("min", stat))

    @pytest.mark.parametrize("empty", [[], [np.nan, np.inf]])
    @pytest.mark.parametrize(
        "stat", ["p-5", "p101", "pnan", "p", "pfoo", "median", "q50"]
    )
    def test_invalid_statistic_raises_on_empty_series(self, stat, empty):
        """An empty (or all-non-finite) series rejects the names a
        non-empty one rejects, with the same message, list or tuple."""
        with pytest.raises(ValueError) as full:
            summary_statistics([1.0, 2.0, 3.0], stats=("min", stat))
        for stats in (("min", stat), ["min", stat]):
            with pytest.raises(ValueError) as got:
                summary_statistics(empty, stats=stats)
            assert str(got.value) == str(full.value)

    def test_valid_statistics_on_empty_series_stay_zero(self):
        stats = ("min", "p0", "p100", "p1e1", "mean")
        assert summary_statistics([], stats) == dict.fromkeys(stats, 0.0)


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
