"""Property-based tests for time-series invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.timeseries.cusum import cusum_series
from repro.timeseries.stats import ecdf, summary_statistics

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

series_st = arrays(
    np.float64, st.integers(min_value=1, max_value=100), elements=finite_floats
)


@given(series_st)
def test_cusum_sides_nonnegative(series):
    result = cusum_series(series)
    assert (result.high >= 0).all()
    assert (result.low >= 0).all()


@given(series_st, finite_floats)
def test_cusum_shift_invariance(series, offset):
    """Adding a constant to the series leaves the (mean-referenced)
    CUSUM unchanged."""
    a = cusum_series(series).combined
    b = cusum_series(series + offset).combined
    scale = max(1.0, np.abs(a).max())
    np.testing.assert_allclose(a, b, atol=1e-6 * scale + 1e-6)


@given(series_st)
def test_summary_statistics_ordering(series):
    stats = summary_statistics(series)
    assert stats["min"] <= stats["p25"] + 1e-12
    assert stats["p25"] <= stats["p50"] + 1e-12
    assert stats["p50"] <= stats["p75"] + 1e-12
    assert stats["p75"] <= stats["max"] + 1e-12
    eps = 1e-9 * max(1.0, abs(stats["max"]))
    assert stats["min"] - eps <= stats["mean"] <= stats["max"] + eps


@given(series_st)
def test_ecdf_is_valid_distribution(series):
    e = ecdf(series)
    assert np.all(np.diff(e.x) >= 0)
    assert np.all((e.y > 0) & (e.y <= 1.0))
    assert e.y[-1] == 1.0


@given(series_st, finite_floats)
def test_ecdf_evaluation_bounded(series, value):
    e = ecdf(series)
    assert 0.0 <= e(value) <= 1.0
