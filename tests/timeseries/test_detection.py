"""Unit tests for the Δsize × Δt switch signal."""

import numpy as np
import pytest

from repro.timeseries.detection import (
    DEFAULT_STARTUP_SKIP_S,
    delta_series,
    product_series,
    switch_score,
    switch_scores,
)
from repro.obs import get_registry


class TestDeltaSeries:
    def test_basic_deltas(self):
        times = [0.0, 12.0, 14.0, 17.0]
        sizes = [100.0, 200.0, 150.0, 150.0]
        dt, dsize = delta_series(times, sizes, startup_skip_s=0.0)
        np.testing.assert_allclose(dt, [12.0, 2.0, 3.0])
        np.testing.assert_allclose(dsize, [100.0, 50.0, 0.0])

    def test_startup_skip_removes_head(self):
        times = [0.0, 5.0, 11.0, 16.0, 21.0]
        sizes = [10.0, 20.0, 30.0, 40.0, 50.0]
        dt, dsize = delta_series(times, sizes)   # default skips 10s
        # only chunks at t >= 10 relative to first survive: 11,16,21
        assert dt.size == 2

    def test_default_skip_is_ten_seconds(self):
        assert DEFAULT_STARTUP_SKIP_S == 10.0

    def test_unsorted_input_sorted(self):
        times = [5.0, 0.0, 10.0]
        sizes = [2.0, 1.0, 3.0]
        dt, dsize = delta_series(times, sizes, startup_skip_s=0.0)
        np.testing.assert_allclose(dt, [5.0, 5.0])
        np.testing.assert_allclose(dsize, [1.0, 1.0])

    def test_absolute_size_deltas(self):
        dt, dsize = delta_series([0, 1, 2], [100.0, 50.0, 100.0], startup_skip_s=0.0)
        assert (dsize >= 0).all()

    def test_short_session_empty(self):
        dt, dsize = delta_series([0.0], [1.0], startup_skip_s=0.0)
        assert dt.size == 0

    def test_ndarray_and_list_inputs_agree(self):
        rng = np.random.default_rng(2)
        times = np.cumsum(rng.uniform(1.0, 5.0, 40))
        sizes = rng.uniform(1e5, 1e6, 40)
        from_arrays = delta_series(times, sizes)
        from_lists = delta_series(times.tolist(), sizes.tolist())
        from_iterators = delta_series(iter(times), iter(sizes))
        for got in (from_lists, from_iterators):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(from_arrays, got))

    def test_ndarray_inputs_are_not_modified(self):
        times = np.array([5.0, 0.0, 20.0, 30.0])
        sizes = np.array([2.0, 1.0, 3.0, 9.0])
        delta_series(times, sizes)
        assert times.tolist() == [5.0, 0.0, 20.0, 30.0]
        assert sizes.tolist() == [2.0, 1.0, 3.0, 9.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            delta_series([1.0, 2.0], [1.0])


class TestProductSeries:
    def test_product_of_deltas(self):
        series = product_series([0, 2, 4], [100.0, 300.0, 300.0], startup_skip_s=0.0)
        np.testing.assert_allclose(series, [400.0, 0.0])

    def test_empty_when_all_skipped(self):
        series = product_series([0.0, 1.0], [10.0, 20.0])   # both inside 10s
        assert series.size == 0


class TestSwitchScore:
    def test_steady_session_scores_low(self):
        # uniform chunks every 5s, constant size
        times = np.arange(0, 300, 5.0)
        sizes = np.full(times.size, 500.0)
        assert switch_score(times, sizes) == pytest.approx(0.0)

    def test_switching_session_scores_higher(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.uniform(4, 6, 60))
        steady = 500.0 + rng.normal(0, 20, 60)
        switching = steady.copy()
        switching[30:] = 1500.0 + rng.normal(0, 20, 30)   # big level shift
        assert switch_score(times, switching) > switch_score(times, steady)

    def test_empty_session_scores_zero(self):
        assert switch_score([], []) == 0.0


def _padded(rows):
    lengths = np.array([len(t) for t, _ in rows], dtype=np.int64)
    width = max(int(lengths.max()), 1)
    times = np.zeros((len(rows), width))
    sizes = np.zeros((len(rows), width))
    for i, (t, s) in enumerate(rows):
        times[i, :len(t)] = t
        sizes[i, :len(s)] = s
    return times, sizes, lengths


class TestSwitchScores:
    """The padded batch twin equals switch_score row by row."""

    def _rows(self):
        rng = np.random.default_rng(9)
        rows = []
        for n in (1, 2, 3, 5, 40, 120):
            t = np.cumsum(rng.uniform(1.0, 8.0, n))
            rows.append((t, rng.uniform(1e2, 2e3, n)))
        rows.append(([0.0, 4.0, 9.0], [1.0, 2.0, 3.0]))            # all skipped
        rows.append(([0.0, 10.0, 12.0], [5.0, 7.0, 1.0]))          # two kept
        rows.append(([0.0, 11.0, 11.0, 11.0, 15.0], [1.0, 4.0, 2.0, 2.0, 9.0]))
        rows.append(([0.0, 30.0, 12.0, 40.0], [1.0, 2.0, 3.0, 4.0]))  # unsorted
        rows.append(([0.0, np.nan, 20.0, 30.0], [1.0, 2.0, 3.0, 4.0]))
        rows.append(([0.0, 20.0, 30.0, 45.0], [1.0, np.inf, 3.0, 4.0]))
        return rows

    @pytest.mark.parametrize("skip", [DEFAULT_STARTUP_SKIP_S, 0.0, 25.0])
    def test_equal_to_switch_score(self, skip):
        rows = self._rows()
        scores, empty = switch_scores(*_padded(rows), startup_skip_s=skip)
        for i, (t, s) in enumerate(rows):
            want = switch_score(t, s, startup_skip_s=skip)
            assert scores[i].tobytes() == np.float64(want).tobytes(), i
            series = product_series(t, s, startup_skip_s=skip)
            assert empty[i] == (series.size == 0), i

    def test_empty_batch(self):
        scores, empty = switch_scores(
            np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        )
        assert scores.dtype == np.float64 and scores.shape == (0,)
        assert empty.shape == (0,)

    def test_counts_rows_and_empty_series(self):
        registry = get_registry()
        scored = registry.get("repro_timeseries_switch_scores_total")
        empties = registry.get("repro_timeseries_empty_series_total")
        before = scored.value, empties.value
        rows = self._rows()
        _, empty = switch_scores(*_padded(rows))
        assert scored.value == before[0] + len(rows)
        assert empties.value == before[1] + int(empty.sum())
        assert empty.sum() >= 3
