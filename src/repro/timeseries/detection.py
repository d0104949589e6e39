"""Switch-signal construction: the Δsize × Δt product series.

§4.3: "We find that the metric which better captures the changes in
both the size and the inter-arrival of the video segments, is the
product Δsize × Δt. [...] for each video session in the dataset, we
calculate a new time series where each point corresponds to the
aforementioned product."

The series is built from per-chunk (arrival_time, size) observations
after optionally dropping the first ``startup_skip_s`` seconds of the
session (the paper removes the first 10 s to suppress fast-start noise).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.obs import get_registry

from .cusum import cusum_score, cusum_scores
from .stats import _as_float_array

__all__ = [
    "delta_series",
    "product_series",
    "switch_score",
    "switch_scores",
    "DEFAULT_STARTUP_SKIP_S",
]

#: §4.3 — "we remove the first ten seconds of all video sessions".
DEFAULT_STARTUP_SKIP_S: float = 10.0

_REG = get_registry()
_SCORES = _REG.counter(
    "repro_timeseries_switch_scores_total",
    "CUSUM switch scores computed over Δsize×Δt product series.",
)
_EMPTY_SERIES = _REG.counter(
    "repro_timeseries_empty_series_total",
    "Sessions whose product series was empty after startup filtering.",
)


def _filter_startup(
    times: np.ndarray, sizes: np.ndarray, startup_skip_s: float
) -> Tuple[np.ndarray, np.ndarray]:
    if times.size == 0:
        return times, sizes
    origin = times[0]
    keep = times - origin >= startup_skip_s
    return times[keep], sizes[keep]


def delta_series(
    times: Sequence[float],
    sizes: Sequence[float],
    startup_skip_s: float = DEFAULT_STARTUP_SKIP_S,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-chunk (Δt, Δsize) sequences of a session.

    ``times`` are chunk arrival timestamps (seconds, ascending) and
    ``sizes`` the corresponding chunk sizes.  Both deltas are between
    consecutive chunks; Δsize is the absolute size difference (a switch
    in either direction perturbs the signal identically).
    """
    t = _as_float_array(times)
    s = _as_float_array(sizes)
    if t.shape != s.shape:
        raise ValueError("times and sizes must have equal lengths")
    if t.size and np.any(np.diff(t) < 0):
        order = np.argsort(t, kind="mergesort")
        t, s = t[order], s[order]
    t, s = _filter_startup(t, s, startup_skip_s)
    if t.size < 2:
        return np.empty(0), np.empty(0)
    return np.diff(t), np.abs(np.diff(s))


def product_series(
    times: Sequence[float],
    sizes: Sequence[float],
    startup_skip_s: float = DEFAULT_STARTUP_SKIP_S,
) -> np.ndarray:
    """The Δsize × Δt product series of a session."""
    dt, dsize = delta_series(times, sizes, startup_skip_s=startup_skip_s)
    return dt * dsize


def switch_score(
    times: Sequence[float],
    sizes: Sequence[float],
    startup_skip_s: float = DEFAULT_STARTUP_SKIP_S,
) -> float:
    """STD(CUSUM(Δsize × Δt)) — the paper's switch-detection score (eq. 3)."""
    series = product_series(times, sizes, startup_skip_s=startup_skip_s)
    _SCORES.inc()
    if series.size == 0:
        _EMPTY_SERIES.inc()
        return 0.0
    return cusum_score(series)


def switch_scores(
    times: np.ndarray,
    sizes: np.ndarray,
    lengths: np.ndarray,
    startup_skip_s: float = DEFAULT_STARTUP_SKIP_S,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`switch_score` of every row of a padded batch, in one pass.

    ``times`` and ``sizes`` are ``(rows, width)`` blocks whose row
    ``i`` holds one session's chunks in its first ``lengths[i]`` cells.
    Returns the scores, bit-identical to ``switch_score`` row by row,
    and the mask of rows whose product series is empty (scored 0.0).

    With ascending, finite timestamps the startup filter keeps a
    suffix of each row (``t - t[0]`` is monotone), so every row's
    product series is a contiguous run of one whole-block
    ``diff(t) * |diff(s)|``; the runs are shifted to column 0 and
    scored by :func:`~repro.timeseries.cusum.cusum_scores`.  Rows with
    unsorted or non-finite timestamps take the per-session path.
    """
    n_rows, width = times.shape
    scores = np.zeros(n_rows, dtype=np.float64)
    n_products = np.zeros(n_rows, dtype=np.int64)
    if n_rows and width > 1:
        valid = np.arange(width) < lengths[:, None]
        dt = np.diff(times, axis=1)
        irregular = (valid & ~np.isfinite(times)).any(axis=1) | (
            (dt < 0) & valid[:, 1:]
        ).any(axis=1)
        skipped = (
            (times - times[:, :1] < startup_skip_s) & valid
        ).sum(axis=1)
        n_products = np.maximum(lengths - skipped - 1, 0)
        n_products[irregular] = 0
        products = dt * np.abs(np.diff(sizes, axis=1))
        columns = np.minimum(
            skipped[:, None] + np.arange(n_products.max()), width - 2
        )
        scores = cusum_scores(
            np.take_along_axis(products, columns, axis=1), n_products
        )
        for row in np.flatnonzero(irregular).tolist():
            series = product_series(
                times[row, :lengths[row]],
                sizes[row, :lengths[row]],
                startup_skip_s=startup_skip_s,
            )
            n_products[row] = series.size
            scores[row] = cusum_score(series) if series.size else 0.0
    empty = n_products == 0
    _SCORES.inc(n_rows)
    _EMPTY_SERIES.inc(int(empty.sum()))
    return scores, empty
