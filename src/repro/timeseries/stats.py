"""Summary statistics and empirical distributions.

The feature-construction steps of §4.1 and §4.2 expand every per-chunk
metric into a fixed vector of summary statistics; the figures of the
paper (Figs. 2, 4, 5) are ECDFs.  Both primitives live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "SUMMARY_STATS_BASIC",
    "SUMMARY_STATS_EXTENDED",
    "summary_statistics",
    "pooled_moments",
    "Ecdf",
    "ecdf",
]

#: §4.1 — "max, min, mean, standard deviation, 25th, 50th and 75th
#: percentiles" (7 statistics; 10 metrics -> 70 features).
SUMMARY_STATS_BASIC: Tuple[str, ...] = (
    "min",
    "max",
    "mean",
    "std",
    "p25",
    "p50",
    "p75",
)

#: §4.2 — "minimum, mean, maximum, std. deviation and 5th, 10th, 15th,
#: 20th, 25th, 50th, 75th, 80th, 85th, 90th and 95th percentiles"
#: (15 statistics; 14 metrics -> 210 features).
SUMMARY_STATS_EXTENDED: Tuple[str, ...] = (
    "min",
    "mean",
    "max",
    "std",
    "p5",
    "p10",
    "p15",
    "p20",
    "p25",
    "p50",
    "p75",
    "p80",
    "p85",
    "p90",
    "p95",
)


def _single_stat(values: np.ndarray, stat: str) -> float:
    if stat == "min":
        return float(np.min(values))
    if stat == "max":
        return float(np.max(values))
    if stat == "mean":
        return float(np.mean(values))
    if stat == "std":
        return float(np.std(values))
    if stat.startswith("p"):
        return float(np.percentile(values, float(stat[1:])))
    raise ValueError(f"unknown statistic: {stat!r}")


def _as_float_array(values: Sequence[float]) -> np.ndarray:
    """``values`` as a float64 ndarray without a Python-list detour.

    ndarrays pass straight through ``np.asarray`` (zero-copy when
    already float64) — round-tripping them through ``list()`` copied
    every element through Python objects on the per-record hot path.
    Only true iterables (generators, map objects) are materialised.
    """
    if isinstance(values, np.ndarray):
        return np.asarray(values, dtype=float)
    if isinstance(values, (list, tuple)):
        return np.asarray(values, dtype=float)
    return np.asarray(list(values), dtype=float)


def summary_statistics(
    values: Sequence[float],
    stats: Sequence[str] = SUMMARY_STATS_BASIC,
) -> Dict[str, float]:
    """Compute the named summary statistics of a value sequence.

    Empty sequences map every statistic to 0.0 (a session with no
    observations of a metric carries no signal; zeros keep the feature
    matrix rectangular without NaN handling downstream).

    All requested percentiles are computed in a single
    ``np.percentile`` call — identical values to per-stat calls (same
    interpolation on the same data), but one partition instead of up to
    eleven.  This sits on the per-record hot path of every feature
    build, online and offline.
    """
    arr = _as_float_array(values)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {stat: 0.0 for stat in stats}
    percentile_stats = [s for s in stats if s.startswith("p")]
    fused: Dict[str, float] = {}
    if percentile_stats:
        points = np.percentile(arr, [float(s[1:]) for s in percentile_stats])
        fused = dict(zip(percentile_stats, points))
    return {
        stat: float(fused[stat]) if stat in fused else _single_stat(arr, stat)
        for stat in stats
    }


def pooled_moments(
    block: np.ndarray,
    lengths: np.ndarray,
    stats: Sequence[str] = ("mean", "std"),
) -> Dict[str, np.ndarray]:
    """Row means and/or standard deviations of a left-aligned padded block.

    Row ``i`` of ``block`` holds a series in its first ``lengths[i]``
    cells; the rest is padding and is never read.  Returns one
    ``(rows,)`` array per requested statistic (``"mean"``, ``"std"``),
    equal bit for bit to ``np.mean`` / ``np.std`` of each row's valid
    cells; a row of length 0 maps to 0.0.

    Rows are pooled by length: each distinct length is one C-contiguous
    ``(k, n)`` block, and ``axis=1`` reductions over contiguous rows run
    NumPy's 1-D kernel, pairwise summation order included, once per
    row.  The mean is ``sum / n`` and the standard deviation
    ``sqrt(sum((x - mean)**2) / n)``, the exact operation sequence of
    NumPy's ``_mean`` and ``_var``; the deviation reuses the mean.
    Non-finite rows get NumPy's values without its warnings.
    """
    unknown = set(stats) - {"mean", "std"}
    if unknown:
        raise ValueError(f"not a moment: {sorted(unknown)!r}")
    sums = np.zeros(lengths.size, dtype=np.float64)
    squares = np.zeros(lengths.size, dtype=np.float64)
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1)).tolist()
    with np.errstate(invalid="ignore", over="ignore"):
        for start, stop in zip(starts, starts[1:] + [None]):
            n = int(ordered[start])
            if n == 0:
                continue
            rows = order[start:stop]
            # Fancy indexing copies, so the rows are C-contiguous.
            part = block[rows, :n]
            total = np.add.reduce(part, axis=1)
            sums[rows] = total
            if "std" in stats:
                deviation = part - (total / n)[:, None]
                np.multiply(deviation, deviation, out=deviation)
                squares[rows] = np.add.reduce(deviation, axis=1)
        # Dividing by a length array divides each row by its own n,
        # the same IEEE operation as the per-length scalar division.
        counts = np.maximum(lengths, 1)
        out = {}
        if "mean" in stats:
            out["mean"] = sums / counts
        if "std" in stats:
            out["std"] = np.sqrt(squares / counts)
    return out


@dataclass
class Ecdf:
    """Empirical CDF: sorted support points and cumulative probabilities."""

    x: np.ndarray
    y: np.ndarray

    def __call__(self, value: float) -> float:
        """P(X <= value) under the empirical distribution."""
        if self.x.size == 0:
            return 0.0
        return float(np.searchsorted(self.x, value, side="right") / self.x.size)

    def quantile(self, q: float) -> float:
        """Smallest support point with cumulative probability >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.x.size == 0:
            raise ValueError("empty ECDF has no quantiles")
        idx = int(np.ceil(q * self.x.size)) - 1
        return float(self.x[max(0, idx)])


def ecdf(values: Sequence[float]) -> Ecdf:
    """Build the empirical CDF of ``values`` (NaNs dropped)."""
    arr = _as_float_array(values)
    arr = arr[np.isfinite(arr)]
    x = np.sort(arr)
    n = x.size
    y = np.arange(1, n + 1, dtype=float) / n if n else np.empty(0)
    return Ecdf(x=x, y=y)
