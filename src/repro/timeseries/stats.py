"""Summary statistics and empirical distributions.

The feature-construction steps of §4.1 and §4.2 expand every per-chunk
metric into a fixed vector of summary statistics; the figures of the
paper (Figs. 2, 4, 5) are ECDFs.  Both primitives live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

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


def _percentile(ordered: List[float], q: float) -> float:
    """``np.percentile(values, q)`` of the ascending ``ordered`` list.

    NumPy's ``method="linear"`` in scalar float arithmetic: the virtual
    index ``(n - 1) * (q / 100)``, its floor and the next index, with an
    index at or past ``n - 1`` meaning "the last value" (NumPy's ``-1``,
    which also sets the weight to ``virtual + 1``), then ``_lerp``:
    ``a + (b - a) * t``, replaced by ``b - (b - a) * (1 - t)`` where
    ``t >= 0.5``.  Python floats are IEEE doubles, so each operation
    rounds as NumPy's does.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        previous = following = last
        weight = virtual + 1
    else:
        previous = math.floor(virtual)
        following = previous + 1
        weight = virtual - previous
    a = ordered[previous]
    b = ordered[following]
    span = b - a
    if weight >= 0.5:
        return b - span * (1 - weight)
    return a + span * weight


@lru_cache(maxsize=64)
def _check_stats(stats: Tuple[str, ...]) -> None:
    """Raise the ``ValueError`` a non-empty series would raise for ``stats``.

    Cached per ``stats`` tuple (a process sees a handful of feature
    specs), so the empty-series path checks each spec once.
    """
    for stat in stats:
        if stat in ("min", "max", "mean", "std"):
            continue
        if not stat.startswith("p"):
            raise ValueError(f"unknown statistic: {stat!r}")
        _percentile([0.0], float(stat[1:]))


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

    Non-finite values are dropped first.  Empty sequences map every
    statistic to 0.0 (a session with no observations of a metric
    carries no signal; zeros keep the feature matrix rectangular
    without NaN handling downstream).

    Order statistics come from one sort: ``min`` and ``max`` are the
    ends of the sorted values and each percentile is a scalar replica
    of ``np.percentile``'s ``method="linear"`` on them, byte-equal to
    it (when ``0.0`` and ``-0.0`` both occur, which of them a rank holds
    is the sort's choice, as it is the partition's in NumPy).  ``mean``
    and ``std`` are ``np.mean`` and ``np.std``.  This is
    the per-record feature path (every online snapshot, and the oracle
    of the columnar engine), where NumPy's per-call overhead on short
    series outweighs the arithmetic.  Unknown statistics and
    percentiles outside [0, 100] raise ``ValueError``, on an empty
    series too.
    """
    arr = _as_float_array(values)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        _check_stats(tuple(stats))
        return {stat: 0.0 for stat in stats}
    ordered: List[float] = []
    out: Dict[str, float] = {}
    for stat in stats:
        if stat == "mean":
            out[stat] = float(np.mean(arr))
            continue
        if stat == "std":
            out[stat] = float(np.std(arr))
            continue
        if not ordered:
            ordered = np.sort(arr).tolist()
        if stat == "min":
            out[stat] = ordered[0]
        elif stat == "max":
            out[stat] = ordered[-1]
        elif stat.startswith("p"):
            out[stat] = _percentile(ordered, float(stat[1:]))
        else:
            raise ValueError(f"unknown statistic: {stat!r}")
    return out


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
