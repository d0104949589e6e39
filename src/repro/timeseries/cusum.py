"""Page's CUSUM (Cumulative Sum Control Chart) change detection.

§4.3 of the paper: "we find that the most suitable [algorithm] for the
purposes of this work is the Cumulative Sum Control Chart (CUSUM) which
was developed by E.S. Page.  CUSUM is a change detection monitoring
technique which allows the detection of shifts from the mean of a given
sample of points in a time series.  [...] In our case, instead of
thresholds we use the standard deviation of the output of the change
detection algorithm."

Three views are provided:

* :func:`cusum_series` — the raw CUSUM statistic trajectories
  (high-side and low-side), whose standard deviation is the paper's
  switch-detection score.
* :func:`detect_changes` — the classic thresholded detector returning
  change points, used by tests / diagnostics and the ablation benches.
* :func:`cusum_scores` — the score of every row of a padded batch,
  bit-identical to :func:`cusum_score` row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .stats import pooled_moments

__all__ = [
    "CusumResult",
    "cusum_series",
    "detect_changes",
    "cusum_score",
    "cusum_scores",
]


@dataclass
class CusumResult:
    """Raw CUSUM trajectories of a series.

    Attributes
    ----------
    high:
        Upper one-sided statistic S+_t, accumulating positive shifts.
    low:
        Lower one-sided statistic S-_t, accumulating negative shifts.
    combined:
        ``high + low`` — a single magnitude trajectory whose standard
        deviation is used as the switch score.
    """

    high: np.ndarray
    low: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return self.high + self.low

    def std(self) -> float:
        """Standard deviation of the combined trajectory."""
        if self.combined.size == 0:
            return 0.0
        return float(np.std(self.combined))


def cusum_series(
    values: np.ndarray,
    target: float = None,
    drift: float = 0.0,
    reset_on_detect: bool = False,
    threshold: float = None,
) -> CusumResult:
    """Compute one-sided CUSUM statistics of ``values``.

    The tabular CUSUM recursions are::

        S+_t = max(0, S+_{t-1} + (x_t - target - drift))
        S-_t = max(0, S-_{t-1} + (target - x_t - drift))

    Parameters
    ----------
    values:
        Input series.
    target:
        Reference level; defaults to the series mean (Page's original
        formulation monitors deviations from the in-control mean).
    drift:
        Allowance ("slack") subtracted each step; 0 keeps every
        deviation, larger values ignore small wander.
    reset_on_detect / threshold:
        When both are given, the accumulators reset to zero whenever a
        side crosses ``threshold`` (standard alarm-and-restart CUSUM).
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return CusumResult(high=np.empty(0), low=np.empty(0))
    mu = float(np.mean(x)) if target is None else float(target)
    high = np.empty(x.size)
    low = np.empty(x.size)
    s_hi = 0.0
    s_lo = 0.0
    for t, value in enumerate(x):
        s_hi = max(0.0, s_hi + (value - mu - drift))
        s_lo = max(0.0, s_lo + (mu - value - drift))
        if reset_on_detect and threshold is not None:
            if s_hi > threshold:
                s_hi = 0.0
            if s_lo > threshold:
                s_lo = 0.0
        high[t] = s_hi
        low[t] = s_lo
    return CusumResult(high=high, low=low)


def detect_changes(
    values: np.ndarray,
    threshold: float,
    target: float = None,
    drift: float = 0.0,
) -> List[int]:
    """Indices where the CUSUM statistic first crosses ``threshold``.

    The accumulators reset after each alarm so that multiple change
    points in the same series are all reported.
    """
    x = np.asarray(values, dtype=float)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if x.size == 0:
        return []
    mu = float(np.mean(x)) if target is None else float(target)
    alarms: List[int] = []
    s_hi = 0.0
    s_lo = 0.0
    for t, value in enumerate(x):
        s_hi = max(0.0, s_hi + (value - mu - drift))
        s_lo = max(0.0, s_lo + (mu - value - drift))
        if s_hi > threshold or s_lo > threshold:
            alarms.append(t)
            s_hi = 0.0
            s_lo = 0.0
    return alarms


def cusum_score(values: np.ndarray, drift: float = 0.0) -> float:
    """The paper's change score: STD(CUSUM(series)).

    Flat series score ~0; series containing level shifts accumulate
    large CUSUM excursions and score high.  §4.3/§5.6 threshold this
    score at 500 to split sessions with vs. without quality switches.
    """
    return cusum_series(values, drift=drift).std()


def cusum_scores(block: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`cusum_score` of every row of a left-aligned padded block.

    Row ``i``'s series is ``block[i, :lengths[i]]``; the rest of the
    row is padding and is never read.  A row of length 0 scores 0.0.
    Each score equals ``cusum_score(block[i, :lengths[i]])`` bit for
    bit:

    * the series means and the final standard deviations are pooled by
      length (:func:`repro.timeseries.stats.pooled_moments`), NumPy's
      own reductions over contiguous rows;
    * the recursion runs per row over Python floats, the same IEEE
      operations in the same order as :func:`cusum_series` (whose
      ``- drift`` term is ``- 0.0`` there, an identity), and
      ``max(0.0, s)`` keeps ``s`` only when ``s > 0.0``.
    """
    means = pooled_moments(block, lengths, ("mean",))["mean"].tolist()
    combined = np.zeros(block.shape, dtype=np.float64)
    for i in np.flatnonzero(lengths).tolist():
        mu = means[i]
        s_hi = 0.0
        s_lo = 0.0
        trajectory = []
        for value in block[i, :lengths[i]].tolist():
            s_hi = s_hi + (value - mu)
            if not s_hi > 0.0:
                s_hi = 0.0
            s_lo = s_lo + (mu - value)
            if not s_lo > 0.0:
                s_lo = 0.0
            trajectory.append(s_hi + s_lo)
        combined[i, :len(trajectory)] = trajectory
    return pooled_moments(combined, lengths, ("std",))["std"]
