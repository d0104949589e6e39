"""Page's CUSUM (Cumulative Sum Control Chart) change detection.

§4.3 of the paper: "we find that the most suitable [algorithm] for the
purposes of this work is the Cumulative Sum Control Chart (CUSUM) which
was developed by E.S. Page.  CUSUM is a change detection monitoring
technique which allows the detection of shifts from the mean of a given
sample of points in a time series.  [...] In our case, instead of
thresholds we use the standard deviation of the output of the change
detection algorithm."

Two views are provided:

* :func:`cusum_series` — the raw CUSUM statistic trajectories
  (high-side and low-side), whose standard deviation is the paper's
  switch-detection score (:func:`cusum_score`).
* :func:`cusum_scores` — the score of every row of a padded batch,
  bit-identical to :func:`cusum_score` row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import pooled_moments

__all__ = ["CusumResult", "cusum_series", "cusum_score", "cusum_scores"]


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


def cusum_series(values: np.ndarray) -> CusumResult:
    """Compute one-sided CUSUM statistics of ``values``.

    The tabular CUSUM recursions are::

        S+_t = max(0, S+_{t-1} + (x_t - mu))
        S-_t = max(0, S-_{t-1} + (mu - x_t))

    with ``mu`` the series mean (Page's original formulation monitors
    deviations from the in-control mean) and no allowance, so every
    deviation is kept.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return CusumResult(high=np.empty(0), low=np.empty(0))
    mu = float(np.mean(x))
    high = np.empty(x.size)
    low = np.empty(x.size)
    s_hi = 0.0
    s_lo = 0.0
    for t, value in enumerate(x):
        s_hi = max(0.0, s_hi + (value - mu))
        s_lo = max(0.0, s_lo + (mu - value))
        high[t] = s_hi
        low[t] = s_lo
    return CusumResult(high=high, low=low)


def cusum_score(values: np.ndarray) -> float:
    """The paper's change score: STD(CUSUM(series)).

    Flat series score ~0; series containing level shifts accumulate
    large CUSUM excursions and score high.  §4.3/§5.6 threshold this
    score at 500 to split sessions with vs. without quality switches.
    """
    return cusum_series(values).std()


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
      operations in the same order as :func:`cusum_series`, and
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
