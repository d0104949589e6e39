"""Representation-quality-switch detection (§4.3, §5.6).

Unsupervised time-series method: for every session compute the series
of per-chunk products Δsize × Δt (after dropping the first 10 seconds
of fast-start noise), run Page's CUSUM over it, and take the standard
deviation of the CUSUM output as the session's *switch score*::

    score = STD(CUSUM(Δsize × Δt))          (eq. 3)

Sessions scoring above a fixed threshold are flagged as having quality
switches.  The paper reads the threshold (500) off the two score
distributions (Figure 4) and reuses the same value unchanged on
encrypted traffic (§5.6) — :meth:`SwitchDetector.calibrate` automates
the reading-off step, and the calibrated value is then frozen.

Sizes enter the product in kilobytes and times in seconds, which puts
the scores in the same numeric range as the paper's Figure 4 axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.datasets.schema import SessionRecord
from repro.obs import trace
from repro.timeseries.cusum import cusum_score
from repro.timeseries.detection import (
    DEFAULT_STARTUP_SKIP_S,
    product_series,
    switch_scores,
)

from .featurex.ragged import pack_records

from .labeling import has_variation

__all__ = ["SwitchDetector", "SwitchEvaluation"]

#: The paper's fixed threshold on STD(CUSUM(Δsize × Δt)).
DEFAULT_THRESHOLD = 500.0


@dataclass
class SwitchEvaluation:
    """Outcome of evaluating the detector on a labelled record set.

    ``accuracy_without`` is the fraction of truly switch-free sessions
    below the threshold; ``accuracy_with`` the fraction of truly
    switching sessions above it — the two percentages §4.3 and §5.6
    report (78%/76% cleartext, 76.9%/71.7% encrypted).
    """

    threshold: float
    accuracy_without: float
    accuracy_with: float
    n_without: int
    n_with: int

    @property
    def balanced_accuracy(self) -> float:
        return 0.5 * (self.accuracy_without + self.accuracy_with)


class SwitchDetector:
    """CUSUM-score detector of representation switches.

    Parameters
    ----------
    threshold:
        Score threshold; the paper's 500 by default.
    startup_skip_s:
        Leading seconds dropped from every session (fast-start noise).
    size_unit_bytes:
        Divisor applied to chunk sizes before the product (1000 =
        kilobytes, keeping scores on the Figure 4 scale).
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        startup_skip_s: float = DEFAULT_STARTUP_SKIP_S,
        size_unit_bytes: float = 1000.0,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if size_unit_bytes <= 0:
            raise ValueError("size unit must be positive")
        self.threshold = threshold
        self.startup_skip_s = startup_skip_s
        self.size_unit_bytes = size_unit_bytes

    # ------------------------------------------------------------------

    def score(self, record: SessionRecord) -> float:
        """STD(CUSUM(Δsize × Δt)) of one session."""
        series = product_series(
            record.timestamps,
            record.sizes / self.size_unit_bytes,
            startup_skip_s=self.startup_skip_s,
        )
        if series.size == 0:
            return 0.0
        return cusum_score(series)

    def scores(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Scores of a record set, bit-identical to :meth:`score` per record.

        The batch is scored in one padded pass
        (:func:`repro.timeseries.detection.switch_scores`).
        """
        with trace("core.switching.scores") as span:
            batch = pack_records(records)
            scores, empty = switch_scores(
                batch.padded["timestamps"],
                batch.padded["sizes"] / self.size_unit_bytes,
                batch.sorted_lengths,
                startup_skip_s=self.startup_skip_s,
            )
            span.add("rows", len(records))
            span.add("empty", int(empty.sum()))
        unsorted = np.empty_like(scores)
        unsorted[batch.order] = scores
        return unsorted

    def predict(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Boolean switch prediction per session (score > threshold)."""
        return self.scores(records) > self.threshold

    # ------------------------------------------------------------------

    def calibrate(
        self,
        records: Sequence[SessionRecord],
        truth: Optional[np.ndarray] = None,
        grid_size: int = 200,
    ) -> float:
        """Pick the threshold that balances the two §4.3 accuracies.

        Scans a grid of candidate thresholds over the observed score
        range and keeps the one maximising the balanced accuracy —
        the automated version of reading the crossing point off
        Figure 4.  The chosen value replaces ``self.threshold``.
        """
        scores = self.scores(records)
        if truth is None:
            truth = np.array([has_variation(r) for r in records])
        truth = np.asarray(truth, dtype=bool)
        if truth.all() or not truth.any():
            raise ValueError("calibration needs both classes present")
        candidates = np.quantile(
            scores, np.linspace(0.01, 0.99, grid_size)
        )
        # The paper reads the threshold off the crossing region of the
        # two CDFs — the point where both classes are recovered at
        # similar rates.  Pick the candidate with the highest balanced
        # accuracy after discarding badly unbalanced operating points.
        best_threshold = float(candidates[0])
        best_score = -np.inf
        for threshold in np.unique(candidates):
            acc_without = float(np.mean(scores[~truth] <= threshold))
            acc_with = float(np.mean(scores[truth] > threshold))
            balanced = 0.5 * (acc_without + acc_with)
            skew = abs(acc_without - acc_with)
            score = balanced - 0.5 * skew
            if score > best_score:
                best_score = score
                best_threshold = float(threshold)
        self.threshold = best_threshold
        return best_threshold

    def evaluate(
        self,
        records: Sequence[SessionRecord],
        truth: Optional[np.ndarray] = None,
    ) -> SwitchEvaluation:
        """Per-class accuracies at the current (frozen) threshold."""
        scores = self.scores(records)
        if truth is None:
            truth = np.array([has_variation(r) for r in records])
        truth = np.asarray(truth, dtype=bool)
        without = scores[~truth]
        with_ = scores[truth]
        return SwitchEvaluation(
            threshold=self.threshold,
            accuracy_without=(
                float(np.mean(without <= self.threshold)) if without.size else 0.0
            ),
            accuracy_with=(
                float(np.mean(with_ > self.threshold)) if with_.size else 0.0
            ),
            n_without=int(without.size),
            n_with=int(with_.size),
        )

    def classify_variation(
        self,
        records: Sequence[SessionRecord],
        high_factor: float = 4.0,
    ) -> np.ndarray:
        """Three-level variation classes from the switch score.

        §4.3 defines Var classes (no / mild / high variation) from the
        combined frequency+amplitude indicator; on encrypted traffic
        only the score is available, so sessions below the threshold are
        "no variation", sessions above ``high_factor`` × threshold are
        "high variation", and the band in between is "mild variation".
        """
        if high_factor <= 1.0:
            raise ValueError("high_factor must exceed 1")
        scores = self.scores(records)
        labels = np.full(scores.shape, "mild variation", dtype=object)
        labels[scores <= self.threshold] = "no variation"
        labels[scores > high_factor * self.threshold] = "high variation"
        return labels.astype(str)

    def score_distributions(
        self,
        records: Sequence[SessionRecord],
        truth: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Scores split by ground truth — the two Figure 4 CDFs."""
        scores = self.scores(records)
        if truth is None:
            truth = np.array([has_variation(r) for r in records])
        truth = np.asarray(truth, dtype=bool)
        return {"without": scores[~truth], "with": scores[truth]}
