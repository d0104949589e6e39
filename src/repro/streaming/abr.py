"""Adaptive bit-rate (ABR) selection.

§2.1: "The quality profile of the next segment is determined as a
function of the throughput with which the previous segment was
downloaded and the available seconds of playback in the buffer."

:class:`HybridAbr` combines both signals, matching the quoted YouTube
behaviour; :class:`ThroughputEstimator` supplies its throughput input.
Both player engines (``streaming.adaptive`` and ``datasets.genx``) use
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .catalog import QualityLevel

__all__ = ["HybridAbr", "ThroughputEstimator"]


class ThroughputEstimator:
    """EWMA estimator of download throughput (kbit/s)."""

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._estimate: Optional[float] = None

    @property
    def estimate_kbps(self) -> float:
        """Current estimate; 0 before any samples."""
        return self._estimate if self._estimate is not None else 0.0

    def update(self, sample_kbps: float) -> float:
        if sample_kbps < 0:
            raise ValueError("throughput sample must be >= 0")
        if self._estimate is None:
            self._estimate = float(sample_kbps)
        else:
            self._estimate = (
                self.alpha * float(sample_kbps)
                + (1.0 - self.alpha) * self._estimate
            )
        return self._estimate


def _sorted_ladder(ladder: Sequence[QualityLevel]) -> List[QualityLevel]:
    return sorted(ladder, key=lambda level: level.bitrate_kbps)


@dataclass
class HybridAbr:
    """Throughput-driven selection tempered by buffer state.

    * Throughput picks the candidate rung (with a safety margin).
    * A low buffer (< ``panic_s``) forces the lowest rung.
    * Upswitches are only allowed when the buffer is comfortable
      (> ``upswitch_min_buffer_s``) and happen one rung at a time —
      which is what produces the gradual ladder walks seen in real
      players (and in the paper's Figure 3).
    * Downswitches are suppressed while the buffer is healthy
      (> ``downswitch_max_buffer_s``): a full buffer absorbs transient
      throughput dips, and reacting to the slow-start-skewed sample of
      the first chunk after an OFF period would make every paced
      session oscillate.
    """

    safety: float = 0.8
    panic_s: float = 2.5
    upswitch_min_buffer_s: float = 10.0
    downswitch_max_buffer_s: float = 15.0

    def select(
        self, ladder, video, throughput_kbps, buffer_s, current,
        playback_started=True,
    ):
        rungs = _sorted_ladder(ladder)
        budget = self.safety * throughput_kbps
        candidate = rungs[0]
        for level in rungs:
            if video.bitrate_kbps(level) <= budget:
                candidate = level
        if current is None:
            return candidate
        cur_idx = next(
            (i for i, level in enumerate(rungs) if level.itag == current.itag), 0
        )
        cand_idx = next(
            (i for i, level in enumerate(rungs) if level.itag == candidate.itag), 0
        )
        # Panic when the buffer is about to run dry AND the measured
        # throughput cannot sustain the current rung: drop straight to
        # the sustainable rung (skipping the one-rung-at-a-time rule).
        # A low buffer alone is normal right after playback start.
        if (
            playback_started
            and buffer_s < self.panic_s
            and cand_idx < cur_idx
        ):
            return rungs[cand_idx]
        if cand_idx > cur_idx:
            if buffer_s < self.upswitch_min_buffer_s:
                return rungs[cur_idx]
            return rungs[cur_idx + 1]            # one rung up at a time
        if cand_idx < cur_idx:
            if buffer_s > self.downswitch_max_buffer_s:
                return rungs[cur_idx]            # buffer absorbs the dip
            return rungs[cand_idx]               # downswitch immediately
        return rungs[cur_idx]
