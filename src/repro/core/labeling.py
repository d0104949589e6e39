"""Ground-truth labelling rules (§4.1, §4.2, §4.3).

* Stalling — three classes on the rebuffering ratio::

      "no stalling":     RR = 0
      "mild stalling":   0 < RR <= 0.1
      "severe stalling": RR > 0.1

  (0.1 is the Krishnan & Sitaraman abandonment threshold.)

* Average representation — three classes on the mean resolution µ::

      HD: µ > 480    SD: 360 <= µ <= 480    LD: µ < 360

* Representation variation — the binary with/without-switches view
  used by Figure 4 and §5.6.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.schema import SessionRecord

__all__ = [
    "STALL_LABELS",
    "REPRESENTATION_LABELS",
    "SEVERE_RR_THRESHOLD",
    "stall_label",
    "representation_label",
    "has_variation",
    "label_records",
]

STALL_LABELS = ("no stalls", "mild stalls", "severe stalls")
REPRESENTATION_LABELS = ("LD", "SD", "HD")

#: RR above this is severe stalling (viewers abandon, Krishnan et al.).
SEVERE_RR_THRESHOLD = 0.1


def stall_label(record: SessionRecord) -> str:
    """Stall class of a session from its rebuffering ratio."""
    rr = record.rebuffering_ratio()
    if rr <= 0.0:
        return "no stalls"
    if rr <= SEVERE_RR_THRESHOLD:
        return "mild stalls"
    return "severe stalls"


def representation_label(record: SessionRecord) -> str:
    """LD/SD/HD class of a session from its mean resolution."""
    mu = record.mean_resolution()
    if mu > 480.0:
        return "HD"
    if mu >= 360.0:
        return "SD"
    return "LD"


def has_variation(record: SessionRecord) -> bool:
    """Binary with/without quality switches (Figure 4, §5.6 view)."""
    return record.has_switches()


def label_records(
    records: Sequence[SessionRecord], labeller
) -> np.ndarray:
    """Vectorise any per-record labeller over a record sequence."""
    return np.array([labeller(r) for r in records])
