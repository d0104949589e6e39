"""Stall-severity detection model (§4.1).

Pipeline: 70-feature construction → CFS feature selection (cleartext
training only) → class balancing → Random Forest → 3-class prediction
(no / mild / severe stalling).  The pipeline itself is
:class:`repro.core.detector.ForestDetector`; this module declares the
stall model's feature set, label rule, classes and feature budget.
"""

from __future__ import annotations

from .detector import ForestDetector
from .labeling import STALL_LABELS, stall_label

__all__ = ["StallDetector"]


class StallDetector(ForestDetector):
    """Three-class stall detector over encrypted-visible features.

    Parameters are those of :class:`~repro.core.detector.ForestDetector`;
    the default feature budget is 8.
    """

    feature_model = "stall"
    label_rule = staticmethod(stall_label)
    class_labels = STALL_LABELS
    default_n_features = 8
