"""Average-representation detection model (§4.2).

Pipeline: 210-feature construction (14 metrics × 15 statistics) → CFS
feature selection down to ~15 features (dominated by chunk-size
statistics, Table 5) → class balancing → Random Forest → LD/SD/HD.  The
pipeline itself is :class:`repro.core.detector.ForestDetector`; this
module declares the §4.2 feature set, label rule, classes and budget.

The detector only applies to adaptive sessions; progressive sessions
have a single fixed representation which legacy DPI solutions could
read from the URI — the HAS subset is where the problem is interesting.
"""

from __future__ import annotations

from .detector import ForestDetector
from .labeling import REPRESENTATION_LABELS, representation_label

__all__ = ["AvgRepresentationDetector"]


class AvgRepresentationDetector(ForestDetector):
    """Three-class LD/SD/HD detector over encrypted-visible features.

    Parameters are those of :class:`~repro.core.detector.ForestDetector`;
    the default feature budget is 15 to match Table 5.
    """

    feature_model = "representation"
    label_rule = staticmethod(representation_label)
    class_labels = REPRESENTATION_LABELS
    default_n_features = 15
