"""The paper's contribution: QoE-impairment detection from
encrypted-visible traffic features.

The §4.1 stall model and the §4.2 representation model run one
Random-Forest pipeline, :class:`ForestDetector` (features → selection
→ balancing → forest); :class:`StallDetector` and
:class:`AvgRepresentationDetector` only declare their feature model,
label rule, classes and feature budget.  The Prometheus baseline
(:mod:`repro.baselines.prometheus`) is a third such declaration.
"""

from .detector import ForestDetector
from .evaluation import balanced_train_full_test, evaluate_model
from .features import (
    REPRESENTATION_METRICS,
    STALL_METRICS,
    build_representation_matrix,
    build_stall_matrix,
    representation_feature_names,
    representation_features,
    stall_feature_names,
    stall_features,
)
from .framework import QoEFramework, SessionDiagnosis
from .mos import BASE_QUALITY_MOS, MosBreakdown, mos_from_diagnosis, mos_from_ground_truth
from .labeling import (
    REPRESENTATION_LABELS,
    SEVERE_RR_THRESHOLD,
    STALL_LABELS,
    has_variation,
    label_records,
    representation_label,
    stall_label,
)
from .representation import AvgRepresentationDetector
from .stall import StallDetector
from .switching import SwitchDetector, SwitchEvaluation

__all__ = [
    "QoEFramework",
    "SessionDiagnosis",
    "ForestDetector",
    "StallDetector",
    "AvgRepresentationDetector",
    "SwitchDetector",
    "SwitchEvaluation",
    "stall_features",
    "stall_feature_names",
    "representation_features",
    "representation_feature_names",
    "build_stall_matrix",
    "build_representation_matrix",
    "STALL_METRICS",
    "REPRESENTATION_METRICS",
    "stall_label",
    "representation_label",
    "has_variation",
    "label_records",
    "STALL_LABELS",
    "REPRESENTATION_LABELS",
    "SEVERE_RR_THRESHOLD",
    "balanced_train_full_test",
    "evaluate_model",
    "MosBreakdown",
    "mos_from_ground_truth",
    "mos_from_diagnosis",
    "BASE_QUALITY_MOS",
]
