"""Prometheus-style baseline (Aggarwal et al., HotMobile 2014 [15]).

The paper positions its stall model against Prometheus: "the achieved
accuracy was approximately 84% for a binary classification" on
unencrypted traffic, using only QoS-style network metrics and a single
Buffering-Ratio indicator.

This baseline reproduces that design point: a *binary*
(stalled / not stalled) classifier over transport-layer QoS summary
statistics only — no chunk-size or chunk-timing features, which are the
paper's key addition.  Comparing it with the 3-class chunk-aware model
reproduces the paper's claim that the proposed model "not only achieves
much higher accuracy but it also can predict the severity".

Naming note: this module is the Prometheus *baseline classifier* from
the QoE literature and has nothing to do with the Prometheus
*monitoring system* — the metrics exporter for the latter lives in
:mod:`repro.obs.exposition` (deliberately not named ``prometheus`` so
neither module shadows the other).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.detector import ForestDetector
from repro.core.features import stall_feature_names
from repro.datasets.schema import SessionRecord
from repro.ml.selection import InfoGainRanker, SelectionResult

__all__ = ["PrometheusBaseline", "BINARY_LABELS"]

BINARY_LABELS = ("not stalled", "stalled")

#: QoS metric prefixes Prometheus-style systems rely on (no chunk
#: application-layer features).
_QOS_PREFIXES = (
    "RTT minimum",
    "RTT average",
    "RTT maximum",
    "BDP",
    "BIF avg",
    "BIF maximum",
    "packet loss",
    "packet retransmissions",
)


def _qos_indices() -> List[int]:
    names = stall_feature_names()
    return [
        i
        for i, name in enumerate(names)
        if name.startswith(_QOS_PREFIXES)
    ]


def binary_stall_label(record: SessionRecord) -> str:
    """Binary stalled / not-stalled ground truth of one session."""
    return "stalled" if record.rebuffering_ratio() > 0 else "not stalled"


class PrometheusBaseline(ForestDetector):
    """Binary QoS-only stall classifier.

    The pipeline is the paper's own (:class:`~repro.core.detector.
    ForestDetector` over the stall feature model), so the comparison
    isolates the feature set and the label granularity: the "selection"
    is fixed to the QoS columns and the label is binary.

    Parameters
    ----------
    n_estimators / random_state:
        Forest configuration (kept identical to the paper's model).
    n_jobs:
        Worker processes for feature builds, forest fitting and CV
        folds (``None``/1 serial, ``-1`` all cores); values are
        identical for any setting.
    """

    feature_model = "stall"
    label_rule = staticmethod(binary_stall_label)
    class_labels = BINARY_LABELS
    default_n_features = len(_qos_indices())

    def __init__(
        self,
        n_estimators: int = 40,
        random_state: int = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators, random_state=random_state, n_jobs=n_jobs
        )

    def _select(
        self, X: np.ndarray, y: np.ndarray, names: List[str]
    ) -> Tuple[List[int], List[str], SelectionResult]:
        """The QoS columns, always, in ascending column order (the
        forest's feature draws depend on that order), scored by their
        information gain."""
        indices = _qos_indices()
        qos_names = [names[i] for i in indices]
        ranked = InfoGainRanker().rank(X[:, indices], y)
        gains = dict(zip(ranked.selected, ranked.scores))
        result = SelectionResult(
            selected=indices,
            scores=[gains[k] for k in range(len(indices))],
            names=qos_names,
        )
        return indices, qos_names, result
