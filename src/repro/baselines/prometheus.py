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

from typing import List, Optional, Sequence

import numpy as np

from repro.core.evaluation import balanced_train_full_test, evaluate_model
from repro.core.features import build_stall_matrix, stall_feature_names
from repro.datasets.schema import SessionRecord
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import ClassificationReport

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


class PrometheusBaseline:
    """Binary QoS-only stall classifier.

    Parameters
    ----------
    n_estimators / random_state:
        Forest configuration (kept identical to the paper's model so
        the comparison isolates the feature set and label granularity).
    n_jobs:
        Worker processes for feature builds (``None``/1 serial, ``-1``
        all cores); values are identical for any setting.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        random_state: int = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.random_state = random_state
        self.n_jobs = n_jobs
        self._indices = _qos_indices()
        self._model: Optional[RandomForestClassifier] = None
        self.train_report_: Optional[ClassificationReport] = None

    def labels_for(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Binary stalled / not-stalled ground truth."""
        out = []
        for record in records:
            rr = record.rebuffering_ratio()
            out.append("stalled" if rr > 0 else "not stalled")
        return np.array(out)

    def _features_of(self, records: Sequence[SessionRecord]) -> np.ndarray:
        X, _ = build_stall_matrix(records, n_jobs=self.n_jobs)
        return X[:, self._indices]

    def fit(self, records: Sequence[SessionRecord]) -> "PrometheusBaseline":
        """Balanced-train / full-test on the QoS feature block."""
        y = self.labels_for(records)
        self._model, self.train_report_ = balanced_train_full_test(
            lambda: RandomForestClassifier(
                n_estimators=self.n_estimators,
                min_samples_leaf=3,
                random_state=self.random_state,
            ),
            self._features_of(records),
            y,
            labels=list(BINARY_LABELS),
            random_state=self.random_state,
        )
        return self

    def predict(self, records: Sequence[SessionRecord]) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("baseline is not fitted; call fit() first")
        return self._model.predict(self._features_of(records))

    def evaluate(
        self, records: Sequence[SessionRecord]
    ) -> ClassificationReport:
        if self._model is None:
            raise RuntimeError("baseline is not fitted; call fit() first")
        y = self.labels_for(records)
        return evaluate_model(
            self._model,
            self._features_of(records),
            y,
            labels=list(BINARY_LABELS),
        )

    def cross_validate(
        self, records: Sequence[SessionRecord], n_splits: int = 10
    ) -> ClassificationReport:
        """Honest k-fold CV report (no test instance seen in training)."""
        from repro.ml.balance import oversample
        from repro.ml.crossval import clamped_cross_validate

        y = self.labels_for(records)
        X = self._features_of(records)
        return clamped_cross_validate(
            lambda: RandomForestClassifier(
                n_estimators=self.n_estimators,
                min_samples_leaf=3,
                random_state=self.random_state,
            ),
            X,
            y,
            n_splits=n_splits,
            random_state=self.random_state,
            balance=lambda Xb, yb: oversample(
                Xb, yb, random_state=self.random_state
            ),
            labels=list(BINARY_LABELS),
        )
