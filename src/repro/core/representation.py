"""Average-representation detection model (§4.2).

Pipeline: 210-feature construction (14 metrics × 15 statistics) → CFS
feature selection down to ~15 features (dominated by chunk-size
statistics, Table 5) → class balancing → Random Forest → LD/SD/HD.

The detector only applies to adaptive sessions; progressive sessions
have a single fixed representation which legacy DPI solutions could
read from the URI — the HAS subset is where the problem is interesting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.schema import SessionRecord
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import ClassificationReport
from repro.ml.selection import CfsSubsetSelector, InfoGainRanker, SelectionResult

from .evaluation import balanced_train_full_test, evaluate_model
from .features import build_representation_matrix
from .labeling import REPRESENTATION_LABELS, label_records, representation_label

__all__ = ["AvgRepresentationDetector"]


class AvgRepresentationDetector:
    """Three-class LD/SD/HD detector over encrypted-visible features.

    Parameters mirror :class:`repro.core.stall.StallDetector`; the
    default feature budget is 15 to match Table 5.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        feature_selection: str = "cfs",
        n_features: int = 15,
        random_state: int = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        if feature_selection not in ("cfs", "infogain", "none"):
            raise ValueError(f"unknown selection mode: {feature_selection!r}")
        self.n_estimators = n_estimators
        self.feature_selection = feature_selection
        self.n_features = n_features
        self.random_state = random_state
        self.n_jobs = n_jobs

        self.selected_indices_: Optional[List[int]] = None
        self.selected_names_: Optional[List[str]] = None
        self.selection_result_: Optional[SelectionResult] = None
        self.train_report_: Optional[ClassificationReport] = None
        self._model: Optional[RandomForestClassifier] = None

    def labels_for(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Ground-truth LD/SD/HD labels of a record set."""
        return label_records(records, representation_label)

    def _select(self, X: np.ndarray, y: np.ndarray, names: List[str]) -> None:
        if self.feature_selection == "none":
            result = InfoGainRanker().rank(X, y, names=names)
            self.selected_indices_ = list(range(X.shape[1]))
            self.selected_names_ = list(names)
            self.selection_result_ = result
            return
        if self.feature_selection == "infogain":
            result = InfoGainRanker().rank(X, y, names=names).top(self.n_features)
        else:
            result = CfsSubsetSelector(max_subset_size=self.n_features).select(
                X, y, names=names
            )
            if len(result.selected) < 2:
                result = (
                    InfoGainRanker().rank(X, y, names=names).top(self.n_features)
                )
        self.selected_indices_ = list(result.selected)
        self.selected_names_ = list(result.names)
        self.selection_result_ = result

    def _model_factory(self) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=self.n_estimators,
            min_samples_leaf=3,
            random_state=self.random_state,
            n_jobs=self.n_jobs,
        )

    def fit(
        self,
        records: Sequence[SessionRecord],
        labels: Optional[np.ndarray] = None,
    ) -> "AvgRepresentationDetector":
        """Train on adaptive cleartext records with resolution truth."""
        if len(records) == 0:
            raise ValueError("cannot fit on an empty record set")
        y = np.asarray(labels) if labels is not None else self.labels_for(records)
        X, names = build_representation_matrix(records, n_jobs=self.n_jobs)
        self._select(X, y, names)
        X_sel = X[:, self.selected_indices_]
        self._model, self.train_report_ = balanced_train_full_test(
            self._model_factory,
            X_sel,
            y,
            labels=REPRESENTATION_LABELS,
            random_state=self.random_state,
        )
        return self

    def _check_fitted(self) -> None:
        if self._model is None:
            raise RuntimeError("detector is not fitted; call fit() first")

    def _features_of(
        self, records: Sequence[SessionRecord], cache: bool = True
    ) -> np.ndarray:
        """The selected feature columns of ``records``, built alone.

        ``cache`` slices a cached full matrix when one exists — offline
        evaluation re-reads the corpus the detector was fitted on.
        Inference (``predict``/``predict_proba``, hence serving) skips
        the cache: its batches never repeat, so hashing them is waste.
        """
        X, _ = build_representation_matrix(
            records,
            n_jobs=self.n_jobs,
            cache=cache,
            columns=self.selected_indices_,
        )
        return X

    def predict_proba(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Class-probability estimates per session (forest soft votes).

        Columns follow ``self._model.classes_`` order; useful for
        confidence-aware alarm policies on top of the hard labels.
        """
        self._check_fitted()
        return self._model.predict_proba(
            self._features_of(records, cache=False)
        )

    def predict(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Predicted LD/SD/HD class per session."""
        self._check_fitted()
        return self._model.predict(self._features_of(records, cache=False))

    def evaluate(
        self,
        records: Sequence[SessionRecord],
        labels: Optional[np.ndarray] = None,
    ) -> ClassificationReport:
        """Paper-format report on a labelled record set."""
        self._check_fitted()
        y = np.asarray(labels) if labels is not None else self.labels_for(records)
        return evaluate_model(
            self._model, self._features_of(records), y, labels=REPRESENTATION_LABELS
        )

    def feature_gains(self) -> List[Tuple[str, float]]:
        """(name, information gain) pairs of selected features (Table 5)."""
        self._check_fitted()
        return list(
            zip(self.selection_result_.names, self.selection_result_.scores)
        )

    def cross_validate(
        self,
        records: Sequence[SessionRecord],
        n_splits: int = 10,
        labels: Optional[np.ndarray] = None,
    ) -> ClassificationReport:
        """Honest k-fold CV report over the selected feature subset."""
        from repro.ml.balance import oversample
        from repro.ml.crossval import clamped_cross_validate

        self._check_fitted()
        y = np.asarray(labels) if labels is not None else self.labels_for(records)
        X = self._features_of(records)
        return clamped_cross_validate(
            self._model_factory,
            X,
            y,
            n_splits=n_splits,
            random_state=self.random_state,
            balance=lambda Xb, yb: oversample(
                Xb, yb, random_state=self.random_state
            ),
            labels=list(REPRESENTATION_LABELS),
            n_jobs=self.n_jobs,
        )
