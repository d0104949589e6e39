"""The Random-Forest detection pipeline shared by §4.1, §4.2 and [15].

Both supervised detectors of the paper are trained the same way:
per-session summary features → CFS feature selection (cleartext
training only) → class balancing → Random Forest.  They differ only in
the feature model and the ground-truth label.  :class:`ForestDetector`
holds that pipeline once; a detector is a subclass that declares

* ``feature_model`` — ``"stall"`` (70 features) or ``"representation"``
  (210 features), see :func:`repro.core.features.get_model_spec`;
* ``label_rule`` — the per-record ground-truth labeller;
* ``class_labels`` — the class order of every report;
* ``default_n_features`` — the selection budget when none is given.

On encrypted traffic "an automated feature selection [...] is no longer
necessary since we already know the important features" — a fitted
detector therefore stores its selected feature indices and reuses them
on any later dataset.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.schema import SessionRecord
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import ClassificationReport
from repro.ml.selection import CfsSubsetSelector, InfoGainRanker, SelectionResult

from .evaluation import balanced_train_full_test, evaluate_model
from .features import get_model_spec
from .featurex.engine import build_matrix
from .labeling import label_records

__all__ = ["ForestDetector"]


class ForestDetector:
    """Feature selection + balanced Random Forest over one feature model.

    Parameters
    ----------
    n_estimators:
        Forest size.
    feature_selection:
        ``"cfs"`` (paper's CfsSubsetEval + BestFirst), ``"infogain"``
        (rank and keep ``n_features``), or ``"none"`` (every feature).
    n_features:
        Upper bound on selected features (infogain keeps exactly this
        many; CFS is capped at it); ``None`` is the class's
        ``default_n_features``.
    random_state:
        Seed for balancing and the forest.
    n_jobs:
        Worker processes for feature builds, forest fitting and CV
        folds (``None``/1 serial, ``-1`` all cores); results are
        identical for any value.
    """

    feature_model: str
    label_rule: Callable[[SessionRecord], str]
    class_labels: Tuple[str, ...]
    default_n_features: int

    def __init__(
        self,
        n_estimators: int = 40,
        feature_selection: str = "cfs",
        n_features: Optional[int] = None,
        random_state: int = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        if feature_selection not in ("cfs", "infogain", "none"):
            raise ValueError(f"unknown selection mode: {feature_selection!r}")
        self.n_estimators = n_estimators
        self.feature_selection = feature_selection
        self.n_features = (
            self.default_n_features if n_features is None else n_features
        )
        self.random_state = random_state
        self.n_jobs = n_jobs

        self.selected_indices_: Optional[List[int]] = None
        self.selected_names_: Optional[List[str]] = None
        self.selection_result_: Optional[SelectionResult] = None
        self.train_report_: Optional[ClassificationReport] = None
        self._model: Optional[RandomForestClassifier] = None

    # ------------------------------------------------------------------

    def labels_for(self, records: Sequence[SessionRecord]) -> np.ndarray:
        """Ground-truth labels of a record set under ``label_rule``."""
        return label_records(records, self.label_rule)

    def _select(
        self, X: np.ndarray, y: np.ndarray, names: List[str]
    ) -> Tuple[List[int], List[str], SelectionResult]:
        """(indices, names, selection result) of the kept columns."""
        if self.feature_selection == "none":
            result = InfoGainRanker().rank(X, y, names=names)
            return list(range(X.shape[1])), list(names), result
        if self.feature_selection == "infogain":
            result = InfoGainRanker().rank(X, y, names=names).top(self.n_features)
        else:
            result = CfsSubsetSelector(max_subset_size=self.n_features).select(
                X, y, names=names
            )
            if len(result.selected) < 2:
                # Degenerate CFS outcome (tiny training sets): fall back
                # to the info-gain ranking so the model stays usable.
                result = (
                    InfoGainRanker().rank(X, y, names=names).top(self.n_features)
                )
        return list(result.selected), list(result.names), result

    def _model_factory(self) -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=self.n_estimators,
            min_samples_leaf=3,
            random_state=self.random_state,
            n_jobs=self.n_jobs,
        )

    def _truth(
        self, records: Sequence[SessionRecord], labels: Optional[np.ndarray]
    ) -> np.ndarray:
        return np.asarray(labels) if labels is not None else self.labels_for(records)

    def fit(
        self,
        records: Sequence[SessionRecord],
        labels: Optional[np.ndarray] = None,
    ) -> "ForestDetector":
        """Train on a cleartext record set (labels from ground truth)."""
        if len(records) == 0:
            raise ValueError("cannot fit on an empty record set")
        y = self._truth(records, labels)
        spec = get_model_spec(self.feature_model)
        X = build_matrix(records, spec, n_jobs=self.n_jobs)
        (
            self.selected_indices_,
            self.selected_names_,
            self.selection_result_,
        ) = self._select(X, y, list(spec.feature_names))
        self._model, self.train_report_ = balanced_train_full_test(
            self._model_factory,
            X[:, self.selected_indices_],
            y,
            labels=self.class_labels,
            random_state=self.random_state,
        )
        return self

    @property
    def fitted(self) -> bool:
        """Whether the detector holds a trained forest."""
        return self._model is not None

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("detector is not fitted; call fit() first")

    # ------------------------------------------------------------------

    def _features_of(
        self, records: Sequence[SessionRecord], cache: bool = True
    ) -> np.ndarray:
        """The selected feature columns of ``records``, built alone.

        ``cache`` slices a cached full matrix when one exists — offline
        evaluation re-reads the corpus the detector was fitted on.
        Inference (``predict``/``predict_proba``, hence serving) skips
        the cache: its batches never repeat, so hashing them is waste.
        """
        return build_matrix(
            records,
            get_model_spec(self.feature_model),
            n_jobs=self.n_jobs,
            cache=cache,
            columns=self.selected_indices_,
        )

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
        """Predicted class per session."""
        self._check_fitted()
        return self._model.predict(self._features_of(records, cache=False))

    def evaluate(
        self,
        records: Sequence[SessionRecord],
        labels: Optional[np.ndarray] = None,
    ) -> ClassificationReport:
        """Paper-format report of the frozen detector on labelled records."""
        self._check_fitted()
        return evaluate_model(
            self._model,
            self._features_of(records),
            self._truth(records, labels),
            labels=self.class_labels,
        )

    def feature_gains(self) -> List[Tuple[str, float]]:
        """(name, information gain) pairs of the selected features
        (Tables 2 and 5)."""
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
        """Honest k-fold CV report (balancing inside each training fold).

        The detector must already be fitted (it supplies the selected
        feature subset); the CV then refits fresh forests per fold so
        no test instance is ever seen in training — the protocol used
        during model development (§4).
        """
        from repro.ml.balance import oversample
        from repro.ml.crossval import cross_validate

        self._check_fitted()
        return cross_validate(
            self._model_factory,
            self._features_of(records),
            self._truth(records, labels),
            n_splits=n_splits,
            random_state=self.random_state,
            balance=lambda Xb, yb: oversample(
                Xb, yb, random_state=self.random_state
            ),
            labels=list(self.class_labels),
            n_jobs=self.n_jobs,
        )
