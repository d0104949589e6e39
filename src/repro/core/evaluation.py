"""Training/evaluation protocol used throughout §4 and §5.

§4.1: "In order to avoid biasing the results during the test phase, we
balance the number of instances among the three classes before training
the classifier.  The instances in the classes are then restored to
their original numbers for testing."

§5: "the trained model [...] is directly tested with encrypted traffic"
— train once on the cleartext corpus, evaluate unchanged on the
encrypted one.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.ml.balance import balanced_indices
from repro.ml.metrics import ClassificationReport, classification_report

__all__ = ["balanced_train_full_test", "evaluate_model"]


def balanced_train_full_test(
    model_factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    labels: Optional[Sequence] = None,
    random_state=None,
) -> Tuple[object, ClassificationReport]:
    """Balance classes, train, then test on the full unbalanced set.

    Balancing oversamples (:func:`repro.ml.balance.balanced_indices`):
    minority instances are replicated up to the majority size, so every
    majority-class session stays in training.

    Returns the fitted model and the paper-format report.  ``labels``
    fixes the class order of the report's rows/matrix.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    idx = balanced_indices(y, random_state=random_state)
    model = model_factory()
    model.fit(X[idx], y[idx])
    predictions = model.predict(X)
    return model, classification_report(y, predictions, labels=labels)


def evaluate_model(
    model,
    X: np.ndarray,
    y: np.ndarray,
    labels: Optional[Sequence] = None,
) -> ClassificationReport:
    """Apply an already-trained model to a new dataset (the §5 protocol)."""
    predictions = model.predict(np.asarray(X, dtype=float))
    return classification_report(y, predictions, labels=labels)
