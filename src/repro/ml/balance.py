"""Class balancing used before training the paper's classifiers.

§4.1: "we balance the number of instances among the three classes
before training the classifier.  The instances in the classes are then
restored to their original numbers for testing."

The protocol here is random oversampling with replacement to the
majority-class size: every majority-class instance stays in training,
which matters because rare sub-populations (e.g. the 3% adaptive
sessions) would be nearly absent from a training set cut down to the
minority-class size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["oversample", "balanced_indices"]


def balanced_indices(y: np.ndarray, random_state=None) -> np.ndarray:
    """Indices selecting a class-balanced superset of ``y``.

    Every class gets ``max(class sizes)`` indices: a class of that size
    is drawn without replacement (each member once, permuted), a smaller
    one with replacement.  The returned indices are shuffled.
    """
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("cannot balance an empty label vector")
    rng = np.random.default_rng(random_state)
    classes, counts = np.unique(y, return_counts=True)
    target = int(counts.max())
    picks = []
    for c in classes:
        idx = np.nonzero(y == c)[0]
        picks.append(rng.choice(idx, size=target, replace=idx.size < target))
    out = np.concatenate(picks)
    return rng.permutation(out)


def oversample(
    X: np.ndarray, y: np.ndarray, random_state=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Random oversampling of (X, y) to the majority-class size."""
    idx = balanced_indices(y, random_state=random_state)
    return np.asarray(X)[idx], np.asarray(y)[idx]
