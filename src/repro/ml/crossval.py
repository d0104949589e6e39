"""Cross-validation and train/test-split helpers.

The paper uses 10-fold cross-validation during model development
(§4) and a balanced-train / full-test protocol for the reported
tables.  This module provides stratified k-fold index generation and a
CV runner that aggregates predictions across folds so a single
:func:`repro.ml.metrics.classification_report` can be produced.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import trace

from .metrics import ClassificationReport, classification_report
from .parallel import effective_n_jobs, run_tasks

__all__ = [
    "stratified_kfold",
    "train_test_split",
    "cross_validate",
    "clamped_cross_validate",
]


def stratified_kfold(
    y: np.ndarray,
    n_splits: int = 10,
    shuffle: bool = True,
    random_state=None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) pairs with per-class proportions kept.

    Each class's indices are dealt round-robin into the folds, so every
    fold receives ``floor`` or ``ceil`` of the class share — the same
    guarantee scikit-learn's ``StratifiedKFold`` gives.
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    smallest = np.bincount(np.unique(y, return_inverse=True)[1]).min()
    if smallest < n_splits:
        raise ValueError(
            f"n_splits={n_splits} > smallest class size {smallest}"
        )
    yield from _dealt_folds(y, n_splits, shuffle, random_state)


def _dealt_folds(y, n_splits, shuffle, random_state):
    """Stratified round-robin dealing, without the class-size check."""
    classes, y_enc = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(random_state)
    fold_of = np.empty(y.size, dtype=np.int64)
    for c in range(classes.size):
        idx = np.nonzero(y_enc == c)[0]
        if shuffle:
            idx = rng.permutation(idx)
        fold_of[idx] = np.arange(idx.size) % n_splits
    all_idx = np.arange(y.size)
    for fold in range(n_splits):
        test = all_idx[fold_of == fold]
        train = all_idx[fold_of != fold]
        yield train, test


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.3,
    stratify: bool = True,
    random_state=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split into (X_train, X_test, y_train, y_test).

    With ``stratify`` the class proportions are preserved in both parts.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y have inconsistent lengths")
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    rng = np.random.default_rng(random_state)
    n = y.size
    test_mask = np.zeros(n, dtype=bool)
    if stratify:
        _, y_enc = np.unique(y, return_inverse=True)
        for c in np.unique(y_enc):
            idx = rng.permutation(np.nonzero(y_enc == c)[0])
            # Cap at size-1 so every class keeps >= 1 training sample; a
            # singleton class goes entirely to training (n_test = 0)
            # rather than vanishing from the training partition.
            n_test = min(
                max(1, int(round(test_size * idx.size))), idx.size - 1
            )
            test_mask[idx[:n_test]] = True
    else:
        idx = rng.permutation(n)
        test_mask[idx[: max(1, int(round(test_size * n)))]] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


def _fit_predict_fold(payload):
    """Fit one fold's model and score its test partition.

    Module-level so it pickles into process workers; the model instance
    (not the factory) ships with the payload, which keeps lambdas and
    closures usable as ``model_factory``.
    """
    model, X_train, y_train, X_test = payload
    model.fit(X_train, y_train)
    return model.predict(X_test)


def cross_validate(
    model_factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 10,
    random_state=None,
    balance: Optional[Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None,
    labels: Optional[List] = None,
    n_jobs: Optional[int] = 1,
) -> ClassificationReport:
    """k-fold CV; returns one report over the pooled fold predictions.

    ``model_factory`` builds a fresh estimator per fold (anything with
    ``fit``/``predict``).  ``balance`` optionally rebalances each fold's
    *training* partition only — matching the paper's "balance for
    training, restore originals for testing" protocol.  Folds are
    independent, so ``n_jobs > 1`` fits them in parallel worker
    processes; the pooled report is identical for any ``n_jobs``.
    """
    y = np.asarray(y)
    folds = list(
        stratified_kfold(y, n_splits=n_splits, random_state=random_state)
    )
    return _run_folds(model_factory, X, y, folds, balance, labels, n_jobs)


def clamped_cross_validate(
    model_factory: Callable[[], object],
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 10,
    random_state=None,
    balance: Optional[Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None,
    labels: Optional[List] = None,
    n_jobs: Optional[int] = 1,
) -> ClassificationReport:
    """:func:`cross_validate` with the fold count fitted to ``y``.

    The detectors' CV asks for ``n_splits`` folds but never more than
    the smallest class has members, and never fewer than two.  A class
    with a single member cannot be both trained on and tested; it is
    dealt like any other class, so its one sample is tested in fold 0
    by a model that never saw the class (an honest miss), and trains
    the model of fold 1.  Every sample is still predicted exactly once.
    When the smallest class has two or more members this is exactly
    ``cross_validate(..., n_splits=max(2, min(n_splits, smallest)))``.
    """
    y = np.asarray(y)
    smallest = int(np.bincount(np.unique(y, return_inverse=True)[1]).min())
    splits = max(2, min(n_splits, smallest))
    folds = list(_dealt_folds(y, splits, True, random_state))
    return _run_folds(model_factory, X, y, folds, balance, labels, n_jobs)


def _run_folds(model_factory, X, y, folds, balance, labels, n_jobs):
    """Fit and score every (train, test) fold; one pooled report."""
    X = np.asarray(X, dtype=float)
    predictions = np.empty(y.shape, dtype=y.dtype)
    payloads = []
    for train_idx, test_idx in folds:
        X_train, y_train = X[train_idx], y[train_idx]
        if balance is not None:
            X_train, y_train = balance(X_train, y_train)
        model = model_factory()
        if effective_n_jobs(n_jobs) > 1 and getattr(model, "n_jobs", None):
            # One pool level is enough: fold workers fit their forests
            # serially (results are n_jobs-invariant anyway).
            model.n_jobs = 1
        payloads.append((model, X_train, y_train, X[test_idx]))
    with trace("ml.crossval") as span:
        fold_predictions = run_tasks(
            _fit_predict_fold, payloads, n_jobs=n_jobs, task="cv_fold"
        )
        span.add("folds", len(folds))
    for (_, test_idx), fold_pred in zip(folds, fold_predictions):
        predictions[test_idx] = fold_pred
    return classification_report(y, predictions, labels=labels)
