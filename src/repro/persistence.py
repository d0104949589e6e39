"""Model persistence: save and load trained detectors as JSON.

An operator trains the framework once, while cleartext ground truth is
still available, and then runs the frozen models for months (§8's
deployment story).  That requires durable model storage.  This module
serialises every fitted component — forests, trees, selected feature
subsets, the calibrated switch threshold — to plain JSON: portable,
diff-able and free of pickle's code-execution hazards.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.features import get_model_spec
from repro.core.framework import QoEFramework
from repro.faults.retry import retry_with_backoff
from repro.core.representation import AvgRepresentationDetector
from repro.core.stall import StallDetector
from repro.core.switching import SwitchDetector
from repro.ml.forest import RandomForestClassifier
from repro.ml.selection import SelectionResult
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "forest_to_dict",
    "forest_from_dict",
    "framework_to_dict",
    "framework_from_dict",
    "payload_checksum",
    "save_framework",
    "load_framework",
]

#: Key under which :func:`save_framework` embeds the payload checksum.
#: Stored alongside the payload (not in a wrapper object) so files
#: written by older versions — which have no checksum — still load.
_CHECKSUM_KEY = "payload_sha256"

_FORMAT_VERSION = 2

#: Versions this module can still load.  Version 1 payloads lack the
#: per-tree/forest hyperparameters (defaults are substituted) and use
#: the ambiguous ``"num"`` class kind.
_READABLE_VERSIONS = (1, _FORMAT_VERSION)


def _classes_to_json(classes: np.ndarray) -> Dict:
    if classes.dtype.kind in ("U", "S", "O"):
        kind = "str"
    elif classes.dtype.kind in ("i", "u", "b"):
        kind = "int"
    else:
        kind = "float"
    values = [
        str(c) if kind == "str" else (int(c) if kind == "int" else float(c))
        for c in classes.tolist()
    ]
    return {"kind": kind, "values": values}


def _classes_from_json(payload: Dict) -> np.ndarray:
    kind = payload["kind"]
    if kind == "str":
        return np.array([str(v) for v in payload["values"]])
    if kind == "int":
        return np.array(payload["values"], dtype=np.int64)
    if kind == "float":
        return np.array(payload["values"], dtype=float)
    # Legacy "num" (format version 1) lost the original dtype; fall back
    # to the old guess — integral values were integer labels.
    values = np.array(payload["values"], dtype=float)
    if np.all(values == np.round(values)):
        return values.astype(np.int64)
    return values


def _tree_to_dict(tree: DecisionTreeClassifier) -> Dict:
    return {
        "feature": tree._feature.tolist(),
        "threshold": tree._threshold.tolist(),
        "left": tree._left.tolist(),
        "right": tree._right.tolist(),
        "value": tree._value.tolist(),
        "classes": _classes_to_json(tree.classes_),
        "n_features": tree.n_features_,
        "criterion": tree.criterion,
        "max_depth": tree.max_depth,
        "min_samples_split": tree.min_samples_split,
        "min_samples_leaf": tree.min_samples_leaf,
        "max_features": tree.max_features,
    }


def _tree_from_dict(payload: Dict) -> DecisionTreeClassifier:
    tree = DecisionTreeClassifier(
        criterion=payload["criterion"],
        max_depth=payload.get("max_depth"),
        min_samples_split=payload.get("min_samples_split", 2),
        min_samples_leaf=payload.get("min_samples_leaf", 1),
        max_features=payload.get("max_features"),
    )
    tree._feature = np.asarray(payload["feature"], dtype=np.int64)
    tree._threshold = np.asarray(payload["threshold"], dtype=float)
    tree._left = np.asarray(payload["left"], dtype=np.int64)
    tree._right = np.asarray(payload["right"], dtype=np.int64)
    tree._value = np.asarray(payload["value"], dtype=float)
    tree.classes_ = _classes_from_json(payload["classes"])
    tree.n_classes_ = tree.classes_.size
    tree.n_features_ = int(payload["n_features"])
    return tree


def forest_to_dict(forest: RandomForestClassifier) -> Dict:
    """Serialise a fitted forest (structure *and* hyperparameters).

    The hyperparameters matter beyond bookkeeping: a reloaded forest
    that is ``fit()`` again must grow the same kind of ensemble the
    original did, not silently revert to constructor defaults.
    ``n_jobs`` is deliberately not persisted — it is an execution
    setting of the host machine, not part of the model.
    """
    if not hasattr(forest, "estimators_"):
        raise ValueError("forest is not fitted")
    random_state = forest.random_state
    return {
        "classes": _classes_to_json(forest.classes_),
        "n_features": forest.n_features_,
        "n_estimators": forest.n_estimators,
        "criterion": forest.criterion,
        "max_depth": forest.max_depth,
        "min_samples_split": forest.min_samples_split,
        "min_samples_leaf": forest.min_samples_leaf,
        "max_features": forest.max_features,
        "bootstrap": forest.bootstrap,
        "oob_score": forest.oob_score,
        # Generators/SeedSequences are process state, not JSON; only
        # int/None seeds survive a round-trip.
        "random_state": (
            int(random_state)
            if isinstance(random_state, (int, np.integer))
            else None
        ),
        "trees": [_tree_to_dict(tree) for tree in forest.estimators_],
    }


def forest_from_dict(payload: Dict) -> RandomForestClassifier:
    """Rebuild a fitted forest.

    Tolerates format-version-1 payloads, which carried no
    hyperparameters: constructor defaults are substituted there.
    """
    forest = RandomForestClassifier(
        n_estimators=payload["n_estimators"],
        criterion=payload.get("criterion", "gini"),
        max_depth=payload.get("max_depth"),
        min_samples_split=payload.get("min_samples_split", 2),
        min_samples_leaf=payload.get("min_samples_leaf", 1),
        max_features=payload.get("max_features", "sqrt"),
        bootstrap=payload.get("bootstrap", True),
        oob_score=payload.get("oob_score", False),
        random_state=payload.get("random_state"),
    )
    forest.classes_ = _classes_from_json(payload["classes"])
    forest.n_features_ = int(payload["n_features"])
    forest.estimators_ = [_tree_from_dict(t) for t in payload["trees"]]
    return forest


def _detector_to_dict(detector) -> Dict:
    if not detector.fitted:
        raise ValueError("detector is not fitted")
    result = detector.selection_result_
    return {
        "selected_indices": list(detector.selected_indices_),
        "selected_names": list(detector.selected_names_),
        # The selection result's own order (a ranking for "none"), which
        # need not be the column order of the two lists above.
        "selection_names": list(result.names),
        "selection_scores": list(result.scores),
        "n_estimators": detector.n_estimators,
        "random_state": detector.random_state,
        "model": forest_to_dict(detector._model),
    }


def _check_selection(indices, names, result_names, scores, forest, cls) -> None:
    """Reject a detector section its class's feature model cannot serve.

    A section that passes builds exactly the columns its forest was
    fitted on: every index is an in-range ``int``, there is one per
    forest feature, each name belongs to its index, and the selection
    result scores exactly those names, one gain each — so a file
    written by a build with another feature layout is refused here
    rather than at the first diagnosis.
    """
    feature_names = get_model_spec(cls.feature_model).feature_names
    width = len(feature_names)
    for index in indices:
        if type(index) is not int or not 0 <= index < width:
            raise ValueError(
                f"{cls.feature_model} selection index {index!r} is not a "
                f"column of the {width} {cls.feature_model} features"
            )
    if len(indices) != forest.n_features_:
        raise ValueError(
            f"{cls.feature_model} selection has {len(indices)} indices but "
            f"its forest was fitted on {forest.n_features_} features"
        )
    for what, values in (
        ("names", names),
        ("result names", result_names),
        ("scores", scores),
    ):
        if len(values) != len(indices):
            raise ValueError(
                f"{cls.feature_model} selection has {len(values)} {what} "
                f"for {len(indices)} indices"
            )
    for index, name in zip(indices, names):
        if name != feature_names[index]:
            raise ValueError(
                f"{cls.feature_model} selection names column {index} "
                f"{name!r}, but this build's feature {index} is "
                f"{feature_names[index]!r}"
            )
    if sorted(result_names) != sorted(names):
        raise ValueError(
            f"{cls.feature_model} selection result scores names other "
            "than its selected columns"
        )


def _detector_from_dict(payload: Dict, cls):
    indices = list(payload["selected_indices"])
    names = list(payload["selected_names"])
    # Files written before "selection_names" existed stored the result
    # in column order; that holds for every mode but "none".
    result_names = list(payload.get("selection_names", names))
    scores = list(payload["selection_scores"])
    forest = forest_from_dict(payload["model"])
    _check_selection(indices, names, result_names, scores, forest, cls)
    detector = cls(
        n_estimators=payload["n_estimators"],
        random_state=payload["random_state"],
    )
    detector.selected_indices_ = indices
    detector.selected_names_ = names
    column = dict(zip(names, indices))
    detector.selection_result_ = SelectionResult(
        selected=[column[name] for name in result_names],
        scores=scores,
        names=result_names,
    )
    detector._model = forest
    return detector


def framework_to_dict(framework: QoEFramework) -> Dict:
    """Serialise a fitted framework (all three detectors)."""
    if not framework._fitted:
        raise ValueError("framework is not fitted")
    payload = {
        "format_version": _FORMAT_VERSION,
        "stall": _detector_to_dict(framework.stall),
        "switching": {
            "threshold": framework.switching.threshold,
            "startup_skip_s": framework.switching.startup_skip_s,
            "size_unit_bytes": framework.switching.size_unit_bytes,
        },
    }
    if framework.representation.fitted:
        payload["representation"] = _detector_to_dict(framework.representation)
    return payload


def framework_from_dict(payload: Dict) -> QoEFramework:
    """Rebuild a fitted framework.

    Raises :class:`ValueError` (never ``KeyError``/``TypeError``) on
    malformed payloads, so callers — in particular the hot-reload path
    in :mod:`repro.serving.models` — can treat every corruption mode
    uniformly.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"model payload must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format_version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported model format: {payload.get('format_version')!r}"
        )
    missing = [key for key in ("stall", "switching") if key not in payload]
    if missing:
        raise ValueError(
            f"model payload is missing required section(s): {missing} "
            "(file truncated or not a saved framework?)"
        )
    framework = QoEFramework()
    try:
        framework.stall = _detector_from_dict(payload["stall"], StallDetector)
        if "representation" in payload:
            framework.representation = _detector_from_dict(
                payload["representation"], AvgRepresentationDetector
            )
        switching = payload["switching"]
        framework.switching = SwitchDetector(
            threshold=switching["threshold"],
            startup_skip_s=switching["startup_skip_s"],
            size_unit_bytes=switching["size_unit_bytes"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"corrupt model payload: {exc!r}") from exc
    framework._fitted = True
    return framework


def payload_checksum(payload: Dict) -> str:
    """SHA-256 over the canonical JSON form of a model payload.

    The checksum key itself is excluded, so the digest of a loaded file
    can be recomputed and compared against the embedded value.
    """
    body = {k: v for k, v in payload.items() if k != _CHECKSUM_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_framework(framework: QoEFramework, path: Union[str, Path]) -> None:
    """Write a fitted framework to a JSON file (checksummed, atomic).

    The payload lands in a same-directory temp file first and is moved
    into place with :func:`os.replace` — a reader (notably the serving
    layer's hot-reload) can never observe a half-written model, only
    the old file or the new one.  Transient I/O errors are retried
    with backoff before propagating.
    """
    payload = framework_to_dict(framework)
    payload[_CHECKSUM_KEY] = payload_checksum(payload)
    body = json.dumps(payload)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")

    def _write() -> None:
        try:
            tmp.write_text(body)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    retry_with_backoff(_write, retry_on=(OSError,), op="save_framework")


def load_framework(path: Union[str, Path]) -> QoEFramework:
    """Load a framework previously written by :func:`save_framework`.

    Validates three layers before trusting the blob — JSON
    well-formedness (truncated files), the embedded SHA-256 payload
    checksum (bit rot, partial overwrites), and the model format
    (version + required sections) — raising :class:`ValueError` with
    the failing layer named.  Files written before checksums existed
    load fine; only a *present-but-wrong* digest is rejected.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"model file {path} is not valid JSON (truncated or corrupt "
            f"write?): {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"model file {path} must hold a JSON object, got "
            f"{type(payload).__name__}"
        )
    stored = payload.get(_CHECKSUM_KEY)
    if stored is not None:
        actual = payload_checksum(payload)
        if stored != actual:
            raise ValueError(
                f"model file {path} failed its checksum "
                f"(stored {stored[:12]}…, computed {actual[:12]}…): "
                "file corrupted or hand-edited"
            )
    return framework_from_dict(payload)
