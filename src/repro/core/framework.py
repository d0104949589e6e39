"""The unified QoE measurement framework.

Bundles the three detectors into the deployment shape the paper
describes: train once on a cleartext corpus where URI ground truth is
available, then apply the frozen models to any (typically encrypted)
traffic — "the trained models can be then directly applied on the
passively monitored traffic and report issues in real time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datasets.schema import SessionRecord
from repro.obs import get_registry, trace

from .labeling import has_variation
from .representation import AvgRepresentationDetector
from .stall import StallDetector
from .switching import SwitchDetector

__all__ = ["QoEFramework", "SessionDiagnosis"]

_REG = get_registry()
_MODEL_PREDICTIONS = _REG.counter(
    "repro_ml_predictions_total",
    "Sessions scored per detector inside the QoE framework.",
    labelnames=("model",),
)
_DIAGNOSES = _REG.counter(
    "repro_core_diagnoses_total",
    "Full session diagnoses produced by QoEFramework.diagnose.",
)


@dataclass(frozen=True)
class SessionDiagnosis:
    """Per-session output of the framework."""

    session_id: str
    stall_class: str
    representation_class: Optional[str]
    has_quality_switches: Optional[bool]


class QoEFramework:
    """Train-once / apply-anywhere bundle of the three QoE detectors.

    Parameters
    ----------
    random_state:
        Seed shared by the two Random-Forest detectors.
    n_estimators:
        Forest size for both classifiers.
    n_jobs:
        Worker processes shared by the two forest detectors
        (``None``/1 serial, ``-1`` all cores); diagnoses are identical
        for any value.
    """

    def __init__(
        self,
        random_state: int = 0,
        n_estimators: int = 40,
        n_jobs: Optional[int] = None,
    ) -> None:
        self.stall = StallDetector(
            n_estimators=n_estimators, random_state=random_state, n_jobs=n_jobs
        )
        self.representation = AvgRepresentationDetector(
            n_estimators=n_estimators, random_state=random_state, n_jobs=n_jobs
        )
        self.switching = SwitchDetector()
        self._fitted = False

    def fit(
        self,
        stall_records: Sequence[SessionRecord],
        adaptive_records: Optional[Sequence[SessionRecord]] = None,
        calibrate_switch_threshold: bool = True,
    ) -> "QoEFramework":
        """Train all detectors from cleartext ground truth.

        ``stall_records`` is the full corpus (§4.1 uses everything);
        ``adaptive_records`` the HAS subset for the representation and
        switching methods (defaults to filtering ``stall_records``).
        """
        if adaptive_records is None:
            adaptive_records = [
                r for r in stall_records if r.kind == "adaptive"
            ]
        with trace("core.framework_fit") as span:
            span.add("stall_records", len(stall_records))
            span.add("adaptive_records", len(adaptive_records))
            self.stall.fit(stall_records)
            if len(adaptive_records) > 0:
                self.representation.fit(adaptive_records)
                if calibrate_switch_threshold:
                    truth = np.array(
                        [has_variation(r) for r in adaptive_records]
                    )
                    if truth.any() and not truth.all():
                        self.switching.calibrate(adaptive_records, truth)
        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("framework is not fitted; call fit() first")

    def diagnose(
        self,
        records: Sequence[SessionRecord],
        adaptive: bool = True,
    ) -> list:
        """Diagnose sessions with no ground truth required.

        ``adaptive`` controls whether the HAS-only detectors run (on
        encrypted traffic the operator knows the service's delivery
        mode, not the per-session one).
        """
        self._check_fitted()
        with trace("core.framework_diagnose") as span:
            span.add("sessions", len(records))
            stall_classes = self.stall.predict(records)
            _MODEL_PREDICTIONS.labels(model="stall").inc(len(records))
            if adaptive and self.representation.fitted:
                rep_classes = self.representation.predict(records)
                switches = self.switching.predict(records)
                _MODEL_PREDICTIONS.labels(model="representation").inc(
                    len(records)
                )
                _MODEL_PREDICTIONS.labels(model="switching").inc(len(records))
            else:
                rep_classes = [None] * len(records)
                switches = [None] * len(records)
        _DIAGNOSES.inc(len(records))
        return [
            SessionDiagnosis(
                session_id=record.session_id,
                stall_class=str(stall_class),
                representation_class=(
                    str(rep) if rep is not None else None
                ),
                has_quality_switches=(
                    bool(sw) if sw is not None else None
                ),
            )
            for record, stall_class, rep, sw in zip(
                records, stall_classes, rep_classes, switches
            )
        ]
