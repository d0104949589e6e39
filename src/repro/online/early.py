"""Early (partial-session) diagnosis with confidence and convergence.

Dubin et al. (PAPERS.md) show representation class is predictable in
real time from the first chunks; Schmitt/Bronzino et al. make the
deployment case that operators need in-session inference.  This module
closes that gap for the repro stack: :class:`EarlyPredictor` turns a
:class:`~repro.online.snapshot.StreamingSessionState` (a view of the
open session's chunk prefix) into a *provisional*
:class:`ProvisionalDiagnosis` after ``after_chunks`` chunks, long
before the tracker closes the session.  Its feature vectors are the
batch pipeline's rows on that prefix, at any session length.

**Confidence semantics.**  Each provisional label carries the forest's
vote agreement (the ``predict_proba`` mass on the winning class — the
fraction of trees voting for it) for the stall model and, when the
framework is adaptive, the representation model.  The combined
``confidence`` multiplies the weaker of those agreements by a
session-age ramp ``min(1, n_chunks / age_full_chunks)``: a unanimous
forest on 4 chunks is still only 4/20 confident, because the features
it voted on summarise a sliver of the session.  Confidence therefore
*tightens monotonically in session age* for a fixed vote split, and
reaches the raw vote agreement once the session is mature.

**Convergence accounting.**  The predictor remembers its latest
provisional labels per open session; when the session closes,
:meth:`EarlyPredictor.note_final` compares them against the final
diagnosis and folds the outcome into a :class:`ConvergenceReport`
(provisional/final agreement rates, label flip rate, chunks-to-stable
distribution) plus the ``repro_online_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.preparation import subscriber_of
from repro.datasets.schema import SessionRecord
from repro.obs import get_registry
from repro.online.snapshot import StreamingSessionState

__all__ = ["ProvisionalDiagnosis", "ConvergenceReport", "EarlyPredictor"]

_REG = get_registry()
_PROVISIONAL = _REG.counter(
    "repro_online_provisional_total",
    "Provisional (partial-session) predictions emitted.",
    labelnames=("model",),
)
_FLIPS = _REG.counter(
    "repro_online_flips_total",
    "Provisional label changes between consecutive predictions.",
    labelnames=("model",),
)
_FINAL_AGREEMENT = _REG.counter(
    "repro_online_final_agreement_total",
    "Last provisional label vs final diagnosis comparisons.",
    labelnames=("model", "agree"),
)
_CHUNKS_TO_STABLE = _REG.histogram(
    "repro_online_chunks_to_stable",
    "Chunk count at which the provisional stall label last changed.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)
#: Process-wide: each predictor applies its own changes as deltas, so
#: the gauge reads the total over every shard's predictor.
_TRACKED = _REG.gauge(
    "repro_online_tracked_sessions",
    "Open sessions with at least one provisional prediction.",
)
# Pre-create the labelled children so the families appear in the
# metrics exposition even before the first flip/agreement event.
for _model in ("stall", "representation"):
    _PROVISIONAL.labels(model=_model)
    _FLIPS.labels(model=_model)
    for _agree in ("yes", "no"):
        _FINAL_AGREEMENT.labels(model=_model, agree=_agree)
del _model, _agree


@dataclass(frozen=True)
class ProvisionalDiagnosis:
    """A partial-session diagnosis, emitted while the session is open.

    ``session_id`` is the id the session *will* carry if it closes with
    enough chunks (the tracker's next per-subscriber sequence number).
    ``representation_class`` is None for non-adaptive frameworks,
    mirroring :class:`~repro.core.framework.SessionDiagnosis`.
    """

    session_id: str
    subscriber_id: str
    n_chunks: int
    stall_class: str
    stall_confidence: float
    representation_class: Optional[str]
    representation_confidence: Optional[float]
    confidence: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Provisional-vs-final outcome over closed sessions.

    ``sessions`` counts closed sessions that had at least one
    provisional prediction; agreement compares the *last* provisional
    label before close against the final diagnosis.
    """

    sessions: int = 0
    predictions: int = 0
    stall_agreements: int = 0
    representation_comparisons: int = 0
    representation_agreements: int = 0
    stall_flips: int = 0
    representation_flips: int = 0
    chunks_to_stable: Tuple[int, ...] = ()

    @property
    def stall_agreement_rate(self) -> float:
        return self.stall_agreements / self.sessions if self.sessions else 0.0

    @property
    def representation_agreement_rate(self) -> float:
        if not self.representation_comparisons:
            return 0.0
        return self.representation_agreements / self.representation_comparisons

    @property
    def flip_rate(self) -> float:
        """Label changes per provisional prediction (both models)."""
        if not self.predictions:
            return 0.0
        return (self.stall_flips + self.representation_flips) / self.predictions

    @property
    def median_chunks_to_stable(self) -> float:
        if not self.chunks_to_stable:
            return 0.0
        return float(np.median(np.array(self.chunks_to_stable, dtype=float)))

    def merge(self, other: "ConvergenceReport") -> "ConvergenceReport":
        """Fold another shard's report into this one (commutative)."""
        return ConvergenceReport(
            sessions=self.sessions + other.sessions,
            predictions=self.predictions + other.predictions,
            stall_agreements=self.stall_agreements + other.stall_agreements,
            representation_comparisons=(
                self.representation_comparisons
                + other.representation_comparisons
            ),
            representation_agreements=(
                self.representation_agreements
                + other.representation_agreements
            ),
            stall_flips=self.stall_flips + other.stall_flips,
            representation_flips=(
                self.representation_flips + other.representation_flips
            ),
            chunks_to_stable=self.chunks_to_stable + other.chunks_to_stable,
        )

    def describe(self) -> str:
        return (
            f"sessions={self.sessions} predictions={self.predictions} "
            f"stall_agreement={self.stall_agreement_rate:.3f} "
            f"representation_agreement="
            f"{self.representation_agreement_rate:.3f} "
            f"flip_rate={self.flip_rate:.3f} "
            f"median_chunks_to_stable={self.median_chunks_to_stable:.1f}"
        )


#: The summed count fields of :class:`ConvergenceReport`.
_REPORT_COUNTS = tuple(
    f.name for f in fields(ConvergenceReport) if f.name != "chunks_to_stable"
)


@dataclass
class _SessionTrack:
    """Per-open-session provisional state."""

    session_id: str
    n_last: int = 0
    predictions: int = 0
    last_change_chunk: int = 0
    stall_class: Optional[str] = None
    representation_class: Optional[str] = None
    stall_flips: int = 0
    representation_flips: int = 0


class EarlyPredictor:
    """Emit provisional diagnoses on open sessions after ``k`` chunks.

    Parameters
    ----------
    framework:
        Anything exposing ``.stall`` / ``.representation`` detectors
        (a :class:`~repro.core.framework.QoEFramework`, or a shim).
        Reassignable — the serving layer syncs it on model hot-reload.
    after_chunks:
        Minimum chunk count before the first provisional prediction.
    min_confidence:
        Predictions below this combined confidence are still tracked
        for convergence accounting but not *emitted* to callers.
    age_full_chunks:
        Session age (in chunks) at which the age ramp saturates and
        confidence equals the raw forest vote agreement.
    predict_every:
        Re-predict every this-many chunks past ``after_chunks`` (1 =
        on every new chunk).
    """

    def __init__(
        self,
        framework,
        after_chunks: int = 4,
        min_confidence: float = 0.0,
        age_full_chunks: int = 20,
        predict_every: int = 1,
    ) -> None:
        if after_chunks < 1:
            raise ValueError("after_chunks must be >= 1")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        if age_full_chunks < 1:
            raise ValueError("age_full_chunks must be >= 1")
        if predict_every < 1:
            raise ValueError("predict_every must be >= 1")
        self.framework = framework
        self.after_chunks = after_chunks
        self.min_confidence = min_confidence
        self.age_full_chunks = age_full_chunks
        self.predict_every = predict_every
        self._tracks: Dict[str, _SessionTrack] = {}
        #: Tracks whose session moved on before the final diagnosis
        #: arrived (the serving layer micro-batches diagnoses, so a
        #: session's close can reach :meth:`note_final` after its
        #: successor started predicting), keyed by session id and
        #: consumed there.  Bounded: sessions that never get a final
        #: diagnosis (discarded by the tracker) are evicted oldest-first.
        self._finished: Dict[str, _SessionTrack] = {}
        #: Convergence totals over closed sessions, accumulated in
        #: place; :meth:`report` freezes them.
        self._totals = dict.fromkeys(_REPORT_COUNTS, 0)
        self._chunks_to_stable: List[int] = []

    # -- prediction ----------------------------------------------------

    def _vote(self, detector, vector: np.ndarray) -> Tuple[str, float]:
        """(label, vote agreement) via the same argmax as ``predict``.

        ``vector`` holds the detector's selected columns only.
        """
        proba = detector._model.predict_proba(vector.reshape(1, -1))[0]
        winner = int(np.argmax(proba))
        label = detector._model.classes_[winner]
        if hasattr(label, "item"):
            label = label.item()
        return label, float(proba[winner])

    def predict_partial(
        self,
        state: StreamingSessionState,
        session_id: str,
        subscriber_id: str,
    ) -> ProvisionalDiagnosis:
        """Diagnose the session-so-far (no gating, no tracking)."""
        stall = self.framework.stall
        stall_class, stall_conf = self._vote(
            stall, state.stall_vector(stall.selected_indices_)
        )
        representation = self.framework.representation
        rep_class: Optional[str] = None
        rep_conf: Optional[float] = None
        if representation.fitted:
            rep_class, rep_conf = self._vote(
                representation,
                state.representation_vector(
                    representation.selected_indices_
                ),
            )
        ramp = min(1.0, state.n_chunks / self.age_full_chunks)
        agreement = stall_conf if rep_conf is None else min(stall_conf, rep_conf)
        return ProvisionalDiagnosis(
            session_id=session_id,
            subscriber_id=subscriber_id,
            n_chunks=state.n_chunks,
            stall_class=stall_class,
            stall_confidence=stall_conf,
            representation_class=rep_class,
            representation_confidence=rep_conf,
            confidence=ramp * agreement,
        )

    # -- streaming interface -------------------------------------------

    def observe(
        self,
        state: StreamingSessionState,
        session_id: str,
        subscriber_id: str,
    ) -> Optional[ProvisionalDiagnosis]:
        """Maybe predict on a just-updated open session.

        Gated on the chunk count reaching ``after_chunks``, the count
        having *grown* since the last prediction (signalling entries
        update sessions without adding chunks), and the
        ``predict_every`` cadence.  Returns the provisional diagnosis
        when one is emitted (confidence at or above the threshold),
        else None.
        """
        n = state.n_chunks
        if n < self.after_chunks:
            return None
        track = self._tracks.get(subscriber_id)
        if track is not None and track.session_id != session_id:
            # The tracker moved on to a new session for this subscriber
            # before we saw the previous session's final diagnosis:
            # retire the old track where note_final can still find it.
            self._tracks.pop(subscriber_id, None)
            _TRACKED.dec()
            self._finished[track.session_id] = track
            while len(self._finished) > 1024:
                self._finished.pop(next(iter(self._finished)))
            track = None
        if track is not None and n <= track.n_last:
            return None
        if (n - self.after_chunks) % self.predict_every != 0:
            return None
        diagnosis = self.predict_partial(state, session_id, subscriber_id)
        if track is None:
            track = _SessionTrack(session_id=session_id)
            self._tracks[subscriber_id] = track
            _TRACKED.inc()
        track.n_last = n
        track.predictions += 1
        if track.stall_class is None:
            track.last_change_chunk = n
        elif track.stall_class != diagnosis.stall_class:
            track.stall_flips += 1
            track.last_change_chunk = n
            _FLIPS.labels(model="stall").inc()
        if (
            track.representation_class is not None
            and diagnosis.representation_class is not None
            and track.representation_class != diagnosis.representation_class
        ):
            track.representation_flips += 1
            track.last_change_chunk = n
            _FLIPS.labels(model="representation").inc()
        track.stall_class = diagnosis.stall_class
        track.representation_class = diagnosis.representation_class
        _PROVISIONAL.labels(model="stall").inc()
        if diagnosis.representation_class is not None:
            _PROVISIONAL.labels(model="representation").inc()
        if diagnosis.confidence < self.min_confidence:
            return None
        return diagnosis

    def note_final(self, record: SessionRecord, diagnosis) -> None:
        """Fold a closed session's final diagnosis into the report.

        ``diagnosis`` is the final
        :class:`~repro.core.framework.SessionDiagnosis`.  Sessions
        that never reached a provisional prediction are ignored.
        """
        subscriber = subscriber_of(record.session_id)
        track = self._tracks.get(subscriber)
        if track is not None and track.session_id == diagnosis.session_id:
            self._tracks.pop(subscriber)
            _TRACKED.dec()
        else:
            # A late (micro-batched) final: the live track — if any —
            # already belongs to the next session and must keep
            # accumulating; look for the retired one instead.
            track = self._finished.pop(diagnosis.session_id, None)
            if track is None:
                return
        if record.n_chunks < track.n_last:
            # Same id but fewer chunks than we predicted on: a discarded
            # session collided with a later one's sequence number.
            return
        stall_agrees = track.stall_class == diagnosis.stall_class
        _FINAL_AGREEMENT.labels(
            model="stall", agree="yes" if stall_agrees else "no"
        ).inc()
        rep_comparison = (
            track.representation_class is not None
            and diagnosis.representation_class is not None
        )
        rep_agrees = rep_comparison and (
            track.representation_class == diagnosis.representation_class
        )
        if rep_comparison:
            _FINAL_AGREEMENT.labels(
                model="representation", agree="yes" if rep_agrees else "no"
            ).inc()
        _CHUNKS_TO_STABLE.observe(float(track.last_change_chunk))
        totals = self._totals
        totals["sessions"] += 1
        totals["predictions"] += track.predictions
        totals["stall_agreements"] += stall_agrees
        totals["representation_comparisons"] += rep_comparison
        totals["representation_agreements"] += rep_agrees
        totals["stall_flips"] += track.stall_flips
        totals["representation_flips"] += track.representation_flips
        self._chunks_to_stable.append(track.last_change_chunk)

    def report(self) -> ConvergenceReport:
        """Convergence over sessions closed so far."""
        return ConvergenceReport(
            chunks_to_stable=tuple(self._chunks_to_stable), **self._totals
        )
