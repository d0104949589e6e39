"""Partial-session feature snapshots: the batch row of a chunk prefix.

A provisional diagnosis needs the §4.1/§4.2 feature vectors of an
*open* session.  :class:`StreamingSessionState` is a read-only view of
that session's chunk prefix, and each vector it returns is the row the
batch pipeline builds for a :class:`~repro.datasets.schema.SessionRecord`
of the same chunks (:func:`~repro.core.featurex.engine.record_row`),
bit for bit, at any session length.

**Live and offline.**  Live, the view holds the grouper's open
``ReconstructedSession.media`` list (see
:meth:`repro.realtime.tracker.OnlineSessionTracker.open_stream`) and
copies nothing; its chunk count follows the list as entries arrive.
Offline, :func:`state_from_record_prefix` views a closed record cut to
its first ``k`` chunks.

**One record per snapshot.**  The prefix becomes a record through
:func:`~repro.datasets.preparation.media_record` (chunks in arrival
order, as in the tracker's closed records), built once per chunk count
and shared by :meth:`~StreamingSessionState.stall_vector` and
:meth:`~StreamingSessionState.representation_vector`.  Both take the
feature columns a fitted detector selected and compute only the series
and statistics those columns read.

**Cost.**  A snapshot re-reads the whole prefix, so its cost grows with
session length: with the perfbench serving model's columns about
0.2-0.35 ms at chunks 25-64 and 0.9-1.0 ms at 1000 (process CPU on a
shared 2-vCPU VM; docs/ARCHITECTURE.md §online has the figures).  Each
metric's order statistics come from one sort
(:func:`~repro.timeseries.stats.summary_statistics`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.capture.weblog import WeblogEntry
from repro.core.features import get_model_spec
from repro.core.featurex.engine import column_plan, record_row
from repro.core.featurex.ragged import BASE_FIELDS
from repro.datasets.preparation import media_record
from repro.datasets.schema import SessionRecord

__all__ = ["StreamingSessionState", "state_from_record_prefix"]

_STALL_SPEC = get_model_spec("stall")
_REPRESENTATION_SPEC = get_model_spec("representation")


class StreamingSessionState:
    """Read-only view of one session's chunk prefix.

    ``media`` is the session's media entries in observation order (the
    grouper's live list); read partial feature vectors with
    :meth:`stall_vector` / :meth:`representation_vector`.
    """

    __slots__ = ("_media", "_record")

    def __init__(self, media: Sequence[WeblogEntry] = ()) -> None:
        #: The viewed entries; None when the view is a fixed record
        #: (:func:`state_from_record_prefix`).
        self._media: Optional[Sequence[WeblogEntry]] = media
        self._record: Optional[SessionRecord] = None

    @property
    def n_chunks(self) -> int:
        if self._media is None:
            return self._record.n_chunks
        return len(self._media)

    def partial_record(self) -> Optional[SessionRecord]:
        """The chunk prefix as a record (None before the first chunk).

        Built once per chunk count and reused until the viewed list
        grows.
        """
        media = self._media
        if media and (
            self._record is None or self._record.n_chunks != len(media)
        ):
            self._record = media_record("partial", media)
        return self._record

    def _vector(self, spec, columns: Optional[Sequence[int]]) -> np.ndarray:
        record = self.partial_record()
        if record is None:
            return np.zeros(column_plan(spec, columns).width, dtype=float)
        return record_row(record, spec, columns)

    def stall_vector(
        self, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The 70-feature §4.1 vector of the session so far.

        Ordered exactly as
        :func:`~repro.core.features.stall_feature_names` and
        bit-identical to the batch pipeline on the same prefix.
        ``columns`` returns only those features (``full[columns]``),
        computing only the series and statistics they read.
        """
        return self._vector(_STALL_SPEC, columns)

    def representation_vector(
        self, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The 210-feature §4.2 vector of the session so far.

        Ordered exactly as :func:`~repro.core.features.
        representation_feature_names` and bit-identical to the batch
        pipeline on the same prefix.  ``columns`` as in
        :meth:`stall_vector`.
        """
        return self._vector(_REPRESENTATION_SPEC, columns)


def state_from_record_prefix(
    record: SessionRecord, n_chunks: int
) -> StreamingSessionState:
    """A view of the first ``n_chunks`` chunks of a closed record.

    The offline counterpart of the tracker's live view — used by the
    early-vs-final experiment to ask "what would the early predictor
    have said after k chunks of this (eventually closed) session?".
    """
    state = StreamingSessionState()
    stop = min(n_chunks, record.n_chunks)
    if stop > 0:
        state._media = None
        state._record = SessionRecord(
            session_id=record.session_id,
            encrypted=True,
            **{
                field: np.asarray(getattr(record, field)[:stop], dtype=float)
                for field in BASE_FIELDS
            },
        )
    return state
