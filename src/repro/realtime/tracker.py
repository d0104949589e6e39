"""Online session tracking over a live encrypted weblog stream.

The paper's deployment story (§8): "The trained models can be then
directly applied on the passively monitored traffic and report issues
in real time."  The §5.2 grouping itself is
:class:`~repro.capture.reconstruction.SessionReconstructor`, fed one
entry at a time; this module adds what serving needs on top: stable
per-subscriber session ids, :class:`~repro.datasets.schema.SessionRecord`
output the moment a session closes, its metrics, and a read-only view
of each open session's chunk prefix for early prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.capture.reconstruction import (
    ReconstructedSession,
    SessionReconstructor,
)
from repro.capture.weblog import WeblogEntry
from repro.datasets.preparation import media_record, online_session_id
from repro.datasets.schema import SessionRecord
from repro.obs import get_registry
from repro.online.snapshot import StreamingSessionState

__all__ = ["OnlineSessionTracker"]

_REG = get_registry()
#: Process-wide: every tracker (one per thread shard) applies its own
#: opens and closes as deltas, so the gauge reads the total.
_OPEN_SESSIONS = _REG.gauge(
    "repro_realtime_open_sessions",
    "Sessions currently open in the online trackers.",
)
_SESSIONS_CLOSED = _REG.counter(
    "repro_realtime_sessions_closed_total",
    "Sessions closed by the online tracker and emitted as records.",
)
_SESSIONS_DISCARDED = _REG.counter(
    "repro_realtime_sessions_discarded_total",
    "Sessions closed with too few media chunks to emit.",
)
_ENTRIES_TRACKED = _REG.counter(
    "repro_realtime_entries_tracked_total",
    "Service weblog entries fed into the online tracker.",
)


class OnlineSessionTracker:
    """The §5.2 reconstruction heuristic over a live stream.

    Feed entries with :meth:`observe`; closed sessions are returned as
    records.  Call :meth:`flush` (e.g. at end of capture, or on a
    timer) to close sessions that have been idle longer than the gap.
    Grouping is one :class:`~repro.capture.reconstruction.SessionReconstructor`
    in SNI mode, so a stream fed in timestamp order closes exactly the
    sessions offline reconstruction of the same capture finds.

    Parameters
    ----------
    idle_gap_s:
        Silence (between request timestamps) that closes a
        subscriber's current session.
    min_media_chunks:
        Sessions with fewer media entries are discarded on close.
    """

    def __init__(self, idle_gap_s: float = 30.0, min_media_chunks: int = 3):
        self._core = SessionReconstructor(idle_gap_s, min_media_chunks)
        #: Emitted-session count per subscriber.  Session ids are built
        #: from *this* counter (not a tracker-global one) so an id is a
        #: pure function of the subscriber's own entry stream: a trace
        #: partitioned across N shard-local trackers produces exactly
        #: the ids one serial tracker would (see ``repro.serving``).
        self._sequence: Dict[str, int] = {}

    @property
    def open_sessions(self) -> int:
        """Number of subscribers with a session currently open."""
        return self._core.open_sessions

    def open_stream(
        self, subscriber_id: str
    ) -> Optional[StreamingSessionState]:
        """A view of the subscriber's open session, None if none is open.

        The view reads the grouper's own media list of the session, so
        it copies nothing and follows the session as chunks arrive.
        """
        session = self._core.open_session(subscriber_id)
        if session is None:
            return None
        return StreamingSessionState(session.media)

    def _emit(
        self, sessions: List[ReconstructedSession], discarded: int
    ) -> List[SessionRecord]:
        if discarded:
            _SESSIONS_DISCARDED.inc(discarded)
        if not sessions:
            return []
        _SESSIONS_CLOSED.inc(len(sessions))
        records = []
        for session in sessions:
            subscriber = session.subscriber_id
            sequence = self._sequence.get(subscriber, 0) + 1
            self._sequence[subscriber] = sequence
            records.append(
                media_record(
                    online_session_id(subscriber, sequence), session.media
                )
            )
        return records

    def observe(self, entry: WeblogEntry) -> List[SessionRecord]:
        """Feed one weblog entry; returns any sessions this closes."""
        core = self._core
        entries, discarded = core.entries, core.discarded
        closed = core.observe(entry)
        if core.entries == entries:
            return []    # not service traffic
        _ENTRIES_TRACKED.inc()
        if closed or core.discarded != discarded:
            # The entry closed the subscriber's session and opened the
            # next one: the open count is unchanged.
            return self._emit(closed, core.discarded - discarded)
        session = core.open_session(entry.subscriber_id)
        if len(session.media) + len(session.signalling) == 1:
            _OPEN_SESSIONS.inc()    # this entry opened the session
        return []

    def provisional_session_id(self, subscriber_id: str) -> str:
        """The id the subscriber's open session will get if emitted.

        Discarded sessions (too few media chunks) never consume a
        sequence number, so a discarded session and its successor can
        share this provisional id; the early predictor guards against
        the collision with the closed record's chunk count.
        """
        return online_session_id(
            subscriber_id, self._sequence.get(subscriber_id, 0) + 1
        )

    def flush(self, now_s: Optional[float] = None) -> List[SessionRecord]:
        """Close idle (or, with ``now_s=None``, all) open sessions.

        ``now_s`` is compared on the request-timestamp timebase, like
        the in-stream idle gap.
        """
        core = self._core
        discarded, opened = core.discarded, core.open_sessions
        closed = core.flush(now_s)
        _OPEN_SESSIONS.dec(opened - core.open_sessions)
        return self._emit(closed, core.discarded - discarded)
