"""Encrypted session reconstruction (§5.2 heuristic).

Encrypted weblogs carry no session id, so segments must be regrouped
into sessions from traffic shape alone.  The paper's three steps:

1. "Identify the traffic that corresponds to a single subscriber and
   remove all requests that do not belong to YouTube by filtering out
   those that have domain names not related to the service."
2. "Look for the unique HTTP traffic patterns that take place at the
   beginning of a new video session [...] requests to m.youtube.com and
   i.ytimg.com which are responsible for downloading multiple web
   objects such as HTML, scripts and images."
3. "Longer periods without traffic that correspond to the time between
   consecutive sessions are identified in order to clearly define the
   beginning and ending of each session."

Steps 2 and 3 run per subscriber, incrementally, on the request
timestamps; offline reconstruction is the same grouper fed a sorted
capture.  The known limitation is preserved too: parallel sessions of
one subscriber interleave and cannot be separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional

from repro.obs import get_registry, trace

from .weblog import WeblogEntry

__all__ = [
    "ReconstructedSession",
    "SessionReconstructor",
    "is_youtube_host",
    "is_youtube_ip",
]

_YOUTUBE_SUFFIXES = (".youtube.com", ".googlevideo.com", ".ytimg.com")
_PAGE_HOSTS = ("m.youtube.com", "www.youtube.com")

#: Address space the simulated Google CDN lives in (see
#: :func:`repro.capture.proxy.server_ip_for`).  With encrypted SNI
#: (TLS ECH) the IP prefix is the only service fingerprint left.
_YOUTUBE_IP_PREFIX = "173.194."

_REG = get_registry()
_SESSIONS_RECONSTRUCTED = _REG.counter(
    "repro_capture_sessions_reconstructed_total",
    "Encrypted sessions regrouped by the reconstruction heuristic.",
    labelnames=("mode",),
)
_SESSIONS_DISCARDED = _REG.counter(
    "repro_capture_sessions_discarded_total",
    "Reconstructed groups dropped for having too few media chunks.",
    labelnames=("mode",),
)
_CHUNKS_RECONSTRUCTED = _REG.counter(
    "repro_capture_chunks_reconstructed_total",
    "Media chunks placed into reconstructed sessions.",
    labelnames=("mode",),
)


def is_youtube_host(server_name: str) -> bool:
    """Whether a server name belongs to the YouTube service."""
    name = server_name.lower()
    return name.endswith(_YOUTUBE_SUFFIXES) or name in (
        "youtube.com",
        "googlevideo.com",
        "ytimg.com",
    )


def is_youtube_ip(server_ip: str) -> bool:
    """Whether a server IP falls in the service's address space.

    The ECH-era fallback: when the SNI itself is encrypted, prefix
    matching against published CDN ranges is what remains.  Coarser
    than SNI — any service hosted in the same ranges matches too.
    """
    return server_ip.startswith(_YOUTUBE_IP_PREFIX)


@dataclass
class ReconstructedSession:
    """One regrouped encrypted session."""

    media: List[WeblogEntry] = field(default_factory=list)
    signalling: List[WeblogEntry] = field(default_factory=list)
    subscriber_id: str = ""

    @property
    def start_s(self) -> float:
        entries = self.signalling + self.media
        return min(e.timestamp_s for e in entries)

    @property
    def end_s(self) -> float:
        entries = self.signalling + self.media
        return max(e.arrival_s for e in entries)

    @property
    def chunk_count(self) -> int:
        return len(self.media)


class SessionReconstructor:
    """Groups encrypted weblogs into video sessions, per subscriber.

    The one implementation of the 3-step heuristic, offline and online.
    :meth:`observe` feeds one entry and returns the sessions it closes;
    :meth:`flush` closes idle (or all) open sessions; :meth:`reconstruct`
    runs a whole capture through fresh state.  The online
    :class:`~repro.realtime.tracker.OnlineSessionTracker` wraps one
    instance.

    The idle gap runs on the request-timestamp clock: a subscriber's
    session closes when a request starts more than ``idle_gap_s`` after
    the latest request start seen in it.  (Comparing a request against
    the previous entry's *arrival* let one long transaction hold a
    session open past the gap.)

    Parameters
    ----------
    idle_gap_s:
        A silence longer than this between request timestamps closes
        the subscriber's current session.
    min_media_chunks:
        Groups with fewer media entries are discarded (page visits that
        never started a playback).
    use_sni:
        With True (default) the service filter and the media/signalling
        distinction use the TLS SNI, as in the paper.  With False the
        reconstructor operates in ECH mode: the service filter matches
        the CDN IP prefix and — since signalling hosts are no longer
        distinguishable — sessions split on idle gaps and a size
        heuristic only (small transactions are treated as signalling).
    """

    #: ECH mode: transactions at most this large count as signalling.
    SIGNALLING_MAX_BYTES = 150_000

    def __init__(
        self,
        idle_gap_s: float = 30.0,
        min_media_chunks: int = 3,
        use_sni: bool = True,
    ):
        if idle_gap_s <= 0:
            raise ValueError("idle gap must be positive")
        if min_media_chunks < 1:
            raise ValueError("min_media_chunks must be >= 1")
        self.idle_gap_s = idle_gap_s
        self.min_media_chunks = min_media_chunks
        self.use_sni = use_sni
        # The rule's predicates, bound once; ``is_service`` (step 1) is
        # public so a caller can skip foreign traffic cheaply.
        if use_sni:
            self.is_service = lambda e: is_youtube_host(e.server_name)
            self._is_media = lambda e: e.server_name.lower().endswith(
                ".googlevideo.com"
            )
            self._is_page = lambda e: e.server_name.lower() in _PAGE_HOSTS
        else:
            limit = self.SIGNALLING_MAX_BYTES
            self.is_service = lambda e: is_youtube_ip(e.server_ip)
            self._is_media = lambda e: e.object_bytes > limit
            # Page requests are indistinguishable under ECH.
            self._is_page = lambda e: False
        self._open: Dict[str, ReconstructedSession] = {}
        #: Latest request timestamp per open session: the idle-gap clock.
        self._clock: Dict[str, float] = {}
        #: Lifetime counts: service entries fed, and groups closed with
        #: too few media chunks.
        self.entries = 0
        self.discarded = 0

    @property
    def open_sessions(self) -> int:
        """Number of subscribers with a session currently open."""
        return len(self._open)

    def open_session(
        self, subscriber_id: str
    ) -> Optional[ReconstructedSession]:
        """The subscriber's still-open group, if any."""
        return self._open.get(subscriber_id)

    def _close(self, subscriber_id: str) -> List[ReconstructedSession]:
        session = self._open.pop(subscriber_id)
        del self._clock[subscriber_id]
        if len(session.media) < self.min_media_chunks:
            self.discarded += 1
            return []
        return [session]

    def observe(self, entry: WeblogEntry) -> List[ReconstructedSession]:
        """Feed one entry; returns the kept sessions it closes.

        Entries are expected in request-timestamp order per subscriber;
        an older request joins the open session without moving its
        idle-gap clock back.
        """
        # Step 1: service filter.
        if not self.is_service(entry):
            return []
        self.entries += 1
        subscriber = entry.subscriber_id
        timestamp = entry.timestamp_s
        closed: List[ReconstructedSession] = []
        current = self._open.get(subscriber)
        if current is not None and (
            # Step 3: an idle gap ends the session ...
            timestamp - self._clock[subscriber] > self.idle_gap_s
            # Step 2: ... and so does a watch-page request after media
            # activity (back-to-back videos).
            or (current.media and self._is_page(entry))
        ):
            closed = self._close(subscriber)
            current = None
        if current is None:
            current = self._open[subscriber] = ReconstructedSession(
                subscriber_id=subscriber
            )
            self._clock[subscriber] = timestamp
        elif timestamp > self._clock[subscriber]:
            self._clock[subscriber] = timestamp
        if self._is_media(entry):
            current.media.append(entry)
        else:
            current.signalling.append(entry)
        return closed

    def flush(
        self, now_s: Optional[float] = None
    ) -> List[ReconstructedSession]:
        """Close idle (or, with ``now_s=None``, all) open sessions.

        ``now_s`` is read on the request-timestamp clock, like the
        in-stream idle gap.
        """
        closed: List[ReconstructedSession] = []
        for subscriber, clock in list(self._clock.items()):
            if now_s is None or now_s - clock > self.idle_gap_s:
                closed.extend(self._close(subscriber))
        return closed

    def reconstruct(
        self, entries: Iterable[WeblogEntry]
    ) -> List[ReconstructedSession]:
        """Run the 3-step heuristic over a whole capture.

        Sessions come grouped by subscriber, in the order of each
        subscriber's first entry in ``entries``, and in time order
        within a subscriber.
        """
        rank: Dict[str, int] = {}
        service: List[WeblogEntry] = []
        state = SessionReconstructor(
            self.idle_gap_s, self.min_media_chunks, self.use_sni
        )
        with trace("capture.reconstruct") as span:
            for entry in entries:
                rank.setdefault(entry.subscriber_id, len(rank))
                if state.is_service(entry):
                    service.append(entry)
            service.sort(key=attrgetter("timestamp_s"))
            kept: List[ReconstructedSession] = []
            for entry in service:
                kept.extend(state.observe(entry))
            kept.extend(state.flush())
            # A subscriber's sessions close in time order; the stable
            # sort only gathers them by subscriber.
            kept.sort(key=lambda s: rank[s.subscriber_id])
            chunks = sum(s.chunk_count for s in kept)
            span.add("sessions", len(kept))
            span.add("chunks", chunks)

        mode = "sni" if self.use_sni else "ech"
        _SESSIONS_RECONSTRUCTED.labels(mode=mode).inc(len(kept))
        _SESSIONS_DISCARDED.labels(mode=mode).inc(state.discarded)
        _CHUNKS_RECONSTRUCTED.labels(mode=mode).inc(chunks)
        return kept
