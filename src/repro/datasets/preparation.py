"""Data preparation (§3.3): cleaning, grouping and GT joining.

Cleartext path: drop proxy-cached/compressed logs, parse every URI,
group segment logs by the session id (``cpn``), attach the stall ground
truth from the last playback report of each session.

Encrypted path: take the output of the session reconstruction and join
it with the instrumented device's records "by matching the respective
timestamps and the chunk count per session" (§5.2).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.capture.device import PlaybackSummary, SegmentRecord
from repro.capture.reconstruction import ReconstructedSession
from repro.capture.uri import ParsedSegment, ParsedStatsReport, parse_uri
from repro.capture.weblog import WeblogEntry
from repro.streaming.session import VideoSession

from .schema import SessionRecord

__all__ = [
    "remove_proxy_artifacts",
    "group_cleartext_sessions",
    "media_arrays",
    "media_record",
    "online_session_id",
    "record_from_video_session",
    "records_from_reconstruction",
    "subscriber_of",
]


def remove_proxy_artifacts(entries: Iterable[WeblogEntry]) -> List[WeblogEntry]:
    """Drop logs served from the proxy cache or recompressed by it.

    §3.3: "we ensure that any logs that correspond to cached and/or
    compressed content by the proxy are removed from the dataset" —
    their sizes and timings describe the proxy, not the radio path.
    """
    return [e for e in entries if not (e.cached or e.compressed)]


def media_arrays(entries: Sequence[WeblogEntry]) -> Dict[str, np.ndarray]:
    """The per-chunk :class:`SessionRecord` arrays of media entries."""
    return {
        "timestamps": np.array([e.arrival_s for e in entries]),
        "sizes": np.array([float(e.object_bytes) for e in entries]),
        "transactions": np.array([e.transaction_s for e in entries]),
        "rtt_min": np.array([e.rtt_min_ms for e in entries]),
        "rtt_avg": np.array([e.rtt_avg_ms for e in entries]),
        "rtt_max": np.array([e.rtt_max_ms for e in entries]),
        "bdp": np.array([e.bdp_bytes for e in entries]),
        "bif_avg": np.array([e.bif_avg_bytes for e in entries]),
        "bif_max": np.array([e.bif_max_bytes for e in entries]),
        "loss_pct": np.array([e.loss_pct for e in entries]),
        "retx_pct": np.array([e.retx_pct for e in entries]),
    }


def media_record(
    session_id: str, media: Sequence[WeblogEntry], **ground_truth
) -> SessionRecord:
    """An encrypted record of media entries.

    :class:`SessionRecord` puts the chunks in arrival order with a
    stable sort, so entries that arrived out of request order keep
    their relative order on ties.
    """
    return SessionRecord(
        session_id=session_id,
        encrypted=True,
        **media_arrays(media),
        **ground_truth,
    )


def online_session_id(subscriber_id: str, sequence: int) -> str:
    """The id of a subscriber's ``sequence``-th session closed online."""
    return f"{subscriber_id}/online-{sequence}"


def subscriber_of(session_id: str) -> str:
    """The subscriber of an :func:`online_session_id`.

    The split is at the last ``/online-``, so a subscriber id may hold
    ``/`` (and even ``/online-``) of its own.  An id of another form is
    returned whole.
    """
    return session_id.rsplit("/online-", 1)[0]


def group_cleartext_sessions(
    entries: Iterable[WeblogEntry],
    min_chunks: int = 3,
) -> List[SessionRecord]:
    """Group cleartext weblogs into per-session records via the URI cpn.

    Sessions with fewer than ``min_chunks`` media chunks are dropped
    (aborted page loads carry no usable signal).
    """
    cleaned = remove_proxy_artifacts(entries)
    segments: Dict[str, List[Tuple[WeblogEntry, ParsedSegment]]] = defaultdict(list)
    reports: Dict[str, List[ParsedStatsReport]] = defaultdict(list)

    for entry in cleaned:
        if entry.uri is None:
            continue
        parsed = parse_uri(entry.uri)
        if isinstance(parsed, ParsedSegment):
            segments[parsed.session_id].append((entry, parsed))
        elif isinstance(parsed, ParsedStatsReport):
            reports[parsed.session_id].append(parsed)

    records: List[SessionRecord] = []
    for session_id, pairs in segments.items():
        if len(pairs) < min_chunks:
            continue
        pairs.sort(key=lambda p: p[0].arrival_s)
        media_entries = [p[0] for p in pairs]
        arrays = media_arrays(media_entries)

        video_pairs = [p for p in pairs if p[1].kind == "video"]
        resolutions = np.array([p[1].resolution_p for p in video_pairs])
        media_s = np.array([p[1].media_seconds for p in video_pairs])

        session_reports = sorted(
            reports.get(session_id, []), key=lambda r: r.playback_position_s
        )
        if session_reports:
            last = session_reports[-1]
            stall_count = last.stall_count
            stall_duration = last.stall_duration_s
            total_duration = last.playback_position_s
        else:
            stall_count = None
            stall_duration = None
            total_duration = None

        adaptive = bool(np.unique(resolutions).size > 1) or any(
            p[1].kind == "audio" for p in pairs
        )
        records.append(
            SessionRecord(
                session_id=session_id,
                encrypted=False,
                stall_count=stall_count,
                stall_duration_s=stall_duration,
                total_duration_s=total_duration,
                resolutions=resolutions if resolutions.size else None,
                resolution_media_s=media_s if media_s.size else None,
                kind="adaptive" if adaptive else "progressive",
                **arrays,
            )
        )
    return records


def record_from_video_session(
    session: VideoSession,
    encrypted: bool = False,
    with_ground_truth: bool = True,
) -> SessionRecord:
    """Build a record straight from a simulated session (shortcut path).

    Used by unit tests and controlled experiments where the weblog
    round trip is not the subject under test.
    """
    chunks = session.chunks
    arrays = {
        "timestamps": np.array([c.arrival_s for c in chunks]),
        "sizes": np.array([float(c.size_bytes) for c in chunks]),
        "transactions": np.array([c.transfer.duration_s for c in chunks]),
        "rtt_min": np.array([c.transfer.rtt_min_ms for c in chunks]),
        "rtt_avg": np.array([c.transfer.rtt_avg_ms for c in chunks]),
        "rtt_max": np.array([c.transfer.rtt_max_ms for c in chunks]),
        "bdp": np.array([c.transfer.bdp_bytes for c in chunks]),
        "bif_avg": np.array([c.transfer.bif_avg_bytes for c in chunks]),
        "bif_max": np.array([c.transfer.bif_max_bytes for c in chunks]),
        "loss_pct": np.array([c.transfer.loss_pct for c in chunks]),
        "retx_pct": np.array([c.transfer.retx_pct for c in chunks]),
    }
    video_chunks = session.video_chunks
    gt = {}
    if with_ground_truth:
        gt = {
            "stall_count": session.stall_count,
            "stall_duration_s": session.stall_duration_s,
            "total_duration_s": session.total_duration_s,
            "resolutions": np.array([c.resolution_p for c in video_chunks]),
            "resolution_media_s": np.array(
                [c.media_seconds for c in video_chunks]
            ),
            "kind": session.kind,
            "abandoned": session.abandoned,
            "place": session.place,
        }
    return SessionRecord(
        session_id=session.session_id,
        encrypted=encrypted,
        **arrays,
        **gt,
    )


def records_from_reconstruction(
    reconstructed: Sequence[ReconstructedSession],
    summaries: Sequence[PlaybackSummary],
    segment_records: Sequence[SegmentRecord],
    time_tolerance_s: float = 5.0,
) -> List[SessionRecord]:
    """Join reconstructed encrypted sessions with device ground truth.

    §5.2: "the two datasets can be easily joined by matching the
    respective timestamps and the chunk count per session".  Each
    reconstructed session is matched to the device session whose first
    hooked request is closest in time (within tolerance); unmatched
    reconstructions are returned without ground truth.
    """
    device_first_ts: Dict[str, float] = {}
    device_resolutions: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
    for seg in segment_records:
        if (
            seg.session_id not in device_first_ts
            or seg.timestamp_s < device_first_ts[seg.session_id]
        ):
            device_first_ts[seg.session_id] = seg.timestamp_s
        if seg.kind == "video":
            device_resolutions[seg.session_id].append(
                (seg.timestamp_s, seg.resolution_p)
            )
    summary_by_id = {s.session_id: s for s in summaries}

    records: List[SessionRecord] = []
    used: set = set()
    for rs in reconstructed:
        first_media_ts = min(e.timestamp_s for e in rs.media)

        best_id: Optional[str] = None
        best_delta = time_tolerance_s
        for session_id, ts in device_first_ts.items():
            if session_id in used:
                continue
            delta = abs(ts - first_media_ts)
            if delta <= best_delta:
                best_delta = delta
                best_id = session_id

        gt: Dict = {}
        if best_id is not None:
            used.add(best_id)
            summary = summary_by_id.get(best_id)
            resolutions = sorted(device_resolutions.get(best_id, []))
            if summary is not None:
                gt.update(
                    stall_count=summary.stall_count,
                    stall_duration_s=summary.stall_duration_s,
                    total_duration_s=summary.total_duration_s,
                    abandoned=summary.abandoned,
                )
            if resolutions:
                gt["resolutions"] = np.array([r for _, r in resolutions])
        records.append(
            media_record(
                best_id or f"unmatched-{len(records)}", rs.media, **gt
            )
        )
    return records
