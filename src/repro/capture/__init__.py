"""Measurement substrate: weblog schema, proxy capture (cleartext and
encrypted views), URI ground truth, device instrumentation and
encrypted-session reconstruction."""

from .device import DeviceLogger, PlaybackSummary, SegmentRecord
from .proxy import WebProxy, server_ip_for
from .reconstruction import (
    ReconstructedSession,
    SessionReconstructor,
    is_youtube_host,
)
from .uri import (
    SIGNALLING_HOSTS,
    VIDEO_HOSTS,
    ParsedSegment,
    ParsedStatsReport,
    parse_uri,
    segment_uri,
    stats_report_uri,
    thumbnail_uri,
    watch_page_uri,
)
from .weblog import MalformedRecordError, WeblogEntry

__all__ = [
    "MalformedRecordError",
    "WeblogEntry",
    "WebProxy",
    "server_ip_for",
    "DeviceLogger",
    "PlaybackSummary",
    "SegmentRecord",
    "SessionReconstructor",
    "ReconstructedSession",
    "is_youtube_host",
    "parse_uri",
    "ParsedSegment",
    "ParsedStatsReport",
    "segment_uri",
    "stats_report_uri",
    "watch_page_uri",
    "thumbnail_uri",
    "VIDEO_HOSTS",
    "SIGNALLING_HOSTS",
]
