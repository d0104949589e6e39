"""Video streaming substrate: catalog/quality ladder, playout buffer,
the hybrid ABR and the adaptive + progressive player simulations."""

from .abr import HybridAbr, ThroughputEstimator
from .adaptive import AdaptivePlayer, AdaptivePlayerConfig
from .buffer import PlayoutBuffer, StallEvent
from .events import PlaybackEvent, build_event_log
from .catalog import (
    AUDIO_LEVEL,
    DASH_LADDER,
    PROGRESSIVE_LADDER,
    QualityLevel,
    Video,
    VideoCatalog,
    quality_for_itag,
)
from .progressive import (
    ProgressivePlayer,
    ProgressivePlayerConfig,
    select_static_quality,
)
from .segments import ChunkDownload
from .session import VideoSession, make_session_id

__all__ = [
    "QualityLevel",
    "Video",
    "VideoCatalog",
    "quality_for_itag",
    "DASH_LADDER",
    "PROGRESSIVE_LADDER",
    "AUDIO_LEVEL",
    "ChunkDownload",
    "PlayoutBuffer",
    "StallEvent",
    "HybridAbr",
    "ThroughputEstimator",
    "AdaptivePlayer",
    "AdaptivePlayerConfig",
    "ProgressivePlayer",
    "ProgressivePlayerConfig",
    "select_static_quality",
    "VideoSession",
    "make_session_id",
    "PlaybackEvent",
    "build_event_log",
]
