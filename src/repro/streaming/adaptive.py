"""HTTP Adaptive Streaming (HAS/DASH) player simulation.

Reproduces the delivery mechanics §2.1 describes and the behaviours the
paper's detectors exploit:

* segments encoded at every ladder rung, fetched one HTTP request each;
* a *fast-start* phase requesting short segments that grow to the
  nominal length — re-entered after every quality switch and after
  every stall (§4.3: "whenever the adaptive algorithm enforces a change
  in the representation of the video, a new start-up phase is
  initiated"), which is exactly what makes Δsize × Δt informative;
* ON-OFF pacing in steady state once the buffer is full;
* ABR-driven quality switches (the hybrid throughput+buffer rule);
* abandonment when stalls exhaust the viewer's patience (Krishnan &
  Sitaraman's RR>0.1 viewers are the ones who leave).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.network.path import NetworkPath
from repro.network.tcp import TcpConnection

from .abr import HybridAbr, ThroughputEstimator
from .buffer import PlayoutBuffer
from .catalog import AUDIO_LEVEL, DASH_LADDER, QualityLevel, Video
from .segments import ChunkDownload
from .session import VideoSession, make_session_id

__all__ = ["AdaptivePlayerConfig", "AdaptivePlayer"]


@dataclass
class AdaptivePlayerConfig:
    """Tunables of the DASH player simulation."""

    #: Steady-state media seconds per request.  The stock app
    #: aggregates DASH segments into large range requests covering
    #: several seconds of content (a few hundred KB each at SD).
    segment_media_s: float = 6.0
    #: Media seconds of the first request after start/switch/stall.
    #: The stock app's fast start uses short requests that double back
    #: to the steady block, trading a little start-up sharpness for
    #: fewer round trips.
    faststart_media_s: float = 1.25
    startup_threshold_s: float = 4.0
    rebuffer_threshold_s: float = 2.0
    max_buffer_s: float = 30.0          # OFF period begins above this
    refill_margin_s: float = 6.0        # OFF period ends this far below max
    size_noise_sigma: float = 0.12      # per-chunk encoder size jitter
    request_gap_s: float = 0.05         # client think time between requests
    initial_signalling_s: float = 0.5   # page/manifest fetch before media
    mean_patience_stall_s: float = 30.0 # mean tolerated total stall time
    include_audio: bool = True
    #: Audio segments cover more media time than video ones (itag-140
    #: m4a ranges covered tens of seconds, ~0.5 MB), so audio requests are issued
    #: when the audio stream falls this far behind the video stream.
    audio_segment_media_s: float = 30.0
    #: Seed the throughput estimator from the signalling downloads so the
    #: first segment is already requested near the sustainable rung (real
    #: players do this; without it every session begins with an artificial
    #: 144p -> cap ladder walk and no session is switch-free).
    initial_bandwidth_hint: bool = True
    bandwidth_hint_noise_sigma: float = 0.2
    ladder: Sequence[QualityLevel] = field(
        default_factory=lambda: list(DASH_LADDER)
    )


class AdaptivePlayer:
    """Simulates one DASH playback over a :class:`NetworkPath`."""

    def __init__(self, config: Optional[AdaptivePlayerConfig] = None) -> None:
        self.config = config or AdaptivePlayerConfig()
        self.abr = HybridAbr()

    def play(
        self,
        video: Video,
        path: NetworkPath,
        rng: np.random.Generator,
        place: str = "unknown",
        video_conn: Optional[TcpConnection] = None,
        audio_conn: Optional[TcpConnection] = None,
        id_rng: Optional[np.random.Generator] = None,
    ) -> VideoSession:
        """Play ``video`` over ``path``; returns the full session record.

        ``video_conn``/``audio_conn`` let the caller supply connections
        bound to their own RNG streams, and ``id_rng`` isolates the
        session-id draw (the corpus engines keep transport and identity
        randomness in dedicated per-session streams); by default
        everything comes from ``rng`` as before.
        """
        cfg = self.config
        if video_conn is None:
            video_conn = TcpConnection(path, rng)
        if audio_conn is None:
            audio_conn = TcpConnection(path, rng)
        buffer = PlayoutBuffer(
            startup_threshold_s=cfg.startup_threshold_s,
            rebuffer_threshold_s=cfg.rebuffer_threshold_s,
        )
        estimator = ThroughputEstimator()
        if cfg.initial_bandwidth_hint:
            # The hint reflects achievable TCP goodput, not raw link
            # capacity: loss-limited AIMD sustains roughly half to
            # two-thirds of the bottleneck rate on these paths.
            hint = 0.6 * path.state_at(0.0).bandwidth_kbps * float(
                np.exp(rng.normal(0.0, cfg.bandwidth_hint_noise_sigma))
            )
            estimator.update(max(16.0, hint))
        patience_s = float(
            rng.gamma(shape=4.0, scale=cfg.mean_patience_stall_s / 4.0)
        )

        chunks: List[ChunkDownload] = []
        now = cfg.initial_signalling_s
        buffer.advance_to(now)
        media_pos = 0.0
        audio_pos = 0.0
        # The fast-start ramp applies after quality switches and stalls
        # (§4.3); the session's first request is already full-size — the
        # server delivers it as fast as TCP allows either way.
        request_media = cfg.segment_media_s
        current: Optional[QualityLevel] = None
        abandoned = False
        index = 0
        # After a real stall the player refills at the bottom rung until
        # the buffer has a cushion again (the Figure 1 small-chunk
        # signature), independent of what the ABR would pick.
        emergency = False

        while media_pos < video.duration_s - 1e-9:
            # OFF period: buffer full, pause downloading until it drains.
            if (
                buffer.playback_started
                and not buffer.stalled
                and buffer.level_s >= cfg.max_buffer_s
            ):
                drain = buffer.level_s - (cfg.max_buffer_s - cfg.refill_margin_s)
                now += drain
                buffer.advance_to(now)

            if emergency and buffer.level_s > cfg.rebuffer_threshold_s + 4.0:
                emergency = False
            quality = self.abr.select(
                cfg.ladder,
                video,
                estimator.estimate_kbps,
                buffer.level_s,
                current,
                playback_started=buffer.playback_started,
            )
            if emergency:
                quality = min(cfg.ladder, key=lambda q: q.bitrate_kbps)
            if current is not None and quality.itag != current.itag:
                request_media = cfg.faststart_media_s
            current = quality

            remaining = video.duration_s - media_pos
            media = min(request_media, remaining)
            # Merge a short tail into this request — the final range
            # extends to the end of the stream instead of issuing a
            # tiny extra request.
            if remaining - media < 2.0:
                media = remaining
            media = max(media, 0.25)
            noise = float(np.exp(rng.normal(0.0, cfg.size_noise_sigma)))
            size = max(
                1,
                int(video.bitrate_kbps(quality) * media * 1000.0 / 8.0 * noise),
            )
            transfer = video_conn.download(size, now)
            chunks.append(
                ChunkDownload(
                    index=index,
                    kind="video",
                    quality=quality,
                    media_seconds=media,
                    size_bytes=size,
                    transfer=transfer,
                )
            )
            index += 1
            now = transfer.end_s
            estimator.update(transfer.throughput_kbps)
            media_pos += media

            # Media is appended to the source buffer as the response
            # streams in, so credit it continuously over the transfer.
            stalls_before = len(buffer.stalls)
            slices = max(1, int(np.ceil(media)))
            span = transfer.end_s - transfer.start_s
            buffer.add_media_run(transfer.start_s, span, slices, media)
            # A stall during (or still open after) this transfer resets
            # the fast-start ramp: refill with small quick chunks.
            if len(buffer.stalls) > stalls_before or buffer.stalled:
                request_media = cfg.faststart_media_s
                emergency = True

            if cfg.include_audio:
                finished = media_pos >= video.duration_s - 1e-9
                while (
                    media_pos - audio_pos >= cfg.audio_segment_media_s
                    or (finished and audio_pos < media_pos)
                ):
                    audio_media = min(
                        cfg.audio_segment_media_s, media_pos - audio_pos
                    )
                    # The last audio request covers the whole remainder
                    # rather than leaving a tiny tail segment.
                    if finished and media_pos - audio_pos < 2.0 * cfg.audio_segment_media_s:
                        audio_media = media_pos - audio_pos
                    audio_noise = float(np.exp(rng.normal(0.0, 0.05)))
                    audio_size = max(
                        1,
                        int(
                            AUDIO_LEVEL.bitrate_kbps
                            * audio_media
                            * 1000.0
                            / 8.0
                            * audio_noise
                        ),
                    )
                    audio_transfer = audio_conn.download(audio_size, now)
                    chunks.append(
                        ChunkDownload(
                            index=index,
                            kind="audio",
                            quality=AUDIO_LEVEL,
                            media_seconds=audio_media,
                            size_bytes=audio_size,
                            transfer=audio_transfer,
                        )
                    )
                    index += 1
                    now = audio_transfer.end_s
                    audio_pos += audio_media
            buffer.advance_to(now)
            request_media = min(cfg.segment_media_s, request_media * 1.6)
            now += cfg.request_gap_s

            ongoing_stall = now - buffer.stalled_since if buffer.stalled else 0.0
            if buffer.total_stall_s() + ongoing_stall > patience_s:
                abandoned = True
                break

        # Play out whatever is buffered (or cut off on abandonment).
        buffer.advance_to(now)
        if abandoned or not buffer.playback_started:
            end = now
        else:
            end = now + buffer.level_s
        buffer.finish(end)

        return VideoSession(
            session_id=make_session_id(id_rng if id_rng is not None else rng),
            video=video,
            kind="adaptive",
            place=place,
            chunks=chunks,
            stalls=buffer.stalls,
            startup_delay_s=buffer.startup_delay_s,
            total_duration_s=max(end, 1e-3),
            abandoned=abandoned,
        )
