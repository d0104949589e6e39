"""Corpus generators.

Two corpora mirror the paper's two datasets:

* **Cleartext corpus** (§3.1): sessions from many subscribers of the
  operator, dominated by legacy progressive players ("only 3% of these
  are adaptive streaming sessions"), observed by the proxy in
  cleartext so URIs provide ground truth.
* **Encrypted corpus** (§5.2): 722 sessions from a single instrumented
  commuter device, encrypted end-to-end, with device-side ground truth
  and weblog-side traffic that must be regrouped by the reconstruction
  heuristic.

A third helper generates an all-adaptive corpus for the HAS-only
experiments (average representation, quality switching) — the paper
derives those from the adaptive subset of its dataset.

Engines
-------
Generation runs on one of two engines (``repro.datasets.genx``):
``"per-session"`` simulates each session through the original
object-per-session classes and is the bit-identity oracle;
``"vectorized"`` batches the path fading and TCP rounds of all
sessions through numpy.  Both consume the same pre-drawn
:class:`~repro.datasets.genx.plan.CorpusPlan` and per-session RNG
streams, so a fixed seed yields bit-identical corpora either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.capture.device import DeviceLogger, PlaybackSummary, SegmentRecord
from repro.capture.proxy import WebProxy
from repro.capture.reconstruction import SessionReconstructor
from repro.capture.weblog import WeblogEntry
from repro.network.diurnal import DiurnalLoadModel
from repro.network.mobility import COMMUTER_USER, STATIC_USER, MobilityModel
from repro.network.path import NetworkPath
from repro.network.tcp import TcpConnection
from repro.obs import get_registry
from repro.streaming.adaptive import AdaptivePlayer, AdaptivePlayerConfig
from repro.streaming.catalog import DASH_LADDER, VideoCatalog
from repro.streaming.progressive import ProgressivePlayer
from repro.streaming.session import VideoSession

from . import genx
from .genx.plan import NOISE_HOSTS, CorpusPlan, build_noise_entries, build_plan
from .genx.streams import SessionStreams, corpus_streams
from .preparation import (
    group_cleartext_sessions,
    records_from_reconstruction,
)
from .schema import SessionRecord

__all__ = [
    "CorpusConfig",
    "Corpus",
    "generate_corpus",
    "generate_cleartext_corpus",
    "generate_adaptive_corpus",
    "generate_encrypted_corpus",
]

#: Screen/data-plan quality caps users impose on adaptive playback
#: (§4.2: "videos are streamed using limited mobile data plans and on
#: handheld devices that often come with smaller screens which leads
#: users to opt for LD and SD video qualities").
DEFAULT_QUALITY_CAPS: Dict[int, float] = {
    240: 0.46,
    360: 0.26,
    480: 0.21,
    720: 0.05,
    1080: 0.02,
}

# Backwards-compatible alias; the hosts now live with the plan builder.
_NOISE_HOSTS = NOISE_HOSTS

_REG = get_registry()
_SESSIONS_TOTAL = _REG.counter(
    "repro_datasets_sessions_total",
    "Sessions generated into corpora, by engine.",
    labelnames=("engine",),
)
_GENERATION_SECONDS = _REG.histogram(
    "repro_datasets_generation_seconds",
    "Wall-clock seconds per corpus generation run.",
    labelnames=("engine",),
)
_SESSIONS_PER_SECOND = _REG.gauge(
    "repro_datasets_sessions_per_second",
    "Sessions per second of the most recent corpus generation run.",
    labelnames=("engine",),
)


@dataclass
class CorpusConfig:
    """Parameters of a corpus generation run."""

    n_sessions: int
    seed: int = 0
    adaptive_fraction: float = 0.03
    mobility: MobilityModel = field(default_factory=lambda: STATIC_USER)
    quality_caps: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_QUALITY_CAPS)
    )
    encrypted: bool = False
    single_subscriber: bool = False
    session_gap_s: Tuple[float, float] = (60.0, 1800.0)
    noise_entries_per_gap: float = 2.0
    mean_video_duration_s: float = 180.0
    #: Probability that a session's path suffers transient coverage dips
    #: (handovers, tunnels, cell congestion bursts).  These are what
    #: produce *mild* stalls and mid-session quality switches on
    #: otherwise healthy links.
    transient_outage_prob: float = 0.15
    transient_outage_count: Tuple[int, int] = (1, 3)
    transient_outage_duration_s: Tuple[float, float] = (12.0, 45.0)
    transient_outage_factor: Tuple[float, float] = (0.03, 0.20)
    #: Optional time-of-day load model: sessions generated during busy
    #: hours see reduced capacity (and more QoE issues).
    diurnal: Optional[DiurnalLoadModel] = None
    #: Epoch of the first session (seconds; 0 = midnight of day one).
    start_epoch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sessions < 0:
            raise ValueError("n_sessions must be >= 0")
        if not 0.0 <= self.adaptive_fraction <= 1.0:
            raise ValueError("adaptive_fraction must be in [0, 1]")


@dataclass
class Corpus:
    """A generated corpus: simulation truth + capture views."""

    sessions: List[VideoSession]
    records: List[SessionRecord]
    weblogs: List[WeblogEntry]
    summaries: List[PlaybackSummary]
    segment_records: List[SegmentRecord]

    def adaptive_records(self) -> List[SessionRecord]:
        return [r for r in self.records if r.kind == "adaptive"]

    def records_with_stall_truth(self) -> List[SessionRecord]:
        return [
            r
            for r in self.records
            if r.stall_duration_s is not None and r.total_duration_s
        ]


def _capped_ladder(cap: int):
    return [q for q in DASH_LADDER if q.resolution_p <= cap]


def _simulate_sessions_oracle(
    plan: CorpusPlan, streams: List[SessionStreams]
) -> List[VideoSession]:
    """Per-session reference engine: the original simulation classes."""
    sessions: List[VideoSession] = []
    adaptive = plan.adaptive.tolist()
    for i, video in enumerate(plan.videos):
        st = streams[i]
        place = plan.places[i]
        path = NetworkPath(
            plan.profiles[i],
            video.duration_s * 4.0 + 180.0,
            st.path,
            outages=plan.outages[i],
        )
        if adaptive[i]:
            player = AdaptivePlayer(
                AdaptivePlayerConfig(ladder=_capped_ladder(plan.caps[i]))
            )
            session = player.play(
                video,
                path,
                st.player,
                place=place.name,
                video_conn=TcpConnection(path, st.tcp_video),
                audio_conn=TcpConnection(path, st.tcp_audio),
                id_rng=st.ident,
            )
        else:
            session = ProgressivePlayer().play(
                video,
                path,
                st.player,
                place=place.name,
                conn=TcpConnection(path, st.tcp_video),
                id_rng=st.ident,
            )
        sessions.append(session)
    return sessions


def generate_corpus(config: CorpusConfig, engine: Optional[str] = None) -> Corpus:
    """Simulate sessions, capture them through the proxy, prepare records.

    ``engine`` selects the simulation engine (defaults to the
    process-wide :func:`repro.datasets.genx.get_default_engine`); both
    engines produce bit-identical corpora for the same config.
    """
    if engine is None:
        engine = genx.get_default_engine()
    if engine not in genx.ENGINES:
        raise ValueError(
            f"unknown corpus engine {engine!r}; known: {', '.join(genx.ENGINES)}"
        )
    started = time.perf_counter()

    catalog = VideoCatalog(mean_duration_s=config.mean_video_duration_s)
    plan_rng, streams = corpus_streams(config.seed, config.n_sessions)
    plan = build_plan(config, plan_rng, catalog)

    if engine == "vectorized":
        from .genx.vector import simulate_sessions

        sessions = simulate_sessions(plan, streams)
    else:
        sessions = _simulate_sessions_oracle(plan, streams)

    # --- Everything after simulation is engine-independent. -----------
    # Realized epochs: each session starts where the previous one ended
    # plus the planned gap.
    realized_epochs: List[float] = []
    total_durations: List[float] = []
    epoch = config.start_epoch_s
    gaps = plan.gaps.tolist()
    for i, session in enumerate(sessions):
        realized_epochs.append(epoch)
        total_durations.append(session.total_duration_s)
        epoch += session.total_duration_s + gaps[i]

    proxy = WebProxy()
    device = DeviceLogger()
    weblogs: List[WeblogEntry] = []
    summaries: List[PlaybackSummary] = []
    segment_records: List[SegmentRecord] = []
    for i, session in enumerate(sessions):
        weblogs.extend(
            proxy.observe(
                session,
                subscriber_id=plan.subscribers[i],
                start_epoch_s=realized_epochs[i],
                encrypted=config.encrypted,
                rng=streams[i].proxy,
            )
        )
        summaries.append(device.playback_summary(session))
        segment_records.extend(
            device.segment_records(session, start_epoch_s=realized_epochs[i])
        )
    weblogs.extend(
        build_noise_entries(
            plan, realized_epochs, total_durations, config.encrypted
        )
    )

    weblogs.sort(key=lambda e: e.timestamp_s)

    if config.encrypted:
        records = records_from_reconstruction(
            SessionReconstructor().reconstruct(weblogs),
            summaries,
            segment_records,
        )
    else:
        records = group_cleartext_sessions(weblogs)

    elapsed = time.perf_counter() - started
    _SESSIONS_TOTAL.labels(engine=engine).inc(len(sessions))
    _GENERATION_SECONDS.labels(engine=engine).observe(elapsed)
    if elapsed > 0:
        _SESSIONS_PER_SECOND.labels(engine=engine).set(len(sessions) / elapsed)

    return Corpus(
        sessions=sessions,
        records=records,
        weblogs=weblogs,
        summaries=summaries,
        segment_records=segment_records,
    )


def generate_cleartext_corpus(
    n_sessions: int,
    seed: int = 0,
    adaptive_fraction: float = 0.03,
    engine: Optional[str] = None,
) -> Corpus:
    """The §3.1-style operator corpus (legacy-heavy, cleartext)."""
    return generate_corpus(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=adaptive_fraction,
            mobility=STATIC_USER,
        ),
        engine=engine,
    )


def generate_adaptive_corpus(
    n_sessions: int,
    seed: int = 0,
    transient_outage_prob: float = 0.45,
    engine: Optional[str] = None,
) -> Corpus:
    """All-HAS cleartext corpus for the representation experiments.

    Transient dips are more frequent than in the default corpus so both
    populations of Figure 4 (with/without quality switches) are well
    represented.
    """
    return generate_corpus(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=1.0,
            mobility=STATIC_USER,
            transient_outage_prob=transient_outage_prob,
        ),
        engine=engine,
    )


def generate_encrypted_corpus(
    n_sessions: int = 722,
    seed: int = 42,
    adaptive_fraction: float = 1.0,
    engine: Optional[str] = None,
) -> Corpus:
    """The §5.2 instrumented-commuter corpus (encrypted, one subscriber).

    The stock Android app always streams adaptively, so the default is
    all-HAS; the commuter mobility makes degraded conditions (and thus
    stalls and low/variable qualities) more frequent than in the
    cleartext corpus, reproducing the §5.3 distribution shift.
    """
    return generate_corpus(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=adaptive_fraction,
            mobility=COMMUTER_USER,
            encrypted=True,
            single_subscriber=True,
        ),
        engine=engine,
    )
