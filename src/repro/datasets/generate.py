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

Engine and oracle
-----------------
:func:`generate_corpus` batches the path fading and TCP rounds of all
sessions through numpy (:mod:`repro.datasets.genx.vector`).
:func:`reference_corpus` simulates each session through the original
object-per-session classes instead and is the bit-identity oracle the
tests compare against.  Both consume the same pre-drawn
:class:`~repro.datasets.genx.plan.CorpusPlan` and per-session RNG
streams and share one capture-and-prepare tail, so a fixed seed yields
bit-identical corpora either way.  :func:`generate_weblogs` runs the
vectorized engine and the same proxy capture a block of sessions at a
time and keeps only the weblogs: the replay traces of
:mod:`repro.serving.replay`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capture.device import DeviceLogger, PlaybackSummary, SegmentRecord
from repro.capture.proxy import WebProxy
from repro.capture.reconstruction import SessionReconstructor
from repro.capture.weblog import WeblogEntry
from repro.network.diurnal import DiurnalLoadModel
from repro.network.mobility import COMMUTER_USER, STATIC_USER, MobilityModel
from repro.network.path import NetworkPath
from repro.network.tcp import TcpConnection
from repro.obs import get_registry, trace
from repro.streaming.adaptive import AdaptivePlayer, AdaptivePlayerConfig
from repro.streaming.catalog import DASH_LADDER, VideoCatalog
from repro.streaming.progressive import ProgressivePlayer
from repro.streaming.session import VideoSession

from .genx.plan import CorpusPlan, build_noise_entries, build_plan
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
    "generate_weblogs",
    "reference_corpus",
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

#: Sessions :func:`generate_weblogs` simulates, captures and drops at a
#: time.  Smaller blocks hold fewer sessions at once but pay the
#: vectorized engine's per-round overhead over fewer lanes.
_TRACE_BLOCK = 128

_REG = get_registry()
_SESSIONS_TOTAL = _REG.counter(
    "repro_datasets_sessions_total",
    "Sessions generated into corpora.",
)
_GENERATION_SECONDS = _REG.histogram(
    "repro_datasets_generation_seconds",
    "Wall-clock seconds per corpus generation run.",
)
_SESSIONS_PER_SECOND = _REG.gauge(
    "repro_datasets_sessions_per_second",
    "Sessions per second of the most recent corpus generation run.",
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

    def records_with_representation_truth(self) -> List[SessionRecord]:
        return [
            r
            for r in self.records
            if r.resolutions is not None and r.resolutions.size > 0
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


def _plan(config: CorpusConfig) -> Tuple[CorpusPlan, List[SessionStreams]]:
    catalog = VideoCatalog(mean_duration_s=config.mean_video_duration_s)
    plan_rng, streams = corpus_streams(config.seed, config.n_sessions)
    return build_plan(config, plan_rng, catalog), streams


def generate_corpus(config: CorpusConfig) -> Corpus:
    """Simulate sessions, capture them through the proxy, prepare records.

    Simulation runs on the vectorized engine; the corpus is
    bit-identical to :func:`reference_corpus` for the same config.
    """
    # Imported on first use: every process that imports ``repro`` loads
    # this module, serving workers included, and most never generate.
    from .genx.vector import simulate_sessions

    started = time.perf_counter()
    plan, streams = _plan(config)
    corpus = _capture(config, plan, streams, simulate_sessions(plan, streams))
    _record_generation(plan.n_sessions, time.perf_counter() - started)
    return corpus


def generate_weblogs(config: CorpusConfig) -> List[WeblogEntry]:
    """``generate_corpus(config).weblogs``, a block of sessions at a time.

    Only the proxy view is built: no device ground truth, no records.
    The plan is simulated in blocks of ``_TRACE_BLOCK`` sessions, and
    each block is captured and dropped before the next is simulated,
    so the memory beside the returned entries is one block's sessions
    whatever ``config.n_sessions`` is.  Sessions draw only from their
    own streams and the realized epochs carry from block to block, so
    the entries equal the corpus's, field for field.
    """
    from .genx.vector import simulate_sessions

    started = time.perf_counter()
    plan, streams = _plan(config)
    capture = _ProxyCapture(config, plan)
    for start in range(0, plan.n_sessions, _TRACE_BLOCK):
        stop = min(start + _TRACE_BLOCK, plan.n_sessions)
        # Taken off the list: a block's generators are spent once it
        # is captured, and all of them would weigh a quarter of the
        # trace.
        block = streams[: stop - start]
        del streams[: stop - start]
        capture.observe(
            simulate_sessions(plan.rows(start, stop), block), block
        )
    weblogs = capture.finish()
    # The entries are what outlives this burst of allocations.  One
    # full collection where the burst ends counts them in the
    # collector's long-lived baseline and restarts its schedule, so the
    # next full pass (about 50 ms over a 60k-entry trace) does not fall
    # due inside whatever the caller runs next: without it, one landed
    # in most serve-burst replays.
    gc.collect()
    _record_generation(plan.n_sessions, time.perf_counter() - started)
    return weblogs


def _record_generation(n_sessions: int, elapsed: float) -> None:
    _SESSIONS_TOTAL.inc(n_sessions)
    _GENERATION_SECONDS.observe(elapsed)
    if elapsed > 0:
        _SESSIONS_PER_SECOND.set(n_sessions / elapsed)


def reference_corpus(config: CorpusConfig) -> Corpus:
    """:func:`generate_corpus` on the per-session oracle simulation.

    The bit-identity specification of the vectorized engine: tests and
    benchmarks compare the two field for field.
    """
    plan, streams = _plan(config)
    return _capture(
        config, plan, streams, _simulate_sessions_oracle(plan, streams)
    )


class _ProxyCapture:
    """The proxy half of corpus capture, fed sessions in plan order.

    Each session starts where the previous one ended plus its planned
    gap (the realized epochs), whether the sessions arrive in one block
    or many; :meth:`finish` adds every gap's background noise and sorts
    the weblogs by timestamp.
    """

    def __init__(self, config: CorpusConfig, plan: CorpusPlan) -> None:
        self.config = config
        self.plan = plan
        self.proxy = WebProxy()
        self.weblogs: List[WeblogEntry] = []
        self.realized_epochs: List[float] = []
        self.total_durations: List[float] = []
        self._epoch = config.start_epoch_s
        self._gaps = plan.gaps.tolist()

    def observe(
        self, sessions: List[VideoSession], streams: List[SessionStreams]
    ) -> None:
        """Capture the plan's next sessions, each with its own streams."""
        for session, session_streams in zip(sessions, streams):
            i = len(self.realized_epochs)
            self.realized_epochs.append(self._epoch)
            self.total_durations.append(session.total_duration_s)
            self.weblogs.extend(
                self.proxy.observe(
                    session,
                    subscriber_id=self.plan.subscribers[i],
                    start_epoch_s=self._epoch,
                    encrypted=self.config.encrypted,
                    rng=session_streams.proxy,
                )
            )
            self._epoch += session.total_duration_s + self._gaps[i]

    def finish(self) -> List[WeblogEntry]:
        self.weblogs.extend(
            build_noise_entries(
                self.plan,
                self.realized_epochs,
                self.total_durations,
                self.config.encrypted,
            )
        )
        self.weblogs.sort(key=lambda e: e.timestamp_s)
        return self.weblogs


def _capture(
    config: CorpusConfig,
    plan: CorpusPlan,
    streams: List[SessionStreams],
    sessions: List[VideoSession],
) -> Corpus:
    capture = _ProxyCapture(config, plan)
    capture.observe(sessions, streams)
    weblogs = capture.finish()

    device = DeviceLogger()
    summaries = [device.playback_summary(session) for session in sessions]
    segment_records: List[SegmentRecord] = []
    for session, epoch in zip(sessions, capture.realized_epochs):
        segment_records.extend(
            device.segment_records(session, start_epoch_s=epoch)
        )

    if config.encrypted:
        reconstructed = SessionReconstructor().reconstruct(weblogs)
    with trace("datasets.preparation") as span:
        if config.encrypted:
            records = records_from_reconstruction(
                reconstructed, summaries, segment_records
            )
        else:
            records = group_cleartext_sessions(weblogs)
        span.add("sessions", len(records))

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
) -> Corpus:
    """The §3.1-style operator corpus (legacy-heavy, cleartext)."""
    return generate_corpus(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=adaptive_fraction,
            mobility=STATIC_USER,
        )
    )


def generate_adaptive_corpus(
    n_sessions: int,
    seed: int = 0,
    transient_outage_prob: float = 0.45,
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
        )
    )


def generate_encrypted_corpus(
    n_sessions: int = 722,
    seed: int = 42,
    adaptive_fraction: float = 1.0,
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
        )
    )
