"""Corpus plan: all pre-session decisions, drawn in one batched pass.

The plan stream decides everything that can be known before any session
is simulated — where the user is, which videos play, which paths get
coverage dips, which sessions are adaptive and at what quality cap, the
inter-session gaps and the background-noise traffic.  Both corpus
engines consume the same :class:`CorpusPlan`, so these decisions are
bit-identical by construction; only the per-session simulation differs
between engines.

Draw order (fixed; changing it changes every same-seed corpus):

1. mobility walk uniforms,
2. catalog batch (durations, complexities, video ids),
3. outage rolls, outage counts, then per-outage start/duration/factor,
4. adaptive rolls,
5. quality-cap uniforms (drawn for every session, used by adaptive ones),
6. inter-session gaps,
7. Poisson noise counts, then per-entry host/size/offset/transaction.

Diurnal scaling uses the *scheduled* epochs (nominal video duration +
gap), which are known at plan time; realized epochs (actual session
wall durations) are computed after simulation and only shift weblog
timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.capture.proxy import server_ip_for
from repro.capture.weblog import WeblogEntry
from repro.network.conditions import ConditionProfile
from repro.network.mobility import Place
from repro.network.path import Outage

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.datasets.generate import CorpusConfig

__all__ = ["NOISE_HOSTS", "CorpusPlan", "build_plan", "build_noise_entries"]

#: Background (non-video) traffic hosts seen between sessions.
NOISE_HOSTS = (
    "www.facebook.com",
    "cdn.twitter.com",
    "www.google.com",
    "static.news-site.example",
    "api.weatherapp.example",
)


@dataclass
class CorpusPlan:
    """Columns of pre-session decisions, one row per session."""

    videos: list                      # List[Video]
    places: List[Place]
    profiles: List[ConditionProfile]  # diurnal-scaled where configured
    outages: List[List[Outage]]
    adaptive: np.ndarray              # bool
    caps: List[int]
    gaps: np.ndarray                  # float seconds
    scheduled_epochs: np.ndarray      # float seconds
    subscribers: List[str]
    noise_counts: np.ndarray          # int, per session
    noise_host_idx: np.ndarray        # int, flat over all noise entries
    noise_sizes: np.ndarray           # int
    noise_ts_u: np.ndarray            # uniform in [0, 1)
    noise_transactions: np.ndarray    # float seconds

    @property
    def n_sessions(self) -> int:
        return len(self.videos)

    def rows(self, start: int, stop: int) -> "CorpusPlan":
        """Sessions ``start..stop-1`` as a plan of their own.

        Each session draws only from its own streams, so simulating a
        row view with ``streams[start:stop]`` yields the same sessions
        as those rows of the whole plan.
        """
        cursor = np.concatenate(([0], np.cumsum(self.noise_counts)))
        lo, hi = int(cursor[start]), int(cursor[stop])
        return CorpusPlan(
            videos=self.videos[start:stop],
            places=self.places[start:stop],
            profiles=self.profiles[start:stop],
            outages=self.outages[start:stop],
            adaptive=self.adaptive[start:stop],
            caps=self.caps[start:stop],
            gaps=self.gaps[start:stop],
            scheduled_epochs=self.scheduled_epochs[start:stop],
            subscribers=self.subscribers[start:stop],
            noise_counts=self.noise_counts[start:stop],
            noise_host_idx=self.noise_host_idx[lo:hi],
            noise_sizes=self.noise_sizes[lo:hi],
            noise_ts_u=self.noise_ts_u[lo:hi],
            noise_transactions=self.noise_transactions[lo:hi],
        )


def build_plan(
    config: "CorpusConfig",
    rng: np.random.Generator,
    catalog,
) -> CorpusPlan:
    """Draw the full corpus plan from the plan stream."""
    n = config.n_sessions
    places = config.mobility.walk(n, rng)
    videos = catalog.sample_batch(n, rng)
    durations = np.array([v.duration_s for v in videos], dtype=float)

    # --- Transient coverage dips, concentrated on mobile regimes.
    static = np.array([p.static for p in places], dtype=bool)
    outage_prob = config.transient_outage_prob * np.where(static, 0.4, 1.6)
    outage_rolls = rng.random(n)
    lo, hi = config.transient_outage_count
    outage_counts_raw = rng.integers(lo, hi + 1, size=n)
    has_outage = outage_rolls < outage_prob
    outage_counts = np.where(has_outage, outage_counts_raw, 0)
    per_outage_dur = np.repeat(durations, outage_counts)
    starts = rng.uniform(5.0, np.maximum(10.0, per_outage_dur))
    out_durs = rng.uniform(
        *config.transient_outage_duration_s, size=per_outage_dur.size
    )
    factors = rng.uniform(
        *config.transient_outage_factor, size=per_outage_dur.size
    )
    outages: List[List[Outage]] = []
    cursor = 0
    for count in outage_counts.tolist():
        outages.append(
            [
                Outage(
                    float(starts[j]),
                    float(starts[j]) + float(out_durs[j]),
                    float(factors[j]),
                )
                for j in range(cursor, cursor + count)
            ]
        )
        cursor += count

    # --- Player kind and quality cap.
    adaptive = rng.random(n) < config.adaptive_fraction
    cap_values = list(config.quality_caps.keys())
    cap_probs = np.array(list(config.quality_caps.values()), dtype=float)
    cap_probs = cap_probs / cap_probs.sum()
    cap_cum = np.cumsum(cap_probs)
    cap_u = rng.random(n)
    cap_idx = np.minimum(
        np.searchsorted(cap_cum, cap_u, side="right"), len(cap_values) - 1
    )
    caps = [cap_values[j] for j in cap_idx.tolist()]

    # --- Timing and background noise.
    gaps = rng.uniform(*config.session_gap_s, size=n)
    noise_counts = rng.poisson(config.noise_entries_per_gap, size=n)
    total_noise = int(noise_counts.sum())
    noise_host_idx = rng.integers(0, len(NOISE_HOSTS), size=total_noise)
    noise_sizes = rng.integers(500, 200_000, size=total_noise)
    noise_ts_u = rng.random(total_noise)
    noise_transactions = rng.uniform(0.02, 1.5, size=total_noise)

    scheduled_epochs = np.empty(n, dtype=float)
    epoch = config.start_epoch_s
    for i in range(n):
        scheduled_epochs[i] = epoch
        epoch += durations[i] + gaps[i]

    profiles: List[ConditionProfile] = []
    for i, place in enumerate(places):
        profile = place.profile
        if config.diurnal is not None:
            profile = config.diurnal.scale_profile(
                profile, float(scheduled_epochs[i])
            )
        profiles.append(profile)

    subscribers = (
        ["sub-000"] * n
        if config.single_subscriber
        else [f"sub-{i:06d}" for i in range(n)]
    )

    return CorpusPlan(
        videos=videos,
        places=list(places),
        profiles=profiles,
        outages=outages,
        adaptive=adaptive,
        caps=caps,
        gaps=gaps,
        scheduled_epochs=scheduled_epochs,
        subscribers=subscribers,
        noise_counts=noise_counts,
        noise_host_idx=noise_host_idx,
        noise_sizes=noise_sizes,
        noise_ts_u=noise_ts_u,
        noise_transactions=noise_transactions,
    )


def build_noise_entries(
    plan: CorpusPlan,
    realized_epochs: Sequence[float],
    total_durations: Sequence[float],
    encrypted: bool,
) -> List[WeblogEntry]:
    """Background-traffic entries for every inter-session gap.

    Timestamps are clamped inside the session's own gap: the offset
    after session end is ``min(5, gap) + u * (gap - min(5, gap))``, so a
    noise entry can never land inside the next session's window.
    """
    entries: List[WeblogEntry] = []
    port = 443 if encrypted else 80
    cursor = 0
    host_idx = plan.noise_host_idx.tolist()
    sizes = plan.noise_sizes.tolist()
    ts_u = plan.noise_ts_u.tolist()
    transactions = plan.noise_transactions.tolist()
    for i, count in enumerate(plan.noise_counts.tolist()):
        if count == 0:
            continue
        gap = float(plan.gaps[i])
        lo = min(5.0, gap)
        span = gap - lo
        end = realized_epochs[i] + total_durations[i]
        subscriber = plan.subscribers[i]
        for j in range(cursor, cursor + count):
            host = NOISE_HOSTS[host_idx[j]]
            size = sizes[j]
            entries.append(
                WeblogEntry(
                    subscriber_id=subscriber,
                    timestamp_s=end + lo + ts_u[j] * span,
                    server_name=host,
                    server_ip=server_ip_for(host),
                    server_port=port,
                    object_bytes=size,
                    transaction_s=transactions[j],
                    rtt_min_ms=40.0,
                    rtt_avg_ms=55.0,
                    rtt_max_ms=80.0,
                    bdp_bytes=0.0,
                    bif_avg_bytes=float(min(size, 14600)),
                    bif_max_bytes=float(min(size, 14600)),
                    loss_pct=0.0,
                    retx_pct=0.0,
                    encrypted=encrypted,
                    uri=None if encrypted else f"https://{host}/page",
                )
            )
        cursor += count
    return entries
