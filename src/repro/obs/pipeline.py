"""Per-record trace propagation through the serving pipeline.

The serving path (``submit → queue → shard dequeue → validate →
tracker → micro-batch → diagnose``) was observable only in aggregate:
queue depths, entry counters, one drain histogram.  None of it could
answer the operator's actual question — *where did this diagnosis
spend its 40 ms?*  This module adds the per-record layer:

``TraceContext``
    A tiny per-entry stamp (trace id deterministic from
    subscriber + submit sequence, monotonic per-stage timestamps)
    attached to the entry at ``submit`` and carried — by object
    attribute, so queue items and shard code keep their shapes — all
    the way to the diagnosis that closes the session.
``PipelineTelemetry``
    Owns the staged latency histograms
    (``repro_serving_stage_seconds{stage=...}``), the end-to-end
    histogram (``repro_serving_e2e_seconds``) and a bounded pool of
    *exemplar* traces: every ``sample_every``-th trace is retained in
    full as a span tree, so ``health()`` and postmortems can show a
    concrete worked example next to the distributions.
``ShardTelemetry``
    The per-shard recording surface.  Stage durations are buffered in
    plain lists owned by the shard thread and flushed into the
    histograms with :meth:`~repro.obs.registry.Histogram.observe_many`
    at batch boundaries — one lock per stage per batch instead of
    several per record.  Full telemetry still costs about +32% on the
    serving benchmark's replay, against its 5% overhead gate.

Stage semantics (see the ARCHITECTURE "Operational telemetry" table):

=============  =====================================================
``submit``     ``QoEService.submit`` entry → record enqueued
``queue_wait`` enqueued → shard worker dequeues (includes any
               blocked-put time under the ``block`` policy)
``validate``   dequeue → field + monotonicity validation done
``track``      validation → session tracker update done
``batch_wait`` session closed → its diagnosis batch starts
``diagnose``   one batch's feature build + forest inference + alarm
               evaluation (alarm emission is part of the monitor's
               diagnose call, so it is folded into this stage)
``alarm_sweep``the shutdown-time final alarm sweep, per shard
=============  =====================================================

End-to-end (``repro_serving_e2e_seconds``) is measured per *closed
session*: from the submit of the entry that closed it to the moment
its diagnosis batch completed — the operational "diagnosis freshness"
number.  A record that closes several sessions stamps them all with
its own context.

Determinism: nothing here touches the data path — contexts ride as an
extra attribute, timestamps come from ``time.perf_counter`` and feed
only histograms — so sharded diagnosis/alarm multisets remain
bit-identical to the serial monitor with telemetry enabled.
"""

from __future__ import annotations

import math
import threading
import zlib
from collections import deque
from typing import Dict, List, Optional, Tuple

from .registry import MetricsRegistry, get_registry


def _finite(value: float) -> float:
    """JSON/health payloads have no Infinity; clamp empty-histogram sentinels."""
    return value if math.isfinite(value) else 0.0

__all__ = [
    "STAGES",
    "LATENCY_BUCKETS",
    "TraceContext",
    "PipelineTelemetry",
    "ShardTelemetry",
]

#: Pipeline stages, in record order.
STAGES: Tuple[str, ...] = (
    "submit",
    "queue_wait",
    "validate",
    "track",
    "batch_wait",
    "diagnose",
    "alarm_sweep",
)

#: Sub-millisecond-capable buckets — pipeline stages run far below the
#: experiment-scale defaults.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Buffered stage observations per shard before a safety-valve flush
#: (normal flushes happen at batch boundaries, well before this).
_FLUSH_HIGH_WATER = 512


class TraceContext:
    """Per-record trace stamp riding through the pipeline.

    Deliberately minimal: subscriber + submit sequence (from which the
    trace id derives deterministically), a sampled flag, and the
    monotonic timestamps of the stage boundaries other stages need
    later (submit for e2e, enqueue for queue wait, tracked for batch
    wait) — intra-shard boundaries live in locals on the hot path.
    The ``stages`` dict is populated only for sampled contexts —
    unsampled records pay for three float slots and nothing else.
    """

    __slots__ = (
        "subscriber",
        "seq",
        "sampled",
        "t_submit",
        "t_enqueued",
        "t_tracked",
        "stages",
    )

    def __init__(self, subscriber: str, seq: int, sampled: bool) -> None:
        self.subscriber = subscriber
        self.seq = seq
        self.sampled = sampled
        self.t_submit = 0.0
        self.t_enqueued = 0.0
        self.t_tracked = 0.0
        self.stages: Optional[Dict[str, float]] = {} if sampled else None

    @property
    def trace_id(self) -> str:
        """Deterministic id: CRC32 of the subscriber + submit sequence."""
        return (
            f"{zlib.crc32(self.subscriber.encode('utf-8')):08x}"
            f"-{self.seq:08d}"
        )


class ShardTelemetry:
    """One shard's recording surface: buffered stage durations.

    Owned and written by exactly one shard thread; the buffers are
    plain lists, flushed into the shared histograms under one lock per
    stage at batch boundaries (:meth:`flush`).  Restart-safe: the
    replacement thread inherits the same object, and a flush of a
    partially filled buffer is always valid.

    The per-entry stages (``queue_wait``, ``validate``, ``track``) are
    also exposed as direct list attributes (``buf_queue_wait``, ...)
    aliasing the same buffers: the shard's hot loop appends to them
    directly — one attribute load and one ``list.append`` per stage —
    because at tens of thousands of entries per second even a method
    call per stage is measurable (full telemetry already costs about
    +32% on the serving benchmark's replay, against a 5% gate).
    ``flush`` therefore clears the lists *in place*, preserving the
    aliases.
    """

    __slots__ = (
        "_parent",
        "index",
        "_buffers",
        "buf_queue_wait",
        "buf_validate",
        "buf_track",
    )

    def __init__(self, parent: "PipelineTelemetry", index: int) -> None:
        self._parent = parent
        self.index = index
        self._buffers: Dict[str, List[float]] = {
            stage: [] for stage in STAGES
        }
        self._buffers["e2e"] = []
        self.buf_queue_wait = self._buffers["queue_wait"]
        self.buf_validate = self._buffers["validate"]
        self.buf_track = self._buffers["track"]

    def note(
        self,
        stage: str,
        duration_s: float,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Buffer one stage duration (and mirror it on sampled traces)."""
        buffer = self._buffers[stage]
        buffer.append(duration_s)
        if ctx is not None and ctx.stages is not None:
            ctx.stages[stage] = ctx.stages.get(stage, 0.0) + duration_s
        if len(buffer) >= _FLUSH_HIGH_WATER:
            self.flush()

    def complete(self, ctx: TraceContext, t_done: float) -> None:
        """A session diagnosis finished for the record behind ``ctx``."""
        self._buffers["e2e"].append(t_done - ctx.t_submit)
        if ctx.stages is not None:
            self._parent._add_exemplar(ctx, t_done - ctx.t_submit, self.index)

    def flush(self) -> None:
        """Drain the buffers into the histograms (one lock per stage).

        Clears each buffer in place so the ``buf_*`` hot-path aliases
        stay valid; ``observe_many`` has fully consumed the values
        before the clear (same thread, synchronous call).
        """
        for stage, values in self._buffers.items():
            if values:
                self._parent._observe_stage(stage, values)
                values.clear()


class PipelineTelemetry:
    """Staged latency histograms + exemplar traces for one service.

    Parameters
    ----------
    registry:
        Metrics registry to declare into (process default when omitted).
    sample_every:
        Every Nth submitted record is retained in full as an exemplar
        span tree (1 = every record; useful in tests).
    max_exemplars:
        Exemplar pool bound (oldest evicted).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_every: int = 128,
        max_exemplars: int = 32,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        reg = registry if registry is not None else get_registry()
        self.sample_every = sample_every
        self._stage_family = reg.histogram(
            "repro_serving_stage_seconds",
            "Per-record latency of each serving pipeline stage.",
            labelnames=("stage",),
            buckets=LATENCY_BUCKETS,
        )
        self._e2e = reg.histogram(
            "repro_serving_e2e_seconds",
            "Submit-to-diagnosis latency of closed sessions.",
            buckets=LATENCY_BUCKETS,
        )
        self._stage_children = {
            stage: self._stage_family.labels(stage=stage) for stage in STAGES
        }
        self._exemplar_lock = threading.Lock()
        self._exemplars: deque = deque(maxlen=max_exemplars)
        self._sampled_total = 0
        # Service-side submit-stage buffer (its own lock: submit may be
        # driven by any thread, unlike the shard-owned buffers).
        self._submit_lock = threading.Lock()
        self._submit_buf: List[float] = []

    # ------------------------------------------------------------------
    # Service-side API
    # ------------------------------------------------------------------

    def trace_context(self, subscriber: str, seq: int) -> TraceContext:
        """A fresh context for submit number ``seq`` (deterministic id)."""
        return TraceContext(
            subscriber, seq, sampled=seq % self.sample_every == 0
        )

    def note_submit(self, ctx: TraceContext) -> None:
        """Record the submit stage (``t_submit`` → ``t_enqueued``)."""
        duration = ctx.t_enqueued - ctx.t_submit
        if ctx.stages is not None:
            ctx.stages["submit"] = duration
        with self._submit_lock:
            self._submit_buf.append(duration)
            if len(self._submit_buf) >= _FLUSH_HIGH_WATER:
                buf, self._submit_buf = self._submit_buf, []
            else:
                return
        self._stage_children["submit"].observe_many(buf)

    def for_shard(self, index: int) -> ShardTelemetry:
        return ShardTelemetry(self, index)

    def flush(self) -> None:
        """Flush the service-side submit buffer (drain path)."""
        with self._submit_lock:
            buf, self._submit_buf = self._submit_buf, []
        if buf:
            self._stage_children["submit"].observe_many(buf)

    # ------------------------------------------------------------------
    # Shard callbacks
    # ------------------------------------------------------------------

    def _observe_stage(self, stage: str, values: List[float]) -> None:
        if stage == "e2e":
            self._e2e.observe_many(values)
        else:
            self._stage_children[stage].observe_many(values)

    def _add_exemplar(
        self, ctx: TraceContext, e2e_s: float, shard: int
    ) -> None:
        exemplar = {
            "trace_id": ctx.trace_id,
            "subscriber": ctx.subscriber,
            "seq": ctx.seq,
            "shard": shard,
            "name": "e2e",
            "duration_s": e2e_s,
            "children": [
                {"name": stage, "duration_s": ctx.stages[stage]}
                for stage in STAGES
                if ctx.stages is not None and stage in ctx.stages
            ],
        }
        with self._exemplar_lock:
            self._exemplars.append(exemplar)
            self._sampled_total += 1

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def e2e_histogram(self):
        """The end-to-end histogram child (SLO engine target)."""
        return self._e2e._require_default()

    def stage_histogram(self, stage: str):
        """One stage's histogram child (SLO engine target)."""
        if stage not in self._stage_children:
            raise KeyError(
                f"unknown stage {stage!r}; stages are {STAGES}"
            )
        return self._stage_children[stage]

    def exemplars(self) -> List[dict]:
        """The retained exemplar span trees, oldest first."""
        with self._exemplar_lock:
            return list(self._exemplars)

    def stage_snapshot(self) -> Dict:
        """Latency breakdown for ``health()`` and postmortems."""
        stages = {}
        for stage, child in self._stage_children.items():
            state = child.state()
            count = state["count"]
            stages[stage] = {
                "count": count,
                "mean_s": state["sum"] / count if count else 0.0,
                "p50_s": _finite(child.quantile(0.5)),
                "p99_s": _finite(child.quantile(0.99)),
            }
        e2e = self._e2e._require_default()
        state = e2e.state()
        count = state["count"]
        return {
            "stages": stages,
            "e2e": {
                "count": count,
                "mean_s": state["sum"] / count if count else 0.0,
                "p50_s": _finite(e2e.quantile(0.5)),
                "p99_s": _finite(e2e.quantile(0.99)),
            },
            "exemplars_retained": len(self._exemplars),
            "exemplars_sampled": self._sampled_total,
            "sample_every": self.sample_every,
        }
