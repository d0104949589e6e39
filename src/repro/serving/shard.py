"""Shard workers: subscriber-partitioned online inference loops.

The correctness unit of the online pipeline is the *subscriber*: the
tracker needs each subscriber's entries in timestamp order, and health
rollups and alarm rules accumulate per subscriber.  Nothing couples
two subscribers — which makes subscriber identity the natural
partition key.  :func:`shard_index` hash-partitions subscribers over N
shards (a *stable* hash: ``zlib.crc32``, not Python's salted ``hash``)
and :class:`ShardWorker` runs one shard:

    ingest queue → validate (reject → dead-letter) →
    OnlineSessionTracker → MicroBatcher →
    RealTimeMonitor.diagnose_records (health, alarms, callbacks)

Each worker owns its own tracker, batcher and
:class:`~repro.realtime.monitor.RealTimeMonitor`, and reuses the
monitor's diagnosis/health/alarm code verbatim — so N concurrent
shards produce exactly the diagnoses and alarms one serial monitor
would, merely interleaved differently across subscribers (the
``repro.serving.service`` determinism guarantee).

The model is resolved from the :class:`~repro.serving.models.ModelManager`
once per batch, so a hot-reload takes effect at the next batch
boundary and no batch ever mixes model versions.

The worker takes entries off its queue in batches: one hand-off
moves up to :data:`_PULL_BATCH` entries into the worker's *pulled
batch*, and the loop steps through them one at a time — fault hook,
validation, tracker, batcher, heartbeat — exactly as if each had been
dequeued alone.  Pulled entries are in flight, no longer queued, so a
``drop_oldest`` queue cannot evict them.

**Failure model.**  The worker is *restartable*: its queue, pulled
batch, tracker, batcher and monitor are plain state owned by this
object, and the thread is a replaceable execution vehicle.  When the
run loop dies (a bug — or an
:class:`~repro.faults.injector.InjectedFault` from a chaos plan), the
worker lands in the ``failed`` state with the exception preserved;
:meth:`restart` mounts a fresh thread over the same state, which
resumes from the pulled batch and then the queue, losing at most the
single in-flight entry.  A shard that is never restarted hands its
pulled batch and its queue to the supervisor's circuit breaker
(:meth:`drain_backlog`).  A per-iteration heartbeat lets the
:class:`~repro.serving.supervisor.ShardSupervisor` distinguish dead
(restart) from wedged (flag) without waiting for drain.  Malformed
records never reach that path at all: they fail
:meth:`~repro.capture.weblog.WeblogEntry.validate` (or the
per-subscriber clock-monotonicity guard) and are quarantined in the
:class:`~repro.serving.dlq.DeadLetterQueue` instead.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.capture.weblog import MalformedRecordError, WeblogEntry
from repro.core.framework import SessionDiagnosis
from repro.obs import ShardTelemetry, get_logger, get_recorder, get_registry
from repro.obs.pipeline import _FLUSH_HIGH_WATER as _TEL_HIGH_WATER
from repro.online.early import (
    ConvergenceReport,
    EarlyPredictor,
    ProvisionalDiagnosis,
)
from repro.realtime.monitor import Alarm, RealTimeMonitor, SubscriberHealth
from repro.realtime.tracker import OnlineSessionTracker

from .batcher import MicroBatcher
from .dlq import DeadLetterQueue
from .models import ModelManager
from .queue import BoundedQueue, QueueClosed, QueueEmpty

__all__ = ["shard_index", "ShardSpec", "ShardWorker"]

_LOG = get_logger("serving.shard")

_REG = get_registry()
_ENTRIES = _REG.counter(
    "repro_serving_entries_total",
    "Weblog entries processed by shard workers.",
    labelnames=("shard",),
)

#: Poll timeout when a shard has nothing batched and nothing queued;
#: bounds how long shutdown and deadline checks can lag.
_IDLE_POLL_S = 0.05
#: Most entries one queue hand-off moves into the worker's pulled
#: batch: one lock hold and one wake-up per pull instead of per entry.
_PULL_BATCH = 64
#: How long a restart waits for a failed shard's thread to finish its
#: postmortem before refusing to mount a second thread.
_FAILED_THREAD_JOIN_S = 5.0


def shard_index(subscriber_id: str, n_shards: int) -> int:
    """Stable hash partition of a subscriber over ``n_shards``.

    CRC32 of the UTF-8 id — deterministic across processes, runs and
    Python versions (the built-in ``hash`` is salted per process, which
    would re-partition subscribers on every restart).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(subscriber_id.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class ShardSpec:
    """The settings that define one shard, whatever backend runs it.

    :class:`~repro.serving.service.QoEService` builds one spec and
    every shard it starts — a thread shard, a socket worker (the spec
    rides in its :class:`~repro.serving.netshard.NetShardConfig`) or
    the serial fallback — is built from it, so no backend can run a
    setting the others do not.

    Attributes
    ----------
    queue_capacity:
        Bound of the shard's ingest queue (see :mod:`repro.serving.queue`).
    max_batch, max_delay_s:
        Micro-batching bounds (see :mod:`repro.serving.batcher`).
    idle_gap_s, min_media_chunks:
        Tracker parameters, as in
        :class:`~repro.realtime.tracker.OnlineSessionTracker`.
    severe_alarm_after, stall_ratio_alarm, min_sessions_for_ratio:
        Alarm rules, as in :class:`~repro.realtime.monitor.RealTimeMonitor`.
    clock_skew_tolerance_s:
        How far a subscriber's timestamps may regress before the entry
        is treated as a skewed-clock artifact and quarantined.
    early_after_chunks, early_confidence:
        Enable the early-prediction path: an
        :class:`~repro.online.early.EarlyPredictor` reads each open
        session's chunk prefix from the shard's tracker and emits
        provisional diagnoses after that many chunks, filtered to
        combined confidence >= ``early_confidence``.  ``None``
        (default) keeps the per-record hot path identical to the
        pre-early pipeline.
    """

    queue_capacity: int = 1024
    max_batch: int = 32
    max_delay_s: float = 0.25
    idle_gap_s: float = 30.0
    min_media_chunks: int = 3
    severe_alarm_after: int = 3
    stall_ratio_alarm: float = 0.5
    min_sessions_for_ratio: int = 5
    clock_skew_tolerance_s: float = 5.0
    early_after_chunks: Optional[int] = None
    early_confidence: float = 0.0

    def __post_init__(self) -> None:
        if self.clock_skew_tolerance_s < 0:
            raise ValueError("clock_skew_tolerance_s must be >= 0")

    def ingest_queue(self, name: str, policy: str = "block") -> BoundedQueue:
        """A shard ingest queue of this spec's capacity."""
        return BoundedQueue(
            capacity=self.queue_capacity, policy=policy, name=name
        )


class ShardWorker:
    """One shard: a thread draining its queue into tracker + batcher + monitor.

    Not constructed directly in normal use —
    :class:`~repro.serving.service.QoEService` builds one per shard.
    The worker builds its own batcher, tracker, monitor and early
    predictor from ``spec`` (a :class:`ShardSpec`).

    Parameters
    ----------
    dead_letters:
        Shared :class:`DeadLetterQueue` for rejected records (a private
        one is created when omitted, for standalone use in tests).
    on_diagnosis, on_alarm, on_provisional:
        Callbacks, forwarded to the shard's monitor (error-isolated
        there); provisional diagnoses are also collected in
        :attr:`provisional`.
    fault_hook:
        Chaos-plan hook called with ``(shard_index, entry, picked_up)``
        for every dequeued entry; may raise to kill this worker.
    telemetry:
        Optional :class:`~repro.obs.pipeline.ShardTelemetry` — when
        present, every dequeued record's trace context (attached by
        ``QoEService.submit``) is advanced through the stage
        timestamps and its durations buffered for the staged latency
        histograms.  ``None`` keeps the uninstrumented hot path untouched.
    """

    def __init__(
        self,
        index: int,
        models: ModelManager,
        queue: BoundedQueue,
        spec: ShardSpec = ShardSpec(),
        *,
        dead_letters: Optional[DeadLetterQueue] = None,
        on_diagnosis: Optional[Callable[[SessionDiagnosis], None]] = None,
        on_alarm: Optional[Callable[[Alarm], None]] = None,
        on_provisional: Optional[Callable[[ProvisionalDiagnosis], None]] = None,
        fault_hook: Optional[Callable[[int, WeblogEntry, int], None]] = None,
        telemetry: Optional[ShardTelemetry] = None,
    ) -> None:
        self.index = index
        self.queue = queue
        self.spec = spec
        self.batcher = MicroBatcher(
            max_batch=spec.max_batch, max_delay_s=spec.max_delay_s
        )
        self._models = models
        early = (
            EarlyPredictor(
                models.current,
                after_chunks=spec.early_after_chunks,
                min_confidence=spec.early_confidence,
            )
            if spec.early_after_chunks is not None
            else None
        )
        self.monitor = RealTimeMonitor(
            models.current,
            tracker=OnlineSessionTracker(
                idle_gap_s=spec.idle_gap_s,
                min_media_chunks=spec.min_media_chunks,
            ),
            severe_alarm_after=spec.severe_alarm_after,
            stall_ratio_alarm=spec.stall_ratio_alarm,
            min_sessions_for_ratio=spec.min_sessions_for_ratio,
            on_diagnosis=on_diagnosis,
            on_alarm=on_alarm,
            early=early,
            on_provisional=on_provisional,
        )
        # Early off: the hot path bypasses the monitor's per-entry hook
        # entirely, keeping the no-early per-record cost unchanged.
        self._observe = (
            self.monitor.observe_entry
            if early is not None
            else self.monitor.tracker.observe
        )
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterQueue()
        )
        self.clock_skew_tolerance_s = spec.clock_skew_tolerance_s
        self.fault_hook = fault_hook
        self.telemetry = telemetry
        self.entries_processed = 0
        self.quarantined = 0
        self.restarts = 0
        self.error: Optional[BaseException] = None
        #: created → running → stopped (clean exit) | failed (exception).
        #: Written only by the worker thread / restart(); read by the
        #: supervisor and health snapshots.
        self.state = "created"
        #: Monotonic timestamp of the last run-loop iteration; the
        #: supervisor's watchdog compares it against its staleness bound.
        self.heartbeat_s = 0.0
        #: Per-subscriber high-water timestamp for the monotonicity guard.
        self._last_ts: Dict[str, float] = {}
        #: Entries pulled from the queue and not yet stepped through, in
        #: queue order.  The worker owns it, not the thread, so a
        #: restarted thread resumes from it.
        self._pending: Deque[WeblogEntry] = deque()
        self._entries_counter = _ENTRIES.labels(shard=str(index))
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{index}", daemon=True
        )

    # ------------------------------------------------------------------

    @property
    def diagnoses(self) -> List[SessionDiagnosis]:
        return self.monitor.diagnoses

    @property
    def alarms(self) -> List[Alarm]:
        return self.monitor.alarms

    @property
    def provisional(self) -> List[ProvisionalDiagnosis]:
        return self.monitor.provisional

    # The read surface QoEService shares with SocketShardWorker.

    @property
    def open_sessions(self) -> int:
        return self.monitor.tracker.open_sessions

    @property
    def pending_batch(self) -> int:
        return self.batcher.pending

    @property
    def health(self) -> Dict[str, SubscriberHealth]:
        return self.monitor.health

    @property
    def callback_errors(self) -> int:
        return self.monitor.callback_errors

    def early_report(self) -> Optional[ConvergenceReport]:
        """Provisional-vs-final convergence (None when early is off)."""
        if self.monitor.early is None:
            return None
        return self.monitor.early.report()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def queued(self) -> int:
        """Entries waiting for this worker: its pulled batch plus its queue."""
        return len(self._pending) + self.queue.depth

    def heartbeat_age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the run loop last iterated (0 before start)."""
        if self.heartbeat_s == 0.0:
            return 0.0
        now = time.monotonic() if now is None else now
        return max(0.0, now - self.heartbeat_s)

    def start(self) -> None:
        self.state = "running"
        self.heartbeat_s = time.monotonic()
        self._thread.start()

    def restart(self) -> None:
        """Mount a fresh thread over the surviving shard state.

        The pulled batch and the queue (with everything still
        buffered), tracker, batcher, monitor, health rollups and the
        monotonicity watermark all carry over; only the entry that was
        in flight when the previous thread died is lost (at-most-once
        across a crash boundary).
        """
        self._await_dead_thread("restart")
        self.error = None
        self.restarts += 1
        self.state = "running"
        self.heartbeat_s = time.monotonic()
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-shard-{self.index}-r{self.restarts}",
            daemon=True,
        )
        self._thread.start()

    def drain_backlog(self) -> List[WeblogEntry]:
        """Remove and return what a dead shard will never process.

        The circuit-breaker path: the pulled batch first, then the
        queue, in the order the worker would have stepped through them.
        Only for a worker whose thread has died — a live thread owns
        the pulled batch.
        """
        self._await_dead_thread("drain its backlog")
        backlog = list(self._pending)
        self._pending.clear()
        backlog.extend(self.queue.drain_remaining())
        return backlog

    def _await_dead_thread(self, action: str) -> None:
        if self.state == "failed":
            # The dying thread publishes "failed" before its postmortem
            # (telemetry flush, recorder, log); let it finish.
            self._thread.join(_FAILED_THREAD_JOIN_S)
        if self._thread.is_alive():
            raise RuntimeError(f"shard {self.index} is alive; cannot {action}")

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    # ------------------------------------------------------------------

    def _diagnose(self, batch) -> None:
        if not batch:
            return
        tel = self.telemetry
        started = time.perf_counter() if tel is not None else 0.0
        # One model version per batch: resolve the hot-swappable
        # reference exactly once, at the batch boundary.
        self.monitor.framework = self._models.current
        self.monitor.diagnose_records(batch)
        if tel is not None:
            done = time.perf_counter()
            tel.note("diagnose", done - started)
            for record in batch:
                ctx = record.__dict__.get("_trace_ctx")
                if ctx is not None:
                    tel.note("batch_wait", started - ctx.t_tracked, ctx)
                    if ctx.stages is not None:
                        # Sampled exemplar: apportion the batch's
                        # diagnose time as this record's share.
                        ctx.stages["diagnose"] = (done - started) / len(batch)
                    tel.complete(ctx, done)
            # Batch boundary: one observe_many per stage instead of
            # several histogram locks per record.
            tel.flush()

    def _dead_letter(self, entry: WeblogEntry, reason: str, detail: str) -> None:
        self.quarantined += 1
        self.dead_letters.put(entry, reason, self.index, detail)

    def _admit(self, entry: WeblogEntry) -> None:
        """Validate one entry; raises :class:`MalformedRecordError`.

        Field validation re-runs here (not just at construction)
        because a replay/capture path can hand over records that never
        went through ``__init__`` — which is exactly how garbled
        collector output arrives.  The monotonicity guard then rejects
        timestamps that regress beyond the skew tolerance: a
        backwards-jumping clock would otherwise fold entries into the
        wrong session or fake an idle gap.
        """
        entry.validate()
        last = self._last_ts.get(entry.subscriber_id)
        if last is not None and entry.timestamp_s < last - self.clock_skew_tolerance_s:
            error = MalformedRecordError(
                f"timestamp regressed {last - entry.timestamp_s:.1f}s for "
                f"subscriber {entry.subscriber_id} (tolerance "
                f"{self.clock_skew_tolerance_s:g}s)"
            )
            error.reason = "non_monotonic"
            raise error
        if last is None or entry.timestamp_s > last:
            self._last_ts[entry.subscriber_id] = entry.timestamp_s

    def _step(self) -> bool:
        """Process one entry or one deadline; False once closed+drained.

        The entry comes from the pulled batch; only an empty batch
        goes back to the queue, for up to :data:`_PULL_BATCH` more.
        """
        pending = self._pending
        if not pending:
            until_due = self.batcher.seconds_until_due()
            wait = (
                _IDLE_POLL_S if until_due is None else min(until_due, _IDLE_POLL_S)
            )
            try:
                pending.extend(self.queue.get_many(_PULL_BATCH, timeout=wait))
            except QueueEmpty:
                self._diagnose(self.batcher.take_due())
                return True
            except QueueClosed:
                return False
        entry = pending.popleft()
        self.entries_processed += 1
        self._entries_counter.inc()
        # Telemetry is inlined here rather than routed through
        # ShardTelemetry.note(): this block runs per dequeued entry and
        # a method call per stage is measurable on one core (full
        # telemetry costs about +32% on the serving benchmark's replay,
        # against a 5% gate).  The buf_* lists alias the shard's stage
        # buffers (flush clears in place, so the references stay valid).
        tel = self.telemetry
        ctx = entry.__dict__.get("_trace_ctx") if tel is not None else None
        if ctx is not None:
            t_dequeued = time.perf_counter()
            queue_wait = t_dequeued - ctx.t_enqueued
            tel.buf_queue_wait.append(queue_wait)
            stages = ctx.stages
            if stages is not None:
                stages["queue_wait"] = queue_wait
        if self.fault_hook is not None:
            self.fault_hook(self.index, entry, self.entries_processed)
        try:
            self._admit(entry)
        except MalformedRecordError as exc:
            self._dead_letter(entry, self._reject_reason(exc), str(exc))
            return True
        if ctx is not None:
            t_validated = time.perf_counter()
            tel.buf_validate.append(t_validated - t_dequeued)
            if stages is not None:
                stages["validate"] = t_validated - t_dequeued
        closed = self._observe(entry)
        if ctx is not None:
            now = time.perf_counter()
            ctx.t_tracked = now
            tel.buf_track.append(now - t_validated)
            if stages is not None:
                stages["track"] = now - t_validated
            if len(tel.buf_queue_wait) >= _TEL_HIGH_WATER:
                tel.flush()
            # A closed session's end-to-end latency is anchored on the
            # entry whose arrival closed it.
            for record in closed:
                record.__dict__["_trace_ctx"] = ctx
        for batch in self.batcher.add(closed):
            self._diagnose(batch)
        self._diagnose(self.batcher.take_due())
        return True

    @staticmethod
    def _reject_reason(exc: MalformedRecordError) -> str:
        return getattr(exc, "reason", "malformed")

    def _shutdown(self) -> None:
        """Drain path: flush the batcher and the tracker, final alarm sweep.

        Pending batched records precede the tracker's force-closed
        sessions — preserving the per-subscriber order the serial
        monitor would have produced.
        """
        final = self.batcher.flush()
        final.extend(self.monitor.tracker.flush())
        self._diagnose(final)
        tel = self.telemetry
        started = time.perf_counter() if tel is not None else 0.0
        self.monitor.final_alarm_sweep()
        if tel is not None:
            tel.note("alarm_sweep", time.perf_counter() - started)
            tel.flush()

    def _run(self) -> None:
        try:
            while self._step():
                self.heartbeat_s = time.monotonic()
            self._shutdown()
            self.state = "stopped"
        except BaseException as exc:
            self.error = exc
            self.state = "failed"
            if self.telemetry is not None:
                self.telemetry.flush()
            get_recorder().record(
                "shard_worker_died", shard=self.index, error=repr(exc)
            )
            _LOG.exception("shard_worker_failed", shard=self.index)
