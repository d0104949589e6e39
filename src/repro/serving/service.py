"""`QoEService`: the sharded, back-pressured, self-healing inference service.

This is the deployment shape the paper's §8 sketches at operator
scale: weblog entries stream in from a passive tap, and per-session
QoE diagnoses, per-subscriber health and operator alarms stream out —
continuously, concurrently, and with explicit overload *and failure*
behaviour.

Data flow::

    submit(entry)
        │  shard_index(subscriber)          ← stable CRC32 partition
        ▼
    BoundedQueue[0..N-1]                    ← block / drop_oldest / shed_newest
        │  (one worker thread per shard; ShardSupervisor watchdog
        ▼   restarts dead workers, trips per-shard circuit breakers)
    validate ──reject──▶ DeadLetterQueue    ← malformed / non-monotonic
        │
    OnlineSessionTracker  ──closed──▶  MicroBatcher  ──batch──▶
    RealTimeMonitor.diagnose_records      (health, alarms, callbacks)
                          ▲
                          └── ModelManager.current   (hot-reload boundary)

**Determinism.**  Replaying a trace through N shards yields the same
diagnosis *multiset* (and alarm multiset, and per-subscriber health)
as the serial :class:`~repro.realtime.monitor.RealTimeMonitor`:
subscribers never span shards, per-subscriber entry order is preserved
by the FIFO queues, session ids are per-subscriber (tracker), batching
cannot change per-row forest outputs, and each shard reuses the serial
monitor's own diagnosis/alarm code.  Only the interleaving *across*
subscribers differs.  Supervision does not perturb this: a fault-free
run never restarts anything, and the watchdog only reads state.

**Failure.**  A dead shard worker is detected by the supervisor's
watchdog (not at drain time), restarted up to ``max_restarts`` times
with exponential backoff — the replacement inherits the shard's queue
backlog and tracker state — and past the budget the shard's circuit
breaker opens: ``submit`` rejects its traffic, its backlog is
quarantined in the :class:`~repro.serving.dlq.DeadLetterQueue`, and
the service degrades instead of crashing.  Malformed records
(:class:`~repro.capture.weblog.MalformedRecordError`) are quarantined
per record.  All of it is visible in :meth:`health` and the
``repro_serving_*`` metric families.

**Lifecycle.**  ``start()`` → ``running`` → ``drain()`` (stop intake,
process everything queued, force-close open sessions, final alarm
sweep, join workers) → ``stopped``.  ``stop()`` is drain-then-stop and
is idempotent.  :meth:`health` returns a liveness/readiness snapshot
suitable for a ``/healthz`` endpoint.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Union

from repro.capture.weblog import WeblogEntry
from repro.core.framework import QoEFramework, SessionDiagnosis
from repro.obs import (
    SLO,
    FlightRecorder,
    PipelineTelemetry,
    SLOEngine,
    TraceContext,
    get_logger,
    get_registry,
    set_recorder,
    trace,
)
from repro.online.early import ConvergenceReport, ProvisionalDiagnosis
from repro.realtime.monitor import Alarm, SubscriberHealth

from .dlq import DeadLetterQueue
from .models import ModelManager
from .queue import BoundedQueue
from .shard import ShardSpec, ShardWorker, shard_index
from .supervisor import ShardSupervisor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.faults import FaultInjector

__all__ = ["QoEService"]

_LOG = get_logger("serving.service")

_REG = get_registry()
_SHARDS = _REG.gauge(
    "repro_serving_shards",
    "Shard workers in the running QoE service.",
)
_STATE = _REG.gauge(
    "repro_serving_up",
    "1 while a QoEService is running, 0 otherwise.",
)
_DRAIN_SECONDS = _REG.histogram(
    "repro_serving_drain_seconds",
    "Wall-clock duration of QoEService.drain() calls.",
)
_REJECTED = _REG.counter(
    "repro_serving_rejected_total",
    "Submits refused because the target shard's circuit breaker is open.",
)


class QoEService:
    """Sharded online QoE inference over a live weblog stream.

    Parameters
    ----------
    models:
        A :class:`~repro.serving.models.ModelManager`, a fitted
        :class:`QoEFramework`, or a path to a persistence file.
    n_shards:
        Concurrent shard workers (>= 1).  1 is the serial monitor with
        an ingest queue in front.
    shard_backend:
        ``"thread"`` (default) runs shards as in-process worker
        threads; ``"socket"`` runs each shard behind a length-prefixed
        socket transport (:mod:`repro.serving.netshard`) placed per
        ``placement`` — loopback processes, in-process threads, or
        standalone workers on other machines.  ``"process"`` is
        ``"socket"`` with ``placement="local:N"`` (one loopback worker
        process per shard, true multi-core diagnosis); the service then
        reports itself as ``"socket"``.  Semantics are identical (same
        CRC32 partition, same per-subscriber order, same
        diagnosis/alarm multisets); socket shards additionally fold
        per-worker metric registries into this process's registry at
        heartbeat and drain.  Model hot-reload reaches socket shards
        at their next restart: every worker launch ships the model
        :attr:`models` holds at that moment.
    placement:
        Socket backend only: a placement spec parsed by
        :meth:`~repro.serving.placement.ShardPlacement.parse` —
        ``"local:N"`` (default, loopback worker processes),
        ``"inproc:N"`` (worker threads over loopback), or an explicit
        ``"0=host:port,1=host:port"`` map of standalone workers.
    socket_opts:
        Socket backend only: a
        :class:`~repro.serving.netshard.SocketOpts` (or kwargs dict
        for one) tuning connect deadlines and backoff, the send timeout,
        the frame bound, the handshake key and the unacked-buffer
        backpressure bound.
    queue_capacity, max_batch, max_delay_s, idle_gap_s, min_media_chunks,
    severe_alarm_after, stall_ratio_alarm, min_sessions_for_ratio,
    clock_skew_tolerance_s, early_after_chunks, early_confidence:
        The shard settings.  They make up :attr:`spec`, the one
        :class:`~repro.serving.shard.ShardSpec` every shard is built
        from, whichever backend runs it; see there for each.  With
        ``early_after_chunks`` set, provisional diagnoses aggregate in
        :attr:`provisional` and the convergence report in
        :meth:`early_report`.
    policy:
        Backpressure policy of every shard's ingest queue
        (see :mod:`repro.serving.queue`).
    on_diagnosis, on_alarm, on_provisional:
        Callbacks, forwarded to every shard's monitor (error-isolated
        there).  Note they run on shard threads.
    max_restarts, restart_backoff_s, supervisor_poll_s, heartbeat_timeout_s:
        Supervision policy (see
        :class:`~repro.serving.supervisor.ShardSupervisor`).
    partition_enter_ticks, partition_exit_ticks:
        Hysteresis on the typed shard health state: consecutive stale
        supervisor polls to enter *partitioned*, consecutive fresh
        ones to exit.
    dead_letter_capacity:
        Bound on quarantined records retained for inspection.
    faults:
        Optional :class:`~repro.faults.FaultInjector` — installs the
        chaos plan's worker-kill hook on every shard and its reload
        gate on the model manager.  ``None`` (production) adds a single
        ``is None`` branch per entry.
    telemetry:
        Per-record trace propagation.  ``True`` (default) builds a
        :class:`~repro.obs.pipeline.PipelineTelemetry`; pass an
        instance to control sampling, or ``False`` to run the PR-5
        hot path with no per-record instrumentation at all.
    slos:
        SLO spec strings (see :mod:`repro.obs.slo`) or parsed
        :class:`~repro.obs.slo.SLO` objects, evaluated over tumbling
        windows while the service runs.  Requires telemetry.
    postmortem_dir:
        Directory for the flight recorder's JSON postmortems (written
        when a circuit opens, a shard dies or drain times out).
        ``None`` keeps the event ring but writes nothing.
    """

    def __init__(
        self,
        models: Union[ModelManager, QoEFramework, str],
        n_shards: int = 4,
        shard_backend: str = "thread",
        queue_capacity: int = 1024,
        policy: str = "block",
        max_batch: int = 32,
        max_delay_s: float = 0.25,
        idle_gap_s: float = 30.0,
        min_media_chunks: int = 3,
        severe_alarm_after: int = 3,
        stall_ratio_alarm: float = 0.5,
        min_sessions_for_ratio: int = 5,
        on_diagnosis: Optional[Callable[[SessionDiagnosis], None]] = None,
        on_alarm: Optional[Callable[[Alarm], None]] = None,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.05,
        supervisor_poll_s: float = 0.02,
        heartbeat_timeout_s: float = 5.0,
        partition_enter_ticks: int = 3,
        partition_exit_ticks: int = 2,
        placement: Optional[str] = None,
        socket_opts=None,
        dead_letter_capacity: int = 1024,
        clock_skew_tolerance_s: float = 5.0,
        faults: Optional["FaultInjector"] = None,
        telemetry: Union[bool, PipelineTelemetry] = True,
        slos: Optional[Iterable[Union[str, SLO]]] = None,
        postmortem_dir: Optional[str] = None,
        early_after_chunks: Optional[int] = None,
        early_confidence: float = 0.0,
        on_provisional: Optional[
            Callable[[ProvisionalDiagnosis], None]
        ] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if shard_backend not in ("thread", "process", "socket"):
            raise ValueError(
                f"unknown shard_backend {shard_backend!r}; "
                "use 'thread', 'process' or 'socket'"
            )
        if placement is not None and shard_backend != "socket":
            raise ValueError("placement is only meaningful with shard_backend='socket'")
        if shard_backend == "process":  # one loopback worker process per shard
            shard_backend, placement = "socket", f"local:{n_shards}"
        self.shard_backend = shard_backend
        self.models = (
            models if isinstance(models, ModelManager) else ModelManager(models)
        )
        self.faults = faults
        if faults is not None:
            self.models.fault_gate = faults.reload_gate
        self.n_shards = n_shards
        self.state = "created"
        self.submitted = 0
        self.shed = 0
        self.rejected = 0
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        if isinstance(telemetry, PipelineTelemetry):
            self.telemetry: Optional[PipelineTelemetry] = telemetry
        elif telemetry:
            self.telemetry = PipelineTelemetry()
        else:
            self.telemetry = None
        slo_specs = list(slos) if slos is not None else []
        if slo_specs and self.telemetry is None:
            raise ValueError("SLO evaluation requires telemetry enabled")
        self.slo_engine: Optional[SLOEngine] = (
            SLOEngine(
                slo_specs,
                self.telemetry,
                processed=self._entries_processed_total,
                failed=lambda: float(self.dead_letters.quarantined),
            )
            if slo_specs
            else None
        )
        self.recorder = FlightRecorder(postmortem_dir=postmortem_dir)
        self.router = None
        #: The one recipe every shard of this service is built from:
        #: thread shards, socket workers and the serial fallback.
        self.spec = ShardSpec(
            queue_capacity=queue_capacity,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            idle_gap_s=idle_gap_s,
            min_media_chunks=min_media_chunks,
            severe_alarm_after=severe_alarm_after,
            stall_ratio_alarm=stall_ratio_alarm,
            min_sessions_for_ratio=min_sessions_for_ratio,
            clock_skew_tolerance_s=clock_skew_tolerance_s,
            early_after_chunks=early_after_chunks,
            early_confidence=early_confidence,
        )
        self._on_diagnosis = on_diagnosis
        self._on_alarm = on_alarm
        self._on_provisional = on_provisional
        self._fallback: Optional[ShardWorker] = None
        self._fallback_lock = threading.Lock()
        queues = [
            self.spec.ingest_queue(f"shard{i}", policy) for i in range(n_shards)
        ]
        if shard_backend == "socket":
            # Local import: pulls in the socket transport stack the
            # thread backend never needs.
            from .netshard import SocketOpts
            from .placement import ShardPlacement, SocketShardRouter

            parsed = ShardPlacement.parse(
                placement if placement is not None else f"local:{n_shards}",
                n_shards,
            )
            if socket_opts is None:
                opts = SocketOpts()
            elif isinstance(socket_opts, SocketOpts):
                opts = socket_opts
            else:
                opts = SocketOpts(**socket_opts)
            self.router = SocketShardRouter(
                placement=parsed,
                models=self.models,
                dead_letters=self.dead_letters,
                queues=queues,
                spec=self.spec,
                telemetry=self.telemetry is not None,
                sample_every=(
                    self.telemetry.sample_every
                    if self.telemetry is not None
                    else 128
                ),
                on_diagnosis=on_diagnosis,
                on_alarm=on_alarm,
                on_provisional=on_provisional,
                faults=faults,
                socket_opts=opts,
            )
            self._shards: List[ShardWorker] = self.router.shards
        else:
            fault_hook = faults.shard_fault_hook if faults is not None else None
            self._shards = [
                self._thread_shard(i, queue, fault_hook)
                for i, queue in enumerate(queues)
            ]
        self.supervisor = ShardSupervisor(
            self._shards,
            self.dead_letters,
            max_restarts=max_restarts,
            backoff_base_s=restart_backoff_s,
            poll_interval_s=supervisor_poll_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            partition_enter_ticks=partition_enter_ticks,
            partition_exit_ticks=partition_exit_ticks,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _entries_processed_total(self) -> float:
        return float(sum(s.entries_processed for s in self._all_shards()))

    def _register_recorder_providers(self) -> None:
        """Snapshot providers included in every postmortem."""
        if self.telemetry is not None:
            self.recorder.add_provider(
                "stages", self.telemetry.stage_snapshot
            )
        if self.slo_engine is not None:
            self.recorder.add_provider(
                "slo",
                lambda: {
                    "ok": self.slo_engine.ok,
                    "objectives": self.slo_engine.snapshot(),
                },
            )
        self.recorder.add_provider("dead_letter", self.dead_letters.snapshot)
        self.recorder.add_provider(
            "service",
            lambda: {
                "state": self.state,
                "submitted": self.submitted,
                "shed": self.shed,
                "rejected": self.rejected,
                "restarts": self.supervisor.total_restarts,
                "open_circuits": self.supervisor.open_circuits,
                "stalled": self.supervisor.stalled_shards,
                "shard_states": self.supervisor.shard_states,
            },
        )

    def start(self) -> "QoEService":
        """Spin up the shard workers and their watchdog; become ready."""
        if self.state != "created":
            raise RuntimeError(f"cannot start a {self.state} service")
        # Install this service's flight recorder as the process default
        # so deep modules (DLQ, batcher, models, faults) record into it.
        self._register_recorder_providers()
        set_recorder(self.recorder)
        if self.slo_engine is not None:
            self.slo_engine.start()
        for shard in self._shards:
            shard.start()
        self.supervisor.start()
        self.state = "running"
        self.recorder.record(
            "service_started",
            shards=self.n_shards,
            backend=self.shard_backend,
            model_version=self.models.version,
        )
        _SHARDS.set(self.n_shards)
        _STATE.set(1)
        _LOG.info(
            "service_started",
            shards=self.n_shards,
            backend=self.shard_backend,
            model_version=self.models.version,
        )
        return self

    def submit(self, entry: WeblogEntry) -> bool:
        """Route one entry to its subscriber's shard.

        Returns ``False`` if the entry was shed by backpressure
        (``shed_newest`` policy) or *rejected* because the target
        shard's circuit breaker is open (a dead, non-restartable shard
        must not accumulate a queue nobody will ever drain); ``True``
        otherwise.  ``drop_oldest`` admissions return ``True`` even
        when they evicted — the loss is visible in the queue's drop
        counter.  A shard that is dead but still within its restart
        budget keeps accepting: its queue survives the restart.
        """
        if self.state != "running":
            raise RuntimeError(f"cannot submit to a {self.state} service")
        index = shard_index(entry.subscriber_id, self.n_shards)
        seq = self.submitted
        self.submitted += 1
        # Telemetry is inlined (direct TraceContext construction, direct
        # buffer append instead of trace_context()/note_submit() calls):
        # submit runs once per entry and the method-call overhead alone
        # is measurable on a single core (full telemetry costs about
        # +32% on the serving benchmark's replay, against a 5% gate).
        tel = self.telemetry
        ctx = None
        if tel is not None:
            ctx = TraceContext(
                entry.subscriber_id, seq, seq % tel.sample_every == 0
            )
            # Attribute-attach keeps queue items and shard code shapes
            # unchanged; the shard reads the context back on dequeue.
            entry.__dict__["_trace_ctx"] = ctx
            if ctx.sampled:
                self.recorder.record(
                    "submit",
                    trace_id=ctx.trace_id,
                    subscriber=entry.subscriber_id,
                    shard=index,
                )
            if self.slo_engine is not None and seq % 256 == 0:
                self.slo_engine.maybe_roll()
            ctx.t_submit = time.perf_counter()
        if self.supervisor.circuit_open(index):
            if (
                self.shard_backend == "socket"
                and len(self.supervisor.open_circuits) >= self.n_shards
            ):
                # Degradation ladder, last rung: every remote shard is
                # circuit-open (the network took them all), but this
                # process still holds the model.  A serial in-process
                # worker is slower than the fleet and strictly better
                # than refusing the tap.
                self._ensure_fallback().queue.put(entry)
                return True
            self.rejected += 1
            _REJECTED.inc()
            return False
        if ctx is not None:
            # Stamp *before* the put: the shard may dequeue the entry
            # the instant it lands, and a blocked put is queue time.
            ctx.t_enqueued = time.perf_counter()
        accepted = self._shards[index].queue.put(entry)
        if ctx is not None:
            duration = ctx.t_enqueued - ctx.t_submit
            if ctx.stages is not None:
                ctx.stages["submit"] = duration
            with tel._submit_lock:
                buf = tel._submit_buf
                buf.append(duration)
                full = len(buf) >= 512
            if full:
                tel.flush()
        if not accepted:
            self.shed += 1
        return accepted

    def _ensure_fallback(self) -> ShardWorker:
        """Lazily start the serial fallback monitor (socket backend).

        One thread-backed :class:`ShardWorker` — the serial monitor
        with a queue in front — that absorbs *all* traffic once every
        remote shard is gone.  Routing every subscriber to one worker
        preserves per-subscriber order from the moment of failover, so
        sessions that begin after the collapse are still diagnosed
        exactly as the serial monitor would.
        """
        with self._fallback_lock:
            if self._fallback is None:
                worker = self._thread_shard(
                    self.n_shards, self.spec.ingest_queue("fallback")
                )
                worker.start()
                self._fallback = worker
                self.recorder.record(
                    "serial_fallback_engaged", open_circuits=self.n_shards
                )
                _LOG.error(
                    "serial_fallback_engaged",
                    open_circuits=self.n_shards,
                    detail="all socket shards circuit-open; "
                    "degrading to the in-process serial monitor",
                )
        return self._fallback

    def _thread_shard(
        self,
        index: int,
        queue: BoundedQueue,
        fault_hook: Optional[Callable[[int, WeblogEntry, int], None]] = None,
    ) -> ShardWorker:
        """An in-process shard over ``queue``: a thread shard or the
        serial fallback, built from :attr:`spec`."""
        return ShardWorker(
            index,
            self.models,
            queue,
            self.spec,
            dead_letters=self.dead_letters,
            on_diagnosis=self._on_diagnosis,
            on_alarm=self._on_alarm,
            on_provisional=self._on_provisional,
            fault_hook=fault_hook,
            telemetry=(
                self.telemetry.for_shard(index)
                if self.telemetry is not None
                else None
            ),
        )

    def _all_shards(self) -> List[ShardWorker]:
        if self._fallback is not None:
            return list(self._shards) + [self._fallback]
        return self._shards

    def submit_many(self, entries: Iterable[WeblogEntry]) -> int:
        """Submit a time-ordered entry stream; returns how many were accepted."""
        accepted = 0
        for entry in entries:
            accepted += self.submit(entry)
        return accepted

    def drain(self) -> List[SessionDiagnosis]:
        """Graceful shutdown: flush every shard, join every worker.

        Closes the ingest queues (queued entries are still processed),
        then lets the supervisor finish its job synchronously: a shard
        found dead mid-restart is revived immediately (no backoff —
        intake has ceased) so its backlog still drains; a shard that
        exhausts its restart budget trips its circuit breaker and its
        backlog is quarantined in the dead-letter queue.  Each
        surviving worker force-closes its open sessions, diagnoses its
        final batches and runs the final alarm sweep; a worker still
        running when the supervisor's pass gives up is wedged and is
        not joined (it stays ``alive`` and marks the service
        ``degraded``).  Returns *all*
        diagnoses the service ever produced.  Supervised failures
        never raise here — they degrade :meth:`health` instead of
        crashing the caller.
        """
        if self.state == "stopped":
            return self.diagnoses
        if self.state != "running":
            raise RuntimeError(f"cannot drain a {self.state} service")
        self.state = "draining"
        started = time.perf_counter()
        with trace("serving.drain") as span:
            self.supervisor.stop()
            for shard in self._shards:
                shard.queue.close()
            wedged = self.supervisor.ensure_drained()
            for shard in self._shards:
                if not (
                    self.supervisor.circuit_open(shard.index)
                    or shard.index in wedged
                ):
                    shard.join()
            if self._fallback is not None:
                self._fallback.queue.close()
                self._fallback.join()
            span.add(
                "diagnoses",
                sum(len(s.diagnoses) for s in self._all_shards()),
            )
        self.state = "stopped"
        _STATE.set(0)
        _SHARDS.set(0)
        _DRAIN_SECONDS.observe(time.perf_counter() - started)
        if self.telemetry is not None:
            self.telemetry.flush()
        if self.slo_engine is not None:
            # Close the in-flight windows so short replays still
            # evaluate every objective at least once.
            self.slo_engine.finalize()
        self.recorder.record(
            "service_drained",
            diagnoses=len(self.diagnoses),
            alarms=len(self.alarms),
            restarts=self.supervisor.total_restarts,
            dead_letter=self.dead_letters.quarantined,
        )
        _LOG.info(
            "service_drained",
            diagnoses=len(self.diagnoses),
            alarms=len(self.alarms),
            shed=self.shed,
            rejected=self.rejected,
            restarts=self.supervisor.total_restarts,
            dead_letter=self.dead_letters.quarantined,
            degraded=self.degraded,
        )
        return self.diagnoses

    def stop(self) -> None:
        """Drain if needed; idempotent."""
        if self.state == "running":
            self.drain()

    def __enter__(self) -> "QoEService":
        if self.state == "created":
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Aggregated results
    # ------------------------------------------------------------------

    @property
    def diagnoses(self) -> List[SessionDiagnosis]:
        """All diagnoses across shards (stable within a subscriber)."""
        out: List[SessionDiagnosis] = []
        for shard in self._all_shards():
            out.extend(shard.diagnoses)
        return out

    @property
    def alarms(self) -> List[Alarm]:
        out: List[Alarm] = []
        for shard in self._all_shards():
            out.extend(shard.alarms)
        return out

    @property
    def provisional(self) -> List[ProvisionalDiagnosis]:
        """All provisional (early) diagnoses across shards."""
        out: List[ProvisionalDiagnosis] = []
        for shard in self._all_shards():
            out.extend(shard.provisional)
        return out

    def early_report(self) -> Optional[ConvergenceReport]:
        """Merged provisional-vs-final convergence (None if early is off)."""
        merged: Optional[ConvergenceReport] = None
        for shard in self._all_shards():
            report = shard.early_report()
            if report is None:
                continue
            merged = report if merged is None else merged.merge(report)
        return merged

    @property
    def health_by_subscriber(self) -> Dict[str, SubscriberHealth]:
        """Merged per-subscriber health (subscribers never span shards)."""
        merged: Dict[str, SubscriberHealth] = {}
        for shard in self._all_shards():
            merged.update(shard.health)
        return merged

    @property
    def callback_errors(self) -> int:
        return sum(shard.callback_errors for shard in self._all_shards())

    # ------------------------------------------------------------------
    # Health / readiness
    # ------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """True while the service accepts traffic on every shard.

        A shard that is dead but restartable does not clear readiness —
        its queue keeps buffering and the supervisor is already on it;
        an open circuit does (that partition of subscribers is refused).
        """
        return self.state == "running" and not self.supervisor.open_circuits

    @property
    def degraded(self) -> bool:
        """True once any shard is non-restartable or wedged."""
        return self.supervisor.degraded

    def health(self) -> Dict:
        """Liveness/readiness snapshot (shape suitable for ``/healthz``).

        Best-effort under concurrency: counters may lag by a few
        entries while workers run; exact totals are available after
        :meth:`drain`.
        """
        out = {
            "state": self.state,
            "backend": self.shard_backend,
            "ready": self.ready,
            "degraded": self.degraded,
            "model_version": self.models.version,
            "model_reloadable": self.models.reloadable,
            "submitted": self.submitted,
            "shed": self.shed,
            "rejected": self.rejected,
            "restarts": self.supervisor.total_restarts,
            "dead_letter": self.dead_letters.snapshot(),
            "shards": [
                {
                    "index": shard.index,
                    "alive": shard.alive,
                    "state": shard.state,
                    "restarts": shard.restarts,
                    "circuit_open": self.supervisor.circuit_open(shard.index),
                    "stalled": shard.index in self.supervisor.stalled_shards,
                    "health_state": self.supervisor.shard_state(shard.index),
                    "queue_depth": shard.queued,
                    "queue_dropped": shard.queue.dropped,
                    "entries_processed": shard.entries_processed,
                    "quarantined": shard.quarantined,
                    "open_sessions": shard.open_sessions,
                    "pending_batch": shard.pending_batch,
                    "diagnoses": len(shard.diagnoses),
                    "alarms": len(shard.alarms),
                    "provisional": len(shard.provisional),
                }
                for shard in self._shards
            ],
        }
        if self._fallback is not None:
            out["serial_fallback"] = {
                "engaged": True,
                "entries_processed": self._fallback.entries_processed,
                "diagnoses": len(self._fallback.diagnoses),
                "queue_depth": self._fallback.queued,
            }
        if self.router is not None:
            out["router"] = self.router.snapshot()
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.stage_snapshot()
        if self.slo_engine is not None:
            out["slo"] = {
                "ok": self.slo_engine.ok,
                "objectives": self.slo_engine.snapshot(),
            }
        return out
