"""Shard supervision: watchdog, bounded restarts, circuit breaker.

Before this module existed a shard-thread exception was invisible
until ``drain()``: the queue kept filling, nobody consumed it, and the
service found out at shutdown.  The supervisor closes that gap with a
small state machine per shard::

    running ──exception──► failed ──restart (≤ max_restarts,────► running
       │                     │      exponential backoff)
       │                     └─budget exhausted─► circuit OPEN
       └──heartbeat stale──► PARTITIONED (hysteresis both ways;
                             quarantine backlog, do NOT restart)

Every shard also carries a typed **health state** — ``healthy`` /
``partitioned`` / ``dead`` — because heartbeat staleness alone only
*approximates* partition:

* ``healthy`` — alive, heartbeats fresh.
* ``partitioned`` — reachable but slow: ``partition_enter_ticks``
  consecutive stale-heartbeat polls while the transport still reports
  ``connection_alive`` (duck-typed; thread shards are always
  "alive" in this sense, so for them the state degenerates to the old
  stalled flag).  A partitioned shard's state is intact — restarting
  it would *destroy* work — so the supervisor quarantines its unsent
  parent-side backlog into the DLQ (reason ``partitioned``, via the
  shard's ``quarantine_backlog`` hook where it exists) and waits.
  ``partition_exit_ticks`` consecutive fresh heartbeats exit the
  state; the hysteresis keeps one delayed heartbeat from flapping the
  quarantine machinery.
* ``dead`` — the worker failed (thread death, process exit, reconnect
  deadline spent) or its circuit is open.  Restart/circuit semantics
  unchanged.

* **Watchdog.**  A daemon thread polls every ``poll_interval_s``:
  thread liveness (``Thread.is_alive``) catches death promptly, the
  per-iteration heartbeat catches a *wedged* worker (e.g. blocked in a
  subscriber callback) that is technically alive.
* **Restart.**  :meth:`ShardWorker.restart` mounts a fresh thread over
  the surviving shard state — same queue (with its backlog), tracker,
  batcher, monitor — so a restart re-homes the shard's entire pending
  workload and loses at most one in-flight entry.  Attempts are spaced
  by exponential backoff so a crash-looping shard cannot spin the CPU.
* **Circuit breaker.**  After ``max_restarts`` failed revivals the
  shard's circuit opens: the service stops routing to it
  (``submit`` rejects), everything still queued is quarantined in the
  dead-letter queue (reason ``circuit_open``), and the service reports
  itself *degraded* instead of crashing — the paper's operator-network
  setting wants a monitor that limps, not one that takes the tap down.

All transitions are observable: ``repro_serving_shard_restarts_total``,
``repro_serving_circuit_open{shard}``, ``repro_serving_shard_stalled``,
``repro_serving_shard_state{shard,state}`` (one-hot gauge),
``repro_serving_shard_state_transitions_total{shard,state}`` and the
per-shard block of :meth:`QoEService.health`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Set

from repro.obs import get_logger, get_recorder, get_registry

from .dlq import DeadLetterQueue
from .shard import ShardWorker

__all__ = ["ShardSupervisor", "SHARD_STATES"]

_LOG = get_logger("serving.supervisor")

_REG = get_registry()
_RESTARTS = _REG.counter(
    "repro_serving_shard_restarts_total",
    "Shard workers restarted by the supervisor, by shard.",
    labelnames=("shard",),
)
_CIRCUIT = _REG.gauge(
    "repro_serving_circuit_open",
    "1 while a shard's circuit breaker is open (non-restartable).",
    labelnames=("shard",),
)
_STALLED = _REG.gauge(
    "repro_serving_shard_stalled",
    "Shards whose heartbeat exceeded the watchdog staleness bound.",
)
_STATE = _REG.gauge(
    "repro_serving_shard_state",
    "One-hot shard health state (healthy / partitioned / dead).",
    labelnames=("shard", "state"),
)
_TRANSITIONS = _REG.counter(
    "repro_serving_shard_state_transitions_total",
    "Shard health-state transitions, by shard and entered state.",
    labelnames=("shard", "state"),
)

#: The typed health states, in "one-hot gauge" order.
SHARD_STATES = ("healthy", "partitioned", "dead")


class ShardSupervisor:
    """Watchdog over a fixed set of :class:`ShardWorker` objects.

    Duck-typed over the worker surface (``state``/``alive``/``error``/
    ``restarts``/``restart()``/``heartbeat_age_s()``/``queue``), so the
    socket-backed :class:`~repro.serving.netshard.SocketShardWorker`
    is supervised by the identical state machine: a dead worker
    (process exit, connection lost past its reconnect deadline)
    surfaces as ``state == "failed"`` and gets the same
    restart-with-backoff → circuit-break → quarantine treatment as a
    dead worker thread.

    Parameters
    ----------
    shards:
        The workers to supervise (owned by the :class:`QoEService`).
    dead_letters:
        Where a broken shard's queued entries are quarantined.
    max_restarts:
        Restart budget *per shard*; the budget spent, the circuit
        opens.  ``0`` disables restarts (first failure trips the
        breaker).
    backoff_base_s, backoff_factor, backoff_max_s:
        Restart *n* of a shard waits
        ``min(base * factor**(n-1), max)`` after the failure was seen.
    poll_interval_s:
        Watchdog cadence.
    heartbeat_timeout_s:
        Heartbeat staleness beyond which a live worker's poll counts
        as stale (one input to the partition hysteresis).
    partition_enter_ticks:
        Consecutive stale polls before a live shard is declared
        *partitioned* (>= 1; 1 restores flag-on-first-stale).
    partition_exit_ticks:
        Consecutive fresh polls before a partitioned shard is declared
        healthy again.
    faults:
        Optional fault injector; observed partitions are accounted via
        its ``note_partition``.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        shards: Sequence[ShardWorker],
        dead_letters: DeadLetterQueue,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        poll_interval_s: float = 0.02,
        heartbeat_timeout_s: float = 5.0,
        partition_enter_ticks: int = 3,
        partition_exit_ticks: int = 2,
        faults=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if partition_enter_ticks < 1 or partition_exit_ticks < 1:
            raise ValueError("partition hysteresis ticks must be >= 1")
        self._shards = list(shards)
        self._dlq = dead_letters
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.poll_interval_s = poll_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.partition_enter_ticks = partition_enter_ticks
        self.partition_exit_ticks = partition_exit_ticks
        self._faults = faults
        self._clock = clock
        self._lock = threading.RLock()
        self._open_circuits: Set[int] = set()
        self._stalled: Set[int] = set()
        #: Hysteresis counters: consecutive stale / fresh polls.
        self._stale_ticks: dict = {}
        self._fresh_ticks: dict = {}
        #: Shard index → last *published* typed health state.
        self._states: dict = {
            shard.index: "healthy" for shard in self._shards
        }
        self._quarantined_by_partition = 0
        #: Shard index → monotonic deadline of its next restart attempt.
        self._next_attempt: dict = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        for shard in self._shards:
            self._publish_state(shard.index, "healthy", initial=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def circuit_open(self, index: int) -> bool:
        with self._lock:
            return index in self._open_circuits

    @property
    def open_circuits(self) -> List[int]:
        with self._lock:
            return sorted(self._open_circuits)

    @property
    def stalled_shards(self) -> List[int]:
        """Back-compat alias: the shards currently *partitioned*."""
        with self._lock:
            return sorted(self._stalled)

    def shard_state(self, index: int) -> str:
        """The typed health state of one shard (see :data:`SHARD_STATES`)."""
        with self._lock:
            return self._states.get(index, "healthy")

    @property
    def shard_states(self) -> dict:
        """Shard index → typed health state, for every supervised shard."""
        with self._lock:
            return dict(self._states)

    @property
    def total_restarts(self) -> int:
        return sum(shard.restarts for shard in self._shards)

    @property
    def quarantined_by_partition(self) -> int:
        """Entries shed to the DLQ by partition quarantine (not circuits)."""
        with self._lock:
            return self._quarantined_by_partition

    @property
    def degraded(self) -> bool:
        """True once any shard is non-restartable or wedged."""
        with self._lock:
            return bool(self._open_circuits or self._stalled)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._thread = threading.Thread(
            target=self._watch, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the watchdog thread (idempotent).

        Restart authority passes to the caller — ``drain()`` uses
        :meth:`ensure_drained` for its synchronous final pass.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _watch(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self._tick()

    # ------------------------------------------------------------------
    # Supervision logic
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self._clock()
        with self._lock:
            for shard in self._shards:
                if shard.index in self._open_circuits:
                    continue
                if shard.state == "failed":
                    self._handle_failed(shard, now, honour_backoff=True)
                elif shard.state == "running" and shard.alive:
                    self._check_heartbeat(shard, now)
            for shard in self._shards:
                self._publish_state(shard.index, self._classify(shard))

    def _classify(self, shard: ShardWorker) -> str:
        # Caller holds the lock.
        if shard.index in self._open_circuits or shard.state == "failed":
            return "dead"
        if shard.index in self._stalled:
            return "partitioned"
        return "healthy"

    def _publish_state(
        self, index: int, state: str, initial: bool = False
    ) -> None:
        # Caller holds the lock (or is the constructor).
        previous = self._states.get(index)
        self._states[index] = state
        for name in SHARD_STATES:
            _STATE.labels(shard=str(index), state=name).set(
                1 if name == state else 0
            )
        if initial or state == previous:
            return
        _TRANSITIONS.labels(shard=str(index), state=state).inc()
        get_recorder().record(
            "shard_state_changed",
            shard=index,
            state=state,
            previous=previous,
        )
        _LOG.info(
            "shard_state_changed", shard=index, state=state, previous=previous
        )

    def _handle_failed(
        self, shard: ShardWorker, now: float, honour_backoff: bool
    ) -> None:
        # Caller holds the lock.
        if shard.restarts >= self.max_restarts:
            self._trip_circuit(shard)
            return
        deadline = self._next_attempt.get(shard.index)
        if deadline is None:
            delay = min(
                self.backoff_base_s * self.backoff_factor ** shard.restarts,
                self.backoff_max_s,
            )
            self._next_attempt[shard.index] = now + delay
            _LOG.warning(
                "shard_failure_detected",
                shard=shard.index,
                error=repr(shard.error),
                restart_in_s=round(delay, 3),
                restarts_used=shard.restarts,
                max_restarts=self.max_restarts,
            )
            # A shard death is a postmortem trigger: capture the ring
            # while the evidence is fresh (no-op without a dump dir).
            get_recorder().dump(
                "shard_failed",
                shard=shard.index,
                error=repr(shard.error),
                restarts_used=shard.restarts,
                max_restarts=self.max_restarts,
            )
            if not honour_backoff:
                self._restart(shard)
            return
        if not honour_backoff or now >= deadline:
            self._restart(shard)

    def _restart(self, shard: ShardWorker) -> None:
        # Caller holds the lock.
        self._next_attempt.pop(shard.index, None)
        shard.restart()
        _RESTARTS.labels(shard=str(shard.index)).inc()
        get_recorder().record(
            "shard_restarted",
            shard=shard.index,
            restart=shard.restarts,
            queue_depth=shard.queue.depth,
        )
        _LOG.info(
            "shard_restarted",
            shard=shard.index,
            restart=shard.restarts,
            queue_depth=shard.queue.depth,
        )

    def _trip_circuit(self, shard: ShardWorker) -> None:
        # Caller holds the lock.
        if shard.index in self._open_circuits:
            return
        self._open_circuits.add(shard.index)
        self._next_attempt.pop(shard.index, None)
        _CIRCUIT.labels(shard=str(shard.index)).set(1)
        self._publish_state(shard.index, "dead")
        # Record + dump the postmortem BEFORE quarantining the abandoned
        # queue: each quarantine appends a ring event, and a deep queue
        # would evict the very evidence (worker deaths, restarts, this
        # transition) the postmortem exists to preserve.
        recorder = get_recorder()
        recorder.record(
            "circuit_open",
            shard=shard.index,
            restarts=shard.restarts,
            queued=shard.queue.depth,
            error=repr(shard.error),
        )
        recorder.dump(
            "circuit_open",
            shard=shard.index,
            restarts=shard.restarts,
            queued=shard.queue.depth,
            error=repr(shard.error),
        )
        abandoned = shard.queue.drain_remaining()
        for entry in abandoned:
            self._dlq.put(
                entry,
                "circuit_open",
                shard.index,
                f"restart budget ({self.max_restarts}) exhausted",
            )
        _LOG.error(
            "shard_circuit_open",
            shard=shard.index,
            restarts=shard.restarts,
            quarantined=len(abandoned),
            error=repr(shard.error),
        )

    def _check_heartbeat(self, shard: ShardWorker, now: float) -> None:
        # Caller holds the lock.
        index = shard.index
        stale = shard.heartbeat_age_s(now) > self.heartbeat_timeout_s
        # A stale heartbeat over a *dead* transport is a reconnect in
        # flight, not a partition: it resolves into fresh heartbeats or
        # into state == "failed" on its own.  Thread shards
        # have no transport and report always-alive (duck typing), so
        # for them staleness alone drives the state, as before.
        partition_signal = stale and getattr(shard, "connection_alive", True)
        if index in self._stalled:
            if partition_signal:
                self._fresh_ticks[index] = 0
                # Keep shedding: backlog accumulated against a shard
                # that is not acking belongs in the DLQ, not in RAM.
                self._quarantine_partitioned(shard)
            elif not stale:
                fresh = self._fresh_ticks.get(index, 0) + 1
                self._fresh_ticks[index] = fresh
                if fresh >= self.partition_exit_ticks:
                    self._exit_partition(shard)
            return
        if partition_signal:
            count = self._stale_ticks.get(index, 0) + 1
            self._stale_ticks[index] = count
            if count >= self.partition_enter_ticks:
                self._enter_partition(shard, now)
        else:
            self._stale_ticks[index] = 0

    def _enter_partition(self, shard: ShardWorker, now: float) -> None:
        # Caller holds the lock.
        index = shard.index
        self._stalled.add(index)
        self._stale_ticks[index] = 0
        self._fresh_ticks[index] = 0
        _STALLED.set(len(self._stalled))
        age = round(shard.heartbeat_age_s(now), 2)
        _LOG.error(
            "shard_partitioned",
            shard=index,
            heartbeat_age_s=age,
            enter_ticks=self.partition_enter_ticks,
        )
        if self._faults is not None and hasattr(self._faults, "note_partition"):
            self._faults.note_partition(index)
        # A partition is a postmortem trigger like a death: capture the
        # ring while the evidence is fresh (no-op without a dump dir).
        get_recorder().dump(
            "shard_partitioned",
            shard=index,
            heartbeat_age_s=age,
            queue_depth=shard.queue.depth,
        )
        self._quarantine_partitioned(shard)

    def _quarantine_partitioned(self, shard: ShardWorker) -> int:
        # Caller holds the lock.  Duck-typed: only transports that can
        # distinguish "shipped" from "still mine" (the socket backend's
        # unacked buffer) expose quarantine_backlog; for the rest the
        # backlog stays queued — a stalled thread may still drain it.
        quarantine = getattr(shard, "quarantine_backlog", None)
        if quarantine is None:
            return 0
        shed = quarantine(self._dlq)
        if shed:
            self._quarantined_by_partition += shed
            get_recorder().record(
                "partition_backlog_quarantined", shard=shard.index, shed=shed
            )
            _LOG.warning(
                "partition_backlog_quarantined", shard=shard.index, shed=shed
            )
        return shed

    def _exit_partition(self, shard: ShardWorker) -> None:
        # Caller holds the lock.
        self._stalled.discard(shard.index)
        self._stale_ticks[shard.index] = 0
        self._fresh_ticks[shard.index] = 0
        _STALLED.set(len(self._stalled))
        _LOG.info(
            "shard_recovered_from_partition",
            shard=shard.index,
            exit_ticks=self.partition_exit_ticks,
        )

    # ------------------------------------------------------------------
    # Drain support
    # ------------------------------------------------------------------

    def ensure_drained(self, timeout_s: float = 60.0) -> None:
        """Synchronous final pass: every shard ends stopped or broken.

        Called by ``QoEService.drain()`` *after* :meth:`stop` and after
        the ingest queues are closed.  A shard found dead mid-restart
        (or failing again while flushing) is restarted immediately —
        backoff is pointless once intake has ceased — until its budget
        runs out, at which point its circuit opens and its backlog is
        quarantined.  Returns once no shard is running, or after
        ``timeout_s`` (workers are daemon threads; a wedged one cannot
        block shutdown forever).
        """
        deadline = self._clock() + timeout_s
        while self._clock() < deadline:
            pending = False
            with self._lock:
                for shard in self._shards:
                    if shard.index in self._open_circuits:
                        continue
                    if shard.state == "failed":
                        self._handle_failed(
                            shard, self._clock(), honour_backoff=False
                        )
                        pending = True
                    elif shard.alive:
                        pending = True
            if not pending:
                return
            time.sleep(self.poll_interval_s)
        with self._lock:
            still_running = [s.index for s in self._shards if s.alive]
        if still_running:
            _LOG.error(
                "drain_timeout", shards=still_running, timeout_s=timeout_s
            )
            get_recorder().dump(
                "drain_timeout", shards=still_running, timeout_s=timeout_s
            )
