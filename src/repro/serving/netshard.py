"""Socket-backed shard workers: the one remote-shard transport.

This module moves shards off the serving process — onto other cores
(``placement="local:N"`` spawns loopback worker processes, which is
also what ``shard_backend="process"`` means) or other machines.  The
transport is a length-prefixed, CRC-checked socket frame
(:mod:`repro.serving.framing`) and *where* each worker runs is a
placement map (:mod:`repro.serving.placement`).  The message
vocabulary::

    parent → worker  ("hello",   {token, shard, resume, config?,
                                  out_diagnoses/alarms/provisional/
                                  letters, entries_processed})
                     ("entries", {base_seq, entries})
                     ("drain",   {})
    worker → parent  ("hello_ack", {recv_seq, incarnation, configured})
                     ("out",     {diagnoses, alarms, provisional,
                                  letters, entries_processed, quarantined})
                     ("registry", <state delta>)
                     ("hb",      {open_sessions, pending, recv_seq})
                     ("dying",   {error, kills})       then exit
                     ("drained", {health, ...})        then exit

Before any of that vocabulary flows, every connection passes the
mutual HMAC challenge of :mod:`repro.serving.framing` — frames are
pickles, so neither side reads a frame from a peer that has not
proven possession of the shared key, and the worker additionally pins
the first ``hello``'s token so a reconnect from a *different* parent
(same key, other service instance) cannot hijack a live session.

The network adds failure modes a local pipe never exhibits, and the
design is built around them:

* **Session sequence numbers.**  Every entry the parent ships carries
  a per-shard monotonically increasing sequence number; the worker
  deduplicates on it and acknowledges the highest sequence it has
  accepted in an ``hb`` — on the heartbeat cadence, and at once
  whenever everything received has been handed to its bounded queue,
  so the parent's unacked window refills as fast as the worker
  absorbs entries.  The parent retains sent entries in an *unacked*
  buffer until acknowledged — so a dropped connection loses nothing:
  the reconnect handshake (``hello`` with ``resume=True``) learns the
  worker's ``recv_seq``, prunes the buffer, and resends the gap **in
  order**.  The worker's per-subscriber monotonicity watermark
  therefore survives a reconnect with no duplicate and no regressed
  entry.
* **Partitioned ≠ dead.**  A worker that is reachable-but-slow keeps
  its TCP connection alive while its heartbeats go stale.  The
  parent-side handle exposes ``connection_alive`` so the supervisor's
  three-state model (healthy / partitioned / dead) can quarantine the
  backlog *without* restarting a worker whose state is intact.
* **Reconnect under a deadline.**  Connection attempts run through
  :func:`~repro.faults.retry_with_backoff` with a hard
  ``max_elapsed_s`` cap; only when the deadline is spent does the
  handle declare the shard dead and hand it to the supervisor's
  restart/circuit machinery.
* **At-most-once across a worker death.**  A dead worker (process
  exit, unreachable address) loses its whole shard state — a wider
  blast radius than a thread kill, which keeps tracker and health
  alive under the replaced thread: the parent marks every subscriber
  it ever shipped there as fault-affected and the replacement starts
  empty.  An injected kill consumes the plan's ``kill_times`` budget
  across restarts (the parent decrements what each dead worker
  reports), so a relaunched worker does not kill-loop.  Results
  already received stay received — ``out`` messages are
  cumulative-cursor based, and the resume handshake tells the worker
  which outputs the parent already holds, so a reconnect never
  re-delivers nor drops a diagnosis.

Worker deployment shapes (all speak the identical protocol):

* ``start_inproc_worker`` — a daemon *thread* serving loopback; zero
  spawn cost, CI-friendly, shares the parent registry (so it ships no
  registry deltas).
* spawn-local — a child *process* over loopback (the router does this
  for ``placement="local:N"``), true multi-core diagnosis.
* standalone — ``python -m repro netshard-worker --listen HOST:PORT``;
  the parent ships the model inside ``hello`` at connect time.

Every (re)launch and every remote ``hello`` ships the model the
parent's :class:`~repro.serving.models.ModelManager` holds at that
moment, so a reload reaches a remote shard at its next restart.

Known limitations (documented, not silent): registry deltas and trace
exemplars in flight when a connection drops are lost (telemetry may
undercount across a reconnect — never the diagnosis stream); e2e
latency spans assume a shared monotonic clock, which holds for
loopback/local workers only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import secrets
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.capture.weblog import WeblogEntry
from repro.core.framework import QoEFramework, SessionDiagnosis
from repro.faults.retry import retry_with_backoff
from repro.obs import (
    PipelineTelemetry,
    get_logger,
    get_recorder,
    get_registry,
    registry_state_delta,
)
from repro.online.early import ConvergenceReport, ProvisionalDiagnosis
from repro.realtime.monitor import Alarm, SubscriberHealth

from .batcher import MicroBatcher
from .dlq import DeadLetterQueue
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    FrameStream,
    answer_challenge,
    deliver_challenge,
)
from .models import ModelManager
from .queue import BoundedQueue, QueueClosed, QueueEmpty, QueueFull
from .shard import ShardWorker

__all__ = [
    "NetShardConfig",
    "SocketShardWorker",
    "ShardUnreachable",
    "ShardConnectionLost",
    "run_worker",
    "start_inproc_worker",
]

_LOG = get_logger("serving.netshard")

_REG = get_registry()
_RECONNECTS = _REG.counter(
    "repro_serving_net_reconnects_total",
    "Successful reconnect-and-resume handshakes, by shard.",
    labelnames=("shard",),
)
_RESENT = _REG.counter(
    "repro_serving_net_resent_entries_total",
    "Entries resent from the unacked buffer after a reconnect.",
    labelnames=("shard",),
)

#: Entries shipped per frame (amortises pickle + syscall cost).
_SEND_BATCH = 256
#: Worker main-loop poll; bounds drain/death detection latency.
_POLL_S = 0.02
#: A connection that never completes its hello is dropped after this.
_HELLO_TIMEOUT_S = 5.0
#: A live spawned worker must report its bound port within this.
_PORT_DEADLINE_S = 30.0


def _default_start_method() -> str:
    """``spawn`` where it can work, ``fork`` where only fork can.

    Spawn is the safe default: a fork taken while sibling shards'
    sender/receiver threads hold registry or queue locks could deadlock
    the child.  But spawn re-imports the parent's ``__main__`` from its
    file path — when the driver came from stdin or ``exec`` (heredoc
    scripts, notebooks) there is no such file and every child would die
    on startup — so those parents fall back to fork.
    """
    if "spawn" not in mp.get_all_start_methods():
        return "fork"
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        return "fork"
    return "spawn"


class ShardUnreachable(RuntimeError):
    """No connection could be established within the connect deadline."""


class ShardConnectionLost(RuntimeError):
    """The connection died and could not be resumed; the shard is dead."""


@dataclass
class NetShardConfig:
    """Everything a socket shard worker needs, picklable for spawn/hello.

    The shard's :class:`ShardWorker` knobs plus the fault plan's
    remaining budgets: ``kill_at_entry`` / ``kill_times`` (the parent
    decrements them across restarts), ``partition_at_entry`` /
    ``partition_secs`` carry the fault plan's *partition* spec for this
    shard (the worker goes reachable-but-silent for that long after
    accepting its N-th entry), and ``ship_registry`` is switched off
    for in-process workers that already write the parent registry.
    """

    index: int
    framework: Optional[QoEFramework] = None
    queue_capacity: int = 1024
    max_batch: int = 32
    max_delay_s: float = 0.25
    idle_gap_s: float = 30.0
    min_media_chunks: int = 3
    severe_alarm_after: int = 3
    stall_ratio_alarm: float = 0.5
    min_sessions_for_ratio: int = 5
    clock_skew_tolerance_s: float = 5.0
    telemetry: bool = True
    sample_every: int = 128
    kill_at_entry: int = 0
    kill_times: int = 0
    partition_at_entry: int = 0
    partition_secs: float = 0.0
    heartbeat_interval_s: float = 0.25
    early_after_chunks: Optional[int] = None
    early_confidence: float = 0.0
    ship_registry: bool = True
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES


@dataclass
class SocketOpts:
    """Parent-side transport tuning for one service's socket shards."""

    #: Hard deadline on establishing (or re-establishing) a connection.
    connect_deadline_s: float = 8.0
    #: Backoff base between connection attempts (deterministic, no jitter).
    connect_backoff_s: float = 0.05
    #: Per-message read poll; bounds how long shutdown can lag.
    read_timeout_s: float = 0.5
    #: Ceiling on one blocking send (a wedged peer cannot hold the
    #: sender hostage forever).
    send_timeout_s: float = 30.0
    #: Entries retained in the unacked resend buffer before the sender
    #: stops pulling from the ingest queue (backpressure boundary —
    #: also what forces a partitioned shard's backlog to accumulate in
    #: the quarantinable parent queue instead of growing unbounded).
    max_unacked: int = 2048
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Shared secret for the HMAC handshake to *remote* (standalone)
    #: workers — must match the worker's ``--auth-key-file`` /
    #: ``REPRO_NETSHARD_AUTHKEY``.  ``None`` degrades to an empty key
    #: (unauthenticated): loopback/trusted links only.  Spawned and
    #: in-process workers ignore this; the parent generates a random
    #: per-worker key and hands it over out of band at launch.
    auth_key: Optional[bytes] = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


#: Already-shipped letters retained for a reconnecting parent's rewind.
#: A rewind can only reach back as far as the letters in flight when
#: the connection dropped — at most one flush's worth — so a small
#: retention window keeps the log bounded on a long-lived worker
#: without ever trimming a letter the parent could still ask for.
_LETTER_RETAIN = 1024


class _KillBudget:
    """Worker-side chaos hook honouring the plan's remaining kill budget."""

    def __init__(self, at_entry: int, times: int) -> None:
        self.at_entry = at_entry
        self.times = times
        self.fired = 0

    def hook(self, shard_index: int, entry: WeblogEntry, picked_up: int) -> None:
        if self.fired >= self.times or picked_up < self.at_entry:
            return
        self.fired += 1
        from repro.faults.injector import InjectedFault

        raise InjectedFault(
            f"injected kill: shard {shard_index} process at its entry "
            f"#{picked_up}"
        )


class _LetterLog:
    """Worker-side dead-letter shim with a non-destructive cursor.

    The parent performs the one real
    :meth:`~repro.serving.dlq.DeadLetterQueue.put` per letter.  Letters
    stay in the log after shipping so a reconnecting parent can rewind
    the cursor to what it actually received and get the in-flight
    letters again.  Cursors are *absolute* letter indices; ``base`` is the absolute index of
    the first retained letter, so confirmed letters can be trimmed
    (bounded memory on a noisy long-lived worker) without shifting
    anyone's cursor.
    """

    def __init__(self) -> None:
        self._letters: List[tuple] = []
        self.base = 0
        self.trimmed = 0

    @property
    def end(self) -> int:
        """Absolute index one past the newest letter."""
        return self.base + len(self._letters)

    def put(
        self, entry: WeblogEntry, reason: str, shard: int, detail: str = ""
    ) -> None:
        self._letters.append((entry, reason, detail))

    def slice(self, lo: int, hi: int) -> List[tuple]:
        return self._letters[lo - self.base : hi - self.base]

    def trim_to(self, cursor: int) -> None:
        """Drop letters below absolute index ``cursor`` (clamped)."""
        drop = min(max(cursor - self.base, 0), len(self._letters))
        if drop:
            del self._letters[:drop]
            self.base += drop
            self.trimmed += drop


class _WorkerState:
    """Everything that must survive a connection drop on the worker.

    The real :class:`ShardWorker` (tracker, monitor, batcher, the
    per-subscriber monotonicity watermark) lives here, outside any
    single connection's scope — which is what makes reconnect-and-
    resume a *resume* and not a restart.
    """

    def __init__(self, config: Optional[NetShardConfig]) -> None:
        self.config: Optional[NetShardConfig] = None
        self.worker: Optional[ShardWorker] = None
        self.queue: Optional[BoundedQueue] = None
        self.letters = _LetterLog()
        self.kills: Optional[_KillBudget] = None
        self.shard_tel = None
        self.token: Optional[str] = None
        self.recv_seq = 0
        self.received = 0
        self.incarnation = int(time.monotonic() * 1000) & 0x7FFFFFFF
        self.backlog: Deque[WeblogEntry] = deque()
        self.draining = False
        self.partition_fired = False
        self.prev_registry_state: Optional[Dict] = None
        # Output cursors: how much of each stream the parent holds.
        self.sent_diagnoses = 0
        self.sent_alarms = 0
        self.sent_provisional = 0
        self.sent_letters = 0
        self.sent_entries = -1
        if config is not None:
            self.configure(config)

    def configure(self, config: Optional[NetShardConfig]) -> None:
        if self.worker is not None:
            return
        if config is None or config.framework is None:
            raise FrameError("hello carried no model for an unconfigured worker")
        self.config = config
        self.queue = BoundedQueue(
            capacity=config.queue_capacity,
            policy="block",
            name=f"shard{config.index}n",
        )
        self.shard_tel = (
            PipelineTelemetry(sample_every=config.sample_every).for_shard(
                config.index
            )
            if config.telemetry
            else None
        )
        self.kills = _KillBudget(config.kill_at_entry, config.kill_times)
        self.worker = ShardWorker(
            index=config.index,
            models=ModelManager(config.framework),
            queue=self.queue,
            batcher=MicroBatcher(
                max_batch=config.max_batch, max_delay_s=config.max_delay_s
            ),
            idle_gap_s=config.idle_gap_s,
            min_media_chunks=config.min_media_chunks,
            severe_alarm_after=config.severe_alarm_after,
            stall_ratio_alarm=config.stall_ratio_alarm,
            min_sessions_for_ratio=config.min_sessions_for_ratio,
            dead_letters=self.letters,
            clock_skew_tolerance_s=config.clock_skew_tolerance_s,
            fault_hook=self.kills.hook if config.kill_times > 0 else None,
            telemetry=self.shard_tel,
            early_after_chunks=config.early_after_chunks,
            early_confidence=config.early_confidence,
        )
        self.worker.start()

    # -- output shipping ----------------------------------------------

    def rewind(self, hello: Dict) -> None:
        """Reset the output cursors to what the parent says it holds."""
        self.sent_diagnoses = int(hello.get("out_diagnoses", 0))
        self.sent_alarms = int(hello.get("out_alarms", 0))
        self.sent_provisional = int(hello.get("out_provisional", 0))
        wanted = int(hello.get("out_letters", 0))
        if wanted < self.letters.base:
            # The parent rewound past the retention window — those
            # letters were trimmed as confirmed-or-aged-out and cannot
            # be re-delivered.  Loud, accounted, never silent.
            _LOG.error(
                "netshard_letters_unrecoverable",
                wanted=wanted,
                base=self.letters.base,
                lost=self.letters.base - wanted,
            )
            wanted = self.letters.base
        self.sent_letters = wanted
        # Everything below the parent's cursor is confirmed held: free it.
        self.letters.trim_to(wanted)
        self.sent_entries = -1  # force a fresh counters frame

    def flush_outputs(self, stream: FrameStream) -> None:
        worker = self.worker
        diagnoses = worker.monitor.diagnoses
        alarms = worker.monitor.alarms
        provisional = worker.monitor.provisional
        # Snapshot each length exactly once: the shard thread appends
        # to these lists concurrently, and a cursor taken from a
        # *re-read* len() after the send would mark items as sent that
        # were appended after the slice — silently lost output.
        n_diagnoses = len(diagnoses)
        n_alarms = len(alarms)
        n_provisional = len(provisional)
        n_letters = self.letters.end
        n_entries = worker.entries_processed
        if (
            n_diagnoses == self.sent_diagnoses
            and n_alarms == self.sent_alarms
            and n_provisional == self.sent_provisional
            and n_letters == self.sent_letters
            and n_entries == self.sent_entries
        ):
            return
        out = {
            "diagnoses": diagnoses[self.sent_diagnoses:n_diagnoses],
            "alarms": alarms[self.sent_alarms:n_alarms],
            "provisional": provisional[self.sent_provisional:n_provisional],
            "letters": self.letters.slice(self.sent_letters, n_letters),
            "entries_processed": n_entries,
            "quarantined": worker.quarantined,
        }
        stream.send("out", out)
        # Cursors advance only after the send returned: a send that
        # raised leaves them unmoved, so the reconnect resends.
        self.sent_diagnoses = n_diagnoses
        self.sent_alarms = n_alarms
        self.sent_provisional = n_provisional
        self.sent_letters = n_letters
        self.sent_entries = n_entries
        # Keep the log bounded on a long-lived connection: retain a
        # rewind window of recently shipped letters, trim the rest.
        self.letters.trim_to(max(self.letters.base, n_letters - _LETTER_RETAIN))

    def ship_registry(self, stream: FrameStream) -> None:
        if not self.config.ship_registry:
            return
        current = get_registry().to_state()
        stream.send("registry", registry_state_delta(current, self.prev_registry_state))
        self.prev_registry_state = current


def _serve_connection(stream: FrameStream, st: _WorkerState) -> Optional[str]:
    """Serve one parent connection; returns 'drained'/'dying' to exit,
    ``None`` when the connection dropped and the worker should await a
    reconnect with its state intact."""
    hello = stream.recv(timeout=_HELLO_TIMEOUT_S)
    if hello is None or hello[0] != "hello":
        raise FrameError(f"expected hello, got {hello!r}")
    body = hello[1] or {}
    token = body.get("token")
    if st.token is None:
        # First hello pins the session to this parent: a reconnect
        # must present the same token or it is a different service
        # trying to hijack a live shard session.
        st.token = token
    elif token != st.token:
        raise FrameError(
            f"hello token mismatch: session pinned to another parent "
            f"(got {token!r})"
        )
    if st.worker is None:
        st.configure(body.get("config") or None)
    if body.get("resume"):
        st.rewind(body)
    stream.send(
        "hello_ack",
        {
            "recv_seq": st.recv_seq,
            "incarnation": st.incarnation,
            "entries_received": st.received,
        },
    )
    config = st.config
    worker = st.worker
    queue = st.queue
    last_beat = 0.0
    acked_seq = st.recv_seq  # the hello_ack just reported it

    def beat() -> None:
        nonlocal acked_seq
        acked_seq = st.recv_seq
        stream.send(
            "hb",
            {
                "open_sessions": worker.monitor.tracker.open_sessions,
                "pending": worker.batcher.pending,
                "recv_seq": acked_seq,
            },
        )

    while True:
        while st.backlog and worker.state in ("created", "running"):
            try:
                queue.put(st.backlog[0], timeout=_POLL_S)
                st.backlog.popleft()
            except QueueFull:
                break
        if not st.backlog and st.recv_seq != acked_seq:
            # Everything received now sits in the bounded queue: ack it
            # at once so the parent's unacked window refills at the
            # rate the worker absorbs entries, not the heartbeat's.
            beat()
        msg = stream.recv(timeout=0.0 if st.backlog else _POLL_S)
        if msg is not None:
            kind, payload = msg
            if kind == "entries":
                base = payload["base_seq"]
                for offset, entry in enumerate(payload["entries"]):
                    seq = base + offset
                    if seq <= st.recv_seq:
                        continue  # duplicate from a resend overlap
                    st.recv_seq = seq
                    st.received += 1
                    st.backlog.append(entry)
                if (
                    config.partition_secs > 0.0
                    and not st.partition_fired
                    and st.received >= config.partition_at_entry
                ):
                    # Injected partition: reachable-but-silent.  The
                    # connection stays open, the real worker keeps
                    # chewing its queue, but nothing is read and no
                    # heartbeat flows until the nap ends.
                    st.partition_fired = True
                    _LOG.warning(
                        "injected_partition",
                        shard=config.index,
                        after_entries=st.received,
                        secs=config.partition_secs,
                    )
                    time.sleep(config.partition_secs)
                continue  # bias towards keeping the worker fed
            if kind == "drain":
                while st.backlog and worker.state in ("created", "running"):
                    try:
                        queue.put(st.backlog[0], timeout=0.2)
                        st.backlog.popleft()
                    except QueueFull:
                        pass
                queue.close()
                st.draining = True
        if worker.state == "failed":
            if st.shard_tel is not None:
                st.shard_tel.flush()
            st.flush_outputs(stream)
            st.ship_registry(stream)
            stream.send(
                "dying", {"error": repr(worker.error), "kills": st.kills.fired}
            )
            return "dying"
        if st.draining and not worker.alive:
            st.flush_outputs(stream)
            st.ship_registry(stream)
            stream.send(
                "drained",
                {
                    "health": dict(worker.monitor.health),
                    "entries_processed": worker.entries_processed,
                    "quarantined": worker.quarantined,
                    "early_report": worker.early_report(),
                },
            )
            return "drained"
        now = time.monotonic()
        if now - last_beat >= config.heartbeat_interval_s:
            last_beat = now
            st.flush_outputs(stream)
            st.ship_registry(stream)
            beat()


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[NetShardConfig] = None,
    on_port: Optional[Callable[[int], None]] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    in_process: bool = False,
    auth_key: bytes = b"",
) -> int:
    """Listen-and-serve loop of one socket shard worker.

    Serves one parent connection at a time; a dropped connection
    returns to ``accept`` with the shard state intact (that is the
    reconnect window).  Returns 0 after a clean drain, 3 after a
    worker failure (``dying``) — the caller turns that into an exit
    code or, for in-process workers, just lets the thread end.

    Every accepted connection must pass the HMAC challenge
    (:func:`~repro.serving.framing.deliver_challenge`) over
    ``auth_key`` before a single frame — hence before any pickle —
    is read; a failed challenge drops the connection and the worker
    keeps listening.  An empty ``auth_key`` degrades the challenge to
    unauthenticated and is only safe on loopback or an otherwise
    trusted link — never expose an empty-key worker port to an
    untrusted network (frames are pickles; unpickling attacker bytes
    is arbitrary code execution).

    Parameters
    ----------
    config:
        Pre-provisioned shard config; ``None`` (standalone mode) waits
        for the first ``hello`` to carry one.
    on_port:
        Called once with the actually bound port (``port=0`` binds an
        ephemeral one).
    in_process:
        True when the worker shares the parent's process: skips
        registry shipping (the metrics are already local).
    auth_key:
        Shared secret for the per-connection HMAC handshake.  The
        router generates one per spawned/in-process worker; standalone
        workers take it from ``--auth-key-file`` or
        ``REPRO_NETSHARD_AUTHKEY``.
    """
    listener = socket.create_server((host, port), backlog=4)
    bound = listener.getsockname()[1]
    if on_port is not None:
        on_port(bound)
    if config is not None and in_process:
        config = replace(config, ship_registry=False)
    st = _WorkerState(config)
    _LOG.info(
        "netshard_worker_listening",
        host=host,
        port=bound,
        configured=st.worker is not None,
    )
    try:
        while True:
            conn, peer = listener.accept()
            try:
                # Authenticate before constructing the frame reader:
                # nothing an unauthenticated peer sends may reach the
                # unpickler.
                deliver_challenge(conn, auth_key)
            except (FrameError, OSError) as exc:
                _LOG.warning(
                    "netshard_auth_rejected", peer=str(peer), error=repr(exc)
                )
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            stream = FrameStream(
                conn,
                max_frame_bytes=(
                    st.config.max_frame_bytes if st.config else max_frame_bytes
                ),
            )
            try:
                outcome = _serve_connection(stream, st)
            except (FrameError, OSError) as exc:
                # Connection-scoped failure: drop it, keep the shard
                # state, await a reconnect.
                _LOG.warning(
                    "netshard_connection_lost", peer=str(peer), error=repr(exc)
                )
                stream.close()
                continue
            stream.close()
            if outcome == "drained":
                return 0
            if outcome == "dying":
                return 3
    finally:
        listener.close()


def _worker_process_main(host, port, config, port_conn, auth_key) -> None:
    """Spawn-local process entry point (module top level: spawn-safe)."""
    get_registry().reset()  # fresh under spawn; zero inherited state under fork
    try:
        code = run_worker(
            host,
            port,
            config=config,
            on_port=lambda p: (port_conn.send(p), port_conn.close()),
            auth_key=auth_key,
        )
    except BaseException:  # noqa: BLE001 - exit code is the report
        os._exit(4)
    os._exit(code)


def start_inproc_worker(
    config: NetShardConfig, host: str = "127.0.0.1", auth_key: bytes = b""
) -> Tuple[threading.Thread, int]:
    """A worker serving loopback from a daemon thread of this process.

    The CI-friendly deployment shape: no spawn cost, no pickled model
    hand-off, same wire protocol.  Returns ``(thread, port)``.
    """
    ready = threading.Event()
    holder: List[int] = []

    def _on_port(port: int) -> None:
        holder.append(port)
        ready.set()

    thread = threading.Thread(
        target=run_worker,
        kwargs={
            "host": host,
            "port": 0,
            "config": config,
            "on_port": _on_port,
            "in_process": True,
            "auth_key": auth_key,
        },
        name=f"repro-netshard-{config.index}-worker",
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=10.0):
        raise ShardUnreachable("in-process worker never bound its port")
    return thread, holder[0]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _RemoteTracker:
    def __init__(self) -> None:
        self.open_sessions = 0


class _RemoteMonitorView:
    """Duck-typed stand-in for the worker's ``RealTimeMonitor``."""

    def __init__(self) -> None:
        self.health: Dict[str, SubscriberHealth] = {}
        self.callback_errors = 0
        self.tracker = _RemoteTracker()


class _RemoteBatcherView:
    def __init__(self) -> None:
        self.pending = 0


@dataclass
class _Unacked:
    """Sent-but-unacknowledged entries, pruned by heartbeat acks."""

    entries: Deque[Tuple[int, WeblogEntry]] = field(default_factory=deque)

    def __len__(self) -> int:
        return len(self.entries)


class SocketShardWorker:
    """Parent-side handle for one socket shard.

    Presents the exact surface :class:`~repro.serving.supervisor.
    ShardSupervisor` supervises (``state``/``alive``/``restarts``/
    ``error``/``heartbeat_s``/``restart()``/``queue``) plus the two
    network-only affordances the three-state health model needs:
    ``connection_alive`` (partitioned vs dead) and
    :meth:`quarantine_backlog` (shed a partitioned shard's unsent
    backlog into the DLQ *without* restarting it).

    Parameters
    ----------
    config:
        The worker's :class:`NetShardConfig` (kill + partition budget
        included).
    queue:
        Parent-side ingest queue; survives restarts and reconnects.
    mode:
        ``"spawn"`` — fork/spawn a worker process over loopback and
        connect to it; ``"inproc"`` — run the worker as a thread of
        this process; ``"remote"`` — connect to ``address``, shipping
        the config (model included) inside ``hello``.
    address:
        ``(host, port)`` of an externally managed worker
        (``mode="remote"`` only).
    opts:
        Transport tuning (:class:`SocketOpts`).
    slow_link:
        Optional deterministic delay callable ``(seq) -> seconds``
        applied before each entries frame (the fault plan's
        ``slow_link`` spec).
    models:
        Optional :class:`~repro.serving.models.ModelManager` whose
        current model replaces ``config.framework`` at every worker
        (re)launch and remote ``hello``, so a reload reaches the shard
        at its next restart.
    """

    def __init__(
        self,
        config: NetShardConfig,
        queue: BoundedQueue,
        dead_letters: DeadLetterQueue,
        mode: str = "spawn",
        address: Optional[Tuple[str, int]] = None,
        on_diagnosis: Optional[Callable[[SessionDiagnosis], None]] = None,
        on_alarm: Optional[Callable[[Alarm], None]] = None,
        on_provisional: Optional[
            Callable[[ProvisionalDiagnosis], None]
        ] = None,
        fold: Optional[Callable[[Dict], None]] = None,
        faults=None,
        opts: Optional[SocketOpts] = None,
        slow_link: Optional[Callable[[int], float]] = None,
        start_method: Optional[str] = None,
        models: Optional[ModelManager] = None,
    ) -> None:
        if mode not in ("spawn", "inproc", "remote"):
            raise ValueError(f"unknown netshard mode {mode!r}")
        if mode == "remote" and address is None:
            raise ValueError("remote mode needs an (host, port) address")
        self.index = config.index
        self.config = config
        self.queue = queue
        self.dead_letters = dead_letters
        self.mode = mode
        self.address = address
        self.opts = opts if opts is not None else SocketOpts()
        self._on_diagnosis = on_diagnosis
        self._on_alarm = on_alarm
        self._on_provisional = on_provisional
        self._fold = fold
        self._faults = faults
        self._slow_link = slow_link
        self._models = models
        self._mp = (
            mp.get_context(start_method or _default_start_method())
            if mode == "spawn"
            else None
        )
        self.monitor = _RemoteMonitorView()
        self.batcher = _RemoteBatcherView()
        self.diagnoses: List[SessionDiagnosis] = []
        self.alarms: List[Alarm] = []
        self.provisional: List[ProvisionalDiagnosis] = []
        self._early_report: Optional[ConvergenceReport] = None
        self.entries_processed = 0
        self.quarantined = 0
        self.restarts = 0
        self.reconnects = 0
        self.error: Optional[BaseException] = None
        self.state = "created"
        self.heartbeat_s = 0.0
        self._connection_alive = False
        #: Blast radius of a worker death: every subscriber ever shipped.
        self._seen_subscribers: Set[str] = set()
        self._kill_times_left = config.kill_times
        self._entries_base = 0
        self._quarantined_base = 0
        self._token = f"svc-{os.getpid()}-{id(self):x}"
        # Self-launched workers get a fresh random key handed over out
        # of band (spawn args / thread kwargs) — authenticated with
        # zero configuration.  Remote workers must share opts.auth_key;
        # None degrades to the empty (unauthenticated) key, documented
        # as loopback/trusted-link only.
        self._auth_key = (
            (self.opts.auth_key or b"")
            if mode == "remote"
            else secrets.token_bytes(16)
        )
        #: Worker state epoch from hello_ack; a changed incarnation on
        #: reconnect means a different worker process answered at the
        #: same address (state lost), whatever its recv_seq claims.
        self._worker_incarnation: Optional[int] = None
        self._seq = 0
        self._acked_seq = 0
        self._unacked = _Unacked()
        self._unacked_lock = threading.Lock()
        self._received = {"diagnoses": 0, "alarms": 0, "provisional": 0, "letters": 0}
        self._stream: Optional[FrameStream] = None
        self._stream_lock = threading.Lock()
        self._connected = threading.Event()
        self._stop = threading.Event()
        self._drain_wanted = False
        self._drained = False
        self._death_report: Optional[Dict] = None
        self._process = None
        self._worker_thread: Optional[threading.Thread] = None
        self._worker_port: Optional[int] = None
        self._sender: Optional[threading.Thread] = None
        self._receiver: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Supervision surface
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._receiver is not None and self._receiver.is_alive()

    @property
    def connection_alive(self) -> bool:
        """True while the transport socket is believed usable.

        The supervisor's partitioned-vs-dead discriminator: a stale
        heartbeat over a *live* connection is a partition (quarantine,
        do not restart); a stale heartbeat with the connection gone is
        a reconnect in flight that will either recover or fail into
        ``state == "failed"``.
        """
        return self._connection_alive

    def early_report(self) -> Optional[ConvergenceReport]:
        return self._early_report

    def heartbeat_age_s(self, now: Optional[float] = None) -> float:
        if self.heartbeat_s == 0.0:
            return 0.0
        now = time.monotonic() if now is None else now
        return max(0.0, now - self.heartbeat_s)

    def start(self) -> None:
        self.state = "running"
        self.heartbeat_s = time.monotonic()
        try:
            self._launch_worker()
            self._establish(resume=False)
        except (ShardUnreachable, FrameError, OSError) as exc:
            # Never raise out of start(): an unreachable shard is a
            # *supervised* failure — restart budget, then circuit.
            self.error = ShardUnreachable(
                f"shard {self.index} unreachable at start: {exc}"
            )
            self.state = "failed"
            return
        self._start_threads()

    def restart(self) -> None:
        """Stand up a replacement worker over the surviving parent queue.

        Spawn/inproc modes launch a fresh worker (the dead one's state
        is gone — the process-death blast radius); remote mode
        re-attempts the connection with a full (model-carrying) hello,
        which reaches whatever the operator restarted at that address.
        The fault plan's remaining kill budget rides in the refreshed
        config so an injected kill cannot loop.
        """
        if self.alive:
            raise RuntimeError(f"shard {self.index} is alive; cannot restart")
        self._stop.set()
        for thread in (self._sender, self._receiver):
            if thread is not None:
                thread.join(timeout=5.0)
        self._close_stream()
        self.error = None
        self.restarts += 1
        self.monitor.tracker.open_sessions = 0
        self.batcher.pending = 0
        with self._unacked_lock:
            # The replacement worker starts empty at recv_seq 0: reset
            # the whole sequence space with it.  A stale _acked_seq
            # would make the first reconnect after the restart read as
            # "worker state lost" (recv_seq < acked) and falsely mark
            # every historically seen subscriber fault-affected —
            # _handle_death already marked the ones the dead worker
            # actually held.
            self._unacked.entries.clear()
            self._seq = 0
            self._acked_seq = 0
        self._seen_subscribers.clear()
        self._worker_incarnation = None
        self._received = {"diagnoses": 0, "alarms": 0, "provisional": 0, "letters": 0}
        self._stop = threading.Event()
        self._connected = threading.Event()
        self._drained = False
        self._drain_wanted = False
        self._death_report = None
        self.state = "running"
        self.heartbeat_s = time.monotonic()
        try:
            self._launch_worker()
            self._establish(resume=False)
        except (ShardUnreachable, FrameError, OSError) as exc:
            self.error = ShardUnreachable(
                f"shard {self.index} unreachable on restart: {exc}"
            )
            self.state = "failed"
            return
        self._start_threads()

    def join(self, timeout: Optional[float] = None) -> None:
        for thread in (self._sender, self._receiver):
            if thread is not None:
                thread.join(timeout)
        if self._process is not None:
            self._process.join(timeout)

    def quarantine_backlog(self, dead_letters: DeadLetterQueue) -> int:
        """Shed the unsent parent-side backlog of a partitioned shard.

        Entries already shipped (in flight or in the unacked buffer)
        are *not* touched — they will be processed when the partition
        heals, or resent by the reconnect handshake.  Only the queue
        backlog nobody has committed to is quarantined, so the shard
        itself keeps running and needs no restart.
        """
        entries = self.queue.drain_remaining()
        for entry in entries:
            dead_letters.put(
                entry,
                "partitioned",
                self.index,
                "heartbeat stale, socket alive; backlog shed without restart",
            )
        if entries and self._faults is not None:
            self._faults.mark_affected(
                {entry.subscriber_id for entry in entries}
            )
        return len(entries)

    # ------------------------------------------------------------------
    # Worker launch / connection establishment
    # ------------------------------------------------------------------

    def _launch_config(self) -> NetShardConfig:
        """What a fresh worker starts from: the live model (when a
        manager is attached) and the plan's remaining kill budget."""
        config = replace(self.config, kill_times=self._kill_times_left)
        if self._models is not None:
            config.framework = self._models.current
        return config

    def _launch_worker(self) -> None:
        if self.mode == "remote":
            return
        config = self._launch_config()
        if self.mode == "inproc":
            self._worker_thread, self._worker_port = start_inproc_worker(
                config, auth_key=self._auth_key
            )
            return
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_process_main,
            args=("127.0.0.1", 0, config, child_conn, self._auth_key),
            name=f"repro-netshard-{self.index}-r{self.restarts}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            self._worker_port = self._await_port(process, parent_conn)
        finally:
            parent_conn.close()
        self._process = process

    def _await_port(self, process, conn) -> int:
        """The spawned worker's bound port; fail fast if it died first.

        Polls in short slices and checks the child's exit code between
        them, so a worker that dies at bootstrap is reported at once
        instead of after the whole port deadline.
        """
        deadline = time.monotonic() + _PORT_DEADLINE_S
        while time.monotonic() < deadline:
            if conn.poll(_POLL_S):
                try:
                    return conn.recv()
                except EOFError:
                    process.join(_POLL_S)  # closed the pipe: exiting
                    break
            if process.exitcode is not None:
                break
        if process.exitcode is None:
            raise ShardUnreachable(
                f"shard {self.index} worker process never reported its "
                f"port within {_PORT_DEADLINE_S:.0f}s"
            )
        raise ShardUnreachable(
            f"shard {self.index} worker process exited with code "
            f"{process.exitcode} before reporting its port; the likely "
            "cause is a spawning script without an "
            "`if __name__ == \"__main__\":` guard, whose spawned children "
            "re-run it and die at bootstrap"
        )

    def _current_address(self) -> Tuple[str, int]:
        if self.mode == "remote":
            return self.address
        if self._worker_port is None:
            raise ShardUnreachable(f"shard {self.index} has no bound worker")
        return ("127.0.0.1", self._worker_port)

    def _establish(self, resume: bool) -> Dict:
        """Connect + hello/hello_ack handshake under the hard deadline."""
        address = self._current_address()
        opts = self.opts

        def attempt() -> socket.socket:
            return socket.create_connection(address, timeout=opts.connect_deadline_s)

        sock = retry_with_backoff(
            attempt,
            retries=1_000_000,  # the deadline is the real bound
            base_delay_s=opts.connect_backoff_s,
            max_delay_s=0.5,
            max_elapsed_s=opts.connect_deadline_s,
            retry_on=(OSError,),
            op=f"netshard{self.index}.connect",
        )
        try:
            # Mutual HMAC handshake before the first frame: the hello
            # we are about to send carries a pickled model the worker
            # will execute, so the worker must prove key possession
            # just as we must prove ours.
            answer_challenge(sock, self._auth_key)
        except (FrameError, OSError) as exc:
            try:
                sock.close()
            except OSError:
                pass
            raise ShardUnreachable(
                f"shard {self.index} authentication failed: {exc}"
            ) from exc
        stream = FrameStream(
            sock,
            max_frame_bytes=opts.max_frame_bytes,
            send_timeout_s=opts.send_timeout_s,
        )
        hello: Dict = {
            "token": self._token,
            "shard": self.index,
            "resume": resume,
            "out_diagnoses": self._received["diagnoses"],
            "out_alarms": self._received["alarms"],
            "out_provisional": self._received["provisional"],
            "out_letters": self._received["letters"],
        }
        if self.mode == "remote":
            hello["config"] = self._launch_config()
        try:
            stream.send("hello", hello)
            ack = stream.recv(timeout=_HELLO_TIMEOUT_S)
        except (FrameError, OSError) as exc:
            stream.close()
            raise ShardUnreachable(f"handshake failed: {exc}") from exc
        if ack is None or ack[0] != "hello_ack":
            stream.close()
            raise ShardUnreachable(f"expected hello_ack, got {ack!r}")
        if not resume:
            self._worker_incarnation = ack[1].get("incarnation")
        with self._stream_lock:
            self._stream = stream
        self._connection_alive = True
        self.heartbeat_s = time.monotonic()
        return ack[1]

    def _close_stream(self) -> None:
        self._connection_alive = False
        self._connected.clear()
        with self._stream_lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def _start_threads(self) -> None:
        self._connected.set()
        self._receiver = threading.Thread(
            target=self._recv_loop,
            name=f"repro-netshard-{self.index}-recv",
            daemon=True,
        )
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-netshard-{self.index}-send",
            daemon=True,
        )
        self._receiver.start()
        self._sender.start()

    # ------------------------------------------------------------------
    # Sender (parent queue → socket)
    # ------------------------------------------------------------------

    def _send_loop(self) -> None:
        opts = self.opts
        stop = self._stop
        while not stop.is_set():
            if not self._connected.wait(timeout=_POLL_S):
                continue
            with self._unacked_lock:
                backpressured = len(self._unacked) >= opts.max_unacked
            if backpressured:
                # The worker is not acking (partitioned or slow): stop
                # pulling so backpressure reaches the ingest queue —
                # where the supervisor can quarantine it if need be.
                time.sleep(_POLL_S)
                continue
            batch: List[WeblogEntry] = []
            closed = False
            try:
                batch.append(self.queue.get(timeout=_POLL_S))
                while len(batch) < _SEND_BATCH:
                    batch.append(self.queue.get(timeout=0))
            except QueueEmpty:
                pass
            except QueueClosed:
                closed = True
            if batch:
                with self._unacked_lock:
                    base_seq = self._seq + 1
                    for entry in batch:
                        self._seq += 1
                        self._unacked.entries.append((self._seq, entry))
                        self._seen_subscribers.add(entry.subscriber_id)
                self._send_entries(base_seq, batch)
            if closed:
                self._drain_wanted = True
                if self._send_control("drain", {}):
                    return
                # Connection down: the receiver's reconnect will resend
                # the drain; keep looping so a later resend can happen
                # here too if the reconnect beat us to the flag.
                time.sleep(_POLL_S)
                if self._drained or self.state == "failed":
                    return

    def _send_entries(self, base_seq: int, batch: List[WeblogEntry]) -> None:
        if self._slow_link is not None:
            delay = self._slow_link(base_seq)
            if delay > 0:
                time.sleep(delay)
        # Gate on _connected, which a reconnect sets only *after* the
        # unacked gap has been resent — reading self._stream alone
        # could grab the fresh stream _establish installed mid-
        # reconnect and deliver this (higher-seq) batch before the
        # gap, tricking the worker's watermark dedup into silently
        # skipping the resent lower-seq entries.  The gate must come
        # after the slow_link nap for the same reason.  Skipping is
        # always safe: the batch is already in the unacked buffer, so
        # the in-flight reconnect resends it in order.
        if not self._connected.is_set():
            return
        with self._stream_lock:
            stream = self._stream
        if stream is None:
            return  # already in the unacked buffer; reconnect resends
        try:
            stream.send("entries", {"base_seq": base_seq, "entries": batch})
        except (FrameError, OSError):
            # Entries are safe in the unacked buffer; flag the drop and
            # let the receiver drive the reconnect.
            self._connected.clear()

    def _send_control(self, kind: str, body: Dict) -> bool:
        stream = self._stream
        if stream is None or not self._connected.is_set():
            return False
        try:
            stream.send(kind, body)
            return True
        except (FrameError, OSError):
            self._connected.clear()
            return False

    # ------------------------------------------------------------------
    # Receiver (socket → results/heartbeats), reconnect, death
    # ------------------------------------------------------------------

    def _recv_loop(self) -> None:
        opts = self.opts
        while not self._stop.is_set():
            stream = self._stream
            if stream is None:
                time.sleep(_POLL_S)
                continue
            try:
                msg = stream.recv(timeout=opts.read_timeout_s)
            except (FrameError, OSError) as exc:
                if self._drained or self._stop.is_set():
                    return
                if self._try_reconnect(exc):
                    continue
                self._handle_death(exc)
                return
            if msg is None:
                continue
            self.heartbeat_s = time.monotonic()
            kind, payload = msg
            if kind == "out":
                self._apply_out(payload)
            elif kind == "registry":
                if self._fold is not None:
                    self._fold(payload)
            elif kind == "hb":
                self.monitor.tracker.open_sessions = payload["open_sessions"]
                self.batcher.pending = payload["pending"]
                self._prune_unacked(payload["recv_seq"])
            elif kind == "dying":
                self._death_report = payload
            elif kind == "drained":
                self._apply_drained(payload)
                return

    def _prune_unacked(self, recv_seq: int) -> None:
        with self._unacked_lock:
            self._acked_seq = max(self._acked_seq, recv_seq)
            entries = self._unacked.entries
            while entries and entries[0][0] <= recv_seq:
                entries.popleft()

    def _try_reconnect(self, cause: BaseException) -> bool:
        """Reconnect-and-resume under the deadline; False means dead.

        The session-sequence handshake makes this lossless: the worker
        reports the highest entry sequence it accepted, the unacked
        buffer is pruned to that watermark, and the remainder is
        resent in order before the sender resumes — no duplicate, no
        gap, no regressed per-subscriber timestamp.
        """
        self._close_stream()
        # A worker that said "dying" or whose process or in-process
        # thread has ended is gone, not the network.
        worker = self._process or self._worker_thread
        if self._death_report is not None or (
            worker and not worker.is_alive()
        ):
            return False
        _LOG.warning(
            "netshard_reconnecting", shard=self.index, cause=repr(cause)
        )
        try:
            ack = self._establish(resume=True)
        except (ShardUnreachable, FrameError, OSError):
            return False
        recv_seq = int(ack.get("recv_seq", 0))
        incarnation = ack.get("incarnation")
        state_lost = recv_seq < self._acked_seq or (
            self._worker_incarnation is not None
            and incarnation != self._worker_incarnation
        )
        self._worker_incarnation = incarnation
        with self._unacked_lock:
            if state_lost:
                # The worker lost state underneath us (fresh process at
                # the same address — regressed watermark or changed
                # incarnation): results so far are kept, but every
                # subscriber shipped there may now diverge.
                if self._faults is not None and self._seen_subscribers:
                    self._faults.mark_affected(self._seen_subscribers)
                _LOG.error(
                    "netshard_worker_state_lost",
                    shard=self.index,
                    acked=self._acked_seq,
                    worker_recv=recv_seq,
                )
            self._acked_seq = recv_seq
            entries = self._unacked.entries
            while entries and entries[0][0] <= recv_seq:
                entries.popleft()
            pending = list(entries)
        stream = self._stream
        try:
            for seq, entry in pending:
                stream.send("entries", {"base_seq": seq, "entries": [entry]})
            if self._drain_wanted and not self._drained:
                stream.send("drain", {})
        except (FrameError, OSError):
            self._close_stream()
            return False
        if pending:
            _RESENT.labels(shard=str(self.index)).inc(len(pending))
        self.reconnects += 1
        _RECONNECTS.labels(shard=str(self.index)).inc()
        get_recorder().record(
            "shard_reconnected",
            shard=self.index,
            resent=len(pending),
            recv_seq=recv_seq,
        )
        _LOG.info(
            "netshard_resumed",
            shard=self.index,
            resent=len(pending),
            recv_seq=recv_seq,
        )
        self._connected.set()
        return True

    def drop_connection_for_test(self) -> None:
        """Abruptly close the transport (chaos/testing hook).

        Simulates a mid-stream network blip: the next recv/send fails,
        and the receiver drives the reconnect-and-resume handshake.
        """
        with self._stream_lock:
            if self._stream is not None:
                self._stream.close()

    # ------------------------------------------------------------------
    # Message application (receiver thread only)
    # ------------------------------------------------------------------

    def _fire(self, callback, payload, name: str) -> None:
        if callback is None:
            return
        try:
            callback(payload)
        except Exception:
            self.monitor.callback_errors += 1
            _LOG.exception(
                "netshard_callback_failed", shard=self.index, callback=name
            )

    def _apply_out(self, out: Dict) -> None:
        for diagnosis in out["diagnoses"]:
            self.diagnoses.append(diagnosis)
            self._fire(self._on_diagnosis, diagnosis, "on_diagnosis")
        for alarm in out["alarms"]:
            self.alarms.append(alarm)
            self._fire(self._on_alarm, alarm, "on_alarm")
        for provisional in out.get("provisional", ()):
            self.provisional.append(provisional)
            self._fire(self._on_provisional, provisional, "on_provisional")
        for entry, reason, detail in out["letters"]:
            self.dead_letters.put(entry, reason, self.index, detail)
        self._received["diagnoses"] += len(out["diagnoses"])
        self._received["alarms"] += len(out["alarms"])
        self._received["provisional"] += len(out.get("provisional", ()))
        self._received["letters"] += len(out["letters"])
        self.entries_processed = self._entries_base + out["entries_processed"]
        self.quarantined = self._quarantined_base + out["quarantined"]

    def _apply_drained(self, payload: Dict) -> None:
        self.monitor.health.update(payload["health"])
        report = payload.get("early_report")
        if report is not None:
            self._early_report = (
                report
                if self._early_report is None
                else self._early_report.merge(report)
            )
        self.monitor.tracker.open_sessions = 0
        self.batcher.pending = 0
        self._drained = True
        self._close_stream()
        self.state = "stopped"

    def _handle_death(self, cause: BaseException) -> None:
        """Reconnect deadline spent (or the worker process is gone)."""
        self._close_stream()
        if self._process is not None:
            self._process.join(timeout=5.0)
        report = self._death_report or {}
        kills = int(report.get("kills", 0))
        if kills:
            self._kill_times_left = max(0, self._kill_times_left - kills)
            if self._faults is not None:
                self._faults.note_remote_kills(self.index, kills)
        if self._faults is not None and self._seen_subscribers:
            self._faults.mark_affected(self._seen_subscribers)
        detail = report.get("error") or repr(cause)
        self.error = ShardConnectionLost(
            f"shard {self.index} connection lost beyond recovery: {detail}"
        )
        self._entries_base = self.entries_processed
        self._quarantined_base = self.quarantined
        get_recorder().record(
            "shard_worker_died", shard=self.index, error=repr(self.error)
        )
        _LOG.error(
            "netshard_worker_dead", shard=self.index, error=detail
        )
        # Written last: the supervisor reacts to "failed" and must see
        # the error and accounting when it does.
        self.state = "failed"
