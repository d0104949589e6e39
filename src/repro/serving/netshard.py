"""Socket-backed shard workers: the one remote-shard transport.

This module moves shards off the serving process — onto other cores
(``placement="local:N"`` starts loopback worker processes, which is
also what ``shard_backend="process"`` means) or other machines.  The
transport is a length-prefixed, CRC-checked socket frame
(:mod:`repro.serving.framing`) and *where* each worker runs is a
placement map (:mod:`repro.serving.placement`).  The message
vocabulary::

    parent → worker  ("hello",   {protocol, token, shard, config?,
                                  incarnation, out_acked})
                     ("entries", {base_seq, entries, out_acked})
                     ("drain",   {})
    worker → parent  ("hello_ack", {protocol, recv_seq, incarnation})
                     ("out",     {items, entries_processed, quarantined})
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
  the reconnect handshake (``hello`` → ``hello_ack``) learns the
  worker's ``recv_seq``, prunes the buffer, and resends the gap **in
  order**, ``_SEND_BATCH`` entries per frame.  The numbers are
  contiguous, so the buffer holds the entries alone.  The worker's
  per-subscriber monotonicity watermark therefore survives a
  reconnect with no duplicate and no regressed entry.  A restart
  follows the same rule: a standalone worker that outlived the
  parent-side death answers with its own incarnation and continues
  at its ``recv_seq``.
* **One outbox, acknowledged the same way.**  Results travel the
  other way under the same rule.  Every diagnosis, alarm, provisional
  diagnosis and dead letter the worker produces is appended, in
  production order, to one outbox with absolute indices; ``out``
  frames ship its unshipped suffix.  The parent counts the items it
  has applied and reports that count as ``out_acked`` in every
  ``entries`` frame and in every ``hello``; the worker trims the
  outbox to it, so what the outbox retains is what the parent has not
  acknowledged.  A reconnect ships again from the parent's count —
  when the hello names the worker's own incarnation; any other
  incarnation's count means nothing to this worker, which then ships
  its whole outbox, and the parent, seeing a new incarnation in the
  ``hello_ack``, restarts its count at 0.
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
* **One owner per connection.**  Each side runs one loop per
  connection: the worker its ``_serve_connection``, the parent one I/O
  thread per worker incarnation that alone sends, receives, keeps the
  sequence space and the unacked buffer, reconnects, and publishes the
  handle's ``state``.  Entries cross each side's queue in batches: the
  I/O thread takes a send batch with one ``get_many``, and the worker
  hands its received backlog to its shard's queue with one
  ``put_many`` (the shard thread then pulls its own batches, see
  :mod:`repro.serving.shard`).  No lock guards any of it, and neither side ever
  waits on a send the other is blocked in: a send that cannot go out
  reads the peer's bytes meanwhile (:meth:`FrameStream.send`).
* **At-most-once across a worker death.**  A dead worker (process
  exit, unreachable address) loses its whole shard state — a wider
  blast radius than a thread kill, which keeps tracker and health
  alive under the replaced thread: the parent marks every subscriber
  it ever shipped there as fault-affected and the replacement starts
  empty.  Declaring the death is the I/O thread's last act, so nothing
  leaves the ingest queue between the death and the restart: what is
  still queued reaches the replacement.  An injected kill consumes
  the plan's ``kill_times`` budget across restarts (the parent
  decrements what each dead worker reports), so a relaunched worker
  does not kill-loop.  Results already received stay received, and
  the outbox makes a reconnect neither re-deliver nor drop one.

Worker deployment shapes (all speak the identical protocol):

* ``start_inproc_worker`` — a daemon *thread* serving loopback; no
  process to start, CI-friendly, shares the parent registry (so it
  ships no registry deltas).
* local — a child *process* over loopback (the router does this for
  ``placement="local:N"``), true multi-core diagnosis.  Children fork
  from one ``multiprocessing`` forkserver per service process that has
  already imported this module, so only the first launch in a process
  pays the import (see :func:`_default_start_method`).  A local worker
  exits once the process that launched it is gone.
* standalone — ``python -m repro netshard-worker --listen HOST:PORT``;
  the parent ships the model inside ``hello`` at connect time.  It
  outlives any parent by design, and must run the parent's code
  version: each end refuses a handshake whose ``protocol`` is not its
  own :data:`_PROTOCOL`.

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
import multiprocessing.connection
import os
import secrets
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
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
    trace,
)
from repro.online.early import ConvergenceReport, ProvisionalDiagnosis
from repro.realtime.monitor import Alarm, SubscriberHealth

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
from .shard import ShardSpec, ShardWorker

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
#: A live local worker must report its bound port within this.
_PORT_DEADLINE_S = 30.0
#: What the forkserver imports once, before it forks any worker.
_PRELOAD = ["repro.serving.netshard"]
#: The message vocabulary's version, in every hello and hello_ack.
#: Bump it whenever a frame changes shape: each end refuses a
#: handshake from another version instead of misreading its frames.
_PROTOCOL = 1


def _default_start_method() -> str:
    """``forkserver`` where it can work, ``fork`` where only fork can.

    A forkserver is a clean single-threaded process that imports
    :data:`_PRELOAD` once and then forks every local worker of this
    process: a shard start, a supervisor restart and the next service's
    launch all get an already-imported worker.  A plain fork taken while
    sibling shards' I/O threads hold registry or queue locks could
    deadlock the child; the forkserver's fork cannot.

    Like spawn, a forkserver child re-imports the parent's ``__main__``
    from its file path.  When the driver came from stdin or ``exec``
    (heredoc scripts, notebooks) there is no such file and every child
    would die on startup, so those parents fall back to fork.  Where the
    platform has no forkserver, spawn.

    The preload is imported by the forkserver's own interpreter, which
    finds ``repro`` through ``PYTHONPATH`` or the installed package, not
    through the parent's ``sys.path``.  A parent that reaches ``repro``
    only by editing ``sys.path`` gets no preload: each child then
    imports it for itself, at spawn's cost, and works the same.  (So a
    parent should not put one copy of ``repro`` on ``PYTHONPATH`` and
    import another through ``sys.path``: its workers would run the
    preloaded copy.)
    """
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        return "fork"
    if "forkserver" in mp.get_all_start_methods():
        return "forkserver"
    return "spawn"


def _worker_context():
    """The multiprocessing context local workers start from."""
    method = _default_start_method()
    context = mp.get_context(method)
    if method == "forkserver":
        # Never "__main__": an unguarded script would then run inside
        # the forkserver itself.
        context.set_forkserver_preload(_PRELOAD)
    return context


class ShardUnreachable(RuntimeError):
    """No connection could be established within the connect deadline."""


class ShardConnectionLost(RuntimeError):
    """The connection died and could not be resumed; the shard is dead."""


@dataclass
class NetShardConfig:
    """Everything a socket shard worker needs, picklable for launch/hello.

    The shard's :class:`~repro.serving.shard.ShardSpec` plus the fault
    plan's remaining budgets: ``kill_at_entry`` / ``kill_times`` (the
    parent decrements them across restarts), ``partition_at_entry`` /
    ``partition_secs`` carry the fault plan's *partition* spec for this
    shard (the worker goes reachable-but-silent for that long after
    accepting its N-th entry), and ``ship_registry`` is switched off
    for in-process workers that already write the parent registry.
    """

    index: int
    framework: Optional[QoEFramework] = None
    spec: ShardSpec = ShardSpec()
    telemetry: bool = True
    sample_every: int = 128
    kill_at_entry: int = 0
    kill_times: int = 0
    partition_at_entry: int = 0
    partition_secs: float = 0.0
    heartbeat_interval_s: float = 0.25
    ship_registry: bool = True


@dataclass
class SocketOpts:
    """Parent-side transport tuning for one service's socket shards."""

    #: Hard deadline on establishing (or re-establishing) a connection.
    connect_deadline_s: float = 8.0
    #: Backoff base between connection attempts (deterministic, no jitter).
    connect_backoff_s: float = 0.05
    #: Ceiling on one send (a wedged peer cannot hold the I/O thread
    #: hostage forever).
    send_timeout_s: float = 30.0
    #: Entries retained in the unacked resend buffer before the I/O
    #: thread stops pulling from the ingest queue (backpressure boundary —
    #: also what forces a partitioned shard's backlog to accumulate in
    #: the quarantinable parent queue instead of growing unbounded).
    max_unacked: int = 2048
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Shared secret for the HMAC handshake to *remote* (standalone)
    #: workers — must match the worker's ``--auth-key-file`` /
    #: ``REPRO_NETSHARD_AUTHKEY``.  ``None`` degrades to an empty key
    #: (unauthenticated): loopback/trusted links only.  Local and
    #: in-process workers ignore this; the parent generates a random
    #: per-worker key and hands it over out of band at launch.
    auth_key: Optional[bytes] = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


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


class _Outbox:
    """One worker incarnation's results the parent has not acknowledged.

    Items are ``(kind, item)`` pairs in the order the shard produced
    them: ``("diagnosis", SessionDiagnosis)``, ``("alarm", Alarm)``,
    ``("provisional", ProvisionalDiagnosis)`` and ``("letter", (entry,
    reason, detail))`` — the parent performs the one real
    :meth:`~repro.serving.dlq.DeadLetterQueue.put` per letter.  Indices
    are *absolute*: ``base`` is the index of the first retained item, so
    trimming acknowledged items shifts no cursor.  The shard thread
    appends (the outbox is its ``dead_letters`` and its three result
    callbacks); only the connection thread reads and trims.
    """

    def __init__(self) -> None:
        self._items: List[Tuple[str, object]] = []
        self.base = 0

    @property
    def end(self) -> int:
        """Absolute index one past the newest item."""
        return self.base + len(self._items)

    def collector(self, kind: str) -> Callable[[object], None]:
        """A result callback that appends ``(kind, result)``."""
        append = self._items.append
        return lambda item: append((kind, item))

    def put(
        self, entry: WeblogEntry, reason: str, shard: int, detail: str = ""
    ) -> None:
        """The dead-letter surface :class:`ShardWorker` writes to."""
        self._items.append(("letter", (entry, reason, detail)))

    def slice(self, lo: int, hi: int) -> List[Tuple[str, object]]:
        return self._items[lo - self.base : hi - self.base]

    def trim_to(self, index: int) -> None:
        """Drop the items below absolute ``index``, clamped into
        ``[base, end]``."""
        drop = min(max(index - self.base, 0), len(self._items))
        if drop:
            del self._items[:drop]
            self.base += drop


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
        self.outbox = _Outbox()
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
        #: Absolute outbox index the current connection has shipped to.
        self.sent = 0
        #: ``entries_processed`` as last shipped (-1: ship the counters).
        self.sent_entries = -1
        if config is not None:
            self.configure(config)

    def configure(self, config: Optional[NetShardConfig]) -> None:
        if self.worker is not None:
            return
        if config is None or config.framework is None:
            raise FrameError("hello carried no model for an unconfigured worker")
        if "spec" not in vars(config):
            # Pickled by another code version, whose shard settings
            # this one does not read: refuse it rather than run the
            # default spec.
            raise FrameError("hello config is from another code version")
        self.config = config
        self.queue = config.spec.ingest_queue(f"shard{config.index}n")
        self.shard_tel = (
            PipelineTelemetry(sample_every=config.sample_every).for_shard(
                config.index
            )
            if config.telemetry
            else None
        )
        self.kills = _KillBudget(config.kill_at_entry, config.kill_times)
        outbox = self.outbox
        self.worker = ShardWorker(
            config.index,
            ModelManager(config.framework),
            self.queue,
            config.spec,
            dead_letters=outbox,
            on_diagnosis=outbox.collector("diagnosis"),
            on_alarm=outbox.collector("alarm"),
            on_provisional=outbox.collector("provisional"),
            fault_hook=self.kills.hook if config.kill_times > 0 else None,
            telemetry=self.shard_tel,
        )
        self.worker.start()

    # -- output shipping ----------------------------------------------

    def rewind(self, hello: Dict) -> None:
        """Ship the outbox again from what the parent holds.

        The hello's ``out_acked`` counts this worker's items only when
        the hello names this incarnation; it comes from outside the
        process, so the trim clamps it into ``[base, end]``.  A hello
        naming another incarnation, or none, comes from a parent that
        holds none of this worker's items: the outbox ships from its
        base.
        """
        if hello.get("incarnation") == self.incarnation:
            self.outbox.trim_to(int(hello.get("out_acked", 0)))
        self.sent = self.outbox.base
        self.sent_entries = -1  # force a fresh counters frame

    def flush_outputs(self, stream: FrameStream) -> None:
        worker = self.worker
        # Take the end exactly once: the shard thread appends
        # concurrently, and a cursor taken from a *re-read* end after
        # the send would mark items as sent that were appended after
        # the slice — silently lost output.
        end = self.outbox.end
        n_entries = worker.entries_processed
        if end == self.sent and n_entries == self.sent_entries:
            return
        out = {
            "items": self.outbox.slice(self.sent, end),
            "entries_processed": n_entries,
            "quarantined": worker.quarantined,
        }
        stream.send("out", out)
        self.sent = end
        self.sent_entries = n_entries

    def ship_registry(self, stream: FrameStream) -> None:
        if not self.config.ship_registry:
            return
        current = get_registry().to_state()
        stream.send("registry", registry_state_delta(current, self.prev_registry_state))
        self.prev_registry_state = current


def _hand_over(
    backlog: Deque[WeblogEntry], queue: BoundedQueue, timeout: float
) -> None:
    """Move the head of the received backlog into the shard's queue in
    one hand-off, waiting at most ``timeout`` for space."""
    try:
        admitted = queue.put_many(backlog, timeout=timeout)
    except QueueFull:
        return
    for _ in range(admitted):
        backlog.popleft()


def _serve_connection(stream: FrameStream, st: _WorkerState) -> Optional[str]:
    """Serve one parent connection; returns 'drained'/'dying' to exit,
    ``None`` when the connection dropped and the worker should await a
    reconnect with its state intact."""
    hello = stream.recv(timeout=_HELLO_TIMEOUT_S)
    if hello is None or hello[0] != "hello":
        raise FrameError(f"expected hello, got {hello!r}")
    body = hello[1] or {}
    if body.get("protocol") != _PROTOCOL:
        raise FrameError(
            f"hello speaks protocol {body.get('protocol')!r}, this worker "
            f"{_PROTOCOL}: parent and worker must run one code version"
        )
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
    st.rewind(body)
    stream.send(
        "hello_ack",
        {
            "protocol": _PROTOCOL,
            "recv_seq": st.recv_seq,
            "incarnation": st.incarnation,
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
                "open_sessions": worker.open_sessions,
                "pending": worker.pending_batch,
                "recv_seq": acked_seq,
            },
        )

    while True:
        if st.backlog and worker.state in ("created", "running"):
            _hand_over(st.backlog, queue, _POLL_S)
        if not st.backlog and st.recv_seq != acked_seq:
            # Everything received now sits in the bounded queue: ack it
            # at once so the parent's unacked window refills at the
            # rate the worker absorbs entries, not the heartbeat's.
            beat()
        msg = stream.recv(timeout=0.0 if st.backlog else _POLL_S)
        if msg is not None:
            kind, payload = msg
            if kind == "entries":
                # The parent has applied every item below its count;
                # it cannot have applied one this connection never sent.
                st.outbox.trim_to(min(int(payload.get("out_acked", 0)), st.sent))
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
                    _hand_over(st.backlog, queue, 0.2)
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
                    "health": dict(worker.health),
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

    A worker that ``multiprocessing`` started (the local placement)
    waits for ``accept`` together with its parent's sentinel and
    returns 0 once the service process that launched it is gone, so a
    killed service leaves no worker listening.  A standalone worker has
    no such parent and keeps listening.

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
    max_frame_bytes:
        Largest frame this worker reads, on every connection it
        accepts; a peer's larger frame drops that connection.
    in_process:
        True when the worker shares the parent's process: skips
        registry shipping (the metrics are already local).
    auth_key:
        Shared secret for the per-connection HMAC handshake.  The
        router generates one per local/in-process worker; standalone
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
    owner = None if in_process else mp.parent_process()
    _LOG.info(
        "netshard_worker_listening",
        host=host,
        port=bound,
        configured=st.worker is not None,
    )
    try:
        while True:
            if owner is not None:
                ready = mp.connection.wait([listener, owner.sentinel])
                if owner.sentinel in ready:
                    _LOG.warning("netshard_worker_orphaned", port=bound)
                    return 0
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
            stream = FrameStream(conn, max_frame_bytes=max_frame_bytes)
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
    """Local worker process entry point (module top level: picklable)."""
    get_registry().reset()  # zero what the preload or a fork left behind
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

    The CI-friendly deployment shape: no process start, no pickled
    model hand-off, same wire protocol.  Returns ``(thread, port)``.
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


class SocketShardWorker:
    """Parent-side handle for one socket shard.

    Presents the exact surface :class:`~repro.serving.supervisor.
    ShardSupervisor` supervises (``state``/``alive``/``restarts``/
    ``error``/``heartbeat_s``/``restart()``/``queue``) plus the two
    network-only affordances the three-state health model needs:
    ``connection_alive`` (partitioned vs dead) and
    :meth:`quarantine_backlog` (shed a partitioned shard's unsent
    backlog into the DLQ *without* restarting it).

    Each worker incarnation has one I/O thread
    (``repro-netshard-{i}-io``).  It alone owns the connection, the
    sequence space, the unacked buffer and the reconnect, and while it
    runs it is the only writer of ``state``; ``start()`` and
    ``restart()`` write it only when no I/O thread is alive.  Other
    threads reach it through the ingest queue (entries, and its close
    for the drain) and :meth:`quarantine_backlog`, which only touches
    that queue.

    Parameters
    ----------
    config:
        The worker's :class:`NetShardConfig` (kill + partition budget
        included).
    queue:
        Parent-side ingest queue; survives restarts and reconnects.
    mode:
        ``"local"`` — start a worker process over loopback (from the
        forkserver, see :func:`_default_start_method`) and connect to
        it; ``"inproc"`` — run the worker as a thread of this process;
        ``"remote"`` — connect to ``address``, shipping the config
        (model included) inside ``hello``.
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
        mode: str = "local",
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
        models: Optional[ModelManager] = None,
    ) -> None:
        if mode not in ("local", "inproc", "remote"):
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
        self._fold = fold
        self._faults = faults
        self._slow_link = slow_link
        self._models = models
        self._mp = _worker_context() if mode == "local" else None
        # The read surface QoEService shares with ShardWorker, as the
        # worker last reported it.
        self.open_sessions = 0
        self.pending_batch = 0
        self.health: Dict[str, SubscriberHealth] = {}
        self.callback_errors = 0
        self.diagnoses: List[SessionDiagnosis] = []
        self.alarms: List[Alarm] = []
        self.provisional: List[ProvisionalDiagnosis] = []
        #: Where ``_apply_out`` puts each result kind, and its callback.
        self._sinks = {
            "diagnosis": (self.diagnoses, on_diagnosis),
            "alarm": (self.alarms, on_alarm),
            "provisional": (self.provisional, on_provisional),
        }
        self._early_report: Optional[ConvergenceReport] = None
        self.entries_processed = 0
        self.quarantined = 0
        self.restarts = 0
        self.reconnects = 0
        self.error: Optional[BaseException] = None
        self.state = "created"
        self.heartbeat_s = 0.0
        self._connection_alive = False
        self._kill_times_left = config.kill_times
        #: Counters of the incarnations before ``_worker_incarnation``.
        self._entries_base = 0
        self._quarantined_base = 0
        #: Worker state epoch from hello_ack; a changed incarnation on
        #: reconnect means a different worker process answered at the
        #: same address (state lost), whatever its recv_seq claims.
        self._worker_incarnation: Optional[int] = None
        #: Outbox items of ``_worker_incarnation`` applied here, in order.
        self._out_acked = 0
        self._token = f"svc-{os.getpid()}-{id(self):x}"
        # Self-launched workers get a fresh random key handed over out
        # of band (pickled process args / thread kwargs) — authenticated
        # with zero configuration.  Remote workers must share opts.auth_key;
        # None degrades to the empty (unauthenticated) key, documented
        # as loopback/trusted-link only.
        self._auth_key = (
            (self.opts.auth_key or b"")
            if mode == "remote"
            else secrets.token_bytes(16)
        )
        self._process = None
        self._worker_thread: Optional[threading.Thread] = None
        self._worker_port: Optional[int] = None
        self._io: Optional[threading.Thread] = None
        self._reset_incarnation()

    def _reset_incarnation(self) -> None:
        """Reset what the parent shipped to the worker it lost.

        The entry sequence restarts at 0 until the next ``hello_ack``
        says where the answering worker stands (:meth:`_adopt`): a
        replacement starts at 0, a standalone worker that outlived the
        death continues at its own ``recv_seq``.  A stale
        ``_acked_seq`` would make the first resume after a restart read
        as worker state lost and mark subscribers the dead worker never
        saw.  The outbox count stays with the incarnation it names.
        """
        self._stream: Optional[FrameStream] = None
        #: Highest sequence shipped; the unacked buffer holds the
        #: entries numbered ``_seq - len(_unacked) + 1 .. _seq``.
        self._seq = 0
        self._acked_seq = 0
        #: Sent-but-unacknowledged entries in sequence order, pruned by
        #: acks.
        self._unacked: Deque[WeblogEntry] = deque()
        #: Blast radius of a worker death: every subscriber shipped.
        self._shipped_to: Set[str] = set()
        #: ``len(_shipped_to)``, published by the I/O thread for readers
        #: on other threads (the set itself is its own).
        self.seen_subscribers = 0
        self._draining = False
        self._death_report: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Supervision surface
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._io is not None and self._io.is_alive()

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
        self._begin("at start")

    def restart(self) -> None:
        """Stand up a replacement worker over the surviving parent queue.

        Local/inproc modes launch a fresh worker (the dead one's state
        is gone — the process-death blast radius); remote mode
        re-attempts the connection with a full (model-carrying) hello,
        which reaches whatever the operator restarted at that address —
        or the standalone worker that outlived the death, which then
        continues its entry sequence and outbox (:meth:`_adopt`).
        The fault plan's remaining kill budget rides in the refreshed
        config so an injected kill cannot loop.
        """
        if self.state == "failed" and self._io is not None:
            # _handle_death publishes "failed" as the I/O thread's last
            # act, so this join returns at once.
            self._io.join()
        if self.alive:
            raise RuntimeError(f"shard {self.index} is alive; cannot restart")
        self.error = None
        self.restarts += 1
        self.open_sessions = 0
        self.pending_batch = 0
        self._reset_incarnation()
        self._begin("on restart")

    def _begin(self, when: str) -> None:
        """Launch and connect a worker, then hand it to a new I/O thread."""
        self.state = "running"
        self.heartbeat_s = time.monotonic()
        try:
            self._launch_and_connect()
        except (ShardUnreachable, FrameError, OSError) as exc:
            # Never raise out of start()/restart(): an unreachable
            # shard is a *supervised* failure — restart budget, then
            # circuit.
            self.error = ShardUnreachable(
                f"shard {self.index} unreachable {when}: {exc}"
            )
            self.state = "failed"
            return
        self._io = threading.Thread(
            target=self._io_loop,
            name=f"repro-netshard-{self.index}-io",
            daemon=True,
        )
        self._io.start()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._io is not None:
            self._io.join(timeout)
        if self._process is not None:
            self._process.join(timeout)

    @property
    def queued(self) -> int:
        """Entries waiting in the parent-side queue (the unacked buffer
        has been shipped)."""
        return self.queue.depth

    def drain_backlog(self) -> List[WeblogEntry]:
        """Remove and return the unshipped backlog (circuit breaker)."""
        return self.queue.drain_remaining()

    def quarantine_backlog(self, dead_letters: DeadLetterQueue) -> int:
        """Shed the unsent parent-side backlog of a partitioned shard.

        Entries already shipped (in flight or in the unacked buffer)
        are *not* touched — they will be processed when the partition
        heals, or resent by the reconnect handshake.  Only the queue
        backlog nobody has committed to is quarantined, so the shard
        itself keeps running and needs no restart.
        """
        entries = self.drain_backlog()
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

    def _launch_and_connect(self) -> None:
        """Launch the worker (none in remote mode) and complete its hello."""
        with trace("serving.shard_launch") as span:
            span.add("launches", 1)
            self._launch_worker()
            self._adopt(self._establish())

    def _adopt(self, ack: Dict) -> bool:
        """Take up the sequence state a ``hello_ack`` reports.

        One rule for a start, a restart and a reconnect: the
        incarnation this handle last spoke to continues where it
        stands — entries after its ``recv_seq``, results after this
        handle's count — and any other incarnation starts both afresh,
        its counters added to the totals so far.  Returns True when
        another incarnation answered.
        """
        recv_seq = int(ack.get("recv_seq", 0))
        incarnation = ack.get("incarnation")
        replaced = incarnation != self._worker_incarnation
        if replaced:
            self._worker_incarnation = incarnation
            self._out_acked = 0
            self._entries_base = self.entries_processed
            self._quarantined_base = self.quarantined
        self._seq = max(self._seq, recv_seq)
        self._acked_seq = recv_seq
        self._prune_unacked(recv_seq)
        return replaced

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
        """The local worker's bound port; fail fast if it died first.

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
            "cause is a launching script without an "
            "`if __name__ == \"__main__\":` guard, whose worker processes "
            "re-run it and die at bootstrap"
        )

    def _current_address(self) -> Tuple[str, int]:
        if self.mode == "remote":
            return self.address
        if self._worker_port is None:
            raise ShardUnreachable(f"shard {self.index} has no bound worker")
        return ("127.0.0.1", self._worker_port)

    def _establish(self) -> Dict:
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
            "protocol": _PROTOCOL,
            "token": self._token,
            "shard": self.index,
            # The count is this incarnation's; another worker ignores it.
            "incarnation": self._worker_incarnation,
            "out_acked": self._out_acked,
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
        if ack[1].get("protocol") != _PROTOCOL:
            stream.close()
            raise ShardUnreachable(
                f"worker speaks protocol {ack[1].get('protocol')!r}, this "
                f"parent {_PROTOCOL}: parent and worker must run one code "
                "version"
            )
        self._stream = stream
        self._connection_alive = True
        self.heartbeat_s = time.monotonic()
        return ack[1]

    def _close_stream(self) -> None:
        self._connection_alive = False
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def drop_connection_for_test(self) -> None:
        """Abruptly close the transport (chaos/testing hook).

        Simulates a mid-stream network blip: the I/O thread's next
        recv/send fails and it drives the reconnect-and-resume
        handshake.
        """
        stream = self._stream
        if stream is not None:
            stream.close()

    # ------------------------------------------------------------------
    # The I/O thread
    # ------------------------------------------------------------------

    def _io_loop(self) -> None:
        """Serve this incarnation's connection until drained or dead.

        The shape of the worker loop: while the unacked window is open
        and no drain is out, wait on the ingest queue and ship what it
        yields; otherwise wait on the socket.  Either way, then apply
        everything the worker has already sent.  A failed connection
        is first read to its end (a ``dying`` report included), then
        resumed under the connect deadline or declared dead.
        """
        max_unacked = self.opts.max_unacked
        while self.state == "running":
            stream = self._stream
            try:
                wait_s = _POLL_S
                if not self._draining and len(self._unacked) < max_unacked:
                    self._ship_batch(stream)
                    wait_s = 0.0
                self._read(stream, wait_s)
            except (FrameError, OSError) as exc:
                try:
                    self._read(stream, 0.0)
                except (FrameError, OSError):
                    pass
                if self.state == "running" and not self._try_reconnect(exc):
                    self._handle_death(exc)

    def _ship_batch(self, stream: FrameStream) -> None:
        """Send up to one batch from the ingest queue, taken in one
        hand-off, and the drain once the queue is closed and empty."""
        batch: List[WeblogEntry] = []
        closed = False
        try:
            batch = self.queue.get_many(_SEND_BATCH, timeout=_POLL_S)
        except QueueEmpty:
            pass
        except QueueClosed:
            closed = True
        if batch:
            # Into the unacked buffer before the send: if the send
            # fails, the resume resends them in order.
            base_seq = self._seq + 1
            self._seq += len(batch)
            self._unacked.extend(batch)
            self._shipped_to.update(entry.subscriber_id for entry in batch)
            self.seen_subscribers = len(self._shipped_to)
            if self._slow_link is not None:
                delay = self._slow_link(base_seq)
                if delay > 0:
                    time.sleep(delay)
            stream.send(
                "entries",
                {"base_seq": base_seq, "entries": batch, "out_acked": self._out_acked},
            )
        if closed:
            self._draining = True
            stream.send("drain", {})

    def _read(self, stream: FrameStream, wait_s: float) -> None:
        """Apply what arrives within ``wait_s`` and all that follows it
        without waiting; stops once the worker has drained."""
        msg = stream.recv(timeout=wait_s)
        while msg is not None:
            self._apply(msg)
            if self.state != "running":
                return
            msg = stream.recv(timeout=0.0)

    def _apply(self, msg: Tuple[str, Dict]) -> None:
        self.heartbeat_s = time.monotonic()
        kind, payload = msg
        if kind == "out":
            self._apply_out(payload)
        elif kind == "registry":
            if self._fold is not None:
                self._fold(payload)
        elif kind == "hb":
            self.open_sessions = payload["open_sessions"]
            self.pending_batch = payload["pending"]
            self._prune_unacked(payload["recv_seq"])
        elif kind == "dying":
            self._death_report = payload
        elif kind == "drained":
            self._apply_drained(payload)

    def _prune_unacked(self, recv_seq: int) -> None:
        self._acked_seq = max(self._acked_seq, recv_seq)
        entries = self._unacked
        # The buffer's first entry is number _seq - len + 1.
        acked = recv_seq - (self._seq - len(entries))
        for _ in range(min(acked, len(entries))):
            entries.popleft()

    def _try_reconnect(self, cause: BaseException) -> bool:
        """Reconnect-and-resume under the deadline; False means dead.

        The session-sequence handshake makes this lossless: the worker
        reports the highest entry sequence it accepted, the unacked
        buffer is pruned to that watermark, and the remainder is
        resent in order before anything new is shipped — no duplicate,
        no gap, no regressed per-subscriber timestamp.  A connection
        that drops again before the resend completes is one more blip,
        not a death: the handshake is repeated until the connect
        deadline.
        """
        deadline = time.monotonic() + self.opts.connect_deadline_s
        while True:
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
                resent = self._resume()
            except (ShardUnreachable, FrameError, OSError) as exc:
                if time.monotonic() >= deadline:
                    return False
                cause = exc
                continue
            break
        self.reconnects += 1
        _RECONNECTS.labels(shard=str(self.index)).inc()
        get_recorder().record(
            "shard_reconnected",
            shard=self.index,
            resent=resent,
            recv_seq=self._acked_seq,
        )
        _LOG.info(
            "netshard_resumed",
            shard=self.index,
            resent=resent,
            recv_seq=self._acked_seq,
        )
        return True

    def _resume(self) -> int:
        """One resume handshake and resend; returns the entries resent.

        Raises ``ShardUnreachable`` when no connection can be made, and
        ``FrameError`` / ``OSError`` when the fresh connection fails
        during the resend.
        """
        acked = self._acked_seq
        if self._adopt(self._establish()) or self._acked_seq < acked:
            # The worker lost state underneath us (fresh process at
            # the same address — changed incarnation or regressed
            # watermark): results so far are kept, but every
            # subscriber shipped there may now diverge.
            if self._faults is not None and self._shipped_to:
                self._faults.mark_affected(self._shipped_to)
            _LOG.error(
                "netshard_worker_state_lost",
                shard=self.index,
                acked=acked,
                worker_recv=self._acked_seq,
            )
        unacked = list(self._unacked)
        first = self._seq - len(unacked) + 1
        for lo in range(0, len(unacked), _SEND_BATCH):
            self._stream.send(
                "entries",
                {
                    "base_seq": first + lo,
                    "entries": unacked[lo : lo + _SEND_BATCH],
                    "out_acked": self._out_acked,
                },
            )
        if self._draining:
            self._stream.send("drain", {})
        if unacked:
            _RESENT.labels(shard=str(self.index)).inc(len(unacked))
        return len(unacked)

    # ------------------------------------------------------------------
    # Message application (I/O thread only)
    # ------------------------------------------------------------------

    def _apply_out(self, out: Dict) -> None:
        for kind, item in out["items"]:
            if kind == "letter":
                entry, reason, detail = item
                self.dead_letters.put(entry, reason, self.index, detail)
                continue
            results, callback = self._sinks[kind]
            results.append(item)
            if callback is None:
                continue
            try:
                callback(item)
            except Exception:
                self.callback_errors += 1
                _LOG.exception(
                    "netshard_callback_failed", shard=self.index, callback=kind
                )
        self._out_acked += len(out["items"])
        self.entries_processed = self._entries_base + out["entries_processed"]
        self.quarantined = self._quarantined_base + out["quarantined"]

    def _apply_drained(self, payload: Dict) -> None:
        self.health.update(payload["health"])
        report = payload.get("early_report")
        if report is not None:
            self._early_report = (
                report
                if self._early_report is None
                else self._early_report.merge(report)
            )
        self.open_sessions = 0
        self.pending_batch = 0
        self._close_stream()
        self.state = "stopped"

    def _handle_death(self, cause: BaseException) -> None:
        """Reconnect deadline spent (or the worker is gone): the I/O
        thread's last act, so nothing leaves the ingest queue after it."""
        self._close_stream()
        if self._process is not None:
            self._process.join(timeout=5.0)
        report = self._death_report or {}
        kills = int(report.get("kills", 0))
        if kills:
            self._kill_times_left = max(0, self._kill_times_left - kills)
            if self._faults is not None:
                self._faults.note_remote_kills(self.index, kills)
        if self._faults is not None and self._shipped_to:
            self._faults.mark_affected(self._shipped_to)
        detail = report.get("error") or repr(cause)
        self.error = ShardConnectionLost(
            f"shard {self.index} connection lost beyond recovery: {detail}"
        )
        get_recorder().record(
            "shard_worker_died", shard=self.index, error=repr(self.error)
        )
        _LOG.error(
            "netshard_worker_dead", shard=self.index, error=detail
        )
        # Written last: the supervisor reacts to "failed" and must see
        # the error and accounting when it does.
        self.state = "failed"
