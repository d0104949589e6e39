"""Shard placement maps and the remote-shard router.

Remote shards separate *what runs where* (this module's
:class:`ShardPlacement`) from *how it is supervised* (the
:class:`~repro.serving.netshard.SocketShardWorker` fleet built by
:class:`SocketShardRouter`).  Three placement shapes, one spec grammar:

``local:N``
    Start ``N`` worker *processes* over loopback — the multi-core
    deployment.  ``QoEService(shard_backend="process")`` is this
    placement under another name.  The workers fork from one
    forkserver per service process that has imported the worker code
    once, so the first launch in a process costs about one import and
    every later one (a restart, the next service) only a fork.  They
    exit when the service process does, even when it is killed.
``inproc:N``
    Run ``N`` workers as daemon *threads* of this process, still over
    a real loopback socket — no process to start, CI-friendly,
    exercises every byte of the wire protocol.
``0=host:port,1=host:port,...``
    Connect to externally managed workers (``python -m repro
    netshard-worker --listen HOST:PORT``), one address per shard
    index.  The parent ships the model inside the ``hello``, so a
    standalone worker needs no model file of its own.

Routing itself is unchanged: ``QoEService.submit`` keeps using the
same CRC32 :func:`~repro.serving.shard.shard_index` partitioning, so a
subscriber's entries land on the same shard index no matter which
machine that index lives on.

:class:`RegistryFolder` is the merge point for worker telemetry: every
worker process ships :func:`~repro.obs.registry.registry_state_delta`
increments on its heartbeat cadence and at drain, and the folder folds
each into the parent registry with :meth:`MetricsRegistry.merge`.
Because the parent's ``PipelineTelemetry`` and ``SLOEngine`` hold
children of that same registry, worker stage observations land
directly in the histograms the SLO windows and ``/metrics`` read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.framework import SessionDiagnosis
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.realtime.monitor import Alarm

from .dlq import DeadLetterQueue
from .models import ModelManager
from .netshard import NetShardConfig, SocketOpts, SocketShardWorker
from .queue import BoundedQueue
from .shard import ShardSpec

__all__ = ["RegistryFolder", "ShardPlacement", "SocketShardRouter"]

_LOG = get_logger("serving.placement")


class RegistryFolder:
    """Folds worker-process registry deltas into one parent registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self.folds = 0
        self.errors = 0

    def absorb(self, delta_state: Dict) -> None:
        """Merge one worker delta; errors are counted, never propagated.

        Receiver threads call this — a bad delta (schema drift,
        mismatched buckets) must degrade telemetry, not kill the
        thread that also handles the shard's death reporting.
        """
        try:
            self._registry.merge(MetricsRegistry.from_state(delta_state))
        except Exception:
            with self._lock:
                self.errors += 1
            _LOG.exception("registry_fold_failed")
            return
        with self._lock:
            self.folds += 1

    def snapshot(self) -> Dict:
        with self._lock:
            return {"folds": self.folds, "errors": self.errors}


@dataclass(frozen=True)
class ShardPlacement:
    """A parsed placement: mode plus (for ``remote``) shard addresses.

    ``mode`` is ``"local"``, ``"inproc"`` or ``"remote"``;
    ``addresses`` maps shard index → ``(host, port)`` and is empty for
    the self-launching modes.
    """

    mode: str
    n_shards: int
    addresses: Dict[int, Tuple[str, int]]

    @classmethod
    def parse(cls, spec: str, n_shards: Optional[int] = None) -> "ShardPlacement":
        """Parse a placement spec, validating it covers shards 0..N-1.

        ``n_shards`` cross-checks a ``local:N``/``inproc:N`` count or
        the size of an explicit address map; ``None`` takes the count
        from the spec itself.
        """
        spec = (spec or "").strip()
        if not spec:
            raise ValueError("empty placement spec")
        for mode in ("local", "inproc"):
            prefix = f"{mode}:"
            if spec.startswith(prefix):
                try:
                    count = int(spec[len(prefix):])
                except ValueError as exc:
                    raise ValueError(
                        f"bad placement spec {spec!r}: expected {mode}:N"
                    ) from exc
                if count < 1:
                    raise ValueError("placement needs at least 1 shard")
                if n_shards is not None and count != n_shards:
                    raise ValueError(
                        f"placement {spec!r} names {count} shards but the "
                        f"service wants {n_shards}"
                    )
                return cls(mode=mode, n_shards=count, addresses={})
        addresses: Dict[int, Tuple[str, int]] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            index_part, eq, address = token.partition("=")
            host, colon, port = address.rpartition(":")
            if not eq or not colon or not host:
                raise ValueError(
                    f"bad placement token {token!r}: expected IDX=HOST:PORT"
                )
            try:
                index = int(index_part)
                port_no = int(port)
            except ValueError as exc:
                raise ValueError(
                    f"bad placement token {token!r}: expected IDX=HOST:PORT"
                ) from exc
            if index in addresses:
                raise ValueError(f"duplicate shard index {index} in placement")
            addresses[index] = (host, port_no)
        if not addresses:
            raise ValueError(f"placement spec {spec!r} names no shards")
        count = len(addresses)
        if sorted(addresses) != list(range(count)):
            raise ValueError(
                f"placement must cover shard indices 0..{count - 1} exactly, "
                f"got {sorted(addresses)}"
            )
        if n_shards is not None and count != n_shards:
            raise ValueError(
                f"placement names {count} shards but the service wants "
                f"{n_shards}"
            )
        return cls(mode="remote", n_shards=count, addresses=addresses)

    def describe(self) -> str:
        if self.mode in ("local", "inproc"):
            return f"{self.mode}:{self.n_shards}"
        return ",".join(
            f"{index}={host}:{port}"
            for index, (host, port) in sorted(self.addresses.items())
        )


class SocketShardRouter:
    """Constructs and owns the socket-shard fleet for one service.

    One parent-side ingest queue (built by the service) and one
    :class:`~repro.serving.netshard.NetShardConfig` carrying the
    service's :class:`~repro.serving.shard.ShardSpec` per shard, all
    sharing one :class:`RegistryFolder` and the service's DLQ; kill *and*
    partition specs come from the fault injector by value, and the
    ``slow_link`` delay hook is threaded into every worker's I/O thread.
    Every worker holds the service's :class:`ModelManager` and reads
    its current model at each (re)launch and remote ``hello``.
    """

    def __init__(
        self,
        placement: ShardPlacement,
        models: ModelManager,
        dead_letters: DeadLetterQueue,
        queues: List[BoundedQueue],
        spec: ShardSpec,
        telemetry: bool = True,
        sample_every: int = 128,
        on_diagnosis: Optional[Callable[[SessionDiagnosis], None]] = None,
        on_alarm: Optional[Callable[[Alarm], None]] = None,
        on_provisional=None,
        faults=None,
        registry: Optional[MetricsRegistry] = None,
        socket_opts: Optional[SocketOpts] = None,
    ) -> None:
        self.placement = placement
        self.folder = RegistryFolder(registry)
        self.shards: List[SocketShardWorker] = []
        slow_link = None
        if faults is not None and faults.plan.slow_link_fraction > 0.0:
            slow_link = faults.slow_link_delay_s
        for index, queue in enumerate(queues):
            kill_at, kill_times = (0, 0)
            partition_at, partition_secs = (0, 0.0)
            if faults is not None:
                kill_spec = faults.kill_spec_for(index)
                if kill_spec is not None:
                    kill_at, kill_times = kill_spec
                partition_spec = faults.partition_spec_for(index)
                if partition_spec is not None:
                    partition_at, partition_secs = partition_spec
            config = NetShardConfig(
                index=index,
                spec=spec,
                telemetry=telemetry,
                sample_every=sample_every,
                kill_at_entry=kill_at,
                kill_times=kill_times,
                partition_at_entry=partition_at,
                partition_secs=partition_secs,
            )
            self.shards.append(
                SocketShardWorker(
                    config=config,
                    queue=queue,
                    dead_letters=dead_letters,
                    mode=placement.mode,
                    address=placement.addresses.get(index),
                    on_diagnosis=on_diagnosis,
                    on_alarm=on_alarm,
                    on_provisional=on_provisional,
                    fold=self.folder.absorb,
                    faults=faults,
                    opts=socket_opts,
                    slow_link=slow_link,
                    models=models,
                )
            )
        _LOG.info(
            "socket_fleet_built",
            placement=placement.describe(),
            shards=placement.n_shards,
        )

    def snapshot(self) -> Dict:
        """Aggregation-tier block for ``QoEService.health()``."""
        return {
            "backend": "socket",
            "placement": self.placement.describe(),
            "registry_folds": self.folder.snapshot(),
            "seen_subscribers": sum(
                shard.seen_subscribers for shard in self.shards
            ),
            "reconnects": sum(shard.reconnects for shard in self.shards),
        }
