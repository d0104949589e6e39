"""Online QoE inference serving: shards, backpressure, batching, healing.

The paper's deployment story (§8) — "apply the trained models on
passively monitored traffic and report issues in real time" at
10M-subscriber scale — needs more than the single-threaded
:class:`~repro.realtime.monitor.RealTimeMonitor` loop: it needs ingest
buffering, explicit overload behaviour, concurrency, model updates
without restarts, and explicit *failure* behaviour.  This package is
that serving substrate:

``queue``
    Bounded ingest queues with ``block`` / ``drop_oldest`` /
    ``shed_newest`` backpressure policies, fully obs-instrumented.
``shard``
    Stable hash-partitioning of subscribers over N worker threads,
    each owning its own tracker + monitor so per-subscriber order and
    health/alarm semantics are exactly the serial monitor's.  Workers
    are *restartable*: the thread is a replaceable vehicle over
    surviving queue/tracker/monitor state.
``framing`` / ``netshard`` / ``placement``
    The same shard, out of process, over one socket transport:
    length-prefixed CRC-checked framing, workers placed per a
    shard-placement map (loopback processes, in-process threads, or
    standalone ``python -m repro netshard-worker`` processes on other
    machines), worker registries folded into the parent's at heartbeat
    and drain, partition-tolerant supervision (healthy / partitioned /
    dead with hysteresis, quarantine-without-restart,
    reconnect-and-resume under a deadline), and degradation to the
    serial monitor when every remote shard is circuit-open
    (``QoEService(shard_backend="socket", placement=...)``;
    ``shard_backend="process"`` is ``placement="local:N"``).
``batcher``
    Micro-batching of closed sessions so feature extraction and forest
    ``predict_proba`` run vectorized per batch instead of per session.
``models``
    Versioned model hot-reload from :mod:`repro.persistence` files
    with atomic swap and retry-with-backoff; a bad file never
    dislodges the serving model.
``dlq``
    Dead-letter quarantine for records the pipeline refuses to trust
    (malformed fields, regressed clocks, circuit-open backlogs).
``supervisor``
    Watchdog over the shard workers: prompt failure detection,
    bounded restarts with exponential backoff, per-shard circuit
    breakers, stalled-worker flagging.
``service``
    :class:`QoEService` — lifecycle (start / drain / stop), health,
    readiness and degradation snapshots, aggregated
    diagnoses/alarms/health.
``replay``
    Captured/simulated trace replay at a configurable speed-up, with
    optional deterministic fault injection from :mod:`repro.faults`
    (CLI: ``python -m repro serve-replay [--faults SPEC]``).

Early prediction (``QoEService(early_after_chunks=K)``, CLI
``--early-after-chunks K``) adds *provisional* diagnoses on still-open
sessions via :mod:`repro.online`: shards keep streaming per-session
feature state and emit :class:`~repro.online.early.ProvisionalDiagnosis`
objects (aggregated in ``QoEService.provisional``) whose multiset is —
like the final diagnoses — bit-identical to the serial monitor's at
the same ``K``, on every shard backend.

Guarantee worth restating: for any shard count, queue capacity and
batch size (with a lossless policy), the service's diagnosis and alarm
multisets are identical to the serial monitor's on the same trace —
concurrency changes wall-clock, never results.  Under injected faults
the guarantee narrows to the *unaffected* subscribers: records the
chaos plan never touched diagnose bit-identically to a fault-free run.
"""

from .batcher import MicroBatcher
from .dlq import DeadLetter, DeadLetterQueue
from .framing import (
    FrameAuthFailed,
    FrameClosed,
    FrameCorrupted,
    FrameError,
    FrameStream,
    FrameTooLarge,
)
from .models import ModelManager
from .netshard import (
    NetShardConfig,
    ShardConnectionLost,
    ShardUnreachable,
    SocketOpts,
    SocketShardWorker,
    run_worker,
    start_inproc_worker,
)
from .placement import RegistryFolder, ShardPlacement, SocketShardRouter
from .queue import (
    POLICIES,
    BoundedQueue,
    QueueClosed,
    QueueEmpty,
    QueueFull,
)
from .replay import ReplayStats, TraceReplayer, synthetic_trace
from .service import QoEService
from .shard import ShardWorker, shard_index
from .supervisor import SHARD_STATES, ShardSupervisor

__all__ = [
    "RegistryFolder",
    "FrameError",
    "FrameAuthFailed",
    "FrameClosed",
    "FrameCorrupted",
    "FrameTooLarge",
    "FrameStream",
    "NetShardConfig",
    "SocketOpts",
    "SocketShardWorker",
    "ShardUnreachable",
    "ShardConnectionLost",
    "ShardPlacement",
    "SocketShardRouter",
    "SHARD_STATES",
    "run_worker",
    "start_inproc_worker",
    "POLICIES",
    "BoundedQueue",
    "QueueClosed",
    "QueueEmpty",
    "QueueFull",
    "DeadLetter",
    "DeadLetterQueue",
    "MicroBatcher",
    "ModelManager",
    "QoEService",
    "ShardSupervisor",
    "ShardWorker",
    "shard_index",
    "ReplayStats",
    "TraceReplayer",
    "synthetic_trace",
]
