"""Socket-backed shard tests: determinism, reconnect, placement modes.

The socket backend must be observationally identical to the thread and
process backends — and therefore to the serial monitor — with faults
off, on every placement shape (in-process loopback threads, spawned
loopback processes, standalone workers connected by address).  On top
of that it must survive what pipes never face: a dropped connection
mid-stream.  The reconnect handshake's session-sequence watermark has
to make that loss-free — no duplicated entries, no lost entries, no
worker restart — so the diagnosis multiset stays bit-identical even
when the transport flapped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.obs import get_registry
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import QoEService, run_worker
from repro.serving.dlq import DeadLetterQueue
from repro.serving.framing import FrameClosed
from repro.serving.netshard import (
    _PROTOCOL,
    NetShardConfig,
    SocketOpts,
    SocketShardWorker,
)
from repro.serving.queue import BoundedQueue, QueueEmpty
from repro.serving.replay import synthetic_trace
from repro.serving.shard import shard_index

from tests.serving.conftest import (
    alarm_multiset,
    diagnosis_multiset,
    provisional_multiset,
)


def _subscriber(session_id):
    return session_id.rsplit("/online-", 1)[0]


def _filtered(diagnoses, excluded):
    return diagnosis_multiset(
        d for d in diagnoses if _subscriber(d.session_id) not in excluded
    )


def _counter_total(name):
    total = 0.0
    for family in get_registry().collect():
        if family.name == name:
            for _labels, child in family.samples():
                total += child.value
    return total


@pytest.fixture(scope="module")
def serial(serving_framework, serving_trace):
    monitor = RealTimeMonitor(serving_framework, tracker=OnlineSessionTracker())
    monitor.feed_many(serving_trace)
    monitor.drain()
    return monitor


class TestSocketDeterminism:
    def test_four_inproc_shards_match_serial(
        self, serving_framework, serving_trace, serial
    ):
        entries_before = _counter_total("repro_serving_entries_total")
        service = QoEService(
            serving_framework,
            n_shards=4,
            shard_backend="socket",
            placement="inproc:4",
        )
        with service:
            service.submit_many(serving_trace)

        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert alarm_multiset(service.alarms) == alarm_multiset(serial.alarms)

        health = service.health()
        assert health["backend"] == "socket"
        assert health["state"] == "stopped"
        assert health["restarts"] == 0
        assert health["router"]["placement"] == "inproc:4"
        assert all(
            s["health_state"] == "healthy" for s in health["shards"]
        )
        # In-process workers share the parent registry directly, so the
        # per-entry counters must land exactly once — not twice via a
        # redundant registry-delta fold.
        assert _counter_total(
            "repro_serving_entries_total"
        ) - entries_before == len(serving_trace)

    def test_single_socket_shard_matches_serial(
        self, serving_framework, serving_trace, serial
    ):
        """n_shards=1 removes partitioning: a mismatch here is wire
        protocol loss, not routing."""
        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement="inproc:1",
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )

    def test_early_provisional_match_serial_over_socket(
        self, serving_framework, serving_trace
    ):
        from repro.online import EarlyPredictor

        reference = RealTimeMonitor(
            serving_framework,
            tracker=OnlineSessionTracker(),
            early=EarlyPredictor(serving_framework, after_chunks=4),
        )
        reference.feed_many(serving_trace)
        reference.drain()

        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            early_after_chunks=4,
        )
        with service:
            service.submit_many(serving_trace)
        assert provisional_multiset(service.provisional) == (
            provisional_multiset(reference.provisional)
        )


class TestSpawnedPlacement:
    def test_local_processes_match_serial_and_fold_registries(
        self, serving_framework, serving_trace, serial
    ):
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="local:2",
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        health = service.health()
        assert health["router"]["placement"] == "local:2"
        folds = health["router"]["registry_folds"]
        assert folds["errors"] == 0
        assert folds["folds"] >= 2  # at least the final per-shard delta

    def test_killed_spawned_worker_restarts_and_untouched_identical(
        self, serving_framework
    ):
        trace = synthetic_trace(40, seed=17, subscribers=20)
        victim = shard_index(trace[0].subscriber_id, 2)
        plan = FaultPlan(
            seed=23, kill_shard=victim, kill_at_entry=25, kill_times=1
        )
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="local:2",
            faults=faults,
        )
        with service:
            service.submit_many(trace)
        health = service.health()

        assert faults.kills_fired == 1
        assert health["restarts"] >= 1
        assert health["shards"][victim]["restarts"] >= 1
        assert not service.degraded
        assert service.supervisor.open_circuits == []

        affected = faults.affected_subscribers
        assert affected
        assert len(affected) < 20

        reference = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        reference.feed_many(trace)
        reference.drain()
        untouched_serial = _filtered(reference.diagnoses, affected)
        assert untouched_serial
        assert _filtered(service.diagnoses, affected) == untouched_serial


class TestInprocRestart:
    def test_killed_inproc_worker_restarts_without_redialling(
        self, serving_framework
    ):
        """A finished in-process worker thread is a dead worker, not a
        network fault: the supervisor restarts it at once instead of
        redialling its closed port until the connect deadline."""
        trace = synthetic_trace(40, seed=17, subscribers=20)
        victim = shard_index(trace[0].subscriber_id, 2)
        faults = FaultInjector(
            FaultPlan(seed=23, kill_shard=victim, kill_at_entry=25, kill_times=1)
        )
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            faults=faults,
        )
        started = time.monotonic()
        with service:
            service.submit_many(trace)
        elapsed = time.monotonic() - started
        health = service.health()

        assert faults.kills_fired == 1
        assert health["shards"][victim]["restarts"] >= 1
        deadline = SocketOpts().connect_deadline_s
        assert elapsed < deadline / 4, (
            f"kill -> restart -> drain took {elapsed:.2f}s "
            f"(connect deadline {deadline:.1f}s)"
        )

        affected = faults.affected_subscribers
        assert affected and len(affected) < 20
        reference = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        reference.feed_many(trace)
        reference.drain()
        untouched_serial = _filtered(reference.diagnoses, affected)
        assert untouched_serial
        assert _filtered(service.diagnoses, affected) == untouched_serial


class TestReconnectResume:
    def test_dropped_connection_resumes_at_watermark(
        self, serving_framework, serving_trace, serial
    ):
        """Sever shard 0's socket mid-stream: the parent reconnects,
        the resume handshake replays only the unacknowledged suffix,
        and the final multiset is bit-identical — zero restarts, so the
        worker-side tracker state provably survived the flap."""
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
        )
        with service:
            for i, entry in enumerate(serving_trace):
                service.submit(entry)
                if i == len(serving_trace) // 2:
                    service.router.shards[0].drop_connection_for_test()

        shard0 = service.router.shards[0]
        assert shard0.reconnects >= 1
        assert shard0.restarts == 0
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert alarm_multiset(service.alarms) == alarm_multiset(serial.alarms)

    def test_repeated_drops_still_lossless(
        self, serving_framework, serving_trace, serial
    ):
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
        )
        drop_points = {len(serving_trace) // 4, len(serving_trace) // 2,
                       3 * len(serving_trace) // 4}
        with service:
            for i, entry in enumerate(serving_trace):
                service.submit(entry)
                if i in drop_points:
                    for shard in service.router.shards:
                        shard.drop_connection_for_test()
        # Drops landing before the previous reconnect completes
        # coalesce into one recovery, so the floor is conservative.
        assert sum(s.reconnects for s in service.router.shards) >= 2
        assert all(s.restarts == 0 for s in service.router.shards)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )

    def test_drop_during_the_resume_is_retried(
        self, serving_framework, serving_trace, serial
    ):
        """A connection lost again before the resume handshake and
        resend complete is one more blip: the reconnect repeats the
        handshake instead of declaring the worker dead."""
        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement="inproc:1",
        )
        shard = service.router.shards[0]
        resume = shard._resume
        dropped = []

        def drop_once():
            if not dropped:
                dropped.append(True)
                raise FrameClosed("connection lost during the resume")
            return resume()

        shard._resume = drop_once
        with service:
            for i, entry in enumerate(serving_trace):
                service.submit(entry)
                if i == len(serving_trace) // 2:
                    shard.drop_connection_for_test()
        assert dropped == [True]
        assert shard.reconnects == 1
        assert shard.restarts == 0
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )


class TestAckWindow:
    def test_burst_drains_without_waiting_for_heartbeats(
        self, serving_framework, serving_trace, serial
    ):
        """A burst many unacked windows long must drain at the rate
        the worker queue absorbs it: the worker acks as soon as its
        bounded queue holds everything received, so no throughput
        rides on the heartbeat cadence (parked far past the replay
        here, and the staleness watchdog with it)."""
        window = 8
        assert len(serving_trace) > 50 * window
        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement="inproc:1",
            socket_opts=dict(max_unacked=window),
            heartbeat_timeout_s=600.0,
        )
        shard = service.router.shards[0]
        shard.config = replace(shard.config, heartbeat_interval_s=600.0)
        drained = threading.Event()

        def replay():
            with service:
                service.submit_many(serving_trace)
            drained.set()

        threading.Thread(target=replay, daemon=True).start()
        assert drained.wait(timeout=20.0), "burst stalled on the ack window"
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert shard.reconnects == 0 and shard.restarts == 0


class TestReloadReachesRelaunchedWorker:
    def test_relaunched_worker_scores_with_reloaded_model(
        self, serving_framework, stall_records, adaptive_records, tmp_path
    ):
        """Reload, then kill a shard: its relaunched worker scores with
        the reloaded model, while the shard that never restarted keeps
        the model it was launched with."""
        from repro import QoEFramework
        from repro.persistence import load_framework, save_framework

        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        save_framework(serving_framework, old_path)
        save_framework(
            QoEFramework(random_state=1, n_estimators=3).fit(
                stall_records, adaptive_records
            ),
            new_path,
        )
        live = tmp_path / "live.json"
        live.write_bytes(old_path.read_bytes())

        early = synthetic_trace(40, seed=17, subscribers=20)
        late = [
            replace(entry, subscriber_id=entry.subscriber_id + "~late")
            for entry in synthetic_trace(40, seed=31, subscribers=20)
        ]
        victim = shard_index(early[0].subscriber_id, 2)
        faults = FaultInjector(
            FaultPlan(seed=23, kill_shard=victim, kill_at_entry=25, kill_times=1)
        )
        service = QoEService(
            str(live),
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            faults=faults,
            socket_opts=dict(connect_deadline_s=1.0),
        )
        with service:
            live.write_bytes(new_path.read_bytes())
            assert service.models.reload()
            service.submit_many(early)
            shard = service.router.shards[victim]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not (
                shard.restarts >= 1 and shard.state == "running"
            ):
                time.sleep(0.02)
            assert shard.restarts >= 1, "the kill never forced a restart"
            service.submit_many(late)
        assert faults.kills_fired == 1

        def late_part(diagnoses, on_victim):
            return diagnosis_multiset(
                d
                for d in diagnoses
                if _subscriber(d.session_id).endswith("~late")
                and (shard_index(_subscriber(d.session_id), 2) == victim)
                == on_victim
            )

        def serial_on(path):
            monitor = RealTimeMonitor(
                load_framework(path), tracker=OnlineSessionTracker()
            )
            monitor.feed_many(late)
            monitor.drain()
            return monitor.diagnoses

        old_serial, new_serial = serial_on(old_path), serial_on(new_path)
        # The two models disagree on the relaunched shard's sessions,
        # so equality below says which model scored them.
        assert late_part(new_serial, True) != late_part(old_serial, True)
        assert late_part(service.diagnoses, True) == late_part(new_serial, True)
        assert late_part(service.diagnoses, False) == late_part(
            old_serial, False
        )


class TestStandaloneWorker:
    def test_remote_placement_against_standalone_worker(
        self, serving_framework, serving_trace, serial
    ):
        """A worker started the way the CLI starts one — no config, no
        model; everything arrives in the hello — serves a remote
        placement bit-identically."""
        ports = []
        ready = threading.Event()

        def on_port(port):
            ports.append(port)
            ready.set()

        worker = threading.Thread(
            target=run_worker,
            kwargs={
                "host": "127.0.0.1",
                "port": 0,
                "config": None,
                "on_port": on_port,
            },
            daemon=True,
        )
        worker.start()
        assert ready.wait(timeout=10.0), "standalone worker never bound"

        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement=f"0=127.0.0.1:{ports[0]}",
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert service.health()["router"]["placement"] == (
            f"0=127.0.0.1:{ports[0]}"
        )
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "worker should exit after drain"

    def test_frame_bound_holds_after_the_configuring_hello(
        self, serving_framework
    ):
        """The worker's own ``max_frame_bytes`` governs every
        connection: once a hello has configured it, a reconnecting
        peer's oversized frame still drops that connection."""
        import socket as socket_mod

        from repro.serving.framing import (
            FrameStream,
            answer_challenge,
            encode_frame,
        )

        config = NetShardConfig(index=0, framework=serving_framework)
        first_hello = {
            "protocol": _PROTOCOL,
            "token": "parent",
            "shard": 0,
            "config": config,
        }
        bound = len(encode_frame(("hello", first_hello))) + 4096
        ports = []
        ready = threading.Event()

        def on_port(port):
            ports.append(port)
            ready.set()

        worker = threading.Thread(
            target=run_worker,
            kwargs={
                "port": 0,
                "on_port": on_port,
                "max_frame_bytes": bound,
                "in_process": True,
            },
            daemon=True,
        )
        worker.start()
        assert ready.wait(timeout=10.0), "worker never bound"

        def connect(hello):
            sock = socket_mod.create_connection(
                ("127.0.0.1", ports[0]), timeout=5.0
            )
            answer_challenge(sock, b"")
            stream = FrameStream(sock)
            stream.send("hello", hello)
            ack = stream.recv(timeout=5.0)
            assert ack is not None and ack[0] == "hello_ack"
            return stream

        resume = {"protocol": _PROTOCOL, "token": "parent", "shard": 0}
        connect(first_hello).close()
        second = connect(resume)
        second.send(
            "entries", {"base_seq": 1, "entries": [], "pad": b"x" * bound}
        )
        deadline = time.monotonic() + 5.0
        with pytest.raises(FrameClosed):
            while time.monotonic() < deadline:
                second.recv(timeout=0.5)
        second.close()

        # The refusal dropped one connection, not the shard: the worker
        # still drains and exits cleanly.
        third = connect(resume)
        third.send("drain", {})
        kinds = []
        while "drained" not in kinds:
            msg = third.recv(timeout=5.0)
            assert msg is not None, "worker never drained"
            kinds.append(msg[0])
        third.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_config_from_another_code_version_is_refused(
        self, serving_framework
    ):
        """A config pickled without a ``spec`` (another code version's
        shape) is refused at the hello, not run with default settings."""
        from repro.serving.framing import FrameError
        from repro.serving.netshard import _WorkerState

        config = NetShardConfig(index=0, framework=serving_framework)
        del config.__dict__["spec"]
        state = _WorkerState(None)
        with pytest.raises(FrameError, match="another code version"):
            state.configure(config)
        assert state.worker is None


class TestAuthentication:
    """The HMAC handshake guards the unpickler on both ends, the hello
    token pins a worker session to one parent across reconnects, and
    each end refuses a handshake of another protocol version."""

    @staticmethod
    def _standalone_worker(auth_key, config=None):
        ports = []
        ready = threading.Event()

        def on_port(port):
            ports.append(port)
            ready.set()

        thread = threading.Thread(
            target=run_worker,
            kwargs={
                "host": "127.0.0.1",
                "port": 0,
                "config": config,
                "on_port": on_port,
                "auth_key": auth_key,
            },
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10.0), "worker never bound"
        return thread, ports[0]

    def test_keyed_standalone_worker_end_to_end(
        self, serving_framework, serving_trace, serial
    ):
        key = b"pr9-review-shared-secret"
        worker, port = self._standalone_worker(key)
        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement=f"0=127.0.0.1:{port}",
            socket_opts={"auth_key": key},
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        worker.join(timeout=10.0)

    def test_wrong_key_is_a_supervised_failure(self, serving_framework):
        from repro.serving.dlq import DeadLetterQueue
        from repro.serving.netshard import (
            NetShardConfig,
            ShardUnreachable,
            SocketOpts,
            SocketShardWorker,
        )
        from repro.serving.queue import BoundedQueue

        worker, port = self._standalone_worker(b"right-key")
        handle = SocketShardWorker(
            config=NetShardConfig(index=0, framework=serving_framework),
            queue=BoundedQueue(capacity=8, policy="block", name="auth-test"),
            dead_letters=DeadLetterQueue(),
            mode="remote",
            address=("127.0.0.1", port),
            opts=SocketOpts(auth_key=b"wrong-key", connect_deadline_s=2.0),
        )
        handle.start()
        assert handle.state == "failed"
        assert isinstance(handle.error, ShardUnreachable)
        assert "authentication" in str(handle.error)

    def test_unauthenticated_peer_rejected_keyed_worker_survives(
        self, serving_framework, serving_trace, serial
    ):
        """A peer that skips (or fails) the challenge is dropped before
        any frame is unpickled, and the worker keeps serving the real
        parent afterwards."""
        import socket as socket_mod

        from repro.serving.framing import encode_frame

        key = b"only-the-parent-knows"
        worker, port = self._standalone_worker(key)

        hostile = socket_mod.create_connection(("127.0.0.1", port), timeout=5.0)
        try:
            # Speak the old unauthenticated protocol straight away: a
            # pickled hello that must never reach the unpickler.
            hostile.sendall(encode_frame(("hello", {"token": "evil"})))
            hostile.settimeout(5.0)
            leftover = b""
            try:
                while True:
                    chunk = hostile.recv(4096)
                    if not chunk:
                        break
                    leftover += chunk
            except OSError:
                pass
            # Whatever arrived is the fixed-size challenge, never a
            # hello_ack frame.
            assert not leftover.startswith(b"RQ\x01")
        finally:
            hostile.close()

        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement=f"0=127.0.0.1:{port}",
            socket_opts={"auth_key": key},
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        worker.join(timeout=10.0)

    def test_hello_token_pins_session_to_one_parent(self, serving_framework):
        from repro.serving.framing import (
            FrameClosed,
            FrameStream,
            answer_challenge,
        )
        from repro.serving.netshard import NetShardConfig
        import socket as socket_mod

        config = NetShardConfig(index=0, framework=serving_framework)
        worker, port = self._standalone_worker(b"", config=config)

        def hello(token):
            sock = socket_mod.create_connection(("127.0.0.1", port), timeout=5.0)
            answer_challenge(sock, b"")
            stream = FrameStream(sock)
            stream.send(
                "hello", {"protocol": _PROTOCOL, "token": token, "shard": 0}
            )
            return stream

        first = hello("parent-a")
        ack = first.recv(timeout=5.0)
        assert ack is not None and ack[0] == "hello_ack"
        first.close()

        # A different parent presenting a different token is rejected
        # before it can touch the session: the worker drops the
        # connection without ever sending hello_ack.
        impostor = hello("parent-b")
        with pytest.raises(FrameClosed):
            while True:
                if impostor.recv(timeout=5.0) is None:
                    raise AssertionError("worker neither acked nor closed")
        impostor.close()

        # The pinned parent still reconnects fine.
        again = hello("parent-a")
        ack = again.recv(timeout=5.0)
        assert ack is not None and ack[0] == "hello_ack"
        again.close()

    def test_worker_refuses_a_hello_of_another_protocol(
        self, serving_framework
    ):
        """Each end refuses a handshake from another code version at the
        hello, before it can misread that version's frames."""
        from repro.serving.framing import FrameStream, answer_challenge
        import socket as socket_mod

        config = NetShardConfig(index=0, framework=serving_framework)
        worker, port = self._standalone_worker(b"", config=config)

        def hello(protocol):
            sock = socket_mod.create_connection(("127.0.0.1", port), timeout=5.0)
            answer_challenge(sock, b"")
            stream = FrameStream(sock)
            stream.send(
                "hello", {"protocol": protocol, "token": "parent", "shard": 0}
            )
            return stream

        stale = hello(_PROTOCOL - 1)
        with pytest.raises(FrameClosed):
            while True:
                if stale.recv(timeout=5.0) is None:
                    raise AssertionError("worker neither acked nor closed")
        stale.close()
        # The refusal pinned nothing: this version's parent gets in.
        current = hello(_PROTOCOL)
        ack = current.recv(timeout=5.0)
        assert ack[0] == "hello_ack" and ack[1]["protocol"] == _PROTOCOL
        current.send("drain", {})
        while current.recv(timeout=5.0)[0] != "drained":
            pass
        current.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_parent_refuses_a_hello_ack_of_another_protocol(
        self, serving_framework
    ):
        import socket as socket_mod

        from repro.serving.framing import FrameStream, deliver_challenge
        from repro.serving.netshard import ShardUnreachable

        listener = socket_mod.create_server(("127.0.0.1", 0))

        def stale_worker():
            conn, _ = listener.accept()
            deliver_challenge(conn, b"")
            stream = FrameStream(conn)
            stream.recv(timeout=5.0)
            stream.send("hello_ack", {"recv_seq": 0, "incarnation": 1})
            with pytest.raises(FrameClosed):  # the parent hangs up
                stream.recv(timeout=5.0)
            stream.close()

        server = threading.Thread(target=stale_worker, daemon=True)
        server.start()
        handle = SocketShardWorker(
            NetShardConfig(index=0, framework=serving_framework),
            BoundedQueue(capacity=8),
            DeadLetterQueue(),
            mode="remote",
            address=("127.0.0.1", listener.getsockname()[1]),
        )
        try:
            with pytest.raises(ShardUnreachable, match="protocol None"):
                handle._launch_and_connect()
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()


class _SentFrames:
    """Stands in for a FrameStream: records what is sent."""

    def __init__(self):
        self.frames = []

    def send(self, kind, payload):
        self.frames.append((kind, payload))

    def items(self):
        return [
            item
            for kind, payload in self.frames
            if kind == "out"
            for item in payload["items"]
        ]


class _Counters:
    """The two counters ``flush_outputs`` reads off a shard worker."""

    entries_processed = 0
    quarantined = 0


def _state_with_outbox(n_items):
    """A worker state whose outbox holds ``n_items`` of mixed kinds."""
    from repro.serving.netshard import _WorkerState

    st = _WorkerState(None)
    st.worker = _Counters()
    diagnosis = st.outbox.collector("diagnosis")
    alarm = st.outbox.collector("alarm")
    for i in range(n_items):
        if i % 3 == 0:
            st.outbox.put(f"entry{i}", "malformed", shard=0)
        elif i % 3 == 1:
            diagnosis(f"diagnosis{i}")
        else:
            alarm(f"alarm{i}")
    return st


class TestOutbox:
    def test_trim_keeps_absolute_cursors_valid(self):
        from repro.serving.netshard import _Outbox

        outbox = _Outbox()
        collect = outbox.collector("diagnosis")
        for i in range(10):
            collect(i)
        assert outbox.end == 10
        tail = outbox.slice(7, 10)
        outbox.trim_to(7)
        assert outbox.base == 7
        assert outbox.slice(7, 10) == tail == [("diagnosis", i) for i in (7, 8, 9)]
        # Trimming below base is a no-op, never an index error.
        outbox.trim_to(3)
        assert outbox.base == 7

    def test_trims_only_to_parent_acked_indices(self):
        """Shipping trims nothing; only the parent's count does, and
        never past what this connection has shipped."""
        st = _state_with_outbox(9)
        stream = _SentFrames()
        st.rewind({})
        st.flush_outputs(stream)
        assert len(stream.items()) == 9
        assert st.outbox.base == 0  # shipped is not acknowledged
        st.outbox.put("late", "malformed", shard=0)
        for acked, base in ((4, 4), (2, 4), (50, 9)):
            # What the worker does with an entries frame's out_acked.
            st.outbox.trim_to(min(acked, st.sent))
            assert st.outbox.base == base
        assert st.outbox.slice(9, st.outbox.end) == [
            ("letter", ("late", "malformed", ""))
        ]

    def test_same_incarnation_rewind_reships_the_unacked_suffix(self):
        n_items = 12
        reference = _state_with_outbox(n_items).outbox.slice(0, n_items)
        for acked in range(n_items + 1):
            st = _state_with_outbox(n_items)
            st.flush_outputs(_SentFrames())  # shipped, then the link drops
            stream = _SentFrames()
            st.rewind({"incarnation": st.incarnation, "out_acked": acked})
            st.flush_outputs(stream)
            assert stream.items() == reference[acked:]
            assert st.outbox.base == acked

    def test_out_of_range_cursor_is_clamped(self):
        st = _state_with_outbox(10)
        st.outbox.trim_to(6)
        for acked, shipped in ((2, 4), (-5, 4), (99, 0)):
            stream = _SentFrames()
            st.rewind({"incarnation": st.incarnation, "out_acked": acked})
            st.flush_outputs(stream)
            assert len(stream.items()) == shipped
            assert st.sent == 10
        assert st.outbox.base == 10

    def test_hello_from_another_incarnation_ships_every_output(
        self, serving_framework
    ):
        """A fresh worker asked to resume at another incarnation's
        count (a standalone worker restarted at the same address) ships
        everything it produced, not everything past that count."""
        from repro.serving.netshard import _WorkerState

        trace = synthetic_trace(3, seed=5, subscribers=2)
        corrupted = FaultInjector(FaultPlan(seed=1, corrupt_fraction=1.0))
        letters = corrupted.plan_trace(trace[:2])
        st = _WorkerState(NetShardConfig(index=0, framework=serving_framework))
        st.queue.put_many(letters + trace)
        st.queue.close()
        st.worker.join(timeout=30.0)
        assert st.worker.state == "stopped"
        produced = len(st.worker.diagnoses)
        assert produced > 0
        stream = _SentFrames()
        st.rewind(
            {"incarnation": st.incarnation + 1, "out_acked": produced + 2}
        )
        st.flush_outputs(stream)
        shipped = stream.items()
        assert [d for kind, d in shipped if kind == "diagnosis"] == (
            st.worker.diagnoses
        )
        assert [item[0] for kind, item in shipped if kind == "letter"] == (
            letters
        )
        assert [a for kind, a in shipped if kind == "alarm"] == st.worker.alarms
        assert len(shipped) == st.outbox.end


class TestNewIncarnationRestartsTheCount:
    def test_hello_ack_from_a_new_worker_resets_out_acked(
        self, serving_framework
    ):
        """The parent's count belongs to the incarnation it names: a
        reconnect answered by another incarnation starts it at 0, so
        the new worker's first items are counted, not skipped."""
        import socket as socket_mod

        from repro.serving.framing import FrameStream, deliver_challenge

        listener = socket_mod.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        hellos = []
        diagnosis = object()
        read = threading.Event()

        def fake_worker():
            for incarnation, items in ((7, 3), (8, 1)):
                conn, _ = listener.accept()
                deliver_challenge(conn, b"")
                stream = FrameStream(conn)
                hellos.append(stream.recv(timeout=5.0)[1])
                stream.send(
                    "hello_ack",
                    {
                        "protocol": _PROTOCOL,
                        "recv_seq": 0,
                        "incarnation": incarnation,
                    },
                )
                stream.send(
                    "out",
                    {
                        "items": [("diagnosis", diagnosis)] * items,
                        "entries_processed": 0,
                        "quarantined": 0,
                    },
                )
                read.wait(timeout=5.0)  # held open until the parent read
                read.clear()
                stream.close()

        server = threading.Thread(target=fake_worker, daemon=True)
        server.start()
        handle = SocketShardWorker(
            NetShardConfig(index=0, framework=serving_framework),
            BoundedQueue(capacity=8),
            DeadLetterQueue(),
            mode="remote",
            address=("127.0.0.1", port),
        )
        try:
            handle._launch_and_connect()
            handle._read(handle._stream, 2.0)
            read.set()
            assert handle._worker_incarnation == 7
            assert handle._out_acked == 3
            handle._close_stream()  # the link drops; the reconnect:
            handle._resume()
            handle._read(handle._stream, 2.0)
            read.set()
            assert hellos[1]["incarnation"] == 7
            assert hellos[1]["out_acked"] == 3
            assert handle._worker_incarnation == 8
            assert handle._out_acked == 1
            assert len(handle.diagnoses) == 4
        finally:
            handle._close_stream()
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()


class TestRestartResetsWatermarks:
    def test_reconnect_after_a_restart_is_not_state_loss(
        self, serving_framework
    ):
        """Kill, restart, ship fresh subscribers, then drop the
        replacement's connection.  The dead worker acked 299 entries;
        the replacement starts empty and holds at most 21 at the drop,
        so a restart that kept the old watermark would read the resume
        as worker state lost and mark the fresh subscribers affected."""
        trace = synthetic_trace(40, seed=17, subscribers=20)
        fresh = [
            replace(entry, subscriber_id=entry.subscriber_id + "~fresh")
            for entry in synthetic_trace(20, seed=31, subscribers=10)
        ]
        faults = FaultInjector(
            FaultPlan(seed=23, kill_shard=0, kill_at_entry=300, kill_times=1)
        )
        service = QoEService(
            serving_framework,
            n_shards=1,
            shard_backend="socket",
            placement="inproc:1",
            faults=faults,
        )
        shard = service.router.shards[0]

        def wait_for(condition, what):
            deadline = time.monotonic() + 30.0
            while not condition():
                assert time.monotonic() < deadline, what
                time.sleep(0.01)

        with service:
            service.submit_many(trace[:299])
            # The heartbeat that reports these processed carries their
            # ack, and it reaches the parent before any dying report.
            wait_for(
                lambda: shard.entries_processed == 299, "entries not processed"
            )
            service.submit_many(trace[299:310])
            wait_for(
                lambda: shard.restarts == 1 and shard.state == "running",
                "the kill never forced a restart",
            )
            service.submit_many(fresh[:10])
            wait_for(lambda: shard.queue.depth == 0, "fresh entries not shipped")
            shard.drop_connection_for_test()
            wait_for(lambda: shard.reconnects == 1, "the drop never resumed")
            service.submit_many(fresh[10:])

        assert faults.kills_fired == 1
        assert shard.restarts == 1
        fresh_subscribers = {entry.subscriber_id for entry in fresh}
        assert not fresh_subscribers & faults.affected_subscribers
        reference = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        reference.feed_many(fresh)
        reference.drain()
        assert reference.diagnoses
        assert diagnosis_multiset(
            d
            for d in service.diagnoses
            if _subscriber(d.session_id) in fresh_subscribers
        ) == diagnosis_multiset(reference.diagnoses)


def _standalone_worker():
    """A standalone worker thread, as the CLI starts one; its port."""
    ports = []
    ready = threading.Event()

    def on_port(port):
        ports.append(port)
        ready.set()

    worker = threading.Thread(
        target=run_worker,
        kwargs={"port": 0, "on_port": on_port, "in_process": True},
        daemon=True,
    )
    worker.start()
    assert ready.wait(timeout=10.0), "standalone worker never bound"
    return worker, ports[0]


def _serial_over(framework, entries):
    monitor = RealTimeMonitor(framework, tracker=OnlineSessionTracker())
    monitor.feed_many(entries)
    monitor.drain()
    return monitor


class TestRemoteRestartOverASurvivingWorker:
    def test_restart_continues_the_surviving_workers_sequences(
        self, serving_framework, serving_trace
    ):
        """The handle declares a standalone worker dead (every
        reconnect fails until the deadline) while the worker lives on.
        The restart's hello reaches that worker, which still holds
        recv_seq 237: the handle must continue the sequence there, not
        at 1, or the worker drops every new entry as a resend
        duplicate."""
        from repro.serving.netshard import ShardUnreachable

        entries = serving_trace[:474]
        worker, port = _standalone_worker()
        handle = SocketShardWorker(
            NetShardConfig(index=0, framework=serving_framework),
            BoundedQueue(capacity=len(entries)),
            DeadLetterQueue(),
            mode="remote",
            address=("127.0.0.1", port),
            opts=SocketOpts(connect_deadline_s=0.3),
        )

        def wait_for(condition, what):
            deadline = time.monotonic() + 30.0
            while not condition():
                assert time.monotonic() < deadline, what
                time.sleep(0.01)

        def unreachable():
            raise ShardUnreachable("the worker is out of reach")

        handle.start()
        handle.queue.put_many(entries[:237])
        wait_for(lambda: handle.entries_processed == 237, "first half unprocessed")
        handle._resume = unreachable
        handle.drop_connection_for_test()
        wait_for(lambda: handle.state == "failed", "the handle never gave up")
        del handle._resume
        handle.restart()
        assert handle.state == "running"
        handle.queue.put_many(entries[237:])
        handle.queue.close()
        handle.join(timeout=30.0)
        worker.join(timeout=10.0)

        assert handle.state == "stopped"
        assert not worker.is_alive()
        assert handle.entries_processed == 474
        serial = _serial_over(serving_framework, entries)
        assert serial.diagnoses
        # Equal multisets: nothing lost, and nothing the worker shipped
        # before the death is applied twice after the restart.
        assert diagnosis_multiset(handle.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert alarm_multiset(handle.alarms) == alarm_multiset(serial.alarms)


class TestResumeResendsInBatches:
    def test_unacked_window_goes_out_in_send_batches(
        self, serving_framework, serving_trace
    ):
        """600 entries shipped into a connection that lost them: the
        resume resends them in ceil(600 / 256) frames with contiguous
        base sequences, and the worker processes every one."""
        from repro.serving.netshard import _SEND_BATCH

        entries = serving_trace[:600]
        worker, port = _standalone_worker()
        handle = SocketShardWorker(
            NetShardConfig(index=0, framework=serving_framework),
            BoundedQueue(capacity=len(entries)),
            DeadLetterQueue(),
            mode="remote",
            address=("127.0.0.1", port),
        )
        handle._launch_and_connect()
        handle.queue.put_many(entries)
        while handle.queue.depth:
            handle._ship_batch(_SentFrames())  # sent, never delivered
        assert len(handle._unacked) == len(entries)
        handle._close_stream()

        establish = handle._establish
        resent = []

        def recording_establish():
            ack = establish()
            send = handle._stream.send

            def record(kind, payload):
                resent.append((kind, payload))
                send(kind, payload)

            handle._stream.send = record
            return ack

        handle._establish = recording_establish
        assert handle._resume() == len(entries)
        assert [kind for kind, _ in resent] == ["entries"] * 3
        assert [p["base_seq"] for _, p in resent] == [
            1, 1 + _SEND_BATCH, 1 + 2 * _SEND_BATCH
        ]
        assert [e for _, p in resent for e in p["entries"]] == entries

        handle._stream.send("drain", {})
        deadline = time.monotonic() + 30.0
        while handle.state != "stopped":
            assert time.monotonic() < deadline, "worker never drained"
            handle._read(handle._stream, 0.5)
        worker.join(timeout=10.0)
        assert handle.entries_processed == len(entries)
        assert diagnosis_multiset(handle.diagnoses) == diagnosis_multiset(
            _serial_over(serving_framework, entries).diagnoses
        )


class _DeathWatchQueue(BoundedQueue):
    """Records the handle's ``state`` at every entry it hands out.

    Once the ``first`` entries (the batch holding the kill entry) are
    out, a waiting ``get`` is held until the handle reports ``failed``,
    then waits for the entries the test puts after the death.  A
    consumer that outlives the death takes them here while the handle
    is ``failed``.  The one I/O thread is itself the consumer, so it
    cannot report the death while held: after two seconds the hold
    ends empty-handed and the thread goes on to read the death.
    """

    def __init__(self, first, **kwargs):
        super().__init__(**kwargs)
        self.first = first
        self.handle = None
        self.released = False
        self.states = []

    def get(self, timeout=None):
        if not self.released and len(self.states) >= self.first:
            if timeout == 0:
                raise QueueEmpty("the batch ends at the kill entry")
            deadline = time.monotonic() + 2.0
            while self.handle.state != "failed":
                if time.monotonic() > deadline:
                    raise QueueEmpty("no death reported while held")
                time.sleep(0.001)
            timeout = 10.0
        entry = super().get(timeout=timeout)
        self.states.append(self.handle.state)
        return entry


class TestNothingLeavesTheQueueAfterDeath:
    def test_entries_queued_after_death_reach_the_replacement(
        self, serving_framework
    ):
        """No ``get`` hands out an entry while the handle is
        ``failed``: entries queued after the death wait for the
        replacement, which diagnoses them exactly as the serial
        monitor does, and their subscribers are not marked affected."""
        trace = synthetic_trace(20, seed=17, subscribers=8)
        first = trace[:12]
        before = {entry.subscriber_id for entry in first}
        late = [e for e in trace if e.subscriber_id not in before]
        assert late
        faults = FaultInjector(
            FaultPlan(seed=0, kill_shard=0, kill_at_entry=len(first), kill_times=1)
        )
        kill_at, kill_times = faults.kill_spec_for(0)
        queue = _DeathWatchQueue(
            len(first), capacity=len(trace), policy="block", name="late"
        )
        for entry in first:
            queue.put(entry)
        handle = SocketShardWorker(
            config=NetShardConfig(
                index=0,
                framework=serving_framework,
                kill_at_entry=kill_at,
                kill_times=kill_times,
            ),
            queue=queue,
            dead_letters=DeadLetterQueue(),
            mode="inproc",
            faults=faults,
        )
        queue.handle = handle
        handle.start()
        deadline = time.monotonic() + 30.0
        while handle.state != "failed":
            assert time.monotonic() < deadline, "the injected kill never surfaced"
            time.sleep(0.001)
        for entry in late:
            queue.put(entry)
        queue.released = True
        handle.restart()
        queue.close()
        handle.join(30.0)

        assert faults.kills_fired == 1
        assert handle.state == "stopped"
        assert "failed" not in queue.states
        late_subscribers = {entry.subscriber_id for entry in late}
        assert not late_subscribers & faults.affected_subscribers
        reference = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        reference.feed_many(late)
        reference.drain()
        assert reference.diagnoses
        assert diagnosis_multiset(
            d
            for d in handle.diagnoses
            if _subscriber(d.session_id) in late_subscribers
        ) == diagnosis_multiset(reference.diagnoses)


class TestOneIoThreadPerShard:
    def test_running_service_has_one_io_thread_per_shard(
        self, serving_framework
    ):
        before = set(threading.enumerate())
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
        )
        with service:
            names = [t.name for t in threading.enumerate() if t not in before]
            service.submit_many(synthetic_trace(4, seed=3, subscribers=2))
        for index in range(2):
            assert names.count(f"repro-netshard-{index}-io") == 1
        assert not [n for n in names if n.endswith(("-send", "-recv"))]


class TestPlacementValidation:
    def test_placement_requires_socket_backend(self, serving_framework):
        with pytest.raises(ValueError, match="socket"):
            QoEService(
                serving_framework, n_shards=2, shard_backend="thread",
                placement="inproc:2",
            )

    def test_placement_count_must_match_shards(self, serving_framework):
        with pytest.raises(ValueError, match="names 4 shards"):
            QoEService(
                serving_framework, n_shards=2, shard_backend="socket",
                placement="inproc:4",
            )

    def test_socket_backend_defaults_to_local_placement(
        self, serving_framework
    ):
        service = QoEService(
            serving_framework, n_shards=2, shard_backend="socket"
        )
        assert service.router.placement.describe() == "local:2"


class TestBootstrapDeath:
    """A spawned worker that dies before reporting its port fails fast."""

    def test_unguarded_script_surfaces_failure_within_seconds(
        self, serving_framework, tmp_path
    ):
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro
        from repro.persistence import save_framework

        model = tmp_path / "model.json"
        save_framework(serving_framework, model)
        # No ``if __name__ == "__main__":`` guard: each spawned child
        # re-runs this script, reaches its own service.start() during
        # bootstrap, and dies there.
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(f"""
            import time
            from repro.persistence import load_framework
            from repro.serving import QoEService

            service = QoEService(
                load_framework({str(model)!r}), n_shards=1,
                shard_backend="socket", placement="local:1",
            )
            started = time.monotonic()
            service.start()
            elapsed = time.monotonic() - started
            shard = service._shards[0]
            print("RESULT", round(elapsed, 3), shard.state,
                  type(shard.error).__name__, shard.error, flush=True)
            service.stop()
        """))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        lines = [
            line for line in proc.stdout.splitlines()
            if line.startswith("RESULT ")
        ]
        assert len(lines) == 1, proc.stdout + proc.stderr
        _, elapsed, state, error_type, message = lines[0].split(" ", 4)
        assert float(elapsed) < 10.0
        assert state == "failed"
        assert error_type == "ShardUnreachable"
        assert "exited with code" in message
        assert "__main__" in message


class TestDefaultStartMethod:
    def test_file_main_uses_the_forkserver(self, monkeypatch, tmp_path):
        import multiprocessing
        import sys
        import types

        from repro.serving.netshard import _default_start_method

        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("no forkserver on this platform")
        script = tmp_path / "driver.py"
        script.write_text("")
        main = types.ModuleType("__main__")
        main.__file__ = str(script)
        monkeypatch.setitem(sys.modules, "__main__", main)
        assert _default_start_method() == "forkserver"

    def test_main_without_a_file_falls_back_to_fork(self, monkeypatch):
        import sys
        import types

        from repro.serving.netshard import _default_start_method

        main = types.ModuleType("__main__")
        main.__file__ = "<stdin>"
        monkeypatch.setitem(sys.modules, "__main__", main)
        assert _default_start_method() == "fork"


class TestLaunchSpan:
    def test_every_launch_is_one_span(self, serving_framework):
        from repro.obs.tracing import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            for _ in range(2):
                service = QoEService(
                    serving_framework,
                    n_shards=2,
                    shard_backend="socket",
                    placement="inproc:2",
                )
                with service:
                    service.submit_many(synthetic_trace(4, seed=3, subscribers=2))
        finally:
            set_tracer(previous)
        (span,) = [r for r in tracer.roots() if r.name == "serving.shard_launch"]
        assert span.count == 4
        assert span.counters == {"launches": 4.0}


def _running(pid):
    """Whether ``pid`` names a process that has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _group_members(pgid):
    """Running processes of process group ``pgid``."""
    import os

    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(name))
    return members


@pytest.mark.skipif(
    not __import__("os").path.isdir("/proc"), reason="reads /proc"
)
class TestOrphanedWorkerExits:
    """A local worker whose service process is killed does not keep
    listening: it waits for ``accept`` together with its parent's
    sentinel and exits when the parent is gone."""

    def test_sigkilled_service_leaves_no_process(
        self, serving_framework, tmp_path
    ):
        import os
        import signal
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro
        from repro.persistence import save_framework

        model = tmp_path / "model.json"
        save_framework(serving_framework, model)
        script = tmp_path / "service.py"
        script.write_text(textwrap.dedent(f"""
            import time
            from repro.persistence import load_framework
            from repro.serving import QoEService

            if __name__ == "__main__":
                service = QoEService(
                    load_framework({str(model)!r}), n_shards=1,
                    shard_backend="socket", placement="local:1",
                )
                service.start()
                print("WORKER", service._shards[0]._process.pid, flush=True)
                time.sleep(120)
        """))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            text=True, env=env, start_new_session=True,
        )
        worker = None
        try:
            line = proc.stdout.readline()
            assert line.startswith("WORKER "), line
            worker = int(line.split()[1])
            assert _running(worker)
            proc.kill()
            proc.wait(10)
            deadline = time.monotonic() + 5.0
            while _group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker), "the orphaned worker kept running"
            assert _group_members(proc.pid) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(10)
            proc.stdout.close()
            for pid in _group_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
