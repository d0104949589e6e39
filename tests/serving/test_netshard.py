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
from repro.serving.netshard import SocketOpts
from repro.serving.replay import synthetic_trace
from repro.serving.shard import shard_index

from tests.serving.conftest import alarm_multiset, diagnosis_multiset


def _subscriber(session_id):
    return session_id.rsplit("/online-", 1)[0]


def _filtered(diagnoses, excluded):
    return diagnosis_multiset(
        d for d in diagnoses if _subscriber(d.session_id) not in excluded
    )


def _provisional_multiset(provisional):
    return sorted(
        (
            p.session_id,
            p.n_chunks,
            p.stall_class,
            p.stall_confidence,
            p.representation_class,
            p.representation_confidence,
        )
        for p in provisional
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
        assert _provisional_multiset(service.provisional) == (
            _provisional_multiset(reference.provisional)
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


class TestAuthentication:
    """The HMAC handshake guards the unpickler on both ends, and the
    hello token pins a worker session to one parent across reconnects."""

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
            stream.send("hello", {"token": token, "shard": 0, "resume": False})
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


class TestLetterLogBounds:
    def _entry(self):
        return object()  # the log never inspects the entry

    def test_trim_keeps_absolute_cursors_valid(self):
        from repro.serving.netshard import _LetterLog

        log = _LetterLog()
        for i in range(10):
            log.put(self._entry(), f"r{i}", shard=0)
        assert log.end == 10
        tail = log.slice(7, 10)
        log.trim_to(7)
        assert log.base == 7
        assert log.trimmed == 7
        assert log.slice(7, 10) == tail
        # Trimming below base is a no-op, never an index error.
        log.trim_to(3)
        assert log.base == 7

    def test_flush_trims_to_retention_window(self, serving_framework):
        from repro.serving import netshard
        from repro.serving.netshard import _LetterLog, _LETTER_RETAIN

        log = _LetterLog()
        total = _LETTER_RETAIN + 500
        for i in range(total):
            log.put(self._entry(), "validation", shard=0)
        # Simulate what flush_outputs does after a successful send.
        log.trim_to(max(log.base, total - _LETTER_RETAIN))
        assert log.end == total
        assert log.end - log.base == _LETTER_RETAIN
        assert log.trimmed == 500
        assert netshard._LETTER_RETAIN >= 256  # rewind window stays useful

    def test_rewind_clamps_to_retained_base(self):
        from repro.serving.netshard import _LetterLog, _WorkerState

        st = _WorkerState.__new__(_WorkerState)
        st.letters = _LetterLog()
        for i in range(10):
            st.letters.put(self._entry(), "validation", shard=0)
        st.letters.trim_to(6)
        st.sent_diagnoses = st.sent_alarms = st.sent_provisional = 0
        st.rewind({"out_letters": 2})  # parent asks below the window
        assert st.sent_letters == 6  # clamped, not an index error
        assert st.sent_entries == -1


class TestRestartResetsWatermarks:
    def test_restart_clears_sequence_state(self, serving_framework):
        from repro.serving.dlq import DeadLetterQueue
        from repro.serving.netshard import NetShardConfig, SocketShardWorker
        from repro.serving.queue import BoundedQueue

        handle = SocketShardWorker(
            config=NetShardConfig(index=0, framework=serving_framework),
            queue=BoundedQueue(capacity=8, policy="block", name="rs-test"),
            dead_letters=DeadLetterQueue(),
            mode="inproc",
        )
        # Simulate a worker that lived, acked, then died.
        handle._seq = 41
        handle._acked_seq = 37
        handle._worker_incarnation = 1234
        handle._seen_subscribers.update({"s1", "s2"})
        handle._unacked.entries.append((41, object()))
        handle._launch_worker = lambda: None
        handle._establish = lambda resume: {}
        handle._start_threads = lambda: None

        handle.restart()

        assert handle.restarts == 1
        assert handle._seq == 0
        assert handle._acked_seq == 0
        assert handle._worker_incarnation is None
        assert not handle._seen_subscribers
        assert not handle._unacked.entries
        # A replacement worker's first reconnect (recv_seq 0) must not
        # read as state loss against the dead worker's watermark.
        assert handle._acked_seq <= 0


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
