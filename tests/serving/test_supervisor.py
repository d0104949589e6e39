"""Supervision tests: restarts, circuit breaker, shutdown under failure."""

from __future__ import annotations

import threading
import time

import pytest

from repro.faults import FaultInjector, FaultPlan, InjectedFault
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import (
    DeadLetterQueue,
    ModelManager,
    QoEService,
    ShardSupervisor,
)
from repro.serving.queue import BoundedQueue
from repro.serving.shard import ShardSpec, ShardWorker, shard_index

from tests.serving.conftest import diagnosis_multiset


def _wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _single_shard(framework, faults=None, name="t-sup", **kwargs):
    return ShardWorker(
        index=0,
        models=ModelManager(framework),
        queue=BoundedQueue(4096, name=name),
        spec=ShardSpec(max_batch=8, max_delay_s=0.05),
        fault_hook=faults.shard_fault_hook if faults is not None else None,
        **kwargs,
    )


class TestWorkerRestart:
    def test_restart_resumes_over_surviving_state(
        self, serving_framework, serving_trace
    ):
        """Kill the worker mid-trace; the supervisor-restarted thread
        drains the same queue and the only loss is the in-flight entry."""
        faults = FaultInjector(FaultPlan(kill_shard=0, kill_at_entry=20))
        dlq = DeadLetterQueue()
        shard = _single_shard(serving_framework, faults, name="t-restart")
        supervisor = ShardSupervisor(
            [shard], dlq, max_restarts=3, backoff_base_s=0.01
        )
        shard.start()
        supervisor.start()
        for entry in serving_trace:
            shard.queue.put(entry)
        shard.queue.close()

        assert _wait_for(lambda: shard.state == "stopped")
        supervisor.stop()
        assert shard.restarts == 1
        assert supervisor.total_restarts == 1
        assert not supervisor.circuit_open(0)
        assert not supervisor.degraded
        # exactly one entry (the in-flight one at kill time) was lost
        assert shard.entries_processed == len(serving_trace)
        assert len(faults.injections) == 1
        assert faults.injections[0].kind == "kill_worker"

    def test_restart_refused_while_alive(self, serving_framework, serving_trace):
        shard = _single_shard(serving_framework, name="t-alive")
        shard.start()
        with pytest.raises(RuntimeError, match="alive"):
            shard.restart()
        shard.queue.close()
        shard.join(timeout=30.0)

    def test_a_refused_restart_is_retried_next_tick(
        self, serving_framework, serving_trace
    ):
        """A restart that raises must not end supervision: the shard is
        still failed, and the next tick restarts it."""
        faults = FaultInjector(FaultPlan(kill_shard=0, kill_at_entry=20))
        shard = _single_shard(serving_framework, faults, name="t-refused")
        restart = shard.restart
        refused = []

        def refuse_once():
            if not refused:
                refused.append(True)
                raise RuntimeError("shard 0 is alive; cannot restart")
            restart()

        shard.restart = refuse_once
        supervisor = ShardSupervisor(
            [shard], DeadLetterQueue(), max_restarts=3, backoff_base_s=0.01
        )
        shard.start()
        supervisor.start()
        for entry in serving_trace:
            shard.queue.put(entry)
        shard.queue.close()

        assert _wait_for(lambda: shard.state == "stopped")
        supervisor.stop()
        assert refused == [True]
        assert shard.restarts == 1
        assert shard.entries_processed == len(serving_trace)

    def test_restart_waits_for_the_failed_thread_postmortem(
        self, serving_framework, serving_trace
    ):
        """A failed thread publishes "failed" before its postmortem; a
        restart landing in that window waits for the thread to end
        instead of refusing to restart."""
        in_postmortem = threading.Event()

        class SlowFlush:
            def flush(self):
                in_postmortem.set()
                time.sleep(0.3)

        def kill(index, entry, processed):
            raise InjectedFault("kill")

        shard = ShardWorker(
            index=0,
            models=ModelManager(serving_framework),
            queue=BoundedQueue(64, name="t-postmortem"),
            spec=ShardSpec(max_batch=8, max_delay_s=0.05),
            fault_hook=kill,
        )
        shard.telemetry = SlowFlush()
        shard.start()
        shard.queue.put(serving_trace[0])
        assert in_postmortem.wait(timeout=10.0)
        assert shard.state == "failed"
        shard.fault_hook = None
        shard.telemetry = None
        shard.restart()
        assert shard.restarts == 1 and shard.state == "running"
        shard.queue.close()
        shard.join(timeout=30.0)
        assert shard.state == "stopped"


class TestCircuitBreaker:
    def test_budget_exhaustion_trips_circuit_and_quarantines(
        self, serving_framework, serving_trace
    ):
        """A crash-looping shard opens its breaker; the stranded backlog
        lands in the dead-letter queue with reason circuit_open."""
        faults = FaultInjector(
            FaultPlan(kill_shard=0, kill_at_entry=1, kill_times=100)
        )
        dlq = DeadLetterQueue()
        shard = _single_shard(serving_framework, faults, name="t-circuit")
        supervisor = ShardSupervisor(
            [shard], dlq, max_restarts=2, backoff_base_s=0.005
        )
        shard.start()
        supervisor.start()
        for entry in serving_trace:
            shard.queue.put(entry)

        assert _wait_for(lambda: supervisor.circuit_open(0))
        supervisor.stop()
        assert supervisor.open_circuits == [0]
        assert supervisor.degraded
        assert shard.restarts == 2  # the full budget was spent first
        assert dlq.quarantined > 0
        assert set(dlq.by_reason) == {"circuit_open"}
        # the queue was emptied so blocked producers cannot hang
        assert shard.queue.depth == 0

    def test_service_rejects_submits_to_open_circuit(
        self, serving_framework, serving_trace
    ):
        """Once a shard's circuit opens, its subscribers are refused at
        submit() while other shards keep accepting; stop() still works."""
        victim = shard_index(serving_trace[0].subscriber_id, 2)
        faults = FaultInjector(
            FaultPlan(kill_shard=victim, kill_at_entry=1, kill_times=100)
        )
        service = QoEService(
            serving_framework,
            n_shards=2,
            max_restarts=1,
            restart_backoff_s=0.005,
            supervisor_poll_s=0.005,
            faults=faults,
        )
        service.start()
        # feed until the victim's circuit trips
        for entry in serving_trace:
            service.submit(entry)
        assert _wait_for(lambda: service.supervisor.circuit_open(victim))
        assert not service.ready
        assert service.degraded

        rejected_before = service.rejected
        assert service.submit(serving_trace[0]) is False
        assert service.rejected == rejected_before + 1

        # the healthy shard still accepts
        other = next(
            e
            for e in serving_trace
            if shard_index(e.subscriber_id, 2) != victim
        )
        assert service.submit(other) is True

        service.stop()  # must not raise despite the tripped breaker
        assert service.state == "stopped"
        health = service.health()
        assert health["degraded"] is True
        assert health["shards"][victim]["circuit_open"] is True
        assert health["dead_letter"]["by_reason"].get("circuit_open", 0) > 0


class TestCircuitAccountsForThePulledBatch:
    def test_open_circuit_dead_letters_the_pulled_batch(
        self, serving_framework, serving_trace
    ):
        """A worker killed mid-way through a pulled batch, with no
        restart budget left: the entries it had pulled but not reached
        are dead-lettered with the queue's, so every submitted entry is
        processed, quarantined or the one in flight."""
        submitted = serving_trace[:200]
        kill_at = 5
        passed = []
        pulled_at_kill = []
        dlq = DeadLetterQueue()
        shard = _single_shard(serving_framework, name="t-pulled")

        def kill_mid_batch(index, entry, picked_up):
            if picked_up == kill_at:
                pulled_at_kill.append(len(shard._pending))
                raise InjectedFault(f"killed at entry {picked_up}")
            passed.append(entry)

        shard.fault_hook = kill_mid_batch
        # Queued before the thread starts: its first hand-off pulls a
        # full batch, so the kill lands with most of it still pending.
        for entry in submitted:
            shard.queue.put(entry)
        supervisor = ShardSupervisor(
            [shard], dlq, max_restarts=0, poll_interval_s=0.005
        )
        shard.start()
        supervisor.start()
        assert _wait_for(lambda: supervisor.circuit_open(0))
        supervisor.stop()

        assert pulled_at_kill and pulled_at_kill[0] >= 8
        assert set(dlq.by_reason) == {"circuit_open"}
        quarantined = dlq.by_reason["circuit_open"]
        assert len(passed) + quarantined + 1 == len(submitted)
        assert shard.queued == 0
        # The pulled batch is quarantined first, in queue order.
        assert [letter.entry for letter in dlq.items()] == submitted[kill_at:]


class TestDrainUnderFailure:
    def test_drain_mid_restart_still_flushes_backlog(
        self, serving_framework, serving_trace
    ):
        """drain() arriving while the shard is dead and waiting out its
        restart backoff must revive it immediately and lose nothing but
        the in-flight entry."""
        victim = shard_index(serving_trace[0].subscriber_id, 2)
        faults = FaultInjector(FaultPlan(kill_shard=victim, kill_at_entry=5))
        service = QoEService(
            serving_framework,
            n_shards=2,
            # Room for the whole backlog: the victim's consumer stays
            # dead until drain(), so submits must never block on it.
            queue_capacity=4096,
            max_restarts=3,
            # Backoff far beyond the test: the watchdog alone would
            # never restart in time, so drain() must do it.
            restart_backoff_s=600.0,
            faults=faults,
        )
        service.start()
        for entry in serving_trace:
            service.submit(entry)
        assert _wait_for(lambda: faults.kills_fired == 1)
        diagnoses = service.drain()

        assert service.state == "stopped"
        assert service.supervisor.total_restarts == 1
        assert not service.degraded
        # one in-flight entry died with the worker; everything queued
        # behind it was still processed after the forced restart
        total_processed = sum(
            s["entries_processed"] for s in service.health()["shards"]
        )
        assert total_processed == len(serving_trace)
        assert len(diagnoses) > 0

    def test_fault_free_supervised_run_matches_serial(
        self, serving_framework, serving_trace
    ):
        """Supervision machinery at rest must not perturb results: a
        fault-free supervised service equals the serial monitor."""
        serial = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        serial.feed_many(serving_trace)
        serial.drain()

        service = QoEService(serving_framework, n_shards=4)
        service.start()
        for entry in serving_trace:
            service.submit(entry)
        diagnoses = service.drain()

        assert service.supervisor.total_restarts == 0
        assert not service.degraded
        assert diagnosis_multiset(diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )


class TestHeartbeat:
    def test_stalled_worker_flagged_and_recovers(self, serving_framework):
        """A live worker whose heartbeat goes stale is flagged degraded
        after the enter hysteresis, and the flag clears after the exit
        hysteresis once the heartbeat catches up (the clock is
        injected: no real wedged thread needed)."""
        shard = _single_shard(serving_framework, name="t-stall")
        dlq = DeadLetterQueue()
        offset = [0.0]
        supervisor = ShardSupervisor(
            [shard],
            dlq,
            heartbeat_timeout_s=5.0,
            partition_enter_ticks=3,
            partition_exit_ticks=2,
            clock=lambda: time.monotonic() + offset[0],
        )
        shard.start()
        try:
            supervisor._tick()
            assert supervisor.stalled_shards == []
            assert supervisor.shard_state(0) == "healthy"
            offset[0] = 100.0  # heartbeat now looks 100 s stale
            # Two stale polls are still within hysteresis...
            supervisor._tick()
            supervisor._tick()
            assert supervisor.stalled_shards == []
            assert not supervisor.degraded
            # ...the third declares the partition.
            supervisor._tick()
            assert supervisor.stalled_shards == [0]
            assert supervisor.degraded
            assert supervisor.shard_state(0) == "partitioned"
            offset[0] = 0.0
            # One fresh poll is not yet recovery...
            supervisor._tick()
            assert supervisor.stalled_shards == [0]
            # ...the second is.
            supervisor._tick()
            assert supervisor.stalled_shards == []
            assert not supervisor.degraded
            assert supervisor.shard_state(0) == "healthy"
        finally:
            shard.queue.close()
            shard.join(timeout=30.0)

    def test_single_stale_poll_does_not_flap(self, serving_framework):
        """One delayed heartbeat (a GC pause, a long batch) must not
        enter the partition machinery at all."""
        shard = _single_shard(serving_framework, name="t-flap")
        offset = [0.0]
        supervisor = ShardSupervisor(
            [shard],
            DeadLetterQueue(),
            heartbeat_timeout_s=5.0,
            partition_enter_ticks=3,
            partition_exit_ticks=2,
            clock=lambda: time.monotonic() + offset[0],
        )
        shard.start()
        try:
            for _round in range(4):
                offset[0] = 100.0
                supervisor._tick()  # one stale poll per round
                offset[0] = 0.0
                supervisor._tick()  # fresh again: counter resets
            assert supervisor.stalled_shards == []
            assert supervisor.shard_state(0) == "healthy"
        finally:
            shard.queue.close()
            shard.join(timeout=30.0)

    def test_dead_transport_is_not_a_partition(self, serving_framework):
        """Stale heartbeat + dead connection means a reconnect is in
        flight — the shard must NOT be classified partitioned (that
        would shed its backlog while the resume handshake is about to
        re-deliver it)."""
        shard = _single_shard(serving_framework, name="t-conn")
        shard.connection_alive = False  # duck-typed transport signal
        offset = [0.0]
        supervisor = ShardSupervisor(
            [shard],
            DeadLetterQueue(),
            heartbeat_timeout_s=5.0,
            partition_enter_ticks=1,
            clock=lambda: time.monotonic() + offset[0],
        )
        shard.start()
        try:
            offset[0] = 100.0
            for _ in range(5):
                supervisor._tick()
            assert supervisor.stalled_shards == []
            assert supervisor.shard_state(0) == "healthy"
        finally:
            shard.queue.close()
            shard.join(timeout=30.0)

    def test_hysteresis_ticks_validated(self, serving_framework):
        with pytest.raises(ValueError, match="hysteresis"):
            ShardSupervisor(
                [], DeadLetterQueue(), partition_enter_ticks=0
            )
        with pytest.raises(ValueError, match="hysteresis"):
            ShardSupervisor(
                [], DeadLetterQueue(), partition_exit_ticks=0
            )


class TestTypedStates:
    def test_circuit_open_classifies_dead(self, serving_framework, serving_trace):
        faults = FaultInjector(
            FaultPlan(kill_shard=0, kill_at_entry=1, kill_times=100)
        )
        dlq = DeadLetterQueue()
        shard = _single_shard(serving_framework, faults, name="t-dead")
        supervisor = ShardSupervisor(
            [shard], dlq, max_restarts=1, backoff_base_s=0.005
        )
        shard.start()
        supervisor.start()
        for entry in serving_trace:
            shard.queue.put(entry)
        assert _wait_for(lambda: supervisor.circuit_open(0))
        supervisor.stop()
        assert supervisor.shard_state(0) == "dead"
        assert supervisor.shard_states == {0: "dead"}
