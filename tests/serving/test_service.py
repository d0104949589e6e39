"""QoEService: lifecycle, determinism vs the serial monitor, health.

The headline guarantee under test: replaying a multi-subscriber trace
through N concurrent shards produces exactly the diagnosis multiset,
alarm multiset and per-subscriber health a serial
:class:`RealTimeMonitor` produces on the same trace.
"""

from __future__ import annotations

import threading

import pytest

from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving.models import ModelManager
from repro.serving.service import QoEService

from tests.serving.conftest import alarm_multiset, diagnosis_multiset


def _serial_run(framework, trace):
    monitor = RealTimeMonitor(framework, tracker=OnlineSessionTracker())
    monitor.feed_many(trace)
    monitor.drain()
    return monitor


def _service_run(framework, trace, n_shards, **kwargs):
    service = QoEService(framework, n_shards=n_shards, **kwargs)
    with service:
        service.submit_many(trace)
    return service


class TestDeterminism:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_matches_serial(
        self, serving_framework, serving_trace, n_shards
    ):
        serial = _serial_run(serving_framework, serving_trace)
        service = _service_run(serving_framework, serving_trace, n_shards)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert alarm_multiset(service.alarms) == alarm_multiset(serial.alarms)

    def test_health_matches_serial(self, serving_framework, serving_trace):
        serial = _serial_run(serving_framework, serving_trace)
        service = _service_run(serving_framework, serving_trace, 4)
        merged = service.health_by_subscriber
        assert set(merged) == set(serial.health)
        for subscriber, health in serial.health.items():
            assert merged[subscriber] == health

    def test_batch_size_does_not_change_results(
        self, serving_framework, serving_trace
    ):
        """Micro-batching is result-invisible: per-row forest outputs do
        not depend on which rows share a batch."""
        small = _service_run(
            serving_framework, serving_trace, 2, max_batch=1
        )
        large = _service_run(
            serving_framework, serving_trace, 2, max_batch=128, max_delay_s=5.0
        )
        assert diagnosis_multiset(small.diagnoses) == diagnosis_multiset(
            large.diagnoses
        )

    def test_repeat_runs_identical(self, serving_framework, serving_trace):
        first = _service_run(serving_framework, serving_trace, 4)
        second = _service_run(serving_framework, serving_trace, 4)
        assert diagnosis_multiset(first.diagnoses) == diagnosis_multiset(
            second.diagnoses
        )


class TestLifecycle:
    def test_states(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=2)
        assert service.state == "created"
        assert not service.ready
        service.start()
        assert service.state == "running"
        assert service.ready
        service.submit_many(serving_trace[:50])
        service.drain()
        assert service.state == "stopped"
        assert not service.ready

    def test_submit_before_start_raises(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=2)
        with pytest.raises(RuntimeError):
            service.submit(serving_trace[0])

    def test_start_twice_raises(self, serving_framework):
        service = QoEService(serving_framework, n_shards=1)
        service.start()
        with pytest.raises(RuntimeError):
            service.start()
        service.stop()

    def test_submit_after_drain_raises(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=1)
        service.start()
        service.drain()
        with pytest.raises(RuntimeError):
            service.submit(serving_trace[0])

    def test_drain_idempotent(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=2)
        service.start()
        service.submit_many(serving_trace)
        first = service.drain()
        second = service.drain()
        assert first == second
        service.stop()  # no-op on a stopped service

    def test_invalid_shard_count(self, serving_framework):
        with pytest.raises(ValueError):
            QoEService(serving_framework, n_shards=0)

    def test_context_manager_drains(self, serving_framework, serving_trace):
        with QoEService(serving_framework, n_shards=2) as service:
            service.submit_many(serving_trace)
        assert service.state == "stopped"
        assert len(service.diagnoses) > 0

    def test_drain_returns_past_a_wedged_shard(
        self, serving_framework, serving_trace
    ):
        """A shard still running when ``ensure_drained`` gives up is not
        joined: ``drain()`` returns, and the shard shows as wedged."""
        release = threading.Event()

        def blocking(_):
            release.wait()

        service = QoEService(
            serving_framework, n_shards=1, on_diagnosis=blocking
        )
        supervisor = service.supervisor
        bounded = supervisor.ensure_drained
        supervisor.ensure_drained = lambda: bounded(timeout_s=0.5)
        service.start()
        try:
            service.submit_many(serving_trace[:200])
            drainer = threading.Thread(target=service.drain, daemon=True)
            drainer.start()
            drainer.join(timeout=10.0)
            assert not drainer.is_alive(), "drain() blocked on a wedged shard"
            assert service.state == "stopped"
            health = service.health()
            assert health["degraded"] is True
            assert health["shards"][0]["alive"] is True
        finally:
            release.set()
            service._shards[0].join(timeout=10.0)

    def test_accepts_model_manager(self, serving_framework, serving_trace):
        manager = ModelManager(serving_framework)
        with QoEService(manager, n_shards=1) as service:
            assert service.models is manager
            service.submit_many(serving_trace[:50])


class TestBackpressureAccounting:
    def test_shed_newest_counts_sheds(self, serving_framework, serving_trace):
        """A tiny shed_newest queue under an unpaced burst must shed, and
        submitted == accepted + shed."""
        service = QoEService(
            serving_framework,
            n_shards=1,
            queue_capacity=1,
            policy="shed_newest",
            max_batch=64,
            max_delay_s=5.0,
        )
        # Keep the worker from draining the queue so sheds are forced:
        # the shard calls its fault hook for every entry it steps.
        hold = threading.Event()
        held = []

        def hold_worker(shard_index, entry, picked_up):
            held.append(picked_up)
            hold.wait(timeout=5.0)

        service._shards[0].fault_hook = hold_worker
        service.start()
        accepted = service.submit_many(serving_trace[:100])
        hold.set()
        service.drain()
        assert held, "the hold was never entered"
        assert service.submitted == 100
        assert service.shed == 100 - accepted
        assert service.shed > 0

    def test_block_policy_loses_nothing(self, serving_framework, serving_trace):
        service = _service_run(
            serving_framework, serving_trace, 2, queue_capacity=2, policy="block"
        )
        assert service.shed == 0
        processed = sum(s.entries_processed for s in service._shards)
        assert processed == len(serving_trace)


class TestCallbacksAndHealth:
    def test_callbacks_fire_per_event(self, serving_framework, serving_trace):
        lock = threading.Lock()
        seen_diagnoses, seen_alarms = [], []

        def on_diagnosis(d):
            with lock:
                seen_diagnoses.append(d)

        def on_alarm(a):
            with lock:
                seen_alarms.append(a)

        service = QoEService(
            serving_framework,
            n_shards=4,
            on_diagnosis=on_diagnosis,
            on_alarm=on_alarm,
        )
        with service:
            service.submit_many(serving_trace)
        assert len(seen_diagnoses) == len(service.diagnoses)
        assert len(seen_alarms) == len(service.alarms)
        assert service.callback_errors == 0

    def test_callback_errors_isolated_and_counted(
        self, serving_framework, serving_trace
    ):
        def broken(_):
            raise RuntimeError("subscriber bug")

        service = QoEService(
            serving_framework, n_shards=2, on_diagnosis=broken
        )
        with service:
            service.submit_many(serving_trace)
        assert len(service.diagnoses) > 0        # loop survived
        assert service.callback_errors == len(service.diagnoses)

    def test_health_snapshot_shape(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=3)
        with service:
            service.submit_many(serving_trace)
        snapshot = service.health()
        assert snapshot["state"] == "stopped"
        assert snapshot["ready"] is False
        assert snapshot["model_version"] == 1
        assert snapshot["submitted"] == len(serving_trace)
        assert len(snapshot["shards"]) == 3
        for shard in snapshot["shards"]:
            assert shard["queue_depth"] == 0
            assert shard["open_sessions"] == 0
            assert shard["pending_batch"] == 0
        assert sum(s["entries_processed"] for s in snapshot["shards"]) == len(
            serving_trace
        )
        assert sum(s["diagnoses"] for s in snapshot["shards"]) == len(
            service.diagnoses
        )
