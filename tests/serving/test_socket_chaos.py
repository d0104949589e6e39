"""Socket-transport chaos: partitions, slow links, total network loss.

The partition is the failure mode the socket backend exists for — a
shard that stops answering while its TCP connection stays open, which
no amount of process supervision can see.  The contracts under test:

* the supervisor classifies the shard *partitioned* (typed state, with
  hysteresis), never restarts it, and quarantines its parent-side
  backlog to the DLQ with reason ``partitioned``;
* when the partition heals the shard returns to *healthy* and its
  circuit never opened;
* subscribers the fault never touched still diagnose bit-identically
  to the serial monitor;
* a uniformly slow link delays wall-clock but changes no result;
* when *every* remote shard is unreachable the service degrades to the
  in-process serial monitor instead of refusing the tap.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import QoEService
from repro.serving.replay import synthetic_trace

from tests.serving.conftest import diagnosis_multiset


def _subscriber(session_id):
    return session_id.rsplit("/online-", 1)[0]


def _filtered(diagnoses, excluded):
    return diagnosis_multiset(
        d for d in diagnoses if _subscriber(d.session_id) not in excluded
    )


@pytest.fixture(scope="module")
def chaos_trace():
    return synthetic_trace(40, seed=17, subscribers=20)


@pytest.fixture(scope="module")
def chaos_serial(serving_framework, chaos_trace):
    monitor = RealTimeMonitor(serving_framework, tracker=OnlineSessionTracker())
    monitor.feed_many(chaos_trace)
    monitor.drain()
    return monitor


class TestPartition:
    def test_partition_quarantines_without_restart_then_heals(
        self, serving_framework, chaos_trace, chaos_serial
    ):
        plan = FaultPlan.parse("partition_shard=1@5:1.2,seed=3")
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            faults=faults,
            heartbeat_timeout_s=0.25,
            supervisor_poll_s=0.05,
            partition_enter_ticks=2,
            partition_exit_ticks=1,
            socket_opts=dict(max_unacked=8),
        )
        observed = []
        with service:
            service.submit_many(chaos_trace)
            # Watch the typed state walk healthy -> partitioned ->
            # healthy before draining; the partition lasts 1.2s.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                state = service.supervisor.shard_state(1)
                if not observed or observed[-1] != state:
                    observed.append(state)
                if observed[-1] == "healthy" and "partitioned" in observed:
                    break
                time.sleep(0.02)

        assert "partitioned" in observed, f"state walk was {observed}"
        assert observed[-1] == "healthy", f"state walk was {observed}"

        health = service.health()
        # Partition tolerance is precisely NOT restarting: the shard's
        # worker (and its tracker state) survived untouched.
        assert health["restarts"] == 0
        assert service.supervisor.open_circuits == []
        assert health["shards"][1]["health_state"] == "healthy"

        # The stale shard's parent-side backlog went to the DLQ under
        # its own reason, visible in the per-reason rollup.
        by_reason = health["dead_letter"]["by_reason"]
        assert by_reason.get("partitioned", 0) > 0
        assert service.supervisor.quarantined_by_partition > 0

        # Everyone the fault never touched is still bit-identical.
        affected = faults.affected_subscribers
        assert affected
        assert len(affected) < 20
        untouched = _filtered(chaos_serial.diagnoses, affected)
        assert untouched
        assert _filtered(service.diagnoses, affected) == untouched

        summary = faults.summary()
        assert summary["by_kind"].get("partition") == 1

    def test_partition_writes_postmortem(
        self, serving_framework, chaos_trace, tmp_path
    ):
        plan = FaultPlan.parse("partition_shard=0@5:0.8,seed=11")
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            faults=faults,
            heartbeat_timeout_s=0.25,
            supervisor_poll_s=0.05,
            partition_enter_ticks=2,
            partition_exit_ticks=1,
            postmortem_dir=str(tmp_path),
            socket_opts=dict(max_unacked=8),
        )
        with service:
            service.submit_many(chaos_trace)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if service.supervisor.shard_state(0) == "partitioned":
                    break
                time.sleep(0.02)
        assert any(
            "shard_partitioned" in path.name for path in tmp_path.iterdir()
        ), [p.name for p in tmp_path.iterdir()]


class TestSlowLink:
    def test_slow_link_changes_no_result(
        self, serving_framework, chaos_trace, chaos_serial
    ):
        plan = FaultPlan.parse("slow_link=1.0:2,seed=5")
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            placement="inproc:2",
            faults=faults,
        )
        with service:
            service.submit_many(chaos_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            chaos_serial.diagnoses
        )
        summary = faults.summary()
        assert summary["slow_sends"] > 0
        # A slow link is latency, not loss: nobody is fault-affected.
        assert not faults.affected_subscribers

    def test_fractional_slow_link_is_deterministic(self, serving_framework):
        plan = FaultPlan.parse("slow_link=0.5:1,seed=9")
        injector = FaultInjector(plan)
        delays_a = [injector.slow_link_delay_s(seq) for seq in range(64)]
        injector_b = FaultInjector(FaultPlan.parse("slow_link=0.5:1,seed=9"))
        delays_b = [injector_b.slow_link_delay_s(seq) for seq in range(64)]
        assert delays_a == delays_b
        assert any(d > 0 for d in delays_a)
        assert any(d == 0 for d in delays_a)


class TestTotalPartition:
    def test_all_circuits_open_degrades_to_serial_fallback(
        self, serving_framework, chaos_trace, chaos_serial
    ):
        """Every shard address is a black hole: connect attempts burn
        the restart budget, every circuit opens, and the service falls
        back to the in-process serial monitor — same results, one
        core."""
        service = QoEService(
            serving_framework,
            n_shards=2,
            shard_backend="socket",
            # TEST-NET-1 addresses: guaranteed unreachable, and the
            # tiny connect deadline keeps each attempt short.
            placement="0=192.0.2.1:9,1=192.0.2.2:9",
            max_restarts=1,
            restart_backoff_s=0.01,
            supervisor_poll_s=0.02,
            socket_opts=dict(connect_deadline_s=0.2, connect_backoff_s=0.05),
            # A non-default setting the fallback must inherit; batch
            # size cannot change a diagnosis.
            max_batch=7,
        )
        with service:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(service.supervisor.open_circuits) >= 2:
                    break
                time.sleep(0.05)
            assert len(service.supervisor.open_circuits) == 2
            service.submit_many(chaos_trace)

        # The fallback is built from the service's one spec.
        assert service._fallback.spec == service.spec
        assert service._fallback.batcher.max_batch == 7
        health = service.health()
        assert health["serial_fallback"]["engaged"]
        assert health["serial_fallback"]["entries_processed"] == len(
            chaos_trace
        )
        assert all(
            s["health_state"] == "dead" for s in health["shards"]
        )
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            chaos_serial.diagnoses
        )
