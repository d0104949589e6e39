"""Process-backed shard tests: determinism, death handling, folding.

The process backend must be observationally identical to the thread
backend (and therefore to the serial monitor) with faults off; with a
shard *process* killed mid-replay the supervisor must restart it and
the untouched subscribers must still diagnose bit-identically.  The
child registries must fold into the parent's so ``/metrics`` stays a
single scrape surface.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.obs import get_registry
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import QoEService
from repro.serving.replay import synthetic_trace
from repro.serving.shard import shard_index

from tests.serving.conftest import alarm_multiset, diagnosis_multiset


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


class TestProcessDeterminism:
    def test_four_process_shards_match_serial(
        self, serving_framework, serving_trace, serial
    ):
        entries_before = _counter_total("repro_serving_entries_total")
        service = QoEService(
            serving_framework, n_shards=4, shard_backend="process"
        )
        with service:
            service.submit_many(serving_trace)

        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )
        assert alarm_multiset(service.alarms) == alarm_multiset(serial.alarms)

        health = service.health()
        assert health["backend"] == "socket"
        assert health["router"]["placement"] == "local:4"
        assert health["state"] == "stopped"
        assert health["restarts"] == 0
        assert sum(
            s["entries_processed"] for s in health["shards"]
        ) == len(serving_trace)

        # Child registries folded into the parent's: the per-entry
        # counters incremented inside the shard *processes* are visible
        # on this (parent) registry after the drain handshake.
        folds = health["router"]["registry_folds"]
        assert folds["errors"] == 0
        assert folds["folds"] >= 4  # at least the final per-shard delta
        assert _counter_total(
            "repro_serving_entries_total"
        ) - entries_before == len(serving_trace)

    def test_single_process_shard_matches_serial(
        self, serving_framework, serving_trace, serial
    ):
        """n_shards=1 removes partitioning from the picture: any
        mismatch here is protocol loss, not routing."""
        service = QoEService(
            serving_framework, n_shards=1, shard_backend="process"
        )
        with service:
            service.submit_many(serving_trace)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial.diagnoses
        )


class TestProcessDeath:
    def test_killed_process_restarts_and_untouched_are_identical(
        self, serving_framework
    ):
        trace = synthetic_trace(40, seed=17, subscribers=20)
        victim = shard_index(trace[0].subscriber_id, 4)
        plan = FaultPlan(
            seed=23, kill_shard=victim, kill_at_entry=25, kill_times=1
        )
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework, n_shards=4, shard_backend="process",
            faults=faults,
        )
        with service:
            service.submit_many(trace)
        health = service.health()

        assert faults.kills_fired == 1
        assert health["restarts"] >= 1
        assert health["shards"][victim]["restarts"] >= 1
        assert health["state"] == "stopped"
        assert not service.degraded
        assert service.supervisor.open_circuits == []

        # A dead process loses the whole shard state, so every
        # subscriber ever routed there is affected — but only those.
        affected = faults.affected_subscribers
        assert affected
        assert len(affected) < 20

        serial = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        serial.feed_many(trace)
        serial.drain()
        untouched_serial = _filtered(serial.diagnoses, affected)
        assert untouched_serial  # the comparison is not vacuous
        assert _filtered(service.diagnoses, affected) == untouched_serial

    def test_kill_budget_exhaustion_opens_circuit(self, serving_framework):
        trace = synthetic_trace(10, seed=3, subscribers=6)
        victim = shard_index(trace[0].subscriber_id, 2)
        plan = FaultPlan(
            seed=5, kill_shard=victim, kill_at_entry=1, kill_times=10
        )
        faults = FaultInjector(plan)
        service = QoEService(
            serving_framework, n_shards=2, shard_backend="process",
            faults=faults, max_restarts=1, restart_backoff_s=0.01,
        )
        with service:
            # Keep feeding so every restarted child also picks up an
            # entry (and dies on it) until the budget trips the breaker.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                service.submit_many(trace)
                if service.supervisor.open_circuits:
                    break
                time.sleep(0.05)

        assert victim in service.supervisor.open_circuits
        assert service.degraded
        assert service.health()["shards"][victim]["circuit_open"]
        # initial child + the one restart both died on the injected kill
        assert faults.kills_fired >= 2
        # anything stranded on the broken shard's ingest queue was
        # quarantined, never silently dropped (re-fed waves also rack
        # up legitimate non_monotonic quarantines on the live shard)
        by_reason = service.dead_letters.snapshot()["by_reason"]
        assert set(by_reason) <= {"circuit_open", "non_monotonic"}
        assert service.dead_letters.quarantined > 0
