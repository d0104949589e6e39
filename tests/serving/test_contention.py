"""Shard fault scenarios under forced thread contention.

Races between a shard's threads, its worker and the supervisor show up
when the interpreter switches threads far more often than it does by
default.  Each test here sets the switch interval of this test process
to 10 µs (and restores it afterwards), then runs one fault scenario: a
socket worker kill and restart, a thread shard killed while a batch it
pulled from its queue is pending, a connection dropped mid-stream (with
diagnoses only, and with dead letters and provisional diagnoses in the
worker's outbox as well), and a partition.  Each runs three times.
Every run asserts the invariant the chaos suites use: per subscriber,
the service's diagnoses equal the serial monitor's, or the fault
injector marked that subscriber affected.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.online import EarlyPredictor
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import QoEService
from repro.serving.replay import synthetic_trace
from repro.serving.shard import shard_index

from tests.serving.conftest import diagnosis_multiset, provisional_multiset

RUNS = range(3)


@pytest.fixture(autouse=True)
def contention():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(40, seed=17, subscribers=20)


@pytest.fixture(scope="module")
def serial(serving_framework, trace):
    monitor = RealTimeMonitor(serving_framework, tracker=OnlineSessionTracker())
    monitor.feed_many(trace)
    monitor.drain()
    return monitor.diagnoses


def _by_subscriber(results):
    grouped = defaultdict(list)
    for result in results:
        grouped[result.session_id.rsplit("/online-", 1)[0]].append(result)
    return grouped


def _assert_identical_or_affected(service, serial, trace, affected):
    got, want = _by_subscriber(service.diagnoses), _by_subscriber(serial)
    subscribers = {entry.subscriber_id for entry in trace}
    untouched = subscribers - set(affected)
    assert untouched, "the fault touched every subscriber"
    for subscriber in sorted(untouched):
        assert diagnosis_multiset(got[subscriber]) == diagnosis_multiset(
            want[subscriber]
        ), f"{subscriber} diverged from serial without being marked affected"


@pytest.mark.parametrize("run", RUNS)
def test_kill_and_restart(serving_framework, trace, serial, run):
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
    with service:
        service.submit_many(trace)
    assert faults.kills_fired == 1
    assert service.router.shards[victim].restarts >= 1
    _assert_identical_or_affected(
        service, serial, trace, faults.affected_subscribers
    )


@pytest.mark.parametrize("run", RUNS)
def test_kill_with_a_pulled_batch_pending(serving_framework, trace, serial, run):
    """A thread shard killed part-way through the batch it pulled from
    its queue: the restarted thread resumes from that batch."""
    n_shards, kill_at = 2, 5
    victim = shard_index(trace[0].subscriber_id, n_shards)
    faults = FaultInjector(
        FaultPlan(seed=23, kill_shard=victim, kill_at_entry=kill_at, kill_times=1)
    )
    service = QoEService(
        serving_framework,
        n_shards=n_shards,
        queue_capacity=len(trace),
        faults=faults,
    )
    shard = service._shards[victim]
    inject = shard.fault_hook
    pulled_at_kill = []

    def observe_then_inject(index, entry, picked_up):
        if picked_up == kill_at:
            pulled_at_kill.append(len(shard._pending))
        inject(index, entry, picked_up)

    shard.fault_hook = observe_then_inject
    # Queued before the threads start: the victim's first hand-off
    # pulls a full batch, so the kill lands with most of it pending.
    for entry in trace:
        service._shards[shard_index(entry.subscriber_id, n_shards)].queue.put(entry)
    with service:
        pass
    assert faults.kills_fired == 1
    assert shard.restarts == 1
    assert pulled_at_kill and pulled_at_kill[0] >= 8
    _assert_identical_or_affected(
        service, serial, trace, faults.affected_subscribers
    )


@pytest.mark.parametrize("run", RUNS)
def test_dropped_connection(serving_framework, trace, serial, run):
    faults = FaultInjector(FaultPlan(seed=run))
    service = QoEService(
        serving_framework,
        n_shards=2,
        shard_backend="socket",
        placement="inproc:2",
        faults=faults,
    )
    with service:
        for i, entry in enumerate(trace):
            service.submit(entry)
            if i == len(trace) // 2:
                service.router.shards[0].drop_connection_for_test()
    assert service.router.shards[0].reconnects >= 1
    assert all(shard.restarts == 0 for shard in service.router.shards)
    _assert_identical_or_affected(
        service, serial, trace, faults.affected_subscribers
    )


@pytest.mark.parametrize("run", RUNS)
def test_partition(serving_framework, trace, serial, run):
    faults = FaultInjector(FaultPlan.parse("partition_shard=1@5:0.8,seed=3"))
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
    with service:
        service.submit_many(trace)
    assert service.supervisor.open_circuits == []
    _assert_identical_or_affected(
        service, serial, trace, faults.affected_subscribers
    )


@pytest.mark.parametrize("run", RUNS)
def test_dropped_connection_keeps_every_output_kind(
    serving_framework, trace, run
):
    """Connections drop while corrupt records and early prediction keep
    dead letters and provisional diagnoses in the workers' outboxes
    beside the diagnoses: each corrupt record is dead-lettered exactly
    once, and untouched subscribers' diagnoses and provisionals equal
    the serial monitor's."""
    faults = FaultInjector(FaultPlan(seed=run, corrupt_fraction=0.01))
    faulted = faults.plan_trace(trace)
    service = QoEService(
        serving_framework,
        n_shards=2,
        shard_backend="socket",
        placement="inproc:2",
        faults=faults,
        early_after_chunks=4,
    )
    drops = {len(faulted) * k // 4: k % 2 for k in (1, 2, 3)}
    with service:
        for i, entry in enumerate(faulted):
            service.submit(entry)
            if i in drops:
                service.router.shards[drops[i]].drop_connection_for_test()
    assert all(shard.reconnects >= 1 for shard in service.router.shards)
    assert all(shard.restarts == 0 for shard in service.router.shards)

    corrupted = [faulted[i.index] for i in faults.injections if i.kind == "corrupt"]
    assert corrupted
    lettered = service.dead_letters.items()
    assert {letter.reason for letter in lettered} == {"malformed"}
    assert sorted(repr(letter.entry) for letter in lettered) == sorted(
        repr(entry) for entry in corrupted
    )

    serial = RealTimeMonitor(
        serving_framework,
        tracker=OnlineSessionTracker(),
        early=EarlyPredictor(serving_framework, after_chunks=4),
    )
    serial.feed_many(trace)
    serial.drain()
    untouched = {entry.subscriber_id for entry in trace} - set(
        faults.affected_subscribers
    )
    assert untouched, "the corruption touched every subscriber"
    for mine, want, canonical in (
        (service.diagnoses, serial.diagnoses, diagnosis_multiset),
        (service.provisional, serial.provisional, provisional_multiset),
    ):
        got, expected = _by_subscriber(mine), _by_subscriber(want)
        assert any(expected[subscriber] for subscriber in untouched)
        for subscriber in sorted(untouched):
            assert canonical(got[subscriber]) == canonical(
                expected[subscriber]
            ), f"{subscriber} diverged from serial without being marked affected"
