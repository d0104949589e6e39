"""One `ShardSpec` per service: every backend runs the same settings.

The contracts under test:

* ``ShardSpec``'s defaults are ``QoEService``'s, and the service builds
  its spec from its keyword arguments;
* with *every* spec field away from its default, thread shards and
  socket shards produce the diagnosis, alarm, provisional and health
  results of one serial monitor built with the same settings — and
  those results differ from a default-spec run, so the settings are
  shown to reach every shard rather than being silently defaulted.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.online import EarlyPredictor
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving import QoEService, ShardSpec

from tests.serving.conftest import (
    alarm_multiset,
    diagnosis_multiset,
    provisional_multiset,
)

#: Every field differs from its default (checked below).
SPEC = ShardSpec(
    queue_capacity=64,
    max_batch=5,
    max_delay_s=0.1,
    idle_gap_s=10.0,
    min_media_chunks=4,
    severe_alarm_after=2,
    stall_ratio_alarm=0.3,
    min_sessions_for_ratio=3,
    clock_skew_tolerance_s=2.0,
    early_after_chunks=4,
    early_confidence=0.1,
)


def _outcome(diagnoses, alarms, provisional, health):
    return {
        "diagnoses": diagnosis_multiset(diagnoses),
        "alarms": alarm_multiset(alarms),
        "provisional": provisional_multiset(provisional),
        "health": dict(health),
    }


def _serial(framework, trace, spec):
    early = None
    if spec.early_after_chunks is not None:
        early = EarlyPredictor(
            framework,
            after_chunks=spec.early_after_chunks,
            min_confidence=spec.early_confidence,
        )
    monitor = RealTimeMonitor(
        framework,
        tracker=OnlineSessionTracker(
            idle_gap_s=spec.idle_gap_s, min_media_chunks=spec.min_media_chunks
        ),
        severe_alarm_after=spec.severe_alarm_after,
        stall_ratio_alarm=spec.stall_ratio_alarm,
        min_sessions_for_ratio=spec.min_sessions_for_ratio,
        early=early,
    )
    monitor.feed_many(trace)
    monitor.drain()
    return _outcome(
        monitor.diagnoses, monitor.alarms, monitor.provisional, monitor.health
    )


@pytest.fixture(scope="module")
def serial_spec(serving_framework, serving_trace):
    return _serial(serving_framework, serving_trace, SPEC)


@pytest.fixture(scope="module")
def serial_default(serving_framework, serving_trace):
    return _serial(serving_framework, serving_trace, ShardSpec())


class TestShardSpec:
    def test_defaults_are_the_service_defaults(self):
        params = inspect.signature(QoEService).parameters
        for field in dataclasses.fields(ShardSpec):
            assert field.default == params[field.name].default, field.name

    def test_service_builds_its_spec_from_its_kwargs(self, serving_framework):
        service = QoEService(
            serving_framework, n_shards=2, **dataclasses.asdict(SPEC)
        )
        assert service.spec == SPEC
        assert all(shard.spec is service.spec for shard in service._shards)

    def test_negative_skew_tolerance_rejected(self):
        with pytest.raises(ValueError, match="clock_skew_tolerance_s"):
            ShardSpec(clock_skew_tolerance_s=-1.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SPEC.max_batch = 1


class TestBackendParity:
    def test_every_field_is_away_from_its_default(self):
        for field in dataclasses.fields(ShardSpec):
            assert getattr(SPEC, field.name) != field.default, field.name

    def test_settings_change_the_outcome(self, serial_spec, serial_default):
        for view in ("diagnoses", "alarms", "provisional", "health"):
            assert serial_spec[view] != serial_default[view], view
        assert serial_spec["alarms"], "the alarm rules never fired"

    @pytest.mark.parametrize(
        "backend",
        [
            dict(shard_backend="thread"),
            dict(shard_backend="socket", placement="inproc:2"),
        ],
        ids=["thread", "socket"],
    )
    def test_two_shards_match_serial_with_the_same_spec(
        self, serving_framework, serving_trace, serial_spec, backend
    ):
        service = QoEService(
            serving_framework, n_shards=2, **backend, **dataclasses.asdict(SPEC)
        )
        if service.router is not None:
            assert all(
                shard.config.spec == SPEC for shard in service.router.shards
            )
        with service:
            service.submit_many(serving_trace)
        assert service.dead_letters.quarantined == 0
        got = _outcome(
            service.diagnoses,
            service.alarms,
            service.provisional,
            service.health_by_subscriber,
        )
        for view in ("diagnoses", "alarms", "provisional", "health"):
            assert got[view] == serial_spec[view], view
