"""Early prediction through the serving layer: determinism and invariance.

Two guarantees under test, extending the serving determinism contract:

* the *provisional* diagnosis multiset of an N-shard service (thread or
  process backend) at a given ``early_after_chunks`` is bit-identical
  to the serial monitor's with the same :class:`EarlyPredictor`
  settings — per-field, confidences included;
* turning early prediction ON changes nothing about the *final*
  diagnoses, alarms or health (snapshots only read the open session;
  the close path still extracts features from the closed record).
"""

from __future__ import annotations

import pytest

from repro.online import EarlyPredictor
from repro.realtime.monitor import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker
from repro.serving.service import QoEService

from tests.serving.conftest import (
    alarm_multiset,
    diagnosis_multiset,
    provisional_multiset,
)

AFTER_CHUNKS = 4


@pytest.fixture(scope="module")
def serial_early(serving_framework, serving_trace):
    monitor = RealTimeMonitor(
        serving_framework,
        tracker=OnlineSessionTracker(),
        early=EarlyPredictor(serving_framework, after_chunks=AFTER_CHUNKS),
    )
    monitor.feed_many(serving_trace)
    monitor.drain()
    return monitor


def _early_service(framework, trace, n_shards, **kwargs):
    service = QoEService(
        framework,
        n_shards=n_shards,
        early_after_chunks=AFTER_CHUNKS,
        **kwargs,
    )
    with service:
        service.submit_many(trace)
    return service


class TestProvisionalDeterminism:
    def test_serial_emits_provisionals(self, serial_early):
        assert len(serial_early.provisional) > 0
        report = serial_early.early.report()
        assert report.sessions > 0
        assert report.predictions >= len(serial_early.provisional)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_thread_shards_match_serial(
        self, serving_framework, serving_trace, serial_early, n_shards
    ):
        service = _early_service(serving_framework, serving_trace, n_shards)
        assert provisional_multiset(service.provisional) == (
            provisional_multiset(serial_early.provisional)
        )
        report = service.early_report()
        serial_report = serial_early.early.report()
        assert report.sessions == serial_report.sessions
        assert report.predictions == serial_report.predictions
        assert sorted(report.chunks_to_stable) == sorted(
            serial_report.chunks_to_stable
        )

    def test_process_shards_match_serial(
        self, serving_framework, serving_trace, serial_early
    ):
        service = _early_service(
            serving_framework, serving_trace, 2, shard_backend="process"
        )
        assert provisional_multiset(service.provisional) == (
            provisional_multiset(serial_early.provisional)
        )
        report = service.early_report()
        assert report.sessions == serial_early.early.report().sessions


class TestFinalInvariance:
    def test_early_does_not_change_finals_serial(
        self, serving_framework, serving_trace, serial_early
    ):
        plain = RealTimeMonitor(
            serving_framework, tracker=OnlineSessionTracker()
        )
        plain.feed_many(serving_trace)
        plain.drain()
        assert diagnosis_multiset(serial_early.diagnoses) == (
            diagnosis_multiset(plain.diagnoses)
        )
        assert alarm_multiset(serial_early.alarms) == alarm_multiset(
            plain.alarms
        )

    def test_early_does_not_change_finals_sharded(
        self, serving_framework, serving_trace, serial_early
    ):
        service = _early_service(serving_framework, serving_trace, 4)
        assert diagnosis_multiset(service.diagnoses) == diagnosis_multiset(
            serial_early.diagnoses
        )


class TestServiceSurface:
    def test_confidence_threshold_filters_emission(
        self, serving_framework, serving_trace, serial_early
    ):
        threshold = 0.9
        service = _early_service(
            serving_framework, serving_trace, 2, early_confidence=threshold
        )
        # Emitted set is exactly the serial run's above-threshold subset.
        assert provisional_multiset(service.provisional) == (
            provisional_multiset(
                p
                for p in serial_early.provisional
                if p.confidence >= threshold
            )
        )
        assert len(service.provisional) < len(serial_early.provisional)
        # Convergence accounting still sees the suppressed predictions.
        assert (
            service.early_report().predictions
            == serial_early.early.report().predictions
        )

    def test_provisional_callback_fires(self, serving_framework, serving_trace):
        seen = []
        service = QoEService(
            serving_framework,
            n_shards=2,
            early_after_chunks=AFTER_CHUNKS,
            on_provisional=seen.append,
        )
        with service:
            service.submit_many(serving_trace)
        assert provisional_multiset(seen) == provisional_multiset(
            service.provisional
        )

    def test_health_counts_provisionals(self, serving_framework, serving_trace):
        service = _early_service(serving_framework, serving_trace, 2)
        snapshot = service.health()
        assert sum(s["provisional"] for s in snapshot["shards"]) == len(
            service.provisional
        )

    def test_no_early_by_default(self, serving_framework, serving_trace):
        service = QoEService(serving_framework, n_shards=2)
        with service:
            service.submit_many(serving_trace)
        assert service.provisional == []
        assert service.early_report() is None
