"""Shared fixtures for the serving-layer tests.

One small fitted framework and one multi-subscriber synthetic trace
are enough for the whole suite; both are module-expensive, so they are
session-scoped.  Tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro import QoEFramework
from repro.serving.replay import synthetic_trace


@pytest.fixture(scope="session")
def serving_framework(stall_records, adaptive_records):
    return QoEFramework(random_state=0, n_estimators=12).fit(
        stall_records, adaptive_records
    )


@pytest.fixture(scope="session")
def serving_trace():
    """~40 sessions folded onto 8 subscribers, time-ordered."""
    return synthetic_trace(40, seed=17, subscribers=8)


def diagnosis_multiset(diagnoses):
    """Order-insensitive canonical form of a diagnosis list."""
    return sorted(
        (
            d.session_id,
            d.stall_class,
            d.representation_class,
            d.has_quality_switches,
        )
        for d in diagnoses
    )


def alarm_multiset(alarms):
    return sorted(
        (a.subscriber_id, a.reason, a.sessions_observed) for a in alarms
    )


def provisional_multiset(provisional):
    """Order-insensitive canonical form, confidences included."""
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
