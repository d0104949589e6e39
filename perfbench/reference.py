"""Untimed references the benchmark checks the program's outputs against.

Each is built once per benchmark invocation through public entry
points only, on the same inputs the measured run gets.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

from repro import RealTimeMonitor
from repro.online import EarlyPredictor
from repro.realtime.tracker import OnlineSessionTracker

__all__ = [
    "HEADLINE_BANDS",
    "ServingReference",
    "diagnosis_key",
    "provisional_key",
    "serving_reference",
    "early_reference",
    "count_mismatches",
    "count_multiset_mismatches",
]

#: Sanity bands for the five headline accuracies of the offline
#: workload, wide around EXPERIMENTS.md's measured values (92.3%,
#: 87.1%, 75-82%, 93.2%, 74%/59% balanced) because the benchmark's
#: corpora are smaller and its seeds vary.  Encrypted stall accuracy
#: (tab8_9) is the documented weak spot: on 150 encrypted sessions it
#: read 0.447 to 0.86, so its band only asks for better than chance
#: over three classes.
HEADLINE_BANDS: Dict[str, Tuple[float, float]] = {
    "tab3_4": (0.75, 1.0),
    "tab6_7": (0.65, 1.0),
    "tab8_9": (0.35, 1.0),
    "tab10_11": (0.6, 1.0),
    "sec56": (0.5, 1.0),
}


def diagnosis_key(d) -> Tuple:
    return (d.stall_class, d.representation_class, d.has_quality_switches)


def provisional_key(p) -> Tuple:
    return (
        p.session_id,
        p.n_chunks,
        p.stall_class,
        p.stall_confidence,
        p.representation_class,
        p.representation_confidence,
    )


class ServingReference:
    """Expected diagnoses, and the entry index that closed each session.

    ``diagnoses`` maps session id to :func:`diagnosis_key`;
    ``closing`` maps the id of every session closed by a later entry
    (not by the drain flush) to that entry's index.  With early
    prediction on, ``provisional`` is the expected multiset of
    :func:`provisional_key` and ``trigger`` maps ``(session_id,
    n_chunks)`` to the indices of the entries that triggered them.
    """

    def __init__(self) -> None:
        self.diagnoses: Dict[str, Tuple] = {}
        self.closing: Dict[str, int] = {}
        self.provisional: Counter = Counter()
        self.trigger: Dict[Tuple[str, int], List[int]] = defaultdict(list)


def serving_reference(framework, entries: Sequence) -> ServingReference:
    """One serial tracker pass, then one batched ``QoEFramework.diagnose``."""
    ref = ServingReference()
    tracker = OnlineSessionTracker()
    records = []
    for index, entry in enumerate(entries):
        for record in tracker.observe(entry):
            ref.closing[record.session_id] = index
            records.append(record)
    records.extend(tracker.flush())
    for diagnosis in framework.diagnose(records):
        ref.diagnoses[diagnosis.session_id] = diagnosis_key(diagnosis)
    return ref


def early_reference(
    framework, entries: Sequence, after_chunks: int, min_confidence: float
) -> ServingReference:
    """A serial ``RealTimeMonitor`` with an ``EarlyPredictor``, fed entry by entry."""
    ref = ServingReference()
    monitor = RealTimeMonitor(
        framework,
        early=EarlyPredictor(
            framework, after_chunks=after_chunks, min_confidence=min_confidence
        ),
    )
    for index, entry in enumerate(entries):
        seen = len(monitor.provisional)
        for diagnosis in monitor.feed(entry):
            ref.closing[diagnosis.session_id] = index
        for provisional in monitor.provisional[seen:]:
            ref.trigger[(provisional.session_id, provisional.n_chunks)].append(index)
    monitor.drain()
    for diagnosis in monitor.diagnoses:
        ref.diagnoses[diagnosis.session_id] = diagnosis_key(diagnosis)
    ref.provisional = Counter(provisional_key(p) for p in monitor.provisional)
    return ref


def count_mismatches(expected: Dict[str, Tuple], got: List) -> int:
    """Missing, extra and mismatched diagnoses, one failure each."""
    seen: Dict[str, Tuple] = {}
    failures = 0
    for diagnosis in got:
        if diagnosis.session_id in seen:
            failures += 1  # a duplicate is an extra diagnosis
            continue
        seen[diagnosis.session_id] = diagnosis_key(diagnosis)
    for session_id, key in expected.items():
        if seen.get(session_id) != key:
            failures += 1  # missing or mismatched
    failures += sum(1 for session_id in seen if session_id not in expected)
    return failures


def count_multiset_mismatches(expected: Counter, got: Counter) -> int:
    return sum((expected - got).values()) + sum((got - expected).values())
