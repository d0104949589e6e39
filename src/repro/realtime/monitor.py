"""Real-time QoE monitor: live weblogs in, diagnoses and alarms out.

Couples the :class:`~repro.realtime.tracker.OnlineSessionTracker` with a
trained :class:`~repro.core.framework.QoEFramework`: every time a video
session closes, it is diagnosed immediately, per-subscriber health is
updated, and alarm rules fire — the operator-side loop the paper's
conclusion sketches.

The loop is instrumented through :mod:`repro.obs`: open-session and
subscriber-health gauges, a diagnosis-latency histogram, and alarm
counters.  Subscriber callbacks (``on_diagnosis`` / ``on_alarm``) are
error-isolated — one raising callback cannot kill the monitor loop;
failures are logged and counted instead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.capture.weblog import WeblogEntry
from repro.core.framework import QoEFramework, SessionDiagnosis
from repro.datasets.preparation import subscriber_of
from repro.obs import get_logger, get_registry
from repro.online.early import EarlyPredictor, ProvisionalDiagnosis

from .tracker import OnlineSessionTracker

__all__ = ["SubscriberHealth", "Alarm", "RealTimeMonitor"]

_LOG = get_logger("realtime.monitor")

_REG = get_registry()
_DIAGNOSIS_LATENCY = _REG.histogram(
    "repro_realtime_diagnosis_latency_seconds",
    "Time from session close to finished diagnosis (per closed batch).",
    buckets=(
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    ),
)
_DIAGNOSES = _REG.counter(
    "repro_realtime_diagnoses_total",
    "Sessions diagnosed by the real-time monitor.",
)
_ALARMS = _REG.counter(
    "repro_realtime_alarms_total",
    "Operator alarms raised, by alarm rule.",
    labelnames=("rule",),
)
_CALLBACK_ERRORS = _REG.counter(
    "repro_realtime_alarms_callback_errors_total",
    "Subscriber callbacks that raised and were isolated.",
    labelnames=("callback",),
)
_SUBSCRIBERS = _REG.gauge(
    "repro_realtime_subscribers_tracked",
    "Subscribers with accumulated health state.",
)
_HEALTH = _REG.gauge(
    "repro_realtime_health_sessions",
    "SubscriberHealth rollups summed over all subscribers.",
    labelnames=("status",),
)


@dataclass
class SubscriberHealth:
    """Rolling per-subscriber QoE counters."""

    sessions: int = 0
    stalled: int = 0
    severe: int = 0
    low_definition: int = 0
    with_switches: int = 0

    @staticmethod
    def flags(diagnosis: SessionDiagnosis) -> Dict[str, bool]:
        """Which health buckets one diagnosis falls into."""
        return {
            "stalled": diagnosis.stall_class != "no stalls",
            "severe": diagnosis.stall_class == "severe stalls",
            "low_definition": diagnosis.representation_class == "LD",
            "with_switches": bool(diagnosis.has_quality_switches),
        }

    def update(self, diagnosis: SessionDiagnosis) -> None:
        flags = self.flags(diagnosis)
        self.sessions += 1
        self.stalled += flags["stalled"]
        self.severe += flags["severe"]
        self.low_definition += flags["low_definition"]
        self.with_switches += flags["with_switches"]

    @property
    def stall_ratio(self) -> float:
        return self.stalled / self.sessions if self.sessions else 0.0


@dataclass(frozen=True)
class Alarm:
    """An operator alarm raised by the monitor."""

    subscriber_id: str
    reason: str
    sessions_observed: int


class RealTimeMonitor:
    """Online monitoring loop.

    Parameters
    ----------
    framework:
        A fitted :class:`QoEFramework`.
    tracker:
        Session tracker (a default one is created if omitted).
    severe_alarm_after:
        Raise an alarm once a subscriber accumulates this many severe
        sessions.
    stall_ratio_alarm:
        Raise an alarm once a subscriber's stall ratio exceeds this
        (evaluated only after ``min_sessions_for_ratio`` sessions).
    on_diagnosis:
        Optional callback invoked with every fresh diagnosis.
    on_alarm:
        Optional callback invoked with every alarm as it is raised.
    early:
        Optional :class:`~repro.online.early.EarlyPredictor`: the
        monitor emits provisional diagnoses on the tracker's open
        sessions (collected in :attr:`provisional`), sessions already
        open included, and compares them against the final diagnosis
        when each session closes.
    on_provisional:
        Optional callback invoked with every *emitted* provisional
        diagnosis (error-isolated like the other callbacks).

    All callbacks are error-isolated: an exception inside one is
    logged, counted in ``repro_realtime_alarms_callback_errors_total``
    and swallowed, so a broken subscriber cannot take the monitor down.
    """

    def __init__(
        self,
        framework: QoEFramework,
        tracker: Optional[OnlineSessionTracker] = None,
        severe_alarm_after: int = 3,
        stall_ratio_alarm: float = 0.5,
        min_sessions_for_ratio: int = 5,
        on_diagnosis: Optional[Callable[[SessionDiagnosis], None]] = None,
        on_alarm: Optional[Callable[[Alarm], None]] = None,
        early: Optional[EarlyPredictor] = None,
        on_provisional: Optional[
            Callable[[ProvisionalDiagnosis], None]
        ] = None,
    ) -> None:
        if severe_alarm_after < 1:
            raise ValueError("severe_alarm_after must be >= 1")
        if not 0.0 < stall_ratio_alarm <= 1.0:
            raise ValueError("stall_ratio_alarm must be in (0, 1]")
        self.framework = framework
        self.tracker = tracker or OnlineSessionTracker()
        self.severe_alarm_after = severe_alarm_after
        self.stall_ratio_alarm = stall_ratio_alarm
        self.min_sessions_for_ratio = min_sessions_for_ratio
        self.on_diagnosis = on_diagnosis
        self.on_alarm = on_alarm
        self.early = early
        self.on_provisional = on_provisional

        self.health: Dict[str, SubscriberHealth] = defaultdict(SubscriberHealth)
        self.diagnoses: List[SessionDiagnosis] = []
        self.alarms: List[Alarm] = []
        self.provisional: List[ProvisionalDiagnosis] = []
        self.callback_errors = 0
        self._alarmed: set = set()
        self._drained = False

    # ------------------------------------------------------------------

    def _safe_callback(self, callback, argument, kind: str) -> None:
        if callback is None:
            return
        try:
            callback(argument)
        except Exception:
            self.callback_errors += 1
            _CALLBACK_ERRORS.labels(callback=kind).inc()
            _LOG.exception(
                "callback_failed",
                callback=kind,
                subscriber=getattr(argument, "subscriber_id", None)
                or getattr(argument, "session_id", None),
            )

    def _diagnose_closed(self, records) -> List[SessionDiagnosis]:
        if not records:
            return []
        started = time.perf_counter()
        diagnoses = self.framework.diagnose(records)
        for record, diagnosis in zip(records, diagnoses):
            subscriber = subscriber_of(record.session_id)
            health = self.health[subscriber]
            health.update(diagnosis)
            self.diagnoses.append(diagnosis)
            flags = SubscriberHealth.flags(diagnosis)
            _HEALTH.labels(status="all").inc()
            for status, hit in flags.items():
                if hit:
                    _HEALTH.labels(status=status).inc()
            self._safe_callback(self.on_diagnosis, diagnosis, "diagnosis")
            self._check_alarms(subscriber, health)
        if self.early is not None:
            for record, diagnosis in zip(records, diagnoses):
                self.early.note_final(record, diagnosis)
        _DIAGNOSES.inc(len(diagnoses))
        _SUBSCRIBERS.set(len(self.health))
        _DIAGNOSIS_LATENCY.observe(time.perf_counter() - started)
        return diagnoses

    def _raise_alarm(self, alarm: Alarm, rule: str) -> None:
        self.alarms.append(alarm)
        self._alarmed.add(alarm.subscriber_id)
        _ALARMS.labels(rule=rule).inc()
        _LOG.warning(
            "alarm_raised",
            rule=rule,
            subscriber=alarm.subscriber_id,
            reason=alarm.reason,
            sessions=alarm.sessions_observed,
        )
        self._safe_callback(self.on_alarm, alarm, "alarm")

    def _check_alarms(self, subscriber: str, health: SubscriberHealth) -> None:
        if subscriber in self._alarmed:
            return
        if health.severe >= self.severe_alarm_after:
            self._raise_alarm(
                Alarm(
                    subscriber_id=subscriber,
                    reason=f"{health.severe} sessions with severe stalling",
                    sessions_observed=health.sessions,
                ),
                rule="severe",
            )
        elif (
            health.sessions >= self.min_sessions_for_ratio
            and health.stall_ratio >= self.stall_ratio_alarm
        ):
            self._raise_alarm(
                Alarm(
                    subscriber_id=subscriber,
                    reason=f"stall ratio {health.stall_ratio:.0%}",
                    sessions_observed=health.sessions,
                ),
                rule="stall_ratio",
            )

    # ------------------------------------------------------------------

    def diagnose_records(self, records) -> List[SessionDiagnosis]:
        """Diagnose already-closed session records through the monitor.

        Public entry point for the serving layer
        (:mod:`repro.serving`), which closes sessions through its own
        shard-local trackers and micro-batches the records before
        handing them here — health rollups, alarm rules and callbacks
        behave exactly as for :meth:`feed`.
        """
        return self._diagnose_closed(records)

    def final_alarm_sweep(self) -> List[Alarm]:
        """Run the alarm rules once more over every subscriber's health.

        Part of graceful shutdown (:meth:`drain`): alarm rules normally
        fire per diagnosis, so this sweep is a defensive final pass that
        guarantees shutdown never loses an alarm that the accumulated
        health state warrants.  Returns the alarms it raised (normally
        none — per-diagnosis checks already saw the same state).
        """
        before = len(self.alarms)
        for subscriber, health in list(self.health.items()):
            self._check_alarms(subscriber, health)
        return self.alarms[before:]

    def observe_entry(self, entry: WeblogEntry):
        """Track one (already-validated) entry, with the early path.

        Runs the tracker, then — when an early predictor is attached —
        gives it a look at the subscriber's still-open session so it
        can emit a provisional diagnosis.  Returns the closed records,
        like ``tracker.observe``; the serving shard calls this directly
        so both the serial and sharded paths share one early hook.
        """
        closed = self.tracker.observe(entry)
        if self.early is not None:
            stream = self.tracker.open_stream(entry.subscriber_id)
            if stream is not None:
                # Follow model hot-reloads: the serving layer reassigns
                # self.framework per batch.
                self.early.framework = self.framework
                provisional = self.early.observe(
                    stream,
                    self.tracker.provisional_session_id(entry.subscriber_id),
                    entry.subscriber_id,
                )
                if provisional is not None:
                    self.provisional.append(provisional)
                    self._safe_callback(
                        self.on_provisional, provisional, "provisional"
                    )
        return closed

    def feed(self, entry: WeblogEntry) -> List[SessionDiagnosis]:
        """Feed one weblog entry; returns diagnoses of sessions it closed.

        Re-validates the entry
        (:meth:`~repro.capture.weblog.WeblogEntry.validate`) before it
        can touch tracker state, raising
        :class:`~repro.capture.weblog.MalformedRecordError` — the
        serial-path counterpart of the serving layer's dead-letter
        quarantine (a record can arrive through replay/deserialization
        paths that skipped ``__init__``).
        """
        if self._drained:
            raise RuntimeError("monitor is drained; create a new one")
        entry.validate()
        return self._diagnose_closed(self.observe_entry(entry))

    def feed_many(self, entries: Iterable[WeblogEntry]) -> List[SessionDiagnosis]:
        """Feed a batch of entries (must be time-ordered per subscriber)."""
        out: List[SessionDiagnosis] = []
        for entry in entries:
            out.extend(self.feed(entry))
        return out

    def flush(self, now_s: Optional[float] = None) -> List[SessionDiagnosis]:
        """Close idle/open sessions and diagnose them."""
        return self._diagnose_closed(self.tracker.flush(now_s))

    def drain(self) -> List[SessionDiagnosis]:
        """Graceful shutdown: flush everything, then a final alarm sweep.

        Closes and diagnoses every still-open session (idle or not),
        runs the alarm rules one last time over each subscriber's
        accumulated health, and marks the monitor drained — further
        :meth:`feed` calls raise.  Returns the final diagnoses.
        Idempotent: draining twice returns an empty list.
        """
        final = self._diagnose_closed(self.tracker.flush())
        self.final_alarm_sweep()
        self._drained = True
        return final
