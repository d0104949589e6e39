"""Integration tests for the real-time monitor."""

import numpy as np
import pytest

from repro import QoEFramework
from repro.capture.proxy import WebProxy
from repro.online import EarlyPredictor
from repro.realtime import RealTimeMonitor
from repro.realtime.tracker import OnlineSessionTracker


@pytest.fixture(scope="module")
def framework(stall_records, adaptive_records):
    return QoEFramework(random_state=0, n_estimators=12).fit(
        stall_records, adaptive_records
    )


def _stream(sessions, seed=0, subscriber="sub-x", gap=200.0):
    proxy = WebProxy(np.random.default_rng(seed))
    entries = []
    epoch = 0.0
    for session in sessions:
        entries.extend(
            proxy.observe(session, subscriber, start_epoch_s=epoch, encrypted=True)
        )
        epoch += session.total_duration_s + gap
    entries.sort(key=lambda e: e.timestamp_s)
    return entries


def _force_stall_class(monkeypatch, monitor, label):
    """Make the stall model predict ``label`` for every record, for the
    calling test only (the ``framework`` fixture is module-scoped)."""
    monkeypatch.setattr(
        monitor.framework.stall,
        "predict",
        lambda records: np.array([label] * len(records)),
    )


class TestRealTimeMonitor:
    def test_invalid_parameters(self, framework):
        with pytest.raises(ValueError):
            RealTimeMonitor(framework, severe_alarm_after=0)
        with pytest.raises(ValueError):
            RealTimeMonitor(framework, stall_ratio_alarm=0.0)

    def test_sessions_diagnosed_as_they_close(
        self, framework, one_adaptive_session, one_progressive_session
    ):
        monitor = RealTimeMonitor(framework)
        stream = _stream([one_adaptive_session, one_progressive_session])
        live = monitor.feed_many(stream)
        live += monitor.flush()
        assert len(live) == 2
        assert len(monitor.diagnoses) == 2

    def test_health_counters_update(self, framework, one_adaptive_session):
        monitor = RealTimeMonitor(framework)
        monitor.feed_many(_stream([one_adaptive_session]))
        monitor.flush()
        health = monitor.health["sub-x"]
        assert health.sessions == 1
        assert 0.0 <= health.stall_ratio <= 1.0

    def test_callback_invoked(self, framework, one_adaptive_session):
        seen = []
        monitor = RealTimeMonitor(framework, on_diagnosis=seen.append)
        monitor.feed_many(_stream([one_adaptive_session]))
        monitor.flush()
        assert len(seen) == 1

    def test_severe_alarm_fires_once(
        self, framework, one_adaptive_session, monkeypatch
    ):
        monitor = RealTimeMonitor(framework, severe_alarm_after=1)
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        stream = _stream([one_adaptive_session, one_adaptive_session], seed=1)
        monitor.feed_many(stream)
        monitor.flush()
        assert len(monitor.alarms) == 1
        assert "severe" in monitor.alarms[0].reason

    def test_stall_ratio_alarm(
        self, framework, one_adaptive_session, monkeypatch
    ):
        monitor = RealTimeMonitor(
            framework,
            severe_alarm_after=10_000,
            stall_ratio_alarm=0.5,
            min_sessions_for_ratio=2,
        )
        _force_stall_class(monkeypatch, monitor, "mild stalls")
        stream = _stream([one_adaptive_session] * 3, seed=2)
        monitor.feed_many(stream)
        monitor.flush()
        assert monitor.alarms
        assert "ratio" in monitor.alarms[0].reason


class TestDrain:
    """Graceful-shutdown regression: drain() must flush the tracker and
    run the alarm rules exactly once over the final state."""

    def test_drain_diagnoses_open_sessions(
        self, framework, one_adaptive_session, one_progressive_session
    ):
        monitor = RealTimeMonitor(framework)
        stream = _stream([one_adaptive_session, one_progressive_session])
        live = monitor.feed_many(stream)
        final = monitor.drain()
        # both sessions were still open (no trailing idle gap): drain
        # must surface whatever feed_many did not
        assert len(live) + len(final) == 2
        assert len(monitor.diagnoses) == 2
        assert monitor.tracker.open_sessions == 0

    def test_drain_runs_final_alarm_sweep(
        self, framework, one_adaptive_session, monkeypatch
    ):
        monitor = RealTimeMonitor(framework, severe_alarm_after=1)
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        monitor.feed_many(_stream([one_adaptive_session], seed=6))
        assert monitor.alarms == []  # session still open, nothing diagnosed
        monitor.drain()
        assert len(monitor.alarms) == 1

    def test_drain_is_idempotent(self, framework, one_adaptive_session):
        monitor = RealTimeMonitor(framework)
        monitor.feed_many(_stream([one_adaptive_session], seed=7))
        first = monitor.drain()
        assert len(first) == 1
        assert monitor.drain() == []
        assert len(monitor.diagnoses) == 1

    def test_feed_after_drain_raises(self, framework, one_adaptive_session):
        monitor = RealTimeMonitor(framework)
        stream = _stream([one_adaptive_session], seed=8)
        monitor.feed_many(stream)
        monitor.drain()
        with pytest.raises(RuntimeError, match="drained"):
            monitor.feed(stream[0])

    def test_final_alarm_sweep_returns_only_new_alarms(
        self, framework, one_adaptive_session, monkeypatch
    ):
        monitor = RealTimeMonitor(framework, severe_alarm_after=1)
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        monitor.feed_many(_stream([one_adaptive_session] * 2, seed=9))
        monitor.flush()
        assert len(monitor.alarms) == 1  # raised during the stream
        # sweep finds nothing new: the per-diagnosis check already fired
        assert monitor.final_alarm_sweep() == []
        assert len(monitor.alarms) == 1


class TestEarlyPath:
    def test_session_open_before_the_monitor_gets_provisionals(
        self, framework, one_adaptive_session
    ):
        """A passed-in tracker's already-open session is predicted on,
        and its chunk count includes the chunks seen before."""
        stream = _stream([one_adaptive_session], seed=10)
        media = [
            i for i, e in enumerate(stream)
            if e.server_name.endswith(".googlevideo.com")
        ]
        head = media[1] + 1              # two chunks in, under after_chunks
        tracker = OnlineSessionTracker()
        for entry in stream[:head]:
            tracker.observe(entry)
        assert tracker.open_sessions == 1
        monitor = RealTimeMonitor(
            framework,
            tracker=tracker,
            early=EarlyPredictor(framework, after_chunks=4),
        )
        monitor.feed_many(stream[head:])
        chunks = [p.n_chunks for p in monitor.provisional]
        assert chunks == list(range(4, len(media) + 1))
        assert {p.session_id for p in monitor.provisional} == {
            "sub-x/online-1"
        }
        monitor.flush()
        assert monitor.early.report().sessions == 1


class TestCallbackIsolation:
    """One raising subscriber callback must not kill the monitor loop."""

    def test_raising_diagnosis_callback_is_isolated(
        self, framework, one_adaptive_session, one_progressive_session
    ):
        def explode(diagnosis):
            raise RuntimeError("subscriber callback bug")

        monitor = RealTimeMonitor(framework, on_diagnosis=explode)
        stream = _stream([one_adaptive_session, one_progressive_session])
        live = monitor.feed_many(stream)
        live += monitor.flush()
        # The loop survived and still diagnosed everything.
        assert len(live) == 2
        assert len(monitor.diagnoses) == 2
        assert monitor.callback_errors == 2

    def test_raising_alarm_callback_is_isolated(
        self, framework, one_adaptive_session, monkeypatch
    ):
        def explode(alarm):
            raise RuntimeError("alarm sink down")

        monitor = RealTimeMonitor(
            framework, severe_alarm_after=1, on_alarm=explode
        )
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        monitor.feed_many(_stream([one_adaptive_session], seed=3))
        monitor.flush()
        # The alarm itself was still recorded.
        assert len(monitor.alarms) == 1
        assert monitor.callback_errors == 1

    def test_callback_errors_counted_in_registry(
        self, framework, one_adaptive_session
    ):
        from repro.obs import get_registry

        errors = get_registry().counter(
            "repro_realtime_alarms_callback_errors_total",
            labelnames=("callback",),
        )
        before = errors.labels(callback="diagnosis").value

        def explode(diagnosis):
            raise RuntimeError("boom")

        monitor = RealTimeMonitor(framework, on_diagnosis=explode)
        monitor.feed_many(_stream([one_adaptive_session], seed=4))
        monitor.flush()
        assert errors.labels(callback="diagnosis").value == before + 1

    def test_alarm_callback_invoked_on_alarm(
        self, framework, one_adaptive_session, monkeypatch
    ):
        raised = []
        monitor = RealTimeMonitor(
            framework, severe_alarm_after=1, on_alarm=raised.append
        )
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        monitor.feed_many(_stream([one_adaptive_session], seed=5))
        monitor.flush()
        assert len(raised) == 1
        assert raised[0].subscriber_id == "sub-x"
        assert monitor.callback_errors == 0


class TestFeedValidation:
    """feed() re-validates entries before they can touch tracker state —
    the serial-path counterpart of the serving dead-letter quarantine."""

    def test_malformed_entry_raises_typed_error(self, framework):
        from repro.capture.weblog import MalformedRecordError, WeblogEntry
        from tests.faults.conftest import make_entry

        good = make_entry()
        # build garbage past __init__, the way a replay/deserialisation
        # path would hand it over
        bad = object.__new__(WeblogEntry)
        bad.__dict__.update(good.__dict__)
        bad.__dict__["timestamp_s"] = float("nan")

        monitor = RealTimeMonitor(framework)
        with pytest.raises(MalformedRecordError):
            monitor.feed(bad)
        # nothing leaked into the tracker
        assert monitor.tracker.open_sessions == 0
        assert monitor.diagnoses == []

    def test_malformed_error_is_still_a_value_error(self, framework):
        from repro.capture.weblog import MalformedRecordError

        assert issubclass(MalformedRecordError, ValueError)


class TestSubscriberIdsWithSlash:
    """A subscriber id may contain ``/``: its sessions are still its own.

    The tracker names sessions ``{subscriber}/online-{n}``; splitting
    that id at the first ``/`` folded ``isp-7/alice`` and ``isp-7/bob``
    into one health record and one alarm state.
    """

    SUBSCRIBERS = ("isp-7/alice", "isp-7/bob")

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.serving.replay import synthetic_trace

        entries = synthetic_trace(30, seed=1, subscribers=2)
        names = {"sub-0000": self.SUBSCRIBERS[0], "sub-0001": self.SUBSCRIBERS[1]}
        for entry in entries:
            entry.subscriber_id = names[entry.subscriber_id]
        return entries

    def test_session_id_round_trip(self):
        from repro.datasets.preparation import online_session_id, subscriber_of

        for subscriber in ("sub-x", "isp-7/alice", "a/online-b", "/"):
            assert subscriber_of(online_session_id(subscriber, 12)) == subscriber

    def test_monitor_keeps_one_health_record_each(
        self, framework, trace, monkeypatch
    ):
        monitor = RealTimeMonitor(framework, severe_alarm_after=1)
        _force_stall_class(monkeypatch, monitor, "severe stalls")
        monitor.feed_many(trace)
        monitor.flush()
        assert set(monitor.health) == set(self.SUBSCRIBERS)
        assert sum(h.sessions for h in monitor.health.values()) == len(
            monitor.diagnoses
        )
        # Each subscriber raises its own severe alarm.
        assert sorted(a.subscriber_id for a in monitor.alarms) == sorted(
            self.SUBSCRIBERS
        )

    def test_thread_shard_service_health(self, framework, trace):
        from repro.serving.service import QoEService

        service = QoEService(framework, n_shards=2, shard_backend="thread")
        service.start()
        try:
            service.submit_many(trace)
            diagnoses = service.drain()
        finally:
            service.stop()
        health = service.health_by_subscriber
        assert set(health) == set(self.SUBSCRIBERS)
        assert sum(h.sessions for h in health.values()) == len(diagnoses)
