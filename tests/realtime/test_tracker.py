"""Unit tests for the online session tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.proxy import WebProxy
from repro.realtime.tracker import OnlineSessionTracker


def _entries(session, epoch, seed=0, subscriber="sub-a"):
    proxy = WebProxy(np.random.default_rng(seed))
    return proxy.observe(session, subscriber, start_epoch_s=epoch, encrypted=True)


class TestOnlineSessionTracker:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            OnlineSessionTracker(idle_gap_s=0)
        with pytest.raises(ValueError):
            OnlineSessionTracker(min_media_chunks=0)

    def test_non_youtube_traffic_ignored(self, one_adaptive_session):
        tracker = OnlineSessionTracker()
        entries = _entries(one_adaptive_session, 0.0)
        for entry in entries:
            entry = type(entry)(**{**entry.__dict__, "server_name": "cdn.other.example"})
            assert tracker.observe(entry) == []
        assert tracker.open_sessions == 0

    def test_single_session_closed_on_flush(self, one_adaptive_session):
        tracker = OnlineSessionTracker()
        closed = []
        for entry in _entries(one_adaptive_session, 0.0):
            closed.extend(tracker.observe(entry))
        assert closed == []              # still open: no gap seen yet
        closed = tracker.flush()
        assert len(closed) == 1
        assert closed[0].n_chunks == len(one_adaptive_session.chunks)

    def test_gap_closes_session(self, one_adaptive_session, one_progressive_session):
        tracker = OnlineSessionTracker(idle_gap_s=30.0)
        stream = _entries(one_adaptive_session, 0.0)
        stream += _entries(
            one_progressive_session,
            one_adaptive_session.total_duration_s + 300.0,
            seed=1,
        )
        stream.sort(key=lambda e: e.timestamp_s)
        closed = []
        for entry in stream:
            closed.extend(tracker.observe(entry))
        closed.extend(tracker.flush())
        assert len(closed) == 2

    def test_per_subscriber_isolation(self, one_adaptive_session):
        tracker = OnlineSessionTracker()
        a = _entries(one_adaptive_session, 0.0, subscriber="sub-a")
        b = _entries(one_adaptive_session, 0.0, seed=1, subscriber="sub-b")
        merged = sorted(a + b, key=lambda e: e.timestamp_s)
        for entry in merged:
            tracker.observe(entry)
        assert tracker.open_sessions == 2
        closed = tracker.flush()
        assert len(closed) == 2

    def test_flush_with_now_only_closes_idle(self, one_adaptive_session):
        tracker = OnlineSessionTracker(idle_gap_s=30.0)
        for entry in _entries(one_adaptive_session, 0.0):
            tracker.observe(entry)
        last = one_adaptive_session.total_duration_s
        assert tracker.flush(now_s=last + 5.0) == []       # still fresh
        assert len(tracker.flush(now_s=last + 500.0)) == 1  # now idle

    def test_out_of_order_arrivals_keep_watermark(self):
        """An older request joins the open session without moving its
        idle-gap clock back: the gap still runs from the latest
        request seen."""
        tracker = OnlineSessionTracker(idle_gap_s=30.0, min_media_chunks=1)
        tracker.observe(_media_entry(100.0))
        assert tracker.observe(_media_entry(50.0)) == []   # stale, joins
        # 120 is 70 s after the stale request but only 20 s after the
        # latest one: the session stays open.
        assert tracker.observe(_media_entry(120.0)) == []
        (record,) = tracker.observe(_media_entry(151.0))
        assert record.n_chunks == 3

    def test_short_fragments_discarded(self, one_adaptive_session):
        tracker = OnlineSessionTracker(min_media_chunks=10_000)
        for entry in _entries(one_adaptive_session, 0.0):
            tracker.observe(entry)
        assert tracker.flush() == []


def _media_entry(timestamp_s, transaction_s=1.0, subscriber="sub-a"):
    from repro.capture.weblog import WeblogEntry

    return WeblogEntry(
        subscriber_id=subscriber,
        timestamp_s=timestamp_s,
        server_name="r1---sn-abc.googlevideo.com",
        server_ip="10.0.0.1",
        server_port=443,
        object_bytes=500_000,
        transaction_s=transaction_s,
        rtt_min_ms=20.0,
        rtt_avg_ms=30.0,
        rtt_max_ms=50.0,
        bdp_bytes=60_000.0,
        bif_avg_bytes=30_000.0,
        bif_max_bytes=80_000.0,
        loss_pct=0.1,
        retx_pct=0.2,
        encrypted=True,
    )


class TestIdleGapTimebase:
    """Regression: the idle gap must run on request timestamps.

    The old comparison was ``entry.timestamp_s - last_activity_s`` where
    the watermark mixed in arrival times (timestamp + transaction): one
    long transaction pushed the watermark far past the next request and
    the gap went negative, holding the session open indefinitely.
    """

    def test_long_transaction_does_not_hold_session_open(self):
        tracker = OnlineSessionTracker(idle_gap_s=30.0, min_media_chunks=1)
        # Request at t=0 whose transfer drags on for 500s: under the
        # old mixed timebase the next request at t=60 saw a "gap" of
        # 60 - 500 = -440s and never closed the session.
        tracker.observe(_media_entry(0.0, transaction_s=500.0))
        closed = tracker.observe(_media_entry(60.0))
        assert len(closed) == 1
        assert closed[0].n_chunks == 1

    def test_flush_uses_request_timebase(self):
        tracker = OnlineSessionTracker(idle_gap_s=30.0, min_media_chunks=1)
        tracker.observe(_media_entry(0.0, transaction_s=500.0))
        assert tracker.flush(now_s=20.0) == []       # request was recent
        assert len(tracker.flush(now_s=100.0)) == 1  # idle on request clock

    def test_short_gap_still_keeps_session_open(self):
        tracker = OnlineSessionTracker(idle_gap_s=30.0, min_media_chunks=1)
        tracker.observe(_media_entry(0.0, transaction_s=500.0))
        assert tracker.observe(_media_entry(10.0)) == []
        assert tracker.open_sessions == 1


class TestStreamingState:
    def test_stream_absent_by_default(self, one_adaptive_session):
        tracker = OnlineSessionTracker()
        for entry in _entries(one_adaptive_session, 0.0)[:5]:
            tracker.observe(entry)
        assert tracker.open_stream("sub-a") is None
        assert tracker.open_sessions == 1

    def test_stream_counts_media_only(self, one_adaptive_session):
        tracker = OnlineSessionTracker(streaming=True)
        entries = _entries(one_adaptive_session, 0.0)
        for entry in entries:
            tracker.observe(entry)
        stream = tracker.open_stream("sub-a")
        assert stream is not None
        media = [e for e in entries if e.server_name.endswith(".googlevideo.com")]
        assert 0 < stream.n_chunks == len(media) < len(entries)

    def test_stream_dropped_when_session_closes(self, one_adaptive_session):
        tracker = OnlineSessionTracker(streaming=True)
        for entry in _entries(one_adaptive_session, 0.0):
            tracker.observe(entry)
        tracker.flush()
        assert tracker.open_stream("sub-a") is None

    def test_provisional_id_matches_emitted_id(self, one_adaptive_session):
        tracker = OnlineSessionTracker(streaming=True)
        assert tracker.provisional_session_id("sub-a") == "sub-a/online-1"
        for entry in _entries(one_adaptive_session, 0.0):
            tracker.observe(entry)
        assert tracker.provisional_session_id("sub-a") == "sub-a/online-1"
        (record,) = tracker.flush()
        assert record.session_id == "sub-a/online-1"
        assert tracker.provisional_session_id("sub-a") == "sub-a/online-2"


# ----------------------------------------------------------------------
# One §5.2 core: offline reconstruction == online tracker == the rule
# ----------------------------------------------------------------------

_HOSTS = (
    "r1---sn-abc.googlevideo.com",   # media
    "r7---sn-xyz.googlevideo.com",   # media
    "m.youtube.com",                 # watch page
    "www.youtube.com",               # watch page
    "i.ytimg.com",                   # signalling
    "youtube.com",                   # signalling (bare service name)
    "www.facebook.com",              # foreign
    "cdn.other.example",             # foreign
)


@st.composite
def _traces(draw):
    """Interleaved multi-subscriber traces with long transactions,
    page hosts, foreign hosts and duplicate entries."""
    from repro.capture.proxy import server_ip_for
    from repro.capture.weblog import WeblogEntry

    n = draw(st.integers(0, 60))
    entries = []
    for _ in range(n):
        host = draw(st.sampled_from(_HOSTS))
        entries.append(
            WeblogEntry(
                subscriber_id=draw(st.sampled_from(("s1", "s2", "s3"))),
                # Integer-valued seconds make timestamp ties common.
                timestamp_s=float(draw(st.integers(0, 400))),
                server_name=host,
                server_ip=server_ip_for(host),
                server_port=443,
                object_bytes=draw(
                    st.sampled_from((900, 40_000, 150_000, 150_001, 900_000))
                ),
                transaction_s=draw(st.sampled_from((0.2, 4.0, 45.0, 500.0))),
                rtt_min_ms=20.0,
                rtt_avg_ms=30.0,
                rtt_max_ms=50.0,
                bdp_bytes=60_000.0,
                bif_avg_bytes=30_000.0,
                bif_max_bytes=80_000.0,
                loss_pct=0.1,
                retx_pct=0.2,
                encrypted=True,
            )
        )
    for index in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6)):
        if entries:
            entries.insert(draw(st.integers(0, len(entries))), entries[index])
    return entries


def _reference(entries, use_sni, idle_gap_s, min_media_chunks):
    """The 3-step rule, written out: {subscriber: [media lists]}."""
    if use_sni:
        def service(e):
            return e.server_name.endswith(
                (".youtube.com", ".googlevideo.com", ".ytimg.com")
            ) or e.server_name in ("youtube.com", "googlevideo.com", "ytimg.com")

        def media(e):
            return e.server_name.endswith(".googlevideo.com")

        def page(e):
            return e.server_name in ("m.youtube.com", "www.youtube.com")
    else:
        def service(e):
            return e.server_ip.startswith("173.194.")

        def media(e):
            return e.object_bytes > 150_000

        def page(e):
            return False

    streams = {}
    for e in entries:
        streams.setdefault(e.subscriber_id, [])
    for e in sorted(filter(service, entries), key=lambda e: e.timestamp_s):
        streams[e.subscriber_id].append(e)
    out = {}
    for subscriber, stream in streams.items():
        groups = []
        for i, e in enumerate(stream):
            if (
                not groups
                or e.timestamp_s - stream[i - 1].timestamp_s > idle_gap_s
                or (page(e) and any(media(x) for x in groups[-1]))
            ):
                groups.append([])
            groups[-1].append(e)
        out[subscriber] = [
            [x for x in g if media(x)]
            for g in groups
            if sum(map(media, g)) >= min_media_chunks
        ]
    return out


def _media_key(media):
    from repro.datasets.preparation import media_arrays

    arrays = media_arrays(sorted(media, key=lambda e: e.arrival_s))
    return tuple((name, tuple(values)) for name, values in arrays.items())


def _record_key(record):
    return tuple(
        (name, tuple(getattr(record, name)))
        for name in (
            "timestamps", "sizes", "transactions", "rtt_min", "rtt_avg",
            "rtt_max", "bdp", "bif_avg", "bif_max", "loss_pct", "retx_pct",
        )
    )


class TestOfflineOnlineEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        entries=_traces(),
        use_sni=st.booleans(),
        idle_gap_s=st.sampled_from((5.0, 30.0, 120.0)),
        min_media_chunks=st.integers(1, 3),
    )
    def test_reconstruct_equals_tracker_and_reference(
        self, entries, use_sni, idle_gap_s, min_media_chunks
    ):
        from repro.capture.reconstruction import SessionReconstructor

        offline = SessionReconstructor(
            idle_gap_s, min_media_chunks, use_sni=use_sni
        ).reconstruct(entries)
        reference = _reference(entries, use_sni, idle_gap_s, min_media_chunks)

        # Grouped by subscriber in first-entry order, time order within.
        assert [s.subscriber_id for s in offline] == [
            subscriber
            for subscriber, groups in reference.items()
            for _ in groups
        ]
        by_subscriber = {}
        for session in offline:
            by_subscriber.setdefault(session.subscriber_id, []).append(
                _media_key(session.media)
            )
        expected = {
            subscriber: [_media_key(g) for g in groups]
            for subscriber, groups in reference.items()
            if groups
        }
        assert by_subscriber == expected

        if not use_sni:
            return          # the tracker runs the SNI rule only
        tracker = OnlineSessionTracker(idle_gap_s, min_media_chunks)
        records = []
        for entry in sorted(entries, key=lambda e: e.timestamp_s):
            records.extend(tracker.observe(entry))
        records.extend(tracker.flush())
        online = {}
        for record in records:
            subscriber, sequence = record.session_id.rsplit("/online-", 1)
            online.setdefault(subscriber, []).append(
                (int(sequence), _record_key(record))
            )
        assert {
            subscriber: [key for _, key in sorted(keyed)]
            for subscriber, keyed in online.items()
        } == expected
