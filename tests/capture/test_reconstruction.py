"""Unit tests for encrypted session reconstruction (§5.2 heuristic)."""

import numpy as np
import pytest

from repro.capture.proxy import WebProxy, server_ip_for
from repro.capture.reconstruction import (
    ReconstructedSession,
    SessionReconstructor,
    is_youtube_host,
)
from repro.capture.weblog import WeblogEntry


def _noise(timestamp, host="www.facebook.com"):
    return WeblogEntry(
        subscriber_id="s",
        timestamp_s=timestamp,
        server_name=host,
        server_ip=server_ip_for(host),
        server_port=443,
        object_bytes=1000,
        transaction_s=0.1,
        rtt_min_ms=1, rtt_avg_ms=2, rtt_max_ms=3,
        bdp_bytes=0, bif_avg_bytes=0, bif_max_bytes=0,
        loss_pct=0, retx_pct=0,
        encrypted=True,
    )


def _media(timestamp, transaction_s=1.0, subscriber="s"):
    host = "r1---sn-abc.googlevideo.com"
    return WeblogEntry(
        subscriber_id=subscriber,
        timestamp_s=timestamp,
        server_name=host,
        server_ip=server_ip_for(host),
        server_port=443,
        object_bytes=500_000,
        transaction_s=transaction_s,
        rtt_min_ms=1, rtt_avg_ms=2, rtt_max_ms=3,
        bdp_bytes=0, bif_avg_bytes=0, bif_max_bytes=0,
        loss_pct=0, retx_pct=0,
        encrypted=True,
    )


class TestIsYoutubeHost:
    def test_media_hosts(self):
        assert is_youtube_host("r3---sn-x.googlevideo.com")

    def test_signalling_hosts(self):
        assert is_youtube_host("m.youtube.com")
        assert is_youtube_host("i.ytimg.com")

    def test_foreign_hosts(self):
        assert not is_youtube_host("www.facebook.com")
        assert not is_youtube_host("youtube.com.evil.example")


class TestReconstruction:
    def _entries_for(self, sessions, gaps, seed=0, encrypted=True):
        """Observe sessions sequentially with the given idle gaps."""
        proxy = WebProxy(np.random.default_rng(seed))
        entries = []
        epoch = 0.0
        for session, gap in zip(sessions, gaps):
            entries.extend(
                proxy.observe(session, "s", start_epoch_s=epoch, encrypted=encrypted)
            )
            epoch += session.total_duration_s + gap
        entries.sort(key=lambda e: e.timestamp_s)
        return entries

    def test_two_sessions_with_gap_split(
        self, one_adaptive_session, one_progressive_session
    ):
        entries = self._entries_for(
            [one_adaptive_session, one_progressive_session], [300.0, 300.0]
        )
        sessions = SessionReconstructor().reconstruct(entries)
        assert len(sessions) == 2

    def test_noise_filtered_out(self, one_adaptive_session):
        entries = self._entries_for([one_adaptive_session], [100.0])
        entries += [_noise(t) for t in np.linspace(0, 400, 15)]
        entries.sort(key=lambda e: e.timestamp_s)
        sessions = SessionReconstructor().reconstruct(entries)
        assert len(sessions) == 1
        for session in sessions:
            for entry in session.media + session.signalling:
                assert is_youtube_host(entry.server_name)

    def test_chunk_count_preserved(self, one_adaptive_session):
        entries = self._entries_for([one_adaptive_session], [100.0])
        sessions = SessionReconstructor().reconstruct(entries)
        assert sessions[0].chunk_count == len(one_adaptive_session.chunks)

    def test_back_to_back_sessions_split_by_page_request(
        self, one_adaptive_session, one_progressive_session
    ):
        # nearly zero gap: the watch-page signalling is the only boundary
        entries = self._entries_for(
            [one_adaptive_session, one_progressive_session], [2.0, 2.0]
        )
        sessions = SessionReconstructor(idle_gap_s=1e9).reconstruct(entries)
        assert len(sessions) == 2

    def test_min_media_chunks_filter(self):
        reconstructor = SessionReconstructor(min_media_chunks=3)
        entries = [_noise(1.0, host="m.youtube.com")]
        assert reconstructor.reconstruct(entries) == []

    def test_session_time_bounds(self, one_adaptive_session):
        entries = self._entries_for([one_adaptive_session], [100.0])
        session = SessionReconstructor().reconstruct(entries)[0]
        assert session.start_s <= session.end_s

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SessionReconstructor(idle_gap_s=0.0)
        with pytest.raises(ValueError):
            SessionReconstructor(min_media_chunks=0)

    def test_empty_input(self):
        assert SessionReconstructor().reconstruct([]) == []

    def test_long_transaction_does_not_hold_session_open(self):
        """The idle gap runs on request timestamps: a 500 s transfer
        started at t=0 does not bridge the 60 s silence before the next
        request (on the old arrival clock the gap read 60 - 500 < 0)."""
        first = _media(0.0, transaction_s=500.0)
        second = _media(60.0)
        sessions = SessionReconstructor(min_media_chunks=1).reconstruct(
            [first, second]
        )
        assert len(sessions) == 2
        assert [s.media for s in sessions] == [[first], [second]]

    def test_sessions_grouped_per_subscriber(self):
        """Subscribers never share a session; output is grouped by
        subscriber in first-entry order, time order within."""
        entries = [
            _media(0.0, subscriber="b"),
            _media(1.0, subscriber="a"),
            _media(2.0, subscriber="b"),
            _media(100.0, subscriber="b"),
            _media(3.0, subscriber="a"),
        ]
        sessions = SessionReconstructor(min_media_chunks=1).reconstruct(
            entries
        )
        assert [(s.subscriber_id, s.chunk_count) for s in sessions] == [
            ("b", 2),
            ("b", 1),
            ("a", 2),
        ]


class TestIncrementalGrouping:
    def test_observe_returns_session_it_closes(self):
        reconstructor = SessionReconstructor(min_media_chunks=1)
        assert reconstructor.observe(_media(0.0)) == []
        assert reconstructor.observe(_noise(50.0)) == []   # foreign: ignored
        (closed,) = reconstructor.observe(_media(60.0))
        assert closed.chunk_count == 1 and closed.subscriber_id == "s"
        assert reconstructor.open_sessions == 1

    def test_flush_closes_idle_then_all(self):
        reconstructor = SessionReconstructor(min_media_chunks=1)
        reconstructor.observe(_media(0.0, subscriber="a"))
        reconstructor.observe(_media(50.0, subscriber="b"))
        assert [s.subscriber_id for s in reconstructor.flush(now_s=60.0)] == ["a"]
        assert [s.subscriber_id for s in reconstructor.flush()] == ["b"]
        assert reconstructor.open_sessions == 0

    def test_discards_counted(self):
        reconstructor = SessionReconstructor(min_media_chunks=2)
        reconstructor.observe(_media(0.0))
        assert reconstructor.flush() == []
        assert reconstructor.discarded == 1


class TestEchModeReconstruction:
    """SNI-less (TLS ECH) reconstruction: service filter by IP prefix,
    media/signalling split by transaction size."""

    def _stream(self, sessions, seed=0, gap=250.0):
        proxy = WebProxy(np.random.default_rng(seed))
        entries = []
        epoch = 0.0
        for session in sessions:
            entries.extend(
                proxy.observe(session, "s", start_epoch_s=epoch, encrypted=True)
            )
            epoch += session.total_duration_s + gap
        entries.sort(key=lambda e: e.timestamp_s)
        return entries

    def test_sessions_recovered_without_sni(
        self, one_adaptive_session, one_progressive_session
    ):
        entries = self._stream([one_adaptive_session, one_progressive_session])
        sessions = SessionReconstructor(use_sni=False).reconstruct(entries)
        assert len(sessions) == 2

    def test_ip_filter_excludes_foreign_traffic(self, one_adaptive_session):
        entries = self._stream([one_adaptive_session])
        entries.append(_noise(5.0))                 # facebook IP space
        sessions = SessionReconstructor(use_sni=False).reconstruct(entries)
        total_entries = sum(
            len(s.media) + len(s.signalling) for s in sessions
        )
        youtube_entries = sum(
            1 for e in entries if e.server_ip.startswith("173.194.")
        )
        assert total_entries <= youtube_entries

    def test_ech_media_counts_close_to_sni(self, one_adaptive_session):
        entries = self._stream([one_adaptive_session])
        sni = SessionReconstructor(use_sni=True).reconstruct(entries)
        ech = SessionReconstructor(use_sni=False).reconstruct(entries)
        assert len(sni) == len(ech) == 1
        # the size heuristic may miscount a few small chunks, not more
        assert abs(sni[0].chunk_count - ech[0].chunk_count) <= max(
            3, 0.2 * sni[0].chunk_count
        )

    def test_is_youtube_ip(self):
        from repro.capture.reconstruction import is_youtube_ip

        assert is_youtube_ip("173.194.12.34")
        assert not is_youtube_ip("31.13.92.36")
