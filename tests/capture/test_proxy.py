"""Unit tests for proxy capture, weblog schema and encrypted views."""

import dataclasses

import numpy as np
import pytest

from repro.capture.proxy import WebProxy, server_ip_for
from repro.capture.uri import parse_uri, ParsedSegment, ParsedStatsReport
from repro.capture.weblog import WeblogEntry


def _observe(session, encrypted=False, seed=0):
    proxy = WebProxy(np.random.default_rng(seed))
    return proxy.observe(session, "sub-1", start_epoch_s=1000.0, encrypted=encrypted)


class TestWeblogEntry:
    def _entry(self, **kwargs):
        defaults = dict(
            subscriber_id="s",
            timestamp_s=1.0,
            server_name="h",
            server_ip="1.2.3.4",
            server_port=80,
            object_bytes=100,
            transaction_s=0.5,
            rtt_min_ms=1,
            rtt_avg_ms=2,
            rtt_max_ms=3,
            bdp_bytes=4,
            bif_avg_bytes=5,
            bif_max_bytes=6,
            loss_pct=0,
            retx_pct=0,
        )
        defaults.update(kwargs)
        return WeblogEntry(**defaults)

    def test_arrival_is_timestamp_plus_transaction(self):
        entry = self._entry(timestamp_s=10.0, transaction_s=2.5)
        assert entry.arrival_s == 12.5

    def test_chunk_size_alias(self):
        assert self._entry(object_bytes=777).chunk_size == 777

    def test_encrypted_cannot_carry_uri(self):
        with pytest.raises(ValueError):
            self._entry(encrypted=True, uri="https://x")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            self._entry(object_bytes=-1)


class TestProxyObserve:
    def test_one_media_entry_per_chunk(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        media = [e for e in entries if e.server_name.endswith(".googlevideo.com")]
        assert len(media) == len(one_adaptive_session.chunks)

    def test_entries_time_ordered(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        times = [e.timestamp_s for e in entries]
        assert times == sorted(times)

    def test_signalling_burst_present(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        hosts = {e.server_name for e in entries}
        assert "m.youtube.com" in hosts
        assert any(h.endswith("ytimg.com") for h in hosts)

    def test_stats_reports_carry_stall_truth(self, one_progressive_session):
        entries = _observe(one_progressive_session)
        reports = [
            parse_uri(e.uri)
            for e in entries
            if e.uri and "api/stats" in e.uri
        ]
        assert reports
        last = max(reports, key=lambda r: r.playback_position_s)
        assert last.stall_count == one_progressive_session.stall_count
        assert last.stall_duration_s == pytest.approx(
            one_progressive_session.stall_duration_s, abs=0.05
        )

    def test_segment_uris_roundtrip_session_id(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        segments = [
            parse_uri(e.uri)
            for e in entries
            if e.uri and "/videoplayback" in e.uri
        ]
        assert segments
        assert {s.session_id for s in segments} == {
            one_adaptive_session.session_id
        }

    def test_encrypted_entries_have_no_uri(self, one_adaptive_session):
        entries = _observe(one_adaptive_session, encrypted=True)
        assert all(e.uri is None for e in entries)
        assert all(e.encrypted for e in entries)
        assert all(e.server_port == 443 for e in entries)

    def test_transport_stats_copied_from_transfers(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        media = [e for e in entries if e.server_name.endswith(".googlevideo.com")]
        first_chunk = one_adaptive_session.chunks[0]
        first_entry = min(media, key=lambda e: e.timestamp_s)
        assert first_entry.object_bytes == first_chunk.size_bytes
        assert first_entry.rtt_avg_ms == first_chunk.transfer.rtt_avg_ms
        assert first_entry.bdp_bytes == first_chunk.transfer.bdp_bytes

    def test_epoch_offset_applied(self, one_adaptive_session):
        entries = _observe(one_adaptive_session)
        assert min(e.timestamp_s for e in entries) >= 1000.0

    def test_invalid_cache_rate(self):
        with pytest.raises(ValueError):
            WebProxy(np.random.default_rng(0), cache_mark_rate=1.5)


class TestEncryptedView:
    """``observe(encrypted=True)`` against a cleartext ``observe`` of the
    same session at the same proxy seed."""

    def test_same_entries_but_uri_flag_and_port(self, one_adaptive_session):
        cleartext = _observe(one_adaptive_session)
        encrypted = _observe(one_adaptive_session, encrypted=True)
        assert len(encrypted) == len(cleartext)
        # Sizes, timing and the SNI stay visible; only the URI goes.
        for c, e in zip(cleartext, encrypted):
            assert e == dataclasses.replace(
                c, uri=None, encrypted=True, server_port=443
            )

    def test_cleartext_keeps_uris(self, one_adaptive_session):
        cleartext = _observe(one_adaptive_session)
        assert cleartext
        assert all(e.uri for e in cleartext)
        assert not any(e.encrypted for e in cleartext)

    def test_session_untouched_by_encrypted_observe(self, one_adaptive_session):
        """Observing encrypted neither alters the session nor a later
        cleartext observation of it."""
        before = _observe(one_adaptive_session)
        sizes = [c.size_bytes for c in one_adaptive_session.chunks]
        _observe(one_adaptive_session, encrypted=True)
        assert [c.size_bytes for c in one_adaptive_session.chunks] == sizes
        assert _observe(one_adaptive_session) == before

    def test_encrypted_entries_keep_subscriber_and_transport(
        self, one_adaptive_session
    ):
        cleartext = _observe(one_adaptive_session)
        encrypted = _observe(one_adaptive_session, encrypted=True)
        assert {e.subscriber_id for e in encrypted} == {"sub-1"}
        for c, e in zip(cleartext, encrypted):
            assert (e.rtt_avg_ms, e.bdp_bytes, e.transaction_s) == (
                c.rtt_avg_ms, c.bdp_bytes, c.transaction_s
            )

    def test_progressive_session_encrypted_view(self, one_progressive_session):
        cleartext = _observe(one_progressive_session)
        encrypted = _observe(one_progressive_session, encrypted=True)
        assert len(encrypted) == len(cleartext)
        assert all(e.uri is None and e.encrypted for e in encrypted)
        assert [e.object_bytes for e in encrypted] == [
            c.object_bytes for c in cleartext
        ]


class TestServerIp:
    def test_deterministic(self):
        assert server_ip_for("a.example") == server_ip_for("a.example")

    def test_distinct_hosts_distinct_ips(self):
        assert server_ip_for("a.example") != server_ip_for("b.example")
