"""StreamingSessionState: exact-regime bit-identity and streaming shape.

The exact-regime contract is the load-bearing one for serving: while a
session sits at or below the chunk cutover, partial feature vectors
must be *bit-identical* to what the batch pipeline
(:func:`repro.core.features.stall_features` /
:func:`~repro.core.features.representation_features`) would produce on
the same chunk prefix — including the record-level sort-by-arrival
normalisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capture.weblog import WeblogEntry
from repro.core.features import (
    representation_feature_names,
    representation_features,
    stall_feature_names,
    stall_features,
)
from repro.datasets.schema import SessionRecord
from repro.online import StreamingSessionState, state_from_record_prefix
from repro.online.running import EXACT_CUTOVER


def _prefix_record(record: SessionRecord, k: int) -> SessionRecord:
    """First ``k`` chunks of a record, rebuilt the batch way."""
    return SessionRecord(
        session_id=record.session_id,
        encrypted=True,
        timestamps=record.timestamps[:k].astype(float),
        sizes=record.sizes[:k].astype(float),
        transactions=record.transactions[:k].astype(float),
        rtt_min=record.rtt_min[:k].astype(float),
        rtt_avg=record.rtt_avg[:k].astype(float),
        rtt_max=record.rtt_max[:k].astype(float),
        bdp=record.bdp[:k].astype(float),
        bif_avg=record.bif_avg[:k].astype(float),
        bif_max=record.bif_max[:k].astype(float),
        loss_pct=record.loss_pct[:k].astype(float),
        retx_pct=record.retx_pct[:k].astype(float),
    )


def _records_with_chunks(corpus, minimum: int, limit: int = 20):
    records = [r for r in corpus.records if r.n_chunks >= minimum]
    assert records, f"corpus has no record with >= {minimum} chunks"
    return records[:limit]


class TestExactRegime:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_stall_vector_bit_identical_to_batch(self, encrypted_corpus, k):
        names = stall_feature_names()
        for record in _records_with_chunks(encrypted_corpus, k):
            state = state_from_record_prefix(record, k)
            assert state.exact and state.n_chunks == k
            oracle = stall_features(_prefix_record(record, k))
            want = np.array([oracle[n] for n in names], dtype=float)
            assert np.array_equal(state.stall_vector(), want)

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_representation_vector_bit_identical_to_batch(
        self, encrypted_corpus, k
    ):
        names = representation_feature_names()
        for record in _records_with_chunks(encrypted_corpus, k):
            state = state_from_record_prefix(record, k)
            oracle = representation_features(_prefix_record(record, k))
            want = np.array([oracle[n] for n in names], dtype=float)
            assert np.array_equal(state.representation_vector(), want)

    def test_partial_record_round_trips_chunk_fields(self, encrypted_corpus):
        record = _records_with_chunks(encrypted_corpus, 6)[0]
        state = state_from_record_prefix(record, 6)
        partial = state.partial_record(session_id="p")
        assert partial is not None and partial.n_chunks == 6
        assert np.array_equal(partial.timestamps, record.timestamps[:6])
        assert np.array_equal(partial.sizes, record.sizes[:6])
        assert np.array_equal(partial.retx_pct, record.retx_pct[:6])

    def test_buffer_dropped_past_cutover(self, encrypted_corpus):
        record = _records_with_chunks(encrypted_corpus, 5)[0]
        state = state_from_record_prefix(record, 5, exact_cutover=4)
        assert not state.exact
        assert state.partial_record() is None


class TestStreamingRegime:
    def test_vector_shapes_and_finiteness(self, encrypted_corpus):
        record = max(encrypted_corpus.records, key=lambda r: r.n_chunks)
        state = state_from_record_prefix(
            record, record.n_chunks, exact_cutover=0
        )
        stall = state.stall_vector()
        representation = state.representation_vector()
        assert stall.shape == (len(stall_feature_names()),)
        assert representation.shape == (len(representation_feature_names()),)
        assert np.isfinite(stall).all()
        assert np.isfinite(representation).all()

    def test_streamed_close_to_batch_on_long_prefix(self, encrypted_corpus):
        """Streaming estimates track the batch vector on mature sessions.

        Only the percentile positions are approximate (P²); count-free
        stats (min/max/mean) should agree tightly, so compare the whole
        vector with a loose relative tolerance plus an absolute floor
        for near-zero features.
        """
        record = max(encrypted_corpus.records, key=lambda r: r.n_chunks)
        k = record.n_chunks
        state = state_from_record_prefix(record, k, exact_cutover=0)
        oracle = stall_features(_prefix_record(record, k))
        want = np.array(
            [oracle[n] for n in stall_feature_names()], dtype=float
        )
        got = state.stall_vector()
        spread = np.abs(want).max()
        assert np.allclose(got, want, rtol=0.25, atol=0.05 * spread)

    def test_zero_chunks_snapshot_to_zeros(self):
        state = StreamingSessionState()
        assert np.array_equal(
            state.stall_vector(), np.zeros(len(stall_feature_names()))
        )
        assert np.array_equal(
            state.representation_vector(),
            np.zeros(len(representation_feature_names())),
        )
        assert state.partial_record() is None


def _synthetic_record(n_chunks: int, seed: int = 0) -> SessionRecord:
    rng = np.random.default_rng(seed)
    series = lambda lo, hi: rng.uniform(lo, hi, size=n_chunks)
    return SessionRecord(
        session_id=f"long-{seed}",
        encrypted=True,
        timestamps=np.cumsum(series(0.5, 6.0)),
        sizes=series(2e5, 4e6),
        transactions=series(0.05, 4.0),
        rtt_min=series(10.0, 40.0),
        rtt_avg=series(40.0, 90.0),
        rtt_max=series(90.0, 300.0),
        bdp=series(1e4, 1e6),
        bif_avg=series(1e3, 1e5),
        bif_max=series(1e4, 5e5),
        loss_pct=series(0.0, 2.0),
        retx_pct=series(0.0, 3.0),
    )


def _column_draws(width: int, seed: int, n: int = 8):
    """Unsorted subsets with repeats and negative indices."""
    rng = np.random.default_rng(seed)
    return [
        [int(c) for c in rng.integers(-width, width, size=rng.integers(0, 16))]
        for _ in range(n)
    ]


class TestColumnSubsets:
    """``*_vector(columns)`` equals the full vector's slice, bit for bit."""

    @pytest.mark.parametrize(
        "k, cutover",
        [
            (1, EXACT_CUTOVER),
            (5, EXACT_CUTOVER),
            (EXACT_CUTOVER, EXACT_CUTOVER),        # last exact snapshot
            (EXACT_CUTOVER + 30, EXACT_CUTOVER),   # streamed
            (12, 4),
            (12, 0),
        ],
    )
    @pytest.mark.parametrize("which", ["stall", "representation"])
    def test_subset_equals_full_slice(self, k, cutover, which):
        record = _synthetic_record(k, seed=k)
        width = len(
            stall_feature_names() if which == "stall"
            else representation_feature_names()
        )
        for columns in _column_draws(width, seed=k):
            projected = state_from_record_prefix(record, k, cutover)
            full = state_from_record_prefix(record, k, cutover)
            assert projected.exact == (0 < k <= cutover)
            sub = getattr(projected, f"{which}_vector")(columns)
            want = getattr(full, f"{which}_vector")()
            assert np.array_equal(sub, want[columns])
            # A projected snapshot still folds every series.
            assert np.array_equal(
                getattr(projected, f"{which}_vector")(), want
            )

    def test_incremental_feed_across_cutover(self):
        """Same snapshot schedule, one side projected, across the cutover."""
        record = _synthetic_record(EXACT_CUTOVER + 20, seed=3)
        stall_cols = [60, 59, 45, 7, 19, 17, 66, 44]
        rep_cols = [121, 129, 136, 130, 131, 163, 122, 152, 123, 156, 83]
        projected = StreamingSessionState()
        full = StreamingSessionState()
        for i in range(record.n_chunks):
            for state in (projected, full):
                state.add_chunk(
                    *(float(getattr(record, f)[i]) for f in (
                        "timestamps", "sizes", "transactions", "rtt_min",
                        "rtt_avg", "rtt_max", "bdp", "bif_avg", "bif_max",
                        "loss_pct", "retx_pct",
                    ))
                )
            if i % 3:
                continue
            assert np.array_equal(
                projected.stall_vector(stall_cols),
                full.stall_vector()[stall_cols],
            )
            assert np.array_equal(
                projected.representation_vector(rep_cols),
                full.representation_vector()[rep_cols],
            )
        assert not projected.exact

    def test_zero_chunks(self):
        state = StreamingSessionState()
        assert np.array_equal(state.stall_vector([3, 3, 0]), np.zeros(3))
        assert np.array_equal(
            state.representation_vector([209]), np.zeros(1)
        )
        assert state.stall_vector([]).shape == (0,)


class TestEntryFeed:
    def _entry(self, i: int) -> WeblogEntry:
        return WeblogEntry(
            subscriber_id="s1",
            timestamp_s=10.0 * i,
            server_name="r1---sn.googlevideo.com",
            server_ip="10.0.0.1",
            server_port=443,
            object_bytes=500_000 + 10_000 * i,
            transaction_s=1.5,
            rtt_min_ms=20.0,
            rtt_avg_ms=30.0 + i,
            rtt_max_ms=55.0,
            bdp_bytes=60_000.0,
            bif_avg_bytes=30_000.0,
            bif_max_bytes=80_000.0,
            loss_pct=0.1,
            retx_pct=0.2,
            encrypted=True,
        )

    def test_add_entry_equivalent_to_add_chunk(self):
        via_entry = StreamingSessionState()
        via_chunk = StreamingSessionState()
        for i in range(6):
            entry = self._entry(i)
            via_entry.add_entry(entry)
            via_chunk.add_chunk(
                arrival_s=entry.arrival_s,
                size_bytes=float(entry.object_bytes),
                transaction_s=entry.transaction_s,
                rtt_min_ms=entry.rtt_min_ms,
                rtt_avg_ms=entry.rtt_avg_ms,
                rtt_max_ms=entry.rtt_max_ms,
                bdp_bytes=entry.bdp_bytes,
                bif_avg_bytes=entry.bif_avg_bytes,
                bif_max_bytes=entry.bif_max_bytes,
                loss_pct=entry.loss_pct,
                retx_pct=entry.retx_pct,
            )
        assert np.array_equal(
            via_entry.stall_vector(), via_chunk.stall_vector()
        )
        assert np.array_equal(
            via_entry.representation_vector(),
            via_chunk.representation_vector(),
        )

    def test_entry_chunk_time_uses_arrival_not_request(self):
        state = StreamingSessionState()
        state.add_entry(self._entry(0))
        partial = state.partial_record()
        assert partial is not None
        # arrival_s = timestamp_s + transaction_s
        assert partial.timestamps[0] == pytest.approx(1.5)


class TestValidation:
    def test_negative_cutover_rejected(self):
        with pytest.raises(ValueError):
            StreamingSessionState(exact_cutover=-1)

    def test_prefix_clamps_to_record_length(self, encrypted_corpus):
        record = encrypted_corpus.records[0]
        state = state_from_record_prefix(record, record.n_chunks + 50)
        assert state.n_chunks == record.n_chunks
