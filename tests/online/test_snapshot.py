"""StreamingSessionState: partial vectors are the batch rows of a prefix.

The contract is the load-bearing one for serving: at every chunk count
a partial feature vector must be *bit-identical* to what the batch
pipeline (:func:`repro.core.features.stall_features` /
:func:`~repro.core.features.representation_features`, and the columnar
matrix builders) produces on the same chunk prefix — including the
record-level sort-by-arrival normalisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capture.weblog import WeblogEntry
from repro.core.features import (
    build_representation_matrix,
    build_stall_matrix,
    representation_feature_names,
    representation_features,
    stall_feature_names,
    stall_features,
)
from repro.datasets.preparation import media_record
from repro.datasets.schema import SessionRecord
from repro.online import StreamingSessionState, state_from_record_prefix


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
            assert state.n_chunks == k
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
        partial = state.partial_record()
        assert partial is not None and partial.n_chunks == 6
        assert np.array_equal(partial.timestamps, record.timestamps[:6])
        assert np.array_equal(partial.sizes, record.sizes[:6])
        assert np.array_equal(partial.retx_pct, record.retx_pct[:6])



class TestStreamingRegime:
    """An empty view (no media chunk yet)."""

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
        "k, seed",
        [(1, 64), (5, 64), (64, 64), (94, 64), (12, 4), (12, 0)],
    )
    @pytest.mark.parametrize("which", ["stall", "representation"])
    def test_subset_equals_full_slice(self, k, seed, which):
        """A ``k``-chunk record drawn with ``seed``, random column sets."""
        record = _synthetic_record(k, seed=seed)
        width = len(
            stall_feature_names() if which == "stall"
            else representation_feature_names()
        )
        for columns in _column_draws(width, seed=seed + k):
            projected = state_from_record_prefix(record, k)
            full = state_from_record_prefix(record, k)
            sub = getattr(projected, f"{which}_vector")(columns)
            want = getattr(full, f"{which}_vector")()
            assert np.array_equal(sub, want[columns])
            # A projected snapshot leaves the full vector intact.
            assert np.array_equal(
                getattr(projected, f"{which}_vector")(), want
            )

    def test_zero_chunks(self):
        state = StreamingSessionState()
        assert np.array_equal(state.stall_vector([3, 3, 0]), np.zeros(3))
        assert np.array_equal(
            state.representation_vector([209]), np.zeros(1)
        )
        assert state.stall_vector([]).shape == (0,)


class TestLongPrefixes:
    """Past chunk 64 (where a P² estimator once took over) nothing changes."""

    N_CHUNKS = 150
    STALL_COLUMNS = [60, 59, 45, 7, 19, 17, 66, 44, -1]
    REPRESENTATION_COLUMNS = [121, 129, 136, 130, 131, 163, 122, 152, 123, 83]

    @pytest.mark.parametrize("k", [1, 4, 64, 65, 130, N_CHUNKS])
    def test_vectors_equal_columnar_batch_rows(self, k):
        record = _synthetic_record(self.N_CHUNKS, seed=11)
        state = state_from_record_prefix(record, k)
        prefix = _prefix_record(record, k)
        for build, vector, columns in (
            (build_stall_matrix, state.stall_vector, self.STALL_COLUMNS),
            (
                build_representation_matrix,
                state.representation_vector,
                self.REPRESENTATION_COLUMNS,
            ),
        ):
            full, _ = build([prefix], cache=False)
            assert np.array_equal(vector(), full[0])
            subset, _ = build([prefix], cache=False, columns=columns)
            assert np.array_equal(vector(columns), subset[0])
            assert np.array_equal(subset[0], full[0][columns])

    def test_longest_corpus_record_at_every_length(self, encrypted_corpus):
        record = max(encrypted_corpus.records, key=lambda r: r.n_chunks)
        ks = range(1, record.n_chunks + 1)
        prefixes = [_prefix_record(record, k) for k in ks]
        stall, _ = build_stall_matrix(prefixes, cache=False)
        representation, _ = build_representation_matrix(prefixes, cache=False)
        for k in ks:
            state = state_from_record_prefix(record, k)
            assert np.array_equal(state.stall_vector(), stall[k - 1])
            assert np.array_equal(
                state.representation_vector(), representation[k - 1]
            )


def _entry(i: int, transaction_s: float = 1.5) -> WeblogEntry:
    return WeblogEntry(
        subscriber_id="s1",
        timestamp_s=10.0 * i,
        server_name="r1---sn.googlevideo.com",
        server_ip="10.0.0.1",
        server_port=443,
        object_bytes=500_000 + 10_000 * i,
        transaction_s=transaction_s,
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


class TestEntryFeed:
    def test_entry_view_equals_record_view(self):
        """Entries out of arrival order: the view sorts them like a record."""
        entries = [
            _entry(i, transaction_s=25.0 if i % 3 == 0 else 1.5)
            for i in range(8)
        ]
        record = media_record("s1", entries)
        assert not np.array_equal(
            record.timestamps, [e.arrival_s for e in entries]
        )
        via_entries = StreamingSessionState(entries)
        via_record = state_from_record_prefix(record, len(entries))
        assert via_entries.n_chunks == via_record.n_chunks == 8
        assert np.array_equal(
            via_entries.stall_vector(), via_record.stall_vector()
        )
        assert np.array_equal(
            via_entries.representation_vector(),
            via_record.representation_vector(),
        )

    def test_entry_chunk_time_uses_arrival_not_request(self):
        state = StreamingSessionState([_entry(0)])
        partial = state.partial_record()
        assert partial is not None
        # arrival_s = timestamp_s + transaction_s
        assert partial.timestamps[0] == pytest.approx(1.5)

    def test_view_follows_a_growing_list_and_shares_its_record(self):
        media = []
        state = StreamingSessionState(media)
        assert state.partial_record() is None
        for i in range(70):
            media.append(_entry(i))
            record = state.partial_record()
            assert state.n_chunks == record.n_chunks == i + 1
            # One record per chunk count, shared by both vectors.
            assert state.partial_record() is record
            assert np.array_equal(
                state.stall_vector(),
                StreamingSessionState(list(media)).stall_vector(),
            )


class TestValidation:
    def test_prefix_clamps_to_record_length(self, encrypted_corpus):
        record = encrypted_corpus.records[0]
        state = state_from_record_prefix(record, record.n_chunks + 50)
        assert state.n_chunks == record.n_chunks

    def test_empty_prefix_is_an_empty_view(self, encrypted_corpus):
        state = state_from_record_prefix(encrypted_corpus.records[0], 0)
        assert state.n_chunks == 0 and state.partial_record() is None
