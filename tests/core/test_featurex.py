"""Batch feature engine: bit-identity, cache, and fan-out guarantees.

The columnar engine's contract is ``np.array_equal`` equality with the
per-record reference path for *every* input — the property suite here
covers the corpus distributions plus the adversarial shapes (single
chunk, constant series, NaN/inf rows, mixed lengths past the parallel
block floor, 1-300 chunk spreads in one padded batch).  The
order-statistics kernel is checked byte for byte against
``np.percentile``/``min``/``max`` (the length-pooled moments are
checked against ``np.mean``/``np.std`` in the time-series suite).  The
cache tests pin down the memoization semantics: a memory hit returns
the same object, a disk hit the same bytes, and a corrupted cache file
is a rebuild, never a crash.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import (
    REPRESENTATION_METRICS,
    STALL_METRICS,
    _representation_record_series,
    _stall_record_series,
    build_representation_matrix,
    build_stall_matrix,
    get_model_spec,
)
from repro.core.featurex import (
    ENGINES,
    FeatureMatrixCache,
    RaggedBatch,
    batch_key,
    build_matrix,
    column_plan,
    configure_cache,
    get_cache,
    get_default_engine,
    pack_records,
    record_row,
    set_default_engine,
)
from repro.core.featurex.stats import padded_summary, sorted_order_statistics
from repro.datasets.generate import generate_cleartext_corpus
from repro.datasets.schema import SessionRecord
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import set_tracer
from repro.timeseries.stats import (
    SUMMARY_STATS_BASIC,
    SUMMARY_STATS_EXTENDED,
    summary_statistics,
)


# ----------------------------------------------------------------------
# Synthetic records
# ----------------------------------------------------------------------


def _make_record(
    n_chunks: int,
    seed: int = 0,
    session_id: str = "synthetic",
    constant: bool = False,
) -> SessionRecord:
    rng = np.random.default_rng(seed)
    if constant:
        series = lambda lo, hi: np.full(n_chunks, (lo + hi) / 2.0)
    else:
        series = lambda lo, hi: rng.uniform(lo, hi, size=n_chunks)
    timestamps = np.sort(rng.uniform(0.0, 300.0, size=n_chunks))
    if constant:
        timestamps = np.arange(n_chunks, dtype=np.float64)
    return SessionRecord(
        session_id=f"{session_id}-{seed}",
        encrypted=False,
        timestamps=timestamps,
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


def _with_nonfinite(record: SessionRecord) -> SessionRecord:
    """A copy with NaN/inf planted in several per-chunk series."""
    sizes = record.sizes.copy()
    rtt_avg = record.rtt_avg.copy()
    bdp = record.bdp.copy()
    sizes[0] = np.nan
    rtt_avg[-1] = np.inf
    bdp[len(bdp) // 2] = -np.inf
    return SessionRecord(
        session_id=record.session_id + "-dirty",
        encrypted=record.encrypted,
        timestamps=record.timestamps,
        sizes=sizes,
        transactions=record.transactions,
        rtt_min=record.rtt_min,
        rtt_avg=rtt_avg,
        rtt_max=record.rtt_max,
        bdp=bdp,
        bif_avg=record.bif_avg,
        bif_max=record.bif_max,
        loss_pct=record.loss_pct,
        retx_pct=record.retx_pct,
    )


def _mixed_batch() -> list:
    """Sessions of many lengths, including single-chunk and >128."""
    lengths = [1, 1, 2, 3, 3, 3, 7, 16, 16, 40, 97, 130, 130, 200]
    records = [
        _make_record(n, seed=i, session_id="mixed")
        for i, n in enumerate(lengths)
    ]
    records.append(_make_record(5, seed=99, constant=True))
    records.append(_with_nonfinite(_make_record(24, seed=41)))
    records.append(_with_nonfinite(_make_record(1, seed=42)))
    return records


@pytest.fixture()
def isolated_cache(tmp_path):
    """Point the process cache at a fresh directory; restore after."""
    cache = get_cache()
    old_directory = cache.directory
    configure_cache(directory=str(tmp_path))
    cache.clear()
    try:
        yield cache
    finally:
        configure_cache(directory=old_directory)
        cache.clear()


def _build(model):
    return build_stall_matrix if model == "stall" else build_representation_matrix


# ----------------------------------------------------------------------
# Bit-identity property suite
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", ["stall", "representation"])
class TestEngineEquality:
    def test_corpus_records(self, model, stall_records, adaptive_records):
        records = stall_records if model == "stall" else adaptive_records
        columnar, names_c = _build(model)(records, engine="columnar", cache=False)
        reference, names_r = _build(model)(
            records, engine="per-record", cache=False
        )
        assert names_c == names_r
        assert np.array_equal(columnar, reference)

    def test_mixed_lengths_and_dirty_rows(self, model):
        records = _mixed_batch()
        columnar, _ = _build(model)(records, engine="columnar", cache=False)
        reference, _ = _build(model)(records, engine="per-record", cache=False)
        assert np.array_equal(columnar, reference)
        # NaN/inf never leak into the matrix — the per-metric finite
        # filter drops them before any statistic.
        assert np.isfinite(columnar).all()

    def test_single_chunk_sessions(self, model):
        """n=1 sessions make every Δ series empty (the 0.0 rule)."""
        records = [_make_record(1, seed=s) for s in range(5)]
        columnar, _ = _build(model)(records, engine="columnar", cache=False)
        reference, _ = _build(model)(records, engine="per-record", cache=False)
        assert np.array_equal(columnar, reference)

    def test_constant_series(self, model):
        records = [_make_record(6, seed=s, constant=True) for s in range(3)]
        columnar, _ = _build(model)(records, engine="columnar", cache=False)
        reference, _ = _build(model)(records, engine="per-record", cache=False)
        assert np.array_equal(columnar, reference)

    def test_empty_batch(self, model):
        matrix, names = _build(model)([], cache=False)
        assert matrix.shape == (0, len(names))

    def test_parallel_matches_serial(self, model):
        """Row-chunk fan-out past _PARALLEL_MIN_ROWS is value-identical."""
        records = [
            _make_record(3 + (i % 11), seed=i, session_id="par")
            for i in range(300)
        ]
        serial, _ = _build(model)(records, n_jobs=1, cache=False)
        parallel, _ = _build(model)(records, n_jobs=2, cache=False)
        assert np.array_equal(serial, parallel)


class TestPaddedBatches:
    """One padded pass over batches with a wide spread of lengths."""

    @pytest.mark.parametrize("model", ["stall", "representation"])
    def test_one_to_three_hundred_chunks(self, model):
        rng = np.random.default_rng(17)
        lengths = [1, 2, 300, *rng.integers(1, 301, size=37).tolist()]
        records = [
            _make_record(n, seed=i, session_id="spread")
            for i, n in enumerate(lengths)
        ]
        records += [
            _with_nonfinite(_make_record(n, seed=60 + n)) for n in (1, 2, 299)
        ]
        columnar, _ = _build(model)(records, engine="columnar", cache=False)
        reference, _ = _build(model)(records, engine="per-record", cache=False)
        assert columnar.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("model", ["stall", "representation"])
    def test_nan_and_inf_only_rows(self, model):
        """Rows whose every value is non-finite hit the 0.0 rule."""
        nan = _make_record(7, seed=3)
        nan.rtt_min[:] = np.nan
        inf = _make_record(12, seed=4)
        inf.bdp[:] = np.inf
        inf.sizes[::2] = -np.inf
        records = [nan, inf, _make_record(9, seed=5)]
        columnar, _ = _build(model)(records, engine="columnar", cache=False)
        reference, _ = _build(model)(records, engine="per-record", cache=False)
        assert columnar.tobytes() == reference.tobytes()

    def test_four_hundred_session_corpus(self):
        records = generate_cleartext_corpus(400, seed=11).records
        for model in ("stall", "representation"):
            columnar, _ = _build(model)(records, engine="columnar", cache=False)
            reference, _ = _build(model)(
                records, engine="per-record", cache=False
            )
            assert columnar.tobytes() == reference.tobytes(), model

    def test_span_reports_padding(self):
        tracer = Tracer(registry=MetricsRegistry())
        previous = set_tracer(tracer)
        try:
            records = [_make_record(n, seed=n) for n in (3, 10, 5)]
            build_stall_matrix(records, cache=False)
        finally:
            set_tracer(previous)
        (root,) = tracer.roots()
        assert root.name == "core.build_feature_matrix"
        assert root.counters["cells"] == 18
        assert root.counters["padded_cells"] == 30

    def test_span_reports_padding_of_a_fanned_out_build(self):
        # 300 rows on two workers: row chunks [0, 150) and [150, 300),
        # each padded to its own longest session.
        lengths = [3 + (i % 11) for i in range(150)] + [2] * 149 + [40]
        records = [_make_record(n, seed=i) for i, n in enumerate(lengths)]
        tracer = Tracer(registry=MetricsRegistry())
        previous = set_tracer(tracer)
        try:
            build_stall_matrix(records, cache=False, n_jobs=2)
        finally:
            set_tracer(previous)
        root = next(
            span for span in tracer.roots()
            if span.name == "core.build_feature_matrix"
        )
        assert root.counters["cells"] == sum(lengths)
        assert root.counters["padded_cells"] == 150 * 13 + 150 * 40


def _percentile_stats():
    """Every percentile subset of the basic set, and a spread of the
    extended set's 2047 (all singletons, pairs and the full set)."""
    basic = [s for s in SUMMARY_STATS_BASIC if s.startswith("p")]
    extended = [s for s in SUMMARY_STATS_EXTENDED if s.startswith("p")]
    subsets = [
        [p for k, p in enumerate(basic) if mask >> k & 1]
        for mask in range(1, 2 ** len(basic))
    ]
    subsets += [[p] for p in extended]
    subsets += [[a, b] for i, a in enumerate(extended) for b in extended[i + 1:]]
    subsets.append(extended)
    return subsets


def _ragged_rows(rng, n_rows, max_len, kind):
    lengths = rng.integers(1, max_len + 1, size=n_rows)
    block = rng.normal(size=(n_rows, max_len)) * 10.0 ** rng.integers(-3, 7)
    if kind == "ties":
        block = rng.integers(0, 4, size=(n_rows, max_len)).astype(float)
    elif kind == "constant":
        block[:] = block[:, :1]
    elif kind == "integers":
        block = np.round(block)
    return block, lengths


class TestOrderStatisticsKernel:
    @pytest.mark.parametrize("kind", ["normal", "ties", "constant", "integers"])
    def test_byte_equal_to_numpy(self, kind):
        rng = np.random.default_rng(["normal", "ties", "constant",
                                     "integers"].index(kind))
        block, lengths = _ragged_rows(rng, 60, 300, kind)
        lengths[:3] = [1, 2, 300]
        ordered = np.where(
            np.arange(300) < lengths[:, None], block, np.inf
        )
        ordered.sort(axis=1)
        stats = list(SUMMARY_STATS_EXTENDED[:1]) + ["max"] + [
            s for s in SUMMARY_STATS_EXTENDED if s.startswith("p")
        ]
        got = sorted_order_statistics(ordered, lengths, stats)
        for i, n in enumerate(lengths):
            row = block[i, :n]
            want = np.concatenate((
                [np.min(row), np.max(row)],
                np.percentile(row, [float(s[1:]) for s in stats[2:]]),
            ))
            assert got[i].tobytes() == want.tobytes(), (kind, n)

    @pytest.mark.parametrize("subset", _percentile_stats(), ids=str)
    def test_every_percentile_subset(self, subset):
        rng = np.random.default_rng(len(subset))
        block, lengths = _ragged_rows(rng, 12, 40, "ties")
        lengths[:2] = [1, 40]
        ordered = np.where(np.arange(40) < lengths[:, None], block, np.inf)
        ordered.sort(axis=1)
        got = sorted_order_statistics(ordered, lengths, subset)
        for i, n in enumerate(lengths):
            want = np.percentile(block[i, :n], [float(s[1:]) for s in subset])
            assert got[i].tobytes() == want.tobytes()

    def test_every_length_from_one_to_three_hundred(self):
        rng = np.random.default_rng(8)
        lengths = np.arange(1, 301)
        block = rng.exponential(size=(300, 300))
        ordered = np.where(np.arange(300) < lengths[:, None], block, np.inf)
        ordered.sort(axis=1)
        stats = [s for s in SUMMARY_STATS_EXTENDED if s != "mean" and s != "std"]
        got = sorted_order_statistics(ordered, lengths, stats)
        for i, n in enumerate(lengths):
            row = block[i, :n]
            want = [np.min(row), np.max(row), *np.percentile(
                row, [float(s[1:]) for s in stats[2:]]
            )]
            assert got[i].tobytes() == np.array(want).tobytes(), n


class TestPaddedSummary:
    def test_matches_summary_statistics(self):
        rng = np.random.default_rng(21)
        blocks, lengths = [], []
        for width, kind in ((50, "normal"), (49, "ties"), (50, "constant")):
            block, valid = _ragged_rows(rng, 30, width, kind)
            valid[0] = 0                      # an empty series
            block[1, 0] = np.nan              # dirty rows
            block[2, valid[2] - 1] = np.inf
            block[3, :valid[3]] = -np.inf     # nothing finite left
            blocks.append(block)
            lengths.append(valid)
        stats = [SUMMARY_STATS_EXTENDED, ("mean",), ("p25", "min", "std")]
        out = padded_summary(blocks, lengths, stats)
        for block, valid, wanted, got in zip(blocks, lengths, stats, out):
            for i, n in enumerate(valid):
                row_stats = summary_statistics(block[i, :n], stats=wanted)
                want = np.array([row_stats[s] for s in wanted])
                assert got[i].tobytes() == want.tobytes()

    def test_empty_batch(self):
        out = padded_summary(
            [np.empty((0, 0))], [np.empty(0, dtype=np.int64)], [("min",)]
        )
        assert out[0].shape == (0, 1)


class TestRecordSeriesDriftGuard:
    """The shared-base-series builders must track the METRICS dicts."""

    def test_stall_series_match_reference_lambdas(self, stall_records):
        for record in stall_records[:10]:
            fast = _stall_record_series(record)
            assert set(fast) == set(STALL_METRICS)
            for name, fn in STALL_METRICS.items():
                assert np.array_equal(fast[name], fn(record)), name

    def test_representation_series_match_reference_lambdas(
        self, adaptive_records
    ):
        for record in adaptive_records[:10]:
            fast = _representation_record_series(record)
            assert set(fast) == set(REPRESENTATION_METRICS)
            for name, fn in REPRESENTATION_METRICS.items():
                assert np.array_equal(fast[name], fn(record)), name


# ----------------------------------------------------------------------
# Column projection: build_matrix(..., columns=c) == full[:, c]
# ----------------------------------------------------------------------


@st.composite
def _projection_case(draw):
    model = draw(st.sampled_from(["stall", "representation"]))
    width = len(get_model_spec(model).feature_names)
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 14), st.booleans()), max_size=8
        )
    )
    records = [
        _with_nonfinite(_make_record(n, seed=i)) if dirty
        else _make_record(n, seed=i)
        for i, (n, dirty) in enumerate(shapes)
    ]
    # Unsorted, with repeats and negative indices, as numpy allows.
    columns = draw(st.lists(st.integers(-width, width - 1), max_size=24))
    return model, records, columns


class TestColumnProjection:
    @settings(max_examples=60, deadline=None)
    @given(case=_projection_case())
    def test_projection_equals_full_slice(self, case):
        """Both engines, one-chunk sessions, non-finite rows, empty batch."""
        model, records, columns = case
        spec = get_model_spec(model)
        for engine in ENGINES:
            full = build_matrix(records, spec, engine=engine, cache=False)
            sub = build_matrix(
                records, spec, engine=engine, cache=False, columns=columns
            )
            assert sub.shape == (len(records), len(columns))
            assert np.array_equal(sub, full[:, columns])

    @pytest.mark.parametrize("model", ["stall", "representation"])
    def test_corpus_projection_both_engines(
        self, model, stall_records, adaptive_records
    ):
        records = stall_records if model == "stall" else adaptive_records
        spec = get_model_spec(model)
        width = len(spec.feature_names)
        rng = np.random.default_rng(5)
        full = build_matrix(records, spec, cache=False)
        for _ in range(5):
            columns = list(rng.permutation(width)[:15])
            for engine in ENGINES:
                sub, names = _build(model)(
                    records, engine=engine, cache=False, columns=columns
                )
                assert np.array_equal(sub, full[:, columns])
                assert names == [spec.feature_names[c] for c in columns]

    def test_record_row_equals_matrix_row(self):
        records = _mixed_batch()
        for model in ("stall", "representation"):
            spec = get_model_spec(model)
            full = build_matrix(records, spec, cache=False)
            columns = [9, 3, 3, 0, len(spec.feature_names) - 1]
            for i, record in enumerate(records):
                assert np.array_equal(record_row(record, spec), full[i])
                assert np.array_equal(
                    record_row(record, spec, columns), full[i, columns]
                )

    def test_plan_reads_only_selected_metrics_and_stats(self):
        spec = get_model_spec("representation")
        n_stats = len(spec.stats)
        index = spec.metric_names.index("chunk size")
        columns = [index * n_stats + 9, index * n_stats + 0]  # p50, min
        plan = column_plan(spec, columns)
        assert plan.metrics == ("chunk size",)
        assert plan.reads[0].stats == ("min", "p50")   # canonical order
        assert plan.reads[0].column_stats == ("p50", "min")
        assert column_plan(spec).width == len(spec.feature_names)

    def test_out_of_range_column_rejected(self):
        spec = get_model_spec("stall")
        with pytest.raises(IndexError):
            build_matrix([_make_record(3)], spec, cache=False, columns=[70])

    def test_projected_request_slices_warm_cache(self, isolated_cache):
        """A hit slices the cached full matrix, whatever it holds."""
        records = [_make_record(4 + s, seed=s) for s in range(4)]
        spec = get_model_spec("stall")
        key = batch_key(pack_records(records), spec.name)
        sentinel = np.arange(4 * 70, dtype=float).reshape(4, 70)
        isolated_cache.put(key, sentinel)
        columns = [12, 3, 12, 69]
        sub, names = build_stall_matrix(records, columns=columns)
        assert np.array_equal(sub, sentinel[:, columns])
        assert names == [spec.feature_names[c] for c in columns]
        assert not np.shares_memory(sub, sentinel)   # a copy

    def test_projected_miss_is_not_cached(self, isolated_cache):
        records = [_make_record(5, seed=s) for s in range(3)]
        key = batch_key(pack_records(records), "stall")
        sub, _ = build_stall_matrix(records, columns=[1, 2])
        assert isolated_cache.get(key, "stall") is None
        full, _ = build_stall_matrix(records)
        assert np.array_equal(sub, full[:, [1, 2]])
        assert isolated_cache.get(key, "stall") is full


# ----------------------------------------------------------------------
# Ragged packing
# ----------------------------------------------------------------------


class TestPacking:
    def test_pack_roundtrip(self):
        records = _mixed_batch()
        batch = pack_records(records)
        assert isinstance(batch, RaggedBatch)
        assert batch.n_sessions == len(records)
        assert batch.total_chunks == sum(r.timestamps.size for r in records)
        # every session's chunk series is recoverable from the flats
        for field in ("sizes", "rtt_avg", "loss_pct"):
            for pos, rec_idx in enumerate(batch.order):
                start, stop = batch.offsets[pos], batch.offsets[pos + 1]
                assert np.array_equal(
                    batch.flat[field][start:stop],
                    np.asarray(getattr(records[rec_idx], field), dtype=float),
                    equal_nan=True,
                )

    def test_padded_blocks_hold_every_chunk(self):
        records = _mixed_batch()
        batch = pack_records(records)
        assert sorted(batch.order.tolist()) == list(range(batch.n_sessions))
        assert np.all(np.diff(batch.sorted_lengths) >= 0)
        for field in ("timestamps", "sizes", "retx_pct"):
            block = batch.padded[field]
            assert block.shape == (batch.n_sessions, batch.max_chunks)
            for pos, rec_idx in enumerate(batch.order):
                n = records[rec_idx].n_chunks
                assert np.array_equal(
                    block[pos, :n], getattr(records[rec_idx], field),
                    equal_nan=True,
                )
                assert not block[pos, n:].any()

    def test_fields_are_packed_on_first_read(self):
        records = _mixed_batch()
        batch = pack_records(records)
        assert set(batch.flat) == set() and set(batch.padded) == set()
        block = batch.padded["sizes"]
        assert set(batch.flat) == {"sizes"}
        assert set(batch.padded) == {"sizes"}
        assert batch.padded["sizes"] is block
        assert batch.flat["sizes"].size == batch.total_chunks


# ----------------------------------------------------------------------
# Content-addressed cache
# ----------------------------------------------------------------------


class TestBatchKey:
    def test_key_is_content_addressed(self):
        a = [_make_record(8, seed=1), _make_record(12, seed=2)]
        b = [_make_record(8, seed=1), _make_record(12, seed=2)]
        assert batch_key(pack_records(a), "stall") == batch_key(
            pack_records(b), "stall"
        )

    def test_key_differs_by_model(self):
        batch = pack_records([_make_record(8, seed=1)])
        assert batch_key(batch, "stall") != batch_key(batch, "representation")

    def test_mutation_changes_key(self):
        records = [_make_record(8, seed=1)]
        before = batch_key(pack_records(records), "stall")
        records[0].sizes[3] += 1.0
        assert batch_key(pack_records(records), "stall") != before

    def test_permutation_changes_key(self):
        a = [_make_record(8, seed=1), _make_record(12, seed=2)]
        assert batch_key(pack_records(a), "stall") != batch_key(
            pack_records(list(reversed(a))), "stall"
        )


class TestCache:
    def test_memory_hit_returns_same_object(self, isolated_cache):
        records = [_make_record(9, seed=s) for s in range(4)]
        first, _ = build_stall_matrix(records)
        second, _ = build_stall_matrix(records)
        assert second is first

    def test_disk_hit_after_memory_eviction(self, isolated_cache):
        records = [_make_record(9, seed=s) for s in range(4)]
        first, _ = build_stall_matrix(records)
        isolated_cache._entries.clear()   # drop memory, keep disk
        second, _ = build_stall_matrix(records)
        assert second is not first
        assert np.array_equal(second, first)

    def test_corrupted_cache_file_rebuilds(self, isolated_cache, tmp_path):
        records = [_make_record(9, seed=s) for s in range(4)]
        first, _ = build_stall_matrix(records)
        isolated_cache._entries.clear()
        files = list(tmp_path.glob("*.npy"))
        assert len(files) == 1
        files[0].write_bytes(b"not a npy file at all")
        rebuilt, _ = build_stall_matrix(records)
        assert np.array_equal(rebuilt, first)

    def test_cache_off_rebuilds(self, isolated_cache):
        records = [_make_record(9, seed=s) for s in range(4)]
        first, _ = build_stall_matrix(records, cache=False)
        second, _ = build_stall_matrix(records, cache=False)
        assert second is not first
        assert np.array_equal(second, first)

    def test_lru_eviction_is_bounded(self, tmp_path):
        cache = FeatureMatrixCache(capacity=2, directory=None)
        for i in range(5):
            cache.put(f"key-{i}", np.zeros((1, 1)) + i)
        assert len(cache._entries) == 2
        assert cache._memory_get("key-4") is not None
        assert cache._memory_get("key-0") is None

    def test_engine_and_cache_share_values(self, isolated_cache):
        """A matrix cached by one engine serves the other — same bits."""
        records = [_make_record(9, seed=s) for s in range(4)]
        columnar, _ = build_stall_matrix(records, engine="columnar")
        cached, _ = build_stall_matrix(records, engine="per-record")
        assert cached is columnar


class TestWorkspaceCache:
    def test_repeated_workspace_build_hits_cache(self, tmp_path):
        import dataclasses

        from repro.experiments.config import SMALL
        from repro.experiments.workspace import Workspace

        cache = get_cache()
        old_directory = cache.directory
        try:
            config = dataclasses.replace(
                SMALL,
                cleartext_sessions=40,
                adaptive_sessions=20,
                encrypted_sessions=10,
                feature_cache_dir=str(tmp_path),
            )
            workspace = Workspace(config)
            assert cache.directory == str(tmp_path)
            records = workspace.stall_records()
            first, _ = build_stall_matrix(records)
            # a second workspace on the same config re-derives the same
            # records -> same content hash -> zero rebuilds
            second_ws = Workspace(config)
            second, _ = build_stall_matrix(second_ws.stall_records())
            assert second is first
        finally:
            configure_cache(directory=old_directory)
            cache.clear()


# ----------------------------------------------------------------------
# Engine selection + observability
# ----------------------------------------------------------------------


class TestEngineSelection:
    def test_engines_registry(self):
        assert set(ENGINES) == {"columnar", "per-record"}
        assert get_default_engine() in ENGINES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown feature engine"):
            build_stall_matrix([_make_record(4)], engine="turbo", cache=False)

    def test_set_default_engine(self):
        before = get_default_engine()
        try:
            set_default_engine("per-record")
            assert get_default_engine() == "per-record"
            with pytest.raises(ValueError):
                set_default_engine("turbo")
        finally:
            set_default_engine(before)

    def test_model_specs_are_complete(self):
        for model, width in (("stall", 70), ("representation", 210)):
            spec = get_model_spec(model)
            assert len(spec.feature_names) == width
            assert len(spec.feature_names) == len(spec.metric_names) * len(
                spec.stats
            )
        with pytest.raises(KeyError):
            get_model_spec("nope")

    def test_build_metrics_exported(self, isolated_cache):
        from repro.obs import render_prometheus

        records = [_make_record(6, seed=s) for s in range(3)]
        build_stall_matrix(records)      # miss + build
        build_stall_matrix(records)      # memory hit
        text = render_prometheus()
        for family in (
            "repro_features_cache_hits_total",
            "repro_features_cache_misses_total",
            "repro_features_builds_total",
            "repro_features_build_seconds",
            "repro_features_last_rows_per_second",
        ):
            assert family in text
