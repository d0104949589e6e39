"""SwitchDetector.scores: one padded pass, equal to score() per record."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.switching import SwitchDetector
from repro.datasets.schema import SessionRecord
from repro.obs import MetricsRegistry, Tracer, get_registry
from repro.obs.tracing import set_tracer


def _record(times, sizes, session_id="s"):
    times = np.asarray(times, dtype=float)
    n = times.size
    return SessionRecord(
        session_id=session_id,
        encrypted=True,
        timestamps=times,
        sizes=np.asarray(sizes, dtype=float),
        transactions=np.full(n, 0.5),
        rtt_min=np.full(n, 40.0),
        rtt_avg=np.full(n, 50.0),
        rtt_max=np.full(n, 60.0),
        bdp=np.full(n, 1e4),
        bif_avg=np.full(n, 1e3),
        bif_max=np.full(n, 2e3),
        loss_pct=np.zeros(n),
        retx_pct=np.zeros(n),
    )


def _edge_records():
    rng = np.random.default_rng(4)
    records = [
        _record([0.0], [1e5]),
        _record([0.0, 3.0, 9.9], [1e5, 2e5, 3e5]),           # all in startup
        _record([0.0, 10.0, 12.0], [1e5, 4e5, 2e5]),         # two kept
        _record([0.0, 9.0, 10.0, 10.0, 10.0, 14.0],          # repeated times
                [1e5, 2e5, 3e5, 9e5, 1e5, 5e5]),
        _record(np.arange(0.0, 600.0, 2.0), rng.uniform(1e5, 4e6, 300)),
    ]
    for n in rng.integers(1, 120, size=12):
        times = np.cumsum(rng.uniform(0.5, 9.0, n))
        records.append(_record(times, rng.uniform(1e5, 4e6, n)))
    return records


def _assert_byte_equal(detector, records):
    scores = detector.scores(records)
    reference = np.array([detector.score(r) for r in records], dtype=np.float64)
    assert scores.dtype == np.float64
    assert scores.tobytes() == reference.tobytes()


class TestBatchScores:
    def test_edge_shapes(self):
        _assert_byte_equal(SwitchDetector(), _edge_records())

    @pytest.mark.parametrize("skip", [0.0, 5.0, 30.0])
    def test_other_startup_skips_and_units(self, skip):
        detector = SwitchDetector(startup_skip_s=skip, size_unit_bytes=1.0)
        _assert_byte_equal(detector, _edge_records())

    def test_corpus_records(self, adaptive_records, encrypted_corpus):
        detector = SwitchDetector()
        _assert_byte_equal(detector, adaptive_records)
        _assert_byte_equal(detector, encrypted_corpus.records)

    def test_rows_mutated_after_construction(self):
        """Records are sorted at construction; later edits are not."""
        unsorted = _record([0.0, 12.0, 20.0, 31.0], [1e5, 2e5, 3e5, 4e5])
        unsorted.timestamps[2] = 40.0
        nan_time = _record([0.0, 12.0, 20.0, 31.0], [1e5, 2e5, 3e5, 4e5])
        nan_time.timestamps[1] = np.nan
        nan_size = _record([0.0, 12.0, 20.0, 31.0], [1e5, 2e5, 3e5, 4e5])
        nan_size.sizes[2] = np.nan
        records = [unsorted, nan_time, nan_size, *_edge_records()[:4]]
        with np.errstate(invalid="ignore"):
            _assert_byte_equal(SwitchDetector(), records)

    def test_empty_batch_is_float64(self):
        scores = SwitchDetector().scores([])
        assert scores.dtype == np.float64
        assert scores.shape == (0,)

    def test_input_order_is_kept(self):
        records = _edge_records()
        detector = SwitchDetector()
        forward = detector.scores(records)
        backward = detector.scores(records[::-1])
        assert forward.tobytes() == backward[::-1].tobytes()


class TestScoreTelemetry:
    def test_scores_count_rows_and_empty_series(self):
        registry = get_registry()
        scored = registry.get("repro_timeseries_switch_scores_total")
        empties = registry.get("repro_timeseries_empty_series_total")
        before = scored.value, empties.value
        records = _edge_records()
        SwitchDetector().scores(records)
        # Records 0-1 keep fewer than two chunks past the startup skip.
        assert scored.value - before[0] == len(records)
        assert empties.value - before[1] == 2

    def test_scores_span_carries_rows_and_empty(self):
        tracer = Tracer(registry=MetricsRegistry())
        previous = set_tracer(tracer)
        try:
            records = _edge_records()
            SwitchDetector().predict(records)
        finally:
            set_tracer(previous)
        (root,) = tracer.roots()
        assert root.name == "core.switching.scores"
        assert root.counters == {"rows": len(records), "empty": 2}
