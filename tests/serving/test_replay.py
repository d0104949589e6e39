"""Trace replay: synthetic traces, pacing, and run accounting."""

from __future__ import annotations

import dataclasses
import gc
import time
import tracemalloc

import pytest

from repro.datasets import generate
from repro.datasets.generate import CorpusConfig, generate_corpus
from repro.obs import get_registry
from repro.serving.replay import ReplayStats, TraceReplayer, synthetic_trace
from repro.serving.service import QoEService


def _reference_trace(n_sessions, seed, subscribers):
    """``synthetic_trace`` as first defined: the weblogs of a whole
    encrypted corpus, folded onto ``subscribers`` ids by copies."""
    entries = generate_corpus(
        CorpusConfig(
            n_sessions=n_sessions,
            seed=seed,
            adaptive_fraction=0.25,
            encrypted=True,
        )
    ).weblogs
    if subscribers is None:
        return entries
    mapping = {}
    folded = []
    for entry in entries:
        target = mapping.setdefault(
            entry.subscriber_id, f"sub-{len(mapping) % subscribers:04d}"
        )
        folded.append(dataclasses.replace(entry, subscriber_id=target))
    return folded


def _sessions_total():
    for family in get_registry().collect():
        if family.name == "repro_datasets_sessions_total":
            return sum(child.value for _labels, child in family.samples())
    return 0.0


class TestSyntheticTrace:
    def test_time_ordered(self, serving_trace):
        timestamps = [entry.timestamp_s for entry in serving_trace]
        assert timestamps == sorted(timestamps)

    def test_deterministic_for_seed(self):
        first = synthetic_trace(10, seed=3, subscribers=4)
        second = synthetic_trace(10, seed=3, subscribers=4)
        assert first == second
        different = synthetic_trace(10, seed=4, subscribers=4)
        assert first != different

    def test_folds_onto_subscriber_population(self, serving_trace):
        subscribers = {entry.subscriber_id for entry in serving_trace}
        assert len(subscribers) == 8
        assert all(s.startswith("sub-") for s in subscribers)

    def test_fold_preserves_per_subscriber_order(self, serving_trace):
        last_seen = {}
        for entry in serving_trace:
            previous = last_seen.get(entry.subscriber_id)
            assert previous is None or entry.timestamp_s >= previous
            last_seen[entry.subscriber_id] = entry.timestamp_s

    def test_unfolded_trace_keeps_original_subscribers(self):
        trace = synthetic_trace(6, seed=1)
        assert len({entry.subscriber_id for entry in trace}) == 6

    def test_invalid_subscriber_count(self):
        with pytest.raises(ValueError):
            synthetic_trace(4, subscribers=0)


class TestBlockwiseSynthesis:
    @pytest.mark.parametrize("subscribers", [None, 3])
    @pytest.mark.parametrize(
        "block, n_sessions", [(1, 12), (7, 30), (None, 130)]
    )
    def test_equals_the_whole_corpus_definition(
        self, monkeypatch, block, n_sessions, subscribers
    ):
        """Any block size, a partial last block included, yields the
        entries of the whole corpus, field for field and in order."""
        if block is not None:
            monkeypatch.setattr(generate, "_TRACE_BLOCK", block)
        trace = synthetic_trace(n_sessions, seed=2, subscribers=subscribers)
        assert trace == _reference_trace(n_sessions, 2, subscribers)

    def test_counts_every_simulated_session(self):
        before = _sessions_total()
        synthetic_trace(9, seed=4)
        assert _sessions_total() - before == 9

    def test_peak_is_bounded_by_the_trace(self, monkeypatch):
        """Beside the trace it returns, synthesis holds one block of
        sessions, not the corpus: building the whole corpus first
        peaked at 3.15x the trace."""
        monkeypatch.setattr(generate, "_TRACE_BLOCK", 32)
        synthetic_trace(4, seed=5)  # imports and caches outside the count
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            trace = synthetic_trace(300, seed=5, subscribers=8)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = current - base
        assert len(trace) > 10_000
        assert peak - base <= 2.0 * size, (
            f"peak {(peak - base) / size:.2f}x the trace"
        )


class TestTraceReplayer:
    def test_speedup_validated(self, serving_framework):
        service = QoEService(serving_framework, n_shards=1)
        with pytest.raises(ValueError):
            TraceReplayer(service, speedup=-1.0)

    def test_unpaced_replay_stats(self, serving_framework, serving_trace):
        with QoEService(serving_framework, n_shards=2) as service:
            stats = TraceReplayer(service, speedup=0.0).replay(serving_trace)
        assert isinstance(stats, ReplayStats)
        assert stats.entries == len(serving_trace)
        assert stats.accepted == len(serving_trace)
        assert stats.shed == 0
        assert stats.trace_span_s > 0
        assert stats.entries_per_s > 0

    def test_paced_replay_honours_speedup(self, serving_framework):
        """With a finite speedup the replay must take at least
        trace_span / speedup of wall clock."""
        trace = synthetic_trace(3, seed=5, subscribers=2)
        span = trace[-1].timestamp_s - trace[0].timestamp_s
        speedup = span / 0.2  # ~0.2 s of pacing however long the trace is
        with QoEService(serving_framework, n_shards=1) as service:
            started = time.perf_counter()
            stats = TraceReplayer(service, speedup=speedup).replay(trace)
            elapsed = time.perf_counter() - started
        assert elapsed >= 0.15
        assert stats.wall_s >= 0.15

    def test_empty_trace(self, serving_framework):
        with QoEService(serving_framework, n_shards=1) as service:
            stats = TraceReplayer(service).replay([])
        assert stats.entries == 0
        assert stats.trace_span_s == 0.0
        assert stats.entries_per_s == float("inf") or stats.entries_per_s == 0.0
