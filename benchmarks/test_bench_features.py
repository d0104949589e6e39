"""Columnar-vs-per-record benchmark for the batch feature engine.

Acceptance shape: on >= 2k synthetic sessions the serial columnar
engine must build the 210-column representation matrix at least 5x
faster than the per-record reference — and bit-identically
(``np.array_equal``, not allclose).  The serial gate runs on any
machine; the parallel fan-out variant additionally needs cores to show
a win and is skipped (not weakened) below 4 usable CPUs.  A repeated
build must come back from the content-addressed cache without touching
the engine at all.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.features import (
    build_representation_matrix,
    build_stall_matrix,
)
from repro.core.featurex import configure_cache, get_cache
from repro.datasets.schema import SessionRecord

from conftest import paper_row

N_SESSIONS = 2000
MIN_SPEEDUP = 5.0
N_JOBS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # non-Linux
        return os.cpu_count() or 1


def _synthetic_records(n=N_SESSIONS, seed=0):
    """Corpus-shaped records without the simulator (keeps setup cheap).

    Chunk counts span the corpus range (6..124) so the padded engine
    sees realistically ragged batches, not rows of one length.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(6, 125, size=n)
    records = []
    for i, n_chunks in enumerate(lengths):
        records.append(
            SessionRecord(
                session_id=f"bench-{i}",
                encrypted=False,
                timestamps=np.sort(rng.uniform(0.0, 600.0, n_chunks)),
                sizes=rng.uniform(2e5, 4e6, n_chunks),
                transactions=rng.uniform(0.05, 4.0, n_chunks),
                rtt_min=rng.uniform(10.0, 40.0, n_chunks),
                rtt_avg=rng.uniform(40.0, 90.0, n_chunks),
                rtt_max=rng.uniform(90.0, 300.0, n_chunks),
                bdp=rng.uniform(1e4, 1e6, n_chunks),
                bif_avg=rng.uniform(1e3, 1e5, n_chunks),
                bif_max=rng.uniform(1e4, 5e5, n_chunks),
                loss_pct=rng.uniform(0.0, 2.0, n_chunks),
                retx_pct=rng.uniform(0.0, 3.0, n_chunks),
            )
        )
    return records


def _build_seconds(records, **kwargs) -> float:
    start = time.perf_counter()
    build_representation_matrix(records, cache=False, **kwargs)
    return time.perf_counter() - start


def test_columnar_speedup_and_equality(benchmark):
    """Serial columnar >= 5x over per-record, bit-identical output."""
    records = _synthetic_records()

    reference_start = time.perf_counter()
    reference, _ = build_representation_matrix(
        records, engine="per-record", cache=False
    )
    reference_s = time.perf_counter() - reference_start

    columnar_s = benchmark.pedantic(
        _build_seconds,
        args=(records,),
        kwargs=dict(engine="columnar"),
        rounds=1,
        iterations=1,
    )
    columnar, _ = build_representation_matrix(
        records, engine="columnar", cache=False
    )
    assert np.array_equal(columnar, reference)

    speedup = reference_s / columnar_s
    paper_row(
        f"representation features, {N_SESSIONS} sessions (210 cols)",
        f">= {MIN_SPEEDUP:.0f}x columnar, bit-identical",
        f"per-record {reference_s:.2f}s / columnar {columnar_s:.2f}s "
        f"= {speedup:.1f}x",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x columnar speedup, got {speedup:.2f}x "
        f"(per-record {reference_s:.2f}s, columnar {columnar_s:.2f}s)"
    )


def test_stall_matrix_engines_bit_identical():
    """The 70-column model at benchmark scale, both engines."""
    records = _synthetic_records(seed=1)
    columnar, _ = build_stall_matrix(records, engine="columnar", cache=False)
    reference, _ = build_stall_matrix(records, engine="per-record", cache=False)
    assert np.array_equal(columnar, reference)


def test_parallel_build_matches_serial(benchmark):
    """Row-chunk fan-out: identical matrix, less wall-clock given cores."""
    records = _synthetic_records(seed=2)
    serial, _ = build_representation_matrix(records, n_jobs=1, cache=False)

    def _parallel():
        matrix, _ = build_representation_matrix(
            records, n_jobs=N_JOBS, cache=False
        )
        return matrix

    parallel = benchmark.pedantic(_parallel, rounds=1, iterations=1)
    assert np.array_equal(serial, parallel)
    if _usable_cpus() < N_JOBS:
        pytest.skip(
            f"only {_usable_cpus()} usable core(s); "
            f"fan-out win needs >= {N_JOBS}"
        )


def test_cache_hit_skips_the_build(tmp_path):
    """A repeated build on unchanged records is a cache hit, not a build."""
    records = _synthetic_records(n=500, seed=3)
    cache = get_cache()
    old_directory = cache.directory
    configure_cache(directory=str(tmp_path))
    cache.clear()
    try:
        cold_start = time.perf_counter()
        first, _ = build_representation_matrix(records)
        cold_s = time.perf_counter() - cold_start

        hit_start = time.perf_counter()
        second, _ = build_representation_matrix(records)
        hit_s = time.perf_counter() - hit_start

        assert second is first   # memory-layer hit: the same object
        paper_row(
            "feature-matrix cache hit, 500 sessions",
            "memoized, same object",
            f"cold {cold_s:.3f}s / hit {hit_s*1000:.1f}ms",
        )
        # a hit only hashes the inputs — it must beat the build easily
        assert hit_s < cold_s
    finally:
        configure_cache(directory=old_directory)
        cache.clear()
