"""Vectorized-vs-per-session benchmark for the corpus engine.

Acceptance shape: on 2k planned sessions the vectorized engine
(``repro.datasets.genx.vector``) must simulate the corpus at least 2x
faster than the per-session oracle — and bit-identically (every chunk,
transfer annotation, stall and session field compared exactly, no
tolerances).  Only the simulation step of ``generate_corpus`` and of
``reference_corpus`` differs (both share one capture-and-prepare tail),
so the benchmark times and compares that step of each.  Vectorizing the transport rounds while keeping the
players' control flow per-session in Python yields ~3x on a quiet
host; the gate is set at 2x so scheduler noise cannot flake it.

The equality half always runs.  The speed half is skipped (not
weakened) only when the host is so overloaded that even the oracle
falls under a floor rate — a machine that slow cannot produce a
meaningful ratio.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import pytest

from repro.datasets.generate import CorpusConfig, _simulate_sessions_oracle
from repro.datasets.genx.plan import build_plan
from repro.datasets.genx.streams import corpus_streams
from repro.datasets.genx.vector import simulate_sessions
from repro.streaming.catalog import VideoCatalog

from conftest import paper_row

N_SESSIONS = 2000
MIN_SPEEDUP = 2.0
#: Oracle sessions/sec below which the host is too loaded to time.
SLOW_HOST_FLOOR = 40.0


def _assert_identical(a, b, path=""):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert np.array_equal(a, b), f"{path}: arrays differ"
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            _assert_identical(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
            )
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: len {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
        return
    assert a == b, f"{path}: {a!r} != {b!r}"


def _plan_and_streams(config):
    catalog = VideoCatalog(mean_duration_s=config.mean_video_duration_s)
    plan_rng, streams = corpus_streams(config.seed, config.n_sessions)
    return build_plan(config, plan_rng, catalog), streams


def test_vectorized_speedup_and_equality(benchmark):
    """Vectorized >= 2x over the oracle at 2k sessions, bit-identical."""
    config = CorpusConfig(n_sessions=N_SESSIONS, seed=77)
    # Each engine gets its own identically-seeded plan and streams, so
    # both consume fresh RNG state exactly as a real generation run.
    vec_plan, vec_streams = _plan_and_streams(config)
    ora_plan, ora_streams = _plan_and_streams(config)

    holder = {}

    def _vectorized() -> float:
        start = time.perf_counter()
        holder["vec"] = simulate_sessions(vec_plan, vec_streams)
        return time.perf_counter() - start

    vectorized_s = benchmark.pedantic(_vectorized, rounds=1, iterations=1)

    oracle_start = time.perf_counter()
    oracle = _simulate_sessions_oracle(ora_plan, ora_streams)
    oracle_s = time.perf_counter() - oracle_start

    # Equality is the contract and never skipped.
    _assert_identical(holder["vec"], oracle, "sessions")

    speedup = oracle_s / vectorized_s
    paper_row(
        f"corpus simulation, {N_SESSIONS} sessions",
        f">= {MIN_SPEEDUP:.0f}x vectorized, bit-identical",
        f"per-session {oracle_s:.2f}s / vectorized {vectorized_s:.2f}s "
        f"= {speedup:.1f}x",
    )
    if N_SESSIONS / oracle_s < SLOW_HOST_FLOOR:
        pytest.skip(
            f"host too loaded to time: oracle ran "
            f"{N_SESSIONS / oracle_s:.0f} sessions/s "
            f"(floor {SLOW_HOST_FLOOR:.0f})"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x vectorized speedup, got {speedup:.2f}x "
        f"(per-session {oracle_s:.2f}s, vectorized {vectorized_s:.2f}s)"
    )
