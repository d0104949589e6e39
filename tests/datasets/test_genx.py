"""Corpus-engine determinism and bit-identity tests.

The vectorized engine (``repro.datasets.genx.vector``) must reproduce
the per-session oracle bit for bit for every corpus shape: same
sessions, weblog fields, prepared records, device summaries and
segment records.  These tests run full ``generate_corpus`` builds
against ``reference_corpus`` and compare every field exactly (no
tolerances — the contract is bitwise equality, not closeness).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from repro.datasets.generate import (
    CorpusConfig,
    _simulate_sessions_oracle,
    generate_corpus,
    reference_corpus,
)
from repro.datasets.genx import vector
from repro.datasets.genx.plan import build_plan
from repro.datasets.genx.streams import corpus_streams
from repro.network.diurnal import DiurnalLoadModel
from repro.network.mobility import COMMUTER_USER
from repro.network.tcp import RoundDraws
from repro.obs.tracing import Tracer, set_tracer
from repro.streaming.catalog import VideoCatalog


def _assert_identical(a, b, path=""):
    """Recursively assert two corpus objects are exactly equal."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
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
        assert isinstance(b, type(a)), path
        assert len(a) == len(b), f"{path}: len {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
        return
    assert a == b, f"{path}: {a!r} != {b!r}"


def assert_corpora_identical(a, b):
    for field in ("sessions", "records", "weblogs", "summaries", "segment_records"):
        _assert_identical(getattr(a, field), getattr(b, field), field)


CONFIGS = {
    "cleartext": CorpusConfig(n_sessions=25, seed=11),
    "adaptive": CorpusConfig(
        n_sessions=18, seed=12, adaptive_fraction=1.0, transient_outage_prob=0.45
    ),
    "encrypted": CorpusConfig(
        n_sessions=20,
        seed=13,
        adaptive_fraction=1.0,
        mobility=COMMUTER_USER,
        encrypted=True,
        single_subscriber=True,
    ),
    "empty": CorpusConfig(n_sessions=0, seed=14),
    "all-progressive": CorpusConfig(n_sessions=12, seed=15, adaptive_fraction=0.0),
    "diurnal": CorpusConfig(
        n_sessions=12, seed=16, diurnal=DiurnalLoadModel(), adaptive_fraction=0.5
    ),
}


class TestEngineBitIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_vectorized_matches_oracle(self, name):
        cfg = CONFIGS[name]
        vec = generate_corpus(cfg)
        ora = reference_corpus(cfg)
        assert_corpora_identical(vec, ora)


class TestSameSeedDeterminism:
    @pytest.mark.parametrize(
        "generate",
        [generate_corpus, reference_corpus],
        ids=["vectorized", "per-session"],
    )
    def test_same_seed_twice_identical(self, generate):
        cfg = CONFIGS["cleartext"]
        a = generate(cfg)
        b = generate(cfg)
        assert_corpora_identical(a, b)


def _plan_and_streams(config):
    catalog = VideoCatalog(mean_duration_s=config.mean_video_duration_s)
    plan_rng, streams = corpus_streams(config.seed, config.n_sessions)
    return build_plan(config, plan_rng, catalog), streams


#: Kernel-coverage corpora.  "outage" plans coverage dips for most of
#: its sessions (12 of 16), and half its sessions are adaptive.
KERNEL_CONFIGS = {
    "outage": CorpusConfig(
        n_sessions=16, seed=21, transient_outage_prob=1.0, adaptive_fraction=0.5
    ),
    "adaptive": CONFIGS["adaptive"],
    "encrypted": CONFIGS["encrypted"],
}


@pytest.fixture(scope="module", params=sorted(KERNEL_CONFIGS))
def kernel_case(request):
    """A kernel-coverage config and its oracle corpus."""
    config = KERNEL_CONFIGS[request.param]
    return config, reference_corpus(config)


class TestKernelCoverage:
    """The vector TCP kernel, the vector->scalar hand-off and the
    block-wise path build, each against the oracle.

    The default ``_SCALAR_TAIL`` exceeds every small corpus above, so
    without the patch these corpora would drain entirely scalar; a tail
    of 0 runs every round through ``_DownloadPool.round``, a tail of 4
    hands lanes over mid-session.  Path blocks of 1 and 3 lanes, and of
    7 (which divides none of the lane counts), cover partial blocks.
    """

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("tail", [0, 4])
    def test_vectorized_matches_oracle(self, monkeypatch, kernel_case, tail, block):
        config, oracle = kernel_case
        monkeypatch.setattr(vector, "_SCALAR_TAIL", tail)
        monkeypatch.setattr(vector, "_PATH_BLOCK", block)
        assert_corpora_identical(generate_corpus(config), oracle)

    def test_outage_config_plans_outages(self):
        plan, _ = _plan_and_streams(KERNEL_CONFIGS["outage"])
        assert sum(1 for outages in plan.outages if outages) >= 8


class TestPathMemory:
    def test_build_paths_peak_is_bounded_by_its_outputs(self):
        """The path build holds a few block-sized arrays beside its
        three flat outputs, not per-step intermediates of the corpus."""
        plan, streams = _plan_and_streams(CorpusConfig(n_sessions=300, seed=5))
        tracemalloc.start()
        try:
            data = vector._build_paths(plan, streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = data.bw.nbytes + data.rtt.nbytes + data.loss.nbytes
        assert peak <= 2.0 * outputs, f"peak {peak / outputs:.2f}x the outputs"


def _span(tracer, name):
    matches = [root for root in tracer.roots() if root.name == name]
    assert len(matches) == 1, [root.name for root in tracer.roots()]
    return matches[0]


@pytest.fixture
def tracer():
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


class TestPhaseSpans:
    def test_one_generation_emits_each_phase_once(self, tracer):
        config = CONFIGS["cleartext"]
        plan, _ = _plan_and_streams(config)
        generate_corpus(config)
        steps = sum(
            max(2, math.ceil(v.duration_s * 4.0 + 180.0) + 1) for v in plan.videos
        )
        n = config.n_sessions
        paths = _span(tracer, "datasets.genx.paths")
        assert paths.count == 1
        assert paths.counters == {"lanes": n, "steps": steps}
        assert _span(tracer, "datasets.genx.vector_rounds").count == 1
        tail = _span(tracer, "datasets.genx.scalar_tail")
        assert tail.count == 1
        assert tail.counters["lanes"] == n  # 25 lanes < _SCALAR_TAIL
        materialize = _span(tracer, "datasets.genx.materialize")
        assert materialize.count == 1
        assert materialize.counters == {"sessions": n}

    @pytest.mark.parametrize("name", ["cleartext", "encrypted"])
    def test_preparation_span_counts_sessions(self, tracer, name):
        """§3.3 preparation (grouping or the device join) is one span."""
        corpus = generate_corpus(CONFIGS[name])
        span = _span(tracer, "datasets.preparation")
        assert span.count == 1
        assert span.counters == {"sessions": len(corpus.records)}
        assert len(corpus.records) > 0

    def test_round_counters_match_the_oracles_rounds(self, tracer, monkeypatch):
        """Counted per connection in the oracle (one ``next_round`` per
        TCP round): the scalar tail runs every round of every lane, and
        the vector kernel steps until the busiest lane is done."""
        config = KERNEL_CONFIGS["outage"]
        plan, streams = _plan_and_streams(config)
        counts = {}
        next_round = RoundDraws.next_round

        def counting(draws):
            counts[id(draws.rng)] = counts.get(id(draws.rng), 0) + 1
            return next_round(draws)

        monkeypatch.setattr(RoundDraws, "next_round", counting)
        _simulate_sessions_oracle(plan, streams)
        per_lane = [
            counts.get(id(st.tcp_video), 0) + counts.get(id(st.tcp_audio), 0)
            for st in streams
        ]

        for tail in (config.n_sessions, 0):
            monkeypatch.setattr(vector, "_SCALAR_TAIL", tail)
            vector.simulate_sessions(*_plan_and_streams(config))
        # Both runs aggregate into the same root nodes.
        scalar = _span(tracer, "datasets.genx.scalar_tail")
        assert scalar.counters == {"lanes": config.n_sessions, "rounds": sum(per_lane)}
        assert _span(tracer, "datasets.genx.vector_rounds").counters == {
            "rounds": max(per_lane)
        }
