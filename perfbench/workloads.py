"""The four benchmark workloads.

Each drives the program from outside, through public entry points
only, and returns an :class:`Outcome`: set-up and measured-phase
times, operations attempted and failed, and the workload's own
latency/throughput figures.  Inputs come from the seed; references are
built untimed and checked after the measured phase.

Workloads and why each exists:

``offline-paper``
    Batch, serial: generate the three corpora, then run the five
    headline experiments on one Workspace.  The only workload where
    corpus generation, reconstruction, CFS, forest fit and
    cross-validation do most of the work and serving does none.
``serve-paced``
    Open loop at a fixed entry rate, one thread shard, no per-record
    telemetry.  Tracker, queue, micro-batcher and batched diagnosis
    below saturation: the shape an operator runs.  Each entry is timed
    from when it was due, so a stall counts against later entries too.
``serve-early``
    The same open loop at a low rate with early prediction on: every
    chunk past K runs single-row forest calls plus a streaming
    snapshot.  A change that speeds batched inference but slows
    single-row calls shows here and not on ``serve-paced``.
``serve-burst``
    Closed loop: one generator submits unpaced (``block`` policy) to two
    socket shards in local processes.  Only here do the socket framing
    and the child-side shard loop set the result.  Throughput only: the
    latencies of a queue the generator itself fills are not comparable.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import QoEFramework
from repro.core.featurex import get_cache
from repro.datasets.generate import (
    generate_adaptive_corpus,
    generate_cleartext_corpus,
)
from repro.experiments import ExperimentConfig, Workspace
from repro.experiments.runner import run_experiment
from repro.persistence import framework_to_dict, payload_checksum
from repro.serving import QoEService, synthetic_trace

from reference import (
    HEADLINE_BANDS,
    count_mismatches,
    count_multiset_mismatches,
    early_reference,
    provisional_key,
    serving_reference,
)

__all__ = ["FULL", "SMOKE", "Outcome", "Scale", "WORKLOADS", "run_workload"]

#: Weblog entries per synthetic-trace session (about 45 measured);
#: used only to size the trace so it holds the entries a run replays.
ENTRIES_PER_SESSION = 44

#: The serving model is trained once, from a fixed seed, as
#: ``serve-replay`` does by default; ``--seed`` varies the traffic.
#: Set-up time then does not swing with the run's seed.
TRAIN_SEED = 0

#: Pacing granularity of the open loops.
TICK_S = 0.001


@dataclass(frozen=True)
class Scale:
    """Input sizes and rates.  ``FULL`` is what BENCHMARK.json runs."""

    offline_sessions: Tuple[int, int, int]  # cleartext, adaptive, encrypted
    offline_trees: int
    offline_reps: int
    train_sessions: int
    train_trees: int
    serve_setups: int
    serve_reps: int
    paced_rate: float  # entries/s
    paced_subscribers: int
    early_rate: float  # entries/s
    early_subscribers: int
    early_after_chunks: int
    burst_entries_per_s: float  # burst trace size per second of --seconds


FULL = Scale(
    # The experiments' SMALL preset.  Smaller adaptive corpora can hold
    # a single HD session, and tab6_7's cross-validation then raises
    # (120 sessions, seed 2306).
    offline_sessions=(400, 250, 150),
    offline_trees=10,
    offline_reps=3,
    train_sessions=150,
    train_trees=20,
    serve_setups=3,
    serve_reps=4,
    paced_rate=8000.0,
    paced_subscribers=64,
    early_rate=100.0,
    early_subscribers=8,
    early_after_chunks=4,
    burst_entries_per_s=10000.0,
)

SMOKE = Scale(
    offline_sessions=(150, 80, 50),
    offline_trees=8,
    offline_reps=2,
    train_sessions=40,
    train_trees=5,
    serve_setups=2,
    serve_reps=3,
    paced_rate=1500.0,
    paced_subscribers=8,
    early_rate=60.0,
    early_subscribers=4,
    early_after_chunks=4,
    burst_entries_per_s=1500.0,
)


@dataclass
class Outcome:
    """What one workload invocation measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: The workload's own figures, by name: (value, unit, samples).
    figures: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} {what}")


def _window(tracer):
    """The traced window when tracing, else nothing."""
    return tracer.window() if tracer is not None else nullcontext()


def _latency_figures(out: Outcome, name: str, values: Sequence[float]) -> None:
    """Median and the highest of p99/p98/p95/p90 with 10 samples beyond it.

    A p99 needs 1000 samples behind it; a shorter sample is reported
    at the percentile it supports, under that percentile's name.
    """
    if not values:
        return
    values = np.asarray(values, dtype=float)
    out.figures[f"{name}_p50_s"] = (float(np.percentile(values, 50)), "s", len(values))
    for q in (99, 98, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out.figures[f"{name}_p{q}_s"] = (float(np.percentile(values, q)), "s", len(values))
            return


# ----------------------------------------------------------------------
# offline-paper
# ----------------------------------------------------------------------

HEADLINES = ("tab3_4", "tab6_7", "tab8_9", "tab10_11", "sec56")


def _headline(result) -> float:
    if hasattr(result, "balanced_accuracy"):
        return float(result.balanced_accuracy)
    return float(result.accuracy)


def offline_paper(seed, seconds, scale, tracer=None, corrupt=False) -> Outcome:
    """Corpora (set-up), then the five headline results (measured)."""
    cleartext, adaptive, encrypted = scale.offline_sessions
    bands = dict(HEADLINE_BANDS)
    if corrupt:
        bands["tab3_4"] = (2.0, 3.0)
    # Each rep builds its own corpora, from seed, seed+1000, ...: one
    # corpus's forests can cost twice another's to fit, so the median
    # over distinct corpora is what keeps run-to-run spread down.  The
    # first corpus is built again last, to check its results repeat.
    out = Outcome()
    rep_seeds = [seed + 1000 * k for k in range(scale.offline_reps)]
    if len(rep_seeds) > 1:
        rep_seeds.append(seed)
    runs: List[Dict[str, float]] = []
    for rep_seed in rep_seeds:
        config = ExperimentConfig(
            cleartext_sessions=cleartext,
            adaptive_sessions=adaptive,
            encrypted_sessions=encrypted,
            seed=rep_seed,
            n_estimators=scale.offline_trees,
            n_jobs=1,
        )
        # A cold pipeline each rep, like a fresh CLI invocation: the
        # in-memory feature-matrix cache would otherwise serve a repeat.
        get_cache().clear()
        workspace = Workspace(config)
        with _window(tracer):
            started = time.perf_counter()
            workspace.cleartext_corpus()
            workspace.adaptive_corpus()
            workspace.encrypted_corpus()
            built = time.perf_counter()
            cpu = time.process_time()
            results = {eid: run_experiment(eid, workspace) for eid in HEADLINES}
            out.cpu_s.append(time.process_time() - cpu)
            out.run_s.append(time.perf_counter() - built)
        out.setup_s.append(built - started)
        runs.append({eid: _headline(r) for eid, r in results.items()})
        out.attempted += 3 + len(HEADLINES)
    first = runs[0]
    for eid in HEADLINES:
        low, high = bands[eid]
        out.fail(
            sum(1 for run in runs if not low <= run[eid] <= high),
            f"{eid} accuracy outside sanity band [{low}, {high}]",
        )
        if len(runs) > 1:
            out.fail(
                int(runs[-1][eid] != first[eid]),
                f"{eid} accuracy not bit-identical on a rebuilt corpus",
            )
        out.figures[f"{eid}_accuracy"] = (first[eid], "ratio", 1)
    out.figures["pipeline_s"] = (median(out.run_s), "s", len(out.run_s))
    return out


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------


def train_framework(seed: int, scale: Scale) -> QoEFramework:
    """The serving model, trained as ``serve-replay`` does without --model."""
    cleartext = generate_cleartext_corpus(scale.train_sessions, seed=seed)
    adaptive = generate_adaptive_corpus(
        max(40, scale.train_sessions // 2), seed=seed + 1
    )
    return QoEFramework(random_state=seed, n_estimators=scale.train_trees).fit(
        cleartext.records_with_stall_truth(),
        [r for r in adaptive.records if r.resolutions is not None],
    )


def make_trace(seed: int, n_entries: int, subscribers: int) -> list:
    """The first ``n_entries`` of a §5.2 encrypted synthetic trace."""
    sessions = max(8, int(1.1 * n_entries / ENTRIES_PER_SESSION) + subscribers)
    entries = synthetic_trace(sessions, seed=seed, subscribers=subscribers)
    if len(entries) < n_entries:
        entries = synthetic_trace(2 * sessions, seed=seed, subscribers=subscribers)
    return entries[:n_entries]


def make_concurrent_trace(seed: int, n_entries: int, streams: int) -> list:
    """The first ``n_entries`` of ``streams`` traces played side by side.

    One synthetic trace plays its sessions one after another; merging
    several (one subscriber each, all starting at the same epoch) gives
    concurrent sessions, so a short slice still spans the starts of
    many sessions instead of the whole of a few.
    """
    per_stream = n_entries // streams + 1
    merged = []
    for j in range(streams):
        trace = make_trace(seed * streams + j, per_stream, 1)
        merged.append([
            dataclasses.replace(entry, subscriber_id=f"sub-{j:04d}")
            for entry in trace
        ])
    return list(heapq.merge(*merged, key=lambda e: e.timestamp_s))[:n_entries]


class Arrivals:
    """Callback sink: when each diagnosis / provisional reached its callback."""

    def __init__(self) -> None:
        self.diagnosed: List[Tuple[str, float]] = []
        self.provisional: List[Tuple[Tuple[str, int], float]] = []

    def on_diagnosis(self, diagnosis) -> None:
        self.diagnosed.append((diagnosis.session_id, time.perf_counter()))

    def on_provisional(self, provisional) -> None:
        self.provisional.append(
            ((provisional.session_id, provisional.n_chunks), time.perf_counter())
        )


def _start(framework, knobs, traced) -> Tuple[QoEService, Arrivals]:
    arrivals = Arrivals()
    service = QoEService(
        framework,
        telemetry=traced,
        on_diagnosis=arrivals.on_diagnosis,
        on_provisional=arrivals.on_provisional,
        **knobs,
    ).start()
    return service, arrivals


def _set_up(scale, knobs, traced) -> Tuple[float, QoEFramework, QoEService, Arrivals]:
    """Train the serving model and start a service; returns its wall time."""
    # Each set-up is cold, like a fresh process: a warm feature-matrix
    # cache would serve the training matrices of the previous rep.
    get_cache().clear()
    started = time.perf_counter()
    framework = train_framework(TRAIN_SEED, scale)
    service, arrivals = _start(framework, knobs, traced)
    return time.perf_counter() - started, framework, service, arrivals


def _paced_replay(service, entries, rate) -> Tuple[float, float, float, List[float], int]:
    """Open loop: entry i is due at ``start + i / rate``; drain at the end.

    The generator wakes at most once per :data:`TICK_S` and submits
    every entry due by then.  Waking per entry instead makes the
    generator and shard threads hand the interpreter lock back and
    forth a number of times that depends on how fast the host runs,
    and the CPU time with it.
    """
    n = len(entries)
    late = [0.0] * n
    refused = 0
    submit = service.submit
    cpu = time.process_time()
    start = time.perf_counter() + 0.005
    i = 0
    while i < n:
        due_now = min(n, math.floor((time.perf_counter() - start) * rate) + 1)
        while i < due_now:
            late[i] = time.perf_counter() - (start + i / rate)
            if not submit(entries[i]):
                refused += 1
            i += 1
        if i < n:
            time.sleep(max(start + i / rate - time.perf_counter(), TICK_S))
    service.drain()
    return start, time.perf_counter() - start, time.process_time() - cpu, late, refused


def _burst_replay(service, entries) -> Tuple[float, float, float, List[float], int]:
    """Closed loop: submit every entry as fast as ``block`` admits, then drain."""
    cpu = time.process_time()
    start = time.perf_counter()
    refused = sum(1 for entry in entries if not service.submit(entry))
    service.drain()
    return start, time.perf_counter() - start, time.process_time() - cpu, [], refused


def _slices(entries: list, parts: int) -> List[list]:
    """``entries`` cut into ``parts`` consecutive slices of equal length."""
    size = len(entries) // parts
    return [entries[k * size:(k + 1) * size] for k in range(parts)]


def _serve(out, trace, knobs, scale, tracer, corrupt, replay, reference, rate=None):
    """One replay per slice of ``trace``, each through a new service.

    The trace is cut into ``scale.serve_reps`` consecutive slices, so
    the reps replay distinct traffic and the median over them averages
    out how much one stretch of traffic costs.  The first
    ``scale.serve_setups`` reps train the model and start the service
    (timed as set-up); later reps start a service on the trained model.
    Every rep is checked against its own reference, and lags are
    measured from each entry's due time in its own rep.
    """
    checksums = set()
    lags: Dict[str, List[float]] = {"diag_lag": [], "prov_lag": [], "send_late": []}
    drain_closed = 0
    for rep, entries in enumerate(_slices(trace, scale.serve_reps)):
        with _window(tracer):
            if rep < scale.serve_setups:
                setup_s, framework, service, arrivals = _set_up(
                    scale, knobs, tracer is not None
                )
                out.setup_s.append(setup_s)
                checksums.add(payload_checksum(framework_to_dict(framework)))
            else:
                service, arrivals = _start(framework, knobs, tracer is not None)
            start, run_s, cpu_s, late, refused = replay(service, entries)
        out.run_s.append(run_s)
        out.cpu_s.append(cpu_s)
        ref = reference(framework, entries)
        if corrupt:
            ref.diagnoses.pop(next(iter(ref.diagnoses)))
        out.attempted += len(entries) + len(ref.diagnoses) + sum(ref.provisional.values())
        out.fail(refused, "submits shed or rejected")
        out.fail(service.dead_letters.quarantined, "entries dead-lettered")
        out.fail(service.callback_errors, "callback errors")
        out.fail(count_mismatches(ref.diagnoses, service.diagnoses),
                 "diagnoses missing, extra or mismatched")
        out.fail(
            count_multiset_mismatches(
                ref.provisional, Counter(provisional_key(p) for p in service.provisional)
            ),
            "provisional diagnoses missing, extra or mismatched",
        )
        if rate is None:
            continue
        for sid, t in arrivals.diagnosed:
            if sid in ref.closing:
                lags["diag_lag"].append(t - start - ref.closing[sid] / rate)
            else:
                drain_closed += 1
        seen: Counter = Counter()
        for key, t in arrivals.provisional:
            triggers = ref.trigger.get(key, ())
            if seen[key] < len(triggers):
                lags["prov_lag"].append(t - start - triggers[seen[key]] / rate)
            seen[key] += 1
        lags["send_late"].extend(late)
    out.fail(len(checksums) - 1, "set-up reps trained different models")
    if rate is None:
        out.figures["entries_per_s"] = (
            len(trace) / sum(out.run_s), "1/s", len(out.run_s)
        )
        return out
    out.figures["drain_closed_sessions"] = (drain_closed, "count", scale.serve_reps)
    for name, values in lags.items():
        _latency_figures(out, name, values)
    return out


def serve_paced(seed, seconds, scale, tracer=None, corrupt=False) -> Outcome:
    """Open loop at ``scale.paced_rate`` through one thread shard."""
    rate = scale.paced_rate
    trace = make_trace(seed, int(rate * seconds), scale.paced_subscribers)
    return _serve(
        Outcome(), trace, dict(n_shards=1, shard_backend="thread"), scale, tracer, corrupt,
        lambda service, e: _paced_replay(service, e, rate), serving_reference, rate,
    )


def serve_early(seed, seconds, scale, tracer=None, corrupt=False) -> Outcome:
    """Open loop at ``scale.early_rate`` with early prediction on."""
    rate = scale.early_rate
    trace = make_concurrent_trace(seed, int(rate * seconds), scale.early_subscribers)
    knobs = dict(n_shards=1, shard_backend="thread", early_after_chunks=scale.early_after_chunks)
    return _serve(
        Outcome(), trace, knobs, scale, tracer, corrupt,
        lambda service, e: _paced_replay(service, e, rate),
        lambda framework, e: early_reference(framework, e, scale.early_after_chunks, 0.0),
        rate,
    )


def serve_burst(seed, seconds, scale, tracer=None, corrupt=False) -> Outcome:
    """Closed loop into two local socket shards; throughput only."""
    trace = make_trace(
        seed, int(scale.burst_entries_per_s * seconds), scale.paced_subscribers
    )
    knobs = dict(n_shards=2, shard_backend="socket", placement="local:2", policy="block")
    return _serve(Outcome(), trace, knobs, scale, tracer, corrupt,
                  _burst_replay, serving_reference)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "offline-paper": offline_paper,
    "serve-paced": serve_paced,
    "serve-early": serve_early,
    "serve-burst": serve_burst,
}


def run_workload(name: str, seed: int, seconds: int, scale: Scale = FULL,
                 tracer=None, corrupt: bool = False) -> Outcome:
    return WORKLOADS[name](seed, seconds, scale, tracer=tracer, corrupt=corrupt)
