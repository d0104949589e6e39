"""Run one benchmark workload in this process and print its result.

Usage (from the repository root, with ``src`` importable)::

    python3 perfbench/bench.py --workload serve-paced --seed 1 --seconds 8 --trace 0

Prints the run's metadata, every metric by name with its unit, the
workload's own figures, the outcome of its checks and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
traced rep between two untraced ones and reports the per-layer
metrics, writing the traced spans under ``.perfbench/``.  ``perfbench/run.py`` wraps
this script with a wall-clock deadline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median

import numpy as np
import scipy

import workloads
from layers import PER_LAYER, per_layer_metrics
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

SCALES = {"full": workloads.FULL, "smoke": workloads.SMOKE}


def host_fingerprint() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def drift_probe() -> float:
    """Wall time of a fixed CPU loop: run metadata, never a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    return time.perf_counter() - started


def end_to_end_metrics(outcome: workloads.Outcome) -> dict:
    return {
        "setup_s": median(outcome.setup_s),
        "run_s": median(outcome.run_s),
        "cpu_s": median(outcome.cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(args, scale) -> tuple:
    """One traced rep between two untraced ones; per-layer metrics of the traced.

    The untraced reps bracket the traced one so that warm-up, which
    only the first rep in a process pays, does not pass for overhead.
    """
    single = dataclasses.replace(scale, offline_reps=1, serve_setups=1, serve_reps=1)

    def rep(tracer=None):
        return workloads.run_workload(args.workload, args.seed, args.seconds, single, tracer)

    before = rep()
    tracer = Tracer().install()
    try:
        traced = rep(tracer)
    finally:
        tracer.uninstall()
    after = rep()

    def cost(outcome):
        return outcome.setup_s[0] + outcome.run_s[0]

    overhead = cost(traced) - (cost(before) + cost(after)) / 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"))
    for plain in (before, after):
        traced.attempted += plain.attempted
        traced.failed += plain.failed
        traced.problems += plain.problems
    return traced, per_layer_metrics(tracer, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": host_fingerprint(),
        "drift_probe_s": drift_probe(),
    }
    print("meta " + json.dumps(meta), flush=True)
    try:
        if args.trace:
            outcome, metrics = traced_metrics(args, scale)
            units = {name: unit for name, unit, _ in PER_LAYER}
            moves = {name: target for name, _, target in PER_LAYER}
        else:
            outcome = workloads.run_workload(args.workload, args.seed, args.seconds, scale)
            metrics = end_to_end_metrics(outcome)
            units = dict(END_TO_END)
            moves = {}
    except Exception:  # a crashed workload is a failed run, not a result
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for name, value in metrics.items():
        line = f"metric {name} = {value:.6g} {units[name]}"
        print(line + (f"  (moves {moves[name]})" if name in moves else ""))
    for name, (value, unit, samples) in outcome.figures.items():
        print(f"figure {name} = {value:.6g} {unit}  (n={samples})")
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"figure failed_ratio = {ratio:.6g} ratio  (n={outcome.attempted})")
    for problem in outcome.problems:
        print(f"check FAILED: {problem}")
    if not outcome.problems:
        print("check ok: outputs match the reference")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
