"""The benchmark's own tests, at smoke scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from bench import END_TO_END  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_spec_matches_the_code():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    code, lines = _run("--workload", workload, "--seed", "5", "--seconds", "2",
                       "--trace", str(trace), "--scale", "smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name in result["metrics"]:
        assert any(line.startswith(f"metric {name} = ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload):
    scale = dataclasses.replace(workloads.SMOKE, offline_reps=1, serve_setups=1, serve_reps=1)
    outcome = workloads.run_workload(workload, 5, 2, scale, corrupt=True)
    assert outcome.failed > 0
    assert outcome.failed / outcome.attempted > 0


def test_traced_span_tree_nests():
    scale = dataclasses.replace(workloads.SMOKE, serve_setups=1, serve_reps=1)
    tracer = Tracer().install()
    try:
        workloads.run_workload("serve-early", 5, 2, scale, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) > 100
    layers = {s[1] for s in spans.values()}
    assert {"datasets.genx", "ml.forest.fit", "realtime.tracker",
            "online.early.predict", "online.snapshot", "ml.forest.predict"} <= layers
    nested = 0
    for span in spans.values():
        parent = spans.get(span[4])
        if parent is not None:
            nested += 1
            assert parent[5] == span[5]  # same thread
            assert parent[2] <= span[2] and span[3] <= parent[3]
    assert nested > 0
    _, _, per_span = self_times(list(spans.values()))
    for span_id, own in per_span.items():
        start, end = spans[span_id][2:4]
        assert -1e-9 <= own <= (end - start) + 1e-9
    # Uninstalled shims leave the program's own callables in place.
    from repro.realtime.tracker import OnlineSessionTracker
    assert not hasattr(OnlineSessionTracker.observe, "__wrapped__")


def test_deadline_kills_a_hung_run(capsys):
    code = run.supervise([sys.executable, "-c", "import time; time.sleep(60)"], 1.0)
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
