"""The runtime needs numpy only.

``pyproject.toml`` lists numpy as the sole dependency, so the runtime
paths — corpus generation on both engines, model fitting and sharded
serving — must never import scipy.  A fresh interpreter runs them and
reports every loaded module, since the parent test process may have
imported scipy for its own reasons.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    from repro import QoEFramework
    from repro.datasets.generate import (
        CorpusConfig,
        generate_adaptive_corpus,
        generate_cleartext_corpus,
        generate_corpus,
    )
    from repro.serving import QoEService, synthetic_trace

    for engine in ("vectorized", "per-session"):
        generate_corpus(CorpusConfig(n_sessions=6, seed=1), engine=engine)

    cleartext = generate_cleartext_corpus(60, seed=3)
    adaptive = generate_adaptive_corpus(40, seed=4)
    framework = QoEFramework(random_state=0, n_estimators=4).fit(
        cleartext.records_with_stall_truth(),
        [r for r in adaptive.records if r.resolutions is not None],
    )
    service = QoEService(framework, n_shards=2, shard_backend="thread")
    service.start()
    service.submit_many(synthetic_trace(12, seed=5, subscribers=3))
    print("DIAGNOSES", len(service.drain()))
    print("MODULES", " ".join(sorted(sys.modules)))
    """
)


def test_runtime_never_imports_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = dict(
        line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line
    )
    assert int(lines["DIAGNOSES"]) > 0
    modules = lines["MODULES"].split()
    assert "repro.datasets.genx.vector" in modules
    scipy = [m for m in modules if m == "scipy" or m.startswith("scipy.")]
    assert not scipy, scipy
