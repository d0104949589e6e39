"""Benchmark entry point: one workload run under a wall-clock deadline.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs ``perfbench/bench.py`` with the same arguments in a child process
(its own session, with ``src`` on the import path and the program's
cache/engine environment overrides cleared) and relays its output.  A
run that outlives the deadline is killed with every process it
started and reported as failed: a hung run must not be waited on.
Without the program's sources next to it the child cannot import the
program, so the run exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Below the 180 s a run may take, leaving time to kill and report.
DEADLINE_S = 170.0

#: Environment overrides that would change what the program does.
_CLEARED_ENV = ("REPRO_FEATURE_CACHE", "REPRO_CORPUS_ENGINE", "REPRO_FEATURE_ENGINE")


def supervise(cmd: List[str], deadline_s: float, env: Optional[dict] = None) -> int:
    """Run ``cmd``, relay its stdout, kill its process group at the deadline."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run killed after the {deadline_s:g}s deadline", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        _kill_leftovers(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def _kill_leftovers(pgid: int) -> None:
    """Stop any process the run left behind in its group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated supervisor still runs supervise()'s cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program sources at {src}; nothing to benchmark", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), *argv]
    return supervise(cmd, DEADLINE_S, env)


if __name__ == "__main__":
    sys.exit(main())
