"""Benchmark gate for the socket-sharded serving tier at population scale.

On a 2k-session tiled replay with faults off, 4 socket shards over
loopback worker processes (``local:4``, which is also what
``shard_backend="process"`` runs) must produce the serial monitor's
diagnosis multiset without exercising any robustness machinery: no
restart, no open circuit, no reconnect.  The wall-clock gates for
this path (speedup over serial, p99 latency) live in
``test_bench_procserving.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.realtime.monitor import RealTimeMonitor
from repro.serving.replay import synthetic_trace
from repro.serving.service import QoEService

from conftest import paper_row
from test_bench_procserving import tile_population

#: 500 base sessions x 4 tiles = the 2k-session replay the gate names.
BASE_SESSIONS, BASE_SUBSCRIBERS, TILES = 500, 125, 4
POPULATION = BASE_SUBSCRIBERS * TILES
N_SHARDS = 4


@pytest.fixture(scope="module")
def framework(serving_framework):
    return serving_framework


@pytest.fixture(scope="module")
def trace():
    base = synthetic_trace(
        BASE_SESSIONS, seed=29, subscribers=BASE_SUBSCRIBERS
    )
    return tile_population(base, TILES)


def _multiset(diagnoses):
    return sorted(
        (
            d.session_id,
            d.stall_class,
            d.representation_class,
            d.has_quality_switches,
        )
        for d in diagnoses
    )


def test_socket_backend_deterministic_at_population_scale(framework, trace):
    """2k tiled sessions, 4 socket shards (``local:4``): multiset
    identical to the serial monitor, and a clean run never restarts,
    opens a circuit or reconnects."""
    sock = QoEService(
        framework,
        n_shards=N_SHARDS,
        shard_backend="socket",
        placement=f"local:{N_SHARDS}",
    )
    sock.start()
    start = time.perf_counter()
    sock.submit_many(trace)
    sock.drain()
    socket_s = time.perf_counter() - start
    sock.stop()

    serial = RealTimeMonitor(framework)
    serial.feed_many(trace)
    serial.drain()
    assert _multiset(sock.diagnoses) == _multiset(serial.diagnoses)
    assert sock.health()["restarts"] == 0
    assert sock.supervisor.open_circuits == []
    assert sum(s.reconnects for s in sock.router.shards) == 0
    sessions = BASE_SESSIONS * TILES
    paper_row(
        f"socket-shard determinism, {POPULATION} subscribers",
        "multiset-identical",
        f"{len(sock.diagnoses)} diagnoses over {len(trace)} entries "
        f"(4 socket shards == serial), {sessions / socket_s:.0f} "
        f"sessions/s ({socket_s:.2f}s)",
    )
