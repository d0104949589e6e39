"""JSON snapshot exporter: one file per run, metrics plus span trees.

The shape intentionally matches what the benchmark harness drops next
to its ``BENCH_*.json`` artifacts: a flat, versioned document that a
later run (or CI step) can load with ``json.load`` and diff —
``{"schema": ..., "metrics": [...], "spans": [...]}``.

Counters and gauges serialise as ``{labels, value}``; histograms carry
count/sum/min/max, the cumulative buckets, and interpolated p50/p90/p99
so downstream tooling does not need to re-derive quantiles.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .registry import MetricsRegistry, get_registry
from .tracing import Tracer, get_tracer

__all__ = [
    "SNAPSHOT_SCHEMA",
    "registry_snapshot",
    "write_snapshot",
]

SNAPSHOT_SCHEMA = "repro.obs/1"

_QUANTILES = (0.5, 0.9, 0.99)


def _finite(value: float) -> float:
    """JSON has no Infinity; clamp sentinels from empty histograms."""
    return value if math.isfinite(value) else 0.0


def _histogram_payload(child) -> dict:
    buckets = [
        {"le": "+Inf" if math.isinf(bound) else bound, "count": count}
        for bound, count in zip(child.bounds, child.cumulative_counts())
    ]
    quantiles = {
        f"p{int(q * 100)}": _finite(child.quantile(q)) for q in _QUANTILES
    }
    return {
        "count": child.count,
        "sum": child.sum,
        "min": _finite(child._min),
        "max": _finite(child._max),
        "buckets": buckets,
        "quantiles": quantiles,
    }


def registry_snapshot(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """The registry (and span forest) as a JSON-serialisable dict."""
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    metrics = []
    for family in registry.collect():
        samples = []
        for labels, child in family.samples():
            if family.type == "histogram":
                samples.append({"labels": labels, **_histogram_payload(child)})
            else:
                samples.append({"labels": labels, "value": child.value})
        metrics.append(
            {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        )
    return {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": metrics,
        "spans": tracer.to_dict(),
    }


def write_snapshot(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """Write the snapshot to ``path``; returns the written dict.

    The file write is retried with backoff (``OSError`` only) — a
    snapshot is usually the last act of a run, and losing it to a
    transient filesystem hiccup wastes the whole run's evidence.
    """
    # Imported lazily: repro.faults.retry records its retries through
    # this registry's counters, so a module-level import would cycle.
    from repro.faults.retry import retry_with_backoff

    snapshot = registry_snapshot(registry, tracer)

    def _write() -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=False)
            handle.write("\n")

    retry_with_backoff(_write, retry_on=(OSError,), op="write_snapshot")
    return snapshot
