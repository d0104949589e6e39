"""Per-layer metrics of the traced run.

Busy times are self times from the benchmark's own spans (time in a
layer's calls minus time in nested calls into other instrumented
layers).  Counts come from the spans' call counts or from deltas of
the program's ``repro_*`` metrics over the traced window; the latter
include shard work done in child processes, whose registries the
socket router folds back into this process.  A layer a workload does
not use reads 0.

Each metric lists the end-to-end figure it should move, and on which
workload: a layer change is judged by that pairing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tracer import Tracer, self_times

__all__ = ["PER_LAYER", "per_layer_metrics"]

STAGES = ("submit", "queue_wait", "validate", "track", "batch_wait", "diagnose")

_SETUP = "setup_s on offline-paper and serve-*"
_PIPELINE = "run_s (pipeline_s) on offline-paper"

#: (name, unit, the end-to-end figure and workload it should move)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("datasets.genx.busy_s", "s", _SETUP),
    ("datasets.genx.sessions_per_s", "1/s", _SETUP),
    ("capture.reconstruction.busy_s", "s", "setup_s on offline-paper (encrypted corpus)"),
    ("capture.reconstruction.sessions_out", "count", "setup_s on offline-paper"),
    ("datasets.preparation.busy_s", "s", "setup_s on offline-paper"),
    ("core.featurex.busy_s", "s", f"{_PIPELINE}; diag_lag_p99_s on serve-paced"),
    ("core.featurex.rows", "count", f"{_PIPELINE}; diag_lag_p99_s on serve-paced"),
    ("core.featurex.cache_hit_ratio", "ratio", f"{_PIPELINE}; ~0 on serve-paced (per-batch hashing is dead work)"),
    ("ml.selection.cfs_busy_s", "s", f"{_PIPELINE}; setup_s on serve-*"),
    ("ml.forest.fit_busy_s", "s", f"{_PIPELINE}; setup_s on serve-*"),
    ("ml.forest.fits", "count", f"{_PIPELINE}; setup_s on serve-*"),
    ("ml.crossval.busy_s", "s", _PIPELINE),
    ("ml.crossval.folds", "count", _PIPELINE),
    ("ml.forest.predict_busy_s", "s", "diag_lag_p99_s on serve-paced (batched); prov_lag_p50_s on serve-early (single-row)"),
    ("ml.forest.predict_calls", "count", "diag_lag_p99_s on serve-paced; prov_lag_p50_s on serve-early"),
    ("ml.forest.rows_per_predict", "count", "diag_lag_p99_s on serve-paced; prov_lag_p50_s on serve-early"),
    ("timeseries.cusum.busy_s", "s", f"{_PIPELINE}; diag_lag_p99_s on serve-paced"),
    ("core.framework.diagnose_busy_s", "s", "diag_lag_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("core.framework.rows_per_call", "count", "diag_lag_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("realtime.tracker.busy_s", "s", "send_late_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("realtime.tracker.entries", "count", "send_late_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("realtime.tracker.sessions_closed", "count", "send_late_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("realtime.tracker.sessions_discarded", "count", "send_late_p99_s on serve-paced; entries_per_s on serve-burst"),
    ("online.early.predict_busy_s", "s", "prov_lag_p50_s, prov_lag_p99_s on serve-early"),
    ("online.early.predictions", "count", "prov_lag_p50_s, prov_lag_p99_s on serve-early"),
    ("online.snapshot.busy_s", "s", "prov_lag_p50_s, prov_lag_p99_s on serve-early"),
]
PER_LAYER += [
    (f"serving.stage.{stage}.{q}_s", "s", "diag_lag_p50_s, diag_lag_p99_s on serve-paced")
    for stage in STAGES
    for q in ("p50", "p99")
]
PER_LAYER += [
    ("serving.batcher.batch_size_mean", "count", "diag_lag_p50_s on serve-paced"),
    ("serving.batcher.deadline_share", "ratio", "diag_lag_p50_s on serve-paced"),
    ("serving.framing.frames", "count", "entries_per_s on serve-burst"),
    ("serving.framing.bytes", "count", "entries_per_s on serve-burst"),
    ("serving.framing.send_busy_s", "s", "entries_per_s on serve-burst"),
    ("serving.netshard.resent_entries", "count", "entries_per_s on serve-burst"),
    ("serving.netshard.reconnects", "count", "entries_per_s on serve-burst"),
    ("trace.spans", "count", "none: size of the span record"),
    ("trace.overhead_s", "s", "none: traced rep's setup_s + run_s minus the untraced reps' mean"),
]


def _ratio(num: float, den: Optional[float]) -> float:
    return num / den if den else 0.0


def _family_sum(registry, name: str, **match) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(
        child.value
        for labels, child in family.samples()
        if all(labels.get(k) == v for k, v in match.items())
    )


def _histogram(registry, name: str, **labels):
    family = registry.get(name)
    if family is None:
        return None
    for found, child in family.samples():
        if found == labels and child.count > 0:
            return child
    return None


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, from one traced window."""
    selfs, totals, _ = self_times(tracer.spans)
    counts = tracer.counts
    reg = tracer.registry

    def busy(layer: str) -> float:
        return selfs.get(layer, 0.0)

    hits = _family_sum(reg, "repro_features_cache_hits_total")
    misses = _family_sum(reg, "repro_features_cache_misses_total")
    batches = _family_sum(reg, "repro_serving_batches_total")
    batch_sizes = _histogram(reg, "repro_serving_batch_size")
    m = {
        "datasets.genx.busy_s": busy("datasets.genx"),
        "datasets.genx.sessions_per_s": _ratio(
            counts["datasets.genx.sessions"], totals.get("datasets.genx")
        ),
        "capture.reconstruction.busy_s": busy("capture.reconstruction"),
        "capture.reconstruction.sessions_out": counts["capture.reconstruction.sessions_out"],
        "datasets.preparation.busy_s": busy("datasets.preparation"),
        "core.featurex.busy_s": busy("core.featurex"),
        "core.featurex.rows": counts["core.featurex.rows"],
        "core.featurex.cache_hit_ratio": _ratio(hits, hits + misses),
        "ml.selection.cfs_busy_s": busy("ml.selection.cfs"),
        "ml.forest.fit_busy_s": busy("ml.forest.fit"),
        "ml.forest.fits": counts["ml.forest.fit.fits"],
        "ml.crossval.busy_s": busy("ml.crossval"),
        "ml.crossval.folds": counts["ml.crossval.folds"],
        "ml.forest.predict_busy_s": busy("ml.forest.predict"),
        "ml.forest.predict_calls": counts["ml.forest.predict.calls"],
        "ml.forest.rows_per_predict": _ratio(
            counts["ml.forest.predict.rows"], counts["ml.forest.predict.calls"]
        ),
        "timeseries.cusum.busy_s": busy("timeseries.cusum"),
        "core.framework.diagnose_busy_s": busy("core.framework.diagnose"),
        "core.framework.rows_per_call": _ratio(
            counts["core.framework.diagnose.rows"],
            counts["core.framework.diagnose.calls"],
        ),
        "realtime.tracker.busy_s": busy("realtime.tracker"),
        "realtime.tracker.entries": _family_sum(reg, "repro_realtime_entries_tracked_total"),
        "realtime.tracker.sessions_closed": _family_sum(reg, "repro_realtime_sessions_closed_total"),
        "realtime.tracker.sessions_discarded": _family_sum(reg, "repro_realtime_sessions_discarded_total"),
        "online.early.predict_busy_s": busy("online.early.predict"),
        "online.early.predictions": counts["online.early.predict.calls"],
        "online.snapshot.busy_s": busy("online.snapshot"),
        "serving.batcher.batch_size_mean": (
            batch_sizes.mean if batch_sizes is not None else 0.0
        ),
        "serving.batcher.deadline_share": _ratio(
            _family_sum(reg, "repro_serving_batches_total", reason="deadline"), batches
        ),
        "serving.framing.frames": _family_sum(reg, "repro_serving_net_frames_total"),
        "serving.framing.bytes": counts["serving.framing.bytes"],
        "serving.framing.send_busy_s": busy("serving.framing"),
        "serving.netshard.resent_entries": _family_sum(reg, "repro_serving_net_resent_entries_total"),
        "serving.netshard.reconnects": _family_sum(reg, "repro_serving_net_reconnects_total"),
        "trace.spans": float(len(tracer.spans)),
        "trace.overhead_s": overhead_s,
    }
    for stage in STAGES:
        child = _histogram(reg, "repro_serving_stage_seconds", stage=stage)
        for q, name in ((0.5, "p50"), (0.99, "p99")):
            m[f"serving.stage.{stage}.{name}_s"] = (
                child.quantile(q) if child is not None else 0.0
            )
    return m
