"""Batch twins of the per-record metric extractors.

:func:`batch_series` takes a batch's zero-padded ``(rows, max_chunks)``
base blocks (:meth:`~repro.core.featurex.ragged.RaggedBatch.padded`)
and returns the metric-name → block mapping for the requested metrics
only, with each derived series computed by the *same elementwise
operations, in the same order*, as the per-record extractors in
:mod:`repro.core.features` — e.g. ``chunk Δt`` is ``diff(t - t[0])``,
not the algebraically equal but differently-rounded ``diff(t)``.  The
valid cells of row ``i`` — its first ``n_i`` cells, or ``n_i - 1`` for
the two Δ series, whose blocks are one column narrower — are
bit-identical to the per-record extractor applied to session ``i``:
``np.cumsum`` along the last axis accumulates sequentially per row,
exactly like the 1-D call, everything else is elementwise, and no
valid cell reads a pad.

Both feature models draw on one metric vocabulary (the stall model's
``chunk time`` and the §4.2 model's constructed series included), so
one builder serves both; a model asks for its own metric names.

The per-record reference (:func:`~repro.core.featurex.engine.reference_rows`)
reads the ``STALL_METRICS`` / ``REPRESENTATION_METRICS`` tables
directly, and the engine-equality tests compare the two paths row for
row, so this twin cannot drift from the tables silently.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

__all__ = ["BASE_METRIC_FIELDS", "batch_series"]

#: Table-1 metrics that are a base field as it stands.
BASE_METRIC_FIELDS: Dict[str, str] = {
    "RTT minimum": "rtt_min",
    "RTT average": "rtt_avg",
    "RTT maximum": "rtt_max",
    "BDP": "bdp",
    "BIF avg": "bif_avg",
    "BIF maximum": "bif_max",
    "packet loss": "loss_pct",
    "packet retransmissions": "retx_pct",
    "chunk size": "sizes",
}


def _relative_times(base: Mapping[str, np.ndarray]) -> np.ndarray:
    t = base["timestamps"]
    return t - t[:, :1]


def _throughput_kbps(base: Mapping[str, np.ndarray]) -> np.ndarray:
    durations = np.maximum(base["transactions"], 1e-3)
    return base["sizes"] * 8.0 / 1000.0 / durations


def _running_mean(values: np.ndarray) -> np.ndarray:
    n = values.shape[1]
    return np.cumsum(values, axis=1) / np.arange(1, n + 1, dtype=np.float64)


def batch_series(
    base: Mapping[str, np.ndarray], metrics: Sequence[str]
) -> Dict[str, np.ndarray]:
    """The requested metric blocks of a padded batch.

    ``base`` maps a base field to its padded block; only the fields
    the requested metrics read are looked up, so a lazy mapping such as
    :attr:`RaggedBatch.padded` builds no others.  Base metrics are the
    base blocks themselves; derived ones are computed only when asked
    for, and the throughput block is shared by ``throughput`` and
    ``cumsum throughput`` as on the per-record path.
    """
    out: Dict[str, np.ndarray] = {}
    throughput = None
    for metric in metrics:
        field = BASE_METRIC_FIELDS.get(metric)
        if field is not None:
            out[metric] = base[field]
        elif metric == "chunk time":
            out[metric] = _relative_times(base)
        elif metric == "chunk avg size":
            out[metric] = _running_mean(base["sizes"])
        elif metric == "chunk Δsize":
            out[metric] = np.abs(np.diff(base["sizes"], axis=1))
        elif metric == "chunk Δt":
            out[metric] = np.diff(_relative_times(base), axis=1)
        elif metric in ("throughput", "cumsum throughput"):
            if throughput is None:
                throughput = _throughput_kbps(base)
            out[metric] = (
                throughput
                if metric == "throughput"
                else np.cumsum(throughput, axis=1)
            )
        else:
            raise KeyError(f"unknown metric {metric!r}")
    return out
