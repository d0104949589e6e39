"""Feature construction (§4.1, §4.2).

Stall model: "From the traffic features described in Section 3
(Table 1), we generate summary statistics, i.e. max, min, mean,
standard deviation, 25th, 50th and 75th percentiles for each of the
metrics, resulting in 70 new metrics." — 10 per-chunk metrics × 7
statistics.

Average-representation model: "in addition to the 10 features that are
already available in the dataset, we construct five new ones, i.e. the
chunk average size, the chunk size delta, the chunk time delta, the
average throughput and the throughput cumulative sum. [...] we have a
total of 14 features from which we extract [15 statistics]" — giving
210 features.  (The paper's 10+5=14 arithmetic works because *chunk
time* is superseded by *chunk time delta*; we follow that reading.)

Feature names use the paper's vocabulary ("chunk size min", "BDP mean",
"packet retransmissions max", "chunk Δsize max" …) so the experiment
tables read like Tables 2 and 5.

Two engines build the matrices (see :mod:`repro.core.featurex`): the
default ``"columnar"`` batch engine, and the ``"per-record"`` path in
this module, which stays as the bit-identical reference oracle and
escape hatch.  ``engine``/``n_jobs``/``cache`` never change a value —
only wall-clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.featurex.engine import ModelSpec, build_matrix as _engine_build
from repro.core.featurex.series import BASE_METRIC_FIELDS, batch_series
from repro.datasets.schema import SessionRecord
from repro.timeseries.stats import (
    SUMMARY_STATS_BASIC,
    SUMMARY_STATS_EXTENDED,
    summary_statistics,
)

__all__ = [
    "STALL_METRICS",
    "REPRESENTATION_METRICS",
    "stall_feature_names",
    "representation_feature_names",
    "stall_features",
    "representation_features",
    "build_stall_matrix",
    "build_representation_matrix",
    "get_model_spec",
]


def _relative_times(record: SessionRecord) -> np.ndarray:
    t = record.timestamps
    return t - t[0] if t.size else t


def _chunk_throughput_kbps(record: SessionRecord) -> np.ndarray:
    """Per-chunk achieved throughput (kbit/s)."""
    durations = np.maximum(record.transactions, 1e-3)
    return record.sizes * 8.0 / 1000.0 / durations


def _running_mean(values: np.ndarray) -> np.ndarray:
    if values.size == 0:
        return values
    return np.cumsum(values) / np.arange(1, values.size + 1)


#: Table-1 metrics available per chunk, stall-model set (10 metrics).
#: Reference definitions — the hot paths below compute shared base
#: series once per record instead of calling these one by one.
STALL_METRICS: Dict[str, Callable[[SessionRecord], np.ndarray]] = {
    "RTT minimum": lambda r: r.rtt_min,
    "RTT average": lambda r: r.rtt_avg,
    "RTT maximum": lambda r: r.rtt_max,
    "BDP": lambda r: r.bdp,
    "BIF avg": lambda r: r.bif_avg,
    "BIF maximum": lambda r: r.bif_max,
    "packet loss": lambda r: r.loss_pct,
    "packet retransmissions": lambda r: r.retx_pct,
    "chunk size": lambda r: r.sizes,
    "chunk time": _relative_times,
}

#: §4.2 metric set (14): chunk time replaced by its delta, plus the four
#: other constructed series.
REPRESENTATION_METRICS: Dict[str, Callable[[SessionRecord], np.ndarray]] = {
    "RTT minimum": lambda r: r.rtt_min,
    "RTT average": lambda r: r.rtt_avg,
    "RTT maximum": lambda r: r.rtt_max,
    "BDP": lambda r: r.bdp,
    "BIF avg": lambda r: r.bif_avg,
    "BIF maximum": lambda r: r.bif_max,
    "packet loss": lambda r: r.loss_pct,
    "packet retransmissions": lambda r: r.retx_pct,
    "chunk size": lambda r: r.sizes,
    "chunk avg size": lambda r: _running_mean(r.sizes),
    "chunk Δsize": lambda r: np.abs(np.diff(r.sizes)),
    "chunk Δt": lambda r: np.diff(_relative_times(r)),
    "throughput": _chunk_throughput_kbps,
    "cumsum throughput": lambda r: np.cumsum(_chunk_throughput_kbps(r)),
}


def _record_series(
    record: SessionRecord, metrics: Sequence[str]
) -> Dict[str, np.ndarray]:
    """The requested per-chunk series of one record.

    Base metrics are the record's own arrays; derived series are
    computed only when asked for, and ``_chunk_throughput_kbps`` is
    computed once for "throughput" and "cumsum throughput" instead of
    being re-derived per metric as the reference
    ``REPRESENTATION_METRICS`` lambdas would.
    """
    out: Dict[str, np.ndarray] = {}
    throughput = None
    for metric in metrics:
        field = BASE_METRIC_FIELDS.get(metric)
        if field is not None:
            out[metric] = getattr(record, field)
        elif metric == "chunk time":
            out[metric] = _relative_times(record)
        elif metric == "chunk avg size":
            out[metric] = _running_mean(record.sizes)
        elif metric == "chunk Δsize":
            out[metric] = np.abs(np.diff(record.sizes))
        elif metric == "chunk Δt":
            out[metric] = np.diff(_relative_times(record))
        elif metric in ("throughput", "cumsum throughput"):
            if throughput is None:
                throughput = _chunk_throughput_kbps(record)
            out[metric] = (
                throughput if metric == "throughput" else np.cumsum(throughput)
            )
        else:
            raise KeyError(f"unknown metric {metric!r}")
    return out


def _stall_record_series(record: SessionRecord) -> Dict[str, np.ndarray]:
    """The 10 stall-model series of one record."""
    return _record_series(record, tuple(STALL_METRICS))


def _representation_record_series(
    record: SessionRecord,
) -> Dict[str, np.ndarray]:
    """The 14 §4.2 series of one record."""
    return _record_series(record, tuple(REPRESENTATION_METRICS))


def _expand(
    series: Dict[str, np.ndarray], stats: Sequence[str]
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for metric_name, values in series.items():
        expanded = summary_statistics(values, stats=stats)
        for stat_name, value in expanded.items():
            out[f"{metric_name} {stat_name}"] = value
    return out


def stall_feature_names() -> List[str]:
    """The 70 stall-model feature names, in canonical order."""
    return [
        f"{metric} {stat}"
        for metric in STALL_METRICS
        for stat in SUMMARY_STATS_BASIC
    ]


def representation_feature_names() -> List[str]:
    """The 210 representation-model feature names, in canonical order."""
    return [
        f"{metric} {stat}"
        for metric in REPRESENTATION_METRICS
        for stat in SUMMARY_STATS_EXTENDED
    ]


def stall_features(record: SessionRecord) -> Dict[str, float]:
    """70 summary-statistic features of one session (stall model)."""
    return _expand(_stall_record_series(record), SUMMARY_STATS_BASIC)


def representation_features(record: SessionRecord) -> Dict[str, float]:
    """210 summary-statistic features of one session (representation model)."""
    return _expand(
        _representation_record_series(record), SUMMARY_STATS_EXTENDED
    )


_SPECS: Dict[str, ModelSpec] = {
    "stall": ModelSpec(
        name="stall",
        stats=tuple(SUMMARY_STATS_BASIC),
        metric_names=tuple(STALL_METRICS),
        feature_names=tuple(stall_feature_names()),
        record_series=_record_series,
        batch_series=batch_series,
    ),
    "representation": ModelSpec(
        name="representation",
        stats=tuple(SUMMARY_STATS_EXTENDED),
        metric_names=tuple(REPRESENTATION_METRICS),
        feature_names=tuple(representation_feature_names()),
        record_series=_record_series,
        batch_series=batch_series,
    ),
}


def get_model_spec(model: str) -> ModelSpec:
    """The engine spec of one feature model ("stall"/"representation")."""
    try:
        return _SPECS[model]
    except KeyError:
        raise KeyError(
            f"unknown feature model {model!r}; known: {', '.join(_SPECS)}"
        ) from None


def build_stall_matrix(
    records: Sequence[SessionRecord],
    engine: Optional[str] = None,
    n_jobs: Optional[int] = None,
    cache: bool = True,
    columns: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, List[str]]:
    """(n_sessions, 70) stall feature matrix + column names.

    ``engine`` selects the columnar batch engine (default) or the
    per-record oracle; ``n_jobs`` fans large builds out in row chunks;
    ``cache`` consults the content-addressed matrix cache.  All three
    only change wall-clock, never a value.  ``columns`` builds only
    those columns (``full[:, columns]``, with their names).
    """
    spec = _SPECS["stall"]
    matrix = _engine_build(
        records, spec, engine=engine, n_jobs=n_jobs, cache=cache,
        columns=columns,
    )
    return matrix, _names(spec, columns)


def build_representation_matrix(
    records: Sequence[SessionRecord],
    engine: Optional[str] = None,
    n_jobs: Optional[int] = None,
    cache: bool = True,
    columns: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, List[str]]:
    """(n_sessions, 210) representation feature matrix + column names.

    See :func:`build_stall_matrix` for the ``engine``/``n_jobs``/
    ``cache``/``columns`` knobs.
    """
    spec = _SPECS["representation"]
    matrix = _engine_build(
        records, spec, engine=engine, n_jobs=n_jobs, cache=cache,
        columns=columns,
    )
    return matrix, _names(spec, columns)


def _names(spec: ModelSpec, columns: Optional[Sequence[int]]) -> List[str]:
    if columns is None:
        return list(spec.feature_names)
    return [spec.feature_names[c] for c in columns]
