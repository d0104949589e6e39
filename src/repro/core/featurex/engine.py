"""Build orchestration: engine selection, fan-out, caching, telemetry.

``build_matrix`` is the single entry point behind
``repro.core.features.build_stall_matrix`` /
``build_representation_matrix``.  It:

* resolves the engine (``"columnar"`` by default, ``"per-record"`` as
  the reference oracle / escape hatch; overridable per call, via
  :func:`set_default_engine`, or the ``REPRO_FEATURE_ENGINE``
  environment variable),
* builds only the columns a caller asks for (a fitted detector's
  selection): a :class:`ColumnPlan` names the metrics and statistics
  those columns read, and the full matrix is the plan over every
  column,
* consults the content-addressed cache (sha256 over the packed record
  arrays + feature-set version) before building anything,
* fans large builds out in row chunks through the
  :mod:`repro.ml.parallel` worker pool — every row is a pure function
  of its record, so the chunking never changes a value — and
* exports build latency/throughput and per-engine build counts through
  :mod:`repro.obs`.

Both engines produce bit-identical matrices; ``engine`` and ``n_jobs``
only change wall-clock, never a value.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.schema import SessionRecord
from repro.ml.parallel import block_ranges, effective_n_jobs, run_tasks
from repro.obs import get_registry, trace
from repro.timeseries.stats import summary_statistics

from .cache import batch_key, get_cache
from .ragged import RaggedBatch, pack_records
from .stats import padded_summary

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "ColumnPlan",
    "MetricRead",
    "ModelSpec",
    "build_matrix",
    "column_plan",
    "record_row",
    "get_default_engine",
    "set_default_engine",
]

#: Recognised engines; "per-record" is the reference oracle.
ENGINES: Tuple[str, ...] = ("columnar", "per-record")
DEFAULT_ENGINE = "columnar"

#: Below this many sessions a process pool costs more than it saves.
_PARALLEL_MIN_ROWS = 256
#: Row-chunk floor, so tiny blocks never dominate pool overhead.
_MIN_BLOCK_ROWS = 128

_REG = get_registry()
_BUILD_SECONDS = _REG.histogram(
    "repro_features_build_seconds",
    "Wall-clock time to build one feature matrix.",
    labelnames=("model",),
)
_ROWS_BUILT = _REG.counter(
    "repro_features_rows_total",
    "Session rows expanded into feature vectors.",
    labelnames=("model",),
)
_ROWS_PER_SECOND = _REG.gauge(
    "repro_features_last_rows_per_second",
    "Throughput of the most recent feature-matrix build.",
    labelnames=("model",),
)
_BUILDS = _REG.counter(
    "repro_features_builds_total",
    "Feature-matrix builds actually executed, by model and engine.",
    labelnames=("model", "engine"),
)

_default_engine = os.environ.get("REPRO_FEATURE_ENGINE", DEFAULT_ENGINE)


def get_default_engine() -> str:
    """The engine used when ``build_matrix`` is called without one."""
    return _default_engine


def set_default_engine(engine: str) -> None:
    """Set the process-wide default engine (e.g. from the CLI)."""
    global _default_engine
    if engine not in ENGINES:
        raise ValueError(
            f"unknown feature engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    _default_engine = engine


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Everything the engine needs to build one feature model.

    ``record_series`` is the per-record oracle (one session and the
    metric names in, the name → 1-D series mapping out);
    ``batch_series`` the batch twin producing padded metric blocks from
    padded base blocks.  ``feature_names`` is ``metric × stat`` in
    canonical column order.  Specs compare and hash by identity.
    """

    name: str
    stats: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    feature_names: Tuple[str, ...]
    record_series: Callable[
        [SessionRecord, Sequence[str]], Dict[str, np.ndarray]
    ]
    batch_series: Callable[
        [Mapping[str, np.ndarray], Sequence[str]], Dict[str, np.ndarray]
    ]


@dataclass(frozen=True)
class MetricRead:
    """The statistics one metric must supply to a column subset.

    ``stats`` are the statistics to compute, in the model's canonical
    order; output column ``columns[k]`` takes statistic
    ``column_stats[k]``.
    """

    metric: str
    stats: Tuple[str, ...]
    columns: Tuple[int, ...]
    column_stats: Tuple[str, ...]


@dataclass(frozen=True)
class ColumnPlan:
    """What building a column subset of one model reads.

    ``columns`` are the requested feature columns, in output order
    (repeats allowed, as in ``matrix[:, columns]``); ``reads`` lists
    the metrics they touch, in canonical order.  The full matrix is the
    plan over every column.
    """

    spec: ModelSpec
    columns: Tuple[int, ...]
    reads: Tuple[MetricRead, ...]

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def metrics(self) -> Tuple[str, ...]:
        return tuple(read.metric for read in self.reads)


def column_plan(
    spec: ModelSpec, columns: Optional[Sequence[int]] = None
) -> ColumnPlan:
    """The (memoised) plan of ``columns``; ``None`` is every column.

    Indices follow ``matrix[:, columns]``: negative ones count from the
    end, and one out of range raises ``IndexError``.
    """
    return _plan(spec, None if columns is None else tuple(columns))


@functools.lru_cache(maxsize=256)
def _plan(spec: ModelSpec, columns: Optional[Tuple[int, ...]]) -> ColumnPlan:
    width = len(spec.feature_names)
    if columns is None:
        columns = tuple(range(width))
    normalised = []
    for column in columns:
        column = operator.index(column)
        if not -width <= column < width:
            raise IndexError(
                f"column {column} is out of bounds for {width} "
                f"{spec.name} features"
            )
        normalised.append(column % width)
    n_stats = len(spec.stats)
    wanted: Dict[int, list] = {}   # metric index -> output positions
    for position, column in enumerate(normalised):
        wanted.setdefault(column // n_stats, []).append(position)
    reads = []
    for index in sorted(wanted):
        positions = wanted[index]
        column_stats = tuple(
            spec.stats[normalised[p] % n_stats] for p in positions
        )
        reads.append(
            MetricRead(
                metric=spec.metric_names[index],
                stats=tuple(s for s in spec.stats if s in column_stats),
                columns=tuple(positions),
                column_stats=column_stats,
            )
        )
    return ColumnPlan(
        spec=spec, columns=tuple(normalised), reads=tuple(reads)
    )


# ----------------------------------------------------------------------
# Engine bodies
# ----------------------------------------------------------------------


def _columnar_rows(batch: RaggedBatch, plan: ColumnPlan) -> np.ndarray:
    # Rows are built in the batch's length-sorted order and scattered
    # back to caller order once, at the end.
    ordered = np.zeros((batch.n_sessions, plan.width), dtype=np.float64)
    if batch.n_sessions == 0 or not plan.reads:
        return ordered
    series = plan.spec.batch_series(batch.padded, plan.metrics)
    lengths = batch.sorted_lengths
    blocks = [series[read.metric] for read in plan.reads]
    summaries = padded_summary(
        blocks,
        # A Δ series is one cell shorter than its session, and its
        # block one column narrower than the base blocks.
        [np.maximum(lengths - (batch.max_chunks - b.shape[1]), 0)
         for b in blocks],
        [read.stats for read in plan.reads],
    )
    for read, summary in zip(plan.reads, summaries):
        ordered[:, read.columns] = summary[
            :, [read.stats.index(s) for s in read.column_stats]
        ]
    out = np.empty_like(ordered)
    out[batch.order] = ordered
    return out


def _per_record_rows(
    records: Sequence[SessionRecord], plan: ColumnPlan
) -> np.ndarray:
    matrix = np.empty((len(records), plan.width), dtype=np.float64)
    for i, record in enumerate(records):
        series = plan.spec.record_series(record, plan.metrics)
        for read in plan.reads:
            values = summary_statistics(series[read.metric], stats=read.stats)
            matrix[i, read.columns] = [values[s] for s in read.column_stats]
    return matrix


def _build_rows(
    records: Sequence[SessionRecord],
    plan: ColumnPlan,
    engine: str,
    batch: Optional[RaggedBatch] = None,
) -> np.ndarray:
    if engine != "columnar":
        return _per_record_rows(records, plan)
    return _columnar_rows(batch or pack_records(records), plan)


def record_row(
    record: SessionRecord,
    spec: ModelSpec,
    columns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """One record's feature vector (or its ``columns``), per-record path.

    No cache, fan-out or telemetry: this is the streaming snapshot's
    exact regime, bit-identical to the row :func:`build_matrix` builds.
    """
    return _per_record_rows([record], column_plan(spec, columns))[0]


def _block_task(payload) -> np.ndarray:
    """One row-chunk build; module-level so it pickles into the pool."""
    model, engine, columns, records = payload
    # Lazy import: repro.core.features imports this module at load
    # time, so the spec registry is only reachable after import.
    from repro.core.features import get_model_spec

    return _build_rows(
        records, column_plan(get_model_spec(model), columns), engine
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_matrix(
    records: Sequence[SessionRecord],
    spec: ModelSpec,
    engine: Optional[str] = None,
    n_jobs: Optional[int] = None,
    cache: bool = True,
    columns: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Build the (N, F) feature matrix of a record batch.

    Parameters
    ----------
    engine:
        ``"columnar"`` or ``"per-record"``; ``None`` uses the process
        default.  Bit-identical output either way.
    n_jobs:
        Worker processes for row-chunk fan-out (``None``/1 serial,
        ``-1`` all cores).  Values are identical for any setting.
    cache:
        Consult/populate the content-addressed matrix cache.  Cached
        matrices are shared objects — treat them as read-only.
    columns:
        Build only these feature columns: the result equals
        ``build_matrix(records, spec)[:, columns]`` bit for bit, but
        only the metrics and statistics those columns read are
        computed.  With ``cache``, a cached full matrix is sliced; a
        miss builds the subset and caches nothing, since only full
        matrices are cached.
    """
    engine = engine or _default_engine
    if engine not in ENGINES:
        raise ValueError(
            f"unknown feature engine {engine!r}; known: {', '.join(ENGINES)}"
        )
    plan = column_plan(spec, columns)

    with trace("core.build_feature_matrix") as span:
        span.add("rows", len(records))

        batch: Optional[RaggedBatch] = None
        key: Optional[str] = None
        if cache and len(records) > 0:
            batch = pack_records(records)
            key = batch_key(batch, spec.name)
            cached = get_cache().get(key, spec.name)
            if cached is not None:
                span.add("cache_hits")
                return cached if columns is None else cached[:, plan.columns]
            if columns is not None:
                key = None   # only full matrices are cached

        started = time.perf_counter()
        jobs = min(effective_n_jobs(n_jobs), max(1, len(records)))
        parallel = jobs > 1 and len(records) >= _PARALLEL_MIN_ROWS
        ranges = (
            block_ranges(
                len(records),
                max(_MIN_BLOCK_ROWS, math.ceil(len(records) / jobs)),
            )
            if parallel
            else [(0, len(records))]
        )
        if engine == "columnar" and records:
            # Chunk cells against the padded cells each row chunk's
            # blocks hold: the padding overhead of this build.
            lengths = [record.n_chunks for record in records]
            span.add("cells", sum(lengths))
            span.add("padded_cells", sum(
                (stop - start) * max(lengths[start:stop])
                for start, stop in ranges
            ))
        if parallel:
            payloads = [
                (spec.name, engine, plan.columns, list(records[start:stop]))
                for start, stop in ranges
            ]
            parts = run_tasks(
                _block_task, payloads, n_jobs=jobs, task="featurex_build"
            )
            matrix = np.vstack(parts)
        else:
            matrix = _build_rows(records, plan, engine, batch=batch)
        elapsed = time.perf_counter() - started

    _BUILDS.labels(model=spec.name, engine=engine).inc()
    _BUILD_SECONDS.labels(model=spec.name).observe(elapsed)
    _ROWS_BUILT.labels(model=spec.name).inc(len(records))
    if elapsed > 0:
        _ROWS_PER_SECOND.labels(model=spec.name).set(len(records) / elapsed)
    if key is not None:
        get_cache().put(key, matrix)
    return matrix
