"""Columnar batch feature engine.

The per-record path in :mod:`repro.core.features` expands sessions one
at a time — a Python loop over N sessions × 14 metrics × 15 statistics,
each statistic a separate tiny-array NumPy call plus a dict build.  At
dataset scale (cross-validation folds, experiment sweeps, serving
batches) that loop, not the forest, is the hot path.

This package computes the same (N, 70) / (N, 210) matrices in a
handful of large array passes:

``ragged``
    Packs the sessions' per-chunk Table-1 series into flat ragged
    arrays (one concatenated value vector + offsets per base field) in
    length-sorted order, and lays a field out as one zero-padded
    ``(sessions, max_chunks)`` block for the whole batch; a field is
    packed when it is first read.
``series``
    Computes the derived series (Δsize, Δt, running mean, throughput,
    cumulative sums) on those padded blocks with the exact elementwise
    operations of the per-record extractors.
``stats``
    Evaluates all summary statistics of all metrics at once: order
    statistics from one row sort (a replica of ``np.percentile``'s
    linear method over the sorted rows) and moments pooled by valid
    length.
``cache``
    Content-addressed feature-matrix cache (sha256 over the packed
    record arrays + a feature-set version key): in-memory LRU plus an
    optional on-disk layer under the experiment workspace.
``engine``
    Orchestration: column plans (build only the columns a detector
    selected), row-chunk fan-out through :mod:`repro.ml.parallel`,
    cache lookups, and :mod:`repro.obs` instrumentation.
    :func:`~repro.core.featurex.engine.build_matrix` always runs the
    columnar engine; :func:`~repro.core.featurex.engine.reference_rows`
    is the per-record reference path.

Equality guarantee
------------------
The engine is **bit-identical** (``np.array_equal``) to
:func:`~repro.core.featurex.engine.reference_rows`, which the tests
call by name as the oracle.  The guarantee
rests on these facts, enforced by the property suites in
``tests/core/test_featurex.py`` and ``tests/timeseries/test_stats.py``:

* Padding never reaches a valid cell: every derived series is
  elementwise or a row-prefix ``cumsum``, and each metric row has a
  valid length (``n`` chunks, ``n - 1`` for the Δ series).
* Order statistics are read off sorted rows, and the percentile
  replica performs ``np.percentile``'s floating-point operations in its
  order, so it is byte-equal to it.
* NumPy's ``axis=-1`` reductions over a C-contiguous row are computed
  by the same kernels, in the same order (including pairwise
  summation), as the whole-array call on that row.  Moments therefore
  run over one block per distinct valid length — which a naive
  ``np.add.reduceat`` over ragged offsets, or a reduction over
  zero-padded rows, would *not* reproduce to the last ULP.
* Rows containing non-finite values take a per-row fallback through
  the very same :func:`repro.timeseries.stats.summary_statistics` the
  per-record path uses, so the NaN/inf-filter and empty-series → 0.0
  rules are shared code, not a reimplementation.
* A column subset (``build_matrix(..., columns=c)``) equals
  ``full[:, c]``: it computes fewer metrics and statistics, but each
  statistic's value does not depend on which others are computed
  beside it.
"""

from .cache import (
    FEATURE_SET_VERSION,
    FeatureMatrixCache,
    batch_key,
    configure_cache,
    get_cache,
)
from .engine import (
    ColumnPlan,
    ModelSpec,
    build_matrix,
    column_plan,
    record_row,
    reference_rows,
)
from .ragged import BASE_FIELDS, RaggedBatch, pack_records

__all__ = [
    "BASE_FIELDS",
    "ColumnPlan",
    "FEATURE_SET_VERSION",
    "FeatureMatrixCache",
    "batch_key",
    "ModelSpec",
    "RaggedBatch",
    "build_matrix",
    "column_plan",
    "configure_cache",
    "get_cache",
    "pack_records",
    "record_row",
    "reference_rows",
]
