"""Columnar batch feature engine.

The per-record path in :mod:`repro.core.features` expands sessions one
at a time — a Python loop over N sessions × 14 metrics × 15 statistics,
each statistic a separate tiny-array NumPy call plus a dict build.  At
dataset scale (cross-validation folds, experiment sweeps, serving
batches) that loop, not the forest, is the hot path.

This package computes the same (N, 70) / (N, 210) matrices in a
handful of large array passes:

``ragged``
    Packs all sessions' per-chunk Table-1 series into flat ragged
    arrays (one concatenated value vector + offsets per metric) in
    length-sorted order, so every run of equal-length sessions reshapes
    into a dense C-contiguous ``(rows, n_chunks)`` block *view* — zero
    gather cost.
``series``
    Computes the derived series (Δsize, Δt, running mean, throughput,
    cumulative sums) on those dense blocks with the exact elementwise
    operations of the per-record extractors.
``stats``
    Evaluates all summary statistics block-wise with vectorised
    ``axis=1`` reductions and one fused multi-percentile call per
    metric block.
``cache``
    Content-addressed feature-matrix cache (sha256 over the packed
    record arrays + a feature-set version key): in-memory LRU plus an
    optional on-disk layer under the experiment workspace.
``engine``
    Orchestration: column plans (build only the columns a detector
    selected), engine selection (``"columnar"`` / ``"per-record"``),
    row-chunk fan-out through :mod:`repro.ml.parallel`, cache lookups,
    and :mod:`repro.obs` instrumentation.

Equality guarantee
------------------
The engine is **bit-identical** (``np.array_equal``) to the per-record
reference path, which stays available as the oracle.  The guarantee
rests on two facts, enforced by the property suite in
``tests/core/test_featurex.py``:

* NumPy's ``axis=-1`` reductions (``mean``/``std``/``min``/``max``/
  ``percentile``) over a C-contiguous row are computed by the same
  kernels, in the same order (including pairwise summation), as the
  corresponding whole-array call on that row.  Grouping sessions by
  chunk count therefore reproduces every per-session statistic down to
  the last ULP — which a naive ``np.add.reduceat`` over ragged offsets
  would *not* (reduceat accumulates strictly sequentially, pairwise
  summation does not).
* Rows containing non-finite values take a per-row fallback through
  the very same :func:`repro.timeseries.stats.summary_statistics` the
  per-record path uses, so the NaN/inf-filter and empty-series → 0.0
  rules are shared code, not a reimplementation.
* A column subset (``build_matrix(..., columns=c)``) equals
  ``full[:, c]``: it computes fewer metrics and statistics, but each
  statistic's value does not depend on which others are computed
  beside it — a smaller fused percentile call interpolates each point
  from the same order statistics.
"""

from .cache import (
    FEATURE_SET_VERSION,
    FeatureMatrixCache,
    batch_key,
    configure_cache,
    get_cache,
)
from .engine import (
    DEFAULT_ENGINE,
    ENGINES,
    ColumnPlan,
    ModelSpec,
    build_matrix,
    column_plan,
    record_row,
    get_default_engine,
    set_default_engine,
)
from .ragged import BASE_FIELDS, LengthGroup, RaggedBatch, pack_records

__all__ = [
    "BASE_FIELDS",
    "ColumnPlan",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FEATURE_SET_VERSION",
    "FeatureMatrixCache",
    "batch_key",
    "LengthGroup",
    "ModelSpec",
    "RaggedBatch",
    "build_matrix",
    "column_plan",
    "configure_cache",
    "get_cache",
    "get_default_engine",
    "pack_records",
    "record_row",
    "set_default_engine",
]
