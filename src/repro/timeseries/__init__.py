"""Time-series substrate: CUSUM change detection, summary statistics,
ECDFs and the paper's Δsize × Δt switch signal."""

from .cusum import (
    CusumResult,
    cusum_score,
    cusum_scores,
    cusum_series,
    detect_changes,
)
from .detection import (
    DEFAULT_STARTUP_SKIP_S,
    delta_series,
    product_series,
    switch_score,
    switch_scores,
)
from .stats import (
    SUMMARY_STATS_BASIC,
    SUMMARY_STATS_EXTENDED,
    Ecdf,
    ecdf,
    pooled_moments,
    summary_statistics,
)

__all__ = [
    "CusumResult",
    "cusum_series",
    "cusum_score",
    "cusum_scores",
    "detect_changes",
    "delta_series",
    "product_series",
    "switch_score",
    "switch_scores",
    "DEFAULT_STARTUP_SKIP_S",
    "SUMMARY_STATS_BASIC",
    "SUMMARY_STATS_EXTENDED",
    "summary_statistics",
    "pooled_moments",
    "Ecdf",
    "ecdf",
]
