"""Experiment configuration presets.

``FULL`` is the default for the benchmark harness (big enough for
stable paper-shaped numbers); ``SMALL`` keeps integration tests fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ExperimentConfig", "FULL", "SMALL"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizes and seeds of one full experiment run.

    Attributes
    ----------
    cleartext_sessions:
        Size of the §3.1-style operator corpus (stall experiments).
    adaptive_sessions:
        Size of the all-HAS corpus (representation / switching).
    encrypted_sessions:
        Size of the §5.2 instrumented-device corpus (722 in the paper).
    seed:
        Base seed; each corpus derives its own stream from it.
    n_estimators:
        Forest size for the two classifiers.
    n_jobs:
        Worker processes for forest fitting, CV folds, and
        feature builds (1 serial, -1 all cores).  Results are identical
        for any value — only wall-clock changes.
    feature_cache_dir:
        Directory of the on-disk feature-matrix cache, so repeated runs
        on an unchanged corpus skip the feature builds entirely;
        ``None`` (the default) keeps caching in-memory only.
    """

    cleartext_sessions: int = 3000
    adaptive_sessions: int = 1200
    encrypted_sessions: int = 722
    seed: int = 7
    n_estimators: int = 60
    n_jobs: int = 1
    feature_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if min(
            self.cleartext_sessions,
            self.adaptive_sessions,
            self.encrypted_sessions,
        ) < 10:
            raise ValueError("corpora must have at least 10 sessions")
        if self.n_jobs == 0:
            raise ValueError("n_jobs must not be 0 (use 1 for serial)")


FULL = ExperimentConfig()

SMALL = ExperimentConfig(
    cleartext_sessions=400,
    adaptive_sessions=250,
    encrypted_sessions=150,
    seed=7,
    n_estimators=25,
)
