"""Shared lazy workspace for experiment runs.

Corpus generation and model training dominate experiment runtime, and
several tables/figures share the same artifacts (e.g. Tables 3, 4 and
8, 9 all need the fitted stall detector).  A :class:`Workspace` builds
each artifact once on first use and caches it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type, TypeVar

import numpy as np

from repro.baselines.prometheus import PrometheusBaseline
from repro.core.detector import ForestDetector
from repro.core.featurex import configure_cache
from repro.core.labeling import has_variation
from repro.core.representation import AvgRepresentationDetector
from repro.core.stall import StallDetector
from repro.core.switching import SwitchDetector
from repro.datasets.generate import (
    Corpus,
    generate_adaptive_corpus,
    generate_cleartext_corpus,
    generate_encrypted_corpus,
)
from repro.datasets.schema import SessionRecord

from .config import FULL, ExperimentConfig

__all__ = ["Workspace"]

D = TypeVar("D", bound=ForestDetector)


class Workspace:
    """Caches corpora and fitted detectors for one experiment config."""

    def __init__(self, config: ExperimentConfig = FULL) -> None:
        self.config = config
        self._cache: Dict[str, object] = {}
        # Always re-point the disk layer, so a directory one workspace
        # set never outlives it into the next.
        configure_cache(directory=config.feature_cache_dir)

    # ------------------------------------------------------------------
    # Corpora
    # ------------------------------------------------------------------

    def cleartext_corpus(self) -> Corpus:
        """The §3.1 operator corpus (97% progressive, cleartext)."""
        if "cleartext" not in self._cache:
            self._cache["cleartext"] = generate_cleartext_corpus(
                self.config.cleartext_sessions,
                seed=self.config.seed,
            )
        return self._cache["cleartext"]

    def adaptive_corpus(self) -> Corpus:
        """The all-HAS cleartext corpus (representation/switching)."""
        if "adaptive" not in self._cache:
            self._cache["adaptive"] = generate_adaptive_corpus(
                self.config.adaptive_sessions,
                seed=self.config.seed + 1,
            )
        return self._cache["adaptive"]

    def encrypted_corpus(self) -> Corpus:
        """The §5.2 instrumented-device corpus (encrypted)."""
        if "encrypted" not in self._cache:
            self._cache["encrypted"] = generate_encrypted_corpus(
                self.config.encrypted_sessions,
                seed=self.config.seed + 2,
            )
        return self._cache["encrypted"]

    # ------------------------------------------------------------------
    # Prepared record views
    # ------------------------------------------------------------------

    def stall_records(self) -> List[SessionRecord]:
        """Cleartext records with stall ground truth (§4.1 training set)."""
        return self.cleartext_corpus().records_with_stall_truth()

    def representation_records(self) -> List[SessionRecord]:
        """Adaptive records with resolution ground truth (§4.2/§4.3)."""
        return self.adaptive_corpus().records_with_representation_truth()

    def encrypted_stall_records(self) -> List[SessionRecord]:
        return self.encrypted_corpus().records_with_stall_truth()

    def encrypted_representation_records(self) -> List[SessionRecord]:
        return self.encrypted_corpus().records_with_representation_truth()

    # ------------------------------------------------------------------
    # Fitted detectors
    # ------------------------------------------------------------------

    def _fitted(
        self,
        key: str,
        cls: Type[D],
        records: Callable[[], List[SessionRecord]],
    ) -> D:
        """``cls`` fitted on ``records()`` under this config, built once."""
        if key not in self._cache:
            self._cache[key] = cls(
                n_estimators=self.config.n_estimators,
                random_state=self.config.seed,
                n_jobs=self.config.n_jobs,
            ).fit(records())
        return self._cache[key]

    def stall_detector(self) -> StallDetector:
        return self._fitted("stall_detector", StallDetector, self.stall_records)

    def representation_detector(self) -> AvgRepresentationDetector:
        return self._fitted(
            "representation_detector",
            AvgRepresentationDetector,
            self.representation_records,
        )

    def switch_detector(self) -> SwitchDetector:
        """Switch detector calibrated on the cleartext HAS corpus (§4.3)."""
        if "switch_detector" not in self._cache:
            detector = SwitchDetector()
            records = self.representation_records()
            truth = np.array([has_variation(r) for r in records])
            if truth.any() and not truth.all():
                detector.calibrate(records, truth)
            self._cache["switch_detector"] = detector
        return self._cache["switch_detector"]

    def prometheus_baseline(self) -> PrometheusBaseline:
        return self._fitted("prometheus", PrometheusBaseline, self.stall_records)
