"""Content-addressed feature-matrix cache: in-memory LRU + disk layer.

A finished (N, F) feature matrix is a pure function of the record
batch's chunk arrays and the feature-set definition, so it is keyed by
content: sha256 over a feature-set version string, the model name, the
per-session chunk counts *in caller order*, and the packed per-field
flat vectors.  Hashing the length-sorted flat vectors plus the original
length sequence is injective — a permuted batch, an edited chunk value,
or an in-place record mutation all change the key, so stale hits are
impossible by construction.

Two layers:

* an in-memory LRU (bounded entry count; a hit returns the *same*
  ndarray object, treat it as read-only), and
* an optional on-disk layer (``.npy`` files under a directory, written
  atomically via ``tmp + os.replace``) so repeated experiment runs on
  an unchanged corpus skip the build entirely.  A corrupted or
  unreadable file is treated as a miss and rebuilt — never raised.

Hits and misses are exported through :mod:`repro.obs` as
``repro_features_cache_hits_total{model,layer}`` and
``repro_features_cache_misses_total{model}``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.obs import get_registry

from .ragged import BASE_FIELDS, RaggedBatch

__all__ = [
    "FEATURE_SET_VERSION",
    "FeatureMatrixCache",
    "batch_key",
    "configure_cache",
    "get_cache",
]

#: Bump when the feature definitions, statistics, or layout change —
#: it invalidates every previously cached matrix.
FEATURE_SET_VERSION = "repro.featurex/v1"

_REG = get_registry()
_HITS = _REG.counter(
    "repro_features_cache_hits_total",
    "Feature-matrix cache hits, by model and cache layer.",
    labelnames=("model", "layer"),
)
_MISSES = _REG.counter(
    "repro_features_cache_misses_total",
    "Feature-matrix cache misses (matrix rebuilt), by model.",
    labelnames=("model",),
)
_ENTRIES = _REG.gauge(
    "repro_features_cache_entries",
    "Feature matrices currently held by the in-memory LRU.",
)


def batch_key(batch: RaggedBatch, model: str) -> str:
    """Content hash of a packed record batch for one feature model."""
    digest = hashlib.sha256()
    digest.update(f"{FEATURE_SET_VERSION}|{model}|".encode())
    digest.update(np.ascontiguousarray(batch.lengths).tobytes())
    for field in BASE_FIELDS:
        digest.update(field.encode())
        digest.update(np.ascontiguousarray(batch.flat[field]).tobytes())
    return digest.hexdigest()


class FeatureMatrixCache:
    """Bounded LRU of finished feature matrices with a disk layer."""

    def __init__(
        self, capacity: int = 32, directory: Optional[str] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.directory = directory
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()

    # -- memory layer --------------------------------------------------

    def _memory_get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            matrix = self._entries.get(key)
            if matrix is not None:
                self._entries.move_to_end(key)
            return matrix

    def _memory_put(self, key: str, matrix: np.ndarray) -> None:
        with self._lock:
            self._entries[key] = matrix
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            _ENTRIES.set(len(self._entries))

    # -- disk layer ----------------------------------------------------

    def _path(self, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.npy")

    def _disk_get(self, key: str) -> Optional[np.ndarray]:
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            matrix = np.load(path, allow_pickle=False)
        except Exception:
            # Truncated/garbled file: a miss, never a crash.  The
            # rebuild overwrites it atomically.
            return None
        if matrix.ndim != 2:
            return None
        return matrix

    def _disk_put(self, key: str, matrix: np.ndarray) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, suffix=".npy.tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.save(handle, matrix, allow_pickle=False)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass   # a full/read-only disk must not fail the build

    # -- public API ----------------------------------------------------

    def get(self, key: str, model: str) -> Optional[np.ndarray]:
        """Look up a finished matrix; counts the hit/miss per layer."""
        matrix = self._memory_get(key)
        if matrix is not None:
            _HITS.labels(model=model, layer="memory").inc()
            return matrix
        matrix = self._disk_get(key)
        if matrix is not None:
            _HITS.labels(model=model, layer="disk").inc()
            self._memory_put(key, matrix)
            return matrix
        _MISSES.labels(model=model).inc()
        return None

    def put(self, key: str, matrix: np.ndarray) -> None:
        self._memory_put(key, matrix)
        self._disk_put(key, matrix)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            _ENTRIES.set(0)


_DEFAULT_CACHE = FeatureMatrixCache()


def get_cache() -> FeatureMatrixCache:
    """The process-wide default cache used by the build engine."""
    return _DEFAULT_CACHE


def configure_cache(
    directory: Optional[str] = None, capacity: Optional[int] = None
) -> FeatureMatrixCache:
    """Re-point the default cache's disk layer / resize its LRU.

    ``directory=None`` leaves the cache in-memory only.
    """
    if capacity is not None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        _DEFAULT_CACHE.capacity = capacity
    _DEFAULT_CACHE.directory = directory
    return _DEFAULT_CACHE
