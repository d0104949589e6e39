"""Ragged batch layout: flat value vectors + offsets, padded on demand.

A batch of N sessions with heterogeneous chunk counts is packed, per
Table-1 base field, into one flat float64 vector holding every
session's chunks back to back — in *length-sorted* session order.  The
original row order is retained alongside, so results scatter back
exactly where the caller expects them.

Fields are packed on first lookup: :attr:`RaggedBatch.flat` and
:attr:`RaggedBatch.padded` are field-name mappings that build and keep
a field when it is first read, so a build touches only the fields its
metrics read, while the cache key reads all of them.
:attr:`RaggedBatch.padded` lays one field out as a zero-padded
``(n_sessions, max_chunks)`` block, row ``i`` holding sorted session
``i``'s chunks in its first ``n_i`` cells.  Every derived series is
elementwise or a row-prefix ``cumsum`` of such blocks, so padding never
reaches a valid cell, and every statistic is computed over the whole
batch at once (see :mod:`repro.core.featurex.stats`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.datasets.schema import SessionRecord

__all__ = ["BASE_FIELDS", "RaggedBatch", "pack_records"]

#: The eleven per-chunk base arrays of :class:`SessionRecord` (Table 1,
#: left column) — everything the derived series are computed from.
BASE_FIELDS: Tuple[str, ...] = (
    "timestamps",
    "sizes",
    "transactions",
    "rtt_min",
    "rtt_avg",
    "rtt_max",
    "bdp",
    "bif_avg",
    "bif_max",
    "loss_pct",
    "retx_pct",
)


class _FieldMemo(dict):
    """Field name → array, each built by ``make(field)`` on first lookup."""

    def __init__(self, make: Callable[[str], np.ndarray]):
        super().__init__()
        self._make = make

    def __missing__(self, field: str) -> np.ndarray:
        value = self[field] = self._make(field)
        return value


@dataclass(frozen=True, eq=False)
class RaggedBatch:
    """Length-sorted columnar packing of a record batch.

    Attributes
    ----------
    lengths:
        Chunk count per session, in the caller's original order.
    offsets:
        ``(n_sessions + 1,)`` segment boundaries into each flat vector
        (shared by all fields), in length-sorted order.
    order:
        ``order[i]`` is the original row index of sorted position
        ``i`` (a stable sort, so equal lengths keep input order).
    records:
        The sessions, in length-sorted order.
    """

    lengths: np.ndarray
    offsets: np.ndarray
    order: np.ndarray
    records: Tuple[SessionRecord, ...]

    @property
    def n_sessions(self) -> int:
        return int(self.lengths.size)

    @property
    def total_chunks(self) -> int:
        return int(self.offsets[-1]) if self.offsets.size else 0

    @functools.cached_property
    def sorted_lengths(self) -> np.ndarray:
        """Chunk count per session, in length-sorted order."""
        return self.lengths[self.order]

    @property
    def max_chunks(self) -> int:
        return int(self.sorted_lengths[-1]) if self.n_sessions else 0

    @functools.cached_property
    def _valid(self) -> np.ndarray:
        return np.arange(self.max_chunks) < self.sorted_lengths[:, None]

    @functools.cached_property
    def flat(self) -> _FieldMemo:
        """Base field → its concatenated float64 vector, sessions in
        length-sorted order."""
        return _FieldMemo(self._concatenate)

    @functools.cached_property
    def padded(self) -> _FieldMemo:
        """Base field → its zero-padded ``(n_sessions, max_chunks)`` block.

        Rows are in length-sorted order; row ``i`` holds its
        ``sorted_lengths[i]`` chunks first, then zeros.  Blocks are
        shared between readers: treat them as read-only.
        """
        return _FieldMemo(self._pad)

    def _concatenate(self, field: str) -> np.ndarray:
        if not self.records:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [getattr(record, field) for record in self.records],
            dtype=np.float64,
        )

    def _pad(self, field: str) -> np.ndarray:
        block = np.zeros(self._valid.shape, dtype=np.float64)
        block[self._valid] = self.flat[field]
        return block


def pack_records(records: Sequence[SessionRecord]) -> RaggedBatch:
    """Pack a record batch into the length-sorted layout."""
    lengths = np.array([r.n_chunks for r in records], dtype=np.int64)
    order = np.argsort(lengths, kind="stable")
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths[order], out=offsets[1:])
    return RaggedBatch(
        lengths=lengths,
        offsets=offsets,
        order=order,
        records=tuple(records[i] for i in order),
    )
