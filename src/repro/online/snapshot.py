"""Partial-session feature snapshots from streaming accumulators.

A closed session's feature vector is built by
:mod:`repro.core.features` from the full chunk arrays.  An *open*
session cannot afford that — rebuilding 70/210 statistics from scratch
on every weblog entry is O(n) per entry, O(n²) per session.
:class:`StreamingSessionState` is the incremental twin: one
:class:`~repro.online.running.RunningStats` per §4.1/§4.2 metric
series, snapshotting feature vectors **in the same canonical order**
as ``stall_feature_names()`` / ``representation_feature_names()``.

**Feed cost.**  :meth:`StreamingSessionState.add_entry` is a single
list append — accumulator work is deferred until a snapshot is
actually requested, so a tracker that maintains streaming state but is
never asked for a partial vector pays (close to) nothing per entry.
Pending chunks are *folded* into the accumulators at snapshot time,
with the derived-series recurrences vectorised over the pending block;
between snapshots the pending list mirrors (and references) the
entries the tracker's own per-session buffer already holds, so the
memory order is unchanged.  With early prediction on, snapshots arrive
every ``predict_every`` chunks and the pending block stays that small.

**Exactness boundary.**  While the session is at or below
``exact_cutover`` chunks, no fold has happened yet and a snapshot
rebuilds a real :class:`~repro.datasets.schema.SessionRecord` from the
pending chunks and building its row through the per-record feature
path (:func:`~repro.core.featurex.engine.record_row`) — so exact-regime
partial vectors are *bit-identical* to the batch pipeline on the same
chunk prefix, including the record's sort-by-arrival normalisation.
Past the cutover, snapshots fold and assemble from the streaming
accumulators: min/max/mean stay exact, percentile positions become P²
estimates (see :mod:`repro.online.running`).

**Column subsets.**  Both vectors take the feature columns a fitted
detector selected and return ``full[columns]``, computing only the
series and statistics those columns read — in the exact regime and
when snapshotting the accumulators.  Folding still feeds every series,
so a later snapshot of any other column stays correct.

The derived-series recurrences mirror the batch definitions exactly:

* ``chunk time``   = ``arrival - t0`` (t0 = first chunk's arrival)
* ``chunk avg size`` = running mean of sizes
* ``chunk Δsize``  = ``|size - prev_size|``          (from chunk 2)
* ``chunk Δt``     = ``arrival - prev_arrival``      (from chunk 2)
* ``throughput``   = ``size * 8 / 1000 / max(transaction, 1e-3)``
* ``cumsum throughput`` = running sum of the above
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.capture.weblog import WeblogEntry
from repro.core.features import (
    REPRESENTATION_METRICS,
    STALL_METRICS,
    get_model_spec,
)
from repro.core.featurex.engine import ColumnPlan, column_plan, record_row
from repro.datasets.schema import SessionRecord
from repro.online.running import EXACT_CUTOVER, RunningStats
from repro.timeseries.stats import (
    SUMMARY_STATS_BASIC,
    SUMMARY_STATS_EXTENDED,
)

__all__ = ["StreamingSessionState", "state_from_record_prefix"]

#: Union of both models' metric series, canonical (stall-first) order.
_SERIES: Tuple[str, ...] = tuple(
    dict.fromkeys((*STALL_METRICS, *REPRESENTATION_METRICS))
)

#: Every percentile point either stat set requests — one P² estimator
#: per point per series covers both snapshots.
_PERCENTILE_POINTS: Tuple[float, ...] = tuple(
    sorted(
        {
            float(stat[1:])
            for stat in (*SUMMARY_STATS_BASIC, *SUMMARY_STATS_EXTENDED)
            if stat.startswith("p")
        }
    )
)

_STALL_SPEC = get_model_spec("stall")
_REPRESENTATION_SPEC = get_model_spec("representation")

#: Buffered per-chunk fields, in SessionRecord constructor order.
_CHUNK_FIELDS = (
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

#: A pending chunk: either the raw field tuple (in ``_CHUNK_FIELDS``
#: Table-1 order) or the weblog entry itself.  Storing the entry keeps
#: :meth:`StreamingSessionState.add_entry` down to one list append —
#: extracting eleven attributes per entry on the tracker hot path was
#: measurable; doing it lazily at fold time is not.
_Pending = Union[Tuple[float, ...], WeblogEntry]


def _as_row(item: _Pending) -> Tuple[float, ...]:
    if type(item) is tuple:
        return item
    return (
        item.arrival_s,
        float(item.object_bytes),
        item.transaction_s,
        item.rtt_min_ms,
        item.rtt_avg_ms,
        item.rtt_max_ms,
        item.bdp_bytes,
        item.bif_avg_bytes,
        item.bif_max_bytes,
        item.loss_pct,
        item.retx_pct,
    )


class StreamingSessionState:
    """Incremental feature state of one open session.

    Feed media chunks with :meth:`add_entry` (weblog entries) or
    :meth:`add_chunk` (raw fields, e.g. replaying a record prefix);
    read partial feature vectors with :meth:`stall_vector` /
    :meth:`representation_vector`.

    Parameters
    ----------
    exact_cutover:
        Chunk count up to which snapshots are bit-identical to the
        batch pipeline (see module docstring).  ``0`` streams from the
        first chunk.
    """

    __slots__ = (
        "n_chunks",
        "exact_cutover",
        "_stats",
        "_pending",
        "_folded",
        "_t0",
        "_size_sum",
        "_throughput_sum",
        "_prev_size",
        "_prev_arrival",
    )

    def __init__(self, exact_cutover: int = EXACT_CUTOVER) -> None:
        if exact_cutover < 0:
            raise ValueError("exact_cutover must be >= 0")
        self.n_chunks = 0
        self.exact_cutover = exact_cutover
        #: Built lazily at the first fold: 15 series × 11 P² estimators
        #: is a measurable allocation per *session*, and sessions that
        #: close inside the exact regime never need any of it.
        self._stats: Optional[Dict[str, RunningStats]] = None
        #: Chunks seen but not yet folded into the accumulators.
        self._pending: List[_Pending] = []
        #: Chunks already folded (never unfolds; 0 while ``exact``).
        self._folded = 0
        self._t0 = 0.0
        self._size_sum = 0.0
        self._throughput_sum = 0.0
        self._prev_size = 0.0
        self._prev_arrival = 0.0

    # ------------------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True while snapshots replay the full chunk prefix."""
        return self.exact_cutover > 0 and self.n_chunks <= self.exact_cutover

    def add_entry(self, entry: WeblogEntry) -> None:
        """Feed one media weblog entry (chunk arrives at ``arrival_s``).

        One list append — this sits on the tracker's per-entry hot
        path (``benchmarks/test_bench_online.py`` gates the overhead).
        """
        self._pending.append(entry)
        self.n_chunks += 1

    def add_chunk(
        self,
        arrival_s: float,
        size_bytes: float,
        transaction_s: float,
        rtt_min_ms: float,
        rtt_avg_ms: float,
        rtt_max_ms: float,
        bdp_bytes: float,
        bif_avg_bytes: float,
        bif_max_bytes: float,
        loss_pct: float,
        retx_pct: float,
    ) -> None:
        """Feed one chunk's Table-1 fields."""
        self._pending.append(
            (
                arrival_s,
                size_bytes,
                transaction_s,
                rtt_min_ms,
                rtt_avg_ms,
                rtt_max_ms,
                bdp_bytes,
                bif_avg_bytes,
                bif_max_bytes,
                loss_pct,
                retx_pct,
            )
        )
        self.n_chunks += 1

    # ------------------------------------------------------------------

    def _fold(self) -> None:
        """Fold the pending chunks into the per-series accumulators.

        The derived-series recurrences are vectorised over the block;
        running state (t0, size sum, throughput sum, previous chunk)
        carries across folds, so folding chunk-by-chunk and folding in
        one block feed the accumulators the identical value sequence.
        """
        if not self._pending:
            return
        if self._stats is None:
            self._stats = {
                name: RunningStats(
                    percentiles=_PERCENTILE_POINTS, exact_cutover=0
                )
                for name in _SERIES
            }
        block = np.array(
            [_as_row(item) for item in self._pending], dtype=float
        )
        self._pending.clear()
        (
            arrival,
            size,
            transaction,
            rtt_min,
            rtt_avg,
            rtt_max,
            bdp,
            bif_avg,
            bif_max,
            loss,
            retx,
        ) = block.T
        m = block.shape[0]
        if self._folded == 0:
            self._t0 = arrival[0]
            dsize = np.abs(np.diff(size))
            dt = np.diff(arrival)
        else:
            dsize = np.abs(
                size - np.concatenate(([self._prev_size], size[:-1]))
            )
            dt = arrival - np.concatenate(([self._prev_arrival], arrival[:-1]))
        size_cum = self._size_sum + np.cumsum(size)
        avg_size = size_cum / (self._folded + np.arange(1, m + 1))
        throughput = size * 8.0 / 1000.0 / np.maximum(transaction, 1e-3)
        throughput_cum = self._throughput_sum + np.cumsum(throughput)

        stats = self._stats
        stats["RTT minimum"].update_many(rtt_min)
        stats["RTT average"].update_many(rtt_avg)
        stats["RTT maximum"].update_many(rtt_max)
        stats["BDP"].update_many(bdp)
        stats["BIF avg"].update_many(bif_avg)
        stats["BIF maximum"].update_many(bif_max)
        stats["packet loss"].update_many(loss)
        stats["packet retransmissions"].update_many(retx)
        stats["chunk size"].update_many(size)
        stats["chunk time"].update_many(arrival - self._t0)
        stats["chunk avg size"].update_many(avg_size)
        if dsize.size:
            stats["chunk Δsize"].update_many(dsize)
            stats["chunk Δt"].update_many(dt)
        stats["throughput"].update_many(throughput)
        stats["cumsum throughput"].update_many(throughput_cum)

        self._folded += m
        self._size_sum = float(size_cum[-1])
        self._throughput_sum = float(throughput_cum[-1])
        self._prev_size = float(size[-1])
        self._prev_arrival = float(arrival[-1])

    def partial_record(
        self, session_id: str = "partial"
    ) -> Optional[SessionRecord]:
        """The chunk prefix as a real record (exact regime only)."""
        if not self.exact or not self._pending:
            return None
        columns = list(
            zip(*(_as_row(item) for item in self._pending))
        )
        return SessionRecord(
            session_id=session_id,
            encrypted=True,
            **{
                field: np.array(column, dtype=float)
                for field, column in zip(_CHUNK_FIELDS, columns)
            },
        )

    def _streamed_vector(self, plan: ColumnPlan) -> np.ndarray:
        self._fold()
        out = np.empty(plan.width, dtype=float)
        for read in plan.reads:
            snapshot = self._stats[read.metric].snapshot(read.stats)
            out[list(read.columns)] = [snapshot[s] for s in read.column_stats]
        return out

    def _vector(self, spec, columns: Optional[Sequence[int]]) -> np.ndarray:
        plan = column_plan(spec, columns)
        if self.n_chunks == 0:
            return np.zeros(plan.width, dtype=float)
        record = self.partial_record()
        if record is not None:
            return record_row(record, spec, plan.columns)
        return self._streamed_vector(plan)

    def stall_vector(
        self, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The 70-feature §4.1 vector of the session so far.

        Ordered exactly as
        :func:`~repro.core.features.stall_feature_names`; bit-identical
        to the batch pipeline on the same prefix while :attr:`exact`.
        ``columns`` returns only those features (``full[columns]``),
        computing only the series and statistics they read.
        """
        return self._vector(_STALL_SPEC, columns)

    def representation_vector(
        self, columns: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The 210-feature §4.2 vector of the session so far.

        Ordered exactly as :func:`~repro.core.features.
        representation_feature_names`; bit-identical to the batch
        pipeline on the same prefix while :attr:`exact`.  ``columns``
        as in :meth:`stall_vector`.
        """
        return self._vector(_REPRESENTATION_SPEC, columns)


def state_from_record_prefix(
    record: SessionRecord,
    n_chunks: int,
    exact_cutover: int = EXACT_CUTOVER,
) -> StreamingSessionState:
    """Replay the first ``n_chunks`` chunks of a record into fresh state.

    The offline counterpart of the tracker's live feed — used by the
    early-vs-final experiment to ask "what would the early predictor
    have said after k chunks of this (eventually closed) session?".
    """
    state = StreamingSessionState(exact_cutover=exact_cutover)
    stop = min(n_chunks, record.n_chunks)
    for i in range(stop):
        state.add_chunk(
            arrival_s=float(record.timestamps[i]),
            size_bytes=float(record.sizes[i]),
            transaction_s=float(record.transactions[i]),
            rtt_min_ms=float(record.rtt_min[i]),
            rtt_avg_ms=float(record.rtt_avg[i]),
            rtt_max_ms=float(record.rtt_max[i]),
            bdp_bytes=float(record.bdp[i]),
            bif_avg_bytes=float(record.bif_avg[i]),
            bif_max_bytes=float(record.bif_max[i]),
            loss_pct=float(record.loss_pct[i]),
            retx_pct=float(record.retx_pct[i]),
        )
    return state
