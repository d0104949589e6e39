"""Whole-batch summary statistics, bit-identical to the per-record path.

Every metric of a batch arrives as one zero-padded ``(rows, width)``
block plus each row's valid length; the statistics of all metrics are
then computed in a few array calls, whatever the mix of lengths:

* **Order statistics** (``min``, ``max``, percentiles) come from one
  sort.  The rows of every metric that needs one stack into a single
  block, pads become ``+inf``, and ``np.sort(axis=1)`` leaves each
  row's valid cells, sorted, in front.  ``min`` is column 0, ``max``
  the row's last valid cell, and every percentile is
  :func:`sorted_order_statistics`' replica of ``np.percentile``'s
  ``method="linear"``.
* **Moments** (``mean``, ``std``) are pooled by valid length through
  :func:`repro.timeseries.stats.pooled_moments`: one C-contiguous block
  per distinct length, reduced along ``axis=1`` by NumPy's 1-D kernel
  and pairwise order.

Rows holding a non-finite value cannot take either path — the
per-record semantics drop NaN/inf *per metric* before computing — so
they fall back, row by row, to ``summary_statistics`` itself: the
filter and the empty-series → 0.0 rule stay shared code.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.timeseries.stats import pooled_moments, summary_statistics

__all__ = ["padded_summary", "sorted_order_statistics"]

_MOMENTS = ("mean", "std")


def _is_moment(stat: str) -> bool:
    return stat in _MOMENTS


def _is_order_stat(stat: str) -> bool:
    return stat not in _MOMENTS


def sorted_order_statistics(
    ordered: np.ndarray, lengths: np.ndarray, stats: Sequence[str]
) -> np.ndarray:
    """``min``/``max``/percentiles of rows already sorted ascending.

    Row ``i`` of ``ordered`` holds its ``lengths[i] >= 1`` valid values,
    sorted, in its first cells; later cells are never read.  Returns a
    ``(rows, len(stats))`` array equal bit for bit to ``np.min``,
    ``np.max`` and ``np.percentile`` of each row's valid values.

    Percentiles replicate NumPy's ``method="linear"``: the virtual
    index ``(n - 1) * (q / 100)``, its floor and the next index, with
    any index at or past ``n - 1`` meaning "the last value" (NumPy's
    ``-1``, which also sets the weight to ``virtual + 1``), then
    ``_lerp``: ``a + (b - a) * t``, replaced by ``b - (b - a) * (1 - t)``
    where ``t >= 0.5``.
    """
    rows = np.arange(lengths.size)
    last = lengths - 1
    out = np.empty((lengths.size, len(stats)), dtype=np.float64)
    percentiles = [s for s in stats if s.startswith("p")]
    if percentiles:
        q = np.true_divide([float(s[1:]) for s in percentiles], 100)
        virtual = last[:, None] * q
        previous = np.floor(virtual).astype(np.intp)
        above = virtual >= last[:, None]
        previous[above] = -1
        weight = virtual - previous
        previous = np.where(above, last[:, None], previous)
        following = np.where(above, previous, previous + 1)
        a = ordered[rows[:, None], previous]
        b = ordered[rows[:, None], following]
        span = b - a
        points = a + span * weight
        upper = weight >= 0.5
        points[upper] = (b - span * (1 - weight))[upper]
    for col, stat in enumerate(stats):
        if stat == "min":
            out[:, col] = ordered[:, 0]
        elif stat == "max":
            out[:, col] = ordered[rows, last]
        elif stat.startswith("p"):
            out[:, col] = points[:, percentiles.index(stat)]
        else:
            raise ValueError(f"unknown statistic: {stat!r}")
    return out


def _stack(
    blocks: Sequence[np.ndarray], members: Sequence[int], width: int
) -> np.ndarray:
    """The rows of ``blocks[members]`` as one ``(k * rows, width)`` block.

    Cells past a block's own width are left uninitialised: both
    kernels read only valid cells (the order path overwrites padding
    with ``+inf`` first).
    """
    n_rows = blocks[members[0]].shape[0]
    stack = np.empty((len(members) * n_rows, width), dtype=np.float64)
    for k, i in enumerate(members):
        stack[k * n_rows:(k + 1) * n_rows, :blocks[i].shape[1]] = blocks[i]
    return stack


def _order_values(
    stack: np.ndarray, lengths: np.ndarray, stats: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Order statistics of every finite row, and the non-finite mask."""
    stack[np.arange(stack.shape[1]) >= lengths[:, None]] = np.inf
    stack.sort(axis=1)
    values = np.zeros((lengths.size, len(stats)), dtype=np.float64)
    bad = np.zeros(lengths.size, dtype=bool)
    rows = np.flatnonzero(lengths > 0)
    if rows.size == 0:
        # Every row empty (the 0.0 rule); the stack may have no column.
        return values, bad
    # Sorted, a row is all-finite iff its first and last valid cells
    # are: -inf sorts first, +inf last, and NaN after the +inf padding,
    # pushing a pad into the last valid cell.
    bad[rows] = ~(
        np.isfinite(stack[rows, 0])
        & np.isfinite(stack[rows, lengths[rows] - 1])
    )
    clean = rows[~bad[rows]]
    values[clean] = sorted_order_statistics(
        stack[clean], lengths[clean], stats
    )
    return values, bad


def _moment_values(
    stack: np.ndarray, lengths: np.ndarray, stats: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Moments of every row, and the mask of rows that need the fallback."""
    moments = pooled_moments(stack, lengths, stats)
    values = np.stack([moments[stat] for stat in stats], axis=1)
    # A non-finite cell makes every moment of its row non-finite; so
    # does an overflow, which the fallback recomputes to the same value.
    return values, ~np.isfinite(values[:, 0])


def padded_summary(
    blocks: Sequence[np.ndarray],
    lengths: Sequence[np.ndarray],
    stats: Sequence[Sequence[str]],
) -> List[np.ndarray]:
    """Summary statistics of every row of several padded metric blocks.

    ``blocks[j]`` is a ``(rows, width_j)`` metric block whose row ``i``
    holds ``lengths[j][i]`` valid cells; ``stats[j]`` names the
    statistics it needs.  Returns one ``(rows, len(stats[j]))`` array
    per block whose row ``i`` equals
    ``[summary_statistics(blocks[j][i, :lengths[j][i]], stats[j])[s]
    for s in stats[j]]`` bit for bit.
    """
    out = [np.zeros((b.shape[0], len(s)), dtype=np.float64)
           for b, s in zip(blocks, stats)]
    if not blocks or blocks[0].shape[0] == 0:
        return out
    n_rows = blocks[0].shape[0]
    width = max(b.shape[1] for b in blocks)
    dirty = [np.zeros(n_rows, dtype=bool) for _ in blocks]

    for is_wanted, kernel in (
        (_is_order_stat, _order_values),
        (_is_moment, _moment_values),
    ):
        members = [j for j, s in enumerate(stats) if any(map(is_wanted, s))]
        if not members:
            continue
        wanted = list(dict.fromkeys(
            s for j in members for s in stats[j] if is_wanted(s)
        ))
        values, bad = kernel(
            _stack(blocks, members, width),
            np.concatenate([lengths[j] for j in members]),
            wanted,
        )
        for k, j in enumerate(members):
            part = slice(k * n_rows, (k + 1) * n_rows)
            cols = [c for c, s in enumerate(stats[j]) if is_wanted(s)]
            out[j][:, cols] = values[part][
                :, [wanted.index(stats[j][c]) for c in cols]
            ]
            dirty[j] |= bad[part]

    for j, rows in enumerate(dirty):
        for row in np.flatnonzero(rows):
            row_stats = summary_statistics(
                blocks[j][row, :lengths[j][row]], stats=stats[j]
            )
            out[j][row] = [row_stats[s] for s in stats[j]]
    return out
