"""Vectorized session simulation: the columnar corpus engine.

Simulates all of a corpus's sessions together instead of one at a time,
batching the numeric heavy lifting through numpy while reproducing the
per-session engine's output *bit for bit*:

* **Path fading** — lane lengths depend only on the plan, so the three
  flat output traces (bandwidth, RTT, loss; one segment per lane) are
  allocated once, and two passes over blocks of ``_PATH_BLOCK`` lanes
  fill them in place.  The first pass visits lanes of similar length
  together: each draws from its own ``path`` stream in exactly
  :class:`~repro.network.path.NetworkPath`'s order, and the block's
  AR(1) log-space recurrences advance time-major, bandwidth and RTT
  stacked, with the same multiply and add per element as
  ``NetworkPath``'s loop.  The second pass applies the same elementwise
  finalisation (exp, fades, outages, clamps) to each stretch of
  consecutive lanes.  Working memory beside the outputs is a few
  block-sized arrays, whatever the corpus size.
* **TCP rounds** — the dominant cost of the per-session engine is the
  round-by-round Python loop in
  :meth:`~repro.network.tcp.TcpConnection.download`.  Here every active
  session's current download advances one TCP round per step across a
  compacted lane set: state lookups, bufferbloat/jitter RTTs, AIMD
  window updates and the transport accumulators are all elementwise
  array ops whose per-element operation order matches the scalar code
  (no FMA contraction, same associativity), so the resulting
  ``TransferResult`` fields are identical doubles.  Loss counts use the
  same single-uniform inverse-CDF walk as the scalar model; lanes whose
  uniform falls within a conservative margin of the k=0 probability
  mass are re-walked scalar to erase any ``np.power``-vs-``pow`` ULP
  difference.
* **Player decisions** — ABR selection, playout-buffer accounting,
  fast-start ramps and patience checks *reuse the scalar player
  helpers* (:class:`~repro.streaming.buffer.PlayoutBuffer`,
  :class:`~repro.streaming.abr.HybridAbr`, …) once per chunk, which is
  cheap; only their per-chunk size-noise normals come from a bulk
  overdraw of the session's ``player`` stream (``rng.normal(0, s)``
  consumes exactly one standard normal, so ``s * z[i]`` from a block
  draw is the identical double).

The driver is chunk-asynchronous: each outer iteration every active
session submits its next download (video or audio, whatever its state
machine wants next), the downloads execute in round-lockstep batches
per connection kind, and completions feed back into the scalar
bookkeeping.  Sessions never interact, so lane order is irrelevant to
the result.  Once fewer than ``_SCALAR_TAIL`` lanes remain, each drains
to the end of its session through a scalar copy of the round loop that
reads Python lists (its path segment, converted once per lane, and its
draw blocks) and settles the common zero-loss round with one
comparison before any CDF walk.
"""

from __future__ import annotations

import math

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.tcp import (
    DRAW_BLOCK,
    IDLE_RESTART_RTTS,
    INITIAL_CWND,
    MSS_BYTES,
    RTT_JITTER_SIGMA,
    SPIKE_MIN,
    SPIKE_PROB,
    SPIKE_SPAN,
    TransferResult,
    binomial_from_uniform,
)
from repro.obs import trace
from repro.streaming.abr import HybridAbr, ThroughputEstimator
from repro.streaming.adaptive import AdaptivePlayerConfig
from repro.streaming.buffer import PlayoutBuffer
from repro.streaming.catalog import AUDIO_LEVEL, DASH_LADDER
from repro.streaming.progressive import (
    ProgressivePlayerConfig,
    select_static_quality,
)
from repro.streaming.segments import ChunkDownload
from repro.streaming.session import VideoSession, make_session_id

from .plan import CorpusPlan
from .streams import SessionStreams

__all__ = ["simulate_sessions"]

#: Player-stream standard normals drawn per block.
_Z_BLOCK = 512

#: Conservative relative margin around the vectorized k=0 binomial mass;
#: uniforms landing above ``pmf0 * (1 - margin)`` re-walk the scalar CDF.
_POW_MARGIN = 1e-12

#: Below this many active lanes the driver drains sessions in scalar
#: form — array-op overhead per round exceeds the scalar cost.
_SCALAR_TAIL = 96

#: Lanes per block of the path build; its working memory beside the
#: three flat output traces is a few block-sized arrays.
_PATH_BLOCK = 128

#: install()'s one-write accumulator reset: rtt_min, rtt_max, rtt_sum,
#: bif_sum, bif_max, bdp_sum, sent, lost, n_rounds (counts live as
#: floats — every value stays far below 2**53, so they are exact).
_ACC_RESET = np.array(
    [np.inf, -np.inf, 0.0, 0.0, -np.inf, 0.0, 0.0, 0.0, 0.0]
)


def _capped_ladder(cap: int):
    return [q for q in DASH_LADDER if q.resolution_p <= cap]


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------


class _PathData:
    """Flat per-step traces of every lane plus lookup offsets."""

    __slots__ = ("bw", "rtt", "loss", "off", "length", "bw0", "base_states")

    def __init__(self, lengths: np.ndarray) -> None:
        n = lengths.size
        self.length = lengths
        self.off = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        self.bw = np.empty(total)
        self.rtt = np.empty(total)
        self.loss = np.empty(total)
        self.bw0 = np.empty(n)
        self.base_states: list = [None] * n


def _build_paths(plan: CorpusPlan, streams: List[SessionStreams]) -> _PathData:
    """All lanes' link-state traces, bit-identical to NetworkPath's.

    Lane lengths depend only on the plan, so the three flat output
    traces are allocated once up front; two passes over blocks of at
    most ``_PATH_BLOCK`` lanes then fill them in place.  No other
    per-step array spans more than one block.
    """
    lengths = np.array(
        [
            # NetworkPath's step count for a (video * 4 + 180) s path
            # at its 1 s step.
            max(2, math.ceil(video.duration_s * 4.0 + 180.0) + 1)
            for video in plan.videos
        ],
        dtype=np.int64,
    )
    data = _PathData(lengths)
    n = lengths.size
    # Fading blocks group lanes of similar length, so the time-major
    # recurrence pads little; lanes draw from their own streams, so the
    # visiting order does not change any value.
    order = np.argsort(lengths, kind="stable").tolist()
    for lo in range(0, n, _PATH_BLOCK):
        _fade_block(plan, streams, data, order[lo : lo + _PATH_BLOCK])
    # Finalisation blocks are consecutive lanes: one contiguous stretch
    # of the outputs each.
    for lo in range(0, n, _PATH_BLOCK):
        _finalise_block(plan, data, lo, min(n, lo + _PATH_BLOCK))
    data.bw0[:] = data.bw[data.off]
    return data


def _fade_block(
    plan: CorpusPlan,
    streams: List[SessionStreams],
    data: _PathData,
    block: List[int],
) -> None:
    """Draw a block's lanes and write their log-space fading.

    Each lane draws in NetworkPath's order (base state, bandwidth and
    RTT normals, burst rolls, burst magnitudes).  The burst term lands
    in the lane's ``loss`` segment and the AR(1) log traces in its
    ``bw``/``rtt`` segments, for :func:`_finalise_block` to finish.
    """
    lengths = data.length
    width = len(block)
    steps = int(lengths[block[-1]])  # ascending order: the last is longest
    # Time-major: row t holds step t of every lane, bandwidth in even
    # columns and RTT in odd ones; x[t] starts as sigma * eps[t] and
    # rows past a lane's length stay zero.
    x = np.zeros((steps, 2 * width))
    rho = np.empty(2 * width)
    for j, i in enumerate(block):
        profile = plan.profiles[i]
        rng = streams[i].path
        data.base_states[i] = profile.sample(rng)
        k = int(lengths[i])
        r = float(np.clip(1.0 - profile.volatility, 0.5, 0.995))
        sig_bw = 0.5 * profile.bandwidth_sigma * np.sqrt(1.0 - r**2)
        sig_rtt = 0.5 * profile.rtt_sigma * np.sqrt(1.0 - r**2)
        rho[2 * j : 2 * j + 2] = r
        eps_bw = rng.normal(0.0, 1.0, size=k)
        eps_rtt = rng.normal(0.0, 1.0, size=k)
        burst = rng.random(k)
        burst_mag = rng.uniform(0.01, 0.08, size=k)
        np.multiply(sig_bw, eps_bw[1:], out=x[1:k, 2 * j])
        np.multiply(sig_rtt, eps_rtt[1:], out=x[1:k, 2 * j + 1])
        start = int(data.off[i])
        np.multiply(burst < 0.012, burst_mag, out=data.loss[start : start + k])

    # y[t] = rho * y[t-1] + x[t] with y[0] = 0: the same multiply, then
    # the same (commutative) add, per element as NetworkPath's loop.
    term = np.empty(2 * width)
    prev = x[0]
    for t in range(1, steps):
        row = x[t]
        np.multiply(rho, prev, out=term)
        np.add(term, row, out=row)
        prev = row

    for j, i in enumerate(block):
        k = int(lengths[i])
        start = int(data.off[i])
        data.bw[start : start + k] = x[:k, 2 * j]
        data.rtt[start : start + k] = x[:k, 2 * j + 1]


def _finalise_block(plan: CorpusPlan, data: _PathData, lo: int, hi: int) -> None:
    """Turn lanes ``lo:hi``'s log traces into link states, in place.

    The elementwise expressions (exp, fade, loss, outages, clamps) are
    NetworkPath's, applied to the block's contiguous output stretch
    with each lane's base state broadcast along its segment.
    """
    lengths = data.length[lo:hi]
    start = int(data.off[lo])
    stop = int(data.off[hi - 1] + data.length[hi - 1])
    bw = data.bw[start:stop]
    rtt = data.rtt[start:stop]
    loss = data.loss[start:stop]
    states = data.base_states[lo:hi]

    np.exp(rtt, out=rtt)
    np.multiply(np.repeat([s.rtt_ms for s in states], lengths), rtt, out=rtt)
    base_bw = np.repeat([s.bandwidth_kbps for s in states], lengths)
    np.exp(bw, out=bw)
    np.multiply(base_bw, bw, out=bw)
    fade = np.divide(bw, base_bw, out=base_bw)
    np.subtract(1.0, fade, out=fade)
    np.clip(fade, 0.0, 1.0, out=fade)
    np.multiply(4.0, fade, out=fade)
    np.add(1.0, fade, out=fade)
    np.multiply(np.repeat([s.loss_rate for s in states], lengths), fade, out=fade)
    np.add(fade, loss, out=loss)
    del fade, base_bw

    for i in range(lo, hi):
        outages = plan.outages[i]
        if not outages:
            continue
        k = int(data.length[i])
        seg = slice(int(data.off[i]) - start, int(data.off[i]) - start + k)
        times = np.arange(k) * 1.0
        bw_i, rtt_i, loss_i = bw[seg], rtt[seg], loss[seg]
        for outage in outages:
            mask = (times >= outage.start_s) & (times < outage.end_s)
            bw_i[mask] *= outage.factor
            rtt_i[mask] *= 1.0 + (1.0 - outage.factor)
            loss_i[mask] = np.minimum(0.5, loss_i[mask] * 3.0 + 0.01)

    np.maximum(16.0, bw, out=bw)
    np.maximum(5.0, rtt, out=rtt)
    np.clip(loss, 0.0, 0.5, out=loss)


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------


class _TcpState:
    """Per-lane connection state for one connection kind (video/audio)."""

    __slots__ = (
        "rngs",
        "cwnd",
        "ssthresh",
        "last_act",
        "bloat",
        "z",
        "spike",
        "mult",
        "loss",
        "cursor",
    )

    def __init__(
        self,
        n_lanes: int,
        rngs: List[np.random.Generator],
        lanes: Sequence[int],
    ) -> None:
        self.rngs = rngs
        self.cwnd = np.full(n_lanes, float(INITIAL_CWND))
        self.ssthresh = np.full(n_lanes, 64.0)
        self.last_act = np.full(n_lanes, np.nan)
        self.bloat = np.zeros(n_lanes)
        for i in lanes:
            # TcpConnection.__init__ draws the bufferbloat factor first.
            self.bloat[i] = float(rngs[i].uniform(0.05, 0.5))
        self.z = np.zeros((n_lanes, DRAW_BLOCK))
        self.spike = np.zeros((n_lanes, DRAW_BLOCK))
        self.mult = np.zeros((n_lanes, DRAW_BLOCK))
        self.loss = np.zeros((n_lanes, DRAW_BLOCK))
        self.cursor = np.full(n_lanes, DRAW_BLOCK, dtype=np.int64)

class _DownloadPool:
    """One in-flight download per lane, advanced in round-lockstep.

    The pool holds a working copy of the owning connection's state
    (cwnd, ssthresh, bufferbloat factor, draw block) for each lane's
    current download; :meth:`install` loads it (applying the idle
    restart) and :meth:`finish` stores it back, so consecutive
    downloads on the same connection chain exactly like the scalar
    :class:`~repro.network.tcp.TcpConnection`.  Downloads of different
    lanes share no state, so each pool round may advance lanes whose
    wall clocks differ — the lockstep is per-download round count, not
    simulated time.
    """

    __slots__ = (
        "paths",
        "tcp",
        "rngs",
        "cur_kind",
        "size",
        "start",
        "now",
        "remaining",
        "cwnd",
        "ssthresh",
        "bloat",
        "z",
        "spike",
        "mult",
        "lossb",
        "cursor",
        "acc",
    )

    def __init__(
        self, n: int, paths: _PathData, tcp_video: _TcpState, tcp_audio: _TcpState
    ) -> None:
        self.paths = paths
        self.tcp = (tcp_video, tcp_audio)
        self.rngs: List[Optional[np.random.Generator]] = [None] * n
        self.cur_kind = np.full(n, -1, dtype=np.int8)
        self.size = np.zeros(n, dtype=np.int64)
        self.start = np.zeros(n)
        self.now = np.zeros(n)
        # Segment counts fit doubles exactly; floats avoid int<->float
        # casts in the round kernel.
        self.remaining = np.zeros(n)
        self.cwnd = np.zeros(n)
        self.ssthresh = np.zeros(n)
        self.bloat = np.zeros(n)
        # Draw blocks are flat (lane-major) so the round kernel gathers
        # with one computed 1-D index instead of 2-D fancy indexing.
        self.z = np.zeros(n * DRAW_BLOCK)
        self.spike = np.zeros(n * DRAW_BLOCK)
        self.mult = np.zeros(n * DRAW_BLOCK)
        self.lossb = np.zeros(n * DRAW_BLOCK)
        self.cursor = np.zeros(n, dtype=np.int64)
        # All per-download accumulators are rows of one matrix: install()
        # resets with one column write, round() updates with one
        # gather/scatter pair, finish() and finish_scalar() extract with
        # one tolist().
        self.acc = np.zeros((9, n))

    def install(self, lane: int, kind: str, size: int, start: float) -> None:
        """Begin a new download on the lane's video or audio connection.

        Connection state stays resident in the pool between downloads;
        it is swapped against the parked :class:`_TcpState` store only
        when the lane switches between its video and audio connections.
        """
        ki = 0 if kind == "video" else 1
        tcp = self.tcp[ki]
        old = self.cur_kind[lane]
        if old != ki:
            base = lane * DRAW_BLOCK
            stop = base + DRAW_BLOCK
            if old >= 0:
                parked = self.tcp[old]
                parked.cwnd[lane] = self.cwnd[lane]
                parked.ssthresh[lane] = self.ssthresh[lane]
                parked.z[lane] = self.z[base:stop]
                parked.spike[lane] = self.spike[base:stop]
                parked.mult[lane] = self.mult[base:stop]
                parked.loss[lane] = self.lossb[base:stop]
                parked.cursor[lane] = self.cursor[lane]
            self.cwnd[lane] = tcp.cwnd[lane]
            self.ssthresh[lane] = tcp.ssthresh[lane]
            self.bloat[lane] = tcp.bloat[lane]
            self.z[base:stop] = tcp.z[lane]
            self.spike[base:stop] = tcp.spike[lane]
            self.mult[base:stop] = tcp.mult[lane]
            self.lossb[base:stop] = tcp.loss[lane]
            self.cursor[lane] = tcp.cursor[lane]
            self.rngs[lane] = tcp.rngs[lane]
            self.cur_kind[lane] = ki
        last = float(tcp.last_act[lane])
        if last == last:  # not NaN: the connection has a previous download
            i0 = int(start)
            limit = int(self.paths.length[lane]) - 1
            if i0 < 0:
                i0 = 0
            elif i0 > limit:
                i0 = limit
            rtt_s = float(self.paths.rtt[int(self.paths.off[lane]) + i0]) / 1000.0
            if start - last > IDLE_RESTART_RTTS * rtt_s:
                self.cwnd[lane] = float(INITIAL_CWND)
        self.size[lane] = size
        self.start[lane] = start
        self.now[lane] = start
        self.remaining[lane] = math.ceil(size / MSS_BYTES)
        self.acc[:, lane] = _ACC_RESET

    def refill(self, lane: int) -> None:
        """RoundDraws._refill, lane-local: same four blocks, same order."""
        rng = self.rngs[lane]
        base = lane * DRAW_BLOCK
        stop = base + DRAW_BLOCK
        self.z[base:stop] = rng.standard_normal(DRAW_BLOCK)
        self.spike[base:stop] = rng.random(DRAW_BLOCK)
        self.mult[base:stop] = rng.random(DRAW_BLOCK)
        self.lossb[base:stop] = rng.random(DRAW_BLOCK)
        self.cursor[lane] = 0

    def round(self, act: np.ndarray) -> np.ndarray:
        """Advance every lane in ``act`` by one TCP round.

        Per-element operation order matches TcpConnection.download
        exactly; see the module docstring for why that yields identical
        doubles.  Returns the mask of lanes whose download completed.
        """
        paths = self.paths
        cur = self.cursor[act]
        exhausted = cur >= DRAW_BLOCK
        if exhausted.any():
            for lane in act[exhausted].tolist():
                self.refill(lane)
            cur = self.cursor[act]
        gidx = act * DRAW_BLOCK + cur
        z = self.z[gidx]
        u_spike = self.spike[gidx]
        u_mult = self.mult[gidx]
        u_loss = self.lossb[gidx]
        self.cursor[act] = cur + 1

        nw = self.now[act]
        # now >= the request time >= the signalling delay > 0, so only
        # the upper clamp of the scalar state lookup can engage.
        idx = np.minimum(nw.astype(np.int64), paths.length[act] - 1)
        ptr = paths.off[act] + idx
        s_bw = paths.bw[ptr]
        s_rtt = paths.rtt[ptr]
        s_loss = paths.loss[ptr]

        rem = self.remaining[act]
        cw = self.cwnd[act]
        in_f = np.maximum(1.0, np.trunc(np.minimum(cw, rem)))
        bif_f = in_f * float(MSS_BYTES)

        cap_bps = s_bw * 1000.0 / 8.0
        bdp = cap_bps * (s_rtt / 1000.0)
        overshoot = np.maximum(0.0, bif_f / np.maximum(bdp, 1.0) - 1.0)
        jitter = RTT_JITTER_SIGMA * z
        rtt_ms = s_rtt * np.maximum(
            0.5, (1.0 + self.bloat[act] * np.minimum(overshoot, 3.0)) + jitter
        )
        rtt_ms = np.where(
            u_spike < SPIKE_PROB, rtt_ms * (SPIKE_MIN + SPIKE_SPAN * u_mult), rtt_ms
        )
        rtt_s = rtt_ms / 1000.0
        round_s = np.maximum(rtt_s, bif_f / cap_bps)

        # Loss counts: vectorized k=0 and certain-k=1 shortcuts (the
        # scalar walk's first CDF step uses the same multiply/add
        # grouping, so only np.power's ULP on the k=0 mass separates
        # them); lanes whose uniform lands within the conservative
        # margin of either boundary — or beyond the k=1 mass — re-walk
        # the scalar CDF.
        q = 1.0 - s_loss
        pmf0 = np.power(q, in_f)
        losses = np.zeros(act.size)
        maybe = u_loss > pmf0 * (1.0 - _POW_MARGIN)
        if maybe.any():
            cdf1 = pmf0 + pmf0 * (in_f * (s_loss / q))
            one = (
                maybe
                & (u_loss > pmf0 * (1.0 + _POW_MARGIN))
                & ((u_loss < cdf1 * (1.0 - _POW_MARGIN)) | (in_f == 1.0))
            )
            losses[one] = 1.0
            walk = np.flatnonzero(maybe & ~one)
            for j in walk.tolist():
                losses[j] = binomial_from_uniform(
                    float(u_loss[j]), int(in_f[j]), float(s_loss[j])
                )

        rem_new = rem - (in_f - losses)
        self.remaining[act] = rem_new

        loss_mask = losses > 0.0
        half = np.maximum(2.0, cw / 2.0)
        st_old = self.ssthresh[act]
        self.cwnd[act] = np.where(
            loss_mask,
            half,
            np.where(cw < st_old, np.minimum(cw * 2.0, st_old), cw + 1.0),
        )
        self.ssthresh[act] = np.where(loss_mask, half, st_old)
        round_s = np.where(loss_mask, round_s + rtt_s, round_s)

        cols = self.acc[:, act]
        np.minimum(cols[0], rtt_ms, out=cols[0])
        np.maximum(cols[1], rtt_ms, out=cols[1])
        cols[2] += rtt_ms
        cols[3] += bif_f
        np.maximum(cols[4], bif_f, out=cols[4])
        cols[5] += bdp
        cols[6] += in_f
        cols[7] += losses
        cols[8] += 1.0
        self.acc[:, act] = cols

        self.now[act] = nw + round_s
        return rem_new <= 0.0

    def drain(self, lane: int, player) -> int:
        """Run the lane's remaining downloads scalar until its session ends.

        The lane's path segment becomes Python lists once, for all of
        its downloads, and is dropped on return, so at most one lane's
        lists are alive at a time.  Returns the TCP rounds run.
        """
        paths = self.paths
        start = int(paths.off[lane])
        stop = start + int(paths.length[lane])
        segment = (
            paths.bw[start:stop].tolist(),
            paths.rtt[start:stop].tolist(),
            paths.loss[start:stop].tolist(),
        )
        rounds = 0
        while True:
            rounds += self.finish_scalar(lane, segment)
            if player.on_complete(self.finish(lane)):
                return rounds
            kind, size, begin = player.next_request()
            self.install(lane, kind, size, begin)

    def finish_scalar(
        self, lane: int, segment: Tuple[List[float], List[float], List[float]]
    ) -> int:
        """Run the lane's current download to completion in scalar form.

        Same per-round operations as TcpConnection.download on Python
        floats: the path ``segment`` (the lane's bw/rtt/loss traces) and
        the draw blocks are read as lists, a loss count of zero is
        decided by ``binomial_from_uniform``'s own first test, and
        comparisons stand in for ``min``/``max`` with their tie
        semantics (on a tie, the first argument wins).  Cheaper once the
        active set is too narrow to amortise array overhead (the long
        tail of the longest sessions).  Returns the rounds run.
        """
        bw_t, rtt_t, loss_t = segment
        limit = len(bw_t) - 1
        rng = self.rngs[lane]
        base = lane * DRAW_BLOCK
        stop = base + DRAW_BLOCK
        z_blk = self.z[base:stop].tolist()
        sp_blk = self.spike[base:stop].tolist()
        mu_blk = self.mult[base:stop].tolist()
        lo_blk = self.lossb[base:stop].tolist()
        cursor = int(self.cursor[lane])
        now = float(self.now[lane])
        remaining = int(self.remaining[lane])
        cwnd = float(self.cwnd[lane])
        ssthresh = float(self.ssthresh[lane])
        bloat = float(self.bloat[lane])
        (
            rtt_min,
            rtt_max,
            rtt_sum,
            bif_sum,
            bif_max,
            bdp_sum,
            sent,
            lost,
            n_rounds,
        ) = self.acc[:, lane].tolist()
        sent = int(sent)
        lost = int(lost)
        first_round = n_rounds = int(n_rounds)

        while remaining > 0:
            if cursor >= DRAW_BLOCK:
                z_blk = rng.standard_normal(DRAW_BLOCK).tolist()
                sp_blk = rng.random(DRAW_BLOCK).tolist()
                mu_blk = rng.random(DRAW_BLOCK).tolist()
                lo_blk = rng.random(DRAW_BLOCK).tolist()
                cursor = 0
            z = z_blk[cursor]
            u_spike = sp_blk[cursor]
            u_mult = mu_blk[cursor]
            u_loss = lo_blk[cursor]
            cursor += 1

            # now >= the request time > 0: only the upper clamp engages.
            i = int(now)
            if i > limit:
                i = limit
            s_bw = bw_t[i]
            s_rtt = rtt_t[i]
            s_loss = loss_t[i]

            # max(1, int(min(cwnd, remaining)))
            in_flight = remaining if remaining < cwnd else int(cwnd)
            if in_flight < 1:
                in_flight = 1
            bif = in_flight * MSS_BYTES
            capacity_bps = s_bw * 1000.0 / 8.0
            bdp = s_bw * 1000.0 / 8.0 * (s_rtt / 1000.0)
            # max(0.0, bif / max(bdp, 1.0) - 1.0)
            overshoot = bif / (1.0 if 1.0 > bdp else bdp) - 1.0
            if not overshoot > 0.0:
                overshoot = 0.0
            # s_rtt * max(0.5, (1.0 + bloat * min(overshoot, 3.0)) + jitter)
            factor = (
                1.0 + bloat * (3.0 if 3.0 < overshoot else overshoot)
            ) + RTT_JITTER_SIGMA * z
            rtt_ms = s_rtt * (factor if factor > 0.5 else 0.5)
            if u_spike < SPIKE_PROB:
                rtt_ms *= SPIKE_MIN + SPIKE_SPAN * u_mult
            rtt_s = rtt_ms / 1000.0
            # max(rtt_s, bif / capacity_bps)
            round_s = bif / capacity_bps
            if not round_s > rtt_s:
                round_s = rtt_s

            if u_loss <= (1.0 - s_loss) ** in_flight:
                losses = 0
            else:
                losses = binomial_from_uniform(u_loss, in_flight, s_loss)
            sent += in_flight
            lost += losses
            remaining -= in_flight - losses
            if losses > 0:
                # max(2.0, cwnd / 2.0)
                ssthresh = cwnd / 2.0
                if not ssthresh > 2.0:
                    ssthresh = 2.0
                cwnd = ssthresh
                round_s += rtt_s
            elif cwnd < ssthresh:
                # min(cwnd * 2.0, ssthresh)
                cwnd = cwnd * 2.0
                if ssthresh < cwnd:
                    cwnd = ssthresh
            else:
                cwnd += 1.0

            n_rounds += 1
            if rtt_ms < rtt_min:
                rtt_min = rtt_ms
            if rtt_ms > rtt_max:
                rtt_max = rtt_ms
            rtt_sum += rtt_ms
            fbif = float(bif)
            bif_sum += fbif
            if fbif > bif_max:
                bif_max = fbif
            bdp_sum += bdp
            now += round_s

        self.z[base:stop] = z_blk
        self.spike[base:stop] = sp_blk
        self.mult[base:stop] = mu_blk
        self.lossb[base:stop] = lo_blk
        self.cursor[lane] = cursor
        self.now[lane] = now
        self.remaining[lane] = remaining
        self.cwnd[lane] = cwnd
        self.ssthresh[lane] = ssthresh
        self.acc[:, lane] = (
            rtt_min,
            rtt_max,
            rtt_sum,
            bif_sum,
            bif_max,
            bdp_sum,
            sent,
            lost,
            n_rounds,
        )
        return n_rounds - first_round

    def finish(self, lane: int) -> TransferResult:
        """Record the connection's idle mark and build the result.

        The rest of the connection state stays resident in the pool for
        the lane's next download (see :meth:`install`).
        """
        self.tcp[self.cur_kind[lane]].last_act[lane] = self.now[lane]

        (
            rtt_min,
            rtt_max,
            rtt_sum,
            bif_sum,
            bif_max,
            bdp_sum,
            sent,
            lost,
            n_rounds,
        ) = self.acc[:, lane].tolist()
        start = float(self.start[lane])
        loss_pct = 100.0 * lost / sent
        return TransferResult(
            int(self.size[lane]),
            start,
            float(self.now[lane]) - start,
            rtt_min,
            rtt_sum / n_rounds,
            rtt_max,
            loss_pct,
            loss_pct,
            bif_sum / n_rounds,
            bif_max,
            bdp_sum / n_rounds,
        )


# ----------------------------------------------------------------------
# Player lanes
# ----------------------------------------------------------------------


class _NoiseStream:
    """Bulk standard-normal overdraw of one player stream.

    Each chunk consumes one normal; the lane needs ``exp(sigma * z)``
    for one or two fixed sigmas, so whole blocks are exponentiated at
    refill (``np.exp`` on a contiguous block matches the scalar call
    bitwise) and handed out as Python floats.
    """

    __slots__ = ("rng", "_sig_a", "_sig_b", "_ea", "_eb", "_i")

    def __init__(
        self,
        rng: np.random.Generator,
        sigma_a: float,
        sigma_b: Optional[float] = None,
    ) -> None:
        self.rng = rng
        self._sig_a = sigma_a
        self._sig_b = sigma_b
        self._refill()

    def _refill(self) -> None:
        z = self.rng.standard_normal(_Z_BLOCK)
        self._ea = np.exp(self._sig_a * z).tolist()
        self._eb = (
            np.exp(self._sig_b * z).tolist() if self._sig_b is not None else None
        )
        self._i = 0

    def next_a(self) -> float:
        i = self._i
        if i >= _Z_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        return self._ea[i]

    def next_b(self) -> float:
        i = self._i
        if i >= _Z_BLOCK:
            self._refill()
            i = 0
        self._i = i + 1
        return self._eb[i]


class _ProgressiveLane:
    """Progressive player state machine, one download per step.

    Mirrors ProgressivePlayer.play line for line; the playout buffer,
    quality selection and patience draw are the scalar implementations.
    """

    kind = "progressive"

    def __init__(self, video, place, base_bandwidth_kbps, player_rng, cfg):
        self.cfg = cfg
        self.video = video
        self.place = place
        self.quality = select_static_quality(
            cfg.ladder, video, base_bandwidth_kbps, player_rng
        )
        self.patience_s = float(
            player_rng.gamma(shape=4.0, scale=cfg.mean_patience_stall_s / 4.0)
        )
        self.bitrate = video.bitrate_kbps(self.quality)
        self.buffer = PlayoutBuffer(
            startup_threshold_s=cfg.startup_threshold_s,
            rebuffer_threshold_s=cfg.rebuffer_threshold_s,
        )
        self.zs = _NoiseStream(player_rng, cfg.size_noise_sigma)
        self.chunks: List[ChunkDownload] = []
        self.now = cfg.initial_signalling_s
        self.buffer.advance_to(self.now)
        self.media_pos = 0.0
        self.abandoned = False
        self.index = 0
        self.refill_media: Optional[float] = None
        self.end = 0.0
        self._media = 0.0
        self._dur = video.duration_s
        self._pace_high = cfg.pace_high_s
        self._pace_low = cfg.pace_low_s
        self._min_block = cfg.min_block_media_s
        self._max_block = cfg.max_block_media_s
        self._initial_block = cfg.initial_block_media_s
        self._gap = cfg.request_gap_s

    def next_request(self) -> Tuple[str, int, float]:
        buf = self.buffer
        if (
            buf.playback_started
            and buf._stalled_since is None
            and buf.level_s >= self._pace_high
        ):
            self.now += buf.level_s - self._pace_low
            buf.advance_to(self.now)

        if self.refill_media is not None:
            block_media = self.refill_media
            self.refill_media = min(self._max_block, self.refill_media * 1.6)
            if self.refill_media >= self._max_block:
                self.refill_media = None
        elif self.index == 0:
            block_media = self._initial_block
        else:
            block_media = self._max_block
        remaining = self._dur - self.media_pos
        media = min(block_media, remaining)
        if remaining - media < self._min_block:
            media = remaining
        media = max(media, 0.25)
        size = max(1, int(self.bitrate * media * 1000.0 / 8.0 * self.zs.next_a()))
        self._media = media
        return ("video", size, self.now)

    def on_complete(self, transfer: TransferResult) -> bool:
        buf = self.buffer
        media = self._media
        self.chunks.append(
            ChunkDownload(
                self.index,
                "video",
                self.quality,
                media,
                transfer.bytes,
                transfer,
            )
        )
        self.index += 1
        self.media_pos += media

        stalls_before = len(buf.stalls)
        end_s = transfer.start_s + transfer.duration_s
        buf.add_media_run(
            transfer.start_s,
            end_s - transfer.start_s,
            max(1, math.ceil(media)),
            media,
        )
        now = end_s

        if len(buf.stalls) > stalls_before or buf._stalled_since is not None:
            self.refill_media = self._min_block
        now += self._gap
        self.now = now

        ongoing = now - buf._stalled_since if buf._stalled_since is not None else 0.0
        if buf._stall_total_s + ongoing > self.patience_s:
            self.abandoned = True
            return self._finalize()
        if self.media_pos >= self._dur - 1e-9:
            return self._finalize()
        return False

    def _finalize(self) -> bool:
        buf = self.buffer
        buf.advance_to(self.now)
        if self.abandoned or not buf.playback_started:
            end = self.now
        else:
            end = self.now + buf.level_s
        buf.finish(end)
        self.end = end
        return True

    def materialize(self, ident_rng: np.random.Generator) -> VideoSession:
        return VideoSession(
            session_id=make_session_id(ident_rng),
            video=self.video,
            kind=self.kind,
            place=self.place.name,
            chunks=self.chunks,
            stalls=self.buffer.stalls,
            startup_delay_s=self.buffer.startup_delay_s,
            total_duration_s=max(self.end, 1e-3),
            abandoned=self.abandoned,
        )


class _AdaptiveLane:
    """DASH player state machine; mirrors AdaptivePlayer.play."""

    kind = "adaptive"

    def __init__(self, video, place, bw0_kbps, player_rng, cfg, abr):
        self.cfg = cfg
        self.abr = abr
        self.video = video
        self.place = place
        self.estimator = ThroughputEstimator()
        if cfg.initial_bandwidth_hint:
            hint = 0.6 * bw0_kbps * float(
                np.exp(player_rng.normal(0.0, cfg.bandwidth_hint_noise_sigma))
            )
            self.estimator.update(max(16.0, hint))
        self.patience_s = float(
            player_rng.gamma(shape=4.0, scale=cfg.mean_patience_stall_s / 4.0)
        )
        self.buffer = PlayoutBuffer(
            startup_threshold_s=cfg.startup_threshold_s,
            rebuffer_threshold_s=cfg.rebuffer_threshold_s,
        )
        self.zs = _NoiseStream(player_rng, cfg.size_noise_sigma, 0.05)
        self.chunks: List[ChunkDownload] = []
        self.now = cfg.initial_signalling_s
        self.buffer.advance_to(self.now)
        self.media_pos = 0.0
        self.audio_pos = 0.0
        self.request_media = cfg.segment_media_s
        self.current = None
        self.emergency = False
        self.abandoned = False
        self.index = 0
        self.end = 0.0
        self._min_quality = min(cfg.ladder, key=lambda q: q.bitrate_kbps)
        self._phase = "video"
        self._media = 0.0
        self._quality = None
        self._audio_media = 0.0
        self._finished = False
        self._dur = video.duration_s
        self._max_buffer = cfg.max_buffer_s
        self._refill_level = cfg.max_buffer_s - cfg.refill_margin_s
        self._resume_level = cfg.rebuffer_threshold_s + 4.0
        self._faststart = cfg.faststart_media_s
        self._segment = cfg.segment_media_s
        self._gap = cfg.request_gap_s
        self._audio_seg = cfg.audio_segment_media_s
        self._include_audio = cfg.include_audio

    # -- request side ---------------------------------------------------

    def next_request(self) -> Tuple[str, int, float]:
        if self._phase == "audio":
            return self._audio_request()
        buf = self.buffer
        if (
            buf.playback_started
            and buf._stalled_since is None
            and buf.level_s >= self._max_buffer
        ):
            self.now += buf.level_s - self._refill_level
            buf.advance_to(self.now)

        if self.emergency and buf.level_s > self._resume_level:
            self.emergency = False
        quality = self.abr.select(
            self.cfg.ladder,
            self.video,
            self.estimator.estimate_kbps,
            buf.level_s,
            self.current,
            playback_started=buf.playback_started,
        )
        if self.emergency:
            quality = self._min_quality
        if self.current is not None and quality.itag != self.current.itag:
            self.request_media = self._faststart
        self.current = quality

        remaining = self._dur - self.media_pos
        media = min(self.request_media, remaining)
        if remaining - media < 2.0:
            media = remaining
        media = max(media, 0.25)
        size = max(
            1,
            int(
                self.video.bitrate_kbps(quality)
                * media
                * 1000.0
                / 8.0
                * self.zs.next_a()
            ),
        )
        self._media = media
        self._quality = quality
        return ("video", size, self.now)

    def _audio_request(self) -> Tuple[str, int, float]:
        behind = self.media_pos - self.audio_pos
        audio_media = min(self._audio_seg, behind)
        if self._finished and behind < 2.0 * self._audio_seg:
            audio_media = behind
        size = max(
            1,
            int(
                AUDIO_LEVEL.bitrate_kbps
                * audio_media
                * 1000.0
                / 8.0
                * self.zs.next_b()
            ),
        )
        self._audio_media = audio_media
        return ("audio", size, self.now)

    # -- completion side ------------------------------------------------

    def _audio_pending(self) -> bool:
        return self.media_pos - self.audio_pos >= self._audio_seg or (
            self._finished and self.audio_pos < self.media_pos
        )

    def on_complete(self, transfer: TransferResult) -> bool:
        if self._phase == "audio":
            return self._audio_complete(transfer)
        buf = self.buffer
        media = self._media
        self.chunks.append(
            ChunkDownload(
                self.index,
                "video",
                self._quality,
                media,
                transfer.bytes,
                transfer,
            )
        )
        self.index += 1
        end_s = transfer.start_s + transfer.duration_s
        self.now = end_s
        self.estimator.update(transfer.throughput_kbps)
        self.media_pos += media

        stalls_before = len(buf.stalls)
        buf.add_media_run(
            transfer.start_s,
            end_s - transfer.start_s,
            max(1, math.ceil(media)),
            media,
        )
        if len(buf.stalls) > stalls_before or buf._stalled_since is not None:
            self.request_media = self._faststart
            self.emergency = True

        if self._include_audio:
            self._finished = self.media_pos >= self._dur - 1e-9
            if self._audio_pending():
                self._phase = "audio"
                return False
        return self._post_chunk()

    def _audio_complete(self, transfer: TransferResult) -> bool:
        self.chunks.append(
            ChunkDownload(
                self.index,
                "audio",
                AUDIO_LEVEL,
                self._audio_media,
                transfer.bytes,
                transfer,
            )
        )
        self.index += 1
        self.now = transfer.start_s + transfer.duration_s
        self.audio_pos += self._audio_media
        if self._audio_pending():
            return False
        self._phase = "video"
        return self._post_chunk()

    def _post_chunk(self) -> bool:
        buf = self.buffer
        now = self.now
        buf.advance_to(now)
        self.request_media = min(self._segment, self.request_media * 1.6)
        now += self._gap
        self.now = now

        ongoing = now - buf._stalled_since if buf._stalled_since is not None else 0.0
        if buf._stall_total_s + ongoing > self.patience_s:
            self.abandoned = True
            return self._finalize()
        if self.media_pos >= self._dur - 1e-9:
            return self._finalize()
        return False

    def _finalize(self) -> bool:
        buf = self.buffer
        buf.advance_to(self.now)
        if self.abandoned or not buf.playback_started:
            end = self.now
        else:
            end = self.now + buf.level_s
        buf.finish(end)
        self.end = end
        return True

    def materialize(self, ident_rng: np.random.Generator) -> VideoSession:
        return VideoSession(
            session_id=make_session_id(ident_rng),
            video=self.video,
            kind=self.kind,
            place=self.place.name,
            chunks=self.chunks,
            stalls=self.buffer.stalls,
            startup_delay_s=self.buffer.startup_delay_s,
            total_duration_s=max(self.end, 1e-3),
            abandoned=self.abandoned,
        )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def simulate_sessions(
    plan: CorpusPlan, streams: List[SessionStreams]
) -> List[VideoSession]:
    """Simulate every planned session; bit-identical to the oracle."""
    n = plan.n_sessions
    if n == 0:
        return []
    with trace("datasets.genx.paths") as span:
        paths = _build_paths(plan, streams)
        span.add("lanes", n)
        span.add("steps", paths.bw.size)
    adaptive = plan.adaptive.tolist()

    tcp_video = _TcpState(n, [st.tcp_video for st in streams], range(n))
    tcp_audio = _TcpState(
        n,
        [st.tcp_audio for st in streams],
        [i for i in range(n) if adaptive[i]],
    )
    abr = HybridAbr()

    lanes: list = []
    for i in range(n):
        if adaptive[i]:
            lanes.append(
                _AdaptiveLane(
                    plan.videos[i],
                    plan.places[i],
                    float(paths.bw0[i]),
                    streams[i].player,
                    AdaptivePlayerConfig(ladder=_capped_ladder(plan.caps[i])),
                    abr,
                )
            )
        else:
            lanes.append(
                _ProgressiveLane(
                    plan.videos[i],
                    plan.places[i],
                    paths.base_states[i].bandwidth_kbps,
                    streams[i].player,
                    ProgressivePlayerConfig(),
                )
            )

    pool = _DownloadPool(n, paths, tcp_video, tcp_audio)
    for i in range(n):
        kind, size, start = lanes[i].next_request()
        pool.install(i, kind, size, start)

    active = np.arange(n, dtype=np.int64)
    with trace("datasets.genx.vector_rounds") as span:
        rounds = 0
        while active.size > _SCALAR_TAIL:
            rounds += 1
            done = pool.round(active)
            if done.any():
                keep = ~done
                for j in np.flatnonzero(done).tolist():
                    lane = int(active[j])
                    result = pool.finish(lane)
                    if not lanes[lane].on_complete(result):
                        kind, size, start = lanes[lane].next_request()
                        pool.install(lane, kind, size, start)
                        keep[j] = True
                active = active[keep]
        span.add("rounds", rounds)

    # Drain the stragglers scalar: with only a few lanes left, array
    # overhead per round dwarfs the work, and the longest sessions can
    # run tens of thousands of rounds past the rest of the corpus.
    with trace("datasets.genx.scalar_tail") as span:
        rounds = 0
        for lane in active.tolist():
            rounds += pool.drain(lane, lanes[lane])
        span.add("lanes", active.size)
        span.add("rounds", rounds)

    with trace("datasets.genx.materialize") as span:
        sessions = [lanes[i].materialize(streams[i].ident) for i in range(n)]
        span.add("sessions", n)
    return sessions
