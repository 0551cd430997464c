"""Reverse-mode differentiation of rollout losses.

The computation shape is fixed by the topology, so instead of a general
expression graph the tape is simply the state trajectory that
``engine.rollout`` records: ``states[0]`` is the entry state and
``states[t]`` the state after step t; a truncated window's tape is a slice
of the one recorded trajectory. The backward sweep re-derives the few
intermediates it needs (drive, pre-threshold membrane, pre-clip plastic
weights) from the stored states with the engine's gather and the
``dynamics`` / ``plasticity`` kernels, so recorded and replayed values are
bitwise identical by construction.

Like the engine, the tape and the sweep run one episode on ``(n,)``
arrays or a batch of episodes in lockstep on ``(B, n)`` arrays, rows
sorted by length, longest first; the single-episode calls are the batch
of one. ``batch_gradients`` runs a batch forward up to each flush point
and then sweeps that window over all rows at once. Window j covers, for
row b of T_b steps, the steps (start_bj, end_bj] with
end_bj = min(j * k1, T_b) and start_bj = end_bj - min(k2, end_bj)
(k1 = k2 = T for the full window); a row is swept only inside its own
interval, and only the states a later window reads are kept. Each row's
reductions run over C-contiguous rows (numpy sums other layouts in another
order) and its scatters use ``np.add.at`` over per-row offset indices, so
a row's loss and gradient are bitwise those of its episode run alone.

Differentiation conventions (they define what "the gradient" means here):

* spike thresholds use the fast-sigmoid surrogate on the spike-output
  path; the post-spike reset gate is treated as a constant (detached),
* weight clipping is straight-through strictly inside (-c, c) and zero at
  or beyond the bound,
* the stdp weight increment is treated as non-differentiable (its
  magnitudes are fixed hyperparameters); gradients still flow through the
  additive weight carry,
* the hebbian retention factor is stored unconstrained and squashed with a
  sigmoid on read, so its gradient carries the sigmoid derivative.

Losses are summed over steps and masked per (step, output). Truncated
backpropagation advances every ``k1`` steps and unrolls ``k2`` steps per
flush; loss derivatives are injected only at steps not yet flushed, so a
single window covering the whole episode reproduces full backpropagation
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import NumericsError, lif_membrane_pre, lif_surrogate_grad
from .engine import (RolloutState, fresh_state, full_weights, gather, rollout,
                     row_index, spikes_of)
from .params import ParameterSet
from .plasticity import hebbian_update, stdp_update
from .topology import NetworkTopology


class TapeReplayError(RuntimeError):
    """Recorded trajectory does not reproduce under re-execution."""


# ---------------------------------------------------------------------------
# losses

LOSS_TAGS = ("mse", "bce", "cce")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, every row in the order of a 1-D ``np.sum``."""
    return np.sum(np.ascontiguousarray(a), axis=-1)


def _scalar(value):
    """A Python float for one episode's value; a batch's stays an array."""
    return float(value) if np.ndim(value) == 0 else value


def step_loss(tag: str, v_out: np.ndarray, y: np.ndarray,
              mask_row: np.ndarray):
    """Masked loss of one step's output vector against its target; over a
    batch's (B x n_out) rows, one loss per row."""
    if tag == "mse":
        return _scalar(0.5 * _rowsum(mask_row * (v_out - y) ** 2))
    if tag == "bce":
        # logits form: max(v,0) - v*y + log(1 + exp(-|v|))
        terms = np.maximum(v_out, 0.0) - v_out * y + np.log1p(np.exp(-np.abs(v_out)))
        return _scalar(_rowsum(mask_row * terms))
    if tag == "cce":
        w = _cce_step_weight(mask_row)
        m = np.max(v_out, axis=-1)
        lse = m + np.log(_rowsum(np.exp(v_out - m[..., None])))
        return _scalar(np.where(w == 0.0, 0.0, w * (lse - _rowsum(y * v_out))))
    raise ValueError(f"unknown loss tag {tag!r}")


def step_loss_grad(tag: str, v_out: np.ndarray, y: np.ndarray,
                   mask_row: np.ndarray) -> np.ndarray:
    """d(step loss)/d(output vector), row by row over a batch."""
    if tag == "mse":
        return mask_row * (v_out - y)
    if tag == "bce":
        return mask_row * (_sigmoid(v_out) - y)
    if tag == "cce":
        w = _cce_step_weight(mask_row)[..., None]
        ex = np.exp(v_out - np.max(v_out, axis=-1, keepdims=True))
        return np.where(w == 0.0, 0.0, w * (ex / _rowsum(ex)[..., None] - y))
    raise ValueError(f"unknown loss tag {tag!r}")


def _cce_step_weight(mask_row: np.ndarray) -> np.ndarray:
    # cross-entropy couples all outputs of a step; the mask must not split them
    if not np.all(mask_row == mask_row[..., :1]):
        raise ValueError("cce mask must be constant within a step")
    return mask_row[..., 0]


# ---------------------------------------------------------------------------
# tape


@dataclass
class Tape:
    """Recorded forward window: entry state at index 0, one state per step.

    A batch tape holds one row per episode, rows sorted by length; the
    states hold at least the rows a sweep reads. ``spans`` (two
    non-increasing arrays, one entry per row) limits row b's sweep to the
    window steps (start[b], end[b]]; without it every row spans the window.
    """

    topology: NetworkTopology
    params: ParameterSet
    states: list[RolloutState]
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    loss_tag: str
    spans: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        """The steps a backward sweep covers, summed over rows."""
        if self.spans is not None:
            start, end = self.spans
            return int(np.sum(end - start))
        return (len(self.states) - 1) * (len(self.xs) if self.xs.ndim == 3 else 1)

    def verify_replay(self) -> None:
        """Re-run the window and compare every state bitwise (for tapes
        whose rows all run the whole window, as ``forward_taped`` records)."""
        replay: list[RolloutState] = []
        rollout(self.states[0], self.xs, self.topology, self.params, states=replay)
        for t in range(1, len(replay)):
            state, rec = replay[t], self.states[t]
            same = (np.array_equal(state.s, rec.s)
                    and np.array_equal(state.v_last, rec.v_last)
                    and np.array_equal(state.plastic.weights, rec.plastic.weights))
            if not same:
                raise TapeReplayError(f"tape replay diverged at step {t}")


@dataclass
class StateGradient:
    """Adjoint of a rollout state (same shapes as RolloutState fields)."""

    s: np.ndarray
    v: np.ndarray
    e: np.ndarray


def _window(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Stimuli and targets as arrays, refused unless their steps match."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape[:-1] != xs.shape[:-1]:
        raise ValueError(f"window lengths differ: stimuli {xs.shape[:-1]}, "
                         f"targets {ys.shape[:-1]}")
    return xs, ys


def _norm_mask(mask, shape: tuple) -> np.ndarray:
    if mask is None:
        return np.ones(shape)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != {shape}")
    return mask


def outputs_loss(loss_tag: str, outs: np.ndarray, ys, mask):
    """Masked loss of a rollout's outputs against their targets, summed one
    step at a time in step order; a batch's ((B x T x n_out) arrays, zero
    mask past a row's end) one loss per row."""
    ys = np.asarray(ys, dtype=np.float64)
    mask = _norm_mask(mask, outs.shape)
    loss = np.zeros(outs.shape[:-2])
    for t in range(outs.shape[-2]):
        loss = loss + step_loss(loss_tag, outs[..., t, :], ys[..., t, :],
                                mask[..., t, :])
    return _scalar(loss)


def forward_taped(state0: RolloutState, xs, ys, mask,
                  topology: NetworkTopology, params: ParameterSet,
                  loss_tag: str) -> tuple[float, Tape, RolloutState]:
    """Run a window forward, recording the state trajectory.

    Returns (masked window loss, tape, exit state). The exit state is the
    carry for the next window. A batch of equal-length windows gives one
    loss per row.
    """
    xs, ys = _window(xs, ys)
    mask = _norm_mask(mask, xs.shape[:-1] + (topology.n_outputs,))
    states: list[RolloutState] = []
    outs, state = rollout(state0, xs, topology, params, states=states)
    loss = outputs_loss(loss_tag, outs, ys, mask)
    if not np.all(np.isfinite(loss)):
        raise FloatingPointError(f"non-finite loss in window of length "
                                 f"{xs.shape[-2]}")
    tape = Tape(topology=topology, params=params, states=states,
                xs=xs, ys=ys, mask=mask, loss_tag=loss_tag)
    return loss, tape, state


def backward(tape: Tape, upstream: StateGradient | None = None
             ) -> tuple[np.ndarray, StateGradient]:
    """Reverse sweep over a taped window.

    Returns (gradient w.r.t. the flat parameter vector, gradient w.r.t.
    the window's entry state); a batch tape gives one gradient row per
    episode and each row's adjoint at the start of its own span. The
    entry-state ``e`` component is the adjoint of the plastic weights at
    window start; when the window starts at an episode boundary the caller
    folds it into the ``w0`` gradient (plastic weights are reset to ``w0``
    there).
    """
    if tape.xs.ndim == 3:
        return _sweep(tape, upstream)
    one = replace(tape, states=[st.rows(None) for st in tape.states],
                  xs=tape.xs[None], ys=tape.ys[None], mask=tape.mask[None])
    if upstream is not None:
        upstream = StateGradient(upstream.s[None], upstream.v[None],
                                 upstream.e[None])
    g, entry = _sweep(one, upstream)
    return g[0], StateGradient(s=entry.s[0], v=entry.v[0], e=entry.e[0])


def _sweep(tape: Tape, upstream: StateGradient | None
           ) -> tuple[np.ndarray, StateGradient]:
    """``backward`` over a batch tape."""
    topo = tape.topology
    params = tape.params
    meta = params.meta
    n = topo.n
    K = len(tape.states) - 1
    B = len(tape.xs)
    start, end = tape.spans or (np.zeros(B, np.intp), np.full(B, K))
    if np.any(np.diff(start) > 0) or np.any(np.diff(end) > 0):
        raise ValueError("tape rows must be sorted by length, longest first")
    # rows first[t] .. last[t] - 1 are swept at step t
    steps = np.arange(K + 1)
    first = np.count_nonzero(start[:, None] >= steps, axis=0)
    last = np.count_nonzero(end[:, None] >= steps, axis=0)

    if upstream is None:
        gs = np.zeros((B, n))
        gv = np.zeros((B, n))
        ge = np.zeros((B, topo.n_plastic))
    else:
        gs = upstream.s.copy()
        gv = upstream.v.copy()
        ge = upstream.e.copy()

    # gradient segments, one row per episode
    rate = topo.rate_ids
    lif = topo.lif_ids
    heb = topo.hebbian_idx
    sd = topo.stdp_idx
    static = topo.static_idx
    g_w0 = np.zeros((B, len(static)))
    g_sc = np.zeros((B, len(rate)))
    g_b = np.zeros((B, len(rate)))
    g_lr = np.zeros((B, len(heb)))
    g_ret = np.zeros(B)

    retention = params.retention
    learn_rate = params.learn_rate
    self_coeff = params.self_coeff
    sig_prime = retention * (1.0 - retention)
    clip = meta.clip_bound
    out = topo.output_ids
    src_h = topo.edge_src[heb]
    dst_h = topo.edge_dst[heb]
    # scatter indices into a (rows, n) block, row by row
    at_dst_h = row_index(dst_h, n, B)
    at_src_h = row_index(src_h, n, B)
    at_src = row_index(topo.edge_src, n, B)

    for t in range(K, 0, -1):
        a, b = first[t], last[t]
        if a == b:
            continue
        m = b - a
        st_prev = tape.states[t - 1].rows(slice(a, b))
        v_t = tape.states[t].v_last[a:b]
        v_prev = st_prev.v_last
        s_prev = st_prev.s
        w_full_prev = full_weights(topo, params, st_prev.plastic)
        gs_t, gv_t, ge_t = gs[a:b], gv[a:b], ge[a:b]

        # loss term at this step
        gv_t[:, out] += step_loss_grad(tape.loss_tag, v_t.take(out, 1),
                                       tape.ys[a:b, t - 1], tape.mask[a:b, t - 1])

        gv_prev = np.zeros((m, n))
        ge_prev = np.zeros((m, topo.n_plastic))

        # plasticity backward first: it consumed this step's outputs, so its
        # contribution to gv must land before the neuron backward reads gv
        if len(heb):
            e_prev_h = st_prev.plastic.weights.take(topo.hebbian_pos, 1)
            pre = v_prev.take(src_h, 1)
            post = v_t.take(dst_h, 1)
            _, raw = hebbian_update(e_prev_h, pre, post, learn_rate, retention,
                                    clip)
            gh = ge_t.take(topo.hebbian_pos, 1) * (np.abs(raw) < clip)
            g_lr[a:b] += gh * (pre * post)
            g_ret[a:b] += _rowsum(gh * e_prev_h) * sig_prime
            ge_prev[:, topo.hebbian_pos] = gh * retention
            np.add.at(gv_t.reshape(-1), at_dst_h[:m * len(heb)],
                      (gh * learn_rate * pre).ravel())
            np.add.at(gv_prev.reshape(-1), at_src_h[:m * len(heb)],
                      (gh * learn_rate * post).ravel())
        if len(sd):
            # increment is non-differentiable; only the additive carry and
            # its clip gate pass gradient
            _, raw_sd, _, _ = stdp_update(
                st_prev.plastic.weights.take(topo.stdp_pos, 1), topo.edge_src[sd],
                topo.edge_dst[sd], spikes_of(topo, v_t), st_prev.plastic.trace_pre,
                st_prev.plastic.trace_post, meta)
            ge_prev[:, topo.stdp_pos] = (ge_t.take(topo.stdp_pos, 1)
                                         * (np.abs(raw_sd) < clip))

        # neuron backward
        gu = np.zeros((m, n))
        gs_prev = np.zeros((m, n))
        if len(rate):
            gz = ((gs_t.take(rate, 1) + gv_t.take(rate, 1))
                  * (1.0 - v_t.take(rate, 1) ** 2))
            g_sc[a:b] += gz * s_prev.take(rate, 1)
            g_b[a:b] += gz
            gu[:, rate] = gz
            gs_prev[:, rate] = gz * self_coeff
        if len(lif):
            u = gather(topo, w_full_prev, v_prev)
            membrane = lif_membrane_pre(u.take(lif, 1), s_prev.take(lif, 1),
                                        topo.lif_params)
            surr = lif_surrogate_grad(membrane, topo.lif_params)
            spk = v_t.take(lif, 1)
            gp = gv_t.take(lif, 1) * surr + gs_t.take(lif, 1) * (1.0 - spk)
            gu[:, lif] = gp * topo.lif_dt
            gs_prev[:, lif] = gp * (1.0 - topo.lif_dt)

        # gather backward: u[dst] = sum_e w_e * v_prev[src_e]
        gu_e = gu.take(topo.edge_dst, 1)
        contrib = gu_e * v_prev.take(topo.edge_src, 1)
        if len(static):
            g_w0[a:b] += contrib.take(static, 1)
        if topo.n_plastic:
            ge_prev += contrib.take(topo.plastic_idx, 1)
        np.add.at(gv_prev.reshape(-1), at_src[:m * topo.n_edges],
                  (gu_e * w_full_prev).ravel())

        gs[a:b] = gs_prev
        gv[a:b] = gv_prev
        ge[a:b] = ge_prev

    g = np.zeros((B, params.count))
    reg = params.registry
    g[:, reg["w0"].start + static] = g_w0
    g[:, reg["self_coeff"]] = g_sc
    g[:, reg["bias"]] = g_b
    if len(heb):
        g[:, reg["learn_rate"]] = g_lr
        g[:, reg["retention_raw"].start] = g_ret
    return g, StateGradient(s=gs, v=gv, e=ge)


# ---------------------------------------------------------------------------
# episode-level drivers


def episode_loss(topology: NetworkTopology, params: ParameterSet, xs, ys, mask,
                 loss_tag: str) -> float:
    """Plain (untaped) episode loss from a fresh episode-start state."""
    outs, _ = rollout(fresh_state(topology, params), xs, topology, params)
    return outputs_loss(loss_tag, outs, ys, mask)


def episode_gradients(topology: NetworkTopology, params: ParameterSet, xs, ys,
                      mask, loss_tag: str) -> tuple[float, np.ndarray]:
    """Full-window backpropagation over one episode from its start."""
    T = max(1, len(xs))
    return tbptt_gradients(topology, params, xs, ys, mask, loss_tag, T, T)


def tbptt_gradients(topology: NetworkTopology, params: ParameterSet, xs, ys,
                    mask, loss_tag: str, k1: int, k2: int) -> tuple[float, np.ndarray]:
    """Truncated backpropagation through time over one episode.

    Windows flush every ``k1`` steps (and at the sequence end), each
    unrolling at most ``k2`` steps back; state carries across flushes but
    gradient does not. Loss derivatives are injected only at not-yet-
    flushed steps, so with ``k2 >= T`` the result equals full
    backpropagation regardless of ``k1``. The batch of one of
    ``batch_gradients``.
    """
    xs, ys = _window(xs, ys)
    mask = _norm_mask(mask, (len(xs), topology.n_outputs))
    losses, grads = batch_gradients(topology, params, xs[None], ys[None],
                                    mask[None], [len(xs)], loss_tag, k1, k2)
    return losses[0], grads[0]


def batch_gradients(topology: NetworkTopology, params: ParameterSet, xs, ys,
                    mask, lengths, loss_tag: str, k1: int | None = None,
                    k2: int | None = None) -> tuple[list[float], np.ndarray]:
    """Losses and gradients of a batch of episodes run in lockstep.

    ``xs`` (B x T x n_in), ``ys`` and ``mask`` (B x T x n_out) hold the
    episodes zero-padded to the longest, rows sorted by ``lengths``,
    longest first. Windows as in ``tbptt_gradients``; ``k1 = None`` is the
    full window. Returns (B losses, B x P gradient rows); row b is bitwise
    the result of ``tbptt_gradients`` on episode b alone.
    """
    xs, ys = _window(xs, ys)
    mask = _norm_mask(mask, ys.shape)
    lengths = np.asarray(lengths, dtype=np.intp)
    B, T = xs.shape[:2]
    if k1 is None:
        k1 = k2 = max(1, T)
    if not (1 <= k1 <= k2):
        raise ValueError(f"invalid window config k1={k1}, k2={k2}")
    w0_plastic = params.registry["w0"].start + topology.plastic_idx
    grads = np.zeros((B, params.count))
    outs = np.zeros(ys.shape)
    state = fresh_state(topology, params, batch=B)
    kept = [state]           # the states after steps kept_from, kept_from + 1, ...
    kept_from = 0
    flushed = 0
    for flush in [*range(k1, T, k1), T]:
        chunk: list[RolloutState] = []
        outs[:, flushed:flush], state = rollout(
            state, xs[:, flushed:flush], topology, params, states=chunk,
            lengths=np.clip(lengths - flushed, 0, flush - flushed))
        kept += chunk[1:]
        rows = int(np.count_nonzero(lengths > flushed))  # rows with fresh steps
        if rows:
            stop = np.minimum(flush, lengths[:rows])
            begin = stop - np.minimum(k2, stop)
            t0 = int(begin[-1])
            win_mask = mask[:rows, t0:flush].copy()
            # steps already flushed carry no fresh loss
            win_mask[:, :flushed - t0] = 0.0
            tape = Tape(topology=topology, params=params,
                        states=kept[t0 - kept_from:flush - kept_from + 1],
                        xs=xs[:rows, t0:flush], ys=ys[:rows, t0:flush],
                        mask=win_mask, loss_tag=loss_tag,
                        spans=(begin - t0, stop - t0))
            g, entry = backward(tape)
            grads[:rows] += g
            if topology.n_plastic:
                # plastic weights reset to w0 at the episode start
                at_start = np.flatnonzero(begin == 0)
                grads[np.ix_(at_start, w0_plastic)] += entry.e[at_start]
        flushed = flush
        # later windows read no state from before step flush + 1 - k2
        drop = flush + 1 - k2 - kept_from
        if drop > 0:
            del kept[:drop]
            kept_from += drop
    losses = outputs_loss(loss_tag, outs, ys, mask)
    bad = np.flatnonzero(~np.isfinite(losses))
    if len(bad):
        raise NumericsError(f"non-finite loss in an episode of length "
                            f"{lengths[bad[0]]}", row=int(bad[0]))
    return losses.tolist(), params.apply_freeze(grads)


def fd_gradient(topology: NetworkTopology, params: ParameterSet, xs, ys, mask,
                loss_tag: str, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the episode loss over every parameter.

    Costs two rollouts per coordinate; the episode restarts from a fresh
    state for each evaluation so perturbing ``w0`` also moves the plastic
    initial weights.
    """
    base = params.flat
    grad = np.zeros(len(base))
    for i in range(len(base)):
        bump = np.zeros(len(base))
        bump[i] = eps
        lp = episode_loss(topology, params.with_flat(base + bump), xs, ys, mask,
                          loss_tag)
        lm = episode_loss(topology, params.with_flat(base - bump), xs, ys, mask,
                          loss_tag)
        grad[i] = (lp - lm) / (2.0 * eps)
    return grad
