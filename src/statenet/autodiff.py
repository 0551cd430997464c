"""Reverse-mode differentiation of rollout losses.

The computation shape is fixed by the topology, so instead of a general
expression graph the tape is simply the entry state followed by the states
``engine.rollout`` records after each step; a truncated window's tape is a
slice of the one recorded trajectory. The sweep re-derives nothing: each
recorded state carries the outputs, every edge's weight and the lif cells'
pre-threshold membrane of the step that made it, so the sweep reads each
step's previous outputs and weights off the state before it, and the clip
gate and the membrane it takes the spike surrogate at off the state after
it. Each window's loss gradient and each rollout's loss take one call. The
sweep keeps one adjoint per edge weight in its ``w0`` row, a static edge
being one whose rule is the identity, and zeroes the plastic ones in the
rows whose window starts after their episode's step 0.

The tape and the sweep hold a batch of episodes run in lockstep on
``(n, B)`` arrays, neuron (or edge) axis first and one column per
episode, the batch's rows (episodes) sorted by length, longest first;
one episode is the batch of one. Window j covers, for row b of T_b
steps, the steps (start_bj, end_bj] with end_bj = min(j * k1, T_b) and
start_bj = end_bj - min(k2, end_bj) (k1 = k2 = T for the full window); a
row is swept only inside its own interval. ``batch_gradients`` runs a
batch forward up to each flush point and queues that window as a tape
over its slice of the recorded states. Windows are independent given
those states, each starting from a zero adjoint, so the queued tapes are
swept as the rows of one stacked tape in window-local time, up to
``LOCKSTEP_ROWS`` rows; a tape alone, of any size, is swept as it is,
with no copy. Each row's reductions run over C-contiguous copies of its
values (numpy sums other layouts in another order) and its scatters
(``np.add.at``, or ``np.bincount`` into zeros) run over flat offsets
``idx * rows + column``, which add each bin's terms in edge order, so a
row's loss and gradient are bitwise those of its episode run alone,
whatever it is stacked with. The sweep keeps the rows it sweeps at a
step in one contiguous block, gradient sums in the flat parameter layout
then state and output adjoints, so no update runs over strided columns.

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

from dataclasses import dataclass

import numpy as np

from .dynamics import NumericsError, lif_surrogate_grad
from .engine import (RolloutState, check_lengths, fresh_state, rollout,
                     scatter_index)
from .params import ParameterSet
from .plasticity import CLIP_BOUND, PlasticEdgeState
from .topology import NetworkTopology


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
    """Masked loss of one step's output vector against its target; over
    leading axes (a batch's rows, a rollout's steps), one loss per vector."""
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
    """d(step loss)/d(output vector) over the last axis, for any leading
    axes (a batch's rows, a window's steps)."""
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
    """Recorded forward window of a batch: entry state at index 0, one state
    per step, each holding at least the rows (state columns) a sweep reads,
    rows sorted by span. ``gy`` (rows x steps x n_out) is the loss gradient
    of each window output; ``spans`` (two non-increasing arrays, one entry
    per row) limits row b's sweep to the window steps (start[b], end[b]].
    ``episode_start`` flags the rows whose span starts at their episode's
    step 0, the rows whose sweep owes ``w0`` the plastic weights' adjoint.
    """

    topology: NetworkTopology
    params: ParameterSet
    states: list[RolloutState]
    gy: np.ndarray
    spans: tuple[np.ndarray, np.ndarray]
    episode_start: np.ndarray

    def __len__(self) -> int:
        """The steps a backward sweep covers, summed over rows."""
        start, end = self.spans
        return int(np.sum(end - start))


def _norm_mask(mask, shape: tuple, lengths=None) -> np.ndarray:
    """``mask`` as an array of ``shape``, ``None`` scoring every step; with
    ``lengths`` (a batch's), zero past each row's length."""
    mask = np.ones(shape) if mask is None else np.asarray(mask, np.float64)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != {shape}")
    if lengths is None:
        return mask
    live = np.arange(shape[1]) < np.asarray(lengths)[:, None]
    return mask * live[..., None]


def outputs_loss(loss_tag: str, outs: np.ndarray, ys, mask, lengths=None):
    """Masked loss of a rollout's outputs against their targets, one
    ``step_loss`` call whose step losses are added in step order; a batch's
    ((B x T x n_out) arrays, zero mask past a row's end, or no mask and each
    row's ``lengths``) one loss per row. A non-finite loss is a
    ``NumericsError``, which numpy may precede with a warning."""
    ys = np.asarray(ys, dtype=np.float64)
    per_step = step_loss(loss_tag, outs, ys,
                         _norm_mask(mask, outs.shape, lengths))
    loss = np.zeros(outs.shape[:-2])
    for t in range(outs.shape[-2]):
        loss = loss + per_step[..., t]
    if not np.isfinite(loss).all():
        r = int(np.argmax(~np.isfinite(loss)))
        n = outs.shape[-2] if lengths is None else lengths[r]
        raise NumericsError(f"non-finite loss in an episode of length {n}",
                            row=r)
    return _scalar(loss)


def backward(tape: Tape) -> np.ndarray:
    """Reverse sweep over a taped window: one gradient row per episode
    w.r.t. the flat parameter vector, its ``(params.count, B)`` sums
    transposed. Each edge's weight adjoint, in its ``w0`` row, carries back
    through its rule (a static edge's is the identity, never clipped), so at
    the row's span start it is the edge's ``w0`` gradient; a plastic edge's
    is zeroed in the rows that ``tape.episode_start`` does not flag.
    """
    topo = tape.topology
    params = tape.params
    n = topo.n
    K = len(tape.states) - 1
    B = len(tape.gy)
    start, end = tape.spans
    if np.any(np.diff(start) > 0) or np.any(np.diff(end) > 0):
        raise ValueError("tape rows must be sorted by length, longest first")
    # rows first[t] .. last[t] - 1 are swept at step t
    steps = np.arange(K + 1)
    first = np.count_nonzero(start[:, None] >= steps, axis=0)
    last = np.count_nonzero(end[:, None] >= steps, axis=0)

    rate = topo.rate_ids
    lif = topo.lif_ids
    heb = topo.hebbian_pos
    E, R, H = topo.n_edges, len(rate), len(heb)
    retention = params.retention
    learn_rate = params.learn_rate
    self_coeff = params.self_coeff
    dt = topo.lif_params.dt
    sig_prime = retention * (1.0 - retention)
    # straight-through clip: a recorded weight strictly inside the bound is
    # one the clip passed unchanged; static weights are never clipped
    bound = np.full((E, 1), CLIP_BOUND)
    bound[topo.static_idx] = np.inf
    out = topo.output_ids
    # gv_prev takes the hebbian source terms, then the gather transpose, in
    # one bincount over the rows of one buffer
    at_src = np.concatenate([topo.hebbian_src, topo.edge_src])
    terms = np.empty(len(at_src) * B)
    # the two scatters' flat offsets per number of rows swept at a step
    offsets = {}

    # The rows swept at a step, [lo, hi), are the columns of one contiguous
    # block: each one's gradient sums in the parameter vector's layout (the
    # w0 rows are the weight adjoint, one per edge, static edges included),
    # then its state and output adjoints. A row joins it, zero, at its
    # span's end and leaves it, its sums copied out, once its span's start
    # is passed; rows only leave at the front and join at the back, so none
    # of the updates below runs over strided columns. A step that sweeps no
    # row runs on zero-width arrays.
    P = params.count
    sums = np.zeros((P, B))
    block = np.zeros((P + 2 * n, 0))
    lo = hi = -1    # no block yet: the first step builds it and its views

    for t in range(K, 0, -1):
        a, b = first[t], last[t]
        m = b - a
        if (a, b) != (lo, hi):
            left = min(a, hi)
            sums[:, lo:left] = block[:P, :left - lo]
            joined = np.zeros((P + 2 * n, m))
            if hi > a:
                joined[:, :hi - a] = block[:, a - lo:]
            block, lo, hi = joined, a, b
            # an absent segment is an empty view
            ge, g_sc, g_b, g_lr, g_ret = (
                block[params.registry.get(name, slice(0))] for name in
                ("w0", "self_coeff", "bias", "learn_rate", "retention_raw"))
            gs, gv = block[P:P + n], block[P + n:]
        if m not in offsets:
            offsets[m] = (scatter_index(topo.hebbian_dst, m),
                          scatter_index(at_src, m))
        at_dst_h, at_src_m = offsets[m]
        prev = tape.states[t - 1]
        v_t = tape.states[t].v_last[:, a:b]
        v_prev = prev.v_last[:, a:b]
        w_prev = prev.plastic.weights[:, a:b]
        gv[out] += tape.gy[a:b, t - 1].T
        ge *= np.abs(tape.states[t].plastic.weights[:, a:b]) < bound

        # plasticity backward first: it consumed this step's outputs, so its
        # contribution to gv must land before the neuron backward reads gv
        step_terms = terms[:len(at_src) * m].reshape(len(at_src), m)
        if H:
            gh = ge.take(heb, 0)
            gh_lr = gh * learn_rate
            pre = v_prev.take(topo.hebbian_src, 0)
            post = v_t.take(topo.hebbian_dst, 0)
            g_lr += gh * (pre * post)
            g_ret[0] += _rowsum((gh * w_prev.take(heb, 0)).T) * sig_prime
            np.add.at(gv.reshape(-1), at_dst_h, (gh_lr * pre).ravel())
            np.multiply(gh_lr, post, out=step_terms[:H])
            # ge carries back through each edge's rule: a hebbian weight
            # decays by the retention; an stdp increment is
            # non-differentiable and a static weight never changes, so
            # theirs pass unchanged
            ge[heb] = gh * retention

        # neuron backward
        gu = np.zeros((n, m))
        if R:
            gz = ((gs.take(rate, 0) + gv.take(rate, 0))
                  * (1.0 - v_t.take(rate, 0) ** 2))
            g_sc += gz * v_prev.take(rate, 0)
            g_b += gz
            gu[rate] = gz
            gs[rate] = gz * self_coeff
        if len(lif):
            surr = lif_surrogate_grad(tape.states[t].lif_pre[:, a:b],
                                      topo.lif_params)
            spk = v_t.take(lif, 0)
            gp = gv.take(lif, 0) * surr + gs.take(lif, 0) * (1.0 - spk)
            gu[lif] = gp * dt
            gs[lif] = gp * (1.0 - dt)

        # gather backward: u[dst] = sum_e w_e * v_prev[src_e]
        gu_e = gu.take(topo.edge_dst, 0)
        np.multiply(gu_e, w_prev, out=step_terms[H:])
        gv[...] = np.bincount(at_src_m, step_terms.ravel(),
                              minlength=n * m).reshape(n, m)
        ge += gu_e * v_prev.take(topo.edge_src, 0)
    sums[:, lo:hi] = block[:P]
    # a plastic edge's adjoint at its span's start is its w0 gradient only
    # where the span starts the episode
    sums[params.registry["w0"]][topo.plastic_idx[:, None],
                                ~tape.episode_start] = 0.0
    return sums.T


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
    losses, grads = batch_gradients(
        topology, params, np.asarray(xs)[None], np.asarray(ys)[None],
        None if mask is None else np.asarray(mask)[None], [len(xs)],
        loss_tag, k1, k2)
    return losses[0], grads[0]


# window rows a stacked sweep may hold. The states it keeps and copies grow
# with its rows: a cap of 128 raised a pong-recipe epoch's peak RSS by about
# 5 MB and made it no faster (README, "Lockstep batches")
LOCKSTEP_ROWS = 64


def batch_gradients(topology: NetworkTopology, params: ParameterSet, xs, ys,
                    mask, lengths, loss_tag: str, k1: int | None = None,
                    k2: int | None = None) -> tuple[list[float], np.ndarray]:
    """Losses and gradients of a batch of episodes run in lockstep.

    ``xs`` (B x T x n_in), ``ys`` and ``mask`` (B x T x n_out) hold the
    episodes zero-padded to the longest, rows sorted by ``lengths``,
    longest first; ``mask=None`` scores each row's steps up to its length.
    Windows as in ``tbptt_gradients``; ``k1 = k2 = None`` is the full
    window. Returns (B losses, B x P gradient rows); row b is
    bitwise the result of ``tbptt_gradients`` on episode b alone; it sums
    the rows of each window's sweep in window order.

    Each window is queued after its forward pass as a ``Tape`` over its
    slice of the recorded states; the queue is swept (``_sweep``) when the
    next window would take it past ``LOCKSTEP_ROWS`` rows, and after the
    last flush. Beyond the queued tapes' own, only the states that a later
    window reads are kept; numpy may warn before a ``NumericsError``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape[:-1] != xs.shape[:-1]:
        raise ValueError(f"window lengths differ: stimuli {xs.shape[:-1]}, "
                         f"targets {ys.shape[:-1]}")
    B, T = xs.shape[:2]
    lengths = check_lengths(lengths, B, T)
    mask = _norm_mask(mask, ys.shape, lengths)
    if (k1 is None) != (k2 is None):
        raise ValueError("set both k1 and k2 or neither")
    if k1 is None:
        k1 = k2 = max(1, T)
    if not (1 <= k1 <= k2):
        raise ValueError(f"invalid window config k1={k1}, k2={k2}")
    grads = np.zeros((B, params.count))
    outs = np.zeros(ys.shape)
    state = fresh_state(topology, params, batch=B)
    kept = [state]           # the states after steps kept_from, kept_from + 1, ...
    kept_from = 0
    queue: list[Tape] = []
    flushed = 0
    for flush in [*range(k1, T, k1), T]:
        outs[:, flushed:flush], state = rollout(
            state, xs[:, flushed:flush], topology, params, states=kept,
            lengths=np.clip(lengths - flushed, 0, flush - flushed))
        rows = int(np.count_nonzero(lengths > flushed))  # rows with fresh steps
        if rows:
            stop = np.minimum(flush, lengths[:rows])
            begin = stop - np.minimum(k2, stop)
            t0, top = int(begin[-1]), int(stop[0])
            win_mask = mask[:rows, t0:top].copy()
            # steps already flushed carry no fresh loss
            win_mask[:, :flushed - t0] = 0.0
            queue.append(Tape(
                topology, params, kept[t0 - kept_from:top - kept_from + 1],
                step_loss_grad(loss_tag, outs[:rows, t0:top],
                               ys[:rows, t0:top], win_mask),
                (begin - t0, stop - t0), episode_start=(begin == 0)))
        flushed = flush
        queued = sum(len(tape.gy) for tape in queue)
        if queued + np.count_nonzero(lengths > flush) > LOCKSTEP_ROWS:
            _sweep(queue, grads)
            queue = []
        # queued tapes hold their own states; later windows read none from
        # before step flush + 1 - k2
        drop = flush + 1 - k2 - kept_from
        if drop > 0:
            del kept[:drop]
            kept_from += drop
    if queue:
        _sweep(queue, grads)
    return outputs_loss(loss_tag, outs, ys, mask, lengths).tolist(), grads


def _sweep(tapes: list[Tape], grads: np.ndarray) -> None:
    """Sweep queued tapes in one ``backward`` call and add each tape's
    gradient rows into the leading rows of ``grads`` in queue order. A tape
    alone is swept as it is; several are stacked by ``_stacked_tape``."""
    if len(tapes) == 1:
        grads[:len(tapes[0].gy)] += backward(tapes[0])
        return
    stacked, rows = _stacked_tape(tapes)
    g = backward(stacked)
    for tape, at in zip(tapes, rows):
        grads[:len(tape.gy)] += g[at]


def _stacked_tape(tapes: list[Tape]) -> tuple[Tape, list[np.ndarray]]:
    """One tape over the rows of several in their local time, rows sorted
    by span end, then span start, both descending; a span of at most k2
    steps starts at max(0, end - k2), so the two stay non-increasing
    together. Each state copies from the tapes' states only what the sweep
    reads of the rows live at its step: outputs, weights and pre-threshold
    membranes, no trace. Also returns each tape's rows of the stacked one,
    in its row order."""
    start = np.concatenate([tape.spans[0] for tape in tapes])
    end = np.concatenate([tape.spans[1] for tape in tapes])
    order = np.lexsort((-start, -end))
    sizes = [len(tape.gy) for tape in tapes]
    where = np.empty(len(order), dtype=np.intp)
    where[order] = np.arange(len(order))
    rows = np.split(where, np.cumsum(sizes)[:-1])
    K = max(tape.gy.shape[1] for tape in tapes)
    steps = np.arange(K + 1)
    # the rows live at local step i: a prefix of the stack, and of each tape
    live = np.count_nonzero(end[:, None] >= steps, axis=0).tolist()
    # the stack as runs (tape, its first row, rows) of consecutive rows
    tape_of = np.repeat(np.arange(len(tapes)), sizes)[order]
    row_of = np.concatenate([np.arange(n) for n in sizes])[order]
    first = np.flatnonzero((np.diff(tape_of, prepend=-1) != 0)
                           | (np.diff(row_of, prepend=-1) != 1))
    runs = list(zip(tape_of[first].tolist(), row_of[first].tolist(),
                    np.diff(first, append=len(order)).tolist()))
    states = []
    for i in steps:
        parts, left = [], live[i]
        for w, r, n in runs:
            if left == 0:
                break
            n = min(n, left)
            left -= n
            st = tapes[w].states[i]
            parts.append([field[:, r:r + n] for field in
                          (st.v_last, st.plastic.weights, st.lif_pre)])
        v, weights, lif_pre = (np.concatenate(field, axis=1)
                               for field in zip(*parts))
        states.append(RolloutState(v, lif_pre,
                                   PlasticEdgeState(weights, None), int(i)))
    gy = np.concatenate([np.pad(t.gy, ((0, 0), (0, K - t.gy.shape[1]), (0, 0)))
                         for t in tapes])
    entry = np.concatenate([tape.episode_start for tape in tapes])
    return Tape(tapes[0].topology, tapes[0].params, states, gy[order],
                (start[order], end[order]), episode_start=entry[order]), rows


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
