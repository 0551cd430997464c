"""Reverse-mode differentiation of rollout losses.

The computation shape is fixed by the topology, so instead of a general
expression graph the tape is simply the state trajectory that
``engine.rollout`` records: ``states[0]`` is the entry state and
``states[t]`` the state after step t; a truncated window's tape is a slice
of the episode's one trajectory. The backward sweep re-derives the few
intermediates it needs (drive, pre-threshold membrane, pre-clip plastic
weights) from the stored states with the engine's gather and the
``dynamics`` / ``plasticity`` kernels, so recorded and replayed values are
bitwise identical by construction.

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

from .dynamics import lif_membrane_pre, lif_surrogate_grad
from .engine import (RolloutState, fresh_state, full_weights, gather, rollout,
                     spikes_of)
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


def step_loss(tag: str, v_out: np.ndarray, y: np.ndarray,
              mask_row: np.ndarray) -> float:
    """Masked loss of one step's output vector against its target."""
    if tag == "mse":
        return float(0.5 * np.sum(mask_row * (v_out - y) ** 2))
    if tag == "bce":
        # logits form: max(v,0) - v*y + log(1 + exp(-|v|))
        terms = np.maximum(v_out, 0.0) - v_out * y + np.log1p(np.exp(-np.abs(v_out)))
        return float(np.sum(mask_row * terms))
    if tag == "cce":
        w = _cce_step_weight(mask_row)
        if w == 0.0:
            return 0.0
        m = float(np.max(v_out))
        lse = m + float(np.log(np.sum(np.exp(v_out - m))))
        return w * (lse - float(np.sum(y * v_out)))
    raise ValueError(f"unknown loss tag {tag!r}")


def step_loss_grad(tag: str, v_out: np.ndarray, y: np.ndarray,
                   mask_row: np.ndarray) -> np.ndarray:
    """d(step loss)/d(output vector)."""
    if tag == "mse":
        return mask_row * (v_out - y)
    if tag == "bce":
        return mask_row * (_sigmoid(v_out) - y)
    if tag == "cce":
        w = _cce_step_weight(mask_row)
        if w == 0.0:
            return np.zeros_like(v_out)
        m = np.max(v_out)
        ex = np.exp(v_out - m)
        return w * (ex / np.sum(ex) - y)
    raise ValueError(f"unknown loss tag {tag!r}")


def _cce_step_weight(mask_row: np.ndarray) -> float:
    # cross-entropy couples all outputs of a step; the mask must not split them
    if not (np.all(mask_row == mask_row[0])):
        raise ValueError("cce mask must be constant within a step")
    return float(mask_row[0])


# ---------------------------------------------------------------------------
# tape


@dataclass
class Tape:
    """Recorded forward window: entry state at index 0, one state per step."""

    topology: NetworkTopology
    params: ParameterSet
    states: list[RolloutState]
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray
    loss_tag: str

    def __len__(self) -> int:
        return len(self.states) - 1

    def verify_replay(self) -> None:
        """Re-run the window and compare every state bitwise."""
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


def _norm_mask(mask, T: int, n_out: int) -> np.ndarray:
    if mask is None:
        return np.ones((T, n_out))
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (T, n_out):
        raise ValueError(f"mask shape {mask.shape} != ({T}, {n_out})")
    return mask


def outputs_loss(loss_tag: str, outs: np.ndarray, ys, mask) -> float:
    """Masked loss of a rollout's outputs against their targets, summed one
    step at a time in step order."""
    ys = np.asarray(ys, dtype=np.float64)
    mask = _norm_mask(mask, len(outs), outs.shape[1])
    loss = 0.0
    for t in range(len(outs)):
        loss += step_loss(loss_tag, outs[t], ys[t], mask[t])
    return loss


def forward_taped(state0: RolloutState, xs, ys, mask,
                  topology: NetworkTopology, params: ParameterSet,
                  loss_tag: str) -> tuple[float, Tape, RolloutState]:
    """Run a window forward, recording the state trajectory.

    Returns (masked window loss, tape, exit state). The exit state is the
    carry for the next window.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    T = len(xs)
    if len(ys) != T:
        raise ValueError(f"window lengths differ: {T} stimuli, {len(ys)} targets")
    mask = _norm_mask(mask, T, topology.n_outputs)
    states: list[RolloutState] = []
    outs, state = rollout(state0, xs, topology, params, states=states)
    loss = outputs_loss(loss_tag, outs, ys, mask)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss in window of length {T}")
    tape = Tape(topology=topology, params=params, states=states,
                xs=xs, ys=ys, mask=mask, loss_tag=loss_tag)
    return loss, tape, state


def backward(tape: Tape, upstream: StateGradient | None = None
             ) -> tuple[np.ndarray, StateGradient]:
    """Reverse sweep over a taped window.

    Returns (gradient w.r.t. the flat parameter vector, gradient w.r.t.
    the window's entry state). The entry-state ``e`` component is the
    adjoint of the plastic weights at window start; when the window starts
    at an episode boundary the caller folds it into the ``w0`` gradient
    (plastic weights are reset to ``w0`` there).
    """
    topo = tape.topology
    params = tape.params
    meta = params.meta
    n = topo.n
    K = len(tape)

    g = np.zeros(params.count)
    w0_sl = params.registry["w0"]
    sc_sl = params.registry["self_coeff"]
    b_sl = params.registry["bias"]

    retention = params.retention
    learn_rate = params.learn_rate
    if params.has("retention_raw"):
        sig_prime = retention * (1.0 - retention)

    if upstream is None:
        gs = np.zeros(n)
        gv = np.zeros(n)
        ge = np.zeros(topo.n_plastic)
    else:
        gs = upstream.s.copy()
        gv = upstream.v.copy()
        ge = upstream.e.copy()

    rate = topo.rate_ids
    lif = topo.lif_ids
    heb = topo.hebbian_idx
    sd = topo.stdp_idx
    src_h = topo.edge_src[heb]
    dst_h = topo.edge_dst[heb]
    self_coeff = params.self_coeff

    for t in range(K, 0, -1):
        st_prev = tape.states[t - 1]
        st = tape.states[t]
        v_t = st.v_last
        v_prev = st_prev.v_last
        s_prev = st_prev.s
        w_full_prev = full_weights(topo, params, st_prev.plastic)

        # loss term at this step
        gv[topo.output_ids] += step_loss_grad(
            tape.loss_tag, v_t[topo.output_ids], tape.ys[t - 1], tape.mask[t - 1])

        gv_prev = np.zeros(n)
        ge_prev = np.zeros(topo.n_plastic)

        # plasticity backward first: it consumed this step's outputs, so its
        # contribution to gv must land before the neuron backward reads gv
        if len(heb):
            e_prev_h = st_prev.plastic.weights[topo.hebbian_pos]
            pre = v_prev[src_h]
            post = v_t[dst_h]
            _, raw = hebbian_update(e_prev_h, pre, post, learn_rate, retention,
                                    meta.clip_bound)
            gh = ge[topo.hebbian_pos] * (np.abs(raw) < meta.clip_bound)
            g[params.registry["learn_rate"]] += gh * (pre * post)
            g[params.registry["retention_raw"]] += np.sum(gh * e_prev_h) * sig_prime
            ge_prev[topo.hebbian_pos] = gh * retention
            np.add.at(gv, dst_h, gh * learn_rate * pre)
            np.add.at(gv_prev, src_h, gh * learn_rate * post)
        if len(sd):
            # increment is non-differentiable; only the additive carry and
            # its clip gate pass gradient
            _, raw_sd, _, _ = stdp_update(
                st_prev.plastic.weights[topo.stdp_pos], topo.edge_src[sd],
                topo.edge_dst[sd], spikes_of(topo, v_t), st_prev.plastic.trace_pre,
                st_prev.plastic.trace_post, meta)
            ge_prev[topo.stdp_pos] = ge[topo.stdp_pos] * (np.abs(raw_sd)
                                                          < meta.clip_bound)

        # neuron backward
        gu = np.zeros(n)
        gs_prev = np.zeros(n)
        if len(rate):
            gz = (gs[rate] + gv[rate]) * (1.0 - v_t[rate] ** 2)
            g[sc_sl] += gz * s_prev[rate]
            g[b_sl] += gz
            gu[rate] = gz
            gs_prev[rate] = gz * self_coeff
        if len(lif):
            u = gather(topo, w_full_prev, v_prev)
            membrane = lif_membrane_pre(u[lif], s_prev[lif], topo.lif_params)
            surr = lif_surrogate_grad(membrane, topo.lif_params)
            spk = v_t[lif]
            gp = gv[lif] * surr + gs[lif] * (1.0 - spk)
            gu[lif] = gp * topo.lif_dt
            gs_prev[lif] = gp * (1.0 - topo.lif_dt)

        # gather backward: u[dst] = sum_e w_e * v_prev[src_e]
        contrib = gu[topo.edge_dst] * v_prev[topo.edge_src]
        if len(topo.static_idx):
            g[w0_sl][topo.static_idx] += contrib[topo.static_idx]
        if topo.n_plastic:
            ge_prev += contrib[topo.plastic_idx]
        np.add.at(gv_prev, topo.edge_src, gu[topo.edge_dst] * w_full_prev)

        gs = gs_prev
        gv = gv_prev
        ge = ge_prev

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
    state0 = fresh_state(topology, params)
    loss, tape, _ = forward_taped(state0, xs, ys, mask, topology, params, loss_tag)
    g, entry = backward(tape)
    if topology.n_plastic:
        g[params.registry["w0"]][topology.plastic_idx] += entry.e
    return loss, params.apply_freeze(g)


def tbptt_gradients(topology: NetworkTopology, params: ParameterSet, xs, ys,
                    mask, loss_tag: str, k1: int, k2: int) -> tuple[float, np.ndarray]:
    """Truncated backpropagation through time.

    Windows flush every ``k1`` steps (and at the sequence end), each
    unrolling at most ``k2`` steps back; state carries across flushes but
    gradient does not. Loss derivatives are injected only at not-yet-
    flushed steps, so with ``k2 >= T`` the result equals full
    backpropagation regardless of ``k1``.
    """
    if not (1 <= k1 <= k2):
        raise ValueError(f"invalid window config k1={k1}, k2={k2}")
    total_loss, full, _ = forward_taped(fresh_state(topology, params), xs, ys,
                                        mask, topology, params, loss_tag)
    T = len(full)
    grad = np.zeros(params.count)
    last_flushed = 0
    for t in [*range(k1, T, k1), T]:
        t0 = t - min(k2, t)
        win_mask = full.mask[t0:t].copy()
        # rows already flushed carry no fresh loss
        win_mask[:last_flushed - t0] = 0.0
        tape = replace(full, states=full.states[t0:t + 1], xs=full.xs[t0:t],
                       ys=full.ys[t0:t], mask=win_mask)
        g, entry = backward(tape)
        grad += g
        if t0 == 0 and topology.n_plastic:
            grad[params.registry["w0"]][topology.plastic_idx] += entry.e
        last_flushed = t
    return total_loss, params.apply_freeze(grad)


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
