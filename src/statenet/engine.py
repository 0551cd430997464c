"""Step-by-step network execution with synchronous one-step edge delay.

Order of operations inside one step:

1. clamp input-neuron outputs to the external stimulus,
2. gather each non-input neuron's drive from *previous-step* outputs
   through *pre-update* edge weights,
3. update every neuron (rate / lif) to get this step's outputs and states,
4. update plastic edge weights from the activity just produced.

Steps 3 and 4 call the ``dynamics`` and ``plasticity`` kernels that the
backward sweep shares. ``rollout`` is the one loop over steps; it also
records the state trajectory a backward sweep reads.

The one-step delay on every edge makes arbitrary cycles well defined
without fixed-point iteration; the shortest input-to-output path of k
neurons first influences the output at step k.

``reference_rollout`` is an intentionally naive interpreter — explicit
per-edge Python loops, scalar double-precision arithmetic, no index
precomputation — kept as an independent correctness oracle for the
vectorized path. Both walk edges in the same normalized order, so rate
outputs agree to machine precision and spike trains agree exactly.

Non-finite values fail fast with the offending neuron and timestamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NumericsError, lif_step, rate_step
from .params import ParameterSet
from .plasticity import (PlasticEdgeState, hebbian_update, reset_plastic_state,
                         stdp_update)
from .topology import NetworkTopology


@dataclass
class RolloutState:
    """Everything that crosses a step boundary."""

    s: np.ndarray            # per-neuron internal state
    v_last: np.ndarray       # per-neuron outputs of the previous step
    plastic: PlasticEdgeState
    t: int = 0

    def copy(self) -> "RolloutState":
        return RolloutState(self.s.copy(), self.v_last.copy(),
                            self.plastic.copy(), self.t)


@dataclass
class StepResult:
    y: np.ndarray            # output-neuron values, topology id order
    probe: np.ndarray        # full per-neuron output vector


class ProbeWriter:
    """Columnar per-step trace: rows ``t,kind,id,a,b`` where neuron rows
    carry (state, output) and edge rows carry (weight, '')."""

    def __init__(self, path: str, edge_stride: int = 0):
        self.fh = open(path, "w", encoding="utf-8")
        self.fh.write("t,kind,id,a,b\n")
        self.edge_stride = edge_stride

    def record(self, t: int, s: np.ndarray, v: np.ndarray,
               topology: NetworkTopology, weights: np.ndarray) -> None:
        for i in range(len(s)):
            self.fh.write(f"{t},n,{i},{s[i]!r},{v[i]!r}\n")
        if self.edge_stride and t % self.edge_stride == 0:
            for k in topology.plastic_idx:
                e = topology.edges[k]
                w = weights[int(k)]
                self.fh.write(f"{t},e,{e.src}->{e.dst},{w!r},\n")

    def close(self) -> None:
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fresh_state(topology: NetworkTopology, params: ParameterSet) -> RolloutState:
    """Episode-start state: rate states zero, membranes at rest, no prior
    outputs, plastic weights at their trainable initial values."""
    s = np.zeros(topology.n)
    if len(topology.lif_ids):
        s[topology.lif_ids] = topology.lif_rest
    return RolloutState(s=s, v_last=np.zeros(topology.n),
                        plastic=reset_plastic_state(topology, params.w0), t=0)


def full_weights(topology: NetworkTopology, params: ParameterSet,
                 plastic: PlasticEdgeState) -> np.ndarray:
    """Effective per-edge weight vector: trainable initials with the
    plastic entries replaced by their current values."""
    w = params.w0.copy()
    if len(topology.plastic_idx):
        w[topology.plastic_idx] = plastic.weights
    return w


def gather(topology: NetworkTopology, w: np.ndarray,
           v_last: np.ndarray) -> np.ndarray:
    """Per-neuron drive from previous-step outputs, in edge order."""
    u = np.zeros(topology.n)
    np.add.at(u, topology.edge_dst, w * v_last[topology.edge_src])
    return u


def spikes_of(topology: NetworkTopology, v: np.ndarray) -> np.ndarray:
    """Outputs of lif neurons (inputs included), zero elsewhere."""
    spikes = np.zeros(topology.n)
    spikes[topology.lif_ids] = v[topology.lif_ids]
    spikes[topology.lif_input_ids] = v[topology.lif_input_ids]
    return spikes


def step(state: RolloutState, x: np.ndarray, topology: NetworkTopology,
         params: ParameterSet) -> tuple[StepResult, RolloutState]:
    """Advance the network one step. Returns (result, next state)."""
    t = state.t + 1
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (topology.n_inputs,):
        raise ValueError(f"stimulus shape {x.shape} != ({topology.n_inputs},) "
                         f"at t={t}")
    if not np.isfinite(x).all():
        raise NumericsError(f"non-finite stimulus at t={t}")

    v = np.zeros(topology.n)
    v[topology.input_ids] = x
    u = gather(topology, full_weights(topology, params, state.plastic),
               state.v_last)

    s_new = state.s.copy()
    rate = topology.rate_ids
    if len(rate):
        v[rate], s_new[rate] = rate_step(u[rate], state.s[rate], params,
                                         check=False)
    lif = topology.lif_ids
    if len(lif):
        v[lif], s_new[lif] = lif_step(u[lif], state.s[lif], topology.lif_params,
                                      check=False)

    if not np.isfinite(v).all() or not np.isfinite(s_new).all():
        bad = int(np.flatnonzero(~(np.isfinite(v) & np.isfinite(s_new)))[0])
        raise NumericsError(f"non-finite value at t={t}, neuron {bad}")

    new_plastic = state.plastic.copy()
    meta = params.meta
    heb = topology.hebbian_idx
    if len(heb):
        new_plastic.weights[topology.hebbian_pos], _ = hebbian_update(
            state.plastic.weights[topology.hebbian_pos],
            state.v_last[topology.edge_src[heb]], v[topology.edge_dst[heb]],
            params.learn_rate, params.retention, meta.clip_bound)
    sd = topology.stdp_idx
    if len(sd):
        (new_plastic.weights[topology.stdp_pos], _, new_plastic.trace_pre,
         new_plastic.trace_post) = stdp_update(
            state.plastic.weights[topology.stdp_pos], topology.edge_src[sd],
            topology.edge_dst[sd], spikes_of(topology, v),
            state.plastic.trace_pre, state.plastic.trace_post, meta)

    result = StepResult(y=v[topology.output_ids].copy(), probe=v)
    next_state = RolloutState(s=s_new, v_last=v, plastic=new_plastic, t=t)
    return result, next_state


def rollout(state0: RolloutState, xs: np.ndarray, topology: NetworkTopology,
            params: ParameterSet, probe: ProbeWriter | None = None,
            states: list[RolloutState] | None = None,
            ) -> tuple[np.ndarray, RolloutState]:
    """Fold ``step`` over a stimulus sequence. Returns (T x n_out outputs,
    final state). ``states``, when given, receives the entry state and the
    state after every step."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.zeros((len(xs), topology.n_outputs))
    state = state0
    if states is not None:
        states.append(state)
    for t in range(len(xs)):
        res, state = step(state, xs[t], topology, params)
        ys[t] = res.y
        if states is not None:
            states.append(state)
        if probe is not None:
            probe.record(state.t, state.s, res.probe, topology,
                         full_weights(topology, params, state.plastic))
    return ys, state


def reference_rollout(state0: RolloutState, xs, topology: NetworkTopology,
                      params: ParameterSet) -> list[list[float]]:
    """Naive interpreter: explicit per-edge loops, scalar arithmetic.

    Deliberately independent of the vectorized path; used as an oracle.
    """
    n = topology.n
    s = [float(x) for x in state0.s]
    v_last = [float(x) for x in state0.v_last]
    e_plastic = [float(x) for x in state0.plastic.weights]
    tr_pre = [float(x) for x in state0.plastic.trace_pre]
    tr_post = [float(x) for x in state0.plastic.trace_post]
    w0 = [float(x) for x in params.w0]

    plastic_pos = {int(k): i for i, k in enumerate(topology.plastic_idx)}
    roles = {nr.id: nr.role for nr in topology.neurons}
    models = {nr.id: nr.model for nr in topology.neurons}
    meta = params.meta
    retention = params.retention
    lr_by_edge = {int(k): float(params.learn_rate[i])
                  for i, k in enumerate(topology.hebbian_idx)}
    # rate parameter lookup by neuron id
    rate_pos = {int(i): k for k, i in enumerate(topology.rate_ids)}
    lif_pos = {int(i): k for k, i in enumerate(topology.lif_ids)}

    outputs: list[list[float]] = []
    for row in xs:
        v = [0.0] * n
        for k, i in enumerate(topology.input_ids):
            v[int(i)] = float(row[k])

        u = [0.0] * n
        for k, e in enumerate(topology.edges):
            w = e_plastic[plastic_pos[k]] if e.plastic else w0[k]
            u[e.dst] += w * v_last[e.src]

        s_new = list(s)
        for i in range(n):
            if roles[i] == "input":
                continue
            if models[i] == "rate":
                p = topology.neurons[i].params
                sc = float(params.self_coeff[rate_pos[i]])
                b = float(params.bias[rate_pos[i]])
                sr = math.tanh(u[i] + sc * s[i] + b)
                v[i] = sr
                s_new[i] = sr
            else:
                k = lif_pos[i]
                dt = float(topology.lif_dt[k])
                rest = float(topology.lif_rest[k])
                pre = s[i] + dt * (-(s[i] - rest) + u[i])
                if pre >= float(topology.lif_threshold[k]):
                    v[i] = 1.0
                    s_new[i] = float(topology.lif_reset[k])
                else:
                    v[i] = 0.0
                    s_new[i] = pre

        spikes = [0.0] * n
        for i in range(n):
            if models[i] == "lif":
                spikes[i] = v[i]

        e_new = list(e_plastic)
        any_stdp = False
        for k, e in enumerate(topology.edges):
            if not e.plastic:
                continue
            pos = plastic_pos[k]
            if e.rule == "hebbian":
                raw = retention * e_plastic[pos] + lr_by_edge[k] * (
                    v_last[e.src] * v[e.dst])
                e_new[pos] = min(max(raw, -meta.clip_bound), meta.clip_bound)
            else:
                any_stdp = True
                tp = meta.trace_decay * tr_pre[e.src]
                tq = meta.trace_decay * tr_post[e.dst]
                delta = (meta.potentiation * tp * spikes[e.dst]
                         - meta.depression * tq * spikes[e.src])
                raw = e_plastic[pos] + delta
                e_new[pos] = min(max(raw, -meta.clip_bound), meta.clip_bound)
        if any_stdp:
            for i in range(n):
                tr_pre[i] = meta.trace_decay * tr_pre[i] + spikes[i]
                tr_post[i] = meta.trace_decay * tr_post[i] + spikes[i]

        e_plastic = e_new
        s = s_new
        v_last = v
        outputs.append([v[int(i)] for i in topology.output_ids])
    return outputs
