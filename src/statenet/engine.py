"""Step-by-step network execution with synchronous one-step edge delay.

Every state array has the neuron (or edge) axis first and one column per
episode: ``step`` runs a batch of episodes in lockstep on ``(n, B)``
arrays, one episode being the batch of one, so every neuron and edge read
is a ``take`` of whole rows and per-neuron parameters broadcast as
``(k, 1)`` columns. ``rollout`` keeps its ``(B, T, ·)`` stimuli and
outputs; only one episode's keep their shapes: ``(T, n_in)`` stimuli run
as ``xs[None]``, an ``(n_in,)`` one is a column. Each column of a batch is
bitwise the result of running that episode alone: every operation is
elementwise, and the gather sums each column's edges in edge order. A
batch of ragged episodes is run with its columns sorted by length,
longest first; ``rollout``'s ``lengths`` stops each one at its own end,
so the state after step t holds only the episodes still running, the
leading columns of the batch. A closed loop, which learns that an
episode has ended only by stepping it, drops the finished episodes by
index with ``RolloutState.rows``.

Order of operations inside one step:

1. clamp input-neuron outputs to the external stimulus,
2. gather each non-input neuron's drive from *previous-step* outputs
   through *pre-update* edge weights, read straight off the state, which
   carries every edge's current weight (static ones stay at ``w0``),
3. update every neuron (rate / lif) to get this step's outputs and states,
4. update plastic edge weights from the activity just produced: each rule
   reads and writes its own edge columns, and stdp reads this step's
   outputs as spikes and the one per-neuron trace at each edge's two
   endpoints (both lif cells, whose outputs are their spikes).

Steps 3 and 4 call the ``dynamics`` and ``plasticity`` kernels that the
backward sweep shares. ``rollout`` is the one loop over steps, and
``states`` its one recording hook: it appends each new state to a list, the
trajectory a backward sweep reads, or to a ``ProbeWriter``, a CSV sink.

The one-step delay on every edge makes arbitrary cycles well defined
without fixed-point iteration; the shortest input-to-output path of k
neurons first influences the output at step k.

``reference_rollout`` is an intentionally naive interpreter — explicit
per-edge Python loops, scalar double-precision arithmetic, no index
precomputation — kept as an independent correctness oracle for the
vectorized path. Both walk edges in the same normalized order, so rate
outputs agree to machine precision and spike trains agree exactly.

Non-finite values fail fast with the offending step, neuron and row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NumericsError, lif_step, rate_step
from .params import ParameterSet
from .plasticity import (CLIP_BOUND, DEPRESSION, POTENTIATION, TRACE_DECAY,
                         PlasticEdgeState, hebbian_update, reset_plastic_state,
                         stdp_update)
from .topology import NetworkTopology


@dataclass
class RolloutState:
    """Everything that crosses a step boundary."""

    s: np.ndarray            # per-neuron internal state
    v_last: np.ndarray       # per-neuron outputs of the previous step
    plastic: PlasticEdgeState
    t: int = 0

    def rows(self, rows: slice | np.ndarray) -> "RolloutState":
        """Some episodes of a batch state: a slice gives views, an integer
        index array copies of those episodes in its order."""
        return RolloutState(self.s[:, rows], self.v_last[:, rows],
                            self.plastic.rows(rows), self.t)


@dataclass
class StepResult:
    y: np.ndarray            # output-neuron values, topology id order, (n_out, B)
    probe: np.ndarray        # every neuron's output, (n, B)


class ProbeWriter:
    """Columnar per-step trace of one episode (a batch of one), a
    ``rollout`` states sink: rows ``t,kind,id,a,b`` where neuron rows carry
    (state, output) and edge rows carry (weight, '')."""

    def __init__(self, path: str, topology: NetworkTopology,
                 edge_stride: int = 0):
        self.fh = open(path, "w", encoding="utf-8")
        self.fh.write("t,kind,id,a,b\n")
        self.topology = topology
        self.edge_stride = edge_stride

    def append(self, state: RolloutState) -> None:
        """Write the state after step ``state.t``; one episode's only."""
        if state.s.shape[1] != 1:
            raise ValueError("a probe records one episode, not a batch")
        t, topology = state.t, self.topology
        # tolist() gives Python floats, whose repr reads back bitwise
        rows = [f"{t},n,{i},{a!r},{b!r}\n" for i, (a, b) in
                enumerate(zip(state.s[:, 0].tolist(), state.v_last[:, 0].tolist()))]
        if self.edge_stride and t % self.edge_stride == 0:
            idx = topology.plastic_idx
            rows += [f"{t},e,{src}->{dst},{w!r},\n" for src, dst, w in zip(
                topology.edge_src[idx].tolist(), topology.edge_dst[idx].tolist(),
                state.plastic.weights[idx, 0].tolist())]
        self.fh.write("".join(rows))

    def close(self) -> None:
        self.fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def fresh_state(topology: NetworkTopology, params: ParameterSet,
                batch: int = 1) -> RolloutState:
    """Episode-start state of each of ``batch`` episodes, one column each:
    rate states zero, membranes at rest, no prior outputs, edge weights at
    their trainable initial values."""
    s = np.zeros((topology.n, batch))
    s[topology.lif_ids] = topology.lif_params.rest
    return RolloutState(s, np.zeros(s.shape),
                        reset_plastic_state(topology, params.w0, batch))


def scatter_index(idx: np.ndarray, cols: int) -> np.ndarray:
    """Flat offsets that send row k of a (len(idx), cols) array to row
    ``idx[k]`` of an (n, cols) one: ``np.bincount`` over them adds each
    bin's terms in the order of ``idx``."""
    return (idx[:, None] * cols + np.arange(cols)).ravel()


def gather(topology: NetworkTopology, w: np.ndarray,
           v_last: np.ndarray) -> np.ndarray:
    """Per-neuron drive from previous-step outputs, summed in edge order
    (bitwise ``np.add.at`` into zeros)."""
    contrib = v_last.take(topology.edge_src, 0)
    contrib *= w
    n, cols = v_last.shape
    return np.bincount(scatter_index(topology.edge_dst, cols), contrib.ravel(),
                       minlength=n * cols).reshape(n, cols)


def step(state: RolloutState, x: np.ndarray, topology: NetworkTopology,
         params: ParameterSet) -> tuple[StepResult, RolloutState]:
    """Advance the network one step. Returns (result, next state).

    The state takes one stimulus column per episode, ``(n_in, B)``; one
    episode's ``(n_in,)`` stimulus is the one column of a batch of one. A
    non-finite value raises ``NumericsError`` naming the step, the neuron
    and the episode's column (``row``)."""
    t = state.t + 1
    x = np.asarray(x, dtype=np.float64)
    want = (topology.n_inputs, state.v_last.shape[1])
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != want:
        raise ValueError(f"stimulus shape {x.shape} != {want} at t={t}")
    if not np.isfinite(x).all():
        raise _non_finite(f"non-finite stimulus at t={t}", np.isfinite(x))

    v = np.zeros(state.v_last.shape)
    v[topology.input_ids] = x
    u = gather(topology, state.plastic.weights, state.v_last)

    s_new = state.s.copy()
    rate = topology.rate_ids
    if len(rate):
        out, s_rate = rate_step(u.take(rate, 0), state.s.take(rate, 0),
                                params)
        v[rate] = out
        s_new[rate] = s_rate
    lif = topology.lif_ids
    if len(lif):
        out, s_lif = lif_step(u.take(lif, 0), state.s.take(lif, 0),
                              topology.lif_params)
        v[lif] = out
        s_new[lif] = s_lif

    # rate outputs equal their new states and spikes are 0 or 1, so the
    # new states are the values to check
    finite = np.isfinite(s_new)
    if not finite.all():
        raise _non_finite(f"non-finite value at t={t}, neuron "
                          f"{np.argwhere(~finite.T)[0][-1]}", finite)

    # the rules replace the trace, never write into it: share it
    new_plastic = PlasticEdgeState(state.plastic.weights.copy(),
                                   state.plastic.trace)
    heb = topology.hebbian_pos
    if len(heb):
        new_plastic.weights[heb] = hebbian_update(
            state.plastic.weights.take(heb, 0),
            state.v_last.take(topology.edge_src[heb], 0),
            v.take(topology.edge_dst[heb], 0),
            params.learn_rate, params.retention)
    sd = topology.stdp_pos
    if len(sd):
        new_plastic.weights[sd], new_plastic.trace = stdp_update(
            state.plastic.weights.take(sd, 0), topology.edge_src[sd],
            topology.edge_dst[sd], v, state.plastic.trace)

    result = StepResult(y=v.take(topology.output_ids, 0), probe=v)
    next_state = RolloutState(s=s_new, v_last=v, plastic=new_plastic, t=t)
    return result, next_state


def _non_finite(message: str, ok: np.ndarray) -> NumericsError:
    """The error for a failed finiteness check, naming the first episode
    (column) that failed it."""
    return NumericsError(message, row=int(np.argwhere(~ok.T)[0][0]))


def rollout(state0: RolloutState, xs: np.ndarray, topology: NetworkTopology,
            params: ParameterSet, states: list | ProbeWriter | None = None,
            lengths=None) -> tuple[np.ndarray, RolloutState]:
    """Fold ``step`` over a stimulus sequence. Returns (outputs, final
    state). ``states``, when given, receives the state after every step
    through its ``append``: a list records the trajectory, a
    ``ProbeWriter`` writes one episode's.

    ``state0`` holds B episodes (columns), ``xs`` is (B x T x n_in), the
    outputs (B x T x n_out). ``lengths`` (B steps counts, non-increasing)
    ends row b after ``lengths[b]`` steps: its later outputs stay zero, and
    the states after step t (the final state too) hold only the leading
    columns still running then. One episode's (T x n_in) stimuli run as a
    batch of one and give (T x n_out) outputs.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        ys, state = rollout(state0, xs[None], topology, params, states)
        return ys[0], state
    if len(xs) < state0.s.shape[1]:
        raise ValueError(f"stimulus shape {xs.shape} has fewer rows than "
                         f"the state's {state0.s.shape[1]} episodes")
    ys = np.zeros(xs.shape[:-1] + (topology.n_outputs,))
    # (T, channels, B) views: each step's stimuli and outputs by column
    by_step, out = xs.transpose(1, 2, 0), ys.transpose(1, 2, 0)
    if lengths is None:
        lengths = np.full(len(xs), len(by_step))
    lengths = np.asarray(lengths)
    if np.any(np.diff(lengths) > 0):
        raise ValueError("batch rows must be sorted by length, longest first")
    rows = np.count_nonzero(lengths[:, None] > np.arange(len(by_step)), axis=0)
    state = state0
    for t in range(len(by_step)):
        x, y = by_step[t][:, :rows[t]], out[t][:, :rows[t]]
        if rows[t] < state.s.shape[1]:
            state = state.rows(slice(rows[t]))
        res, state = step(state, x, topology, params)
        y[...] = res.y
        if states is not None:
            states.append(state)
    return ys, state


def reference_rollout(state0: RolloutState, xs, topology: NetworkTopology,
                      params: ParameterSet) -> list[list[float]]:
    """Naive interpreter: explicit per-edge loops, scalar arithmetic.

    Deliberately independent of the vectorized path; used as an oracle.
    Runs one episode, (T x n_in) stimuli, from column 0 of ``state0``.
    """
    n = topology.n
    s = [float(x) for x in state0.s[:, 0]]
    v_last = [float(x) for x in state0.v_last[:, 0]]
    # plastic edges start from the state's weights, static ones read w0
    e_plastic = [float(x) for x in state0.plastic.weights[:, 0]]
    # the oracle keeps a pre and a post trace; both start from the one trace
    tr_pre = [float(x) for x in state0.plastic.trace[:, 0]]
    tr_post = list(tr_pre)
    w0 = [float(x) for x in params.w0]

    roles = {nr.id: nr.role for nr in topology.neurons}
    models = {nr.id: nr.model for nr in topology.neurons}
    retention = params.retention
    lr_by_edge = {int(k): float(params.learn_rate[i, 0])
                  for i, k in enumerate(topology.hebbian_pos)}
    # rate parameter lookup by neuron id
    rate_pos = {int(i): k for k, i in enumerate(topology.rate_ids)}
    lif_pos = {int(i): k for k, i in enumerate(topology.lif_ids)}
    lif = topology.lif_params

    outputs: list[list[float]] = []
    for row in xs:
        v = [0.0] * n
        for k, i in enumerate(topology.input_ids):
            v[int(i)] = float(row[k])

        u = [0.0] * n
        for k, e in enumerate(topology.edges):
            w = e_plastic[k] if e.plastic else w0[k]
            u[e.dst] += w * v_last[e.src]

        s_new = list(s)
        for i in range(n):
            if roles[i] == "input":
                continue
            if models[i] == "rate":
                sc = float(params.self_coeff[rate_pos[i], 0])
                b = float(params.bias[rate_pos[i], 0])
                sr = math.tanh(u[i] + sc * s[i] + b)
                v[i] = sr
                s_new[i] = sr
            else:
                k = lif_pos[i]
                dt = float(lif.dt[k, 0])
                rest = float(lif.rest[k, 0])
                pre = s[i] + dt * (-(s[i] - rest) + u[i])
                if pre >= float(lif.threshold[k, 0]):
                    v[i] = 1.0
                    s_new[i] = float(lif.reset[k, 0])
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
            if e.rule == "hebbian":
                raw = retention * e_plastic[k] + lr_by_edge[k] * (
                    v_last[e.src] * v[e.dst])
                e_new[k] = min(max(raw, -CLIP_BOUND), CLIP_BOUND)
            else:
                any_stdp = True
                tp = TRACE_DECAY * tr_pre[e.src]
                tq = TRACE_DECAY * tr_post[e.dst]
                delta = (POTENTIATION * tp * spikes[e.dst]
                         - DEPRESSION * tq * spikes[e.src])
                raw = e_plastic[k] + delta
                e_new[k] = min(max(raw, -CLIP_BOUND), CLIP_BOUND)
        if any_stdp:
            for i in range(n):
                tr_pre[i] = TRACE_DECAY * tr_pre[i] + spikes[i]
                tr_post[i] = TRACE_DECAY * tr_post[i] + spikes[i]

        e_plastic = e_new
        s = s_new
        v_last = v
        outputs.append([v[int(i)] for i in topology.output_ids])
    return outputs
