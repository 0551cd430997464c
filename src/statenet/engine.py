"""Step-by-step network execution with synchronous one-step edge delay.

Every state array has the neuron (or edge) axis first and one column per
episode: ``step`` runs a batch of episodes in lockstep on ``(n, B)``
outputs, ``(n_lif, B)`` lif pre-threshold membranes (``RolloutState``)
and ``(n_edges, B)`` weights, one episode being the batch of one, so every
neuron and edge read is a ``take`` of whole rows and per-neuron parameters
broadcast as ``(k, 1)`` columns. ``rollout`` keeps its ``(B, T, ·)``
stimuli and outputs; only one episode's keep their shapes: ``(T, n_in)``
stimuli run as ``xs[None]``, an ``(n_in,)`` one is a column. Each column
of a batch is bitwise the result of running that episode alone: every
operation is elementwise, and the gather sums each column's edges in edge
order. A batch of ragged episodes is run with its columns sorted by
length, longest first; ``rollout``'s ``lengths`` stops each one at its own
end, and the rollout at the last one's, so the state after step t holds
only the episodes still running, the leading columns of the batch. A
closed loop, which learns that an episode has ended only by stepping it,
drops the finished episodes by index with ``RolloutState.rows``.

Order of operations inside one step:

1. clamp input-neuron outputs to the external stimulus,
2. gather each non-input neuron's drive from *previous-step* outputs
   through *pre-update* edge weights, read straight off the state, which
   carries every edge's current weight (static ones stay at ``w0``),
3. update every neuron to get this step's outputs: a rate cell from its
   previous output, a lif cell from its spike and pre-threshold membrane,
   which it replaces; the backward sweep takes the surrogate at the latter,
4. update plastic edge weights from the activity just produced: each rule
   reads and writes its own edge columns, and stdp reads this step's
   outputs as spikes and the one per-neuron trace at each edge's two
   endpoints (both lif cells, whose outputs are their spikes).

Steps 3 and 4 call the ``dynamics`` and ``plasticity`` kernels that the
backward sweep shares; each rule reads its edges' endpoints off the
topology (``hebbian_src`` / ``hebbian_dst``, ``stdp_src`` / ``stdp_dst``).
``rollout`` is the one loop over steps of recorded stimuli, and ``states``
its one recording hook: a list it appends each new state to, the
trajectory that a backward sweep reads and that ``write_probe`` writes out
as one episode's CSV. The closed loop, whose stimuli come from the
environment it acts in, is the one other: ``training._play_pong``.

The gather's flat offsets (``scatter_index``) depend only on the edges and
the batch width, so each state carries those of its own width
(``RolloutState.offsets``). ``step`` builds them only for a state that has
none (a ``fresh_state`` or a ``RolloutState.rows`` result) and hands them
on to the state it returns, so a loop builds them once per width, and a
rollout that resumes from a final state builds none.

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

from .dynamics import NumericsError, lif_membrane, lif_step, rate_step
from .jsonio import atomic_write
from .params import ParameterSet
from .plasticity import (CLIP_BOUND, DEPRESSION, POTENTIATION, TRACE_DECAY,
                         PlasticEdgeState, hebbian_update, stdp_update)
from .topology import NetworkTopology


@dataclass
class RolloutState:
    """Everything that crosses a step boundary. A lif cell's membrane is
    ``lif_membrane`` of its spike in ``v_last`` and its ``lif_pre``, which
    the backward sweep also takes the spike surrogate at; ``lif_pre`` is
    ``(0, B)`` on a net without lif cells. ``offsets`` are the gather's
    ``scatter_index(topology.edge_dst, B)``, or None until a step builds
    them; ``rows`` never carries them over."""

    v_last: np.ndarray       # (n, B) outputs of the step that made it
    lif_pre: np.ndarray      # (n_lif, B) membranes before threshold and reset
    plastic: PlasticEdgeState
    t: int = 0
    offsets: np.ndarray | None = None

    def rows(self, rows: slice | np.ndarray) -> "RolloutState":
        """Some episodes of a batch state: a slice gives views, an integer
        index array copies of those episodes in its order."""
        plastic = PlasticEdgeState(self.plastic.weights[:, rows],
                                   self.plastic.trace[:, rows])
        return RolloutState(self.v_last[:, rows], self.lif_pre[:, rows],
                            plastic, self.t)


@dataclass
class StepResult:
    y: np.ndarray            # output-neuron values, topology id order, (n_out, B)
    probe: np.ndarray        # every neuron's output, (n, B)


def fresh_state(topology: NetworkTopology, params: ParameterSet,
                batch: int = 1) -> RolloutState:
    """Episode-start state of each of ``batch`` episodes, one column each:
    no prior outputs, membranes at rest, every edge weight at its
    trainable initial value ``params.w0``, the trace zeroed. Every episode
    starts here, so plastic weights never carry over from the last one."""
    rest = np.repeat(topology.lif_params.rest, batch, axis=1)
    plastic = PlasticEdgeState(np.repeat(params.w0[:, None], batch, axis=1),
                               np.zeros((topology.n, batch)))
    return RolloutState(np.zeros((topology.n, batch)), rest, plastic)


def write_probe(path: str, topology: NetworkTopology,
                states: list[RolloutState], edge_stride: int = 0) -> None:
    """Write the states that one episode's ``rollout(..., states=states)``
    recorded as a columnar CSV: rows ``t,kind,id,a,b``, where neuron rows
    carry (state, output) at every step and plastic edge rows carry
    (weight, '') at every ``edge_stride``-th step (none when 0). A
    neuron's state is its output for a rate cell, its membrane for a lif
    cell and 0 for an input.

    A batch state raises ``ValueError`` before ``path`` is touched, and the
    file is replaced whole or not at all. A rollout that raises (say a
    ``NumericsError``) leaves the states of its earlier steps in the list,
    so the steps up to a divergence can still be written."""
    if any(state.v_last.shape[1] != 1 for state in states):
        raise ValueError("a probe records one episode, not a batch")
    src = topology.edge_src[topology.plastic_idx].tolist()
    dst = topology.edge_dst[topology.plastic_idx].tolist()
    with atomic_write(path) as fh:
        fh.write("t,kind,id,a,b\n")
        for state in states:
            t = state.t
            cell = state.v_last[:, 0].copy()
            cell[topology.input_ids] = 0.0
            cell[topology.lif_ids] = lif_membrane(
                state.v_last[topology.lif_ids], state.lif_pre,
                topology.lif_params)[:, 0]
            # tolist() gives Python floats, whose repr reads back bitwise
            rows = [f"{t},n,{i},{a!r},{b!r}\n" for i, (a, b) in
                    enumerate(zip(cell.tolist(), state.v_last[:, 0].tolist()))]
            if edge_stride and t % edge_stride == 0:
                weights = state.plastic.weights[topology.plastic_idx, 0]
                rows += [f"{t},e,{a}->{b},{w!r},\n"
                         for a, b, w in zip(src, dst, weights.tolist())]
            fh.write("".join(rows))


def scatter_index(idx: np.ndarray, cols: int) -> np.ndarray:
    """Flat offsets that send row k of a (len(idx), cols) array to row
    ``idx[k]`` of an (n, cols) one: ``np.bincount`` over them adds each
    bin's terms in the order of ``idx``."""
    return (idx[:, None] * cols + np.arange(cols)).ravel()


def gather(topology: NetworkTopology, w: np.ndarray, v_last: np.ndarray,
           offsets: np.ndarray) -> np.ndarray:
    """Per-neuron drive from previous-step outputs, summed in edge order
    (bitwise ``np.add.at`` into zeros). ``offsets`` are
    ``scatter_index(topology.edge_dst, B)`` for the B columns of
    ``v_last``."""
    n, cols = v_last.shape
    if len(offsets) != topology.n_edges * cols:
        raise ValueError(f"gather offsets hold {len(offsets)} entries, not "
                         f"{topology.n_edges} edges x {cols} columns")
    contrib = v_last.take(topology.edge_src, 0)
    contrib *= w
    return np.bincount(offsets, contrib.ravel(),
                       minlength=n * cols).reshape(n, cols)


def step(state: RolloutState, x: np.ndarray, topology: NetworkTopology,
         params: ParameterSet) -> tuple[StepResult, RolloutState]:
    """Advance the network one step. Returns (result, next state).

    The state takes one stimulus column per episode, ``(n_in, B)``; one
    episode's ``(n_in,)`` stimulus is the one column of a batch of one.
    The gather reads the state's offsets, built here when it has none, and
    the next state shares them; offsets of another width raise
    ``ValueError``. A non-finite value, a stimulus too, raises
    ``NumericsError`` naming the step, the neuron and the episode's column
    (``row``) before any weight is updated; numpy may warn first."""
    t = state.t + 1
    x = np.asarray(x, dtype=np.float64)
    want = (topology.n_inputs, state.v_last.shape[1])
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != want:
        raise ValueError(f"stimulus shape {x.shape} != {want} at t={t}")

    offsets = state.offsets
    if offsets is None:
        offsets = scatter_index(topology.edge_dst, want[1])
    v = np.zeros(state.v_last.shape)
    v[topology.input_ids] = x
    u = gather(topology, state.plastic.weights, state.v_last, offsets)

    rate = topology.rate_ids
    if len(rate):
        v[rate] = rate_step(u.take(rate, 0), state.v_last.take(rate, 0),
                            params)
    lif = topology.lif_ids
    lif_pre = state.lif_pre
    if len(lif):
        v[lif], lif_pre = lif_step(u.take(lif, 0), state.v_last.take(lif, 0),
                                   state.lif_pre, topology.lif_params)
    # a spike is 0 or 1 whatever its membrane: check the pre-threshold
    # membrane instead; the input rows hold the stimulus
    finite = np.isfinite(v)
    finite[lif] = np.isfinite(lif_pre)
    if not finite.all():
        first = np.argwhere(~finite.T)[0]
        raise NumericsError(f"non-finite value at t={t}, neuron {first[1]}",
                            row=int(first[0]))

    # the rules replace the trace, never write into it: share it
    new_plastic = PlasticEdgeState(state.plastic.weights.copy(),
                                   state.plastic.trace)
    heb = topology.hebbian_pos
    if len(heb):
        new_plastic.weights[heb] = hebbian_update(
            state.plastic.weights.take(heb, 0),
            state.v_last.take(topology.hebbian_src, 0),
            v.take(topology.hebbian_dst, 0),
            params.learn_rate, params.retention)
    sd = topology.stdp_pos
    if len(sd):
        new_plastic.weights[sd], new_plastic.trace = stdp_update(
            state.plastic.weights.take(sd, 0), topology.stdp_src,
            topology.stdp_dst, v, state.plastic.trace)

    result = StepResult(y=v.take(topology.output_ids, 0), probe=v)
    next_state = RolloutState(v_last=v, lif_pre=lif_pre, plastic=new_plastic,
                              t=t, offsets=offsets)
    return result, next_state


def check_lengths(lengths, rows: int, steps: int) -> np.ndarray:
    """``lengths`` as an array, refused (``ValueError``) unless it holds one
    integer step count per batch row, each in [0, steps], longest first."""
    lengths = np.asarray(lengths)
    if lengths.size and lengths.dtype.kind not in "iu":
        raise ValueError(f"lengths must be integers, got {lengths.tolist()}")
    lengths = lengths.astype(np.intp, copy=False)
    if lengths.shape != (rows,):
        raise ValueError(f"lengths shape {lengths.shape} != ({rows},)")
    if np.any((lengths < 0) | (lengths > steps)):
        raise ValueError(f"lengths must lie in [0, {steps}], "
                         f"got {lengths.tolist()}")
    if np.any(np.diff(lengths) > 0):
        raise ValueError("batch rows must be sorted by length, longest first")
    return lengths


def rollout(state0: RolloutState, xs: np.ndarray, topology: NetworkTopology,
            params: ParameterSet, states: list | None = None,
            lengths=None) -> tuple[np.ndarray, RolloutState]:
    """Fold ``step`` over a stimulus sequence. Returns (outputs, final
    state). ``states``, when given, is a list that the state after every
    step is appended to: the trajectory, as a backward sweep or
    ``write_probe`` reads it.

    ``state0`` holds B episodes (columns), ``xs`` is (B x T x n_in), the
    outputs (B x T x n_out). ``lengths`` (``check_lengths``; T each when
    None) ends row b after ``lengths[b]`` steps: its later outputs stay
    zero, and the states after step t hold only the leading columns still
    running then. The rollout stops with its longest row, whose end state
    it returns. One episode's (T x n_in) stimuli run as a batch of one and
    give (T x n_out) outputs. Numeric failure is ``step``'s.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        ys, state = rollout(state0, xs[None], topology, params, states,
                            lengths)
        return ys[0], state
    if len(xs) < state0.v_last.shape[1]:
        raise ValueError(f"stimulus shape {xs.shape} has fewer rows than "
                         f"the state's {state0.v_last.shape[1]} episodes")
    ys = np.zeros(xs.shape[:-1] + (topology.n_outputs,))
    # (T, channels, B) views: each step's stimuli and outputs by column
    by_step, out = xs.transpose(1, 2, 0), ys.transpose(1, 2, 0)
    lengths = check_lengths(np.full(len(xs), xs.shape[1]) if lengths is None
                            else lengths, *xs.shape[:2])
    rows = np.count_nonzero(lengths[:, None] > np.arange(len(by_step)), axis=0)
    state = state0
    for t in range(lengths.max(initial=0)):
        x, y = by_step[t][:, :rows[t]], out[t][:, :rows[t]]
        if rows[t] < state.v_last.shape[1]:
            state = state.rows(slice(rows[t]))
        res, state = step(state, x, topology, params)
        y[...] = res.y
        if states is not None:
            states.append(state)
    return ys, state


def reference_rollout(state0: RolloutState, xs, topology: NetworkTopology,
                      params: ParameterSet,
                      record: list | None = None) -> list[list[float]]:
    """Naive interpreter: explicit per-edge loops, scalar arithmetic.

    Deliberately independent of the vectorized path; used as an oracle.
    Runs one episode, (T x n_in) stimuli, from column 0 of ``state0``, and
    returns each step's outputs. ``record``, when given, receives after
    every step a triple (plastic weights in ``topology.plastic_idx`` order,
    lif membranes in ``topology.lif_ids`` order, and the lif pre-threshold
    membranes in the same order).
    """
    n = topology.n
    v_last = [float(x) for x in state0.v_last[:, 0]]
    # a rate cell's state is its output, a lif cell's its membrane: reset
    # where it spiked, its pre-threshold membrane elsewhere
    lif = topology.lif_params
    s = list(v_last)
    for k, i in enumerate(topology.lif_ids):
        spiked = v_last[int(i)] > 0.0
        s[int(i)] = float(lif.reset[k, 0] if spiked else state0.lif_pre[k, 0])
    # plastic edges start from the state's weights, static ones read w0
    e_plastic = [float(x) for x in state0.plastic.weights[:, 0]]
    trace = [float(x) for x in state0.plastic.trace[:, 0]]
    w0 = [float(x) for x in params.w0]

    roles = {nr.id: nr.role for nr in topology.neurons}
    models = {nr.id: nr.model for nr in topology.neurons}
    retention = params.retention
    lr_by_edge = {int(k): float(params.learn_rate[i, 0])
                  for i, k in enumerate(topology.hebbian_pos)}
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
            w = e_plastic[k] if e.plastic else w0[k]
            u[e.dst] += w * v_last[e.src]

        s_new = list(s)
        pre_of = [0.0] * n
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
                pre_of[i] = pre
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
                tp = TRACE_DECAY * trace[e.src]
                tq = TRACE_DECAY * trace[e.dst]
                delta = (POTENTIATION * tp * spikes[e.dst]
                         - DEPRESSION * tq * spikes[e.src])
                raw = e_plastic[k] + delta
                e_new[k] = min(max(raw, -CLIP_BOUND), CLIP_BOUND)
        if any_stdp:
            for i in range(n):
                trace[i] = TRACE_DECAY * trace[i] + spikes[i]

        e_plastic = e_new
        s = s_new
        v_last = v
        outputs.append([v[int(i)] for i in topology.output_ids])
        if record is not None:
            record.append(([e_plastic[int(k)] for k in topology.plastic_idx],
                           [s[int(i)] for i in topology.lif_ids],
                           [pre_of[int(i)] for i in topology.lif_ids]))
    return outputs
