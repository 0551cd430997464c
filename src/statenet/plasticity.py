"""Within-rollout modulation of edge weights from neuronal activity.

The one implementation of the rules and the weight clip: ``engine.step``
applies them, ``autodiff.backward`` reads their pre-clip values.

Two rules:

* hebbian (differentiable fast weights):
      e_new = clip(retention * e_prev + learn_rate * out_pre_prev * out_post,
                   -clip_bound, clip_bound)
  The presynaptic factor is the source neuron's output from the *previous*
  step — the same value that produced the postsynaptic drive under the
  engine's one-step edge delay — so the rule reinforces actual causal
  contribution.

* stdp (spiking, trace-based): per step the per-neuron eligibility traces
  first decay by ``trace_decay``, the weight change is read from the
  decayed traces, and only then are the current spikes added:
      delta = potentiation * trace_pre_decayed[src] * spike[dst]
            - depression  * trace_post_decayed[dst] * spike[src]
  so an isolated source spike one step before a target spike changes the
  weight by exactly potentiation * trace_decay, and the mirrored order by
  -depression * trace_decay.

Plastic weights are reset to the trainable initial weights at every
episode start; persistence across episodes is deliberately not the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import NetworkTopology


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class PlasticityMeta:
    """Hyper- and meta-parameters of the plasticity rules.

    ``learn_rate_init`` and ``retention_init`` seed the trainable hebbian
    meta-parameters; the stdp magnitudes and the trace decay stay fixed.
    ``retention`` is stored unconstrained by the optimizer and squashed to
    (0, 1) with a sigmoid on every read.
    """

    clip_bound: float = 5.0
    learn_rate_init: float = 0.01
    retention_init: float = 0.95
    potentiation: float = 0.05   # stdp magnitude, source-before-target
    depression: float = 0.05     # stdp magnitude, target-before-source
    trace_decay: float = 0.8

    @property
    def retention_raw_init(self) -> float:
        return _logit(self.retention_init)


def squash_retention(raw: float) -> float:
    if raw >= 0:
        return 1.0 / (1.0 + math.exp(-raw))
    ex = math.exp(raw)
    return ex / (1.0 + ex)


@dataclass
class PlasticEdgeState:
    """Mutable per-rollout plastic-edge weights and eligibility traces.

    ``weights`` covers plastic edges only (indexed like
    ``topology.plastic_idx``); static edges read straight from the
    parameter vector. Traces are per neuron and only meaningful for
    spiking cells. A batch has one row per episode in each array.
    """

    weights: np.ndarray
    trace_pre: np.ndarray
    trace_post: np.ndarray

    def copy(self) -> "PlasticEdgeState":
        return PlasticEdgeState(self.weights.copy(), self.trace_pre.copy(),
                                self.trace_post.copy())

    def rows(self, rows: slice | None) -> "PlasticEdgeState":
        return PlasticEdgeState(self.weights[rows], self.trace_pre[rows],
                                self.trace_post[rows])


def reset_plastic_state(topology: NetworkTopology, w0: np.ndarray,
                        batch: int | None = None) -> PlasticEdgeState:
    """Episode-boundary state: plastic weights := their initial weights,
    traces zeroed. ``w0`` is the full per-edge initial-weight vector; with
    ``batch``, one such row per episode."""
    weights = np.asarray(w0, dtype=np.float64)[topology.plastic_idx]
    lead = () if batch is None else (batch,)
    return PlasticEdgeState(
        weights=np.tile(weights, lead + (1,)),
        trace_pre=np.zeros(lead + (topology.n,)),
        trace_post=np.zeros(lead + (topology.n,)),
    )


def hebbian_update(e_prev, out_pre_prev, out_post, learn_rate,
                   retention: float, clip_bound: float):
    """Elementwise fast-weight update over hebbian edges.

    Differentiable except exactly at the clip boundary. Returns
    (clipped weights, pre-clip values); the pre-clip values gate the
    straight-through backward pass.
    """
    raw = retention * e_prev + learn_rate * (out_pre_prev * out_post)
    return clip_weights(raw, clip_bound), raw


def stdp_update(e_prev, src, dst, spikes, trace_pre, trace_post,
                meta: PlasticityMeta):
    """Trace-based spike-timing update for one step over stdp edges.

    ``src``/``dst`` are the edges' endpoint neuron ids; ``spikes`` and the
    traces carried from the previous step are per neuron (last axis, one
    row per episode of a batch). The weight change
    reads the decayed traces, the current spikes are added afterwards.
    Returns (clipped weights, pre-clip values, new trace_pre, new trace_post).
    """
    tp = meta.trace_decay * trace_pre
    tq = meta.trace_decay * trace_post
    raw = e_prev + (meta.potentiation * tp[..., src] * spikes[..., dst]
                    - meta.depression * tq[..., dst] * spikes[..., src])
    return clip_weights(raw, meta.clip_bound), raw, tp + spikes, tq + spikes


def clip_weights(raw, bound: float):
    """The weight clip to [-bound, bound] (np.clip's values, at a fraction
    of its per-call cost)."""
    return np.minimum(np.maximum(raw, -bound), bound)
