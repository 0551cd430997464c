"""Within-rollout modulation of edge weights from neuronal activity.

The one implementation of the rules and the weight clip: ``engine.step``
applies each rule to its own columns of the rollout's per-edge weights,
``autodiff.backward`` reads the clip gate off the recorded weights (the
clip maps every value at or beyond the bound to exactly it).

Two rules:

* hebbian (differentiable fast weights):
      e_new = clip(retention * e_prev + learn_rate * out_pre_prev * out_post,
                   -clip_bound, clip_bound)
  The presynaptic factor is the source neuron's output from the *previous*
  step — the same value that produced the postsynaptic drive under the
  engine's one-step edge delay — so the rule reinforces actual causal
  contribution.

* stdp (spiking, trace-based): per step the per-neuron eligibility trace
  first decays by ``trace_decay``, the weight change is read from the
  decayed trace at the edge's source and at its target, and only then are
  the current spikes added:
      delta = potentiation * trace_decayed[src] * spike[dst]
            - depression  * trace_decayed[dst] * spike[src]
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

    def validate(self) -> None:
        """Refuse a value the rules cannot use: the stdp sign laws need
        non-negative magnitudes, the trace bound 1 / (1 - trace_decay) a
        decay in [0, 1)."""
        if not self.clip_bound > 0:
            raise ValueError(f"clip_bound must be > 0, got {self.clip_bound}")
        if not 0 < self.retention_init < 1:
            raise ValueError(f"retention_init must be in (0, 1), "
                             f"got {self.retention_init}")
        if not 0 <= self.trace_decay < 1:
            raise ValueError(f"trace_decay must be in [0, 1), "
                             f"got {self.trace_decay}")
        for name in ("potentiation", "depression"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, "
                                 f"got {getattr(self, name)}")


def squash_retention(raw: float) -> float:
    if raw >= 0:
        return 1.0 / (1.0 + math.exp(-raw))
    ex = math.exp(raw)
    return ex / (1.0 + ex)


@dataclass
class PlasticEdgeState:
    """Mutable per-rollout edge weights and the spike trace.

    ``weights`` holds every edge's current weight in topology edge order:
    a static edge's column stays at its ``w0``, a plastic edge's is the
    one its rule updates (``topology.hebbian_pos`` / ``stdp_pos``).
    ``trace`` is per neuron: stdp reads it at an edge's source and at its
    target, both lif cells; a non-lif neuron's column accumulates its
    outputs but is never read. A batch has one row per episode in each
    array.
    """

    weights: np.ndarray
    trace: np.ndarray

    def rows(self, rows: slice | np.ndarray) -> "PlasticEdgeState":
        """Some episodes' rows, picked as ``RolloutState.rows`` picks them."""
        return PlasticEdgeState(self.weights[rows], self.trace[rows])


def reset_plastic_state(topology: NetworkTopology, w0: np.ndarray,
                        batch: int | None = None) -> PlasticEdgeState:
    """Episode-boundary state: every edge weight := its initial weight
    (a copy of the per-edge vector ``w0``), trace zeroed; with ``batch``,
    one such row per episode."""
    lead = () if batch is None else (batch,)
    return PlasticEdgeState(
        weights=np.tile(np.asarray(w0, dtype=np.float64), lead + (1,)),
        trace=np.zeros(lead + (topology.n,)),
    )


def hebbian_update(e_prev, out_pre_prev, out_post, learn_rate,
                   retention: float, clip_bound: float):
    """Elementwise fast-weight update over hebbian edges.

    Differentiable except exactly at the clip boundary. Returns the
    clipped weights.
    """
    raw = retention * e_prev + learn_rate * (out_pre_prev * out_post)
    return clip_weights(raw, clip_bound)


def stdp_update(e_prev, src, dst, spikes, trace, meta: PlasticityMeta):
    """Trace-based spike-timing update for one step over stdp edges.

    ``src``/``dst`` are the edges' endpoint neuron ids; ``spikes`` and the
    trace carried from the previous step are per neuron (last axis, one
    row per episode of a batch). The weight change reads the decayed trace
    at both endpoints, the current spikes are added afterwards. Returns
    (clipped weights, new trace).
    """
    decayed = meta.trace_decay * trace
    raw = e_prev + (meta.potentiation * decayed[..., src] * spikes[..., dst]
                    - meta.depression * decayed[..., dst] * spikes[..., src])
    return clip_weights(raw, meta.clip_bound), decayed + spikes


def clip_weights(raw, bound: float):
    """The weight clip to [-bound, bound] (np.clip's values, at a fraction
    of its per-call cost)."""
    return np.minimum(np.maximum(raw, -bound), bound)
