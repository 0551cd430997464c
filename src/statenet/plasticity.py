"""Within-rollout modulation of edge weights from neuronal activity.

The one implementation of the rules and the weight clip: ``engine.step``
applies each rule to its own edges of the rollout's per-edge weights,
``autodiff.backward`` reads the clip gate off the recorded weights (the
clip maps every value at or beyond the bound to exactly it). Arrays have
the edge (or neuron) axis first and one column per episode, against which
per-edge parameters broadcast as ``(k, 1)`` columns.

Two rules:

* hebbian (differentiable fast weights):
      e_new = clip(retention * e_prev + learn_rate * out_pre_prev * out_post,
                   -CLIP_BOUND, CLIP_BOUND)
  The presynaptic factor is the source neuron's output from the *previous*
  step — the same value that produced the postsynaptic drive under the
  engine's one-step edge delay — so the rule reinforces actual causal
  contribution.

* stdp (spiking, trace-based): per step the per-neuron eligibility trace
  first decays by ``TRACE_DECAY``, the weight change is read from the
  decayed trace at the edge's source and at its target, and only then are
  the current spikes added:
      delta = POTENTIATION * trace_decayed[src] * spike[dst]
            - DEPRESSION   * trace_decayed[dst] * spike[src]
  so an isolated source spike one step before a target spike changes the
  weight by exactly POTENTIATION * TRACE_DECAY, and the mirrored order by
  -DEPRESSION * TRACE_DECAY.

Plastic weights start every episode at the trainable initial weights:
``engine.fresh_state`` builds each episode's state so. Training fits the
hebbian learning rates and retention (``params``); the clip bound, the
stdp magnitudes and the trace decay are fixed constants, as in Miconi et
al. 2018 and Song, Miller & Abbott 2000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# fixed hyperparameters of the rules; the stdp sign laws need non-negative
# magnitudes, the trace bound 1 / (1 - TRACE_DECAY) a decay in [0, 1)
CLIP_BOUND = 5.0
POTENTIATION = 0.05   # stdp magnitude, source-before-target
DEPRESSION = 0.05     # stdp magnitude, target-before-source
TRACE_DECAY = 0.8


def squash_retention(raw: float) -> float:
    if raw >= 0:
        return 1.0 / (1.0 + math.exp(-raw))
    ex = math.exp(raw)
    return ex / (1.0 + ex)


@dataclass
class PlasticEdgeState:
    """Mutable per-rollout edge weights and the spike trace.

    ``weights`` holds every edge's current weight in topology edge order:
    a static edge's entry stays at its ``w0``, a plastic edge's is the
    one its rule updates (``topology.hebbian_pos`` / ``stdp_pos``).
    ``trace`` is per neuron: stdp reads it at an edge's source and at its
    target, both lif cells; a non-lif neuron's entry accumulates its
    outputs but is never read. Each array has one column per episode of
    a batch: ``(n_edges, B)`` weights, an ``(n, B)`` trace.
    """

    weights: np.ndarray
    trace: np.ndarray


def hebbian_update(e_prev, out_pre_prev, out_post, learn_rate,
                   retention: float):
    """Elementwise fast-weight update over hebbian edges.

    Differentiable except exactly at the clip boundary. Returns the
    clipped weights.
    """
    # in place: the terms are products, the sum commutes, so the values are
    # those of retention * e_prev + learn_rate * (pre * post)
    raw = out_pre_prev * out_post
    raw *= learn_rate
    raw += retention * e_prev
    return clip_weights(raw)


def stdp_update(e_prev, src, dst, spikes, trace):
    """Trace-based spike-timing update for one step over stdp edges.

    ``src``/``dst`` are the edges' endpoint neuron ids; ``spikes`` and the
    trace carried from the previous step are per neuron (first axis, one
    column per episode of a batch). The weight change reads the decayed
    trace at both endpoints, the current spikes are added afterwards.
    Returns (clipped weights, new trace).
    """
    decayed = TRACE_DECAY * trace
    raw = e_prev + (
        POTENTIATION * decayed.take(src, 0) * spikes.take(dst, 0)
        - DEPRESSION * decayed.take(dst, 0) * spikes.take(src, 0))
    return clip_weights(raw), decayed + spikes


def clip_weights(raw):
    """Clip ``raw`` to [-CLIP_BOUND, CLIP_BOUND] in place and return it
    (np.clip's values, at a fraction of its per-call cost)."""
    return np.minimum(np.maximum(raw, -CLIP_BOUND, out=raw), CLIP_BOUND,
                      out=raw)
