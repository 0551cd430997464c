"""Per-neuron state update and output kernels, the one implementation of
the cell equations: ``engine.step`` runs them over a step's rate and lif
neurons and records the lif pre-threshold membrane, at which
``autodiff.backward`` takes the surrogate.

Two cell types share the same contract (drive, previous state) -> (output,
new state); ``lif_step`` also returns its pre-threshold membrane:

* rate:  s_new = tanh(drive + self_coeff * s_prev + bias), output = s_new.
* lif:   explicit-Euler leaky membrane,
         pre = s_prev + dt * (-(s_prev - rest) + drive);
         spike = [pre >= threshold]; hard reset to ``reset`` on spike.

All functions are pure and accept scalars or numpy arrays elementwise;
``params`` holds one neuron's parameters or arrays aligned with the
topology's rate / lif ids (``ParameterSet``, ``NetworkTopology.lif_params``),
``(k, 1)`` columns that broadcast against the ``(k, B)`` values of a
batch, neuron axis first and one column per episode (one episode is the
batch of one). The spike nonlinearity is not differentiable; training
uses the fast-sigmoid surrogate in ``lif_surrogate_grad``. The kernels do
not check their inputs: ``engine.step`` checks each whole step once and
names the step, the neuron and the row.
"""

from __future__ import annotations

import numpy as np

from .topology import LifParams, RateParams


class NumericsError(FloatingPointError):
    """Non-finite value produced or consumed by a neuron update. ``row`` is
    the episode's row of the batch the update ran over."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def rate_step(drive, s_prev, params: RateParams):
    """One rate-neuron update. Returns (output, new state); they are equal."""
    s_new = np.tanh(drive + params.self_coeff * s_prev + params.bias)
    return s_new, s_new


def lif_step(drive, s_prev, params: LifParams):
    """One leaky integrate-and-fire update. Returns (spike, new membrane,
    pre-threshold membrane); the last is the ``lif_membrane_pre`` value the
    spike was taken at, kept for the surrogate of the backward sweep.

    With zero drive the membrane decays geometrically toward ``rest`` with
    factor (1 - dt) per step. A spike forces the membrane to ``reset``
    regardless of drive magnitude.
    """
    pre = lif_membrane_pre(drive, s_prev, params)
    spike = np.greater_equal(pre, params.threshold).astype(np.float64)
    return spike, np.where(spike > 0.0, params.reset, pre), pre


def lif_membrane_pre(drive, s_prev, params: LifParams):
    """Pre-threshold membrane value (the quantity the surrogate is taken at)."""
    return s_prev + params.dt * (-(s_prev - params.rest) + drive)


def lif_surrogate_grad(membrane_pre, params: LifParams):
    """Fast-sigmoid stand-in for d(spike)/d(membrane_pre).

    beta / (1 + beta * |membrane_pre - threshold|)**2: strictly positive,
    even around the threshold, maximal (= beta) exactly at it.
    """
    beta = params.sharpness
    return beta / (1.0 + beta * np.abs(membrane_pre - params.threshold)) ** 2
