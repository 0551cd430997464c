"""Per-neuron state update and output kernels, the one implementation of
the cell equations: ``engine.step`` runs them over a step's rate and lif
neurons and records the lif pre-threshold membrane, at which
``autodiff.backward`` takes the surrogate.

A rate cell's state is its output: (drive, previous output) -> output. A
lif cell's is its spike output and pre-threshold membrane: (drive, previous
spike, previous pre-threshold membrane) -> (spike, pre-threshold membrane):

* rate:  v = tanh(drive + self_coeff * v_prev + bias).
* lif:   explicit-Euler leaky membrane from s_prev = ``lif_membrane``,
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


def rate_step(drive, v_prev, params: RateParams):
    """One rate-neuron update from its previous output. Returns the
    output, which is also the cell's state."""
    return np.tanh(drive + params.self_coeff * v_prev + params.bias)


def lif_step(drive, spike_prev, pre_prev, params: LifParams):
    """One leaky integrate-and-fire update from the previous step's spike
    and pre-threshold membrane. Returns (spike, pre-threshold membrane),
    the ``lif_membrane_pre`` value the spike was taken at.

    With zero drive the membrane decays geometrically toward ``rest`` with
    factor (1 - dt) per step. A spike forces the membrane to ``reset``
    regardless of drive magnitude.
    """
    pre = lif_membrane_pre(drive, lif_membrane(spike_prev, pre_prev, params),
                           params)
    return np.greater_equal(pre, params.threshold).astype(np.float64), pre


def lif_membrane(spike, pre, params: LifParams):
    """The membrane after a step: ``reset`` on a spike, else ``pre``."""
    return np.where(spike > 0.0, params.reset, pre)


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
