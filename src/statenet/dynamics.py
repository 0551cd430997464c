"""Per-neuron state update and output kernels, the one implementation of
the cell equations: ``engine.step`` runs them over a step's rate and lif
neurons, ``autodiff.backward`` reads its membrane and surrogate from them.

Two cell types share the same contract (drive, previous state) -> (output,
new state):

* rate:  s_new = tanh(drive + self_coeff * s_prev + bias), output = s_new.
* lif:   explicit-Euler leaky membrane,
         pre = s_prev + dt * (-(s_prev - rest) + drive);
         spike = [pre >= threshold]; hard reset to ``reset`` on spike.

All functions are pure and accept scalars or numpy arrays elementwise;
``params`` holds one neuron's parameters or arrays aligned with the
topology's rate / lif ids (``ParameterSet``, ``NetworkTopology.lif_params``).
Arrays have the neuron axis first and an optional trailing episode axis:
one episode's values are ``(k,)``, a batch's ``(k, B)``, against which
the per-neuron parameters broadcast as ``(k, 1)`` columns (``columns``).
The spike nonlinearity is not differentiable; training uses the
fast-sigmoid surrogate in ``lif_surrogate_grad``. The kernels do not
check their inputs: ``engine.step`` checks each whole step once and names
the step, the neuron and, on a batch, the row.
"""

from __future__ import annotations

import numpy as np

from .topology import LifParams, RateParams


class NumericsError(FloatingPointError):
    """Non-finite value produced or consumed by a neuron update. ``row`` is
    the episode's row when the update ran over a batch."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def columns(p, like):
    """``p``, one value per neuron (or edge), against ``like``: as it is
    against one episode's ``(k,)`` values, a ``(k, 1)`` column against a
    batch's ``(k, B)``."""
    if getattr(like, "ndim", 0) == 2 and getattr(p, "ndim", 0) == 1:
        return p[:, None]
    return p


def rate_step(drive, s_prev, params: RateParams):
    """One rate-neuron update. Returns (output, new state); they are equal."""
    s_new = np.tanh(drive + columns(params.self_coeff, s_prev) * s_prev
                    + columns(params.bias, s_prev))
    return s_new, s_new


def lif_step(drive, s_prev, params: LifParams):
    """One leaky integrate-and-fire update. Returns (spike, new membrane).

    With zero drive the membrane decays geometrically toward ``rest`` with
    factor (1 - dt) per step. A spike forces the membrane to ``reset``
    regardless of drive magnitude.
    """
    pre = lif_membrane_pre(drive, s_prev, params)
    threshold = columns(params.threshold, pre)
    spike = np.greater_equal(pre, threshold).astype(np.float64)
    return spike, np.where(spike > 0.0, columns(params.reset, pre), pre)


def lif_membrane_pre(drive, s_prev, params: LifParams):
    """Pre-threshold membrane value (the quantity the surrogate is taken at)."""
    return s_prev + columns(params.dt, s_prev) * (
        -(s_prev - columns(params.rest, s_prev)) + drive)


def lif_surrogate_grad(membrane_pre, params: LifParams):
    """Fast-sigmoid stand-in for d(spike)/d(membrane_pre).

    beta / (1 + beta * |membrane_pre - threshold|)**2: strictly positive,
    even around the threshold, maximal (= beta) exactly at it.
    """
    membrane_pre = np.asarray(membrane_pre, dtype=np.float64)
    beta = columns(params.sharpness, membrane_pre)
    return beta / (1.0 + beta * np.abs(
        membrane_pre - columns(params.threshold, membrane_pre))) ** 2
