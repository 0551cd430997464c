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
The spike nonlinearity is not differentiable; training uses the
fast-sigmoid surrogate in ``lif_surrogate_grad``. The engine passes
``check=False`` and checks each whole step once, naming step and neuron.
"""

from __future__ import annotations

import numpy as np

from .topology import LifParams, RateParams


class NumericsError(FloatingPointError):
    """Non-finite value produced or consumed by a neuron update."""


def _finite(where: str, drive, s_prev):
    drive = np.asarray(drive, dtype=np.float64)
    s_prev = np.asarray(s_prev, dtype=np.float64)
    if not (np.all(np.isfinite(drive)) and np.all(np.isfinite(s_prev))):
        raise NumericsError(f"{where}: non-finite drive or state")
    return drive, s_prev


def rate_step(drive, s_prev, params: RateParams, check: bool = True):
    """One rate-neuron update. Returns (output, new state); they are equal."""
    if check:
        drive, s_prev = _finite("rate_step", drive, s_prev)
    s_new = np.tanh(drive + params.self_coeff * s_prev + params.bias)
    return s_new, s_new


def lif_step(drive, s_prev, params: LifParams, check: bool = True):
    """One leaky integrate-and-fire update. Returns (spike, new membrane).

    With zero drive the membrane decays geometrically toward ``rest`` with
    factor (1 - dt) per step. A spike forces the membrane to ``reset``
    regardless of drive magnitude.
    """
    if check:
        drive, s_prev = _finite("lif_step", drive, s_prev)
    pre = lif_membrane_pre(drive, s_prev, params)
    spike = (pre >= params.threshold).astype(np.float64)
    s_new = np.where(spike > 0.0, params.reset, pre)
    if spike.ndim == 0:
        return float(spike), float(s_new)
    return spike, s_new


def lif_membrane_pre(drive, s_prev, params: LifParams):
    """Pre-threshold membrane value (the quantity the surrogate is taken at)."""
    return s_prev + params.dt * (-(s_prev - params.rest) + drive)


def lif_surrogate_grad(membrane_pre, params: LifParams):
    """Fast-sigmoid stand-in for d(spike)/d(membrane_pre).

    beta / (1 + beta * |membrane_pre - threshold|)**2: strictly positive,
    even around the threshold, maximal (= beta) exactly at it.
    """
    membrane_pre = np.asarray(membrane_pre, dtype=np.float64)
    beta = params.sharpness
    return beta / (1.0 + beta * np.abs(membrane_pre - params.threshold)) ** 2
