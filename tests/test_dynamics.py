import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statenet.dynamics import (lif_membrane_pre, lif_step, lif_surrogate_grad,
                               rate_step)
from statenet.topology import LifParams, RateParams


def test_rate_zero_point():
    assert rate_step(0.0, 0.0, RateParams(self_coeff=0.5, bias=0.0)) == 0.0


def test_rate_matches_scalar_math():
    v = rate_step(0.0, 1.0, RateParams(self_coeff=1.0, bias=0.0))
    assert v == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert v == pytest.approx(0.761594, abs=1e-6)


def test_rate_output_is_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = RateParams(self_coeff=float(rng.uniform(-3, 3)),
                       bias=float(rng.uniform(-3, 3)))
        v = rate_step(float(rng.uniform(-50, 50)), float(rng.uniform(-5, 5)), p)
        # strict openness holds in exact arithmetic; floats round to +-1.0
        assert abs(v) <= 1.0
    v = rate_step(8.0, 0.0, RateParams())
    assert abs(v) < 1.0


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(-2, 2))
def test_rate_lipschitz_bound(u1, u2, s1, s2, self_coeff):
    p = RateParams(self_coeff=self_coeff, bias=0.3)
    va = rate_step(u1, s1, p)
    vb = rate_step(u2, s2, p)
    bound = (abs(u1 - u2) + abs(s1 - s2)) * max(1.0, abs(self_coeff))
    assert abs(va - vb) <= bound + 1e-12


def test_lif_fixed_point_at_rest():
    p = LifParams(rest=0.3, threshold=1.0, reset=0.0, dt=0.5)
    spike, s, _ = lif_step(0.0, 0.3, p)
    assert spike == 0.0 and s == pytest.approx(0.3, abs=1e-15)


def test_lif_closed_form_decay_step():
    # (1 - dt) * 0.8 with dt = 0.5 is exactly 0.4
    p = LifParams(rest=0.0, threshold=1.0, reset=0.0, dt=0.5)
    spike, s, _ = lif_step(0.0, 0.8, p)
    assert spike == 0.0 and s == 0.4


def test_lif_zero_input_decay_exact_over_50_steps():
    p = LifParams(rest=0.0, threshold=1.0, reset=0.0, dt=0.5)
    s = 0.8
    for t in range(1, 51):
        spike, s, _ = lif_step(0.0, s, p)
        assert spike == 0.0
        assert s == (1.0 - p.dt) ** t * 0.8


def test_lif_spike_and_reset():
    p = LifParams(threshold=1.0, reset=0.0, rest=0.0, dt=0.5)
    spike, s, _ = lif_step(10.0, 0.0, p)
    assert spike == 1.0 and s == 0.0
    # reset wins regardless of drive magnitude
    spike, s, _ = lif_step(1e6, 0.9, p)
    assert spike == 1.0 and s == p.reset


def test_lif_spike_outputs_are_binary():
    p = LifParams()
    rng = np.random.default_rng(1)
    drive = rng.uniform(-5, 5, 500)
    s_prev = rng.uniform(-2, 2, 500)
    spike, _, pre = lif_step(drive, s_prev, p)
    assert set(np.unique(spike)) <= {0.0, 1.0}
    # the third value is the membrane the spike was taken at, bitwise
    assert pre.tobytes() == lif_membrane_pre(drive, s_prev, p).tobytes()


def test_surrogate_peak_at_threshold():
    p = LifParams(threshold=1.0, sharpness=10.0)
    assert lif_surrogate_grad(1.0, p) == pytest.approx(10.0, abs=1e-15)


def test_surrogate_symmetry():
    p = LifParams(threshold=1.0, sharpness=7.0)
    for d in (0.01, 0.3, 2.0):
        assert lif_surrogate_grad(1.0 + d, p) == lif_surrogate_grad(1.0 - d, p)


def test_surrogate_known_value():
    # beta 10 at distance 0.1: 10 / (1 + 1)^2 = 2.5
    p = LifParams(threshold=1.0, sharpness=10.0)
    assert lif_surrogate_grad(1.1, p) == pytest.approx(2.5, abs=1e-12)


def test_surrogate_strictly_positive():
    p = LifParams()
    pre = np.linspace(-20, 20, 801)
    assert (lif_surrogate_grad(pre, p) > 0).all()


def test_steps_are_pure():
    p = LifParams()
    a = lif_step(0.7, 0.2, p)
    b = lif_step(0.7, 0.2, p)
    assert a == b
    assert lif_membrane_pre(0.7, 0.2, p) == lif_membrane_pre(0.7, 0.2, p)
