import math

import numpy as np
import pytest

from statenet.autodiff import (Tape, TapeReplayError, StateGradient, backward,
                               episode_gradients, episode_loss, fd_gradient,
                               forward_taped, step_loss, step_loss_grad,
                               tbptt_gradients)
from statenet.engine import fresh_state
from statenet.params import ParameterSet
from statenet.rng import Rng
from statenet.topology import (EdgeSpec, NetworkTopology, NeuronSpec,
                               RateParams, build_random)


def jitter(params, seed, scale=0.3):
    rng = Rng(seed)
    params.flat += np.array([rng.uniform(-scale, scale)
                             for _ in range(params.count)])
    return params


def random_sequence(seed, T, n_in, n_out, binary=True):
    rng = Rng(seed)
    xs = np.array([[rng.uniform(-1, 1) for _ in range(n_in)] for _ in range(T)])
    if binary:
        ys = np.array([[1.0 if rng.chance(0.5) else 0.0 for _ in range(n_out)]
                       for _ in range(T)])
    else:
        ys = np.array([[rng.uniform(-1, 1) for _ in range(n_out)]
                       for _ in range(T)])
    return xs, ys


# ---------------------------------------------------------------------------
# losses


def test_mse_loss_and_grad():
    v = np.array([0.2, -0.5])
    y = np.array([1.0, 0.0])
    m = np.ones(2)
    assert step_loss("mse", v, y, m) == pytest.approx(
        0.5 * ((0.2 - 1) ** 2 + 0.5 ** 2), abs=1e-15)
    assert np.allclose(step_loss_grad("mse", v, y, m), v - y, atol=1e-15)


def test_bce_loss_matches_scalar_recompute():
    v = np.array([0.7, -0.3])
    y = np.array([1.0, 0.0])
    m = np.ones(2)
    expected = sum(-(yy * math.log(1 / (1 + math.exp(-vv)))
                     + (1 - yy) * math.log(1 - 1 / (1 + math.exp(-vv))))
                   for vv, yy in zip(v, y))
    assert step_loss("bce", v, y, m) == pytest.approx(expected, abs=1e-12)
    grad = step_loss_grad("bce", v, y, m)
    sig = 1 / (1 + np.exp(-v))
    assert np.allclose(grad, sig - y, atol=1e-12)


def test_cce_loss_matches_scalar_recompute():
    v = np.array([0.5, -0.2, 0.1])
    y = np.array([0.0, 1.0, 0.0])
    m = np.ones(3)
    p = np.exp(v) / np.exp(v).sum()
    assert step_loss("cce", v, y, m) == pytest.approx(-math.log(p[1]), abs=1e-12)
    assert np.allclose(step_loss_grad("cce", v, y, m), p - y, atol=1e-12)


def test_cce_rejects_split_mask():
    with pytest.raises(ValueError, match="cce mask"):
        step_loss("cce", np.zeros(2), np.ones(2), np.array([1.0, 0.0]))


def test_masked_terms_drop_out():
    v = np.array([0.2, 0.9])
    y = np.array([1.0, 1.0])
    m = np.array([0.0, 1.0])
    assert step_loss("mse", v, y, m) == pytest.approx(0.5 * (0.9 - 1) ** 2)
    assert step_loss_grad("mse", v, y, m)[0] == 0.0


# ---------------------------------------------------------------------------
# taped forward


def test_perfect_prediction_zero_loss():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    xs = np.zeros((4, 1))
    state0 = fresh_state(topo, params)
    loss, tape, _ = forward_taped(state0, xs, np.zeros((4, 1)), None, topo,
                                  params, "mse")
    assert loss == 0.0


def test_all_zero_mask_means_zero_loss_and_gradient():
    topo = build_random(3, 0.8, seed=2, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 5)
    xs, ys = random_sequence(3, 5, 2, 1)
    mask = np.zeros((5, 1))
    loss, tape, _ = forward_taped(fresh_state(topo, params), xs, ys, mask,
                                  topo, params, "bce")
    g, entry = backward(tape)
    assert loss == 0.0
    assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(entry.e, np.zeros_like(entry.e))


def test_conditioning_episode_loss_matches_scalar_oracle():
    # recompute the masked loss of the canonical five-step sequence with
    # plain python floats over the engine's outputs
    topo = build_random(4, 0.7, seed=4, model="rate", n_inputs=2, n_outputs=1)
    params = jitter(ParameterSet.from_topology(topo), 6)
    xs = np.array([[1., 0.], [0., 1.], [1., 1.], [1., 1.], [0., 1.]])
    ys = np.array([[1.], [0.], [1.], [1.], [1.]])
    from statenet.engine import rollout
    outs, _ = rollout(fresh_state(topo, params), xs, topo, params)
    expected = 0.0
    for t in range(5):
        v = float(outs[t, 0]); y = float(ys[t, 0])
        expected += max(v, 0.0) - v * y + math.log1p(math.exp(-abs(v)))
    loss, _, _ = forward_taped(fresh_state(topo, params), xs, ys, None, topo,
                               params, "bce")
    assert loss == pytest.approx(expected, abs=1e-12)


def test_window_length_mismatch_rejected():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="lengths differ"):
        forward_taped(fresh_state(topo, params), np.zeros((3, 1)),
                      np.zeros((2, 1)), None, topo, params, "mse")


def test_tape_replay_is_bitwise_and_detects_corruption():
    topo = build_random(3, 0.8, seed=7, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 8)
    xs, ys = random_sequence(9, 6, 1, 1)
    loss1, tape, _ = forward_taped(fresh_state(topo, params), xs, ys, None,
                                   topo, params, "bce")
    loss2, _, _ = forward_taped(fresh_state(topo, params), xs, ys, None,
                                topo, params, "bce")
    assert loss1 == loss2
    tape.verify_replay()
    tape.states[3].s[0] += 1e-9
    with pytest.raises(TapeReplayError):
        tape.verify_replay()


# ---------------------------------------------------------------------------
# gradients


def test_zero_length_window_zero_gradient():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    loss, tape, _ = forward_taped(fresh_state(topo, params), np.zeros((0, 1)),
                                  np.zeros((0, 1)), None, topo, params, "mse")
    g, _ = backward(tape)
    assert loss == 0.0 and np.array_equal(g, np.zeros_like(g))


def test_single_edge_gradient_matches_hand_derivative():
    # loss = bce(tanh(w * x1), y) at step 2; d/dw = (sig(v) - y) (1 - v^2) x1
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "output", "rate", RateParams())]
    topo = NetworkTopology(neurons, [EdgeSpec(0, 1, 0.8)])
    params = ParameterSet.from_topology(topo)
    params.segment("self_coeff")[:] = 0.0
    xs = np.array([[0.6], [0.0]])
    ys = np.array([[0.0], [1.0]])
    loss, g = episode_gradients(topo, params, xs, ys, None, "bce")
    v = math.tanh(0.8 * 0.6)
    sig = 1 / (1 + math.exp(-v))
    hand = (sig - 1.0) * (1 - v * v) * 0.6
    w_idx = params.registry["w0"].start
    assert g[w_idx] == pytest.approx(hand, abs=1e-12)
    fd = fd_gradient(topo, params, xs, ys, None, "bce")
    assert g[w_idx] == pytest.approx(fd[w_idx], rel=1e-6)


@pytest.mark.parametrize("plastic,loss_tag", [(False, "mse"), (True, "mse"),
                                              (False, "bce"), (True, "bce")])
def test_rate_gradients_match_finite_differences(plastic, loss_tag):
    topo = build_random(4, 0.6, seed=11, model="rate", n_inputs=2, n_outputs=2,
                        plastic_rule="hebbian" if plastic else "none",
                        direct_io=True)
    params = jitter(ParameterSet.from_topology(topo), 12)
    xs, ys = random_sequence(13, 7, 2, 2, binary=loss_tag == "bce")
    _, g = episode_gradients(topo, params, xs, ys, None, loss_tag)
    fd = fd_gradient(topo, params, xs, ys, None, loss_tag)
    small = np.abs(fd) < 1e-8
    assert np.all(np.abs(g - fd)[small] < 1e-8)
    rel = np.abs(g - fd)[~small] / np.abs(fd)[~small]
    assert rel.size == 0 or rel.max() < 1e-4


def test_masked_gradients_match_finite_differences():
    topo = build_random(3, 0.8, seed=21, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 22)
    xs, ys = random_sequence(23, 6, 2, 1)
    rng = Rng(24)
    mask = np.array([[1.0 if rng.chance(0.6) else 0.0] for _ in range(6)])
    _, g = episode_gradients(topo, params, xs, ys, mask, "bce")
    fd = fd_gradient(topo, params, xs, ys, mask, "bce")
    assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.abs(fd).max())


def test_spiking_gradient_sign_at_threshold_crossings():
    # spike-train losses are piecewise constant, so central differences are
    # zero except across a threshold crossing; park a weight next to the
    # crossing and compare the jump sign with the surrogate gradient sign
    from statenet.topology import LifParams
    agree = []
    cases = [(1.96, 1.0), (2.04, 1.0), (1.96, 0.0), (2.04, 0.0)]
    for w, y in cases:
        neurons = [NeuronSpec(0, "input", "lif", LifParams()),
                   NeuronSpec(1, "output", "lif", LifParams())]
        topo = NetworkTopology(neurons, [EdgeSpec(0, 1, w)])
        params = ParameterSet.from_topology(topo)
        # dt 0.5, rest 0: a constant unit stimulus spikes at t=2 iff w >= 2
        xs = np.ones((2, 1))
        ys = np.array([[0.0], [y]])
        _, g = episode_gradients(topo, params, xs, ys, None, "mse")
        fd = fd_gradient(topo, params, xs, ys, None, "mse", eps=0.05)
        i = params.registry["w0"].start
        assert abs(fd[i]) > 1e-6, "threshold crossing must register in fd"
        if abs(g[i]) > 1e-9:       # correct-side spikes have zero mse pull
            agree.append(np.sign(g[i]) == np.sign(fd[i]))
    assert len(agree) >= 2 and sum(agree) > len(agree) / 2


def test_spiking_surrogate_gradient_points_downhill():
    # the surrogate is not the true derivative (no agreement expected), but
    # a short step against it should not increase the loss
    down = total = 0
    for i in range(20):
        topo = build_random(3, 0.9, seed=130 + i, model="lif", n_inputs=1,
                            n_outputs=1)
        params = jitter(ParameterSet.from_topology(topo), 140 + i, scale=0.5)
        rng = Rng(150 + i)
        xs = np.array([[rng.uniform(0.5, 4.0)] for _ in range(8)])
        ys = np.array([[1.0 if rng.chance(0.5) else 0.0] for _ in range(8)])
        l0, g = episode_gradients(topo, params, xs, ys, None, "mse")
        norm = float(np.linalg.norm(g))
        if norm < 1e-12:
            continue
        stepped = params.with_flat(params.flat - 0.5 * g / norm)
        l1 = episode_loss(topo, stepped, xs, ys, None, "mse")
        total += 1
        down += (l1 <= l0)
    assert total >= 10 and down / total > 0.5


def test_frozen_segments_have_zero_gradient():
    topo = build_random(3, 0.8, seed=15, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 16)
    params.frozen = {"self_coeff", "learn_rate"}
    xs, ys = random_sequence(17, 5, 1, 1)
    _, g = episode_gradients(topo, params, xs, ys, None, "bce")
    assert np.array_equal(g[params.registry["self_coeff"]],
                          np.zeros_like(g[params.registry["self_coeff"]]))
    assert np.array_equal(g[params.registry["learn_rate"]],
                          np.zeros_like(g[params.registry["learn_rate"]]))
    assert np.abs(g[params.registry["w0"]]).max() > 0


def test_gradient_linearity_over_mask_split():
    topo = build_random(3, 0.8, seed=18, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 19)
    xs, ys = random_sequence(20, 6, 1, 1)
    mask_a = np.zeros((6, 1)); mask_a[:3] = 1.0
    mask_b = np.zeros((6, 1)); mask_b[3:] = 1.0
    la, ga = episode_gradients(topo, params, xs, ys, mask_a, "mse")
    lb, gb = episode_gradients(topo, params, xs, ys, mask_b, "mse")
    lf, gf = episode_gradients(topo, params, xs, ys, None, "mse")
    assert lf == pytest.approx(la + lb, abs=1e-12)
    assert np.max(np.abs(gf - (ga + gb))) < 1e-12


def test_upstream_state_gradient_chains_windows():
    # splitting one episode into two windows and chaining the state adjoint
    # must reproduce the single-window gradient
    topo = build_random(3, 0.8, seed=25, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 26)
    xs, ys = random_sequence(27, 6, 1, 1)
    loss_full, tape_full, _ = forward_taped(fresh_state(topo, params), xs, ys,
                                            None, topo, params, "mse")
    g_full, entry_full = backward(tape_full)

    _, tape_a, mid = forward_taped(fresh_state(topo, params), xs[:3], ys[:3],
                                   None, topo, params, "mse")
    _, tape_b, _ = forward_taped(mid, xs[3:], ys[3:], None, topo, params, "mse")
    g_b, entry_b = backward(tape_b)
    g_a, entry_a = backward(tape_a, upstream=StateGradient(
        s=entry_b.s, v=entry_b.v, e=entry_b.e))
    combined = g_a + g_b
    assert np.max(np.abs(combined - g_full)) < 1e-12
    assert np.max(np.abs(entry_a.e - entry_full.e)) < 1e-12


# ---------------------------------------------------------------------------
# truncation


def test_tbptt_full_window_equals_full_backprop():
    for i in range(20):
        topo = build_random(3, 0.7, seed=60 + i, model="rate", n_inputs=1,
                            n_outputs=1, plastic_rule="hebbian" if i % 2 else "none")
        params = jitter(ParameterSet.from_topology(topo), 70 + i)
        T = 4 + i % 5
        xs, ys = random_sequence(80 + i, T, 1, 1)
        lf, gf = episode_gradients(topo, params, xs, ys, None, "bce")
        k1 = 1 + i % 3
        lt, gt = tbptt_gradients(topo, params, xs, ys, None, "bce", k1, T + 5)
        assert lt == lf
        assert np.max(np.abs(gt - gf)) < 1e-12


def test_truncation_changes_gradient_not_loss():
    topo = build_random(4, 0.6, seed=90, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 91)
    xs, ys = random_sequence(92, 10, 1, 1)
    lf, gf = episode_gradients(topo, params, xs, ys, None, "bce")
    lt, gt = tbptt_gradients(topo, params, xs, ys, None, "bce", 2, 3)
    assert lt == lf
    assert np.max(np.abs(gt - gf)) > 1e-6


def test_tbptt_conditioning_episode_both_configs_finite():
    topo = build_random(4, 0.7, seed=93, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 94)
    xs = np.array([[1., 0.], [0., 1.], [1., 1.], [1., 1.], [0., 1.]])
    ys = np.array([[1.], [0.], [1.], [1.], [1.]])
    l1, g1 = tbptt_gradients(topo, params, xs, ys, None, "bce", 5, 5)
    l2, g2 = tbptt_gradients(topo, params, xs, ys, None, "bce", 1, 2)
    assert np.isfinite(g1).all() and np.isfinite(g2).all()
    fd = fd_gradient(topo, params, xs, ys, None, "bce")
    small = np.abs(fd) < 1e-8
    assert np.all(np.abs(g1 - fd)[small] < 1e-8)
    rel = np.abs(g1 - fd)[~small] / np.abs(fd)[~small]
    assert rel.size == 0 or rel.max() < 1e-4


@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 3), (8, 16), (None, None)])
def test_tbptt_runs_one_forward_step_per_step(monkeypatch, k1, k2):
    # windows are slices of the one recorded trajectory: however they
    # overlap, every step is computed exactly once
    from statenet import autodiff, engine, training
    topo = build_random(4, 0.6, seed=31, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 32)
    T = 21
    xs, ys = random_sequence(33, T, 1, 1)
    calls = []
    original = engine.step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (engine, autodiff, training):
        if getattr(module, "step", None) is original:
            monkeypatch.setattr(module, "step", counting)
    tbptt_gradients(topo, params, xs, ys, None, "bce", k1 or T, k2 or T)
    assert len(calls) == T


def test_invalid_window_config_rejected():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    xs, ys = random_sequence(2, 4, 1, 1)
    with pytest.raises(ValueError, match="window config"):
        tbptt_gradients(topo, params, xs, ys, None, "mse", 3, 2)
    with pytest.raises(ValueError, match="window config"):
        tbptt_gradients(topo, params, xs, ys, None, "mse", 0, 2)


def test_fd_gradient_on_quadratic_toy():
    # mse of a linear readout in w is quadratic; central differences are
    # exact up to O(eps^2)
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "output", "rate", RateParams())]
    topo = NetworkTopology(neurons, [EdgeSpec(0, 1, 0.3)])
    params = ParameterSet.from_topology(topo)
    xs = np.array([[0.2], [0.0]])
    ys = np.array([[0.0], [0.0]])
    w_idx = params.registry["w0"].start
    fd = fd_gradient(topo, params, xs, ys, None, "mse")
    v = math.tanh(0.3 * 0.2)
    hand = v * (1 - v * v) * 0.2
    assert fd[w_idx] == pytest.approx(hand, rel=1e-8)
