import dataclasses
import math

import numpy as np
import pytest

from statenet.autodiff import (Tape, backward, batch_gradients,
                               episode_gradients, episode_loss, fd_gradient,
                               outputs_loss, step_loss, step_loss_grad,
                               tbptt_gradients)
from statenet.dynamics import (lif_membrane, lif_membrane_pre,
                               lif_surrogate_grad)
from statenet.engine import (RolloutState, fresh_state, gather, rollout,
                             scatter_index, step)
from statenet.params import ParameterSet
from statenet.plasticity import CLIP_BOUND, PlasticEdgeState
from statenet.rng import Rng
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, RateParams, build_random)


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
# episode losses


def test_perfect_prediction_zero_loss():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    xs = np.zeros((4, 1))
    assert episode_loss(topo, params, xs, np.zeros((4, 1)), None, "mse") == 0.0


def test_all_zero_mask_means_zero_loss_and_gradient():
    # the plastic weights' entry adjoint is folded into the w0 gradient, so
    # a zero gradient row also means a zero entry adjoint
    topo = build_random(3, 0.8, seed=2, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian")
    params = jitter(ParameterSet.from_topology(topo), 5)
    xs, ys = random_sequence(3, 5, 2, 1)
    mask = np.zeros((2, 5, 1))
    losses, g = batch_gradients(topo, params, np.stack([xs, xs]),
                                np.stack([ys, ys]), mask, [5, 3], "bce")
    assert losses == [0.0, 0.0]
    assert np.array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("loss_tag", ["mse", "bce", "cce"])
def test_batch_outputs_loss_is_the_step_by_step_sum(loss_tag):
    # one step_loss call over a ragged batch adds each row's steps in step
    # order; its zero-masked padding adds nothing
    n_out = 3 if loss_tag == "cce" else 2
    episodes = random_episodes(60, 9, 1, n_out, loss_tag)
    T = max(ep.length for ep in episodes)
    rng = Rng(61)
    outs = np.array([[[rng.uniform(-3, 3) for _ in range(n_out)]
                      for _ in range(T)] for _ in episodes])
    ys = np.zeros(outs.shape)
    mask = np.zeros(outs.shape)
    for b, ep in enumerate(episodes):
        ys[b, :ep.length], mask[b, :ep.length] = ep.y, ep.mask
    losses = outputs_loss(loss_tag, outs, ys, mask)
    for b, ep in enumerate(episodes):
        expected = 0.0
        for t in range(ep.length):
            expected += step_loss(loss_tag, outs[b, t], ys[b, t], mask[b, t])
        assert losses[b].tobytes() == np.float64(expected).tobytes()


def test_conditioning_episode_loss_matches_scalar_oracle():
    # recompute the masked loss of the canonical five-step sequence with
    # plain python floats over the engine's outputs
    topo = build_random(4, 0.7, seed=4, model="rate", n_inputs=2, n_outputs=1)
    params = jitter(ParameterSet.from_topology(topo), 6)
    xs = np.array([[1., 0.], [0., 1.], [1., 1.], [1., 1.], [0., 1.]])
    ys = np.array([[1.], [0.], [1.], [1.], [1.]])
    outs, _ = rollout(fresh_state(topo, params), xs, topo, params)
    expected = 0.0
    for t in range(5):
        v = float(outs[t, 0]); y = float(ys[t, 0])
        expected += max(v, 0.0) - v * y + math.log1p(math.exp(-abs(v)))
    loss = episode_loss(topo, params, xs, ys, None, "bce")
    assert loss == pytest.approx(expected, abs=1e-12)
    assert tbptt_gradients(topo, params, xs, ys, None, "bce", 2, 3)[0] == loss


def test_window_length_mismatch_rejected():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="lengths differ"):
        tbptt_gradients(topo, params, np.zeros((3, 1)), np.zeros((2, 1)), None,
                        "mse", 1, 2)
    with pytest.raises(ValueError, match="lengths differ"):
        batch_gradients(topo, params, np.zeros((2, 3, 1)), np.zeros((2, 2, 1)),
                        None, [3, 2], "mse")


# ---------------------------------------------------------------------------
# gradients


def test_zero_length_window_zero_gradient():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    loss, g = tbptt_gradients(topo, params, np.zeros((0, 1)), np.zeros((0, 1)),
                              None, "mse", 1, 1)
    assert loss == 0.0 and np.array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("net", [
    dict(seed=7, model="rate", plastic_rule="hebbian"),
    # at threshold 0.15 the stdp edges move, and every edge carries
    # gradient within the window
    dict(seed=10, model="lif", plastic_rule="stdp",
         lif_params=LifParams(threshold=0.15)),
    # no plastic edge: nothing is zeroed
    dict(seed=7, model="rate"),
], ids=["rate-hebbian", "lif-stdp", "rate-static"])
def test_sweep_folds_the_entry_adjoint_only_at_the_episode_start(net):
    # plastic weights start at w0 only at step 0: a window entered later
    # owes w0 nothing through them; static weights are w0 at every step
    topo = build_random(4, 0.8, n_inputs=2, n_outputs=1, **net)
    params = jitter(ParameterSet.from_topology(topo), 8)
    xs = np.stack([random_sequence(s, 6, 2, 1)[0] for s in (9, 10)])
    states = [fresh_state(topo, params, batch=2)]
    rollout(states[0], xs, topo, params, states=states)
    # the plastic edges, if any, move
    moved = states[-1].plastic.weights != states[0].plastic.weights
    assert moved[topo.plastic_idx].any() == bool(len(topo.plastic_idx))
    gy = np.stack([random_sequence(s, 4, 1, 1, binary=False)[1]
                   for s in (11, 12)])
    w0_plastic = params.registry["w0"].start + topo.plastic_idx
    w0_static = params.registry["w0"].start + topo.static_idx

    def sweep(first, starts, flagged):
        starts = np.array(starts)
        return backward(Tape(topo, params, states[first:first + 5], gy,
                             (starts, np.array([4, 4])),
                             episode_start=(starts == 0) & flagged))

    late = sweep(2, [0, 0], False)
    assert np.all(late[:, w0_plastic] == 0.0) and np.any(late != 0.0)
    assert len(w0_static) and np.all(late[:, w0_static] != 0.0)
    # the flag moves nothing but the plastic w0 entries
    ungated = sweep(2, [0, 0], True)
    assert np.all(ungated[:, w0_plastic] != 0.0)
    rest = np.delete(np.arange(params.count), w0_plastic)
    assert ungated[:, rest].tobytes() == late[:, rest].tobytes()
    early = sweep(0, [1, 0], True)
    assert np.all(early[0, w0_plastic] == 0.0)
    assert np.all(early[1, w0_plastic] != 0.0)


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


def test_gradients_at_the_clip_bound_match_finite_differences():
    # the straight-through gate is read off the recorded weights: a weight
    # held at +-CLIP_BOUND passes no gradient to its earlier value, while a
    # static weight beyond the bound is never clipped and passes it all
    topo = build_random(4, 0.6, seed=50, model="rate", n_inputs=2, n_outputs=2,
                        plastic_rule="hebbian", direct_io=True)
    params = jitter(ParameterSet.from_topology(topo, learn_rate_init=10.0), 51)
    beyond = params.registry["w0"].start + topo.static_idx[0]
    params.flat[beyond] = CLIP_BOUND + 0.5
    xs, ys = random_sequence(52, 8, 2, 2, binary=False)
    states = []
    rollout(fresh_state(topo, params), xs, topo, params, states=states)
    weights = np.array([st.plastic.weights[topo.plastic_idx] for st in states])
    assert np.mean(np.abs(weights) == CLIP_BOUND) >= 1 / 3
    _, g = episode_gradients(topo, params, xs, ys, None, "mse")
    fd = fd_gradient(topo, params, xs, ys, None, "mse")
    small = np.abs(fd) < 1e-8
    assert np.all(np.abs(g - fd)[small] < 1e-8)
    rel = np.abs(g - fd)[~small] / np.abs(fd)[~small]
    assert rel.max() < 1e-4
    assert abs(fd[beyond]) > 1e-6


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


# Value tests of the sweep's three spiking conventions (module docstring):
# hand-built nets whose w0 gradient has a closed form; ``surr`` is the
# fast-sigmoid surrogate (SuperSpike, Zenke & Ganguli 2018; Neftci, Mostafa
# & Zenke 2019).
VALUE_LIF = LifParams(threshold=1.0, reset=0.0, rest=0.0, dt=0.5,
                      sharpness=4.0)


def _lif_pair_w0_gradient(w, xs, ys, mask):
    """The ``w0`` gradient of a lif input driving a lif output through one
    static edge of weight ``w`` under mse, and the output's spikes."""
    topo = NetworkTopology([NeuronSpec(0, "input", "lif", VALUE_LIF),
                            NeuronSpec(1, "output", "lif", VALUE_LIF)],
                           [EdgeSpec(0, 1, w)])
    params = ParameterSet.from_topology(topo)
    _, g = episode_gradients(topo, params, xs, ys, mask, "mse")
    spikes, _ = rollout(fresh_state(topo, params), xs, topo, params)
    return g[params.registry["w0"].start], spikes[:, 0]


def test_spike_gradient_is_the_surrogate_at_the_membrane():
    # step 1 gathers nothing; step 2's membrane is dt * w * x1 from rest, so
    # its spike's surrogate gradient is (spike2 - y) surr(dt w x1) dt x1
    p, w, x1 = VALUE_LIF, 1.7, 1.0
    g, spikes = _lif_pair_w0_gradient(w, np.array([[x1], [0.0]]),
                                      np.ones((2, 1)),
                                      np.array([[0.0], [1.0]]))
    want = (spikes[1] - 1.0) * lif_surrogate_grad(p.dt * w * x1, p) * p.dt * x1
    assert spikes.tolist() == [0.0, 0.0]
    assert g == pytest.approx(want, rel=1e-12, abs=0.0)


def test_reset_passes_no_gradient():
    # step 2 spikes (pre = dt * w * x1 = 1.5) and resets to 0, so step 3's
    # membrane is dt * w * x2 and the reset, detached, adds nothing through
    # step 2's membrane
    p, w, x1, x2 = VALUE_LIF, 1.0, 3.0, 1.5
    g, spikes = _lif_pair_w0_gradient(w, np.array([[x1], [x2], [0.0]]),
                                      np.ones((3, 1)),
                                      np.array([[0.0], [0.0], [1.0]]))
    want = (spikes[2] - 1.0) * lif_surrogate_grad(p.dt * w * x2, p) * p.dt * x2
    assert spikes.tolist() == [0.0, 1.0, 0.0]
    assert g == pytest.approx(want, rel=1e-12, abs=0.0)


def test_stdp_weight_held_at_the_clip_passes_no_gradient():
    # the output never spikes, so the stdp edge into it never moves off its
    # w0 = CLIP_BOUND: the clip gate closes at every step and its w0
    # gradient is exactly zero, while the hidden cell's static edge still
    # learns through the surrogate
    quiet = LifParams(threshold=100.0, sharpness=0.5)
    topo = NetworkTopology(
        [NeuronSpec(0, "input", "lif", VALUE_LIF),
         NeuronSpec(1, "hidden", "lif", LifParams(threshold=0.5)),
         NeuronSpec(2, "output", "lif", quiet)],
        [EdgeSpec(0, 1, 2.0), EdgeSpec(1, 2, CLIP_BOUND, True, "stdp")])
    params = ParameterSet.from_topology(topo)
    xs, ys = np.ones((5, 1)), np.ones((5, 1))
    states = []
    outs, _ = rollout(fresh_state(topo, params), xs, topo, params,
                      states=states)
    assert not outs.any()
    assert any(st.v_last[1, 0] for st in states)        # the hidden spikes
    assert all(st.plastic.weights[topo.stdp_pos, 0] == CLIP_BOUND
               for st in states)
    _, g = episode_gradients(topo, params, xs, ys, None, "mse")
    w0 = g[params.registry["w0"]]
    assert w0[topo.stdp_pos[0]] == 0.0
    assert w0[topo.static_idx[0]] != 0.0


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


def truncated_fd_gradient(topo, params, xs, ys, tag, k1, k2, eps=1e-5):
    """The truncated gradient of one episode as sum_j dL_j, by central
    differences (``fd_gradient``'s scheme). L_j is window j's fresh-step
    loss over a rollout from the state recorded at the window's entry:
    outputs, pre-threshold membranes (with the spikes, the membranes),
    the trace and the plastic weights keep their
    recorded values, except that the plastic weights are w0(theta) when
    the window enters at step 0; static weights are w0(theta) always."""
    T = len(xs)
    states = [fresh_state(topo, params)]
    rollout(states[0], xs, topo, params, states=states)
    windows, flushed = [], 0
    for flush in [*range(k1, T, k1), T]:
        begin = flush - min(k2, flush)
        fresh = np.ones((flush - begin, topo.n_outputs))
        fresh[:flushed - begin] = 0.0       # steps an earlier window scored
        windows.append((begin, flush, fresh))
        flushed = flush

    def loss(theta):
        total = 0.0
        for begin, stop, fresh in windows:
            entry = states[begin]
            weights = entry.plastic.weights.copy()
            cols = topo.static_idx if begin else np.arange(topo.n_edges)
            weights[cols, 0] = theta.w0[cols]
            entry = RolloutState(entry.v_last, entry.lif_pre,
                                 PlasticEdgeState(weights, entry.plastic.trace),
                                 entry.t)
            outs, _ = rollout(entry, xs[begin:stop], topo, theta)
            total += outputs_loss(tag, outs, ys[begin:stop], fresh)
        return total

    base = params.flat
    grad = np.zeros(len(base))
    for i in range(len(base)):
        bump = np.zeros(len(base))
        bump[i] = eps
        grad[i] = (loss(params.with_flat(base + bump))
                   - loss(params.with_flat(base - bump))) / (2.0 * eps)
    recorded = np.array([st.plastic.weights for st in states])
    return grad, np.max(np.abs(recorded))


@pytest.mark.parametrize("plastic", [False, True])
@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 3), (3, 7)])
@pytest.mark.parametrize("lengths", [[10], [11, 9, 8]])
def test_truncated_gradient_matches_per_window_finite_differences(
        plastic, k1, k2, lengths):
    # Tallec & Ollivier 2017 (arXiv:1705.08209): the truncated gradient is
    # the sum of per-window gradients with detached entry states
    topo = build_random(3, 0.8, seed=95, model="rate", n_inputs=2,
                        n_outputs=1, direct_io=True,
                        plastic_rule="hebbian" if plastic else "none")
    params = jitter(ParameterSet.from_topology(topo), 96)
    episodes = [random_sequence(97 + b, n, 2, 1)
                for b, n in enumerate(lengths)]
    xs = np.zeros((len(lengths), lengths[0], 2))
    ys = np.zeros((len(lengths), lengths[0], 1))
    for b, (x, y) in enumerate(episodes):
        xs[b, :len(x)], ys[b, :len(y)] = x, y
    if len(lengths) == 1:
        _, g = tbptt_gradients(topo, params, xs[0], ys[0], None, "bce", k1, k2)
        grads = [g]
    else:
        _, grads = batch_gradients(topo, params, xs, ys, None, lengths, "bce",
                                   k1, k2)
    assert bool(len(topo.plastic_idx)) == plastic
    for g, (x, y) in zip(grads, episodes):
        fd, reach = truncated_fd_gradient(topo, params, x, y, "bce", k1, k2)
        assert reach < CLIP_BOUND                  # off the clip bound
        small = np.abs(fd) < 1e-8
        assert np.all(np.abs(g - fd)[small] < 1e-8)
        rel = np.abs(g - fd)[~small] / np.abs(fd)[~small]
        assert rel.size and rel.max() < 1e-4
        full = episode_gradients(topo, params, x, y, None, "bce")[1]
        assert np.max(np.abs(g - full)) > 1e-6     # truncation bites


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


# ---------------------------------------------------------------------------
# lockstep batches


def random_episodes(seed, count, n_in, n_out, loss_tag):
    """Episodes of 1..20 steps with random stimuli, targets and masks."""
    from statenet.datasets import Episode
    rng = Rng(seed)
    episodes = []
    for _ in range(count):
        T = rng.randrange(1, 20)
        xs, ys = random_sequence(rng.randrange(0, 10**6), T, n_in, n_out)
        if loss_tag == "cce":
            ys = np.eye(n_out)[[rng.randrange(0, n_out - 1) for _ in range(T)]]
            mask = np.repeat([[float(rng.chance(0.8))] for _ in range(T)],
                             n_out, axis=1)
        else:
            mask = np.array([[float(rng.chance(0.8)) for _ in range(n_out)]
                             for _ in range(T)])
        episodes.append(Episode(x=xs, y=ys, mask=mask))
    return episodes


BATCH_NETS = {
    "rate-hebbian-bce": (dict(model="rate", n_inputs=2, n_outputs=1,
                              plastic_rule="hebbian"), "bce"),
    "rate-hebbian-cce": (dict(model="rate", n_inputs=3, n_outputs=3,
                              plastic_rule="hebbian"), "cce"),
    "lif-stdp-mse": (dict(model="lif", n_inputs=2, n_outputs=1,
                          plastic_rule="stdp",
                          lif_params=LifParams(threshold=0.15)), "mse"),
}


@pytest.mark.parametrize("net", sorted(BATCH_NETS))
@pytest.mark.parametrize("k1,k2", [(None, None), (1, 1), (2, 3), (8, 16)])
def test_episode_row_independent_of_batch(net, k1, k2):
    # an episode's loss and gradient row are bitwise the same alone and in
    # lockstep batches of any size, whatever its partners
    from statenet.training import _lockstep
    kwargs, tag = BATCH_NETS[net]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = jitter(ParameterSet.from_topology(topo), 42)
    episodes = random_episodes(43, 40, topo.n_inputs, topo.n_outputs, tag)
    alone = [tbptt_gradients(topo, params, ep.x, ep.y, ep.mask, tag,
                             k1 or ep.length, k2 or ep.length)
             for ep in episodes]

    def run(rows, xs, ys, mask, lengths):
        return zip(*batch_gradients(topo, params, xs, ys, mask(), lengths,
                                    tag, k1, k2))

    rng = Rng(44)
    for size in (1, 3, 32):
        order = list(range(len(episodes)))
        rng.shuffle(order)
        for lo in range(0, len(order), size):
            ids = order[lo:lo + size]
            for i, (loss, row) in zip(ids, _lockstep(episodes, ids, size, run)):
                assert type(loss) is float and loss == alone[i][0]
                assert row.tobytes() == alone[i][1].tobytes()



def test_lengths_must_name_every_row():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    xs = np.zeros((2, 5, 1))
    with pytest.raises(ValueError, match=r"lengths shape \(1,\) != \(2,\)"):
        batch_gradients(topo, params, xs, np.zeros((2, 5, 1)), None, [5],
                        "mse")


def test_lengths_past_the_array_rejected():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match=r"lengths must lie in \[0, 5\]"):
        batch_gradients(topo, params, np.zeros((1, 5, 1)), np.zeros((1, 5, 1)),
                        None, [7], "mse")


def test_lengths_that_are_not_integers_rejected():
    # a float length would otherwise be cut down to the step before it
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match=r"lengths must be integers, got \[4.5\]"):
        batch_gradients(topo, params, np.zeros((1, 5, 1)), np.zeros((1, 5, 1)),
                        None, [4.5], "mse")


def test_k1_without_k2_rejected():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    xs, ys = np.zeros((1, 5, 1)), np.zeros((1, 5, 1))
    for k1, k2 in ((2, None), (None, 3)):
        with pytest.raises(ValueError, match="set both k1 and k2 or neither"):
            batch_gradients(topo, params, xs, ys, None, [5], "mse", k1, k2)


def assert_rows_score_as_alone(mask):
    """The pavlov recipe's batch with lengths [3, 2] on 5-step arrays scores
    no padded step: each row is bitwise its episode run alone."""
    from statenet.training import pavlov_recipe
    topo, params, _ = pavlov_recipe()
    lengths = [3, 2]
    xs, ys = np.zeros((2, 5, 2)), np.zeros((2, 5, 1))
    for b, n in enumerate(lengths):
        xs[b, :n], ys[b, :n] = random_sequence(50 + b, n, 2, 1)
    for k1, k2 in ((None, None), (1, 2)):
        losses, grads = batch_gradients(topo, params, xs, ys, mask, lengths,
                                        "bce", k1, k2)
        for b, n in enumerate(lengths):
            loss, grad = tbptt_gradients(topo, params, xs[b, :n], ys[b, :n],
                                         None, "bce", k1 or n, k2 or n)
            assert losses[b] == loss
            assert grads[b].tobytes() == grad.tobytes()
    outs, _ = rollout(fresh_state(topo, params, batch=2), xs, topo, params,
                      lengths=lengths)
    assert outputs_loss("bce", outs, ys, mask, lengths).tolist() == losses


def test_no_mask_scores_each_row_up_to_its_length():
    # mask=None once scored the padded steps too
    assert_rows_score_as_alone(None)


def test_a_mask_scores_each_row_only_up_to_its_length():
    # a mask of ones over the padding once scored it in the losses, though
    # the gradient rows were already each episode's alone
    assert_rows_score_as_alone(np.ones((2, 5, 1)))


def window_by_window(topo, params, xs, ys, mask, lengths, tag, k1, k2):
    """Oracle of ``batch_gradients``' gradients: one recorded trajectory,
    each window swept alone on slices of it, the rows summed in window
    order."""
    lengths = np.asarray(lengths)
    B, T = xs.shape[:2]
    states = [fresh_state(topo, params, batch=B)]
    outs, _ = rollout(states[0], xs, topo, params, states=states,
                      lengths=lengths)
    grads = np.zeros((B, params.count))
    flushed = 0
    for flush in [*range(k1, T, k1), T]:
        rows = int(np.count_nonzero(lengths > flushed))
        if rows:
            stop = np.minimum(flush, lengths[:rows])
            begin = stop - np.minimum(k2, stop)
            t0 = int(begin[-1])
            fresh = mask[:rows, t0:flush].copy()
            fresh[:, :flushed - t0] = 0.0
            gy = step_loss_grad(tag, outs[:rows, t0:flush], ys[:rows, t0:flush],
                                fresh)
            grads[:rows] += backward(Tape(topo, params,
                                          states[t0:flush + 1], gy,
                                          (begin - t0, stop - t0),
                                          episode_start=(begin == 0)))
        flushed = flush
    return grads


@pytest.mark.parametrize("net", sorted(BATCH_NETS))
@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 3), (3, 7), (8, 16)])
def test_stacked_sweep_matches_window_by_window(net, k1, k2):
    # windows queued together are swept as rows of one stacked tape; each
    # window's rows are bitwise its own sweep's, added in window order
    from statenet.training import _lockstep
    kwargs, tag = BATCH_NETS[net]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = jitter(ParameterSet.from_topology(topo), 42)
    episodes = random_episodes(45, 82, topo.n_inputs, topo.n_outputs, tag)

    def run(rows, xs, ys, mask, lengths):
        mask = mask()
        _, got = batch_gradients(topo, params, xs, ys, mask, lengths, tag,
                                 k1, k2)
        want = window_by_window(topo, params, xs, ys, mask, lengths, tag,
                                k1, k2)
        assert got.tobytes() == want.tobytes()
        # zero steps past the longest row change no window
        pad = ((0, 0), (0, 3), (0, 0))
        _, padded = batch_gradients(topo, params, np.pad(xs, pad),
                                    np.pad(ys, pad), np.pad(mask, pad),
                                    lengths, tag, k1, k2)
        assert padded.tobytes() == got.tobytes()
        return lengths

    # ragged blocks of 12 (many windows per sweep) and one of 70 rows
    _lockstep(episodes, range(12), 12, run)
    _lockstep(episodes, range(12, 82), 70, run)


def test_stacked_tapes_hold_at_most_64_rows(monkeypatch):
    # a sweep stacks windows up to autodiff.LOCKSTEP_ROWS rows; only a window
    # alone may hold more; stacking changes no swept step
    from statenet import autodiff
    from statenet.autodiff import LOCKSTEP_ROWS
    from statenet.training import _lockstep
    assert LOCKSTEP_ROWS == 64
    kwargs, tag = BATCH_NETS["rate-hebbian-bce"]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = ParameterSet.from_topology(topo)
    episodes = random_episodes(46, 100, topo.n_inputs, topo.n_outputs, tag)
    windows, tapes = [], []
    sweep, backward_ = autodiff._sweep, autodiff.backward

    def counting_sweep(queue, grads):
        windows.append(len(queue))
        return sweep(queue, grads)

    def counting_backward(tape):
        tapes.append((len(tape.gy), len(tape)))
        return backward_(tape)

    monkeypatch.setattr(autodiff, "_sweep", counting_sweep)
    monkeypatch.setattr(autodiff, "backward", counting_backward)

    def run(rows, xs, ys, mask, lengths):
        batch_gradients(topo, params, xs, ys, mask(), lengths, tag, 3, 7)
        return lengths

    for size in (12, 32, 100):
        _lockstep(episodes, range(100), size, run)
    assert len(windows) == len(tapes)
    assert all(rows <= 64 or count == 1
               for count, (rows, _) in zip(windows, tapes))
    assert max(windows) > 1 and max(rows for rows, _ in tapes) > 64
    # each window sweeps min(k2, end) steps of its episode
    per_pass = sum(min(7, end) for ep in episodes
                   for end in [*range(3, ep.length, 3), ep.length])
    assert sum(swept for _, swept in tapes) == 3 * per_pass


def test_a_lone_tape_sweeps_the_recorded_states(monkeypatch):
    # a full-window batch queues one tape, swept as it is on the very states
    # the rollout recorded; a stacked tape copies what its sweep reads into
    # new states that carry no spike trace
    from statenet import autodiff
    from statenet.training import _lockstep
    kwargs, tag = BATCH_NETS["lif-stdp-mse"]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = ParameterSet.from_topology(topo)
    episodes = random_episodes(47, 12, topo.n_inputs, topo.n_outputs, tag)
    recorded, swept, stacked = [], [], []
    rollout_, backward_ = autodiff.rollout, autodiff.backward
    stack = autodiff._stacked_tape

    def recording_rollout(*args, states, **kwargs):
        out = rollout_(*args, states=states, **kwargs)
        recorded.append(list(states))
        return out

    def recording_backward(tape):
        swept.append(tape)
        return backward_(tape)

    def recording_stack(tapes):
        tape, rows = stack(tapes)
        stacked.append(tape)
        return tape, rows

    monkeypatch.setattr(autodiff, "rollout", recording_rollout)
    monkeypatch.setattr(autodiff, "backward", recording_backward)
    monkeypatch.setattr(autodiff, "_stacked_tape", recording_stack)

    def run(k1, k2):
        def batch(rows, xs, ys, mask, lengths):
            batch_gradients(topo, params, xs, ys, mask(), lengths, tag, k1, k2)
            return lengths
        for seen in (recorded, swept, stacked):
            seen.clear()
        _lockstep(episodes, range(12), 12, batch)

    run(None, None)
    (trajectory,), (tape,) = recorded, swept
    assert not stacked and len(tape.states) == len(trajectory) > 2
    assert all(a is b for a, b in zip(tape.states, trajectory))
    run(3, 7)
    (tape,), (stacked_tape,) = swept, stacked
    assert tape is stacked_tape and len(recorded) > 1
    ids = {id(st) for states in recorded for st in states}
    assert all(id(st) not in ids and st.plastic.trace is None
               for st in tape.states)


def test_lif_sweep_builds_its_offsets_once_per_swept_width(monkeypatch):
    # the sweep builds its two scatters' offsets once per number of rows it
    # sweeps, never per iteration; it reads each step's pre-threshold
    # membrane off the tape and never gathers
    from statenet import autodiff, engine
    kwargs, tag = BATCH_NETS["lif-stdp-mse"]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = ParameterSet.from_topology(topo)
    lengths = [9, 9, 6, 6, 6, 2]
    xs, ys = random_sequence(48, 9 * len(lengths), topo.n_inputs,
                             topo.n_outputs)
    xs = xs.reshape(len(lengths), 9, -1)
    ys = ys.reshape(len(lengths), 9, -1)
    want = batch_gradients(topo, params, xs, ys, None, lengths, tag)
    built, sweeping = [], [False]
    gather_, backward_ = engine.gather, autodiff.backward

    def counting(idx, cols):
        built.append((idx, cols))
        return scatter_index(idx, cols)

    def refusing_gather(*args):
        if sweeping[0]:
            raise AssertionError("the backward sweep gathers")
        return gather_(*args)

    def flagged_backward(tape):
        sweeping[0] = True
        try:
            return backward_(tape)
        finally:
            sweeping[0] = False

    monkeypatch.setattr(autodiff, "scatter_index", counting)
    monkeypatch.setattr(engine, "gather", refusing_gather)
    monkeypatch.setattr(autodiff, "backward", flagged_backward)
    got = batch_gradients(topo, params, xs, ys, None, lengths, tag)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    # rows 6, 5 and 2 are swept at steps 1-2, 3-6 and 7-9
    assert sorted(cols for _, cols in built) == [2] * 2 + [5] * 2 + [6] * 2
    # no offsets of the gather, whose bins are the edges' destinations
    assert not any(np.array_equal(idx, topo.edge_dst) for idx, _ in built)
    assert not hasattr(autodiff, "gather")


def test_truncated_batch_builds_its_gather_offsets_once_per_width(
        monkeypatch):
    # each window's forward pass resumes from the last window's final
    # state, whose offsets it reuses: the gather's offsets are built when
    # the width changes, never at a flush
    from statenet import engine
    kwargs, tag = BATCH_NETS["rate-hebbian-cce"]
    topo = build_random(8, 0.5, seed=43, direct_io=True, **kwargs)
    params = ParameterSet.from_topology(topo)
    lengths = [40, 40, 33, 20, 20, 5]
    xs, ys = random_sequence(49, 40 * len(lengths), topo.n_inputs,
                             topo.n_outputs)
    xs = xs.reshape(len(lengths), 40, -1)
    ys = ys.reshape(len(lengths), 40, -1)
    widths = []

    def counting(idx, cols):
        if idx is topo.edge_dst:
            widths.append(cols)
        return scatter_index(idx, cols)

    monkeypatch.setattr(engine, "scatter_index", counting)
    batch_gradients(topo, params, xs, ys, None, lengths, tag, k1=8, k2=16)
    assert widths == [6, 5, 3, 2]


def _assert_recorded_membranes(topo, states):
    """Each state after a step holds, bitwise, the pre-threshold membrane of
    the gather over the state before it, on its own columns."""
    lif = topo.lif_ids
    for prev, st in zip(states, states[1:]):
        cols = st.v_last.shape[1]
        u = gather(topo, prev.plastic.weights[:, :cols],
                   prev.v_last[:, :cols], scatter_index(topo.edge_dst, cols))
        membrane = lif_membrane(prev.v_last.take(lif, 0)[:, :cols],
                                prev.lif_pre[:, :cols], topo.lif_params)
        want = lif_membrane_pre(u.take(lif, 0), membrane, topo.lif_params)
        assert st.lif_pre.shape == (len(lif), cols)
        assert st.lif_pre.tobytes() == want.tobytes()


def _ragged_states(topo, params):
    """The entry state and the states after each step of a ragged batch
    rollout whose widths run 6, 6, 5, 5, 5, 5, 2, 2, 2."""
    lengths = [9, 9, 6, 6, 6, 2]
    xs, _ = random_sequence(49, 9 * len(lengths), topo.n_inputs,
                            topo.n_outputs)
    states = [fresh_state(topo, params, batch=len(lengths))]
    rollout(states[0], xs.reshape(len(lengths), 9, -1), topo, params,
            states=states, lengths=lengths)
    assert [st.v_last.shape[1] for st in states[1:]] == \
        [6, 6, 5, 5, 5, 5, 2, 2, 2]
    return states


def _stacked_tapes(monkeypatch, topo, params, tag):
    """(queued tapes, their stacked tape, each one's rows of it) of every
    stacked sweep of a k1=3, k2=7 training batch of 12 episodes."""
    from statenet import autodiff
    from statenet.training import _lockstep
    stacked = []
    stack = autodiff._stacked_tape

    def recording_stack(tapes):
        tape, rows = stack(tapes)
        stacked.append((tapes, tape, rows))
        return tape, rows

    monkeypatch.setattr(autodiff, "_stacked_tape", recording_stack)
    episodes = random_episodes(47, 12, topo.n_inputs, topo.n_outputs, tag)

    def batch(rows, xs, ys, mask, lengths):
        batch_gradients(topo, params, xs, ys, mask(), lengths, tag, 3, 7)
        return lengths

    _lockstep(episodes, range(12), 12, batch)
    assert stacked
    return stacked


def test_recorded_lif_membrane_is_the_gathered_one(monkeypatch):
    # on a ragged batch's trajectory and on the tapes a stacked tape is
    # built from, the recorded membrane is what a re-gather from the state
    # before would give, and the stacked tape holds each row's own
    kwargs, tag = BATCH_NETS["lif-stdp-mse"]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = jitter(ParameterSet.from_topology(topo), 42)
    states = _ragged_states(topo, params)
    _assert_recorded_membranes(topo, states)
    assert states[4].rows(np.array([3, 0])).lif_pre.tobytes() == \
        states[4].lif_pre[:, [3, 0]].tobytes()

    for tapes, tape, rows in _stacked_tapes(monkeypatch, topo, params, tag):
        for one, at in zip(tapes, rows):
            _assert_recorded_membranes(topo, one.states)
            for st, mine in zip(tape.states, one.states):
                live = at < st.lif_pre.shape[1]
                assert st.lif_pre[:, at[live]].tobytes() == \
                    mine.lif_pre[:, np.flatnonzero(live)].tobytes()


@pytest.mark.parametrize("net", ["rate-hebbian-bce", "lif-stdp-mse"])
def test_every_state_holds_its_lif_membranes_beside_the_outputs(monkeypatch,
                                                                net):
    # a rate cell's state is its output and a lif cell's membrane is
    # lif_membrane of its spike and pre-threshold membrane, so a state keeps
    # beside the outputs only the lif cells' (n_lif, width) pre-threshold
    # membranes; a stacked tape's states hold no trace
    assert [f.name for f in dataclasses.fields(RolloutState)] == \
        ["v_last", "lif_pre", "plastic", "t", "offsets"]
    kwargs, tag = BATCH_NETS[net]
    topo = build_random(8, 0.5, seed=41, direct_io=True, **kwargs)
    params = jitter(ParameterSet.from_topology(topo), 42)
    n_lif = len(topo.lif_ids)
    assert bool(n_lif) == (kwargs["model"] == "lif")

    def assert_layout(st, width):
        assert st.v_last.shape == (topo.n, width)
        assert st.lif_pre.shape == (n_lif, width)

    # an entry state's membranes are at rest
    entry = fresh_state(topo, params, batch=6)
    rest = np.repeat(topo.lif_params.rest, 6, axis=1)
    assert lif_membrane(entry.v_last.take(topo.lif_ids, 0), entry.lif_pre,
                        topo.lif_params).tobytes() == rest.tobytes()
    _, after = step(entry, np.ones((topo.n_inputs, 6)), topo, params)
    for st, width in ((entry, 6), (after, 6), (after.rows(slice(4)), 4),
                      (after.rows(np.array([5, 0])), 2)):
        assert_layout(st, width)
    for st in _ragged_states(topo, params):
        assert_layout(st, st.v_last.shape[1])

    for _, tape, _ in _stacked_tapes(monkeypatch, topo, params, tag):
        for st in tape.states:
            assert st.plastic.trace is None
            assert st.lif_pre.shape == (n_lif, st.v_last.shape[1])
