import numpy as np
import pytest
from hypothesis import given, strategies as st

from statenet.engine import fresh_state, rollout
from statenet.params import ParameterSet
from statenet.plasticity import (CLIP_BOUND, DEPRESSION, POTENTIATION,
                                 TRACE_DECAY, hebbian_update,
                                 reset_plastic_state, squash_retention,
                                 stdp_update)
from statenet.topology import build_random


def test_hebbian_zero_learning_is_pure_decay():
    e = np.array([0.4, -1.0])
    out = hebbian_update(e, np.ones(2), np.ones(2), learn_rate=0.0,
                         retention=0.9)
    assert np.allclose(out, 0.9 * e, atol=1e-15)


def test_hebbian_known_value():
    out = hebbian_update(np.array([0.2]), np.array([1.0]), np.array([1.0]),
                         learn_rate=0.1, retention=1.0)
    assert out[0] == pytest.approx(0.3, abs=1e-15)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
       st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 2), st.floats(0, 1))
def test_hebbian_respects_clip_bound(e_prev, pre, post, lr, ret):
    e = np.array(e_prev)
    out = hebbian_update(e, np.full(len(e), pre), np.full(len(e), post),
                         learn_rate=lr, retention=ret)
    assert (np.abs(out) <= CLIP_BOUND).all()


@given(st.integers(0, 2**32), st.integers(2, 10))
def test_hebbian_commutes_with_edge_permutation(seed, n):
    rng = np.random.default_rng(seed)
    e = rng.uniform(-2, 2, n)
    pre = rng.uniform(-1, 1, n)
    post = rng.uniform(-1, 1, n)
    perm = rng.permutation(n)
    direct = hebbian_update(e, pre, post, 0.3, 0.9)
    permuted = hebbian_update(e[perm], pre[perm], post[perm], 0.3, 0.9)
    assert np.array_equal(direct[perm], permuted)


# one stdp edge from neuron 0 (source) to neuron 1 (target)
SRC, DST = np.array([0]), np.array([1])


def stdp_steps(e, spike_rows):
    """Weights after feeding per-neuron spike rows through stdp_update from
    a zero trace."""
    trace = np.zeros(2)
    for spikes in spike_rows:
        e, trace = stdp_update(e, SRC, DST, np.array(spikes), trace)
    return e


def test_stdp_source_before_target_potentiates():
    e = stdp_steps(np.zeros(1), [[1.0, 0.0]])
    assert e[0] == 0.0
    e2 = stdp_steps(np.zeros(1), [[1.0, 0.0], [0.0, 1.0]])
    assert e2[0] == pytest.approx(POTENTIATION * TRACE_DECAY, abs=1e-12)
    assert e2[0] > 0


def test_stdp_target_before_source_depresses():
    e2 = stdp_steps(np.zeros(1), [[0.0, 1.0], [1.0, 0.0]])
    assert e2[0] == pytest.approx(-DEPRESSION * TRACE_DECAY, abs=1e-12)
    assert e2[0] < 0


def test_stdp_returns_pre_clip_values():
    # a weight just under the bound, potentiated past it, lands on it
    below = CLIP_BOUND - 0.01
    e, _ = stdp_update(np.array([below]), SRC, DST, np.array([0.0, 1.0]),
                       np.array([1.0, 1.0]))
    assert below + POTENTIATION * TRACE_DECAY > CLIP_BOUND
    assert e[0] == CLIP_BOUND
    e, _ = stdp_update(np.array([-below]), SRC, DST, np.array([1.0, 0.0]),
                       np.array([1.0, 1.0]))
    assert e[0] == -CLIP_BOUND


def test_stdp_no_activity_holds_weights_and_decays_traces():
    e = np.array([0.25])
    trace = np.array([0.8, 0.4])
    zero = np.zeros(2)
    for _ in range(10):
        e2, trace = stdp_update(e, SRC, DST, zero, trace)
        assert np.array_equal(e2, e)
    assert trace[0] == pytest.approx(0.8 * TRACE_DECAY ** 10, abs=1e-15)


def test_stdp_sign_properties_over_random_isolated_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        e = rng.uniform(-1, 1, n)
        # edge k runs from neuron k to neuron n + k
        src, dst = np.arange(n), np.arange(n, 2 * n)
        trace = np.zeros(2 * n)
        which = rng.integers(0, n)
        first_pre = bool(rng.integers(0, 2))
        first, second = np.zeros(2 * n), np.zeros(2 * n)
        first[src[which] if first_pre else dst[which]] = 1.0
        second[dst[which] if first_pre else src[which]] = 1.0
        e1, trace = stdp_update(e, src, dst, first, trace)
        e2, _ = stdp_update(e1, src, dst, second, trace)
        delta = e2[which] - e[which]
        if first_pre:
            assert delta > 0
        else:
            assert delta < 0


def test_trace_bound():
    trace = np.zeros(2)
    e = np.zeros(1)
    ones = np.ones(2)
    for _ in range(500):
        e, trace = stdp_update(e, SRC, DST, ones, trace)
        assert trace[0] <= 1.0 / (1.0 - TRACE_DECAY) + 1e-9
        assert trace[0] >= 0.0


def test_reset_uses_initial_weights_and_is_idempotent():
    topo = build_random(4, 0.8, seed=2, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = ParameterSet.from_topology(topo)
    s1 = reset_plastic_state(topo, params.w0)
    s2 = reset_plastic_state(topo, params.w0)
    # one episode is the batch of one: one column per array
    assert s1.weights.shape == (topo.n_edges, 1)
    assert np.array_equal(s1.weights[:, 0], params.w0)
    assert not np.shares_memory(s1.weights, params.w0)
    assert np.array_equal(s1.weights, s2.weights)
    assert np.array_equal(s1.trace, np.zeros((topo.n, 1)))
    # a batch's columns are each that episode's
    s3 = reset_plastic_state(topo, params.w0, batch=3)
    assert np.array_equal(s3.weights, np.repeat(s1.weights, 3, axis=1))
    assert np.array_equal(s3.trace, np.zeros((topo.n, 3)))


def test_reset_after_rollout_equals_single_reset():
    topo = build_random(4, 0.8, seed=2, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = ParameterSet.from_topology(topo)
    state = fresh_state(topo, params)
    xs = np.random.default_rng(0).uniform(-1, 1, (6, 1))
    _, state_after = rollout(state, xs, topo, params)
    assert not np.array_equal(state_after.plastic.weights,
                              reset_plastic_state(topo, params.w0).weights)
    again = reset_plastic_state(topo, params.w0)
    assert np.array_equal(again.weights, reset_plastic_state(topo, params.w0).weights)


def test_disabled_plasticity_matches_static_network_bitwise():
    # same wiring, plasticity declared but neutralized by its parameters
    plastic = build_random(5, 0.7, seed=6, model="rate", n_inputs=2, n_outputs=1,
                           plastic_rule="hebbian")
    static_edges = [type(e)(e.src, e.dst, e.w0, False, "none") for e in plastic.edges]
    static = type(plastic)(list(plastic.neurons), static_edges)
    p_plastic = ParameterSet.from_topology(plastic)
    p_plastic.segment("learn_rate")[:] = 0.0
    p_plastic.segment("retention_raw")[:] = 60.0  # sigmoid(60) == 1.0 exactly
    p_static = ParameterSet.from_topology(static)
    xs = np.random.default_rng(3).uniform(-1, 1, (10, 2))
    ya, _ = rollout(fresh_state(plastic, p_plastic), xs, plastic, p_plastic)
    yb, _ = rollout(fresh_state(static, p_static), xs, static, p_static)
    assert np.array_equal(ya, yb)


def test_retention_squash_range():
    assert squash_retention(-1e3) >= 0.0
    assert squash_retention(1e3) <= 1.0
    assert squash_retention(0.0) == pytest.approx(0.5)
