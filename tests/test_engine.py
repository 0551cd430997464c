import csv
import math

import numpy as np
import pytest

from statenet.dynamics import NumericsError
from statenet.engine import (ProbeWriter, fresh_state, reference_rollout,
                             rollout, step)
from statenet.params import ParameterSet
from statenet.rng import Rng, derive_seed
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, RateParams, build_random)


def chain_topology(weights, self_coeff=0.0, bias=0.0):
    """input -> h1 -> ... -> output with given edge weights."""
    n = len(weights) + 1
    neurons = [NeuronSpec(0, "input", "rate", RateParams())]
    for i in range(1, n - 1):
        neurons.append(NeuronSpec(i, "hidden", "rate",
                                  RateParams(self_coeff=self_coeff, bias=bias)))
    neurons.append(NeuronSpec(n - 1, "output", "rate",
                              RateParams(self_coeff=self_coeff, bias=bias)))
    edges = [EdgeSpec(i, i + 1, w) for i, w in enumerate(weights)]
    return NetworkTopology(neurons, edges)


def test_zero_weights_give_bias_outputs():
    topo = build_random(3, 1.0, seed=1, model="rate", n_inputs=2, n_outputs=2)
    params = ParameterSet.from_topology(topo)
    params.segment("w0")[:] = 0.0
    params.segment("self_coeff")[:] = 0.0
    params.segment("bias")[:] = 0.25
    ys, _ = rollout(fresh_state(topo, params), np.ones((4, 2)), topo, params)
    assert np.allclose(ys, math.tanh(0.25), atol=1e-15)


def test_two_neuron_chain_one_step_delay():
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    xs = np.array([[1.0], [0.0], [0.0]])
    ys, _ = rollout(fresh_state(topo, params), xs, topo, params)
    assert ys[0, 0] == 0.0                      # sees nothing yet
    assert ys[1, 0] == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert ys[2, 0] == 0.0


@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_shortest_path_first_influence(hops):
    # a path of k neurons first moves the output at step k
    topo = chain_topology([1.0] * hops)
    params = ParameterSet.from_topology(topo)
    T = hops + 3
    xs = np.zeros((T, 1))
    xs[0, 0] = 1.0
    ys, _ = rollout(fresh_state(topo, params), xs, topo, params)
    k = hops + 1  # neurons on the path
    assert np.all(ys[: k - 1] == 0.0)
    assert ys[k - 1, 0] != 0.0


def test_one_neuron_self_loop_closed_form():
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "output", "rate", RateParams())]
    edges = [EdgeSpec(0, 1, 0.7), EdgeSpec(1, 1, 0.9)]
    topo = NetworkTopology(neurons, edges)
    params = ParameterSet.from_topology(topo)
    xs = np.array([[1.0], [1.0], [0.0], [0.0], [0.0]])
    ys, _ = rollout(fresh_state(topo, params), xs, topo, params)
    v = 0.0
    x_prev = 0.0
    for t in range(5):
        v_new = math.tanh(0.7 * x_prev + 0.9 * v)
        x_prev = xs[t, 0]
        assert ys[t, 0] == pytest.approx(v_new, abs=1e-12)
        v = v_new


def test_empty_rollout():
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    ys, state = rollout(fresh_state(topo, params), np.zeros((0, 1)), topo, params)
    assert ys.shape == (0, 1) and state.t == 0


def test_prefix_property():
    topo = build_random(4, 0.6, seed=8, model="rate", n_inputs=2, n_outputs=2,
                        plastic_rule="hebbian")
    params = ParameterSet.from_topology(topo)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, (9, 2))
    full, _ = rollout(fresh_state(topo, params), xs, topo, params)
    for k in (1, 4, 7):
        part, _ = rollout(fresh_state(topo, params), xs[:k], topo, params)
        assert np.array_equal(part, full[:k])


def test_causality_future_perturbation():
    topo = build_random(4, 0.7, seed=9, model="rate", n_inputs=1, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (8, 1))
    xs2 = xs.copy()
    xs2[5:] += 1.0
    ya, _ = rollout(fresh_state(topo, params), xs, topo, params)
    yb, _ = rollout(fresh_state(topo, params), xs2, topo, params)
    # with the one-step delay even the perturbed step's own output is intact
    assert np.array_equal(ya[:6], yb[:6])
    assert not np.array_equal(ya[6:], yb[6:])


def test_determinism_bitwise():
    topo = build_random(5, 0.5, seed=10, model="lif", n_inputs=2, n_outputs=2,
                        plastic_rule="stdp")
    params = ParameterSet.from_topology(topo)
    xs = np.random.default_rng(6).uniform(-3, 3, (15, 2))
    ya, _ = rollout(fresh_state(topo, params), xs, topo, params)
    yb, _ = rollout(fresh_state(topo, params), xs, topo, params)
    assert np.array_equal(ya, yb)


def test_reference_interpreter_agreement_small_sweep():
    for i in range(40):
        rng = Rng(derive_seed(0xE0, i))
        spiking = i % 2 == 0
        topo = build_random(rng.randrange(1, 4), rng.uniform(0.3, 1.0),
                            seed=derive_seed(1, i),
                            model="lif" if spiking else "rate",
                            n_inputs=rng.randrange(1, 2),
                            n_outputs=rng.randrange(1, 2),
                            plastic_rule=("stdp" if spiking else "hebbian")
                            if i % 3 else "none")
        params = ParameterSet.from_topology(topo)
        T = rng.randrange(2, 10)
        amp = 3.0 if spiking else 1.0
        xs = np.array([[rng.uniform(-amp, amp) for _ in range(topo.n_inputs)]
                       for _ in range(T)])
        fast, _ = rollout(fresh_state(topo, params), xs, topo, params)
        slow = np.array(reference_rollout(fresh_state(topo, params), xs, topo,
                                          params)).reshape(fast.shape)
        if spiking:
            assert np.array_equal(fast, slow)
        else:
            assert np.max(np.abs(fast - slow)) <= 1e-12


def reciprocal_lif_pair():
    neurons = [NeuronSpec(0, "input", "lif", LifParams()),
               NeuronSpec(1, "output", "lif", LifParams()),
               NeuronSpec(2, "output", "lif", LifParams())]
    edges = [EdgeSpec(0, 1, 2.1), EdgeSpec(1, 2, 2.1), EdgeSpec(2, 1, -2.1)]
    return NetworkTopology(neurons, edges)


def test_reciprocal_lif_pair_oscillates_with_constant_period():
    topo = reciprocal_lif_pair()
    params = ParameterSet.from_topology(topo)
    xs = np.ones((100, 1))
    spikes = np.array(reference_rollout(fresh_state(topo, params), xs, topo, params))
    fast, _ = rollout(fresh_state(topo, params), xs, topo, params)
    assert np.array_equal(fast, spikes)
    # strict periodicity after the first step, smallest period 4
    period = None
    for p in range(1, 20):
        if all(np.array_equal(spikes[t], spikes[t + p]) for t in range(1, 100 - p)):
            period = p
            break
    assert period == 4
    assert spikes[:, 0].sum() > 0 and spikes[:, 1].sum() > 0
    assert not np.array_equal(spikes[1], spikes[2])


def stdp_pair():
    """Input lif neuron 0 drives output lif neuron 1 over one stdp edge
    strong enough to make a single input spike fire the target next step."""
    neurons = [NeuronSpec(0, "input", "lif", LifParams()),
               NeuronSpec(1, "output", "lif", LifParams())]
    return NetworkTopology(neurons, [EdgeSpec(0, 1, 2.5, True, "stdp")])


def weight_changes(topo, params, state, xs):
    """(output spikes, stdp weight change) of each engine step."""
    out = []
    for x in xs:
        before = state.plastic.weights[0]
        res, state = step(state, np.array([x]), topo, params)
        out.append((res.y[0], state.plastic.weights[0] - before))
    return out


def test_stdp_sign_laws_through_engine():
    topo = stdp_pair()
    params = ParameterSet.from_topology(topo)
    meta = params.meta

    # source spikes at step 1, the target answers at step 2
    (y1, d1), (y2, d2) = weight_changes(topo, params, fresh_state(topo, params),
                                        [1.0, 0.0])
    assert (y1, y2) == (0.0, 1.0) and d1 == 0.0
    assert abs(d2 - meta.potentiation * meta.trace_decay) <= 1e-12

    # mirrored: a charged target fires at step 1, the source spikes at step 2
    state = fresh_state(topo, params)
    state.s[1] = 2.0
    (y1, d1), (y2, d2) = weight_changes(topo, params, state, [0.0, 1.0])
    assert (y1, y2) == (1.0, 0.0) and d1 == 0.0
    assert abs(d2 + meta.depression * meta.trace_decay) <= 1e-12


def test_dimension_mismatch_raises():
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="stimulus shape"):
        step(fresh_state(topo, params), np.zeros(3), topo, params)


def test_non_finite_stimulus_raises_with_timestamp():
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    with pytest.raises(NumericsError, match="t=1"):
        step(fresh_state(topo, params), np.array([float("nan")]), topo, params)


def test_probe_dump(tmp_path):
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    path = str(tmp_path / "probe.csv")
    with ProbeWriter(path, edge_stride=1) as probe:
        rollout(fresh_state(topo, params), np.ones((3, 1)), topo, params,
                probe=probe)
    lines = open(path).read().splitlines()
    assert lines[0] == "t,kind,id,a,b"
    assert sum(1 for ln in lines if ln.startswith("1,n,")) == topo.n
    assert len(lines) == 1 + 3 * topo.n  # no plastic edges in this net


def test_probe_fields_read_back_bitwise(tmp_path):
    topo = build_random(4, 0.8, seed=3, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    params = ParameterSet.from_topology(topo)
    rng = Rng(4)
    xs = np.array([[rng.uniform(-1, 1)] for _ in range(5)])
    path = str(tmp_path / "probe.csv")
    states = []
    with ProbeWriter(path, edge_stride=1) as probe:
        rollout(fresh_state(topo, params), xs, topo, params, probe=probe,
                states=states)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    plastic = {f"{topo.edge_src[k]}->{topo.edge_dst[k]}": pos
               for pos, k in enumerate(topo.plastic_idx)}
    for row in rows:
        state = states[int(row["t"])]
        if row["kind"] == "n":
            i = int(row["id"])
            assert float(row["a"]) == state.s[i]
            assert float(row["b"]) == state.v_last[i]
        else:
            assert row["b"] == ""
            assert float(row["a"]) == state.plastic.weights[plastic[row["id"]]]
    assert sum(row["kind"] == "n" for row in rows) == 5 * topo.n
    assert sum(row["kind"] == "e" for row in rows) == 5 * topo.n_plastic > 0
