import csv
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from statenet.datasets import PavlovConfig, gen_pavlov
from statenet.dynamics import NumericsError, lif_membrane
from statenet.engine import (fresh_state, gather, reference_rollout, rollout,
                             scatter_index, step, write_probe)
from statenet.params import ParameterSet
from statenet.plasticity import (CLIP_BOUND, DEPRESSION, POTENTIATION,
                                 TRACE_DECAY)
from statenet.rng import Rng, derive_seed
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, RateParams, build_random)
from statenet.training import lif_stdp_recipe, pavlov_recipe


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


def test_parameter_set_refuses_an_absent_segment_and_a_wrong_length():
    params = ParameterSet.from_topology(chain_topology([1.0]))
    with pytest.raises(KeyError, match="parameter set has no segment "
                                       "'learn_rate'"):
        params.segment("learn_rate")
    with pytest.raises(ValueError, match="^flat vector length mismatch$"):
        params.with_flat(params.flat[:-1])


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


def _rollout_at_the_clip_bound(topo, params, xs):
    """The engine's outputs, checked against the oracle's, and every plastic
    edge's recorded weight at each step."""
    states = []
    fast, _ = rollout(fresh_state(topo, params), xs, topo, params,
                      states=states)
    slow = np.array(reference_rollout(fresh_state(topo, params), xs, topo,
                                      params)).reshape(fast.shape)
    if topo.lif_ids.size:
        assert np.array_equal(fast, slow)
    else:
        assert np.max(np.abs(fast - slow)) <= 1e-12
    return fast, np.array([st.plastic.weights[topo.plastic_idx, 0]
                           for st in states])


def test_hebbian_rollout_matches_oracle_at_the_clip_bound():
    # hebbian edges into the outputs too: a clip the oracle got wrong shows
    # in the outputs, where the saturated hidden cells would hide it
    topo = build_random(6, 0.5, seed=63, model="rate", n_inputs=2,
                        n_outputs=2, plastic_rule="hebbian",
                        plastic_scope="readout", direct_io=True)
    params = ParameterSet.from_topology(topo, learn_rate_init=5.0,
                                        retention_init=0.98)
    xs = np.random.default_rng(62).uniform(-1, 1, (30, 2))
    _, weights = _rollout_at_the_clip_bound(topo, params, xs)
    assert np.any(weights == CLIP_BOUND) and np.any(weights == -CLIP_BOUND)
    assert np.all(np.abs(weights) <= CLIP_BOUND)


def test_stdp_rollout_matches_oracle_at_the_clip_bound():
    # input 1 makes the target fire once after input 0, which lifts the stdp
    # edge 0 -> 2 from just under the bound onto it; long after, a lone
    # input-0 spike fires the target only through a weight within 0.004 of
    # CLIP_BOUND (from rest, the membrane reaches half the drive)
    lif = LifParams(threshold=0.5 * (CLIP_BOUND - 0.004))
    neurons = [NeuronSpec(0, "input", "lif", lif),
               NeuronSpec(1, "input", "lif", lif),
               NeuronSpec(2, "output", "lif", lif)]
    topo = NetworkTopology(neurons, [
        EdgeSpec(0, 2, CLIP_BOUND - 0.5 * POTENTIATION * TRACE_DECAY, True,
                 "stdp"),
        EdgeSpec(1, 2, 3.0)])
    params = ParameterSet.from_topology(topo)
    xs = np.zeros((30, 2))
    xs[0] = 1.0
    xs[25, 0] = 1.0
    spikes, weights = _rollout_at_the_clip_bound(topo, params, xs)
    assert np.flatnonzero(spikes[:, 0]).tolist() == [1, 26]
    assert weights[1:25, 0].tolist() == [CLIP_BOUND] * 24


def test_oracle_suite_reaches_the_clip_and_catches_a_wrong_clip(monkeypatch):
    # the shipped gate drives a share of its cases onto the weight clip; an
    # oracle clipping at 4.999 (only it reads engine's binding) fails it
    from statenet import engine
    from statenet.verify import run_oracle_diff
    passed, lines = run_oracle_diff(n_cases=40)
    reached = int(lines[-1].split(", ")[1].split()[0])
    assert passed and reached >= 5, lines[-1]
    monkeypatch.setattr(engine, "CLIP_BOUND", 4.999)
    passed, lines = run_oracle_diff(n_cases=40)
    assert not passed
    assert lines[0].startswith("FAIL case") and "rate outputs differ" in lines[0]


def test_oracle_suite_compares_weights_where_spikes_agree(monkeypatch):
    # an oracle whose stdp potentiation is 0.2 % off (only it reads
    # engine's binding) moves no spike; the recorded weights catch it
    from statenet import engine
    from statenet.verify import run_oracle_diff
    monkeypatch.setattr(engine, "POTENTIATION", POTENTIATION * 1.002)
    passed, lines = run_oracle_diff(n_cases=40)
    assert not passed
    assert "spikes exact" in lines[-1]
    assert lines[0].startswith("FAIL case")
    assert all("plastic weights, membranes or pre-threshold membranes "
               "differ" in line
               for line in lines[:-1])


def test_reference_rollout_records_weights_and_membranes():
    # one (plastic weights, lif membranes, lif pre-threshold membranes)
    # triple per step, the values the engine's recorded states hold; the
    # outputs are unchanged
    topo = mixed_stdp_net()
    params = ParameterSet.from_topology(topo, learn_rate_init=0.5)
    xs = np.random.default_rng(3).uniform(0, 3, (8, topo.n_inputs))
    states, recorded = [], []
    fast, _ = rollout(fresh_state(topo, params), xs, topo, params,
                      states=states)
    slow = reference_rollout(fresh_state(topo, params), xs, topo, params,
                             record=recorded)
    assert slow == reference_rollout(fresh_state(topo, params), xs, topo,
                                     params)
    assert len(recorded) == len(states) == 8
    for (weights, membranes, pre), st in zip(recorded, states):
        assert len(weights) == topo.n_plastic
        assert len(membranes) == len(pre) == len(topo.lif_ids)
        assert np.allclose(weights, st.plastic.weights[topo.plastic_idx, 0],
                           rtol=0, atol=1e-12)
        assert np.allclose(membranes, lif_membrane(
            st.v_last[topo.lif_ids], st.lif_pre, topo.lif_params)[:, 0],
            rtol=0, atol=1e-12)
        assert np.allclose(pre, st.lif_pre[:, 0], rtol=0, atol=1e-12)
    assert any(weights != recorded[0][0] for weights, _, _ in recorded)
    # a spike resets the membrane, so the two membranes part at some step
    assert any(pre != membranes for _, membranes, pre in recorded)


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

    # source spikes at step 1, the target answers at step 2
    (y1, d1), (y2, d2) = weight_changes(topo, params, fresh_state(topo, params),
                                        [1.0, 0.0])
    assert (y1, y2) == (0.0, 1.0) and d1 == 0.0
    assert abs(d2 - POTENTIATION * TRACE_DECAY) <= 1e-12

    # mirrored: a charged target fires at step 1, the source spikes at step 2
    state = fresh_state(topo, params)
    state.lif_pre[0] = 2.0       # the target, the one lif cell, unspiked
    (y1, d1), (y2, d2) = weight_changes(topo, params, state, [0.0, 1.0])
    assert (y1, y2) == (1.0, 0.0) and d1 == 0.0
    assert abs(d2 + DEPRESSION * TRACE_DECAY) <= 1e-12


def mixed_stdp_net():
    """Rate input, hidden and output cells beside lif cells joined by stdp
    edges, a lif input among the stdp sources, and hebbian and static edges
    across the two kinds; outputs: rate neuron 5, lif neuron 6."""
    lif = LifParams(threshold=0.3)
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "input", "lif", lif),
               NeuronSpec(2, "hidden", "rate", RateParams(self_coeff=0.3)),
               NeuronSpec(3, "hidden", "lif", lif),
               NeuronSpec(4, "hidden", "lif", lif),
               NeuronSpec(5, "output", "rate", RateParams(bias=0.1)),
               NeuronSpec(6, "output", "lif", lif)]
    edges = [EdgeSpec(0, 2, 0.9), EdgeSpec(0, 3, 0.8), EdgeSpec(2, 3, 0.6),
             EdgeSpec(2, 2, 0.5), EdgeSpec(3, 5, 0.6),
             EdgeSpec(2, 5, 0.7, True, "hebbian"),
             EdgeSpec(5, 2, -0.4, True, "hebbian"),
             *(EdgeSpec(a, b, w, True, "stdp") for a, b, w in [
                 (1, 3, 1.2), (1, 4, 0.9), (3, 4, 1.1), (4, 3, -0.6),
                 (3, 6, 1.3), (4, 6, 0.9)])]
    return NetworkTopology(neurons, edges)


def test_mixed_rate_and_stdp_net_matches_oracle_and_runs_rows_alone():
    # stdp reads the step's outputs as spikes: the rate columns of the one
    # trace fill up, but no stdp edge reads them
    topo = mixed_stdp_net()
    params = ParameterSet.from_topology(topo)
    rng = np.random.default_rng(17)
    rows, steps = 64, 40
    xs = rng.uniform(0.0, 1.5, (rows, steps, 2)) * (rng.random((rows, steps, 2))
                                                   < 0.5)
    lengths = np.sort(rng.integers(steps // 2, steps + 1, rows))[::-1]
    states = []
    ys, _ = rollout(fresh_state(topo, params, rows), xs, topo, params,
                    states=states, lengths=lengths)
    rate_out, lif_out = 0, 1                   # output ids 5 (rate), 6 (lif)
    for b in range(rows):
        n = lengths[b]
        alone, end = rollout(fresh_state(topo, params), xs[b, :n], topo, params)
        assert np.array_equal(ys[b, :n], alone) and not ys[b, n:].any()
        last = states[n - 1]
        assert np.array_equal(last.plastic.weights[:, [b]], end.plastic.weights)
        assert np.array_equal(last.plastic.trace[:, [b]], end.plastic.trace)
        assert np.array_equal(last.v_last[:, [b]], end.v_last)
        if b % 4 == 0:
            slow = np.array(reference_rollout(fresh_state(topo, params),
                                              xs[b, :n], topo, params))
            assert np.array_equal(alone[:, lif_out], slow[:, lif_out])
            assert np.max(np.abs(alone[:, rate_out] - slow[:, rate_out])) \
                <= 1e-12
    end = states[lengths[-1] - 1]
    assert end.plastic.trace[topo.rate_ids].any()
    assert ys[:, :, lif_out].any()
    moved = end.plastic.weights[topo.stdp_pos]
    assert np.any(moved.T != params.w0[topo.stdp_pos])


def test_dimension_mismatch_raises():
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="stimulus shape"):
        step(fresh_state(topo, params), np.zeros(3), topo, params)


@pytest.mark.parametrize("model,rule", [("rate", "hebbian"), ("lif", "stdp")])
def test_one_episode_is_column_0_of_a_batch_of_one(model, rule):
    # (T, n_in) stimuli run as xs[None]: the outputs are row 0 of that run,
    # bitwise, and the recorded states are columns of one
    topo = build_random(4, 0.7, seed=21, model=model, n_inputs=2,
                        n_outputs=2, plastic_rule=rule, plastic_scope="readout",
                        lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topo)
    xs = np.random.default_rng(22).uniform(0, 1, (9, 2))
    alone, batch = [], []
    ys, end = rollout(fresh_state(topo, params), xs, topo, params,
                      states=alone)
    yb, end_b = rollout(fresh_state(topo, params), xs[None], topo, params,
                        states=batch)
    assert ys.shape == (9, 2) and ys.tobytes() == yb[0].tobytes()
    assert len(alone) == len(batch) == 9
    for a, b in zip(alone + [end], batch + [end_b]):
        assert a.v_last.shape == a.plastic.trace.shape == (topo.n, 1)
        assert a.lif_pre.shape == (len(topo.lif_ids), 1)
        assert a.plastic.weights.shape == (topo.n_edges, 1)
        for x, y in ((a.lif_pre, b.lif_pre),
                     (a.v_last, b.v_last),
                     (a.plastic.weights, b.plastic.weights),
                     (a.plastic.trace, b.plastic.trace)):
            assert x.tobytes() == y.tobytes()
    # an (n_in,) stimulus is the one column of the state
    res, state = step(fresh_state(topo, params), xs[0], topo, params)
    assert res.y.shape == (2, 1) and res.y[:, 0].tobytes() == ys[0].tobytes()
    assert state.v_last.tobytes() == alone[0].v_last.tobytes()
    assert state.lif_pre.tobytes() == alone[0].lif_pre.tobytes()


@pytest.mark.parametrize("model,rule", [("rate", "hebbian"), ("lif", "stdp")])
@pytest.mark.parametrize("batch", [1, 5])
def test_step_with_prebuilt_offsets_is_bitwise_step(model, rule, batch):
    # a step that reuses its state's offsets is bitwise one that builds them
    topo = build_random(4, 0.7, seed=21, model=model, n_inputs=2,
                        n_outputs=2, plastic_rule=rule,
                        lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topo)
    xs = np.random.default_rng(24).uniform(0, 1, (6, 2, batch))
    a = b = fresh_state(topo, params, batch)
    for x in xs:
        res_a, a = step(a, x, topo, params)
        res_b, b = step(dataclasses.replace(b, offsets=None), x, topo, params)
        assert a.offsets.tobytes() == \
            scatter_index(topo.edge_dst, batch).tobytes()
        assert res_a.y.tobytes() == res_b.y.tobytes()
        for x_a, x_b in ((a.lif_pre, b.lif_pre),
                         (a.v_last, b.v_last),
                         (a.plastic.weights, b.plastic.weights),
                         (a.plastic.trace, b.plastic.trace)):
            assert x_a.tobytes() == x_b.tobytes()


def test_offsets_of_another_width_are_refused():
    topo = build_random(3, 0.8, seed=2, model="rate", n_inputs=1,
                        n_outputs=1)
    params = ParameterSet.from_topology(topo)
    state = fresh_state(topo, params, 3)
    for width in (2, 4):
        wrong = dataclasses.replace(
            state, offsets=scatter_index(topo.edge_dst, width))
        with pytest.raises(ValueError, match="gather offsets"):
            step(wrong, np.zeros((1, 3)), topo, params)


def test_ragged_rollout_builds_offsets_once_per_width(monkeypatch):
    # the gather's offsets are built at the start and each time rows end,
    # never per step
    from statenet import engine
    topo = build_random(4, 0.8, seed=5, model="lif", n_inputs=2,
                        n_outputs=1, plastic_rule="stdp",
                        lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topo)
    xs = np.random.default_rng(6).uniform(0, 1, (4, 6, 2))
    want, _ = rollout(fresh_state(topo, params, 4), xs, topo, params,
                      lengths=[6, 4, 4, 1])
    widths = []

    def counting(idx, cols):
        widths.append(cols)
        return scatter_index(idx, cols)

    monkeypatch.setattr(engine, "scatter_index", counting)
    got, _ = rollout(fresh_state(topo, params, 4), xs, topo, params,
                     lengths=[6, 4, 4, 1])
    assert widths == [4, 3, 1]
    assert got.tobytes() == want.tobytes()


def test_recorded_states_of_one_width_share_one_offsets_array():
    topo, params, _ = pavlov_recipe()
    xs = np.random.default_rng(8).uniform(0, 1, (4, 6, topo.n_inputs))
    states = []
    _, end = rollout(fresh_state(topo, params, 4), xs, topo, params,
                     states=states, lengths=[6, 4, 4, 1])
    by_width = {}
    for state in states:
        width = state.v_last.shape[1]
        assert state.offsets is by_width.setdefault(width, state.offsets)
    assert sorted(by_width) == [1, 3, 4]
    for width, offsets in by_width.items():
        assert offsets.tobytes() == \
            scatter_index(topo.edge_dst, width).tobytes()
    assert end.offsets is by_width[1]
    # a slice of a state never carries its offsets over
    assert end.rows(slice(1)).offsets is None


@pytest.mark.parametrize("k", [6, 3])
def test_one_episode_rollout_keeps_its_length(k):
    # (T, n_in) stimuli and their batch of one give the same outputs,
    # states and final state; a shorter length stops the rollout at its
    # end, bitwise the rollout of its first k stimuli
    topo, params, _ = pavlov_recipe()
    xs = np.random.default_rng(9).uniform(0, 1, (6, topo.n_inputs))
    alone, batch, short = [], [], []
    ys, end = rollout(fresh_state(topo, params), xs, topo, params,
                      states=alone, lengths=[k])
    yb, end_b = rollout(fresh_state(topo, params), xs[None], topo, params,
                        states=batch, lengths=[k])
    yk, end_k = rollout(fresh_state(topo, params), xs[:k], topo, params,
                        states=short)
    assert ys.shape == yb[0].shape and ys.tobytes() == yb[0].tobytes()
    assert ys[:k].any() and not ys[k:].any()
    assert ys[:k].tobytes() == yk.tobytes()
    assert len(alone) == len(batch) == len(short) == k
    assert end.t == k and end.v_last.shape[1] == 1
    for a, b, c in zip(alone + [end], batch + [end_b], short + [end_k]):
        assert a.t == b.t == c.t
        for x, y, z in ((a.v_last, b.v_last, c.v_last),
                        (a.lif_pre, b.lif_pre, c.lif_pre),
                        (a.plastic.weights, b.plastic.weights,
                         c.plastic.weights),
                        (a.plastic.trace, b.plastic.trace, c.plastic.trace)):
            assert x.shape == y.shape == z.shape
            assert x.tobytes() == y.tobytes() == z.tobytes()


def test_lif_rollout_split_and_resumed_is_the_whole_one():
    # a state carries a lif cell's spike and pre-threshold membrane, from
    # which the next step takes its membrane: resumed from the state after
    # any step k, a rollout is bitwise the uncut one, at a cut just after a
    # spike too; the oracle resumes from that state to the same spikes
    topo, params, _ = lif_stdp_recipe()
    episodes = gen_pavlov(PavlovConfig(episodes=16, seed=1)).episodes
    xs = 3.0 * np.stack([ep.x[:5] for ep in episodes])
    whole = []
    ys, end = rollout(fresh_state(topo, params, 16), xs, topo, params,
                      states=whole)
    spiked_at_cut = 0
    for k in range(1, 5):
        head, cut = rollout(fresh_state(topo, params, 16), xs[:, :k], topo,
                            params)
        spiked_at_cut += bool(cut.v_last[topo.lif_ids].any())
        tail = []
        rest, resumed = rollout(cut, xs[:, k:], topo, params, states=tail)
        assert np.concatenate([head, rest], axis=1).tobytes() == ys.tobytes()
        for a, b in zip([cut] + tail, whole[k - 1:]):
            assert a.t == b.t
            for x, y in ((a.v_last, b.v_last), (a.lif_pre, b.lif_pre),
                         (a.plastic.weights, b.plastic.weights)):
                assert x.tobytes() == y.tobytes()
        assert resumed.lif_pre.tobytes() == end.lif_pre.tobytes()
        oracle = reference_rollout(cut, xs[0, k:], topo, params)
        assert np.array_equal(oracle, ys[0, k:])
    assert spiked_at_cut == 3


@pytest.mark.parametrize("rows,lengths,message", [
    (4, [6, 6], r"lengths shape \(2,\) != \(4,\)"),
    (2, [9, 4], r"lengths must lie in \[0, 6\], got \[9, 4\]"),
    (2, [3, -1], r"lengths must lie in \[0, 6\], got \[3, -1\]"),
    (2, [3, 5], "batch rows must be sorted by length, longest first"),
    (2, [3.7, 2.2], r"lengths must be integers, got \[3.7, 2.2\]"),
    (2, np.array([True, False]),
     r"lengths must be integers, got \[True, False\]"),
    (2, ["3", "2"], r"lengths must be integers, got \['3', '2'\]"),
])
def test_rollout_refuses_lengths_it_cannot_honour(rows, lengths, message):
    topo, params, _ = pavlov_recipe()
    xs = np.zeros((rows, 6, topo.n_inputs))
    states = []
    with pytest.raises(ValueError, match=message):
        rollout(fresh_state(topo, params, rows), xs, topo, params,
                states=states, lengths=lengths)
    assert states == []


def test_ragged_rollout_stops_with_its_longest_row():
    # no step runs once every row has ended: the final state is the
    # longest row's end state
    topo, params, _ = pavlov_recipe()
    xs = np.random.default_rng(10).uniform(0, 1, (3, 6, topo.n_inputs))
    states = []
    ys, end = rollout(fresh_state(topo, params, 3), xs, topo, params,
                      states=states, lengths=[4, 2, 1])
    assert len(states) == 4 and end is states[-1]
    assert end.t == 4 and end.v_last.shape[1] == 1
    want, alone = rollout(fresh_state(topo, params), xs[0, :4], topo, params)
    assert ys[0, :4].tobytes() == want.tobytes() and not ys[:, 4:].any()
    assert end.v_last.tobytes() == alone.v_last.tobytes()
    assert end.plastic.weights.tobytes() == alone.plastic.weights.tobytes()


def test_one_episode_stimulus_against_a_batch_is_refused():
    topo = chain_topology([1.0, 1.0])
    params = ParameterSet.from_topology(topo)
    state = fresh_state(topo, params, batch=3)
    with pytest.raises(ValueError, match=r"stimulus shape \(1, 1\) != \(1, 3\)"):
        step(state, np.zeros(1), topo, params)
    with pytest.raises(ValueError, match=r"stimulus shape \(1, 4, 1\) has fewer"):
        rollout(state, np.zeros((4, 1)), topo, params)
    # so is a batch with fewer rows than the state's episodes
    with pytest.raises(ValueError, match=r"stimulus shape \(2, 4, 1\) has fewer"):
        rollout(state, np.zeros((2, 4, 1)), topo, params)


def test_non_finite_stimulus_raises_with_timestamp():
    # the stimulus is checked as its input neuron's output
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    with pytest.raises(NumericsError, match=r"t=1, neuron 0$") as exc:
        step(fresh_state(topo, params), np.array([float("nan")]), topo, params)
    assert exc.value.row == 0
    # one episode's (T, n_in) rollout names row 0 too
    xs = np.zeros((3, 1))
    xs[1] = float("inf")
    with pytest.raises(NumericsError, match=r"t=2, neuron 0$") as exc:
        rollout(fresh_state(topo, params), xs, topo, params)
    assert exc.value.row == 0
    # a batch names the first bad row's input neuron, not its channel
    neurons = [NeuronSpec(i, role, "rate", RateParams())
               for i, role in enumerate(("output", "input", "input"))]
    topo = NetworkTopology(neurons, [EdgeSpec(1, 0, 0.5),
                                     EdgeSpec(2, 0, 0.5)])
    params = ParameterSet.from_topology(topo)
    x = np.zeros((2, 3))
    x[1, 1] = float("-inf")
    x[0, 2] = float("nan")
    with pytest.raises(NumericsError, match=r"^non-finite value at t=1, "
                                            r"neuron 2$") as exc:
        step(fresh_state(topo, params, 3), x, topo, params)
    assert exc.value.row == 1


def test_non_finite_lif_value_names_step_neuron_and_row():
    # the kernels do not check their inputs; step checks the whole step
    neurons = [NeuronSpec(i, role, "lif", LifParams())
               for i, role in enumerate(("input", "hidden", "output"))]
    topo = NetworkTopology(neurons, [
        EdgeSpec(0, 1, 0.5), EdgeSpec(1, 2, 0.5, plastic=True, rule="stdp")])
    params = ParameterSet.from_topology(topo)
    params.segment("w0")[[e.dst for e in topo.edges].index(2)] = float("nan")
    message = r"^non-finite value at t=1, neuron 2$"
    with pytest.raises(NumericsError, match=message) as exc:
        step(fresh_state(topo, params), np.zeros(1), topo, params)
    assert exc.value.row == 0                  # one episode is row 0
    # a batch names the first row whose plastic weight holds the NaN
    state = fresh_state(topo, params, batch=3)
    state.plastic.weights[:, 0] = 0.5
    with pytest.raises(NumericsError, match=message) as exc:
        step(state, np.zeros((1, 3)), topo, params)
    assert exc.value.row == 1
    # an infinite drive spikes the cell and would reset it to a finite
    # membrane: the step checks the pre-threshold membrane it came from
    neurons = [NeuronSpec(i, role, "lif", LifParams())
               for i, role in enumerate(("input", "input", "output"))]
    topo = NetworkTopology(neurons, [EdgeSpec(0, 2, 1e308),
                                     EdgeSpec(1, 2, 1e308)])
    params = ParameterSet.from_topology(topo)
    _, state = step(fresh_state(topo, params), np.ones(2), topo, params)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericsError, match=r"^non-finite value at t=2, "
                                               r"neuron 2$") as exc:
        step(state, np.ones(2), topo, params)
    assert exc.value.row == 0


def test_two_rows_non_finite_at_one_step_name_the_first_row():
    # rows 1 and 2 both overflow to -inf at step 2: row 1 at neurons 3 and
    # 4, row 2 at neuron 2; the first row in row order is named, with its
    # lowest neuron, although row 2's neuron is the lowest overall
    neurons = [NeuronSpec(i, role, "lif", LifParams()) for i, role in
               enumerate(("input", "input", "hidden", "hidden", "output"))]
    topo = NetworkTopology(neurons, [
        EdgeSpec(0, 3, -2.0), EdgeSpec(0, 4, -2.0), EdgeSpec(1, 2, -2.0),
        EdgeSpec(2, 4, 0.5), EdgeSpec(3, 4, 0.5)])
    params = ParameterSet.from_topology(topo)
    xs = np.zeros((3, 2, 2))
    xs[1, :, 0] = 1.7e308
    xs[2, :, 1] = 1.7e308
    message = r"^non-finite value at t=2, neuron 3$"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match=message) as exc:
        rollout(fresh_state(topo, params, batch=3), xs, topo, params)
    assert exc.value.row == 1
    # alone, row 2 fails at its own neuron
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match=r"neuron 2$") as exc:
        rollout(fresh_state(topo, params, batch=2), xs[[0, 2]], topo, params)
    assert exc.value.row == 1


@pytest.mark.parametrize("rule", ["hebbian", "stdp"])
@pytest.mark.parametrize("lengths", [None, [6, 4, 4, 1]])
def test_static_weight_columns_stay_at_w0(rule, lengths):
    # the state carries every edge's weight; only the plastic columns move
    topo = build_random(4, 0.8, seed=5, model="rate" if rule == "hebbian"
                        else "lif", n_inputs=2, n_outputs=1, plastic_rule=rule,
                        lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topo)
    batch = 1 if lengths is None else len(lengths)
    xs = np.random.default_rng(6).uniform(0, 1, (batch, 6, 2))
    state0 = fresh_state(topo, params, batch)
    states = [state0]
    # one episode runs its (T, n_in) stimuli as a batch of one
    rollout(state0, xs if lengths else xs[0], topo, params, states=states,
            lengths=lengths)
    assert len(topo.static_idx) and len(topo.plastic_idx)
    for state in states:
        # (edges, B) weights, one column per episode
        static = state.plastic.weights[topo.static_idx].T
        assert np.array_equal(static, np.broadcast_to(
            params.w0[topo.static_idx], static.shape))
    moved = states[-1].plastic.weights[topo.plastic_idx].T
    assert np.any(moved != params.w0[topo.plastic_idx])


def test_batch_gather_is_each_episode_alone_bitwise():
    # one bincount over (edges, B) terms adds each neuron's terms of each
    # episode in edge order: bitwise the episode's own gather, sign of zero
    # included
    topo = build_random(5, 0.6, seed=8, model="rate", n_inputs=2,
                        n_outputs=2, plastic_rule="hebbian")
    rng = np.random.default_rng(9)
    for B in (1, 7, 64):
        w = rng.normal(size=(topo.n_edges, B))
        v = rng.normal(size=(topo.n, B))
        v[:, 0] = -0.0                  # every term of episode 0 is +-0
        batch = gather(topo, w, v, scatter_index(topo.edge_dst, B))
        assert batch.shape == (topo.n, B)
        for b in range(B):
            alone = np.zeros(topo.n)
            np.add.at(alone, topo.edge_dst, w[:, b] * v[topo.edge_src, b])
            assert batch[:, b].tobytes() == alone.tobytes()
            one = gather(topo, w[:, [b]], v[:, [b]],
                         scatter_index(topo.edge_dst, 1))
            assert one.shape == (topo.n, 1)
            assert one.tobytes() == alone.tobytes()


def test_probe_dump(tmp_path):
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    path = str(tmp_path / "probe.csv")
    states = []
    rollout(fresh_state(topo, params), np.ones((3, 1)), topo, params,
            states=states)
    write_probe(path, topo, states, edge_stride=1)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t,kind,id,a,b"
    assert sum(1 for ln in lines if ln.startswith("1,n,")) == topo.n
    assert len(lines) == 1 + 3 * topo.n  # no plastic edges in this net


def test_probe_fields_read_back_bitwise(tmp_path):
    # a neuron's state column is its output for a rate cell, its membrane
    # for a lif cell and 0 for an input
    rate = build_random(4, 0.8, seed=3, model="rate", n_inputs=1, n_outputs=1,
                        plastic_rule="hebbian")
    for topo in (rate, mixed_stdp_net()):
        assert_probe_reads_back(tmp_path / "probe.csv", topo)


def assert_probe_reads_back(path, topo):
    params = ParameterSet.from_topology(topo)
    rng = Rng(4)
    xs = np.array([[rng.uniform(-1, 1) for _ in range(topo.n_inputs)]
                   for _ in range(5)])
    states = []
    rollout(fresh_state(topo, params), xs, topo, params, states=states)
    write_probe(str(path), topo, states, edge_stride=1)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert sorted({int(row["t"]) for row in rows}) == list(range(1, 6))
    plastic = {f"{topo.edge_src[k]}->{topo.edge_dst[k]}": k
               for k in topo.plastic_idx}
    lif = {int(i): k for k, i in enumerate(topo.lif_ids)}
    for row in rows:
        state = states[int(row["t"]) - 1]
        assert state.t == int(row["t"])
        if row["kind"] == "n":
            i = int(row["id"])
            if i in topo.input_ids:
                assert row["a"] == "0.0"
            elif i in lif:
                membrane = lif_membrane(state.v_last[topo.lif_ids],
                                        state.lif_pre, topo.lif_params)
                assert float(row["a"]) == membrane[lif[i]]
            else:
                assert float(row["a"]) == state.v_last[i]
            assert float(row["b"]) == state.v_last[i]
        else:
            assert row["b"] == ""
            assert float(row["a"]) == state.plastic.weights[plastic[row["id"]]]
    assert sum(row["kind"] == "n" for row in rows) == 5 * topo.n
    assert sum(row["kind"] == "e" for row in rows) == 5 * topo.n_plastic > 0


def test_probe_refuses_a_batch_state(tmp_path):
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    path = tmp_path / "probe.csv"
    with pytest.raises(ValueError, match="one episode"):
        write_probe(str(path), topo, [fresh_state(topo, params, batch=2)])
    assert not path.exists()


def test_refused_probe_leaves_the_old_file_alone(tmp_path):
    topo = chain_topology([1.0])
    params = ParameterSet.from_topology(topo)
    path = tmp_path / "probe.csv"
    states = []
    rollout(fresh_state(topo, params), np.ones((3, 1)), topo, params,
            states=states)
    write_probe(str(path), topo, states)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="one episode"):
        write_probe(str(path), topo,
                    states + [fresh_state(topo, params, batch=2)])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probe.csv"]


# sha256 of the probe CSV of episode 3 of gen_pavlov(episodes=4, seed=1) at
# edge_stride 2: a change to the probe's format or to the rollout changes it
PROBE_SHA256 = {
    "pavlov": "8f490385615072ddde9c242a32859c5dfe124c887827eb4ddc0a7d23c82e9d90",
    "lif-stdp": "2e4b0908c0a4e10b3d362f1100946aced94e73bbfb2a9f470e437b16c3cd72c3",
}


def test_probe_bytes_are_pinned(tmp_path):
    nets = {"pavlov": pavlov_recipe()[:2], "lif-stdp": lif_stdp_recipe()[:2]}
    episode = gen_pavlov(PavlovConfig(episodes=4, seed=1)).episodes[3]
    digests = {}
    for name, (topo, params) in nets.items():
        states = []
        rollout(fresh_state(topo, params), episode.x, topo, params,
                states=states)
        path = tmp_path / f"{name}.csv"
        write_probe(str(path), topo, states, edge_stride=2)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PROBE_SHA256
