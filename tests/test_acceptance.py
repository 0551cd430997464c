"""Acceptance gate: every capability criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers when it
succeeds; run with ``pytest tests/test_acceptance.py -s`` to see them.
The two task criteria train real models and take a few minutes combined.
"""

import csv
import os
import time

import numpy as np
import pytest

from statenet.autodiff import episode_gradients, tbptt_gradients
from statenet.datasets import PavlovConfig, PongDataConfig, gen_pavlov, gen_pong
from statenet.engine import fresh_state, reference_rollout, rollout
from statenet.params import ParameterSet
from statenet.pong import PongConfig
from statenet.rng import Rng, derive_seed
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, build_random)
from statenet.training import (TrainConfig, eval_pavlov_acquisition,
                               eval_pong_closed_loop, pavlov_recipe,
                               pong_recipe, train)
from statenet.verify import (run_determinism, run_gradcheck, run_oracle_diff,
                             run_plasticity_signs)

PAPER_X = np.array([[1., 0.], [0., 1.], [1., 1.], [1., 1.], [0., 1.]])
PAPER_Y = [1.0, 0.0, 1.0, 1.0, 1.0]


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    passed, lines = run_gradcheck(n_nets=50)
    dt = time.perf_counter() - t0
    assert passed, "\n".join(lines)
    assert dt < 60.0
    print(f"\nPASS criterion 1 (gradcheck): {lines[-1]}")


def test_criterion_2_tbptt_equals_full_backprop():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = Rng(derive_seed(0xACC2, i))
        topo = build_random(rng.randrange(2, 4), rng.uniform(0.4, 0.9),
                            seed=derive_seed(2, i), model="rate",
                            n_inputs=rng.randrange(1, 2), n_outputs=1,
                            plastic_rule="hebbian" if i % 2 else "none")
        params = ParameterSet.from_topology(topo)
        params.flat += np.array([rng.uniform(-0.3, 0.3)
                                 for _ in range(params.count)])
        T = rng.randrange(4, 9)
        xs = np.array([[rng.uniform(-1, 1) for _ in range(topo.n_inputs)]
                       for _ in range(T)])
        ys = np.array([[1.0 if rng.chance(0.5) else 0.0] for _ in range(T)])
        _, g_full = episode_gradients(topo, params, xs, ys, None, "bce")
        k1 = rng.randrange(1, T)
        _, g_tbptt = tbptt_gradients(topo, params, xs, ys, None, "bce",
                                     k1, T + rng.randrange(0, 3))
        worst = max(worst, float(np.max(np.abs(g_full - g_tbptt))))
    dt = time.perf_counter() - t0
    assert worst < 1e-12
    assert dt < 10.0
    print(f"\nPASS criterion 2 (tbptt==bptt): 20 instances, "
          f"worst diff {worst:.2e}, {dt:.1f}s")


def test_criterion_3_engine_matches_reference_interpreter():
    t0 = time.perf_counter()
    passed, lines = run_oracle_diff(n_cases=1000)
    dt = time.perf_counter() - t0
    assert passed, "\n".join(lines)
    assert dt < 60.0
    print(f"\nPASS criterion 3 (engine/oracle): {lines[-1]}")


def test_criterion_4_plasticity_sign_properties():
    passed, lines = run_plasticity_signs(tol=1e-12)
    assert passed, "\n".join(lines)
    print("\nPASS criterion 4 (plasticity signs): " + "; ".join(lines))


def test_criterion_5_conditioning_acquisition():
    train_ds = gen_pavlov(PavlovConfig(episodes=2000, seed=1, split="train"))
    held_ds = gen_pavlov(PavlovConfig(episodes=500, seed=2, split="heldout"))
    train_combos = {(ep.meta["n_food"], ep.meta["n_ring"], ep.meta["pairings"],
                     ep.meta["test_len"]) for ep in train_ds.episodes}
    held_combos = {(ep.meta["n_food"], ep.meta["n_ring"], ep.meta["pairings"],
                    ep.meta["test_len"]) for ep in held_ds.episodes}
    assert not (train_combos & held_combos), "held-out combos leak into training"
    held_ms = [ep.meta["pairings"] for ep in held_ds.episodes]
    assert min(held_ms) < 2, "need under-threshold negatives in the held-out set"

    topology, params0, config = pavlov_recipe()
    t0 = time.perf_counter()
    params, _ = train(topology, train_ds, config, params=params0)
    train_time = time.perf_counter() - t0
    assert train_time < 300.0, f"training took {train_time:.0f}s"

    accuracy, rows = eval_pavlov_acquisition(params, topology, held_ds,
                                             loss_tag=config.loss_tag)
    assert accuracy >= 0.95, f"acquisition accuracy {accuracy:.3f}"
    neg = [r for r in rows if r["pairings"] < 2]
    neg_ok = sum(r["correct"] for r in neg) / len(neg)

    state = fresh_state(topology, params)
    outs, _ = rollout(state, PAPER_X, topology, params)
    predicted = [1.0 if v > 0 else 0.0 for v in outs[:, 0]]
    assert predicted == PAPER_Y, f"canonical episode predicted {predicted}"
    print(f"\nPASS criterion 5 (conditioning): accuracy {accuracy:.3f} on "
          f"{len(held_ds)} held-out episodes ({len(neg)} negatives, "
          f"{neg_ok:.3f} correct), canonical 5-step episode exact, "
          f"trained in {train_time:.0f}s")


def test_criterion_6_pong_imitation():
    data = gen_pong(PongDataConfig(episodes=300, seed=11))
    topology, params0, config = pong_recipe()
    t0 = time.perf_counter()
    params, _ = train(topology, data, config, params=params0)
    train_time = time.perf_counter() - t0
    assert train_time < 600.0, f"training took {train_time:.0f}s"

    t0 = time.perf_counter()
    result = eval_pong_closed_loop(params, topology, PongConfig(),
                                   n_rollouts=200, seed=5)
    eval_time = time.perf_counter() - t0
    hit, base = result["hit_rate"], result["baseline_random"]
    assert hit >= 2.0 * base, f"hit rate {hit:.3f} < 2x baseline {base:.3f}"
    assert hit >= 0.6, f"hit rate {hit:.3f} below 0.6"
    print(f"\nPASS criterion 6 (pong): hit rate {hit:.3f} vs random baseline "
          f"{base:.3f} over 200 rollouts, trained in {train_time:.0f}s, "
          f"evaluated in {eval_time:.2f}s")


def test_criterion_7_causality_and_bitwise_determinism(tmp_path):
    passed, lines = run_determinism(n_pairs=100)
    assert passed, "\n".join(lines)

    # fixed-seed end-to-end training twice: metrics files match bitwise
    # (wall-time column excluded; it measures the host, not the run)
    ds = gen_pavlov(PavlovConfig(episodes=300, seed=4, split="train"))
    topo = build_random(8, 0.5, seed=6, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian", direct_io=True)
    cfg = TrainConfig(loss_tag="bce", epochs=5, batch_size=32, seed=12,
                      eval_stride=1)
    contents = []
    for run in ("a", "b"):
        run_dir = str(tmp_path / run)
        train(topo, ds, cfg, run_dir=run_dir)
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
        contents.append(rows)
    assert contents[0] == contents[1]
    print(f"\nPASS criterion 7 (causality+determinism): {lines[-1]}; "
          "two fixed-seed runs produced identical metrics")


def test_criterion_8_lif_decay_and_oscillation():
    # zero-input membrane decay matches the closed form exactly
    neurons = [NeuronSpec(0, "input", "lif", LifParams()),
               NeuronSpec(1, "output", "lif", LifParams())]
    topo = NetworkTopology(neurons, [EdgeSpec(0, 1, 0.0)])
    params = ParameterSet.from_topology(topo)
    state = fresh_state(topo, params)
    state.membrane[0] = 0.8                  # neuron 1, the one lif cell
    dt = topo.lif_params.dt[0]
    for t in range(1, 51):
        from statenet.engine import step
        _, state = step(state, np.zeros(1), topo, params)
        assert state.membrane[0] == (1.0 - dt) ** t * 0.8

    # reciprocally connected pair under tonic drive: periodic spiking
    pair = NetworkTopology(
        [NeuronSpec(0, "input", "lif", LifParams()),
         NeuronSpec(1, "output", "lif", LifParams()),
         NeuronSpec(2, "output", "lif", LifParams())],
        [EdgeSpec(0, 1, 2.1), EdgeSpec(1, 2, 2.1), EdgeSpec(2, 1, -2.1)])
    pparams = ParameterSet.from_topology(pair)
    spikes = np.array(reference_rollout(fresh_state(pair, pparams),
                                        np.ones((100, 1)), pair, pparams))
    period = None
    for p in range(1, 20):
        if all(np.array_equal(spikes[t], spikes[t + p])
               for t in range(1, 100 - p)):
            period = p
            break
    assert period is not None, "no constant period found"
    assert spikes[:, 0].sum() > 0 and spikes[:, 1].sum() > 0
    fast, _ = rollout(fresh_state(pair, pparams), np.ones((100, 1)), pair,
                      pparams)
    assert np.array_equal(fast, spikes)
    print(f"\nPASS criterion 8 (lif): exact 50-step decay; reciprocal pair "
          f"oscillates with constant period {period}")
