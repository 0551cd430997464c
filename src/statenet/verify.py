"""User-facing verification suites: gradient checks, engine/oracle diff,
plasticity sign cases, causality and determinism.

Each suite returns (passed, lines) where lines are human-readable
per-check results; the CLI prints them and exits nonzero on failure. The
acceptance tests call the same functions, so the shipped gate and the test
suite cannot drift apart.
"""

from __future__ import annotations

import time

import numpy as np

from .autodiff import episode_gradients, fd_gradient
from .engine import fresh_state, reference_rollout, rollout
from .params import ParameterSet
from .plasticity import (CLIP_BOUND, DEPRESSION, POTENTIATION, TRACE_DECAY,
                         stdp_update)
from .rng import Rng, derive_seed
from .topology import build_random


def _random_rate_net(seed: int, plastic: bool):
    rng = Rng(derive_seed(seed, 0x6E7))
    n_in = rng.randrange(1, 2)
    n_out = rng.randrange(1, 2)
    n_hidden = rng.randrange(2, 5)
    density = rng.uniform(0.3, 0.7)
    return build_random(n_hidden, density, seed=derive_seed(seed, 1),
                        model="rate", n_inputs=n_in, n_outputs=n_out,
                        plastic_rule="hebbian" if plastic else "none")


def _random_sequence(rng: Rng, T: int, n_in: int, n_out: int, binary_targets: bool):
    xs = np.array([[rng.uniform(-1, 1) for _ in range(n_in)] for _ in range(T)])
    if binary_targets:
        ys = np.array([[1.0 if rng.chance(0.5) else 0.0 for _ in range(n_out)]
                       for _ in range(T)])
    else:
        ys = np.array([[rng.uniform(-1, 1) for _ in range(n_out)] for _ in range(T)])
    return xs, ys


def run_gradcheck(n_nets: int = 50, seed: int = 2024,
                  rel_tol: float = 1e-4, abs_floor: float = 1e-8):
    """Analytic vs central finite-difference gradients on random rate nets,
    plasticity on and off. Passes when every coordinate of every net agrees
    within ``rel_tol`` relatively (coordinates with |fd| < abs_floor are
    compared absolutely)."""
    lines = []
    worst = 0.0
    passed = True
    t0 = time.perf_counter()
    for i in range(n_nets):
        plastic = i % 2 == 0
        topo = _random_rate_net(seed + i, plastic)
        params = ParameterSet.from_topology(topo)
        rng = Rng(derive_seed(seed, 0x9D, i))
        # jitter every parameter so nothing sits at a symmetric point
        params.flat += np.array([rng.uniform(-0.3, 0.3)
                                 for _ in range(params.count)])
        T = rng.randrange(2, 8)
        loss_tag = "bce" if i % 3 else "mse"
        xs, ys = _random_sequence(rng, T, topo.n_inputs, topo.n_outputs,
                                  binary_targets=loss_tag == "bce")
        _, analytic = episode_gradients(topo, params, xs, ys, None, loss_tag)
        numeric = fd_gradient(topo, params, xs, ys, None, loss_tag)
        err = np.abs(analytic - numeric)
        small = np.abs(numeric) < abs_floor
        err_small = err[small]
        err_rel = err[~small] / np.abs(numeric[~small])
        bad = (err_small > abs_floor).any() or (err_rel > rel_tol).any()
        net_worst = max(np.max(err_rel, initial=0.0),
                        np.max(err_small, initial=0.0))
        worst = max(worst, net_worst)
        if bad:
            passed = False
            lines.append(f"FAIL net {i} (plastic={plastic}, T={T}, "
                         f"loss={loss_tag}): worst error {net_worst:.3e}")
    dt = time.perf_counter() - t0
    lines.append(f"{'PASS' if passed else 'FAIL'} gradcheck: {n_nets} nets, "
                 f"worst error {worst:.3e}, {dt:.1f}s")
    return passed, lines


def run_oracle_diff(n_cases: int = 1000, seed: int = 7,
                    rate_tol: float = 1e-12):
    """Vectorized rollout vs naive per-edge interpreter: rate outputs agree
    within ``rate_tol``, spike trains agree exactly, and the plastic
    weights, lif membranes and lif pre-threshold membranes (the values
    the backward sweep takes the spike surrogate at) of every step agree
    within ``rate_tol``.
    A third of the cases drive plastic edges into the outputs onto the
    weight clip (hebbian rate 5, stdp weights from 0.02 under it); the
    last line counts those that reached it."""
    lines = []
    passed = True
    worst_rate = worst_state = 0.0
    at_clip = 0
    t0 = time.perf_counter()
    for i in range(n_cases):
        rng = Rng(derive_seed(seed, 0x0CA, i))
        spiking = i % 2 == 1
        rule = ("stdp" if spiking else "hebbian") if i % 3 else "none"
        clip = rule != "none" and i % 4 >= 2
        topo = build_random(rng.randrange(1, 5), rng.uniform(0.2, 1.0),
                            seed=derive_seed(seed, 3, i),
                            model="lif" if spiking else "rate",
                            n_inputs=rng.randrange(1, 3),
                            n_outputs=rng.randrange(1, 3),
                            plastic_rule=rule,
                            plastic_scope="readout" if clip else "hidden",
                            direct_io=clip)
        params = ParameterSet.from_topology(
            topo, learn_rate_init=5.0 if clip else 0.01)
        T = rng.randrange(3, 12)
        amp = 3.0 if spiking else 1.0
        xs = np.array([[rng.uniform(-amp, amp) for _ in range(topo.n_inputs)]
                       for _ in range(T)])
        if clip and spiking:
            w0 = params.w0      # a view of the flat vector
            w0[topo.stdp_pos] = np.sign(w0[topo.stdp_pos]) * (CLIP_BOUND - 0.02)
        states, recorded = [], []
        fast, _ = rollout(fresh_state(topo, params), xs, topo, params,
                          states=states)
        slow = np.array(reference_rollout(fresh_state(topo, params), xs,
                                          topo, params, record=recorded))
        at_clip += any(np.any(np.abs(st.plastic.weights) == CLIP_BOUND)
                       for st in states)
        if spiking:
            if not np.array_equal(fast, slow):
                passed = False
                lines.append(f"FAIL case {i}: spike trains differ")
        else:
            diff = float(np.max(np.abs(fast - slow)))
            worst_rate = max(worst_rate, diff)
            if diff > rate_tol:
                passed = False
                lines.append(f"FAIL case {i}: rate outputs differ by {diff:.3e}")
        ref_weights, ref_membranes, ref_pre = zip(*recorded)
        weights = [st.plastic.weights[topo.plastic_idx, 0] for st in states]
        membranes = [st.membrane[:, 0] for st in states]
        pre = [st.lif_pre[:, 0] for st in states]
        diff = max(_max_abs_diff(ref_weights, weights),
                   _max_abs_diff(ref_membranes, membranes),
                   _max_abs_diff(ref_pre, pre))
        worst_state = max(worst_state, diff)
        if diff > rate_tol:
            passed = False
            lines.append(f"FAIL case {i}: plastic weights, membranes or "
                         f"pre-threshold membranes differ by {diff:.3e}")
    dt = time.perf_counter() - t0
    lines.append(f"{'PASS' if passed else 'FAIL'} oracle: {n_cases} cases, "
                 f"{at_clip} at the weight clip, worst rate diff "
                 f"{worst_rate:.3e}, worst weight/membrane/pre-threshold "
                 f"membrane diff {worst_state:.3e}, spikes exact, {dt:.1f}s")
    return passed, lines


def _max_abs_diff(a, b) -> float:
    """Largest absolute difference of two equal-shape arrays, 0 when empty."""
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))


def run_plasticity_signs(tol: float = 1e-12):
    """Isolated source-before-target spike pair potentiates by exactly
    POTENTIATION * TRACE_DECAY; the mirrored order depresses by exactly
    DEPRESSION * TRACE_DECAY."""
    lines = []
    passed = True

    # one stdp edge from neuron 0 (source) to neuron 1 (target)
    src, dst = np.array([0]), np.array([1])
    for name, first, second, want in (
            ("source-before-target", [1.0, 0.0], [0.0, 1.0],
             POTENTIATION * TRACE_DECAY),
            ("target-before-source", [0.0, 1.0], [1.0, 0.0],
             -DEPRESSION * TRACE_DECAY)):
        trace, w = np.zeros(2), np.zeros(1)
        for spikes in (first, second):
            w, trace = stdp_update(w, src, dst, np.array(spikes), trace)
        delta = float(w[0])
        ok = abs(delta - want) <= tol and np.sign(delta) == np.sign(want)
        passed &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: "
                     f"delta {delta!r} vs {want!r}")

    # no activity: weights hold, the trace decays
    e2, tr2 = stdp_update(np.array([0.25]), src, dst, np.zeros(2),
                          np.array([0.5, 0.5]))
    ok = float(e2[0]) == 0.25 and float(tr2[0]) == 0.5 * TRACE_DECAY
    passed &= ok
    lines.append(f"{'PASS' if ok else 'FAIL'} no-spike hold and trace decay")
    return passed, lines


def run_determinism(n_pairs: int = 100, seed: int = 99):
    """Causality (future stimuli cannot alter past outputs) and bitwise
    rollout determinism over random networks."""
    lines = []
    passed = True
    for i in range(n_pairs):
        rng = Rng(derive_seed(seed, 0xDE7, i))
        spiking = i % 2 == 1
        topo = build_random(rng.randrange(2, 5), rng.uniform(0.3, 1.0),
                            seed=derive_seed(seed, 4, i),
                            model="lif" if spiking else "rate",
                            n_inputs=rng.randrange(1, 2),
                            n_outputs=rng.randrange(1, 2),
                            plastic_rule="hebbian" if i % 3 == 0 and not spiking
                            else "none")
        params = ParameterSet.from_topology(topo)
        T = rng.randrange(4, 10)
        amp = 3.0 if spiking else 1.0
        xs = np.array([[rng.uniform(-amp, amp) for _ in range(topo.n_inputs)]
                       for _ in range(T)])
        cut = rng.randrange(1, T - 1)
        xs2 = xs.copy()
        xs2[cut:] += 0.7  # perturb strictly after the cut
        ya, _ = rollout(fresh_state(topo, params), xs, topo, params)
        yb, _ = rollout(fresh_state(topo, params), xs2, topo, params)
        if not np.array_equal(ya[:cut], yb[:cut]):
            passed = False
            lines.append(f"FAIL causality pair {i}: prefix changed")
        ya2, _ = rollout(fresh_state(topo, params), xs, topo, params)
        if not np.array_equal(ya, ya2):
            passed = False
            lines.append(f"FAIL determinism pair {i}: repeat rollout differs")
    lines.append(f"{'PASS' if passed else 'FAIL'} determinism: {n_pairs} "
                 "paired rollouts, prefixes bitwise stable")
    return passed, lines


SUITES = {
    "gradcheck": run_gradcheck,
    "oracle": run_oracle_diff,
    "plasticity-signs": run_plasticity_signs,
    "determinism": run_determinism,
}
