"""statenet training benchmark.

    python3 perfbench/run.py --workload pavlov-full --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. One run
sets up one workload several times, trains it for full gradient epochs,
evaluates it forward-only, runs the correctness checks and prints every
metric by name with its unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
any instrumentation. Their times are scaled to one reference host speed
(``hostspeed.py``). With ``--trace 1`` the run trains twice, untraced and
then with spans around the package's functions (``tracing.py``), checks
that both give bitwise the same losses and parameters, and reports the
per-layer metrics. Spans are written to ``.perfbench/``.

Scratch files live in ``.perfbench/`` inside the checkout and are removed
at the end of the run. Exit codes: 0 all checks passed, 1 a check failed
(the result is still printed) or the program raised (traceback on
standard error, no result), 2 bad arguments or no program to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from hostspeed import HostMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
TRAIN_SHARE = 0.65       # of --seconds, spent in gradient epochs
EVAL_SHARE = 0.35        # of --seconds, spent in repeated evaluation passes
MIN_EPOCHS = 2
WARMUP_CYCLES = 2        # untimed first batch cycles (at most one epoch)
MIN_EVAL_PASSES = 3
ORACLE_SAMPLE = 4        # episodes checked against the reference interpreter
SPIKING_SAMPLE = 8       # pavlov episodes rolled through the spiking probe net

END_TO_END_UNITS = {
    "train_steps_per_s": "steps/s",
    "eval_steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_loss": "loss/step",
}


class NoProgram(Exception):
    """The checkout has no statenet sources to measure."""


def import_program() -> None:
    """Import statenet from ``src/`` of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "statenet", "__init__.py")):
        raise NoProgram(f"no statenet package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import statenet
    if not os.path.abspath(statenet.__file__).startswith(SRC + os.sep):
        raise NoProgram(f"statenet imported from {statenet.__file__}, not {SRC}")


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def raw_rates(spans) -> list[float]:
    """Work per second of each (start, end, work) span, as timed."""
    return [work / (t1 - t0) for t0, t1, work in spans]


def scaled_rates(meter, spans) -> list[float]:
    """Work per second of each (start, end, work) span at the reference
    host speed (``hostspeed``)."""
    return [work / meter.scaled_seconds(t0, t1) for t0, t1, work in spans]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_facts() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# phases


def run_setups(name, seed, workdir, sizes, tally, tracer=None):
    """Set the workload up SETUP_REPEATS times; returns (inputs, (start, end)
    of each). The inputs of the last set-up are checked against what was
    generated."""
    import numpy as np
    import workloads
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            inputs = workloads.setup(name, seed, workdir, sizes)
        else:
            with tracer.phase("bench.setup"):
                inputs = workloads.setup(name, seed, workdir, sizes)
        times.append((t0, time.perf_counter()))
    for before, after in inputs.generated:
        if hasattr(before, "episodes"):
            same = (before.manifest == after.manifest
                    and len(before.episodes) == len(after.episodes)
                    and all(np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
                            and (a.mask is None) == (b.mask is None)
                            and (a.mask is None or np.array_equal(a.mask, b.mask))
                            and a.meta == b.meta
                            for a, b in zip(before.episodes, after.episodes)))
            tally.check(same, "dataset changed in a save/load round trip")
        else:
            tally.check(before.content_hash() == after.content_hash(),
                        "topology changed in a save/load round trip")
    return inputs, times


class BatchClock:
    """Timestamps every gradient batch of ``training.train``.

    ``train`` clips each batch's gradient exactly once, so a timestamp
    taken as ``training.clip_global_norm`` is entered marks the end of one
    batch's forward and backward passes. The interval between two
    timestamps spans one batch cycle: optimizer step, bookkeeping and the
    next batch's gradients; an interval across an epoch boundary also
    holds the metrics.csv row and the checkpoint write. It costs one clock
    read per batch and records no spans.
    """

    def __enter__(self) -> "BatchClock":
        from statenet import training
        self.training = training
        self.original = original = training.clip_global_norm
        ticks = self.ticks = []

        def clip_global_norm(grad, bound):
            ticks.append(time.perf_counter())
            return original(grad, bound)

        training.clip_global_norm = clip_global_norm
        return self

    def __exit__(self, *exc) -> None:
        self.training.clip_global_norm = self.original


def run_training(inputs, config, workdir, tally):
    """Full gradient epochs through ``training.train``.

    Returns (trained params, metrics history, (start, end, steps) of each
    timed batch cycle, steps/s of each epoch after the first). The first
    WARMUP_CYCLES batch cycles warm up and are not timed. A batch cycle
    is credited with its episode count (``batch_size``, less
    for an epoch's last batch) times the mean episode length, which is
    exact summed over an epoch.
    """
    from statenet import training
    with BatchClock() as clock:
        params, history = training.train(inputs.topology, inputs.train_set, config,
                                         params=inputs.params.copy(),
                                         run_dir=os.path.join(workdir, "run"))
    batches = -(-len(inputs.train_set) // config.batch_size)
    tally.ops(config.epochs * batches)
    steps = sum(ep.length for ep in inputs.train_set.episodes)
    tally.check(len(clock.ticks) == config.epochs * batches,
                "train() did not clip once per batch")
    mean_length = steps / len(inputs.train_set)
    sizes = [min(config.batch_size, len(inputs.train_set) - lo)
             for lo in range(0, len(inputs.train_set), config.batch_size)]
    ticks = clock.ticks
    warmup = min(WARMUP_CYCLES, batches)
    cycles = [(ticks[i - 1], ticks[i], sizes[i % batches] * mean_length)
              for i in range(warmup + 1, len(ticks))]
    walls = [row.wall_time for row in history]
    epoch_rates = [steps / (b - a) for a, b in zip(walls, walls[1:])]
    tally.check(len(history) == config.epochs
                and all(math.isfinite(row.train_loss) for row in history),
                "train loss missing or not finite")
    return params, history, cycles, epoch_rates


def evaluate_once(name, inputs, params, seed):
    """One evaluation pass; returns (policy steps, operations, outcome)."""
    from statenet import training
    if name == "pong-tbptt":
        res = training.eval_pong_closed_loop(params, inputs.topology,
                                             inputs.pong_config,
                                             n_rollouts=inputs.rollouts, seed=seed)
        steps = round(res["mean_episode_length"] * inputs.rollouts)
        return steps, inputs.rollouts, res
    accuracy, rows = training.eval_pavlov_acquisition(
        params, inputs.topology, inputs.eval_set, loss_tag=inputs.config.loss_tag)
    steps = sum(ep.length for ep in inputs.eval_set.episodes)
    return steps, len(inputs.eval_set), (accuracy, [r["correct"] for r in rows])


def run_evaluation(name, inputs, params, seed, budget_s, tally, reference=None):
    """Repeat evaluation passes for ``budget_s``; returns ((start, end,
    steps) of each pass, outcome). Every pass must give the same outcome as
    the first, or as ``reference`` when one is given."""
    passes = []
    first = reference
    deadline = time.perf_counter() + budget_s
    while len(passes) < MIN_EVAL_PASSES or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        steps, ops, outcome = evaluate_once(name, inputs, params, seed)
        passes.append((t0, time.perf_counter(), steps))
        tally.ops(ops)
        if first is None:
            first = outcome
        tally.check(outcome == first, "evaluation outcome changed between passes")
    if name == "pong-tbptt":
        tally.check(math.isfinite(first["hit_rate"]), "closed-loop hit rate not finite")
    return passes, first


def run_checks(inputs, config, params, seed, workdir, tally):
    """Oracle, truncation and checkpoint checks on the trained parameters.
    Returns the checkpoint's size in bytes."""
    import numpy as np
    from statenet import autodiff, engine, training
    from statenet.rng import Rng, derive_seed
    topo = inputs.topology
    episodes = inputs.train_set.episodes
    order = list(range(len(episodes)))
    Rng(derive_seed(seed, 0xBE7C)).shuffle(order)
    sample = [episodes[i] for i in order[:ORACLE_SAMPLE]]

    for ep in sample:
        ys, _ = engine.rollout(engine.fresh_state(topo, params), ep.x, topo, params)
        ref = np.array(engine.reference_rollout(engine.fresh_state(topo, params),
                                                ep.x, topo, params))
        tally.check(ys.shape == ref.shape and float(np.max(np.abs(ys - ref))) <= 1e-12,
                    "engine.rollout disagrees with reference_rollout")

    # k1 = k2 = T must reproduce full backpropagation (criterion 2's tolerance)
    ep = max(sample, key=lambda e: e.length)
    tag = config.loss_tag
    loss_t, g_t = autodiff.tbptt_gradients(topo, params, ep.x, ep.y, ep.mask, tag,
                                           ep.length, ep.length)
    loss_f, g_f = autodiff.episode_gradients(topo, params, ep.x, ep.y, ep.mask, tag)
    tally.check(abs(loss_t - loss_f) <= 1e-12 * max(1.0, abs(loss_f))
                and float(np.max(np.abs(g_t - g_f))) <= 1e-12,
                "tbptt with k1=k2=T differs from full backpropagation")

    ckpt = os.path.join(workdir, "run", "final.ckpt")
    loaded, _, _ = training.load_checkpoint(ckpt, topo, config)
    tally.check(np.array_equal(loaded.flat, params.flat),
                "checkpoint reload changed the parameters")

    return os.path.getsize(ckpt)


def run_spiking_probe(seed, tally):
    """Checks the LIF and STDP branch of the engine on the untrained
    ``lif-stdp`` net. Returns the spike rate of its LIF cells.

    The net is rolled over a few seeded pavlov episodes. The outputs of
    ``engine.rollout`` must equal those of ``engine.reference_rollout``
    exactly, the cells must spike, and the STDP weights must move.
    """
    import numpy as np
    import workloads
    from statenet import datasets, engine
    topo, params, _ = workloads.lif_stdp_recipe()
    data = datasets.gen_pavlov(datasets.PavlovConfig(
        episodes=SPIKING_SAMPLE, seed=seed, split="train"))
    spikes = []
    moved = []
    for ep in data.episodes:
        ys, _ = engine.rollout(engine.fresh_state(topo, params), ep.x, topo, params)
        ref = np.array(engine.reference_rollout(engine.fresh_state(topo, params),
                                                ep.x, topo, params))
        tally.check(np.array_equal(ys, ref),
                    "spiking engine.rollout disagrees with reference_rollout")
        state = start = engine.fresh_state(topo, params)
        for x in ep.x:
            res, state = engine.step(state, x, topo, params)
            spikes.append(res.probe[topo.lif_ids])
        moved.append(np.mean(np.abs(state.plastic.weights[topo.stdp_pos]
                                    - start.plastic.weights[topo.stdp_pos])))
    rate = float(np.mean(spikes))
    tally.check(rate > 0.0, "the spiking probe net never spiked")
    tally.check(float(np.mean(moved)) > 0.0, "STDP left the probe net's weights unchanged")
    return rate


# ---------------------------------------------------------------------------
# runs


def train_epochs(name: str, seconds: float) -> int:
    import workloads
    return max(MIN_EPOCHS,
               math.ceil(TRAIN_SHARE * seconds / workloads.NOMINAL_EPOCH_S[name]))


def per_step_loss(train_loss: float, dataset) -> float:
    """An epoch's mean per-episode loss over the mean episode length.

    Pong episode losses are sums over steps, so per-episode losses of two
    seeds differ as much as their episode lengths do; per step they
    compare.
    """
    return train_loss * len(dataset) / sum(ep.length for ep in dataset.episodes)


def end_to_end(name, seed, seconds, sizes, epochs, workdir, tally, notes, meter):
    inputs, setups = run_setups(name, seed, workdir, sizes, tally)
    config = dataclasses.replace(inputs.config, epochs=epochs)
    params, history, cycles, epoch_rates = run_training(inputs, config,
                                                        workdir, tally)
    passes, outcome = run_evaluation(name, inputs, params, seed,
                                     EVAL_SHARE * seconds, tally)
    run_checks(inputs, config, params, seed, workdir, tally)
    notes["engine.lif_spike_rate"] = (run_spiking_probe(seed, tally), "ratio")
    train_rates = scaled_rates(meter, cycles)
    eval_rates = scaled_rates(meter, passes)
    setup_times = [meter.scaled_seconds(t0, t1) for t0, t1 in setups]
    notes["train_steps_per_s.quartiles"] = (quartiles(train_rates), "steps/s")
    notes["train_steps_per_s.samples"] = (len(train_rates), "batch cycles")
    notes["train_steps_per_s.raw_quartiles"] = (quartiles(raw_rates(cycles)), "steps/s")
    notes["train_epoch_steps_per_s.raw_quartiles"] = (quartiles(epoch_rates), "steps/s")
    notes["train_epoch_steps_per_s.samples"] = (len(epoch_rates), "epochs")
    notes["train_loss.per_episode"] = (history[-1].train_loss, "loss")
    notes["eval_steps_per_s.quartiles"] = (quartiles(eval_rates), "steps/s")
    notes["eval_steps_per_s.samples"] = (len(eval_rates), "passes")
    notes["eval_steps_per_s.raw_quartiles"] = (quartiles(raw_rates(passes)), "steps/s")
    notes["setup_s.quartiles"] = (quartiles(setup_times), "s")
    notes["setup_s.raw_quartiles"] = (quartiles([t1 - t0 for t0, t1 in setups]), "s")
    notes["host.snippet_us.quartiles"] = (
        quartiles([c * 1e6 for c in meter.costs]), "us")
    if name == "pong-tbptt":
        notes["eval.hit_rate"] = (outcome["hit_rate"], "ratio")
        notes["eval.baseline_random"] = (outcome["baseline_random"], "ratio")
    else:
        notes["eval.accuracy"] = (outcome[0], "ratio")
    return {
        "train_steps_per_s": statistics.median(train_rates),
        "eval_steps_per_s": statistics.median(eval_rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_loss": per_step_loss(history[-1].train_loss, inputs.train_set),
    }


def traced(name, seed, seconds, sizes, epochs, workdir, tally, notes, meter):
    import numpy as np
    import layers
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        inputs, _ = run_setups(name, seed, workdir, sizes, tally, tracer)
    config = dataclasses.replace(inputs.config, epochs=epochs)
    params_u, history_u, cycles_u, _ = run_training(inputs, config, workdir, tally)
    with tracer, tracer.phase("bench.train"):
        params, history, cycles, _ = run_training(inputs, config, workdir, tally)
    tally.check([r.train_loss for r in history] == [r.train_loss for r in history_u]
                and np.array_equal(params.flat, params_u.flat),
                "tracing changed the training result")

    _, _, reference = evaluate_once(name, inputs, params, seed)
    with tracer:
        with tracer.phase("bench.eval"):
            run_evaluation(name, inputs, params, seed, EVAL_SHARE * seconds, tally,
                           reference=reference)
        with tracer.phase("bench.checks"):
            ckpt_bytes = run_checks(inputs, config, params, seed, workdir, tally)
            spike_rate = run_spiking_probe(seed, tally)
    if tracer.missing:
        notes["trace.missing"] = (",".join(tracer.missing), "functions")
    os.makedirs(SCRATCH, exist_ok=True)
    spans = os.path.join(SCRATCH, f"spans-{name}-seed{seed}.npz")
    tracer.save(spans)
    notes["trace.spans_file"] = (os.path.relpath(spans, ROOT), "path")
    notes["trace.spans"] = (len(tracer.start), "count")
    steps = config.epochs * sum(ep.length for ep in inputs.train_set.episodes)
    dataset_bytes = sum(os.path.getsize(p) for p in inputs.dataset_files)
    return layers.per_layer(tracer, epochs=config.epochs, train_steps=steps,
                            setups=SETUP_REPEATS, checkpoint_bytes=ckpt_bytes,
                            dataset_bytes=dataset_bytes, spike_rate=spike_rate,
                            overhead=statistics.median(scaled_rates(meter, cycles_u))
                            / statistics.median(scaled_rates(meter, cycles)))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False):
    """One benchmark run. Returns (result object, extra report lines).

    ``tiny`` shrinks every dataset to a few episodes, for the self-test.
    """
    import workloads
    sizes = (workloads.TINY if tiny else workloads.FULL)[name]
    # a traced run trains twice, untraced and traced, so each gets half
    epochs = 4 if tiny else train_epochs(name, seconds / 2 if trace else seconds)
    tally = Tally()
    notes: dict[str, tuple] = {}
    workdir = os.path.join(SCRATCH, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = traced if trace else end_to_end
        with HostMeter() as meter:
            values = run(name, seed, seconds, sizes, epochs, workdir, tally, notes,
                         meter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        import layers
        units = layers.UNITS
    else:
        units = END_TO_END_UNITS
    notes["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    for note in tally.notes:
        notes.setdefault("check.failed", ([], ""))[0].append(note)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_program()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.FULL:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.FULL)}")

    print("machine " + json.dumps(machine_facts()), flush=True)
    result, notes = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for key, (value, unit) in notes.items():
        print(f"{key} {value} {unit}".rstrip())
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
