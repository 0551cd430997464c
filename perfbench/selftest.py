"""Self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Checks that every workload runs with and without tracing and passes its
correctness checks, that every metric named in BENCHMARK.json is emitted
with its unit, that tracing changes no output and leaves no wrapper
behind, that the host meter's timer is stopped, that the per-layer counts
repeat exactly, and that the self-time shares account for the whole
traced training phase.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys

import run


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestFailure(what)


COUNTS = ("engine.step.calls_per_train_step", "engine.useful_step_ratio",
          "autodiff.backward.swept_per_train_step",
          "autodiff.full_weights.calls_per_train_step", "dynamics.calls",
          "plasticity.calls", "training.checkpoint.bytes", "datasets.file.bytes")


def main() -> int:
    run.import_program()
    import layers
    import workloads
    from statenet import engine, training

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.FULL),
           "BENCHMARK.json workloads differ from workloads.FULL")
    for trace, key, units in ((False, "end_to_end", run.END_TO_END_UNITS),
                              (True, "per_layer", layers.UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} differs from the emitted "
                                  f"metrics: {sorted(set(declared) ^ set(units))}")

    for name in workloads.FULL:
        plain, _ = run.run_benchmark(name, 3, 1.0, trace=False, tiny=True)
        first, notes = run.run_benchmark(name, 3, 1.0, trace=True, tiny=True)
        second, _ = run.run_benchmark(name, 3, 1.0, trace=True, tiny=True)
        for label, res, units in (("untraced", plain, run.END_TO_END_UNITS),
                                  ("traced", first, layers.UNITS)):
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} {label}: checks failed: {notes.get('check.failed')}")
            expect(set(res["metrics"]) == set(units),
                   f"{name} {label}: metric names differ")
            for metric, entry in res["metrics"].items():
                expect(entry["unit"] == units[metric] and math.isfinite(entry["value"]),
                       f"{name} {label}: {metric} = {entry}")
        expect(plain["metrics"]["train_steps_per_s"]["value"] > 0.0,
               f"{name}: no training throughput")
        expect(not hasattr(engine.step, "__wrapped__")
               and training.step is engine.step,
               f"{name}: a tracing wrapper was left installed")
        expect(signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
               and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
               f"{name}: the host meter's timer was left running")
        for metric in COUNTS:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            expect(a == b, f"{name}: count {metric} did not repeat ({a} != {b})")
        shares = sum(v["value"] for k, v in first["metrics"].items()
                     if k.endswith("_share") and not k.startswith("pong.env_step"))
        expect(abs(shares - 1.0) < 1e-6, f"{name}: self-time shares sum to {shares}")
        print(f"PASS {name}: {plain['attempted']} operations untraced, "
              f"{first['attempted']} traced, {notes['trace.spans'][0]} spans, "
              f"step calls per train step "
              f"{first['metrics']['engine.step.calls_per_train_step']['value']:.3f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
