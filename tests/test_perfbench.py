"""The benchmark's bindings to the package: every workload runs at tiny
sizes and passes its checks, and the functions that ``perfbench/tracing.py``
wraps still exist."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"

# Each workload's untraced result, one JSON line per workload.
TINY_RUNS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
run.import_program()   # puts src/ on the path, which workloads imports
import workloads
for name in workloads.FULL:
    result, _ = run.run_benchmark(name, 1, 1.0, False, tiny=True)
    print(json.dumps({"name": name, "correct": result["correct"],
                      "failed": result["failed"]}))
"""

# Traced names whose functions are gone; the benchmark still lists them.
KNOWN_MISSING = {("engine", "full_weights"), ("autodiff", "forward_taped")}


def test_every_workload_runs_tiny_and_passes_its_checks():
    proc = subprocess.run([sys.executable, "-c", TINY_RUNS, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines()
               if ln.startswith("{")]
    assert len(results) == 3, proc.stdout
    for res in results:
        assert res["correct"] and res["failed"] == 0, res


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    missing = set()
    for module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"statenet.{module}")
        *cls, name = attr.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        if owner is None or name not in vars(owner):
            missing.add((module, attr))
    assert missing <= KNOWN_MISSING
