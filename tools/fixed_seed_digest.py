"""Fixed-seed digest of five short training runs.

Trains ``training.pavlov_recipe``, ``training.pong_recipe`` and
``training.lif_stdp_recipe`` for 2 epochs on small generated data sets in
a temporary directory, with a checkpoint every epoch, and
prints one line per run: the sha256 of its ``metrics.csv`` without the
``wall_time`` column, then of each checkpoint, then of the trained
parameter vector's bytes (``params``), and for a run with a
held-out set the sha256 of the held-out breakdown rows that
``eval_pavlov_acquisition`` gives for the trained parameters; for a pong
run, the sha256 of the JSON of ``eval_pong_closed_loop`` over 20 rollouts
of the trained parameters (hit rate, mean length, approaches and random
baseline). A change that must keep the program's results bitwise leaves
every line unchanged.
The ``pong-3-7`` run trains the pong recipe with k1=3, k2=7 in batches
of 12: each step lies in three windows, and the sweeps stack windows
across ragged row ends. The ``lif-stdp-3-7`` run trains the lif recipe
the same way on the pavlov sets, so a stacked sweep of spiking cells is
covered too. The two lif runs train with no task, as the benchmark's
lif-stdp workload does, so no task metric enters their ``metrics.csv``.

Run from the root of a source checkout:

    python3 tools/fixed_seed_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from statenet import datasets, training  # noqa: E402
from statenet.pong import PongConfig  # noqa: E402


def _runs():
    """(name, recipe, training set, held-out set, pong environment)."""
    pavlov = (datasets.gen_pavlov(datasets.PavlovConfig(
                  episodes=96, seed=1, split="train")),
              datasets.gen_pavlov(datasets.PavlovConfig(
                  episodes=160, seed=2, split="heldout")), None)
    env = PongConfig(max_steps=60)
    pong = (datasets.gen_pong(datasets.PongDataConfig(
        episodes=32, seed=3, env=env)), None, env)

    def lif():
        topo, params, config = training.lif_stdp_recipe()
        return topo, params, dataclasses.replace(config, task=None)

    def short_windows(topo, params, config):
        return topo, params, dataclasses.replace(config, k1=3, k2=7,
                                                 batch_size=12)
    return [("pavlov", training.pavlov_recipe(), *pavlov),
            ("pong", training.pong_recipe(), *pong),
            ("lif-stdp", lif(), *pavlov),
            ("pong-3-7", short_windows(*training.pong_recipe()), *pong),
            ("lif-stdp-3-7", short_windows(*lif()), *pavlov)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines() -> list[str]:
    """One line per run: ``<name> metrics.csv=<sha> <ckpt>=<sha> ...
    params=<sha>``, then ``acquisition=<sha>`` for a run with a held-out
    set and ``closed-loop=<sha>`` for a pong run."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (topo, params, config), train_set, eval_set, env in _runs():
            run_dir = os.path.join(tmp, name)
            config = dataclasses.replace(config, epochs=2, checkpoint_stride=1,
                                         eval_rollouts=8)
            trained, _ = training.train(topo, train_set, config,
                                        eval_dataset=eval_set, run_dir=run_dir,
                                        params=params)
            with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
                rows = [ln.rsplit(b",", 1)[0] for ln in fh.read().splitlines()]
            fields = ["metrics.csv=" + _sha256(b"\n".join(rows))]
            for ckpt in sorted(f for f in os.listdir(run_dir)
                               if f.endswith(".ckpt")):
                with open(os.path.join(run_dir, ckpt), "rb") as fh:
                    fields.append(f"{ckpt}={_sha256(fh.read())}")
            fields.append("params=" + _sha256(trained.flat.tobytes()))
            if eval_set is not None:
                _, rows = training.eval_pavlov_acquisition(
                    trained, topo, eval_set, config.loss_tag)
                fields.append("acquisition="
                              + _sha256(json.dumps(rows).encode()))
            if env is not None:
                outcome = training.eval_pong_closed_loop(
                    trained, topo, env, 20, config.seed)
                fields.append("closed-loop="
                              + _sha256(json.dumps(outcome).encode()))
            lines.append(" ".join([name, *fields]))
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
