"""The benchmark's training workloads.

Each workload builds its inputs the way a command-line user would: it
generates the dataset files from the workload seed, saves and reloads
them, builds and round-trips the topology and initializes parameters.
Everything else (training, evaluation) goes through the package's public
entry points in ``run.py``.

Why these three:

* ``pavlov-full`` — many short episodes (about 7.5 steps) with full-window
  backpropagation: per-episode and per-call overhead dominate, so batching
  across episodes shows most here.
* ``pong-tbptt`` — long episodes (about 81 steps) with overlapping
  truncated windows (k1=8, k2=16): redundant re-forward and re-backward
  work dominates, and the closed-loop evaluation measures single-step
  latency that batching across episodes cannot remove.
* ``lif-stdp`` — the pavlov graph shape with LIF cells and spike-timing
  plasticity, trained with mse: it runs the LIF surrogate, the gather that
  ``backward`` recomputes for LIF cells and the STDP traces, while the rate
  and Hebbian branches sit idle. A rate-only optimisation predicts no
  change here, and a regression on spiking cells shows here.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from statenet import datasets, topology, training
from statenet.params import ParameterSet
from statenet.pong import PongConfig
from statenet.topology import LifParams

# Gradient-epoch seconds of each workload on the reference machine (see
# NOTES.md). They turn --seconds into a fixed epoch count, so the train
# loss of a run depends on the seed alone, never on how fast it ran.
NOMINAL_EPOCH_S = {"pavlov-full": 3.4, "pong-tbptt": 10.3, "lif-stdp": 2.0}


@dataclass(frozen=True)
class Sizes:
    train_episodes: int
    eval_episodes: int          # held-out pavlov episodes
    rollouts: int               # closed-loop pong rollouts per evaluation


FULL = {"pavlov-full": Sizes(2000, 500, 0),
        "pong-tbptt": Sizes(300, 0, 20),
        "lif-stdp": Sizes(1000, 500, 0)}
TINY = {"pavlov-full": Sizes(40, 20, 0),
        "pong-tbptt": Sizes(6, 0, 2),
        "lif-stdp": Sizes(40, 20, 0)}


def lif_stdp_recipe():
    """The pavlov graph shape with LIF cells and STDP on the hidden and
    readout edges, trained with mse and full-window backpropagation.

    The threshold is 0.15: at the default 1.0 this graph never spikes, and
    STDP would silently do nothing.
    """
    topo = topology.build_random(16, 0.4, seed=42, model="lif", n_inputs=2,
                                 n_outputs=1, plastic_rule="stdp",
                                 plastic_scope="readout", direct_io=True,
                                 lif_params=LifParams(threshold=0.15))
    config = training.TrainConfig(loss_tag="mse", optimizer="adam",
                                  learning_rate=3e-3, batch_size=32)
    return topo, ParameterSet.from_topology(topo), config


@dataclass
class Inputs:
    topology: topology.NetworkTopology
    params: ParameterSet
    config: training.TrainConfig
    train_set: datasets.Dataset
    eval_set: datasets.Dataset | None    # held-out pavlov episodes
    pong_config: PongConfig | None       # closed-loop environment
    rollouts: int
    dataset_files: list[str]
    generated: list                      # (as built, as reloaded) pairs


def setup(name: str, seed: int, workdir: str, sizes: Sizes) -> Inputs:
    """Generate, save and reload the inputs; build and round-trip the net.

    Dataset seeds follow the workload seed: pavlov training episodes use
    ``seed``, held-out ones ``seed + 1`` and pong ``seed + 10`` (so seed 1
    gives the datasets of acceptance criteria 5 and 6).
    """
    files = []
    generated = []
    if name == "pong-tbptt":
        sets = {"train": datasets.gen_pong(datasets.PongDataConfig(
            episodes=sizes.train_episodes, seed=seed + 10))}
        topo, params, config = training.pong_recipe()
    else:
        sets = {
            "train": datasets.gen_pavlov(datasets.PavlovConfig(
                episodes=sizes.train_episodes, seed=seed, split="train")),
            "heldout": datasets.gen_pavlov(datasets.PavlovConfig(
                episodes=sizes.eval_episodes, seed=seed + 1, split="heldout")),
        }
        recipe = lif_stdp_recipe if name == "lif-stdp" else training.pavlov_recipe
        topo, params, config = recipe()
    loaded = {}
    for key, ds in sets.items():
        path = os.path.join(workdir, f"{key}.jsonl")
        datasets.save_dataset(ds, path)
        loaded[key] = datasets.load_dataset(path)
        files.append(path)
        generated.append((ds, loaded[key]))
    net_path = os.path.join(workdir, "net.json")
    topology.save_topology(topo, net_path)
    net = topology.load_topology(net_path)
    generated.append((topo, net))
    return Inputs(topology=net, params=params,
                  config=dataclasses.replace(config, seed=seed, task=None,
                                             checkpoint_stride=1, workers=1),
                  train_set=loaded["train"], eval_set=loaded.get("heldout"),
                  pong_config=PongConfig() if name == "pong-tbptt" else None,
                  rollouts=sizes.rollouts, dataset_files=files,
                  generated=generated)
