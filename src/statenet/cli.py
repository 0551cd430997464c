"""Command-line entry point.

Subcommands: ``gen`` (datasets), ``train``, ``eval``, ``verify`` (the
invariant suites), ``topo`` (build / validate / inspect networks).

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 numeric divergence. Options may come from a JSON config file
(``--config``); explicit flags win. ``train`` echoes its fully resolved
configuration into the run directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click
import numpy as np

from . import __version__
from .datasets import FORMAT_TAG as DATASET_FORMAT_TAG
from .datasets import (DatasetError, PavlovConfig, PongDataConfig, gen_pavlov,
                       gen_pong, load_dataset, save_dataset)
from .pong import PongConfig
from .topology import (FORMAT_TAG, TopologyError, build_random, load_topology,
                       save_topology)
from .training import (CheckpointError, CheckpointMismatch, DivergenceError,
                       TrainConfig, eval_pavlov_acquisition,
                       eval_pong_closed_loop, load_params, train)
from .verify import SUITES


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _fail(3, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail(2, f"malformed config: {exc}")
    if not isinstance(doc, dict):
        _fail(2, "config file must hold a JSON object")
    return doc


def _resolve(flags: dict, file_cfg: dict, defaults) -> dict:
    """Merge layer by layer: dataclass defaults < config file < flags."""
    out = dataclasses.asdict(defaults)
    for k, v in file_cfg.items():
        if k not in out:
            _fail(2, f"unknown config key {k!r}")
        out[k] = tuple(v) if isinstance(out[k], tuple) else v
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    return out


@click.group()
@click.version_option(__version__, message=(
    f"statenet {__version__} (topology {FORMAT_TAG}, "
    f"episodes {DATASET_FORMAT_TAG})"))
def main():
    """Stateful plastic networks: data generation, training, verification."""


# ---------------------------------------------------------------------------
# gen


@main.group()
def gen():
    """Generate datasets."""


@gen.command("pavlov")
@click.option("--episodes", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--noise", "noise_p", type=float, default=None)
@click.option("--threshold", "conditioning_threshold", type=int, default=None)
@click.option("--split", type=click.Choice(["all", "train", "heldout"]),
              default=None)
@click.option("--paper-exact", "paper_exact", is_flag=True, default=None,
              help="Emit the canonical five-step conditioning episode(s).")
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", required=True, type=str)
def gen_pavlov_cmd(config_path, out, **flags):
    """Conditioning episodes (food / ring stimuli, salivation response)."""
    merged = _resolve(flags, _load_config_file(config_path), PavlovConfig())
    try:
        cfg = PavlovConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in merged.items()})
        cfg.validate()
        dataset = gen_pavlov(cfg)
    except (ValueError, TypeError) as exc:
        _fail(2, str(exc))
    _write_dataset(dataset, out)


@gen.command("pong")
@click.option("--episodes", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--width", type=int, default=None)
@click.option("--height", type=int, default=None)
@click.option("--paddle", "paddle_len", type=int, default=None)
@click.option("--max-steps", "max_steps", type=int, default=None)
@click.option("--expert-noise", "expert_noise_p", type=float, default=None)
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", required=True, type=str)
def gen_pong_cmd(config_path, out, episodes, seed, expert_noise_p, **env_flags):
    """Imitation episodes recorded from the scripted paddle expert."""
    file_cfg = _load_config_file(config_path)
    base = PongDataConfig()
    env = dataclasses.asdict(base.env)
    env.update({k: v for k, v in file_cfg.get("env", {}).items()})
    env.update({k: v for k, v in env_flags.items() if v is not None})
    try:
        cfg = PongDataConfig(
            episodes=episodes if episodes is not None
            else file_cfg.get("episodes", base.episodes),
            seed=seed if seed is not None else file_cfg.get("seed", base.seed),
            env=PongConfig(**env),
            expert_noise_p=expert_noise_p if expert_noise_p is not None
            else file_cfg.get("expert_noise_p", base.expert_noise_p))
        cfg.validate()
        dataset = gen_pong(cfg)
    except (ValueError, TypeError) as exc:
        _fail(2, str(exc))
    _write_dataset(dataset, out)


def _write_dataset(dataset, out):
    try:
        save_dataset(dataset, out)
    except OSError as exc:
        _fail(3, f"cannot write {out}: {exc}")
    lengths = [ep.length for ep in dataset.episodes]
    click.echo(f"wrote {len(dataset)} episodes to {out} "
               f"(dims {dataset.n_inputs}x{dataset.n_outputs}, "
               f"T {min(lengths)}..{max(lengths)})")


# ---------------------------------------------------------------------------
# topo


@main.group()
def topo():
    """Build and inspect network topologies."""


@topo.command("random")
@click.option("--hidden", type=int, default=16)
@click.option("--density", type=float, default=0.4)
@click.option("--seed", type=int, default=0)
@click.option("--model", type=click.Choice(["rate", "lif"]), default="rate")
@click.option("--inputs", type=int, default=2)
@click.option("--outputs", type=int, default=1)
@click.option("--plastic", type=click.Choice(["none", "hebbian", "stdp"]),
              default="none")
@click.option("--out", required=True, type=str)
def topo_random(hidden, density, seed, model, inputs, outputs, plastic, out):
    """Random network: inputs fan out, hidden wired at the given density."""
    try:
        topology = build_random(hidden, density, seed, model, n_inputs=inputs,
                                n_outputs=outputs, plastic_rule=plastic)
    except (ValueError, TopologyError) as exc:
        _fail(2, str(exc))
    try:
        save_topology(topology, out)
    except OSError as exc:
        _fail(3, f"cannot write {out}: {exc}")
    click.echo(f"wrote {topology.n} neurons, {topology.n_edges} edges to {out}")


@topo.command("validate")
@click.argument("path")
def topo_validate(path):
    """Validate a topology file; exit 2 on fatal findings."""
    try:
        topology = load_topology(path)
    except OSError as exc:
        _fail(3, str(exc))
    except TopologyError as exc:
        _fail(2, str(exc))
    report = topology.validate()
    for w in report.warnings:
        click.echo(f"warning: {w}")
    click.echo(f"ok: {topology.n} neurons, {topology.n_edges} edges, "
               f"{topology.n_plastic} plastic")


@topo.command("show")
@click.argument("path")
def topo_show(path):
    """Print a topology summary."""
    try:
        topology = load_topology(path)
    except OSError as exc:
        _fail(3, str(exc))
    except TopologyError as exc:
        _fail(2, str(exc))
    click.echo(f"neurons: {topology.n} (inputs {topology.n_inputs}, "
               f"hidden {len(topology.hidden_ids)}, outputs {topology.n_outputs})")
    click.echo(f"edges: {topology.n_edges} ({topology.n_plastic} plastic)")
    click.echo(f"hash: {topology.content_hash()}")


# ---------------------------------------------------------------------------
# train


@main.command("train")
@click.option("--topology", "topology_path", required=True, type=str)
@click.option("--dataset", "dataset_path", required=True, type=str)
@click.option("--eval-dataset", "eval_path", type=str, default=None)
@click.option("--out-dir", "out_dir", required=True, type=str)
@click.option("--config", "config_path", type=str, default=None)
@click.option("--loss", "loss_tag", type=click.Choice(["mse", "bce", "cce"]),
              default=None)
@click.option("--optimizer", type=click.Choice(["sgd", "adam"]), default=None)
@click.option("--lr", "learning_rate", type=float, default=None)
@click.option("--batch", "batch_size", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--k1", type=int, default=None)
@click.option("--k2", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--task", type=click.Choice(["pavlov", "pong"]), default=None)
@click.option("--workers", type=int, default=None)
@click.option("--resume", "resume_path", type=str, default=None)
@click.option("--force", is_flag=True, default=False,
              help="Resume even if the checkpoint hashes disagree.")
def train_cmd(topology_path, dataset_path, eval_path, out_dir, config_path,
              resume_path, force, **flags):
    """Optimize a network on a dataset; writes metrics and checkpoints."""
    merged = _resolve(flags, _load_config_file(config_path), TrainConfig())
    try:
        config = TrainConfig(**merged)
        config.validate()
    except (ValueError, TypeError) as exc:
        _fail(2, str(exc))
    try:
        topology = load_topology(topology_path)
        dataset = load_dataset(dataset_path)
        eval_dataset = load_dataset(eval_path) if eval_path else None
    except OSError as exc:
        _fail(3, str(exc))
    except (TopologyError, DatasetError) as exc:
        _fail(2, str(exc))
    if (dataset.n_inputs != topology.n_inputs
            or dataset.n_outputs != topology.n_outputs):
        _fail(2, f"dataset dims {dataset.n_inputs}x{dataset.n_outputs} do not "
              f"match topology {topology.n_inputs}x{topology.n_outputs}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "train.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": dataclasses.asdict(config),
                   "topology": topology_path, "dataset": dataset_path,
                   "eval_dataset": eval_path}, fh, indent=1)
    try:
        _, metrics = train(topology, dataset, config, eval_dataset=eval_dataset,
                           run_dir=out_dir, resume=resume_path,
                           resume_force=force)
    except CheckpointMismatch as exc:
        _fail(2, f"{exc} (use --force)")
    except CheckpointError as exc:
        _fail(2, str(exc))
    except DivergenceError as exc:
        _fail(4, str(exc))
    if metrics:
        last = metrics[-1]
        click.echo(f"done: epoch={last.epoch} train_loss={last.train_loss:.6f} "
                   f"eval_loss={last.eval_loss:.6f} task_metric={last.task_metric}")
    else:
        click.echo("done: no epochs run")


# ---------------------------------------------------------------------------
# eval


@main.group("eval")
def eval_group():
    """Evaluate a checkpoint."""


def _load_ckpt(checkpoint, topology_path, force):
    try:
        topology = load_topology(topology_path)
        params, _ = load_params(checkpoint, topology, force=force)
    except OSError as exc:
        _fail(3, str(exc))
    except CheckpointMismatch as exc:
        _fail(2, f"{exc} (use --force)")
    except (TopologyError, CheckpointError, ValueError) as exc:
        _fail(2, str(exc))
    return topology, params


@eval_group.command("acquisition")
@click.option("--checkpoint", required=True, type=str)
@click.option("--topology", "topology_path", required=True, type=str)
@click.option("--dataset", "dataset_path", required=True, type=str)
@click.option("--loss", "loss_tag", type=click.Choice(["mse", "bce"]),
              default="bce")
@click.option("--force", is_flag=True, default=False)
def eval_acquisition(checkpoint, topology_path, dataset_path, loss_tag, force):
    """Test-stage exact-match accuracy on conditioning episodes."""
    topology, params = _load_ckpt(checkpoint, topology_path, force)
    try:
        dataset = load_dataset(dataset_path)
    except OSError as exc:
        _fail(3, str(exc))
    except DatasetError as exc:
        _fail(2, str(exc))
    try:
        accuracy, rows = eval_pavlov_acquisition(params, topology, dataset,
                                                 loss_tag=loss_tag)
    except ValueError as exc:
        _fail(2, str(exc))
    n_wrong = sum(1 for r in rows if not r["correct"])
    click.echo(f"acquisition_accuracy={accuracy!r}")
    click.echo(f"episodes={len(rows)} incorrect={n_wrong}")


@eval_group.command("pong")
@click.option("--checkpoint", required=True, type=str)
@click.option("--topology", "topology_path", required=True, type=str)
@click.option("--rollouts", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--force", is_flag=True, default=False)
def eval_pong(checkpoint, topology_path, rollouts, seed, force):
    """Closed-loop hit rate of the cloned policy vs a random baseline."""
    topology, params = _load_ckpt(checkpoint, topology_path, force)
    try:
        result = eval_pong_closed_loop(params, topology, PongConfig(),
                                       n_rollouts=rollouts, seed=seed)
    except ValueError as exc:
        _fail(2, str(exc))
    click.echo(f"hit_rate={result['hit_rate']!r}")
    click.echo(f"baseline_random={result['baseline_random']!r}")
    click.echo(f"mean_episode_length={result['mean_episode_length']!r}")


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(SUITES)))
def verify_cmd(suite):
    """Run a verification suite; exit 0 only if every check passes."""
    passed, lines = SUITES[suite]()
    for line in lines:
        click.echo(line)
    if not passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
