"""Command-line entry point.

Subcommands: ``gen`` (datasets), ``train``, ``eval``, ``verify`` (the
invariant suites), ``topo`` (build / validate / inspect networks).

Exit codes: 0 success, 1 a failed ``verify`` check, 2 usage error or
malformed configuration, topology, dataset or checkpoint, 3 I/O error, 4
numeric divergence; one table (``EXIT_CODES``) decides 2 to 4 for every
subcommand. Options may come from a JSON config file (``--config``);
explicit flags win. ``train`` echoes its fully resolved configuration into
the run directory.
"""

from __future__ import annotations

import sys

import click

from . import __version__
from .autodiff import LOSS_TAGS
from .datasets import FORMAT_TAG as DATASET_FORMAT_TAG
from .datasets import (PavlovConfig, PongDataConfig, gen_pavlov, gen_pong,
                       load_dataset, save_dataset)
from .jsonio import decode, read_json
from .pong import PongConfig
from .topology import FORMAT_TAG, build_random, load_topology, save_topology
from .training import (TASKS, CheckpointMismatch, TrainConfig,
                       eval_pavlov_acquisition, eval_pong_closed_loop,
                       load_params, train)
from .verify import SUITES


# Which failure exits with which code (its most specific listed class
# decides), and a hint appended to its message. Any other exception is a
# bug and keeps its traceback.
EXIT_CODES = {
    OSError: (3, ""),
    FloatingPointError: (4, ""),
    CheckpointMismatch: (2, " (use --force)"),
    ValueError: (2, ""),
}


class _ExitCodeGroup(click.Group):
    """The top command group: applies ``EXIT_CODES`` once, around whichever
    subcommand runs; every numeric failure is a ``FloatingPointError``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            code, hint = next(EXIT_CODES[kind] for kind in type(exc).__mro__
                              if kind in EXIT_CODES)
            click.echo(f"error: {exc}{hint}", err=True)
            sys.exit(code)


def _config(cls, path: str | None, flags: dict):
    """A validated ``cls``: dataclass defaults < config file < flags."""
    config = decode(cls, read_json(path) if path else {}, **flags)
    config.validate()
    return config


@click.group(cls=_ExitCodeGroup)
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
    _write_dataset(gen_pavlov(_config(PavlovConfig, config_path, flags)), out)


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
    flags = {"episodes": episodes, "seed": seed,
             "expert_noise_p": expert_noise_p, "env": env_flags}
    _write_dataset(gen_pong(_config(PongDataConfig, config_path, flags)), out)


def _write_dataset(dataset, out):
    save_dataset(dataset, out)
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
    topology = build_random(hidden, density, seed, model, n_inputs=inputs,
                            n_outputs=outputs, plastic_rule=plastic)
    save_topology(topology, out)
    click.echo(f"wrote {topology.n} neurons, {topology.n_edges} edges to {out}")


@topo.command("validate")
@click.argument("path")
def topo_validate(path):
    """Validate a topology file; exit 2 on fatal findings."""
    topology = load_topology(path)
    for w in topology.warnings:
        click.echo(f"warning: {w}")
    click.echo(f"ok: {topology.n} neurons, {topology.n_edges} edges, "
               f"{topology.n_plastic} plastic")


@topo.command("show")
@click.argument("path")
def topo_show(path):
    """Print a topology summary."""
    topology = load_topology(path)
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
@click.option("--loss", "loss_tag", type=click.Choice(LOSS_TAGS), default=None)
@click.option("--optimizer", type=click.Choice(["sgd", "adam"]), default=None)
@click.option("--lr", "learning_rate", type=float, default=None)
@click.option("--batch", "batch_size", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--k1", type=int, default=None)
@click.option("--k2", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--task", type=click.Choice(TASKS), default=None)
@click.option("--resume", "resume_path", type=str, default=None)
@click.option("--force", is_flag=True, default=False,
              help="Resume even if the checkpoint hashes disagree.")
def train_cmd(topology_path, dataset_path, eval_path, out_dir, config_path,
              resume_path, force, **flags):
    """Optimize a network on a dataset; writes metrics and checkpoints."""
    config = _config(TrainConfig, config_path, flags)
    topology = load_topology(topology_path)
    dataset = load_dataset(dataset_path)
    eval_dataset = load_dataset(eval_path) if eval_path else None
    _, metrics = train(topology, dataset, config, eval_dataset=eval_dataset,
                       run_dir=out_dir, resume=resume_path, resume_force=force,
                       run_record={"topology": topology_path,
                                   "dataset": dataset_path,
                                   "eval_dataset": eval_path})
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


@eval_group.command("acquisition")
@click.option("--checkpoint", required=True, type=str)
@click.option("--topology", "topology_path", required=True, type=str)
@click.option("--dataset", "dataset_path", required=True, type=str)
@click.option("--loss", "loss_tag", type=click.Choice(["mse", "bce"]),
              default="bce")
@click.option("--force", is_flag=True, default=False)
def eval_acquisition(checkpoint, topology_path, dataset_path, loss_tag, force):
    """Test-stage exact-match accuracy on conditioning episodes."""
    topology = load_topology(topology_path)
    params, _ = load_params(checkpoint, topology, force=force)
    accuracy, rows = eval_pavlov_acquisition(params, topology,
                                             load_dataset(dataset_path),
                                             loss_tag=loss_tag)
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
    topology = load_topology(topology_path)
    params, _ = load_params(checkpoint, topology, force=force)
    result = eval_pong_closed_loop(params, topology, PongConfig(),
                                   n_rollouts=rollouts, seed=seed)
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
