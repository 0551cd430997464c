"""Optimization loop, checkpointing, and task evaluations.

Training batches and held-out sets run through one lockstep driver
(``_lockstep``), which also names the episode of a non-finite value.
Batch gradients are the mean over the batch's episodes, run in one
process as one lockstep batch (``autodiff.batch_gradients``). Each
episode's gradient row is bitwise independent of its batch partners, and
the rows are summed in episode order, so results do not depend on the
batch layout. The mean is clipped by global norm, then applied with plain
SGD or Adam.
Everything is deterministic for a fixed (topology, dataset, config, seed):
the per-epoch shuffle order derives from the seed and the epoch index, so
resuming from a checkpoint continues the exact run.

Divergence (a batch loss whose magnitude exceeds ``DIVERGENCE_LIMIT`` or
is not finite, or a non-finite gradient) aborts immediately, before the
batch's update, dumping an emergency checkpoint when a run directory is
configured; such a loss names the batch's episode with the largest |loss|.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import LOSS_TAGS, batch_gradients, outputs_loss
from .datasets import Dataset, DatasetError
from .dynamics import NumericsError
from .engine import fresh_state, rollout, step
from .jsonio import (atomic_write, count, decode, digest, malformed, numbers,
                     read_json, write_json)
from .params import ParameterSet
from .plasticity import CLIP_BOUND, DEPRESSION, POTENTIATION, TRACE_DECAY
from .pong import PongConfig, PongEnv, action_from_index
from .rng import Rng, derive_seed
from .topology import LifParams, NetworkTopology, build_random

CHECKPOINT_TAG = "snn-checkpoint/1"
DIVERGENCE_LIMIT = 1e6
# what an earlier checkpoint's "meta" must hold to load
FIXED_META = {"clip_bound": CLIP_BOUND, "potentiation": POTENTIATION,
              "depression": DEPRESSION, "trace_decay": TRACE_DECAY}
# episodes per held-out lockstep block: the smallest block within 3 % of the
# fastest held-out pass (README, "Lockstep batches")
PREDICT_CHUNK = 128


class DivergenceError(RuntimeError):
    """Training loss went non-finite or exploded."""


class CheckpointError(ValueError):
    """Checkpoint unreadable or inconsistent with the current run."""


class CheckpointMismatch(CheckpointError):
    """Checkpoint of another topology or config; ``force`` overrides it."""


class MetricsError(ValueError):
    """A run's existing ``metrics.csv`` cannot be read on resume."""


TASKS = ("pavlov", "pong")


@dataclass(frozen=True)
class TrainConfig:
    loss_tag: str = "bce"            # mse | bce | cce
    optimizer: str = "adam"          # sgd | adam
    learning_rate: float = 3e-3
    batch_size: int = 32
    epochs: int = 30
    k1: int | None = None            # None: full-window backpropagation
    k2: int | None = None
    grad_clip: float = 1.0
    seed: int = 0
    eval_stride: int = 1
    checkpoint_stride: int = 0       # 0: only final checkpoint
    task: str | None = None          # one of TASKS | None (eval metric)
    eval_rollouts: int = 50
    # always 1; it stays while perfbench/workloads.py passes workers=1
    workers: int = 1

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.loss_tag not in LOSS_TAGS:
            raise ValueError(f"unknown loss tag {self.loss_tag!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.task is not None and self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.learning_rate < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning_rate and epochs must be >= 0, "
                             "batch_size >= 1")
        if self.checkpoint_stride < 0:
            raise ValueError(f"checkpoint_stride must be >= 0, "
                             f"got {self.checkpoint_stride}")
        if (self.k1 is None) != (self.k2 is None):
            raise ValueError("set both k1 and k2 or neither")
        if self.k1 is not None and not 1 <= self.k1 <= self.k2:
            raise ValueError(f"need 1 <= k1 <= k2, got ({self.k1}, {self.k2})")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if self.eval_stride < 1 or self.eval_rollouts < 1:
            raise ValueError("eval_stride and eval_rollouts must be >= 1")
        if self.workers != 1:
            raise ValueError(f"workers must be 1 (one process runs each "
                             f"lockstep batch), got {self.workers}")


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    eval_loss: float
    task_metric: float
    wall_time: float


METRICS_HEADER = "epoch,train_loss,eval_loss,task_metric,wall_time"


def format_metrics_row(row: MetricsRow) -> str:
    return (f"{row.epoch},{row.train_loss!r},{row.eval_loss!r},"
            f"{row.task_metric!r},{row.wall_time:.3f}")


# ---------------------------------------------------------------------------
# optimizers


class Sgd:
    kind = "sgd"

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def update(self, flat: np.ndarray, grad: np.ndarray) -> None:
        flat -= self.learning_rate * grad

    def state_dict(self) -> dict:
        return {"kind": self.kind}

    def load_state(self, state: dict, size: int) -> None:
        pass


class Adam:
    """Adaptive moments: first/second moment averages with bias correction."""

    kind = "adam"
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.count = 0

    def update(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
        self.count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad ** 2
        m_hat = self.m / (1.0 - self.beta1 ** self.count)
        v_hat = self.v / (1.0 - self.beta2 ** self.count)
        flat -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {"kind": self.kind, "count": self.count,
                "m": None if self.m is None else self.m.tolist(),
                "v": None if self.v is None else self.v.tolist()}

    def load_state(self, state: dict, size: int) -> None:
        """Restore ``state_dict()`` of a run with ``size`` parameters."""
        self.count = count(state, "count")
        if (state["m"], state["v"]) == (None, None):
            self.m = self.v = None
            return
        self.m, self.v = numbers(state, "m", 1), numbers(state, "v", 1)
        if len(self.m) != size or len(self.v) != size or np.any(self.v < 0):
            raise CheckpointError(f"adam moments must both be null or both be "
                                  f"lists of {size} finite numbers, the "
                                  f"second ones >= 0")


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


def clip_global_norm(grad: np.ndarray, bound: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(grad ** 2)))
    if norm > bound:
        grad = grad * (bound / norm)
    return grad


# ---------------------------------------------------------------------------
# checkpoints


def config_hash(config: TrainConfig) -> str:
    return digest(asdict(config))


def save_checkpoint(path: str, params: ParameterSet, optimizer, epoch: int,
                    config: TrainConfig, topology: NetworkTopology) -> None:
    doc = {
        "format": CHECKPOINT_TAG,
        "epoch": epoch,
        "params": params.flat.tolist(),
        "registry": {k: [v.start, v.stop] for k, v in params.registry.items()},
        "optimizer": optimizer.state_dict(),
        "config_hash": config_hash(config),
        "topology_hash": topology.content_hash(),
    }
    write_json(path, doc)


def load_params(path: str, topology: NetworkTopology,
                force: bool = False) -> tuple[ParameterSet, dict]:
    """Returns (params, checkpoint document); refuses a checkpoint of
    another topology unless ``force``."""
    with malformed(CheckpointError, "malformed checkpoint"):
        doc = read_json(path, CheckpointError)
        if doc.get("format") != CHECKPOINT_TAG:
            raise CheckpointError("not a checkpoint file")
        if not force and doc.get("topology_hash") != topology.content_hash():
            raise CheckpointMismatch("checkpoint topology hash mismatch")
        # earlier versions wrote the plasticity constants as "meta", with
        # the two init values that only seeded what "params" holds
        meta = doc.get("meta", FIXED_META)
        if (type(meta) is not dict
                or any(meta.get(k) != v for k, v in FIXED_META.items())):
            raise CheckpointError(f"checkpoint meta must be absent or hold "
                                  f"the fixed plasticity constants "
                                  f"{FIXED_META}, got {meta!r}")
        base = ParameterSet.from_topology(topology)
        flat = numbers(doc, "params", 1)
        if len(flat) != base.count:
            raise CheckpointError(f"checkpoint params must be a list of "
                                  f"{base.count} finite numbers")
        params = base.with_flat(flat)
        # earlier versions wrote "frozen": []; every segment trains
        if doc.get("frozen", []) != []:
            raise CheckpointError(f"checkpoint frozen must be [] (every "
                                  f"segment trains), got {doc['frozen']!r}")
        if doc["registry"] != {k: [v.start, v.stop]
                               for k, v in params.registry.items()}:
            raise CheckpointError("checkpoint parameter registry mismatch")
    return params, doc


def load_checkpoint(path: str, topology: NetworkTopology, config: TrainConfig,
                    force: bool = False):
    """Returns (params, optimizer, next_epoch)."""
    params, doc = load_params(path, topology, force)
    with malformed(CheckpointError, "malformed checkpoint"):
        if not force and doc["config_hash"] != config_hash(config):
            raise CheckpointMismatch("checkpoint config hash mismatch")
        optimizer = make_optimizer(config)
        if doc["optimizer"]["kind"] != optimizer.kind:
            raise CheckpointError("checkpoint optimizer kind mismatch")
        optimizer.load_state(doc["optimizer"], params.count)
        next_epoch = count(doc, "epoch") + 1
    return params, optimizer, next_epoch


# ---------------------------------------------------------------------------
# batch gradients


def _lockstep(episodes: list, ids, block: int, run):
    """One result per id of ``ids``, in ``ids`` order, of the episodes
    ``episodes[i]`` run as lockstep batches: the ids sorted once by length,
    longest first (ties in ``ids`` order), in blocks of ``block``, each
    zero-padded to its longest episode and passed to ``run(rows, xs, ys,
    mask, lengths)`` with ``rows`` its ids in row order, which returns one
    result per row. ``mask()`` pads the block's masks, so a ``run`` that
    scores no loss pads none; it is None when no episode of the block has
    one: each row is then scored up to its length. A row's
    ``NumericsError`` is re-raised as ``episode <id>: <message>`` with
    ``row = id``: the one place a batch row becomes an episode."""
    lengths = [episodes[i].length for i in ids]
    order = sorted(range(len(ids)), key=lengths.__getitem__, reverse=True)
    results = [None] * len(ids)
    for lo in range(0, len(order), block):
        ks = order[lo:lo + block]
        rows = [ids[k] for k in ks]
        eps = [episodes[i] for i in rows]
        block_lengths = [lengths[k] for k in ks]
        # the steps of each row up to its length, in row-major order: the
        # episodes' arrays concatenated fill them in place
        live = np.arange(block_lengths[0]) < np.array(block_lengths)[:, None]
        at = np.flatnonzero(live)
        xs = _padded(live.shape, at, [ep.x for ep in eps])
        ys = _padded(live.shape, at, [ep.y for ep in eps])

        def mask():
            if all(ep.mask is None for ep in eps):
                return None
            return _padded(live.shape, at, [
                np.ones_like(ep.y) if ep.mask is None else ep.mask
                for ep in eps])

        try:
            out = run(rows, xs, ys, mask, block_lengths)
        except NumericsError as exc:
            i = rows[exc.row]
            raise NumericsError(f"episode {i}: {exc}", row=i) from exc
        for k, res in zip(ks, out):
            results[k] = res
    return results


def _padded(shape: tuple, at: np.ndarray, arrays: list) -> np.ndarray:
    """``arrays`` (one per row) zero-padded into one ``shape + (channels,)``
    array: their steps, concatenated, go to the flat (row, step) offsets
    ``at``."""
    out = np.zeros(shape + arrays[0].shape[1:])
    flat = out.reshape(shape[0] * shape[1], out.shape[-1])
    flat[at] = np.concatenate(arrays)
    return out


def _batch_gradients(topology, params, episodes, ids, config):
    """Losses (in ``ids`` order) and mean gradient of the batch
    ``episodes[i]``, ``i`` in ``ids``."""
    def run(rows, xs, ys, mask, lengths):
        return zip(*batch_gradients(topology, params, xs, ys, mask(), lengths,
                                    config.loss_tag, config.k1, config.k2))

    losses = []
    grad = np.zeros(params.count)
    for loss, g in _lockstep(episodes, ids, len(ids), run):
        losses.append(loss)
        grad += g                       # in ids order: deterministic
    return losses, grad / float(len(ids))


# ---------------------------------------------------------------------------
# training


def train(topology: NetworkTopology, dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None, run_dir: str | None = None,
          resume: str | None = None, resume_force: bool = False,
          params: ParameterSet | None = None,
          run_record: dict | None = None,
          ) -> tuple[ParameterSet, list[MetricsRow]]:
    """Optimize parameters on a dataset. Returns (params, metrics history).

    The closed-loop pong evaluation plays in the environment the training
    set was recorded in (its manifest ``params.env``). Every refusal comes
    before the first write to ``run_dir``; then, with ``run_record``, the
    run's resolved config and that record are written to
    ``run_dir/train.json``."""
    config.validate()
    for name, data in (("training", dataset), ("evaluation", eval_dataset)):
        if data is not None and not len(data):
            raise DatasetError(f"the {name} set has no episodes")
    check_dims(dataset, topology)
    stages = None
    if eval_dataset is not None:
        check_dims(eval_dataset, topology)
        if config.task == "pavlov":
            stages = _test_stages(eval_dataset)
    env = None
    if config.task == "pong":
        check_pong_net(topology)
        env = _recorded_env(dataset)

    if resume:
        params, optimizer, start_epoch = load_checkpoint(resume, topology, config,
                                                         force=resume_force)
    else:
        if params is None:
            params = ParameterSet.from_topology(topology)
        optimizer = make_optimizer(config)
        start_epoch = 1

    metrics_path = os.path.join(run_dir, "metrics.csv") if run_dir else None
    if metrics_path:
        # a resumed run keeps the rows of the epochs its checkpoint covers
        rows = [METRICS_HEADER]
        if start_epoch > 1 and os.path.exists(metrics_path):
            with open(metrics_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            for lineno, ln in enumerate(lines[1:], start=2):
                with malformed(MetricsError, f"{metrics_path} line {lineno}"):
                    if int(ln.split(",", 1)[0]) < start_epoch:
                        rows.append(ln)
        os.makedirs(run_dir, exist_ok=True)
        if run_record is not None:
            write_json(os.path.join(run_dir, "train.json"),
                       {"config": asdict(config), **run_record}, indent=1)
        with atomic_write(metrics_path) as fh:
            fh.write("\n".join(rows) + "\n")

    metrics: list[MetricsRow] = []
    t_start = time.perf_counter()
    for epoch in range(start_epoch, config.epochs + 1):
        order = list(range(len(dataset)))
        Rng(derive_seed(config.seed, 0x5F1E, epoch)).shuffle(order)
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, len(order), config.batch_size):
            ids = order[lo:lo + config.batch_size]
            try:
                losses, grad = _batch_gradients(topology, params,
                                                dataset.episodes, ids, config)
            except FloatingPointError as exc:
                # parameters blew up far enough to break the forward pass
                blame = str(exc)
            else:
                blame = None
                loss = sum(losses) / len(ids)   # added in ids order
                if not abs(loss) <= DIVERGENCE_LIMIT:
                    worst = int(np.argmax(np.abs(losses)))
                    blame = f"episode {ids[worst]}: loss {losses[worst]}"
                elif not np.isfinite(grad).all():
                    # clipping would scale it by 0 and write NaN into params
                    blame = f"non-finite gradient (loss {loss})"
            if blame is not None:
                if run_dir:
                    save_checkpoint(os.path.join(run_dir, "diverged.ckpt"),
                                    params, optimizer, epoch, config, topology)
                raise DivergenceError(
                    f"{blame} at epoch {epoch}, batch {lo // config.batch_size}")
            grad = clip_global_norm(grad, config.grad_clip)
            optimizer.update(params.flat, grad)
            epoch_loss += loss * len(ids)
            seen += len(ids)
        train_loss = epoch_loss / max(1, seen)

        if epoch % config.eval_stride == 0 or epoch == config.epochs:
            eval_loss, task_metric = _evaluate(topology, params, config,
                                               eval_dataset, stages, env)
            row = MetricsRow(epoch=epoch, train_loss=train_loss,
                             eval_loss=eval_loss, task_metric=task_metric,
                             wall_time=time.perf_counter() - t_start)
            metrics.append(row)
            if metrics_path:
                with open(metrics_path, "a", encoding="utf-8") as fh:
                    fh.write(format_metrics_row(row) + "\n")
        if (config.checkpoint_stride and run_dir
                and epoch % config.checkpoint_stride == 0):
            save_checkpoint(os.path.join(run_dir, f"epoch{epoch:04d}.ckpt"),
                            params, optimizer, epoch, config, topology)
    if run_dir:
        # a resume past the last epoch runs none and keeps its own label
        save_checkpoint(os.path.join(run_dir, "final.ckpt"), params, optimizer,
                        max(config.epochs, start_epoch - 1), config, topology)
    return params, metrics


def pavlov_recipe():
    """Documented default recipe for the conditioning task.

    Returns (topology, initial params, train config). Rate neurons,
    16 hidden at density 0.4, hebbian plasticity on the hidden block and
    on edges into the output, direct stimulus-to-output edges (the
    response must react to the previous stimulus, which is one edge away),
    logit cross-entropy, Adam at 3e-3.
    """
    topology = build_random(16, 0.4, seed=42, model="rate", n_inputs=2,
                            n_outputs=1, plastic_rule="hebbian",
                            plastic_scope="readout", direct_io=True)
    params = ParameterSet.from_topology(topology, learn_rate_init=0.3,
                                        retention_init=0.98)
    config = TrainConfig(loss_tag="bce", optimizer="adam", learning_rate=3e-3,
                         batch_size=32, epochs=80, seed=0, task="pavlov")
    return topology, params, config


def pong_recipe():
    """Documented default recipe for the paddle-imitation task.

    Softmax cross-entropy over the three action neurons, truncated
    backpropagation with an 8-step stride and 16-step depth.
    """
    topology = build_random(16, 0.4, seed=42, model="rate", n_inputs=5,
                            n_outputs=3, plastic_rule="hebbian",
                            plastic_scope="hidden", direct_io=True)
    params = ParameterSet.from_topology(topology)
    config = TrainConfig(loss_tag="cce", optimizer="adam", learning_rate=3e-3,
                         batch_size=32, epochs=12, k1=8, k2=16, seed=0,
                         task="pong")
    return topology, params, config


def lif_stdp_recipe():
    """Documented default recipe for spiking cells: the conditioning graph
    with LIF neurons and STDP on the hidden block and on edges into the
    output, trained with mse and full-window backpropagation.

    The threshold is 0.15: at the default 1.0 this graph never spikes, and
    STDP would silently do nothing.
    """
    topology = build_random(16, 0.4, seed=42, model="lif", n_inputs=2,
                            n_outputs=1, plastic_rule="stdp",
                            plastic_scope="readout", direct_io=True,
                            lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topology)
    config = TrainConfig(loss_tag="mse", optimizer="adam", learning_rate=3e-3,
                         batch_size=32, epochs=80, seed=0, task="pavlov")
    return topology, params, config


def _evaluate(topology, params, config, eval_dataset, stages, env):
    """Held-out loss and task metric; ``stages`` are the held-out set's
    checked test stages when the task is pavlov, ``env`` the closed-loop
    environment when it is pong."""
    eval_loss = float("nan")
    task_metric = float("nan")
    if eval_dataset is not None:
        def score(ids, outs, ys, mask, lengths):
            losses = outputs_loss(config.loss_tag, outs, ys, mask(), lengths)
            return zip(losses.tolist(), [None] * len(ids) if stages is None
                       else _score_block(ids, outs, ys, stages,
                                         eval_dataset.episodes, config.loss_tag))

        results = _predict(params, topology, eval_dataset, score)
        total = 0.0
        for loss, _ in results:       # episode order: deterministic reduction
            total += loss
        eval_loss = total / len(eval_dataset)
        if stages is not None:
            task_metric = sum(row["correct"] for _, row in results) / len(
                eval_dataset)
    if config.task == "pong":
        task_metric = _play_pong(params, topology, env, config.eval_rollouts,
                                 config.seed)["hit_rate"]
    return eval_loss, task_metric


# ---------------------------------------------------------------------------
# evaluations


def output_threshold(values: np.ndarray, loss_tag: str) -> np.ndarray:
    """Binarize predictions: logits cross at 0, plain values at 0.5."""
    cut = 0.0 if loss_tag == "bce" else 0.5
    return (values > cut).astype(np.float64)


def _test_stages(dataset: Dataset) -> np.ndarray:
    """Each episode's test stage as a checked ``(lo, hi)`` row of an
    (episodes x 2) array, in episode order; a set without episodes has
    nothing to score and is refused."""
    if not len(dataset):
        raise DatasetError("the evaluation set has no episodes")
    stages = []
    for idx, ep in enumerate(dataset.episodes):
        try:
            lo, hi = ep.meta["stages"]["test"]
        except Exception:
            # ``malformed`` names the episode on the error path only (a
            # context per episode costs more than the check itself); what
            # it does not read as malformed passes through unchanged
            with malformed(DatasetError, f"episode {idx} test stage"):
                raise
        if not (type(lo) is type(hi) is int and 0 <= lo < hi <= ep.length):
            raise DatasetError(f"episode {idx} test stage must be [lo, hi] with "
                               f"0 <= lo < hi <= {ep.length}, got [{lo!r}, {hi!r}]")
        stages += lo, hi
    return np.fromiter(stages, np.intp, len(stages)).reshape(-1, 2)


def _score_block(ids: list, outs: np.ndarray, ys: np.ndarray,
                 stages: np.ndarray, episodes: list, loss_tag: str) -> list[dict]:
    """The breakdown row of each row of a padded (rows x steps x n_out)
    block, whose episodes are ``episodes[i]``, ``i`` in ``ids``: the
    thresholded first output (``loss_tag``'s cut) and its target over the
    episode's test stage ``stages[i] = (lo, hi)``, correct when the two
    agree at every step of it."""
    got = output_threshold(outs[..., 0], loss_tag)
    want = ys[..., 0]
    stages = stages[ids]
    steps = np.arange(outs.shape[1])
    in_stage = (steps >= stages[:, :1]) & (steps < stages[:, 1:])
    correct = ~np.any((got != want) & in_stage, axis=1)
    # the stage steps of all rows, in row order: row b's are the entries
    # ends[b - 1] (0 for the first row) to ends[b]
    ends = np.cumsum(stages[:, 1] - stages[:, 0]).tolist()
    got, want = got[in_stage].tolist(), want[in_stage].tolist()
    return [{"episode": i, "pairings": episodes[i].meta.get("pairings"),
             "correct": ok, "predicted": got[lo:hi], "target": want[lo:hi]}
            for i, ok, lo, hi in zip(ids, correct.tolist(), [0, *ends], ends)]


def eval_pavlov_acquisition(params: ParameterSet, topology: NetworkTopology,
                            dataset: Dataset, loss_tag: str = "bce"):
    """Fraction of episodes whose thresholded test-stage predictions match
    the ground truth at every test step. Returns (accuracy, breakdown): one
    ``_score_block`` row per episode, in episode order."""
    check_dims(dataset, topology)
    stages = _test_stages(dataset)
    rows = _predict(params, topology, dataset,
                    lambda ids, outs, ys, mask, lengths: _score_block(
                        ids, outs, ys, stages, dataset.episodes, loss_tag))
    return sum(row["correct"] for row in rows) / len(dataset), rows


def _predict(params: ParameterSet, topology: NetworkTopology,
             dataset: Dataset, score) -> list:
    """What ``score(ids, outs, ys, mask, lengths)`` gives for each episode
    of a held-out set, in episode order, each episode rolled out from a
    fresh episode-start state.

    The set runs through ``_lockstep`` in blocks of PREDICT_CHUNK episodes,
    so each block pads little, and a non-finite value names its episode;
    ``score`` gets each block's episode ids in row order, its padded
    outputs and targets, its ``mask()`` and its lengths, and returns one
    result per row. Each row is bitwise its episode run alone. The caller
    checks the set's dims."""
    def run(ids, xs, ys, mask, lengths):
        outs, _ = rollout(fresh_state(topology, params, batch=len(lengths)),
                          xs, topology, params, lengths=lengths)
        return score(ids, outs, ys, mask, lengths)

    return _lockstep(dataset.episodes, range(len(dataset)), PREDICT_CHUNK,
                     run)


def check_dims(dataset: Dataset, topology: NetworkTopology) -> None:
    """Refuse a dataset whose channels do not fit the network's terminals."""
    if (dataset.n_inputs, dataset.n_outputs) != (topology.n_inputs,
                                                 topology.n_outputs):
        raise DatasetError(
            f"dataset dims {dataset.n_inputs}x{dataset.n_outputs} do not match "
            f"topology {topology.n_inputs}x{topology.n_outputs}")


def check_pong_net(topology: NetworkTopology) -> None:
    """Refuse a network that cannot play pong (5 inputs, 3 actions)."""
    if topology.n_inputs != 5 or topology.n_outputs != 3:
        raise ValueError("pong policy needs a 5-input, 3-output network")


def _recorded_env(dataset: Dataset) -> PongConfig:
    """The environment a pong set was recorded in: its manifest
    ``params.env``, the default environment when absent."""
    with malformed(DatasetError, "training set manifest params.env"):
        recorded = dataset.manifest.get("params", {}).get("env", {})
        env = decode(PongConfig, recorded)
        env.validate()
    return env


def _pong_envs(env_config: PongConfig, n_rollouts: int,
               seed: int) -> list[PongEnv]:
    """One environment per rollout, each drawing its start from its own
    stream."""
    return [PongEnv(env_config, Rng(derive_seed(seed, 0xE41, r)))
            for r in range(n_rollouts)]


def _pong_outcome(envs: list[PongEnv]) -> dict:
    """Hit rate, mean length and approaches of finished rollouts, summed in
    rollout order."""
    hits = sum(env.hits for env in envs)
    approaches = sum(env.approaches for env in envs)
    return {"hit_rate": hits / max(1, approaches),
            "mean_episode_length": float(np.mean([env.steps for env in envs])),
            "approaches": approaches}


def eval_pong_closed_loop(params: ParameterSet, topology: NetworkTopology,
                          env_config: PongConfig, n_rollouts: int = 200,
                          seed: int = 0) -> dict:
    """Run the trained network in the live environment (argmax action) and
    measure hit rate against a uniform-random baseline.

    The baseline plays the same starts one rollout after another, drawing
    every action from one stream in that order; it reads no observation."""
    result = _play_pong(params, topology, env_config, n_rollouts, seed)
    baseline_rng = Rng(derive_seed(seed, 0xBA5E))
    envs = _pong_envs(env_config, n_rollouts, seed)
    for env in envs:
        while not env.done:
            env.step(baseline_rng.randrange(-1, 1))
    result["baseline_random"] = _pong_outcome(envs)["hit_rate"]
    return result


def _play_pong(params: ParameterSet, topology: NetworkTopology,
               env_config: PongConfig, n_rollouts: int, seed: int) -> dict:
    """The network's closed-loop outcome (argmax action), without a
    baseline.

    The rollouts run in lockstep, one column of a batch state each, and a
    column is dropped once its environment is done, so the state, which
    carries the gather's offsets, gets new ones once per number of live
    columns. Each column is bitwise its rollout run alone, so the result
    equals a rollout-by-rollout loop's.
    """
    check_pong_net(topology)
    if n_rollouts < 1:
        raise ValueError("n_rollouts must be >= 1")
    live = envs = _pong_envs(env_config, n_rollouts, seed)
    state = fresh_state(topology, params, batch=n_rollouts)
    while live:
        obs = np.array([env.observation() for env in live], dtype=np.float64)
        res, state = step(state, obs.T, topology, params)
        for env, action in zip(live, np.argmax(res.y, axis=0).tolist()):
            env.step(action_from_index(action))
        keep = [row for row, env in enumerate(live) if not env.done]
        if len(keep) < len(live):
            state = state.rows(np.array(keep, dtype=np.intp))
            live = [live[row] for row in keep]
    return _pong_outcome(envs)
