"""Optimization loop, checkpointing, and task evaluations.

Batch gradients are the mean over the batch's episodes, which run as one
lockstep batch (``autodiff.batch_gradients``; with workers, one lockstep
sub-batch per worker). Each episode's gradient row is bitwise independent
of its batch partners, and the rows are summed in episode order, so
results depend on neither batch layout nor worker count. The mean is
clipped by global norm, then applied with plain SGD or the
adaptive-moments optimizer.
Everything is deterministic for a fixed (topology, dataset, config, seed):
the per-epoch shuffle order derives from the seed and the epoch index, so
resuming from a checkpoint continues the exact run.

Divergence (non-finite or huge loss) aborts immediately, dumping an
emergency checkpoint when a run directory is configured.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import batch_gradients, outputs_loss
from .datasets import Dataset, DatasetError
from .dynamics import NumericsError
from .engine import fresh_state, rollout, step
from .jsonio import atomic_write, decode, read_json, write_json
from .params import ParameterSet
from .plasticity import PlasticityMeta
from .pong import PongConfig, PongEnv, action_from_index
from .rng import Rng, derive_seed
from .topology import NetworkTopology

CHECKPOINT_TAG = "snn-checkpoint/1"
DIVERGENCE_LIMIT = 1e6
PREDICT_CHUNK = 32       # episodes rolled out in lockstep by evaluations


class DivergenceError(RuntimeError):
    """Training loss went non-finite or exploded."""


class CheckpointError(ValueError):
    """Checkpoint unreadable or inconsistent with the current run."""


class CheckpointMismatch(CheckpointError):
    """Checkpoint of another topology or config; ``force`` overrides it."""


@dataclass(frozen=True)
class TrainConfig:
    loss_tag: str = "bce"            # mse | bce | cce
    optimizer: str = "adam"          # sgd | adam (adaptive moments)
    learning_rate: float = 3e-3
    batch_size: int = 32
    epochs: int = 30
    k1: int | None = None            # None: full-window backpropagation
    k2: int | None = None
    grad_clip: float = 1.0
    seed: int = 0
    eval_stride: int = 1
    checkpoint_stride: int = 0       # 0: only final checkpoint
    task: str | None = None          # pavlov | pong | None (eval metric)
    eval_rollouts: int = 50
    workers: int = 1

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.loss_tag not in ("mse", "bce", "cce"):
            raise ValueError(f"unknown loss tag {self.loss_tag!r}")
        if self.optimizer not in ("sgd", "adam", "adaptive-moments"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("learning rate, batch size, epochs must be positive")
        if (self.k1 is None) != (self.k2 is None):
            raise ValueError("set both k1 and k2 or neither")
        if self.k1 is not None and not 1 <= self.k1 <= self.k2:
            raise ValueError(f"need 1 <= k1 <= k2, got ({self.k1}, {self.k2})")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")
        if self.eval_stride < 1 or self.workers < 1:
            raise ValueError("eval_stride and workers must be >= 1")


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

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
        self.count = int(state["count"])
        moments = state["m"], state["v"]
        if moments != (None, None) and not all(
                isinstance(x, list) and len(x) == size
                and all(type(e) in (int, float) for e in x) for x in moments):
            raise CheckpointError(f"adam moments must both be null or both be "
                                  f"lists of {size} numbers")
        self.m, self.v = (None if x is None else np.array(x, float) for x in moments)


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
    return hashlib.sha256(
        json.dumps(asdict(config), sort_keys=True).encode()).hexdigest()[:16]


def save_checkpoint(path: str, params: ParameterSet, optimizer, epoch: int,
                    config: TrainConfig, topology: NetworkTopology) -> None:
    doc = {
        "format": CHECKPOINT_TAG,
        "epoch": epoch,
        "params": params.flat.tolist(),
        "registry": {k: [v.start, v.stop] for k, v in params.registry.items()},
        "meta": asdict(params.meta),
        "frozen": sorted(params.frozen),
        "optimizer": optimizer.state_dict(),
        "rng": {"seed": config.seed, "epoch": epoch},
        "config_hash": config_hash(config),
        "topology_hash": topology.content_hash(),
    }
    write_json(path, doc)


def load_params(path: str, topology: NetworkTopology,
                force: bool = False) -> tuple[ParameterSet, dict]:
    """Returns (params, checkpoint document); refuses a checkpoint of
    another topology unless ``force``."""
    try:
        doc = read_json(path, CheckpointError)
        if doc.get("format") != CHECKPOINT_TAG:
            raise CheckpointError("not a checkpoint file")
        if not force and doc.get("topology_hash") != topology.content_hash():
            raise CheckpointMismatch("checkpoint topology hash mismatch")
        meta = decode(PlasticityMeta, doc["meta"])
        base = ParameterSet.from_topology(topology, meta)
        params = base.with_flat(np.array(doc["params"], dtype=np.float64))
        params.frozen = set(doc.get("frozen", []))
        if doc["registry"] != {k: [v.start, v.stop]
                               for k, v in params.registry.items()}:
            raise CheckpointError("checkpoint parameter registry mismatch")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    return params, doc


def load_checkpoint(path: str, topology: NetworkTopology, config: TrainConfig,
                    force: bool = False):
    """Returns (params, optimizer, next_epoch)."""
    params, doc = load_params(path, topology, force)
    try:
        if not force and doc["config_hash"] != config_hash(config):
            raise CheckpointMismatch("checkpoint config hash mismatch")
        optimizer = make_optimizer(config)
        if doc["optimizer"]["kind"] != optimizer.kind:
            raise CheckpointError("checkpoint optimizer kind mismatch")
        optimizer.load_state(doc["optimizer"], params.count)
        next_epoch = int(doc["epoch"]) + 1
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed checkpoint: {type(exc).__name__}: {exc}") from exc
    return params, optimizer, next_epoch


# ---------------------------------------------------------------------------
# gradient workers


def _padded_batch(episodes: list, topology: NetworkTopology):
    """Episodes as one lockstep batch, rows sorted by length, longest first
    (ties in episode order), zero-padded to the longest. Returns (order,
    xs, ys, mask, lengths); ``order[r]`` is the episode in row r."""
    order = sorted(range(len(episodes)), key=lambda i: -episodes[i].length)
    lengths = [episodes[i].length for i in order]
    shape = (len(episodes), lengths[0] if lengths else 0)
    xs = np.zeros(shape + (topology.n_inputs,))
    ys = np.zeros(shape + (topology.n_outputs,))
    mask = np.zeros(shape + (topology.n_outputs,))
    for row, i in enumerate(order):
        ep = episodes[i]
        xs[row, :ep.length] = ep.x
        ys[row, :ep.length] = ep.y
        mask[row, :ep.length] = 1.0 if ep.mask is None else ep.mask
    return order, xs, ys, mask, lengths


def _episode_rows(topology, params, episodes, first, loss_tag, k1, k2):
    """(losses, gradient rows) of contiguous episodes of a batch, in their
    order, from one lockstep pass; ``first`` is the batch position of the
    first of them, so a ``NumericsError`` names its row in the batch."""
    order, xs, ys, mask, lengths = _padded_batch(episodes, topology)
    try:
        losses, grads = batch_gradients(topology, params, xs, ys, mask, lengths,
                                        loss_tag, k1, k2)
    except NumericsError as exc:
        if exc.row is not None:
            exc.row = first + order[exc.row]
        raise
    rows = np.argsort(order)          # episode i sits in row rows[i]
    return [losses[r] for r in rows], grads[rows]


def _batch_gradients(topology, params, episodes, config, pool):
    """Mean loss and gradient of a batch. ``pool`` maps contiguous
    sub-batches, one per worker."""
    if pool is None:
        results = [_episode_rows(topology, params, episodes, 0, config.loss_tag,
                                 config.k1, config.k2)]
    else:
        size = -(-len(episodes) // config.workers)
        parts = [pool.submit(_episode_rows, topology, params,
                             episodes[lo:lo + size], lo, config.loss_tag,
                             config.k1, config.k2)
                 for lo in range(0, len(episodes), size)]
        results = [part.result() for part in parts]
    total_loss = 0.0
    grad = np.zeros(params.count)
    for losses, rows in results:      # episode order: deterministic reduction
        for loss, g in zip(losses, rows):
            total_loss += loss
            grad += g
    k = float(len(episodes))
    return total_loss / k, grad / k


# ---------------------------------------------------------------------------
# training


def train(topology: NetworkTopology, dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None, run_dir: str | None = None,
          resume: str | None = None, resume_force: bool = False,
          params: ParameterSet | None = None,
          pong_config: PongConfig | None = None,
          ) -> tuple[ParameterSet, list[MetricsRow]]:
    """Optimize parameters on a dataset. Returns (params, metrics history)."""
    config.validate()
    check_dims(dataset, topology)
    if eval_dataset is not None:
        check_dims(eval_dataset, topology)
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)

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
                rows += [ln for ln in fh.read().splitlines()[1:]
                         if int(ln.split(",", 1)[0]) < start_epoch]
        with atomic_write(metrics_path) as fh:
            fh.write("\n".join(rows) + "\n")

    pool = None
    if config.workers > 1:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=config.workers)
    metrics: list[MetricsRow] = []
    t_start = time.perf_counter()
    try:
        for epoch in range(start_epoch, config.epochs + 1):
            order = list(range(len(dataset)))
            Rng(derive_seed(config.seed, 0x5F1E, epoch)).shuffle(order)
            epoch_loss = 0.0
            seen = 0
            for lo in range(0, len(order), config.batch_size):
                batch = [dataset.episodes[i] for i in order[lo:lo + config.batch_size]]
                try:
                    loss, grad = _batch_gradients(topology, params, batch, config,
                                                  pool)
                except FloatingPointError as exc:
                    # parameters blew up far enough to break the forward pass
                    loss, grad = float("nan"), None
                    blame = str(exc)
                    if getattr(exc, "row", None) is not None:
                        blame = f"episode {order[lo + exc.row]}: {blame}"
                else:
                    blame = f"loss {loss}"
                if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                    if run_dir:
                        save_checkpoint(os.path.join(run_dir, "diverged.ckpt"),
                                        params, optimizer, epoch, config, topology)
                    raise DivergenceError(
                        f"{blame} at epoch {epoch}, batch {lo // config.batch_size}")
                grad = clip_global_norm(grad, config.grad_clip)
                optimizer.update(params.flat, grad)
                epoch_loss += loss * len(batch)
                seen += len(batch)
            train_loss = epoch_loss / max(1, seen)

            if epoch % config.eval_stride == 0 or epoch == config.epochs:
                eval_loss, task_metric = _evaluate(topology, params, config,
                                                   eval_dataset, pong_config)
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
            save_checkpoint(os.path.join(run_dir, "final.ckpt"), params, optimizer,
                            config.epochs, config, topology)
    finally:
        if pool is not None:
            pool.shutdown()
    return params, metrics


def pavlov_recipe(topology_seed: int = 42):
    """Documented default recipe for the conditioning task.

    Returns (topology, initial params, train config). Rate neurons,
    16 hidden at density 0.4, hebbian plasticity on the hidden block and
    on edges into the output, direct stimulus-to-output edges (the
    response must react to the previous stimulus, which is one edge away),
    logit cross-entropy, adaptive moments at 3e-3.
    """
    from .topology import build_random
    topology = build_random(16, 0.4, seed=topology_seed, model="rate",
                            n_inputs=2, n_outputs=1, plastic_rule="hebbian",
                            plastic_scope="readout", direct_io=True)
    params = ParameterSet.from_topology(
        topology, PlasticityMeta(learn_rate_init=0.3, retention_init=0.98))
    config = TrainConfig(loss_tag="bce", optimizer="adam", learning_rate=3e-3,
                         batch_size=32, epochs=80, seed=0, task="pavlov")
    return topology, params, config


def pong_recipe(topology_seed: int = 42):
    """Documented default recipe for the paddle-imitation task.

    Softmax cross-entropy over the three action neurons, truncated
    backpropagation with an 8-step stride and 16-step depth.
    """
    from .topology import build_random
    topology = build_random(16, 0.4, seed=topology_seed, model="rate",
                            n_inputs=5, n_outputs=3, plastic_rule="hebbian",
                            plastic_scope="hidden", direct_io=True)
    params = ParameterSet.from_topology(topology)
    config = TrainConfig(loss_tag="cce", optimizer="adam", learning_rate=3e-3,
                         batch_size=32, epochs=12, k1=8, k2=16, seed=0,
                         task="pong")
    return topology, params, config


def _evaluate(topology, params, config, eval_dataset, pong_config):
    eval_loss = float("nan")
    task_metric = float("nan")
    if eval_dataset is not None and len(eval_dataset):
        outputs = _predict(params, topology, eval_dataset)
        total = 0.0
        for outs, ep in zip(outputs, eval_dataset.episodes):
            total += outputs_loss(config.loss_tag, outs, ep.y, ep.mask)
        eval_loss = total / len(eval_dataset)
        if config.task == "pavlov":
            task_metric, _ = _acquisition_from_predictions(outputs, eval_dataset,
                                                           config.loss_tag)
    if config.task == "pong":
        result = eval_pong_closed_loop(params, topology,
                                       pong_config or PongConfig(),
                                       n_rollouts=config.eval_rollouts,
                                       seed=config.seed)
        task_metric = result["hit_rate"]
    return eval_loss, task_metric


# ---------------------------------------------------------------------------
# evaluations


def output_threshold(values: np.ndarray, loss_tag: str) -> np.ndarray:
    """Binarize predictions: logits cross at 0, plain values at 0.5."""
    cut = 0.0 if loss_tag == "bce" else 0.5
    return (values > cut).astype(np.float64)


def _acquisition_from_predictions(predictions, dataset: Dataset,
                                  loss_tag: str = "bce"):
    """Per-episode test-stage exact-match accuracy plus a breakdown."""
    rows = []
    correct = 0
    for idx, (pred, ep) in enumerate(zip(predictions, dataset.episodes)):
        try:
            lo, hi = (int(bound) for bound in ep.meta["stages"]["test"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"episode {idx} has no test-stage annotation") from exc
        want = ep.y[lo:hi, 0]
        got = output_threshold(np.asarray(pred)[lo:hi, 0], loss_tag)
        ok = bool(np.array_equal(got, want))
        correct += ok
        rows.append({"episode": idx, "pairings": ep.meta.get("pairings"),
                     "correct": ok,
                     "predicted": got.tolist(), "target": want.tolist()})
    accuracy = correct / max(1, len(dataset))
    return accuracy, rows


def eval_pavlov_acquisition(params: ParameterSet, topology: NetworkTopology,
                            dataset: Dataset, loss_tag: str = "bce"):
    """Fraction of episodes whose thresholded test-stage predictions match
    the ground truth at every test step. Returns (accuracy, breakdown)."""
    return _acquisition_from_predictions(_predict(params, topology, dataset),
                                         dataset, loss_tag)


def _predict(params: ParameterSet, topology: NetworkTopology,
             dataset: Dataset) -> list[np.ndarray]:
    """Each episode's outputs, rolled out from a fresh episode-start state,
    PREDICT_CHUNK episodes at a time in lockstep."""
    check_dims(dataset, topology)
    outputs = []
    for lo in range(0, len(dataset), PREDICT_CHUNK):
        chunk = dataset.episodes[lo:lo + PREDICT_CHUNK]
        order, xs, _, _, lengths = _padded_batch(chunk, topology)
        ys, _ = rollout(fresh_state(topology, params, batch=len(chunk)), xs,
                        topology, params, lengths=lengths)
        rows = {i: ys[row, :lengths[row]] for row, i in enumerate(order)}
        outputs += [rows[i] for i in range(len(chunk))]
    return outputs


def check_dims(dataset: Dataset, topology: NetworkTopology) -> None:
    """Refuse a dataset whose channels do not fit the network's terminals."""
    if (dataset.n_inputs, dataset.n_outputs) != (topology.n_inputs,
                                                 topology.n_outputs):
        raise DatasetError(
            f"dataset dims {dataset.n_inputs}x{dataset.n_outputs} do not match "
            f"topology {topology.n_inputs}x{topology.n_outputs}")


def run_pong_policy(policy, env_config: PongConfig, n_rollouts: int,
                    seed: int) -> dict:
    """Closed-loop evaluation of an action policy ``(obs, reset) -> action``."""
    hits = 0
    approaches = 0
    lengths = []
    for r in range(n_rollouts):
        env = PongEnv(env_config, Rng(derive_seed(seed, 0xE41, r)))
        first = True
        while not env.done:
            action = policy(env.observation(), first)
            first = False
            env.step(action)
        hits += env.hits
        approaches += env.approaches
        lengths.append(env.steps)
    return {"hit_rate": hits / max(1, approaches),
            "mean_episode_length": float(np.mean(lengths)),
            "approaches": approaches}


def eval_pong_closed_loop(params: ParameterSet, topology: NetworkTopology,
                          env_config: PongConfig, n_rollouts: int = 200,
                          seed: int = 0) -> dict:
    """Run the trained network in the live environment (argmax action) and
    measure hit rate against a uniform-random baseline."""
    if topology.n_inputs != 5 or topology.n_outputs != 3:
        raise ValueError("pong policy needs a 5-input, 3-output network")

    state_box = {}

    def net_policy(obs, reset):
        if reset:
            state_box["state"] = fresh_state(topology, params)
        res, state_box["state"] = step(state_box["state"], obs, topology, params)
        return action_from_index(int(np.argmax(res.y)))

    result = run_pong_policy(net_policy, env_config, n_rollouts, seed)

    baseline_rng = Rng(derive_seed(seed, 0xBA5E))

    def random_policy(obs, reset):
        return baseline_rng.randrange(-1, 1)

    baseline = run_pong_policy(random_policy, env_config, n_rollouts, seed)
    result["baseline_random"] = baseline["hit_rate"]
    return result
