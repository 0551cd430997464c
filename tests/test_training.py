import builtins
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from statenet import datasets
from statenet.autodiff import episode_loss, outputs_loss
from statenet.datasets import (Dataset, Episode, PavlovConfig, PongDataConfig,
                               gen_pavlov, gen_pong, save_dataset)
from statenet.dynamics import NumericsError
from statenet.engine import fresh_state, rollout, scatter_index, step
from statenet.params import ParameterSet
from statenet.pong import PongConfig, PongEnv, action_from_index
from statenet.rng import Rng, derive_seed
from statenet.topology import build_random, save_topology
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, RateParams)
from statenet.training import (PREDICT_CHUNK, Adam, CheckpointError,
                               DivergenceError, Sgd, TrainConfig,
                               clip_global_norm, eval_pavlov_acquisition,
                               eval_pong_closed_loop, load_checkpoint,
                               save_checkpoint, train,
                               _evaluate, _predict,
                               _score_block, _test_stages, lif_stdp_recipe,
                               pavlov_recipe, pong_recipe)


def small_setup(episodes=8, seed=1, plastic=True):
    ds = gen_pavlov(PavlovConfig(episodes=episodes, seed=seed))
    topo = build_random(4, 0.7, seed=2, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian" if plastic else "none",
                        direct_io=True)
    return topo, ds


def test_zero_learning_rate_changes_nothing():
    topo, ds = small_setup()
    params0 = ParameterSet.from_topology(topo)
    before = params0.flat.copy()
    cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, seed=0,
                      optimizer="sgd", eval_stride=1)
    params, metrics = train(topo, ds, cfg, params=params0)
    assert np.array_equal(params.flat, before)
    losses = [m.train_loss for m in metrics]
    # per-epoch averages differ only by shuffle-order rounding
    assert max(losses) - min(losses) < 1e-12


def test_single_episode_loss_strictly_decreases():
    ds = gen_pavlov(PavlovConfig(episodes=1, seed=0, paper_exact=True))
    topo = build_random(4, 0.8, seed=3, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian", direct_io=True)
    cfg = TrainConfig(loss_tag="bce", learning_rate=3e-3, batch_size=1,
                      epochs=10, seed=0, eval_stride=1)
    _, metrics = train(topo, ds, cfg)
    losses = [m.train_loss for m in metrics]
    assert len(losses) == 10
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_sgd_step_is_exact():
    opt = Sgd(0.1)
    flat = np.array([1.0, -2.0])
    opt.update(flat, np.array([0.5, 0.5]))
    assert np.array_equal(flat, np.array([1.0 - 0.05, -2.0 - 0.05]))


def test_adam_matches_hand_recurrence():
    opt = Adam(0.01)
    flat = np.array([0.3, -0.7])
    grads = [np.array([0.2, -0.4]), np.array([-0.1, 0.6]), np.array([0.05, 0.0])]
    # scalar recompute of the published recurrence
    m = [0.0, 0.0]
    v = [0.0, 0.0]
    expect = [0.3, -0.7]
    for k, g in enumerate(grads, start=1):
        opt.update(flat, g)
        for j in range(2):
            m[j] = 0.9 * m[j] + 0.1 * g[j]
            v[j] = 0.999 * v[j] + 0.001 * g[j] ** 2
            mh = m[j] / (1 - 0.9 ** k)
            vh = v[j] / (1 - 0.999 ** k)
            expect[j] -= 0.01 * mh / (math.sqrt(vh) + 1e-8)
        assert np.allclose(flat, expect, atol=1e-12)


def test_gradient_clip_bounds_global_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.normal(size=50) * 10.0 ** rng.integers(0, 6)
        out = clip_global_norm(g.copy(), 1.0)
        assert np.linalg.norm(out) <= 1.0 + 1e-12
        if np.linalg.norm(g) <= 1.0:
            assert np.array_equal(out, g)
        else:
            assert np.allclose(out / np.linalg.norm(out),
                               g / np.linalg.norm(g), atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    topo, ds = small_setup()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, eval_stride=1)
    params, _ = train(topo, ds, cfg)
    opt = Adam(cfg.learning_rate)
    opt.update(params.flat, np.ones(params.count) * 0.1)
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, params, opt, 2, cfg, topo)
    back_params, back_opt, next_epoch = load_checkpoint(path, topo, cfg)
    assert np.array_equal(back_params.flat, params.flat)
    assert np.array_equal(back_opt.m, opt.m)
    assert np.array_equal(back_opt.v, opt.v)
    assert back_opt.count == opt.count
    assert next_epoch == 3


def test_checkpoint_holds_only_the_keys_its_reader_uses(tmp_path):
    # a key that no reader uses would only grow every checkpoint
    topo, _ = small_setup()
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, ParameterSet.from_topology(topo), Adam(0.01), 1,
                    TrainConfig(), topo)
    with open(path) as fh:
        keys = sorted(json.load(fh))
    assert keys == ["config_hash", "epoch", "format", "optimizer", "params",
                    "registry", "topology_hash"]


@pytest.mark.parametrize("force", [False, True])
def test_a_checkpoint_with_an_unknown_key_is_refused(tmp_path, force):
    # earlier versions also wrote "meta" (the plasticity constants),
    # "frozen" and "rng"; no reader uses them, so any of them is refused,
    # whatever it holds, as every other statenet reader refuses a key
    topo, _ = small_setup()
    cfg = TrainConfig()
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, ParameterSet.from_topology(topo), Adam(0.01), 1, cfg,
                    topo)
    with open(path) as fh:
        doc = json.load(fh)
    for extra, named in [
            ({"meta": {"clip_bound": 5.0, "trace_decay": 0.8}}, "['meta']"),
            ({"frozen": []}, "['frozen']"),
            ({"rng": {"seed": 3}, "frozen": []}, "['frozen', 'rng']")]:
        with open(path, "w") as fh:
            json.dump({**doc, **extra}, fh)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, topo, cfg, force=force)
        assert str(info.value) == f"checkpoint has unknown keys {named}"


def test_checkpoint_hash_mismatch_refused(tmp_path):
    topo, ds = small_setup()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=5)
    params = ParameterSet.from_topology(topo)
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, params, Adam(0.01), 1, cfg, topo)
    other_topo = build_random(5, 0.7, seed=9, model="rate", n_inputs=2,
                              n_outputs=1)
    with pytest.raises(CheckpointError, match="topology hash"):
        load_checkpoint(path, other_topo, cfg)
    other_cfg = TrainConfig(epochs=7, batch_size=4, seed=5)
    with pytest.raises(CheckpointError, match="config hash"):
        load_checkpoint(path, topo, other_cfg)
    # force overrides the config check against the same topology
    p, _, _ = load_checkpoint(path, topo, other_cfg, force=True)
    assert np.array_equal(p.flat, params.flat)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    topo, ds = small_setup(episodes=12)
    full_cfg = TrainConfig(epochs=6, batch_size=4, seed=3, eval_stride=1,
                           checkpoint_stride=3)
    run_a = str(tmp_path / "full")
    params_full, metrics_full = train(topo, ds, full_cfg, run_dir=run_a)
    # continue from the saved epoch-3 state under the full config
    params_tail, metrics_tail = train(
        topo, ds, full_cfg, resume=os.path.join(run_a, "epoch0003.ckpt"))
    assert [m.epoch for m in metrics_tail] == [4, 5, 6]
    for m, tail in zip(metrics_full[3:], metrics_tail):
        assert tail.train_loss == m.train_loss
    assert np.array_equal(params_tail.flat, params_full.flat)


def test_resume_in_place_keeps_one_metrics_row_per_epoch(tmp_path):
    topo, ds = small_setup(episodes=8)
    cfg = TrainConfig(epochs=4, batch_size=4, seed=3, eval_stride=1,
                      checkpoint_stride=2)
    run_dir = str(tmp_path / "run")

    def rows():
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            return [r[:-1] for r in csv.reader(fh)]  # drop wall_time

    train(topo, ds, cfg, eval_dataset=ds, run_dir=run_dir)
    uninterrupted = rows()
    train(topo, ds, cfg, eval_dataset=ds, run_dir=run_dir,
          resume=os.path.join(run_dir, "epoch0002.ckpt"))
    assert rows() == uninterrupted


def test_sgd_run_resumed_in_place_is_the_uninterrupted_run(tmp_path):
    # sgd keeps no state, so its checkpoint restores only the parameters
    topo, ds = small_setup(episodes=8)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.05, epochs=3,
                      batch_size=4, seed=3, checkpoint_stride=1)
    run_dir = tmp_path / "run"

    def written():
        with open(run_dir / "metrics.csv") as fh:
            rows = [r[:-1] for r in csv.reader(fh)]  # drop wall_time
        return rows, (run_dir / "final.ckpt").read_bytes()

    train(topo, ds, cfg, eval_dataset=ds, run_dir=str(run_dir))
    uninterrupted = written()
    train(topo, ds, cfg, eval_dataset=ds, run_dir=str(run_dir),
          resume=str(run_dir / "epoch0001.ckpt"))
    assert written() == uninterrupted


def test_resume_past_the_last_epoch_keeps_its_epoch_label(tmp_path):
    # a forced resume past config.epochs runs no epoch, so final.ckpt is
    # the resumed checkpoint under its own epoch, not config.epochs
    topo, ds = small_setup(episodes=8)
    run_dir = str(tmp_path / "run")
    train(topo, ds, TrainConfig(epochs=5, batch_size=4, seed=3,
                                checkpoint_stride=1), run_dir=run_dir)
    fifth = os.path.join(run_dir, "epoch0005.ckpt")
    train(topo, ds, TrainConfig(epochs=3, batch_size=4, seed=3),
          run_dir=run_dir, resume=fifth, resume_force=True)
    with open(os.path.join(run_dir, "final.ckpt")) as fh:
        final = json.load(fh)
    with open(fifth) as fh:
        want = json.load(fh)
    assert final["epoch"] == 5
    assert final["params"] == want["params"]


class _CutFile:
    """A file being written that holds its text until it closes; then the
    file gets the first ``keep(len(text))`` characters of it and the
    process ends at once, as a crash or a short write would leave it."""

    def __init__(self, fh, keep):
        self.fh, self.keep, self.parts = fh, keep, []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        text = "".join(self.parts)
        self.fh.write(text[:self.keep(len(text))])
        self.fh.close()
        os._exit(0)


# the four moments a write can be cut at: no byte, the first byte, half of
# its bytes, or all of them with the file closed
CUTS = {"before": None, "first-byte": lambda n: 1,
        "half": lambda n: n // 2, "closed": lambda n: n}


def _cut_run(run, run_dir, k, cut):
    """Run ``run()`` in a forked child whose ``k``-th file write (from 0)
    under ``run_dir`` is cut as ``CUTS[cut]`` says. Returns the child's
    exit code: 0 if the cut ended it, 2 if it finished first, 1 if it
    raised."""
    with warnings.catch_warnings():
        # from Python 3.12 fork warns in a process with other threads (a
        # BLAS pool, say); the child runs one thread and ends in os._exit
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    code = 1
    try:
        writes = itertools.count()
        real_open = builtins.open

        def cut_open(file, mode="r", *args, **kwargs):
            if not ({"w", "a"} & set(mode)
                    and str(file).startswith(run_dir + os.sep)
                    and next(writes) == k):
                return real_open(file, mode, *args, **kwargs)
            if CUTS[cut] is None:
                os._exit(0)
            fh = real_open(file, mode, *args, **kwargs)
            return _CutFile(fh, CUTS[cut])

        builtins.open = cut_open
        run()
        code = 2
    finally:
        os._exit(code)


def test_a_run_cut_at_any_write_resumes_bitwise(tmp_path):
    # a run cut at any write to its directory, resumed from its newest
    # checkpoint, ends with the uninterrupted run's metrics.csv (but
    # wall_time) and final parameters; 10 epochs give a two-digit epoch
    topo, ds = small_setup(episodes=4)
    cfg = TrainConfig(epochs=10, batch_size=4, seed=3, checkpoint_stride=1)

    def run(run_dir, resume=None):
        train(topo, ds, cfg, run_dir=run_dir, resume=resume,
              run_record={"dataset": "d.jsonl"})

    def written(run_dir):
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            rows = [r[:-1] for r in csv.reader(fh)]  # drop wall_time
        with open(os.path.join(run_dir, "final.ckpt")) as fh:
            return rows, json.load(fh)["params"]

    run(str(tmp_path / "whole"))
    uninterrupted = written(str(tmp_path / "whole"))
    cut_dir = str(tmp_path / "cut")
    failed = []
    # train.json, the header, a row and a checkpoint per epoch, final.ckpt
    writes = 2 + 2 * cfg.epochs + 1
    for k in range(writes + 1):
        for cut in CUTS:
            shutil.rmtree(cut_dir, ignore_errors=True)
            code = _cut_run(lambda: run(cut_dir), cut_dir, k, cut)
            assert code == (2 if k == writes else 0), (k, cut, code)
            if k == writes:
                break
            names = set(os.listdir(cut_dir))
            epochs = sorted(n for n in names if re.fullmatch(
                r"epoch\d{4}\.ckpt", n))
            newest = ("final.ckpt" if "final.ckpt" in names
                      else epochs[-1] if epochs else None)
            run(cut_dir, newest and os.path.join(cut_dir, newest))
            if written(cut_dir) != uninterrupted:
                failed.append((k, cut))
    assert failed == []


def _dump_partway(doc, fh, **kwargs):
    fh.write(json.dumps(doc)[:50])
    raise OSError("disk full")


def _tables_fail(arrays):
    raise OSError("disk full")


WRITE_CFG = TrainConfig(epochs=2, batch_size=4, seed=5)


def _writers(topo, ds):
    """Each writer: (write version k of its file, make the next write raise
    after part of the file went out)."""
    params = ParameterSet.from_topology(topo)
    other = build_random(5, 0.7, seed=9, model="rate", n_inputs=2, n_outputs=1)
    return {
        "checkpoint": (lambda path, k: save_checkpoint(
            path, params.with_flat(params.flat + k), Adam(0.01), k + 1,
            WRITE_CFG, topo), (json, "dump", _dump_partway)),
        "topology": (lambda path, k: save_topology([topo, other][k], path),
                     (json, "dump", _dump_partway)),
        "dataset": (lambda path, k: save_dataset(
            Dataset(ds.episodes[k:], ds.manifest), path),
            (datasets, "_tables", _tables_fail)),
    }


@pytest.mark.parametrize("writer", ["checkpoint", "topology", "dataset"])
def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path,
                                                           monkeypatch, writer):
    topo, ds = small_setup()
    write, failure = _writers(topo, ds)[writer]
    path = str(tmp_path / writer)
    write(path, 0)
    with open(path, "rb") as fh:
        before = fh.read()

    monkeypatch.setattr(*failure)
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == [writer]
    if writer == "checkpoint":
        back, _, next_epoch = load_checkpoint(path, topo, WRITE_CFG)
        assert np.array_equal(back.flat, ParameterSet.from_topology(topo).flat)
        assert next_epoch == 2


def test_training_is_deterministic_modulo_wall_time(tmp_path):
    topo, ds = small_setup(episodes=10)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=8, eval_stride=1)
    rows = []
    for run in ("a", "b"):
        run_dir = str(tmp_path / run)
        train(topo, ds, cfg, run_dir=run_dir)
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            rows.append([r[:-1] for r in csv.reader(fh)])  # drop wall_time
    assert rows[0] == rows[1]


def test_divergence_guard_aborts_with_checkpoint(tmp_path):
    # bounded activations make genuine numeric blow-ups hard to reach, so
    # drive the loss over the guard via the squared-error magnitude
    topo, _ = small_setup()
    huge = Episode(x=np.ones((3, 2)), y=np.full((3, 1), 1e4))
    ds = Dataset(episodes=[huge], manifest={"format": "snn-episodes/1",
                                            "generator": "t", "seed": 0,
                                            "dims": {"inputs": 2, "outputs": 1},
                                            "episodes": 1, "params": {}})
    cfg = TrainConfig(loss_tag="mse", epochs=2, batch_size=1, seed=0)
    run_dir = str(tmp_path / "run")
    with pytest.raises(DivergenceError):
        train(topo, ds, cfg, run_dir=run_dir)
    assert os.path.exists(os.path.join(run_dir, "diverged.ckpt"))


@pytest.mark.parametrize("huge", [0, 3, 5])
def test_divergence_names_the_largest_loss_episode(tmp_path, huge):
    # a finite loss over the guard names the batch's largest-loss episode
    # by its dataset index, with that episode's own loss
    topo, _ = small_setup()
    rng = Rng(7)
    episodes = []
    for i in range(6):
        x = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)]
                      for _ in range(2 + i % 3)])
        y = np.full((len(x), 1), 1e4 if i == huge else 0.5)
        episodes.append(Episode(x=x, y=y))
    ds = Dataset(episodes, {"dims": {"inputs": 2, "outputs": 1}})
    cfg = TrainConfig(loss_tag="mse", epochs=1, batch_size=6, seed=0)
    params = ParameterSet.from_topology(topo)
    own = episode_loss(topo, params, episodes[huge].x,
                                episodes[huge].y, None, "mse")
    with pytest.raises(DivergenceError) as info:
        train(topo, ds, cfg, run_dir=str(tmp_path / "run"), params=params)
    assert str(info.value) == f"episode {huge}: loss {own} at epoch 1, batch 0"
    assert os.path.exists(tmp_path / "run" / "diverged.ckpt")


def inf_gradient(monkeypatch):
    """Make every batch's gradient hold one inf entry, its loss finite."""
    from statenet import training
    real = training._batch_gradients

    def bad(*args):
        loss, grad = real(*args)
        grad[3] = np.inf
        return loss, grad

    monkeypatch.setattr(training, "_batch_gradients", bad)


def test_non_finite_gradient_is_divergence(monkeypatch, tmp_path):
    # global-norm clipping scales an inf gradient by bound / inf = 0, and
    # inf * 0 is NaN: the update must never be applied
    topo, params, config = pavlov_recipe()
    ds = gen_pavlov(PavlovConfig(episodes=40, seed=1, split="train"))
    inf_gradient(monkeypatch)
    run_dir = str(tmp_path / "run")
    before = params.flat.copy()
    with pytest.raises(DivergenceError, match=(
            r"^non-finite gradient \(loss [0-9.]+\) at epoch 1, batch 0$")):
        train(topo, ds, dataclasses.replace(config, epochs=1), run_dir=run_dir,
              params=params)
    assert np.array_equal(params.flat, before)
    assert not os.path.exists(os.path.join(run_dir, "final.ckpt"))
    saved, _, _ = load_checkpoint(os.path.join(run_dir, "diverged.ckpt"), topo,
                                  dataclasses.replace(config, epochs=1))
    assert np.array_equal(saved.flat, before)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_loss_is_divergence_without_a_numpy_warning():
    # (v - y) ** 2 overflows for a target of 1e300; the loss is then
    # infinite, and the non-finite-loss check, not numpy, reports it
    topo, ds = small_setup(episodes=4)
    ds.episodes[1].y[...] = 1e300
    with pytest.raises(DivergenceError, match=(
            r"^episode 1: non-finite loss in an episode of length \d+ "
            r"at epoch 1, batch \d$")):
        train(topo, ds, TrainConfig(loss_tag="mse", epochs=1, batch_size=2))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_held_out_loss_names_its_episode():
    # the held-out loss overflowed with numpy's warning; without one it was
    # recorded as nan and the run went on
    topo, ds = small_setup(episodes=4)
    _, held = small_setup(episodes=4)
    held.episodes[1].y[...] = 1e300
    with pytest.raises(NumericsError, match=(
            r"^episode 1: non-finite loss in an episode of length 8$")):
        train(topo, ds, TrainConfig(loss_tag="mse", epochs=1, batch_size=2),
              eval_dataset=held)


def test_batch_loss_adds_left_to_right(monkeypatch):
    # from Python 3.12 the builtin sum adds floats with compensation, as
    # math.fsum does: 1e16 + 1.0 - 1e16 would be 1.0, not 0.0 as before
    from statenet import training
    topo, ds = small_setup(episodes=3)

    def batch(topology, params, episodes, ids, config):
        return [1e16, 1.0, -1e16], np.zeros(params.count)

    monkeypatch.setattr(training, "_batch_gradients", batch)
    monkeypatch.setattr(training, "sum", math.fsum, raising=False)
    _, metrics = train(topo, ds, TrainConfig(epochs=1, batch_size=3))
    assert metrics[0].train_loss == 0.0


def test_dimension_mismatch_rejected():
    topo = build_random(3, 0.8, seed=2, model="rate", n_inputs=3, n_outputs=1)
    ds = gen_pavlov(PavlovConfig(episodes=4, seed=1))
    with pytest.raises(ValueError, match="do not match"):
        train(topo, ds, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# evaluations


def _acquisition_from_predictions(preds, ds):
    """Acquisition of hand-made predictions, one episode per scored block."""
    stages = _test_stages(ds)
    rows = [_score_block([i], pred[None], ep.y[None], stages, ds.episodes,
                         "bce")[0]
            for i, (pred, ep) in enumerate(zip(preds, ds.episodes))]
    return sum(row["correct"] for row in rows) / len(ds), rows


def test_acquisition_oracle_predictions_score_one():
    ds = gen_pavlov(PavlovConfig(episodes=40, seed=21))
    preds = [np.where(ep.y > 0.5, 5.0, -5.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds)
    assert acc == 1.0 and all(r["correct"] for r in rows)


def test_constant_response_scores_positive_fraction():
    # a model that always salivates is right exactly on episodes whose
    # test stage expects salivation
    ds = gen_pavlov(PavlovConfig(episodes=200, seed=22))
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds)
    frac_acquired = np.mean([ep.meta["pairings"] >= 2 for ep in ds.episodes])
    assert acc == pytest.approx(frac_acquired)


def test_constant_response_on_balanced_split_is_half():
    eps = []
    base = gen_pavlov(PavlovConfig(episodes=400, seed=23))
    pos = [ep for ep in base.episodes if ep.meta["pairings"] >= 2][:50]
    neg = [ep for ep in base.episodes if ep.meta["pairings"] < 2][:50]
    ds = Dataset(episodes=pos + neg, manifest=base.manifest)
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, _ = _acquisition_from_predictions(preds, ds)
    assert acc == 0.5


BOUNDS = " must be [lo, hi] with 0 <= lo < hi <= 5, got"


@pytest.mark.parametrize("stage,message", [
    ([0, 0], f"{BOUNDS} [0, 0]"), ([3, 2], f"{BOUNDS} [3, 2]"),
    ([4, 6], f"{BOUNDS} [4, 6]"), ([-1, 5], f"{BOUNDS} [-1, 5]"),
    ([4.0, 5], f"{BOUNDS} [4.0, 5]"), ([True, 5], f"{BOUNDS} [True, 5]"),
    ([4, 5, 5], ": ValueError: too many values to unpack (expected 2)"),
    (None, ": TypeError: cannot unpack non-iterable NoneType object"),
])
def test_acquisition_refuses_an_empty_or_out_of_range_test_stage(stage,
                                                                 message):
    # an empty test stage would compare two empty slices and score as correct
    ds = gen_pavlov(PavlovConfig(episodes=3, paper_exact=True))
    ds.episodes[1].meta["stages"]["test"] = stage
    with pytest.raises(ValueError) as exc:
        _test_stages(ds)
    assert str(exc.value) == "episode 1 test stage" + message


def test_untrained_network_acquisition_smoke():
    topo, ds = small_setup(episodes=10)
    params = ParameterSet.from_topology(topo)
    acc, rows = eval_pavlov_acquisition(params, topo, ds)
    assert 0.0 <= acc <= 1.0 and len(rows) == 10


def test_pong_expert_wired_directly_scores_perfectly():
    # bypass any network: drive the paddle with the scripted expert itself
    cfg = PongConfig()
    for r in range(50):
        env = PongEnv(cfg, Rng(derive_seed(3, 0xE41, r)))
        while not env.done:
            obs = env.observation()
            env.step(int(np.sign(obs[1] - obs[4])))
        assert not env.missed and env.hits > 0
        assert env.steps == cfg.max_steps
        with pytest.raises(RuntimeError, match="^episode already finished$"):
            env.step(0)


def test_pong_random_baseline_near_paddle_coverage():
    cfg = PongConfig()
    rng = Rng(5)
    hits = approaches = 0
    for r in range(300):
        env = PongEnv(cfg, Rng(derive_seed(7, 0xE41, r)))
        while not env.done:
            env.step(rng.randrange(-1, 1))
        hits += env.hits
        approaches += env.approaches
    assert abs(hits / approaches - cfg.paddle_len / cfg.height) < 0.15


def test_pong_zero_weight_network_runs():
    topo = build_random(4, 0.5, seed=11, model="rate", n_inputs=5, n_outputs=3)
    params = ParameterSet.from_topology(topo)
    params.flat[:] = 0.0
    res = eval_pong_closed_loop(params, topo, PongConfig(), n_rollouts=20,
                                seed=2)
    assert 0.0 <= res["hit_rate"] <= 1.0
    assert "baseline_random" in res


def test_pong_dim_mismatch_rejected():
    topo = build_random(3, 0.5, seed=1, model="rate", n_inputs=2, n_outputs=1)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="5-input"):
        eval_pong_closed_loop(params, topo, PongConfig(), n_rollouts=1)


@pytest.mark.parametrize("n_rollouts", [0, -3])
def test_pong_needs_at_least_one_rollout(n_rollouts):
    topo = build_random(3, 0.5, seed=1, model="rate", n_inputs=5, n_outputs=3)
    params = ParameterSet.from_topology(topo)
    with pytest.raises(ValueError, match="n_rollouts must be >= 1"):
        eval_pong_closed_loop(params, topo, PongConfig(), n_rollouts=n_rollouts)
    with pytest.raises(ValueError, match="eval_rollouts"):
        TrainConfig(eval_rollouts=n_rollouts).validate()


def _pong_oracle(params, topo, env_config, n_rollouts, seed):
    """The rollout-by-rollout evaluation that the lockstep loop replaces: a
    fresh one-episode state per rollout, stepped through ``step``, then the
    random baseline on the same starts, one action stream in rollout
    order. Returns (result, episode lengths)."""
    baseline_rng = Rng(derive_seed(seed, 0xBA5E))
    net, baseline = [], []
    for r in range(n_rollouts):
        env = PongEnv(env_config, Rng(derive_seed(seed, 0xE41, r)))
        state = fresh_state(topo, params)
        while not env.done:
            res, state = step(state, env.observation(), topo, params)
            env.step(action_from_index(int(np.argmax(res.y))))
        net.append(env)
        env = PongEnv(env_config, Rng(derive_seed(seed, 0xE41, r)))
        while not env.done:
            env.step(baseline_rng.randrange(-1, 1))
        baseline.append(env)

    def hit_rate(envs):
        return (sum(env.hits for env in envs)
                / max(1, sum(env.approaches for env in envs)))

    lengths = [env.steps for env in net]
    return {"hit_rate": hit_rate(net),
            "mean_episode_length": float(np.mean(lengths)),
            "approaches": sum(env.approaches for env in net),
            "baseline_random": hit_rate(baseline)}, lengths


@pytest.fixture(scope="module")
def pong_nets():
    """5-in/3-out nets: the pong recipe after one epoch, all weights zero,
    and LIF cells with STDP that do spike on pong stimuli."""
    data = gen_pong(PongDataConfig(episodes=32, seed=3))
    topo, params0, config = pong_recipe()
    trained, _ = train(topo, data, TrainConfig(loss_tag="cce", epochs=1,
                                               k1=8, k2=16), params=params0)
    zero_topo = build_random(4, 0.5, seed=11, model="rate", n_inputs=5,
                             n_outputs=3)
    zero = ParameterSet.from_topology(zero_topo)
    zero.flat[:] = 0.0
    lif_topo = build_random(6, 0.6, seed=5, model="lif", n_inputs=5,
                            n_outputs=3, plastic_rule="stdp",
                            plastic_scope="readout", direct_io=True,
                            lif_params=LifParams(threshold=0.15))
    lif = ParameterSet.from_topology(lif_topo)
    _, end = rollout(fresh_state(lif_topo, lif), data.episodes[0].x, lif_topo,
                     lif)
    assert end.plastic.trace[lif_topo.hidden_ids].any()
    return {"trained": (topo, trained), "zero": (zero_topo, zero),
            "lif-stdp": (lif_topo, lif)}


@pytest.mark.parametrize("n_rollouts", [1, 7, 20])
@pytest.mark.parametrize("net", ["trained", "zero", "lif-stdp"])
def test_pong_lockstep_matches_rollout_by_rollout(pong_nets, net, n_rollouts):
    topo, params = pong_nets[net]
    for seed in (1, 2, 3):
        want, lengths = _pong_oracle(params, topo, PongConfig(), n_rollouts,
                                     seed)
        got = eval_pong_closed_loop(params, topo, PongConfig(),
                                    n_rollouts=n_rollouts, seed=seed)
        assert got == want, (net, n_rollouts, seed)
    if n_rollouts > 1:
        assert len(set(lengths)) > 1, "no row was dropped before the last"


def test_pong_lockstep_steps_once_per_step_of_the_longest_rollout(
        monkeypatch, pong_nets):
    # one training.step call per lockstep step, never one per rollout step
    from statenet import engine, training
    assert training.step is engine.step
    topo, params = pong_nets["trained"]
    _, lengths = _pong_oracle(params, topo, PongConfig(), 20, 4)
    calls = []

    def counting_step(*args, **kwargs):
        calls.append(1)
        return engine.step(*args, **kwargs)

    monkeypatch.setattr(training, "step", counting_step)
    eval_pong_closed_loop(params, topo, PongConfig(), n_rollouts=20, seed=4)
    assert len(calls) == max(lengths) < sum(lengths)


def test_pong_lockstep_builds_offsets_once_per_live_width(monkeypatch,
                                                         pong_nets):
    # the gather's offsets are built when the loop starts and each time
    # it drops finished rollouts, never per step
    from statenet import engine, training
    topo, params = pong_nets["trained"]
    _, lengths = _pong_oracle(params, topo, PongConfig(), 20, 4)
    live = [sum(n > t for n in lengths) for t in range(max(lengths))]
    widths = []

    def counting(idx, cols):
        widths.append(cols)
        return scatter_index(idx, cols)

    monkeypatch.setattr(engine, "scatter_index", counting)
    eval_pong_closed_loop(params, topo, PongConfig(), n_rollouts=20, seed=4)
    assert widths == sorted(set(live), reverse=True)
    assert len(widths) < len(live)


def test_pong_training_plays_no_random_baseline(monkeypatch, tmp_path):
    # only eval_pong_closed_loop, whose callers print it, plays the random
    # baseline; training never calls it, and a run's task metric is the
    # net's hit rate alone
    from statenet import training
    data = gen_pong(PongDataConfig(episodes=8, seed=3,
                                   env=PongConfig(max_steps=40)))
    topo, params, config = pong_recipe()
    config = TrainConfig(loss_tag="cce", epochs=2, batch_size=4, k1=8, k2=16,
                         task="pong", eval_rollouts=6, seed=5)

    def refused(*args, **kwargs):
        raise AssertionError("training played the random baseline")

    monkeypatch.setattr(training, "eval_pong_closed_loop", refused)
    trained, history = train(topo, data, config, params=params.copy(),
                             run_dir=str(tmp_path))
    monkeypatch.undo()
    want = eval_pong_closed_loop(trained, topo, PongConfig(max_steps=40),
                                 n_rollouts=6, seed=5)
    assert "baseline_random" in want
    assert history[-1].task_metric == want["hit_rate"]
    with open(tmp_path / "metrics.csv", encoding="utf-8") as fh:
        rows = [ln.rsplit(",", 1)[0] for ln in fh.read().splitlines()]
    assert rows[0] == "epoch,train_loss,eval_loss,task_metric"
    assert rows[2] == (f"2,{history[-1].train_loss!r},nan,"
                       f"{want['hit_rate']!r}")


def outputs_of(ids, outs, ys, mask, lengths):
    """A ``_predict`` scorer: each row's outputs up to its length."""
    return [outs[row, :n] for row, n in enumerate(lengths)]


@pytest.mark.parametrize("loss_tag", ["mse", "bce", "cce"])
def test_heldout_loss_is_the_per_episode_sum(loss_tag):
    # ragged episodes over more than one lockstep chunk; pavlov's carry masks
    if loss_tag == "cce":
        ds = gen_pong(PongDataConfig(episodes=PREDICT_CHUNK + 5, seed=2))
        topo = build_random(3, 0.5, seed=1, model="rate", n_inputs=5,
                            n_outputs=3, plastic_rule="hebbian")
    else:
        topo, ds = small_setup(episodes=PREDICT_CHUNK + 5)
    params = ParameterSet.from_topology(topo)
    # no task, so no test stage is scored
    eval_loss, _ = _evaluate(topo, params, TrainConfig(loss_tag=loss_tag), ds,
                             None, None)
    outputs = _predict(params, topo, ds, outputs_of)
    total = 0.0
    for outs, ep in zip(outputs, ds.episodes):
        total += outputs_loss(loss_tag, outs, ep.y, ep.mask)
    assert type(eval_loss) is float and eval_loss == total / len(ds)


@pytest.mark.parametrize("chunk", sorted({1, 7, 64, PREDICT_CHUNK}))
@pytest.mark.parametrize("model,loss_tag", [("rate", "bce"), ("lif", "mse")])
def test_predict_rows_are_each_episode_run_alone(monkeypatch, chunk, model,
                                                 loss_tag):
    # 160 ragged episodes, many of one length, rolled out and scored in
    # sorted blocks that cross episode order; each row must be its episode
    # alone, and each breakdown row its lone rollout thresholded
    from statenet import training
    monkeypatch.setattr(training, "PREDICT_CHUNK", chunk)
    ds = gen_pavlov(PavlovConfig(episodes=160, seed=7))
    lengths = [ep.length for ep in ds.episodes]
    assert len(set(lengths)) > 3 and len(set(lengths)) < len(lengths) // 4
    rule = "hebbian" if model == "rate" else "stdp"
    topo = build_random(6, 0.6, seed=3, model=model, n_inputs=2, n_outputs=1,
                        plastic_rule=rule, plastic_scope="readout",
                        direct_io=True, lif_params=LifParams(threshold=0.15))
    params = ParameterSet.from_topology(topo)
    rng = np.random.default_rng(1)
    params = params.with_flat(params.flat
                              + 0.3 * rng.standard_normal(params.count))

    def score(ids, outs, ys, mask, lengths):
        return zip(outputs_of(ids, outs, ys, mask, lengths),
                   outputs_loss(loss_tag, outs, ys, mask(), lengths).tolist())

    outputs, losses = zip(*_predict(params, topo, ds, score))
    accuracy, rows = eval_pavlov_acquisition(params, topo, ds, loss_tag)
    assert len(outputs) == len(losses) == len(rows) == len(ds)
    cut = 0.0 if loss_tag == "bce" else 0.5
    want_rows = []
    for idx, (outs, loss, ep) in enumerate(zip(outputs, losses, ds.episodes)):
        alone, _ = rollout(fresh_state(topo, params), ep.x, topo, params)
        assert np.array_equal(outs, alone)
        assert loss == outputs_loss(loss_tag, alone, ep.y, ep.mask)
        lo, hi = ep.meta["stages"]["test"]
        predicted = [1.0 if v > cut else 0.0 for v in alone[lo:hi, 0]]
        target = ep.y[lo:hi, 0].tolist()
        want_rows.append({"episode": idx, "pairings": ep.meta["pairings"],
                          "correct": predicted == target,
                          "predicted": predicted, "target": target})
    assert rows == want_rows
    assert accuracy == sum(r["correct"] for r in want_rows) / len(ds)
    assert 0 < accuracy < 1


def test_predict_accepts_an_empty_set():
    topo, ds = small_setup()
    empty = Dataset(episodes=[], manifest=ds.manifest)
    params = ParameterSet.from_topology(topo)
    assert _predict(params, topo, empty, outputs_of) == []
    with pytest.raises(ValueError, match="evaluation set has no episodes"):
        eval_pavlov_acquisition(params, topo, empty)


def test_recipe_shapes():
    for recipe, dims in [(pavlov_recipe, (2, 1)), (pong_recipe, (5, 3)),
                         (lif_stdp_recipe, (2, 1))]:
        topo, params, cfg = recipe()
        assert (topo.n_inputs, topo.n_outputs) == dims
        assert len(topo.hidden_ids) == 16
        assert params.count == len(params.flat)
        cfg.validate()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("bad", [0, 2, 3])
def test_divergence_names_the_exploding_episode(bad):
    # both inputs drive the output, through +2 and -2: a stimulus of 1e308
    # on both overflows the drive to inf - inf = NaN one step later
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "input", "rate", RateParams()),
               NeuronSpec(2, "output", "rate", RateParams())]
    topo = NetworkTopology(neurons, [EdgeSpec(0, 2, 2.0), EdgeSpec(1, 2, -2.0)])
    rng = Rng(5)
    episodes = []
    for i in range(4):
        # lengths differ, so the lockstep rows are not in episode order
        x = np.array([[rng.uniform(0, 1), rng.uniform(0, 1)]
                      for _ in range(3 + (i * 3) % 4)])
        if i == bad:
            x[1] = 1e308
        episodes.append(Episode(x=x, y=np.zeros((len(x), 1))))
    ds = Dataset(episodes, {"dims": {"inputs": 2, "outputs": 1}})
    config = TrainConfig(loss_tag="mse", batch_size=4, epochs=1)
    with pytest.raises(DivergenceError, match=(
            rf"^episode {bad}: non-finite value at t=3, neuron 2 "
            rf"at epoch 1, batch 0$")):
        train(topo, ds, config)


@pytest.mark.parametrize("k1,k2", [(None, None), (2, 3)])
def test_benchmark_bindings(monkeypatch, k1, k2):
    # perfbench/run.py times each batch at its one training.clip_global_norm
    # call, and its tracer counts steps through engine.step in every module
    # that binds it and swept steps as len() of backward's first argument
    from statenet import autodiff, engine, training
    assert training.step is engine.step
    topo, ds = small_setup(episodes=10)
    clips, swept = [], []
    clip, sweep = training.clip_global_norm, autodiff.backward

    def counting_clip(grad, bound):
        clips.append(1)
        return clip(grad, bound)

    def counting_backward(tape, *args, **kwargs):
        swept.append(len(tape))
        return sweep(tape, *args, **kwargs)

    monkeypatch.setattr(training, "clip_global_norm", counting_clip)
    monkeypatch.setattr(autodiff, "backward", counting_backward)
    train(topo, ds, TrainConfig(epochs=2, batch_size=4, k1=k1, k2=k2))
    assert len(clips) == 2 * 3
    lengths = [ep.length for ep in ds.episodes]
    # each window sweeps min(k2, end) steps of its episode
    per_epoch = sum(min(k2 or T, end) for T in lengths
                    for end in [*range(k1 or T, T, k1 or T), T])
    assert sum(swept) == 2 * per_epoch


def test_benchmark_reads_the_stdp_columns():
    # perfbench/run.py's spiking probe reads the STDP weights of its
    # lif-stdp net as state.plastic.weights[topo.stdp_pos] and expects them
    # to move during a rollout
    topo, params, _ = lif_stdp_recipe()
    stdp = [k for k, e in enumerate(topo.edges) if e.rule == "stdp"]
    assert topo.stdp_pos.tolist() == stdp and len(stdp) < topo.n_edges
    data = gen_pavlov(PavlovConfig(episodes=4, seed=1, split="train"))
    moved = []
    for ep in data.episodes:
        start = fresh_state(topo, params)
        _, end = rollout(start, ep.x, topo, params)
        moved.append(np.abs(end.plastic.weights[topo.stdp_pos]
                            - start.plastic.weights[topo.stdp_pos]).max())
    assert max(moved) > 0.0
