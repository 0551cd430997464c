import csv
import json
import math
import os

import numpy as np
import pytest

from statenet import datasets
from statenet.datasets import (Dataset, Episode, PavlovConfig, gen_pavlov,
                               save_dataset)
from statenet.params import ParameterSet
from statenet.pong import PongConfig
from statenet.rng import Rng
from statenet.topology import build_random, save_topology
from statenet.training import (Adam, CheckpointError, DivergenceError,
                               MetricsRow, Sgd, TrainConfig,
                               clip_global_norm, eval_pavlov_acquisition,
                               eval_pong_closed_loop, load_checkpoint,
                               run_pong_policy, save_checkpoint, train,
                               _acquisition_from_predictions, pavlov_recipe)


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
    _, metrics_full = train(topo, ds, full_cfg, run_dir=run_a)
    run_b = str(tmp_path / "resumed")
    _, metrics_head = train(topo, ds, TrainConfig(epochs=3, batch_size=4,
                                                  seed=3, eval_stride=1),
                            run_dir=run_b)
    # continue from the saved epoch-3 state under the full config
    _, metrics_tail = train(topo, ds, full_cfg,
                            resume=os.path.join(run_a, "epoch0003.ckpt"))
    tail_by_epoch = {m.epoch: m for m in metrics_tail}
    for m in metrics_full:
        if m.epoch > 3:
            assert tail_by_epoch[m.epoch].train_loss == m.train_loss


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


def _dump_partway(doc, fh, **kwargs):
    fh.write(json.dumps(doc)[:50])
    raise OSError("disk full")


def _episode_record_fails(ep):
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
            (datasets, "_episode_record", _episode_record_fails)),
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


def test_dimension_mismatch_rejected():
    topo = build_random(3, 0.8, seed=2, model="rate", n_inputs=3, n_outputs=1)
    ds = gen_pavlov(PavlovConfig(episodes=4, seed=1))
    with pytest.raises(ValueError, match="do not match"):
        train(topo, ds, TrainConfig(epochs=1))


def test_worker_pool_matches_serial():
    topo, ds = small_setup(episodes=8)
    cfg1 = TrainConfig(epochs=2, batch_size=4, seed=4, eval_stride=1)
    cfg2 = TrainConfig(epochs=2, batch_size=4, seed=4, eval_stride=1, workers=2)
    p1, m1 = train(topo, ds, cfg1)
    p2, m2 = train(topo, ds, cfg2)
    assert np.array_equal(p1.flat, p2.flat)
    assert [m.train_loss for m in m1] == [m.train_loss for m in m2]


# ---------------------------------------------------------------------------
# evaluations


def test_acquisition_oracle_predictions_score_one():
    ds = gen_pavlov(PavlovConfig(episodes=40, seed=21))
    preds = [np.where(ep.y > 0.5, 5.0, -5.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds, loss_tag="bce")
    assert acc == 1.0 and all(r["correct"] for r in rows)


def test_constant_response_scores_positive_fraction():
    # a model that always salivates is right exactly on episodes whose
    # test stage expects salivation
    ds = gen_pavlov(PavlovConfig(episodes=200, seed=22))
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds, loss_tag="bce")
    frac_acquired = np.mean([ep.meta["pairings"] >= 2 for ep in ds.episodes])
    assert acc == pytest.approx(frac_acquired)


def test_constant_response_on_balanced_split_is_half():
    eps = []
    base = gen_pavlov(PavlovConfig(episodes=400, seed=23))
    pos = [ep for ep in base.episodes if ep.meta["pairings"] >= 2][:50]
    neg = [ep for ep in base.episodes if ep.meta["pairings"] < 2][:50]
    ds = Dataset(episodes=pos + neg, manifest=base.manifest)
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, _ = _acquisition_from_predictions(preds, ds, loss_tag="bce")
    assert acc == 0.5


def test_untrained_network_acquisition_smoke():
    topo, ds = small_setup(episodes=10)
    params = ParameterSet.from_topology(topo)
    acc, rows = eval_pavlov_acquisition(params, topo, ds)
    assert 0.0 <= acc <= 1.0 and len(rows) == 10


def test_pong_expert_wired_directly_scores_perfectly():
    # bypass any network: drive the paddle with the scripted expert itself
    cfg = PongConfig()
    res = run_pong_policy(
        lambda obs, reset: int(np.sign(obs[1] - obs[4])) if obs[1] != obs[4] else 0,
        cfg, n_rollouts=50, seed=3)
    assert res["hit_rate"] == 1.0
    assert res["mean_episode_length"] == cfg.max_steps


def test_pong_random_baseline_near_paddle_coverage():
    cfg = PongConfig()
    rng = Rng(5)
    res = run_pong_policy(lambda obs, reset: rng.randrange(-1, 1), cfg,
                          n_rollouts=300, seed=7)
    assert abs(res["hit_rate"] - cfg.paddle_len / cfg.height) < 0.15


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


def test_recipe_shapes():
    topo, params, cfg = pavlov_recipe()
    assert topo.n_inputs == 2 and topo.n_outputs == 1
    assert len(topo.hidden_ids) == 16
    assert params.count == len(params.flat)
    cfg.validate()
