import csv
import json
import math
import os

import numpy as np
import pytest

from statenet import datasets
from statenet.autodiff import outputs_loss
from statenet.datasets import (Dataset, Episode, PavlovConfig, PongDataConfig,
                               gen_pavlov, gen_pong, save_dataset)
from statenet.engine import fresh_state, rollout, step
from statenet.params import ParameterSet
from statenet.pong import PongConfig, action_from_index
from statenet.rng import Rng, derive_seed
from statenet.topology import build_random, save_topology
from statenet.topology import (EdgeSpec, LifParams, NetworkTopology,
                               NeuronSpec, RateParams)
from statenet.training import (PREDICT_CHUNK, Adam, CheckpointError,
                               DivergenceError, MetricsRow, Sgd, TrainConfig,
                               clip_global_norm, eval_pavlov_acquisition,
                               eval_pong_closed_loop, load_checkpoint,
                               run_pong_policy, save_checkpoint, train,
                               _acquisition_from_predictions, _evaluate,
                               _predict, _test_stages, pavlov_recipe,
                               pong_recipe)


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
    assert keys == ["config_hash", "epoch", "format", "meta", "optimizer",
                    "params", "registry", "topology_hash"]


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


# keys that earlier versions wrote and no reader used
EARLIER_KEYS = {"frozen": [], "rng": {"seed": 3, "epoch": 3}}


@pytest.mark.parametrize("extra", [{}, EARLIER_KEYS],
                         ids=["as-written", "earlier-version"])
def test_resume_reproduces_uninterrupted_run(tmp_path, extra):
    topo, ds = small_setup(episodes=12)
    full_cfg = TrainConfig(epochs=6, batch_size=4, seed=3, eval_stride=1,
                           checkpoint_stride=3)
    run_a = str(tmp_path / "full")
    params_full, metrics_full = train(topo, ds, full_cfg, run_dir=run_a)
    with open(os.path.join(run_a, "epoch0003.ckpt")) as fh:
        doc = {**json.load(fh), **extra}
    ckpt = str(tmp_path / "epoch0003.ckpt")
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    # continue from the saved epoch-3 state under the full config
    params_tail, metrics_tail = train(topo, ds, full_cfg, resume=ckpt)
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


# ---------------------------------------------------------------------------
# evaluations


def test_acquisition_oracle_predictions_score_one():
    ds = gen_pavlov(PavlovConfig(episodes=40, seed=21))
    preds = [np.where(ep.y > 0.5, 5.0, -5.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds, _test_stages(ds),
                                              loss_tag="bce")
    assert acc == 1.0 and all(r["correct"] for r in rows)


def test_constant_response_scores_positive_fraction():
    # a model that always salivates is right exactly on episodes whose
    # test stage expects salivation
    ds = gen_pavlov(PavlovConfig(episodes=200, seed=22))
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, rows = _acquisition_from_predictions(preds, ds, _test_stages(ds),
                                              loss_tag="bce")
    frac_acquired = np.mean([ep.meta["pairings"] >= 2 for ep in ds.episodes])
    assert acc == pytest.approx(frac_acquired)


def test_constant_response_on_balanced_split_is_half():
    eps = []
    base = gen_pavlov(PavlovConfig(episodes=400, seed=23))
    pos = [ep for ep in base.episodes if ep.meta["pairings"] >= 2][:50]
    neg = [ep for ep in base.episodes if ep.meta["pairings"] < 2][:50]
    ds = Dataset(episodes=pos + neg, manifest=base.manifest)
    preds = [np.full_like(ep.y, 3.0) for ep in ds.episodes]
    acc, _ = _acquisition_from_predictions(preds, ds, _test_stages(ds),
                                           loss_tag="bce")
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
    fresh one-episode state per rollout, stepped through ``step``, and the
    same random baseline. Returns (result, episode lengths)."""
    box, lengths = {}, []

    def net_policy(obs, reset):
        if reset:
            box["state"] = fresh_state(topo, params)
            lengths.append(0)
        res, box["state"] = step(box["state"], obs, topo, params)
        lengths[-1] += 1
        return action_from_index(int(np.argmax(res.y)))

    result = run_pong_policy(net_policy, env_config, n_rollouts, seed)
    baseline_rng = Rng(derive_seed(seed, 0xBA5E))
    baseline = run_pong_policy(lambda obs, reset: baseline_rng.randrange(-1, 1),
                               env_config, n_rollouts, seed)
    result["baseline_random"] = baseline["hit_rate"]
    return result, lengths


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
    outputs, _ = _predict(params, topo, ds)
    total = 0.0
    for outs, ep in zip(outputs, ds.episodes):
        total += outputs_loss(loss_tag, outs, ep.y, ep.mask)
    assert type(eval_loss) is float and eval_loss == total / len(ds)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("model,loss_tag", [("rate", "bce"), ("lif", "mse")])
def test_predict_rows_are_each_episode_run_alone(monkeypatch, chunk, model,
                                                 loss_tag):
    # 160 ragged episodes, many of one length, rolled out in sorted blocks
    # that cross episode order; each row must be its episode alone
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
    outputs, losses = _predict(params, topo, ds, loss_tag)
    assert len(outputs) == len(losses) == len(ds)
    for outs, loss, ep in zip(outputs, losses, ds.episodes):
        alone, _ = rollout(fresh_state(topo, params), ep.x, topo, params)
        assert np.array_equal(outs, alone)
        assert loss == outputs_loss(loss_tag, alone, ep.y, ep.mask)


def test_predict_accepts_an_empty_set():
    topo, ds = small_setup()
    empty = Dataset(episodes=[], manifest=ds.manifest)
    params = ParameterSet.from_topology(topo)
    assert _predict(params, topo, empty, "bce") == ([], [])
    with pytest.raises(ValueError, match="evaluation set has no episodes"):
        eval_pavlov_acquisition(params, topo, empty)


def test_recipe_shapes():
    topo, params, cfg = pavlov_recipe()
    assert topo.n_inputs == 2 and topo.n_outputs == 1
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


def test_benchmark_reads_the_stdp_columns(monkeypatch):
    # perfbench/run.py's spiking probe reads the STDP weights of its
    # lif-stdp net as state.plastic.weights[topo.stdp_pos] and expects them
    # to move during a rollout
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    topo, params, _ = workloads.lif_stdp_recipe()
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
