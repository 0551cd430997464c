import dataclasses
import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import statenet
from statenet.cli import main
from statenet.datasets import PavlovConfig, gen_pavlov, load_dataset, save_dataset
from statenet.pong import PongConfig
from statenet.topology import build_random, load_topology, save_topology
from statenet.training import (TrainConfig, eval_pong_closed_loop, load_params,
                               train)

PAPER_X = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
PAPER_Y = [[1.0], [0.0], [1.0], [1.0], [1.0]]


@pytest.fixture
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "snn-topology/1" in result.output


def test_gen_pavlov_paper_exact(runner, tmp_path):
    out = str(tmp_path / "d.jsonl")
    result = runner.invoke(main, ["gen", "pavlov", "--episodes", "1",
                                  "--seed", "1", "--paper-exact", "--out", out])
    assert result.exit_code == 0, result.output
    ds = load_dataset(out)
    assert len(ds) == 1
    assert ds.episodes[0].x.tolist() == PAPER_X
    assert ds.episodes[0].y.tolist() == PAPER_Y


def test_gen_pong_is_reproducible(runner, tmp_path):
    digests = []
    for name in ("a.jsonl", "b.jsonl"):
        out = str(tmp_path / name)
        result = runner.invoke(main, ["gen", "pong", "--episodes", "10",
                                      "--seed", "1", "--out", out])
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256(Path(out).read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_gen_missing_out_is_usage_error(runner):
    result = runner.invoke(main, ["gen", "pavlov"])
    assert result.exit_code == 2


def test_gen_bad_config_exits_2(runner, tmp_path):
    out = str(tmp_path / "d.jsonl")
    result = runner.invoke(main, ["gen", "pavlov", "--noise", "0.9",
                                  "--out", out])
    assert result.exit_code == 2


def test_topo_random_validate_show(runner, tmp_path):
    path = str(tmp_path / "net.json")
    result = runner.invoke(main, ["topo", "random", "--hidden", "4",
                                  "--inputs", "2", "--outputs", "1",
                                  "--plastic", "hebbian", "--out", path])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["topo", "validate", path])
    assert result.exit_code == 0 and "ok:" in result.output
    result = runner.invoke(main, ["topo", "show", path])
    assert result.exit_code == 0 and "hash:" in result.output


def test_topo_validate_rejects_bad_file(runner, tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"format": "snn-topology/1", "neurons": [], "edges": []}, fh)
    result = runner.invoke(main, ["topo", "validate", path])
    assert result.exit_code == 2


def _make_training_inputs(runner, tmp_path):
    topo_path = str(tmp_path / "net.json")
    data_path = str(tmp_path / "train.jsonl")
    assert runner.invoke(main, ["topo", "random", "--hidden", "3",
                                "--inputs", "2", "--outputs", "1",
                                "--out", topo_path]).exit_code == 0
    assert runner.invoke(main, ["gen", "pavlov", "--episodes", "6",
                                "--seed", "1", "--out",
                                data_path]).exit_code == 0
    return topo_path, data_path


def test_train_writes_run_directory(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run_dir,
                                  "--epochs", "2", "--batch", "3"])
    assert result.exit_code == 0, result.output
    metrics = Path(run_dir, "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("epoch,")
    assert len(metrics) == 3
    resolved = json.loads(Path(run_dir, "train.json").read_text())
    assert resolved["config"]["epochs"] == 2
    assert os.path.exists(os.path.join(run_dir, "final.ckpt"))


def test_train_resume_continues_epochs(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["train", "--topology", topo_path,
                                "--dataset", data_path, "--out-dir", run_dir,
                                "--epochs", "2", "--batch", "3"]).exit_code == 0
    run2 = str(tmp_path / "run2")
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run2,
                                  "--epochs", "4", "--batch", "3", "--resume",
                                  os.path.join(run_dir, "final.ckpt")])
    # resume carries a different epoch budget: hash check must complain
    assert result.exit_code == 2
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run2,
                                  "--epochs", "2", "--batch", "3", "--resume",
                                  os.path.join(run_dir, "final.ckpt")])
    assert result.exit_code == 0, result.output


def test_train_non_finite_gradient_exits_4(runner, tmp_path, monkeypatch):
    # a finite loss with one inf gradient entry, as in every batch
    from statenet import training
    real = training._batch_gradients

    def bad(*args):
        loss, grad = real(*args)
        grad[3] = np.inf
        return loss, grad

    monkeypatch.setattr(training, "_batch_gradients", bad)
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run_dir,
                                  "--epochs", "1", "--batch", "3"])
    assert result.exit_code == 4
    line, = result.output.splitlines()
    assert line.startswith("error: non-finite gradient (loss ")
    assert line.endswith(") at epoch 1, batch 0")
    assert os.path.exists(os.path.join(run_dir, "diverged.ckpt"))
    assert not os.path.exists(os.path.join(run_dir, "final.ckpt"))


def test_train_dimension_mismatch_exits_2(runner, tmp_path):
    topo_path = str(tmp_path / "net.json")
    data_path = str(tmp_path / "train.jsonl")
    assert runner.invoke(main, ["topo", "random", "--hidden", "3",
                                "--inputs", "3", "--outputs", "2",
                                "--out", topo_path]).exit_code == 0
    assert runner.invoke(main, ["gen", "pavlov", "--episodes", "4",
                                "--seed", "1", "--out", data_path]).exit_code == 0
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path,
                                  "--out-dir", str(tmp_path / "r")])
    assert result.exit_code == 2
    assert "do not match" in result.output


def test_train_config_file_with_flag_override(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(json.dumps({"epochs": 9, "batch_size": 3}))
    run_dir = str(tmp_path / "run")
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run_dir,
                                  "--config", cfg_path, "--epochs", "1"])
    assert result.exit_code == 0, result.output
    resolved = json.loads(Path(run_dir, "train.json").read_text())
    assert resolved["config"]["epochs"] == 1        # flag wins
    assert resolved["config"]["batch_size"] == 3    # file wins over default


def test_train_unknown_config_key_exits_2(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(json.dumps({"learning_rte": 1.0}))
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path,
                                  "--out-dir", str(tmp_path / "r"),
                                  "--config", cfg_path])
    assert result.exit_code == 2


def test_eval_acquisition_prints_metric(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["train", "--topology", topo_path,
                                "--dataset", data_path, "--out-dir", run_dir,
                                "--epochs", "1", "--batch", "3"]).exit_code == 0
    result = runner.invoke(main, ["eval", "acquisition", "--checkpoint",
                                  os.path.join(run_dir, "final.ckpt"),
                                  "--topology", topo_path,
                                  "--dataset", data_path])
    assert result.exit_code == 0, result.output
    assert "acquisition_accuracy=" in result.output


def test_eval_accepts_sgd_checkpoint(runner, tmp_path):
    # evaluation needs the parameters only, whatever optimizer trained them
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["train", "--topology", topo_path,
                                "--dataset", data_path, "--out-dir", run_dir,
                                "--epochs", "1", "--batch", "3",
                                "--optimizer", "sgd"]).exit_code == 0
    result = runner.invoke(main, ["eval", "acquisition", "--checkpoint",
                                  os.path.join(run_dir, "final.ckpt"),
                                  "--topology", topo_path,
                                  "--dataset", data_path])
    assert result.exit_code == 0, result.output
    assert "acquisition_accuracy=" in result.output


def test_eval_checkpoint_topology_mismatch_exits_2(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["train", "--topology", topo_path,
                                "--dataset", data_path, "--out-dir", run_dir,
                                "--epochs", "1", "--batch", "3"]).exit_code == 0
    other = str(tmp_path / "other.json")
    assert runner.invoke(main, ["topo", "random", "--hidden", "5",
                                "--inputs", "2", "--outputs", "1",
                                "--out", other]).exit_code == 0
    result = runner.invoke(main, ["eval", "acquisition", "--checkpoint",
                                  os.path.join(run_dir, "final.ckpt"),
                                  "--topology", other,
                                  "--dataset", data_path])
    assert result.exit_code == 2
    assert "hash mismatch" in result.output


def test_checkpoint_hash_mismatch_names_force_flag(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    run_dir = str(tmp_path / "run")
    ckpt = os.path.join(run_dir, "final.ckpt")
    train_args = ["train", "--topology", topo_path, "--dataset", data_path,
                  "--out-dir", run_dir, "--epochs", "1", "--batch", "3"]
    assert runner.invoke(main, train_args).exit_code == 0
    other = str(tmp_path / "other.json")
    assert runner.invoke(main, ["topo", "random", "--hidden", "5",
                                "--inputs", "2", "--outputs", "1",
                                "--out", other]).exit_code == 0
    result = runner.invoke(main, ["eval", "acquisition", "--checkpoint", ckpt,
                                  "--topology", other, "--dataset", data_path])
    assert result.exit_code == 2
    assert "checkpoint topology hash mismatch (use --force)" in result.output
    result = runner.invoke(main, train_args + ["--lr", "0.5", "--resume", ckpt])
    assert result.exit_code == 2
    assert "checkpoint config hash mismatch (use --force)" in result.output


def test_eval_pong_prints_metrics(runner, tmp_path):
    topo_path = str(tmp_path / "net.json")
    data_path = str(tmp_path / "pong.jsonl")
    assert runner.invoke(main, ["topo", "random", "--hidden", "3",
                                "--inputs", "5", "--outputs", "3",
                                "--out", topo_path]).exit_code == 0
    assert runner.invoke(main, ["gen", "pong", "--episodes", "3",
                                "--max-steps", "40", "--seed", "1",
                                "--out", data_path]).exit_code == 0
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["train", "--topology", topo_path,
                                "--dataset", data_path, "--out-dir", run_dir,
                                "--epochs", "1", "--batch", "3", "--loss",
                                "cce"]).exit_code == 0
    result = runner.invoke(main, ["eval", "pong", "--checkpoint",
                                  os.path.join(run_dir, "final.ckpt"),
                                  "--topology", topo_path,
                                  "--rollouts", "5"])
    assert result.exit_code == 0, result.output
    assert "hit_rate=" in result.output
    assert "baseline_random=" in result.output


def test_train_pong_plays_in_the_recorded_env(runner, tmp_path):
    # the closed-loop metric of train --task pong used to play the default
    # 12x12, 150-step env, whatever env the training set was recorded in
    topo_path = str(tmp_path / "net.json")
    data_path = str(tmp_path / "pong.jsonl")
    run_dir = str(tmp_path / "run")
    assert runner.invoke(main, ["topo", "random", "--hidden", "3",
                                "--inputs", "5", "--outputs", "3",
                                "--out", topo_path]).exit_code == 0
    assert runner.invoke(main, ["gen", "pong", "--episodes", "4",
                                "--width", "16", "--max-steps", "40",
                                "--seed", "1", "--out", data_path]).exit_code == 0
    result = runner.invoke(main, ["train", "--topology", topo_path,
                                  "--dataset", data_path, "--out-dir", run_dir,
                                  "--epochs", "1", "--batch", "4", "--loss",
                                  "cce", "--task", "pong"])
    assert result.exit_code == 0, result.output
    task_metric = float(result.output.rsplit("task_metric=", 1)[1])
    topology = load_topology(topo_path)
    params, _ = load_params(os.path.join(run_dir, "final.ckpt"), topology)
    played = {env: eval_pong_closed_loop(
        params, topology, env, n_rollouts=TrainConfig().eval_rollouts,
        seed=0)["hit_rate"] for env in (PongConfig(width=16, max_steps=40),
                                        PongConfig())}
    assert task_metric == played[PongConfig(width=16, max_steps=40)]
    assert task_metric != played[PongConfig()]


def test_verify_plasticity_signs_via_cli(runner):
    result = runner.invoke(main, ["verify", "plasticity-signs"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_verify_failed_check_exits_1(runner, monkeypatch):
    # an oracle clipping at 4.999 disagrees with the engine at the clip
    from statenet import engine
    monkeypatch.setattr(engine, "CLIP_BOUND", 4.999)
    result = runner.invoke(main, ["verify", "oracle"])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines()[-1].startswith("FAIL oracle")


def test_verify_unknown_suite_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "nonsense"])
    assert result.exit_code == 2


def test_int_spelled_config_float_resumes_under_flag(runner, tmp_path):
    topo_path, data_path = _make_training_inputs(runner, tmp_path)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"learning_rate": 1, "epochs": 2, "batch_size": 4,
                   "checkpoint_stride": 1}, fh)
    run_dir = str(tmp_path / "run")
    args = ["train", "--topology", topo_path, "--dataset", data_path,
            "--out-dir", run_dir, "--config", cfg_path]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # the file's int 1 and the flag's float 1.0 give one config hash
    result = runner.invoke(main, args + [
        "--lr", "1", "--resume", os.path.join(run_dir, "epoch0001.ckpt")])
    assert result.exit_code == 0, result.output


def _metrics_but_wall_time(run_dir):
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        return [ln.rsplit(",", 1)[0] for ln in fh.read().splitlines()]


def _final_params(run_dir):
    with open(os.path.join(run_dir, "final.ckpt")) as fh:
        return json.load(fh)["params"]


def test_run_killed_mid_training_resumes_exactly(tmp_path):
    topology = build_random(4, 0.7, seed=2, model="rate", n_inputs=2,
                            n_outputs=1, plastic_rule="hebbian", direct_io=True)
    dataset = gen_pavlov(PavlovConfig(episodes=8, seed=1))
    config = TrainConfig(epochs=60, batch_size=4, seed=3, checkpoint_stride=1)
    topo_path, data_path = str(tmp_path / "net.json"), str(tmp_path / "d.jsonl")
    save_topology(topology, topo_path)
    save_dataset(dataset, data_path)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(dataclasses.asdict(config), fh)
    whole, killed = str(tmp_path / "whole"), str(tmp_path / "killed")
    train(topology, dataset, config, run_dir=whole)

    command = [sys.executable, "-m", "statenet.cli", "train", "--topology",
               topo_path, "--dataset", data_path, "--out-dir", killed,
               "--config", cfg_path]
    src = os.path.dirname(os.path.dirname(statenet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(command, env=env)
    deadline = time.monotonic() + 15
    while (not os.path.exists(os.path.join(killed, "epoch0003.ckpt"))
           and proc.poll() is None and time.monotonic() < deadline):
        time.sleep(0.005)
    assert proc.poll() is None, "the run ended before it could be killed"
    proc.send_signal(signal.SIGKILL)
    assert proc.wait() == -signal.SIGKILL
    newest = max(glob.glob(os.path.join(killed, "epoch*.ckpt")))
    subprocess.run(command + ["--resume", newest], env=env, check=True,
                   timeout=15, capture_output=True)
    assert _metrics_but_wall_time(killed) == _metrics_but_wall_time(whole)
    assert _final_params(killed) == _final_params(whole)
