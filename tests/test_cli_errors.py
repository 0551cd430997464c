"""The CLI's error boundary: a malformed topology, dataset, checkpoint or
config file ends with exit 2 (3 when a file cannot be read or written) and
one ``error:`` line on stderr, never a traceback; a genuine bug still
raises."""

import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statenet import cli
from statenet.cli import main
from statenet.datasets import (PavlovConfig, PongDataConfig, gen_pavlov,
                               gen_pong, save_dataset)
from statenet.pong import PongConfig
from statenet.topology import build_random, save_topology
from statenet.training import TrainConfig, train

TRAIN_FLAGS = ["--epochs", "1", "--batch", "2"]

FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs: a hebbian net, pavlov and pong sets, a checkpoint."""
    d = tmp_path_factory.mktemp("valid")
    net = build_random(3, 0.8, seed=1, model="rate", n_inputs=2, n_outputs=1,
                       plastic_rule="hebbian")
    data = gen_pavlov(PavlovConfig(episodes=4, seed=1))
    paths = {"net": str(d / "net.json"), "data": str(d / "train.jsonl"),
             "pong": str(d / "pong.jsonl"), "run": str(d / "run")}
    save_topology(net, paths["net"])
    save_dataset(data, paths["data"])
    save_dataset(gen_pong(PongDataConfig(episodes=2, seed=1,
                                         env=PongConfig(max_steps=20))),
                 paths["pong"])
    train(net, data, TrainConfig(epochs=1, batch_size=2), run_dir=paths["run"])
    paths["ckpt"] = os.path.join(paths["run"], "final.ckpt")
    return paths


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def read_lines(path):
    with open(path) as fh:
        return [json.loads(ln) for ln in fh.read().splitlines()]


def write_lines(path, records):
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def train_args(files, tmp_path, net=None, data=None):
    return ["train", "--topology", net or files["net"],
            "--dataset", data or files["data"],
            "--out-dir", str(tmp_path / "out")] + TRAIN_FLAGS


def resume_args(files, tmp_path, ckpt):
    return train_args(files, tmp_path) + ["--resume", ckpt]


def acquisition_args(files, tmp_path, ckpt):
    return ["eval", "acquisition", "--checkpoint", ckpt,
            "--topology", files["net"], "--dataset", files["data"]]


def assert_one_error_line(result, codes=(2,)):
    assert result.exit_code in codes, (result.exit_code, result.output,
                                       result.exception)
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


# ---------------------------------------------------------------------------
# regression probes: each of these ended in a traceback with exit 1


def _dataset_line(files, tmp_path, lineno, **fields):
    return _dataset_edit(files, tmp_path, lineno, lambda rec: rec.update(fields))


def _dataset_edit(files, tmp_path, lineno, edit):
    records = read_lines(files["data"])
    edit(records[lineno])
    return write_lines(tmp_path / "bad.jsonl", records)


def _x_as_strings(rec):
    rec["x"] = [[str(v) for v in row] for row in rec["x"]]


def _mask_nan(rec):
    rec["mask"] = [[float("nan")]] + [[1.0]] * (len(rec["y"]) - 1)


def _train_config(files, tmp_path, **values):
    return train_args(files, tmp_path) + [
        "--config", write_json(tmp_path / "cfg.json", values)]


def _topology(files, tmp_path, edit):
    doc = read_json(files["net"])
    edit(doc)
    return write_json(tmp_path / "bad.json", doc)


def _checkpoint(files, tmp_path, edit):
    return write_json(tmp_path / "bad.ckpt", edit(read_json(files["ckpt"])))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _short_params(doc):
    return {**doc, "params": doc["params"][:-1]}


PROBES = {
    "dataset-x-string": lambda f, t: train_args(
        f, t, data=_dataset_line(f, t, 1, x="abc")),
    "manifest-episodes-string": lambda f, t: train_args(
        f, t, data=_dataset_line(f, t, 0, episodes="many")),
    "topology-w0-string": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["edges"][0].update(w0="abc"))],
    "topology-neurons-numbers": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d.update(neurons=[1, 2]))],
    "topology-id-string": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["neurons"][0].update(id="first"))],
    "resume-checkpoint-list": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, lambda d: [d])),
    "resume-checkpoint-no-meta": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, lambda d: _without(d, "meta"))),
    "resume-checkpoint-params-string": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, lambda d: {**d, "params": "abc"})),
    "eval-checkpoint-list": lambda f, t: acquisition_args(
        f, t, _checkpoint(f, t, lambda d: [d])),
    "eval-checkpoint-no-meta": lambda f, t: acquisition_args(
        f, t, _checkpoint(f, t, lambda d: _without(d, "meta"))),
    "eval-checkpoint-params-string": lambda f, t: acquisition_args(
        f, t, _checkpoint(f, t, lambda d: {**d, "params": "abc"})),
    "resume-checkpoint-params-short": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, _short_params)),
    "gen-pavlov-config-init-len-number": lambda f, t: [
        "gen", "pavlov", "--out", str(t / "d.jsonl"),
        "--config", write_json(t / "cfg.json", {"init_len": 5})],
    "train-eval-dataset-dims": lambda f, t: train_args(f, t) + [
        "--eval-dataset", f["pong"]],
    "topology-w0-nan": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["edges"][0].update(w0="nan"))],
    "topology-plastic-string": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: next(e for e in d["edges"] if e["plastic"]).update(
            plastic="false"))],
    "topology-bias-string": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["neurons"][-1]["params"].update(bias="1e3"))],
    "topology-id-float": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["neurons"][0].update(id=0.0))],
    "topology-w0-nan-literal": lambda f, t: ["topo", "validate", _topology(
        f, t, lambda d: d["edges"][0].update(w0=float("nan")))],
    "resume-checkpoint-moment-scalar": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, lambda d: {
            **d, "optimizer": {**d["optimizer"], "m": 5}})),
    "train-config-learning-rate-nan": lambda f, t: _train_config(
        f, t, learning_rate=float("nan")),
    "train-config-grad-clip-infinity": lambda f, t: _train_config(
        f, t, grad_clip=float("inf")),
    "manifest-episodes-float": lambda f, t: train_args(
        f, t, data=_dataset_line(f, t, 0, episodes=4.9)),
    "manifest-dims-string": lambda f, t: train_args(
        f, t, data=_dataset_line(f, t, 0, dims={"inputs": "2", "outputs": 1.0})),
    "dataset-x-number-strings": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _x_as_strings)),
    "dataset-mask-nan": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _mask_nan)),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_input_exits_2_with_one_error_line(files, tmp_path, probe):
    result = CliRunner().invoke(main, PROBES[probe](files, tmp_path))
    assert_one_error_line(result)


def test_eval_dataset_dims_checked_before_training(files, tmp_path):
    result = CliRunner().invoke(main, train_args(files, tmp_path) + [
        "--eval-dataset", files["pong"]])
    assert "do not match" in result.stderr
    assert not os.path.exists(tmp_path / "out" / "metrics.csv")


def test_missing_file_exits_3(files, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    result = CliRunner().invoke(main, train_args(files, tmp_path, data=missing))
    assert_one_error_line(result, codes=(3,))
    assert "missing.jsonl" in result.stderr


def test_genuine_bug_keeps_its_traceback(files, monkeypatch):
    def broken(path):
        raise RuntimeError("a bug, not a malformed file")

    monkeypatch.setattr(cli, "load_topology", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        CliRunner().invoke(main, ["topo", "show", files["net"]],
                           catch_exceptions=False)


# ---------------------------------------------------------------------------
# fuzz: corrupt one field of a valid record


JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3) | st.floats(-3, 3),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-3, 3), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
}


def _json_type(value):
    return int if type(value) is float else type(value)


def corrupt(data, doc: dict) -> dict:
    """``doc`` with one field, at any depth of its objects, deleted or
    replaced by a value of another JSON type."""
    key = data.draw(st.sampled_from(sorted(doc)))
    out = dict(doc)
    if isinstance(doc[key], dict) and doc[key] and data.draw(st.booleans()):
        out[key] = corrupt(data, doc[key])
    elif data.draw(st.booleans()):
        del out[key]
    else:
        kinds = [k for k in JSON_VALUES if k is not _json_type(doc[key])]
        out[key] = data.draw(st.sampled_from(kinds).flatmap(JSON_VALUES.get))
    return out


def assert_accepted_or_one_error_line(result):
    # a deleted optional key or a value the format converts is accepted
    if result.exit_code != 0:
        assert_one_error_line(result, codes=(2, 3))


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_line(files, tmp_path, data):
    records = read_lines(files["data"])
    lineno = data.draw(st.integers(0, len(records) - 1))
    records[lineno] = corrupt(data, records[lineno])
    path = write_lines(tmp_path / "fuzz.jsonl", records)
    result = CliRunner().invoke(main, train_args(files, tmp_path, data=path)
                                + ["--eval-dataset", path, "--task", "pavlov"])
    assert_accepted_or_one_error_line(result)


@FUZZ
@given(data=st.data())
def test_fuzzed_topology_record(files, tmp_path, data):
    doc = read_json(files["net"])
    kind = data.draw(st.sampled_from(["neurons", "edges"]))
    i = data.draw(st.integers(0, len(doc[kind]) - 1))
    doc[kind][i] = corrupt(data, doc[kind][i])
    path = write_json(tmp_path / "fuzz.json", doc)
    assert_accepted_or_one_error_line(
        CliRunner().invoke(main, ["topo", "validate", path]))


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint(files, tmp_path, data):
    path = write_json(tmp_path / "fuzz.ckpt",
                      corrupt(data, read_json(files["ckpt"])))
    command = data.draw(st.sampled_from([resume_args, acquisition_args]))
    assert_accepted_or_one_error_line(
        CliRunner().invoke(main, command(files, tmp_path, path)))


VALID_CONFIGS = {
    "train": {"loss_tag": "bce", "optimizer": "adam", "learning_rate": 0.01,
              "batch_size": 2, "epochs": 1, "k1": 2, "k2": 3,
              "grad_clip": 1.0, "seed": 0, "eval_stride": 1,
              "checkpoint_stride": 0, "task": "pavlov", "eval_rollouts": 2,
              "workers": 1},
    "pavlov": {"episodes": 3, "seed": 0, "init_len": [1, 3],
               "init_long_p": 0.6, "train_len": [1, 4], "test_len": [1, 3],
               "conditioning_threshold": 2, "noise_p": 0.02,
               "train_len_weights": [6.0, 0.0, 0.0, 1.0],
               "mask_mode": "causal", "split": "all", "paper_exact": False},
    "pong": {"episodes": 2, "seed": 0, "expert_noise_p": 0.1,
             "env": {"width": 12, "height": 12, "paddle_len": 3,
                     "max_steps": 20}},
}


@FUZZ
@given(data=st.data())
def test_fuzzed_config(files, tmp_path, data):
    command = data.draw(st.sampled_from(sorted(VALID_CONFIGS)))
    cfg = write_json(tmp_path / "cfg.json",
                     corrupt(data, VALID_CONFIGS[command]))
    if command == "train":
        args = ["train", "--topology", files["net"], "--dataset",
                files["data"], "--out-dir", str(tmp_path / "out")]
    else:
        args = ["gen", command, "--out", str(tmp_path / "d.jsonl")]
    assert_accepted_or_one_error_line(
        CliRunner().invoke(main, args + ["--config", cfg]))
