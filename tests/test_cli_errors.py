"""The CLI's error boundary: a malformed topology, dataset, checkpoint or
config file ends with exit 2 (3 when a file cannot be read or written, 4
when the numbers diverge) and one ``error:`` line on stderr, never a
traceback; a genuine bug still raises."""

import json
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statenet import cli
from statenet.cli import main
from statenet.datasets import (PavlovConfig, PongDataConfig, gen_pavlov,
                               gen_pong, load_dataset, save_dataset)
from statenet.dynamics import NumericsError
from statenet.engine import fresh_state, rollout
from statenet.params import ParameterSet
from statenet.pong import PongConfig
from statenet.topology import (LifParams, build_random, load_topology,
                               save_topology)
from statenet.training import (Sgd, TrainConfig, eval_pavlov_acquisition,
                               eval_pong_closed_loop, lif_stdp_recipe,
                               load_params, save_checkpoint, train)

TRAIN_FLAGS = ["--epochs", "1", "--batch", "2"]
NAN = float("nan")

FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs: a hebbian net, pavlov and pong sets, a checkpoint, and
    a 5-in/3-out pong net with its own checkpoint."""
    d = tmp_path_factory.mktemp("valid")
    net = build_random(3, 0.8, seed=1, model="rate", n_inputs=2, n_outputs=1,
                       plastic_rule="hebbian")
    data = gen_pavlov(PavlovConfig(episodes=4, seed=1))
    pong_net = build_random(3, 0.8, seed=1, model="rate", n_inputs=5,
                            n_outputs=3)
    pong = gen_pong(PongDataConfig(episodes=2, seed=1,
                                   env=PongConfig(max_steps=20)))
    paths = {"net": str(d / "net.json"), "data": str(d / "train.jsonl"),
             "pong": str(d / "pong.jsonl"), "run": str(d / "run"),
             "pong_net": str(d / "pong_net.json"), "pong_run": str(d / "pong_run")}
    save_topology(net, paths["net"])
    save_dataset(data, paths["data"])
    save_dataset(pong, paths["pong"])
    save_topology(pong_net, paths["pong_net"])
    train(net, data, TrainConfig(epochs=1, batch_size=2), run_dir=paths["run"])
    train(pong_net, pong, TrainConfig(loss_tag="cce", epochs=1, batch_size=2),
          run_dir=paths["pong_run"])
    paths["ckpt"] = os.path.join(paths["run"], "final.ckpt")
    paths["pong_ckpt"] = os.path.join(paths["pong_run"], "final.ckpt")
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


def acquisition_args(files, tmp_path, ckpt, data=None):
    return ["eval", "acquisition", "--checkpoint", ckpt,
            "--topology", files["net"], "--dataset", data or files["data"]]


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


def _x_bool(rec):
    rec["x"][0][0] = True   # numpy reads [true, 0.0] as numbers


def _mask_bool(rec):
    rec["mask"] = [[True]] + [[1.0]] * (len(rec["y"]) - 1)


def _train_config(files, tmp_path, **values):
    return train_args(files, tmp_path) + [
        "--config", write_json(tmp_path / "cfg.json", values)]


def _topology(files, tmp_path, edit):
    doc = read_json(files["net"])
    edit(doc)
    return write_json(tmp_path / "bad.json", doc)


def _checkpoint(files, tmp_path, edit):
    return write_json(tmp_path / "bad.ckpt", edit(read_json(files["ckpt"])))


def _meta_as_pairs(rec):
    rec["meta"] = [[key, value] for key, value in rec["meta"].items()]


def _empty_test_stage(rec):
    rec["meta"]["stages"]["test"] = [0, 0]


def _x_extra_column(rec):
    rec["x"] = [row + [0.0] for row in rec["x"]]


def _topology_validate(files, tmp_path, edit):
    return ["topo", "validate", _topology(files, tmp_path, edit)]


def _gen(tmp_path, kind, *flags):
    return ["gen", kind, *flags, "--out", str(tmp_path / "d.jsonl")]


def _train_pong_env(files, tmp_path, env):
    """train --task pong on the pong set with manifest ``params.env`` set."""
    records = read_lines(files["pong"])
    records[0]["params"]["env"] = env
    return ["train", "--topology", files["pong_net"], "--dataset",
            write_lines(tmp_path / "bad.jsonl", records), "--out-dir",
            str(tmp_path / "out"), "--task", "pong", "--loss", "cce"] + TRAIN_FLAGS


def _no_episodes(files, tmp_path):
    manifest = {**read_lines(files["data"])[0], "episodes": 0}
    return write_lines(tmp_path / "empty.jsonl", [manifest])


def _pavlov_eval(files, tmp_path, eval_path):
    return train_args(files, tmp_path) + ["--task", "pavlov",
                                          "--eval-dataset", eval_path]


def _eval_pong(files, rollouts):
    return ["eval", "pong", "--checkpoint", files["pong_ckpt"],
            "--topology", files["pong_net"], "--rollouts", str(rollouts)]


def _short_params(doc):
    return {**doc, "params": doc["params"][:-1]}


def _meta(**values):
    """A checkpoint with an earlier version's "meta" block of plasticity
    constants: refused as an unknown key, whatever it holds."""
    return lambda doc: {**doc, "meta": values}


def _params(edit):
    return lambda doc: {**doc, "params": edit(doc["params"])}


def _moment(key, value):
    return lambda doc: {**doc, "optimizer": {
        **doc["optimizer"], key: [value] * len(doc["params"])}}


def _resume_edited(files, tmp_path, edit):
    return resume_args(files, tmp_path, _checkpoint(files, tmp_path, edit))


def _eval_edited(files, tmp_path, edit):
    return acquisition_args(files, tmp_path,
                            _checkpoint(files, tmp_path, edit))


def _resume_with(files, tmp_path, epoch=None, count=None):
    """Resume from the checkpoint with its epoch or adam step count set."""
    def edit(doc):
        if epoch is not None:
            doc["epoch"] = epoch
        if count is not None:
            doc["optimizer"]["count"] = count
        return doc
    return resume_args(files, tmp_path, _checkpoint(files, tmp_path, edit))


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
    "resume-checkpoint-params-string": lambda f, t: resume_args(
        f, t, _checkpoint(f, t, lambda d: {**d, "params": "abc"})),
    "eval-checkpoint-list": lambda f, t: acquisition_args(
        f, t, _checkpoint(f, t, lambda d: [d])),
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
    "dataset-meta-pairs": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _meta_as_pairs)),
    "eval-pong-rollouts-zero": lambda f, t: _eval_pong(f, 0),
    "eval-pong-rollouts-negative": lambda f, t: _eval_pong(f, -3),
    "train-config-eval-rollouts-zero": lambda f, t: _train_config(
        f, t, eval_rollouts=0),
    "train-config-task-unknown": lambda f, t: _train_config(f, t, task="pongg"),
    "resume-checkpoint-epoch-negative": lambda f, t: _resume_with(f, t, epoch=-3),
    "resume-checkpoint-epoch-float": lambda f, t: _resume_with(f, t, epoch=1e300),
    "resume-checkpoint-count-negative": lambda f, t: _resume_with(f, t, count=-1),
    "resume-checkpoint-count-float": lambda f, t: _resume_with(f, t, count=2.7),
    "gen-pavlov-config-weight-nan": lambda f, t: [
        "gen", "pavlov", "--out", str(t / "d.jsonl"), "--config", write_json(
            t / "cfg.json", {"train_len_weights": [6.0, 0.0, 0.0, NAN]})],
    "resume-checkpoint-meta-clip-nan": lambda f, t: _resume_edited(
        f, t, _meta(clip_bound=NAN)),
    "eval-checkpoint-meta-clip-nan": lambda f, t: _eval_edited(
        f, t, _meta(clip_bound=NAN)),
    "resume-checkpoint-params-number-string": lambda f, t: _resume_edited(
        f, t, _params(lambda p: ["0.5"] + p[1:])),
    "resume-checkpoint-params-bool": lambda f, t: _resume_edited(
        f, t, _params(lambda p: [True] + p[1:])),
    "resume-checkpoint-params-nan": lambda f, t: _resume_edited(
        f, t, _params(lambda p: [NAN] * len(p))),
    "eval-checkpoint-params-nan": lambda f, t: _eval_edited(
        f, t, _params(lambda p: [NAN] * len(p))),
    "eval-checkpoint-params-int-overflow": lambda f, t: _eval_edited(
        f, t, _params(lambda p: [10**400] + p[1:])),
    "resume-checkpoint-moment-nan": lambda f, t: _resume_edited(
        f, t, _moment("m", NAN)),
    "resume-checkpoint-second-moment-negative": lambda f, t: _resume_edited(
        f, t, _moment("v", -1.0)),
    "resume-checkpoint-frozen-segment": lambda f, t: _resume_edited(
        f, t, lambda d: {**d, "frozen": ["w0"]}),
    "resume-checkpoint-frozen-unknown": lambda f, t: _resume_edited(
        f, t, lambda d: {**d, "frozen": ["nope"]}),
    "resume-checkpoint-frozen-string": lambda f, t: _resume_edited(
        f, t, lambda d: {**d, "frozen": "w0"}),
    "eval-checkpoint-meta-clip-four": lambda f, t: _eval_edited(
        f, t, _meta(clip_bound=4.0)),
    "resume-checkpoint-meta-list": lambda f, t: _resume_edited(
        f, t, lambda d: {**d, "meta": []}),
    "eval-checkpoint-meta-no-trace-decay": lambda f, t: _eval_edited(
        f, t, _meta()),
    "resume-checkpoint-meta-clip-negative": lambda f, t: _resume_edited(
        f, t, _meta(clip_bound=-1.0)),
    "resume-checkpoint-meta-trace-decay-huge": lambda f, t: _resume_edited(
        f, t, _meta(trace_decay=1e300)),
    "eval-checkpoint-meta-trace-decay-huge": lambda f, t: _eval_edited(
        f, t, _meta(trace_decay=1e300)),
    "resume-checkpoint-meta-trace-decay-negative": lambda f, t: _resume_edited(
        f, t, _meta(trace_decay=-3.0)),
    "eval-checkpoint-meta-trace-decay-one": lambda f, t: _eval_edited(
        f, t, _meta(trace_decay=1.0)),
    "resume-checkpoint-meta-potentiation-negative": lambda f, t: _resume_edited(
        f, t, _meta(potentiation=-0.05)),
    "eval-checkpoint-meta-depression-negative": lambda f, t: _eval_edited(
        f, t, _meta(depression=-0.05)),
    "dataset-x-bool": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _x_bool)),
    "dataset-mask-bool": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _mask_bool)),
    "train-config-optimizer-alias": lambda f, t: _train_config(
        f, t, optimizer="adaptive-moments"),
    "eval-acquisition-test-stage-empty": lambda f, t: acquisition_args(
        f, t, f["ckpt"], data=_dataset_edit(f, t, 1, _empty_test_stage)),
    "train-dataset-no-episodes": lambda f, t: train_args(
        f, t, data=_no_episodes(f, t)),
    "train-config-checkpoint-stride-negative": lambda f, t: _train_config(
        f, t, checkpoint_stride=-1),
    "gen-pavlov-config-weight-negative": lambda f, t: [
        "gen", "pavlov", "--out", str(t / "d.jsonl"), "--config", write_json(
            t / "cfg.json", {"train_len_weights": [6, -1, 0, 1]})],
    "train-config-workers-two": lambda f, t: _train_config(f, t, workers=2),
    "gen-pong-paddle-negative": lambda f, t: [
        "gen", "pong", "--paddle", "-1", "--episodes", "3",
        "--out", str(t / "d.jsonl")],
    "train-eval-test-stage-empty": lambda f, t: _pavlov_eval(
        f, t, _dataset_edit(f, t, 1, _empty_test_stage)),
    "train-eval-dataset-no-episodes": lambda f, t: _pavlov_eval(
        f, t, _no_episodes(f, t)),
    "eval-acquisition-no-episodes": lambda f, t: acquisition_args(
        f, t, f["ckpt"], data=_no_episodes(f, t)),
    "train-pong-env-malformed": lambda f, t: _train_pong_env(
        f, t, {"width": 4}),
    "topo-random-rate-stdp": lambda f, t: [
        "topo", "random", "--model", "rate", "--plastic", "stdp",
        "--out", str(t / "net.json")],
    "dataset-empty-file": lambda f, t: train_args(
        f, t, data=write_lines(t / "empty.jsonl", [])),
    "dataset-episode-dims": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, _x_extra_column)),
    "dataset-lengths-disagree": lambda f, t: train_args(
        f, t, data=_dataset_edit(f, t, 1, lambda rec: rec["y"].pop())),
    "gen-pavlov-episodes-zero": lambda f, t: _gen(t, "pavlov", "--episodes", "0"),
    "gen-pavlov-config-split-unknown": lambda f, t: _gen(
        t, "pavlov", "--config", write_json(t / "cfg.json", {"split": "x"})),
    "gen-pong-max-steps-zero": lambda f, t: _gen(t, "pong", "--max-steps", "0"),
    "gen-pong-episodes-zero": lambda f, t: _gen(t, "pong", "--episodes", "0"),
    "gen-pong-expert-noise-high": lambda f, t: _gen(
        t, "pong", "--expert-noise", "1.5"),
    "topology-role-unknown": lambda f, t: _topology_validate(
        f, t, lambda d: d["neurons"][2].update(role="inner")),
    "topology-model-unknown": lambda f, t: _topology_validate(
        f, t, lambda d: d["neurons"][1].update(model="rte",
                                               params={"bias": 0.1})),
    "topology-rule-unknown": lambda f, t: _topology_validate(
        f, t, lambda d: d["edges"][2].update(rule="oja")),
    "topology-activation-relu": lambda f, t: _topology_validate(
        f, t, lambda d: d["neurons"][2]["params"].update(activation="relu")),
    "topology-lif-dt-zero": lambda f, t: _topology_validate(
        f, t, lambda d: d["neurons"][2].update(model="lif",
                                               params={"dt": 0.0})),
    "topology-lif-sharpness-zero": lambda f, t: _topology_validate(
        f, t, lambda d: d["neurons"][2].update(model="lif",
                                               params={"sharpness": 0.0})),
    "topology-endpoint-out-of-range": lambda f, t: _topology_validate(
        f, t, lambda d: d["edges"][0].update(dst=99)),
    "topology-self-loop-on-input": lambda f, t: _topology_validate(
        f, t, lambda d: d["edges"].append({"src": 0, "dst": 0, "w0": 0.1})),
    "topology-plastic-edge-no-rule": lambda f, t: _topology_validate(
        f, t, lambda d: d["edges"][2].update(rule="none")),
    "topology-static-edge-rule": lambda f, t: _topology_validate(
        f, t, lambda d: d["edges"][0].update(rule="hebbian")),
    "topology-document-list": lambda f, t: ["topo", "validate", write_json(
        t / "bad.json", [read_json(f["net"])])],
    "topology-neurons-object": lambda f, t: _topology_validate(
        f, t, lambda d: d.update(neurons={"0": d["neurons"][0]})),
    "topo-random-hidden-negative": lambda f, t: [
        "topo", "random", "--hidden", "-1", "--out", str(t / "net.json")],
    "train-lr-nan": lambda f, t: train_args(f, t) + ["--lr", "nan"],
    "train-lr-negative": lambda f, t: train_args(f, t) + ["--lr", "-1"],
    "train-k1-above-k2": lambda f, t: train_args(f, t) + [
        "--k1", "5", "--k2", "3"],
    "train-config-loss-tag-unknown": lambda f, t: _train_config(
        f, t, loss_tag="foo"),
    "train-config-grad-clip-zero": lambda f, t: _train_config(
        f, t, grad_clip=0.0),
    "resume-force-optimizer-mismatch": lambda f, t: resume_args(
        f, t, f["ckpt"]) + ["--force", "--optimizer", "sgd"],
    "resume-checkpoint-rng": lambda f, t: _resume_edited(
        f, t, lambda d: {**d, "rng": {"seed": 3, "epoch": 3}}),
}

# the exact stderr line of each probe whose message no other test holds
MESSAGES = {
    "dataset-empty-file": "error: empty dataset file",
    "dataset-episode-dims":
        "error: line 2: episode dims inconsistent with manifest 2x1",
    "dataset-lengths-disagree": "error: line 2: sequence lengths disagree",
    "gen-pavlov-episodes-zero": "error: need at least one episode",
    "gen-pavlov-config-split-unknown": "error: unknown split 'x'",
    "gen-pong-max-steps-zero": "error: max_steps must be positive",
    "gen-pong-episodes-zero": "error: need at least one episode",
    "gen-pong-expert-noise-high": "error: expert_noise_p must be in [0, 1]",
    "topology-role-unknown": "error: neuron 2: unknown role 'inner'",
    "topology-model-unknown": "error: neuron 1: unknown model 'rte'",
    "topology-rule-unknown": "error: edge (3->2): unknown rule 'oja'",
    "topology-activation-relu":
        "error: neuron 2: unsupported activation 'relu'",
    "topology-lif-dt-zero": "error: neuron 2: lif dt must be in (0, 1]",
    "topology-lif-sharpness-zero":
        "error: neuron 2: lif sharpness must be positive",
    "topology-endpoint-out-of-range":
        "error: edge (0->99): endpoint out of range",
    "topology-self-loop-on-input": "error: edge (0->0): edge into input "
        "neuron (inputs are clamped to external stimuli)",
    "topology-plastic-edge-no-rule":
        "error: edge (3->2): plastic edge needs a rule",
    "topology-static-edge-rule":
        "error: edge (0->2): rule 'hebbian' on static edge",
    "topology-document-list": "error: topology document must be an object",
    "topology-neurons-object": "error: neurons must be a list of records",
    "topo-random-hidden-negative":
        "error: need n_inputs >= 1, n_outputs >= 1, n_hidden >= 0",
    "train-lr-nan": "error: learning_rate must be finite, got nan",
    "train-lr-negative":
        "error: learning_rate and epochs must be >= 0, batch_size >= 1",
    "train-k1-above-k2": "error: need 1 <= k1 <= k2, got (5, 3)",
    "train-config-loss-tag-unknown": "error: unknown loss tag 'foo'",
    "train-config-grad-clip-zero": "error: grad_clip must be positive",
    "resume-force-optimizer-mismatch":
        "error: checkpoint optimizer kind mismatch",
    "resume-checkpoint-meta-list":
        "error: checkpoint has unknown keys ['meta']",
    "resume-checkpoint-frozen-segment":
        "error: checkpoint has unknown keys ['frozen']",
    "eval-checkpoint-meta-clip-four":
        "error: checkpoint has unknown keys ['meta']",
    "resume-checkpoint-rng": "error: checkpoint has unknown keys ['rng']",
}


def test_topo_random_refuses_stdp_on_rate_cells_in_one_short_line(tmp_path):
    # refused before any wiring: one short line naming the model and the
    # rule, not one item per stdp edge, and no file written
    result = CliRunner().invoke(
        main, PROBES["topo-random-rate-stdp"](None, tmp_path))
    assert_one_error_line(result)
    line = result.stderr.strip()
    assert len(line) < 200 and "'rate'" in line and "'stdp'" in line, line
    assert not (tmp_path / "net.json").exists()


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_input_exits_2_with_one_error_line(files, tmp_path, probe):
    result = CliRunner().invoke(main, PROBES[probe](files, tmp_path))
    assert_one_error_line(result)


@pytest.mark.parametrize("probe", sorted(MESSAGES))
def test_malformed_input_names_its_fault(files, tmp_path, probe):
    result = CliRunner().invoke(main, PROBES[probe](files, tmp_path))
    assert result.stderr == MESSAGES[probe] + "\n"


def test_a_written_checkpoint_resumes_and_evaluates(files, tmp_path):
    for args in (resume_args(files, tmp_path, files["ckpt"]),
                 acquisition_args(files, tmp_path, files["ckpt"])):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("damage,line", [
    (lambda text: text[:len(text) // 2],
     r"error: malformed JSON in .*bad\.ckpt: Expecting ',' delimiter: "
     r"line 1 column \d+ \(char \d+\)"),
    (lambda text: text[:10] + b"\xff" + text[11:],
     r"error: malformed checkpoint: UnicodeDecodeError: 'utf-8' codec can't "
     r"decode byte 0xff in position 10: invalid start byte"),
], ids=["truncated", "byte-flipped"])
def test_a_damaged_checkpoint_on_resume_exits_2(files, tmp_path, damage,
                                               line):
    # a copy, unlike atomic_write, can leave a checkpoint cut short or
    # with a damaged byte
    with open(files["ckpt"], "rb") as fh:
        text = fh.read()
    with open(tmp_path / "bad.ckpt", "wb") as fh:
        fh.write(damage(text))
    result = CliRunner().invoke(main, resume_args(
        files, tmp_path, str(tmp_path / "bad.ckpt")))
    assert_one_error_line(result)
    assert re.fullmatch(line, result.stderr.strip()), result.stderr


def test_eval_dataset_dims_checked_before_training(files, tmp_path):
    result = CliRunner().invoke(main, train_args(files, tmp_path) + [
        "--eval-dataset", files["pong"]])
    assert "do not match" in result.stderr
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("eval_set", [
    lambda f, t: _dataset_edit(f, t, 1, _empty_test_stage), _no_episodes])
def test_eval_set_checked_before_training(files, tmp_path, eval_set):
    # a bad test stage was found by the first evaluation, after an epoch of
    # training had written train.json; an empty set was scored as nan
    result = CliRunner().invoke(main, _pavlov_eval(
        files, tmp_path, eval_set(files, tmp_path)) + ["--epochs", "3"])
    assert_one_error_line(result)
    assert not os.path.exists(tmp_path / "out")


def test_pong_net_dims_checked_before_training(files, tmp_path):
    # the closed-loop pong metric needs a 5-input, 3-output net; the first
    # evaluation (epoch 5) used to find out after four checkpoints
    result = CliRunner().invoke(main, _train_config(
        files, tmp_path, task="pong", eval_stride=5, checkpoint_stride=1)
        + ["--epochs", "5"])
    assert_one_error_line(result)
    assert "5-input, 3-output" in result.stderr
    assert not os.path.exists(tmp_path / "out")


def test_refused_resume_leaves_the_run_untouched(files, tmp_path):
    # the refused run's config used to overwrite the run's train.json
    run = tmp_path / "out"
    args = train_args(files, tmp_path)
    assert CliRunner().invoke(main, args + ["--lr", "0.01"]).exit_code == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    result = CliRunner().invoke(main, args + [
        "--lr", "0.5", "--epochs", "3", "--resume", str(run / "final.ckpt")])
    assert_one_error_line(result)
    assert "config hash mismatch" in result.stderr
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_malformed_metrics_row_names_file_and_line(files, tmp_path):
    args = train_args(files, tmp_path) + [
        "--epochs", "2", "--config",
        write_json(tmp_path / "cfg.json", {"checkpoint_stride": 1})]
    assert CliRunner().invoke(main, args).exit_code == 0
    metrics = tmp_path / "out" / "metrics.csv"
    with open(metrics, "a") as fh:
        fh.write("x,1,2,3,4\n")
    result = CliRunner().invoke(main, args + [
        "--resume", str(tmp_path / "out" / "epoch0001.ckpt")])
    assert_one_error_line(result)
    assert f"{metrics} line 4:" in result.stderr  # header, 2 epochs, then x


@pytest.fixture(scope="module")
def overflowing(tmp_path_factory):
    """The spiking recipe's net, whose input cells are stdp sources, its
    checkpoint, and held-out pavlov episodes, the first of whose stimuli
    are scaled by 1e308: the spike trace of an input overflows, and
    ``inf * 0`` turns a weight into nan. The episodes are 7, 7, 8 and 8 steps long, so the
    first one sits in the third lockstep row."""
    d = tmp_path_factory.mktemp("overflow")
    net = lif_stdp_recipe()[0]
    data = gen_pavlov(PavlovConfig(episodes=4, seed=1, split="train"))
    held = gen_pavlov(PavlovConfig(episodes=4, seed=2, split="heldout"))
    held.episodes[0].x[...] *= 1e308
    paths = {"net": str(d / "net.json"), "data": str(d / "train.jsonl"),
             "held": str(d / "held.jsonl"), "run": str(d / "run")}
    save_topology(net, paths["net"])
    save_dataset(data, paths["data"])
    save_dataset(held, paths["held"])
    train(net, data, TrainConfig(loss_tag="mse", epochs=1, batch_size=2),
          run_dir=paths["run"])
    paths["ckpt"] = os.path.join(paths["run"], "final.ckpt")
    return paths


def assert_names_an_episode_that_diverges_alone(result, files):
    """The one error line names a held-out episode, and that episode run
    alone under the checkpoint's parameters raises too."""
    named = re.match(r"^error: episode (\d+): non-finite value", result.stderr)
    assert named, result.stderr
    net = load_topology(files["net"])
    params, _ = load_params(files["ckpt"], net)
    ep = load_dataset(files["held"]).episodes[int(named[1])]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError):
        rollout(fresh_state(net, params), ep.x, net, params)


# no numpy warning comes before the one error line
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_divergence_in_evaluation_exits_4(overflowing):
    result = CliRunner().invoke(main, acquisition_args(
        overflowing, None, overflowing["ckpt"], data=overflowing["held"]))
    assert_one_error_line(result, codes=(4,))
    assert_names_an_episode_that_diverges_alone(result, overflowing)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_divergence_in_held_out_loss_exits_4(overflowing, tmp_path):
    # the run trains as the fixture's did (same data and config), so its
    # parameters at the held-out pass are the fixture's checkpoint
    result = CliRunner().invoke(main, train_args(overflowing, tmp_path) + [
        "--loss", "mse", "--eval-dataset", overflowing["held"]])
    assert_one_error_line(result, codes=(4,))
    assert_names_an_episode_that_diverges_alone(result, overflowing)


@pytest.mark.filterwarnings("error")
def test_the_library_raises_the_clis_line(overflowing, tmp_path):
    # library evaluations and held-out passes raised numpy's RuntimeWarning
    # where the CLI printed this line
    net = load_topology(overflowing["net"])
    params, _ = load_params(overflowing["ckpt"], net)
    held = load_dataset(overflowing["held"])
    acquisition = CliRunner().invoke(main, acquisition_args(
        overflowing, None, overflowing["ckpt"], data=overflowing["held"]))
    held_out = CliRunner().invoke(main, train_args(overflowing, tmp_path) + [
        "--loss", "mse", "--eval-dataset", overflowing["held"]])
    with pytest.raises(NumericsError) as evaluation:
        eval_pavlov_acquisition(params, net, held)
    with pytest.raises(NumericsError) as training:
        train(net, load_dataset(overflowing["data"]),
              TrainConfig(loss_tag="mse", epochs=1, batch_size=2),
              eval_dataset=held)
    line = "episode 0: non-finite value at t=4, neuron 18"
    for result, info in ((acquisition, evaluation), (held_out, training)):
        assert str(info.value) == line
        assert result.exit_code == 4
        assert result.stderr == f"error: {line}\n"


@pytest.mark.filterwarnings("error")
def test_a_closed_loop_overflow_is_one_line_in_library_and_cli(tmp_path):
    # the closed loop never enters the lockstep driver; the membrane sum
    # overflowed with numpy's RuntimeWarning before the step's check
    net = build_random(4, 0.5, seed=1, model="lif", n_inputs=5, n_outputs=3,
                       lif_params=LifParams(rest=1.5e308, threshold=1.7e308,
                                            reset=0.0))
    params = ParameterSet.from_topology(net)
    flat = params.flat.copy()
    flat[params.registry["w0"]] = 3e307
    params = params.with_flat(flat)
    with pytest.raises(NumericsError) as info:
        eval_pong_closed_loop(params, net, PongConfig(), n_rollouts=3, seed=0)
    assert str(info.value) == "non-finite value at t=14, neuron 5"
    paths = {"pong_net": str(tmp_path / "net.json"),
             "pong_ckpt": str(tmp_path / "net.ckpt")}
    save_topology(net, paths["pong_net"])
    save_checkpoint(paths["pong_ckpt"], params, Sgd(0.1), 0, TrainConfig(),
                    net)
    result = CliRunner().invoke(main, _eval_pong(paths, 3))
    assert result.exit_code == 4
    assert result.stderr == f"error: {info.value}\n"


@pytest.mark.parametrize("loss,target,held,episode,message", [
    ("mse", 1e300, False, 0, "episode 0: non-finite loss in an episode of "
                             "length 7 at epoch 1, batch 0"),
    # a huge negative loss once trained on unchecked
    ("bce", -1e300, False, 1, "episode 1: loss -7.472047243813897e+299 at "
                              "epoch 1, batch 1"),
    # a non-finite held-out loss was written to metrics.csv as nan
    ("mse", 1e300, True, 1, "episode 1: non-finite loss in an episode of "
                            "length 8"),
], ids=["mse-overflow", "bce-huge-negative", "held-out-mse-overflow"])
def test_huge_targets_exit_4_naming_the_episode(files, tmp_path, loss, target,
                                                 held, episode, message):
    def huge(rec):
        rec["y"] = [[target] * len(row) for row in rec["y"]]

    data = _dataset_edit(files, tmp_path, 1 + episode, huge)
    args = (train_args(files, tmp_path, data=None if held else data)
            + ["--loss", loss] + (["--eval-dataset", data] if held else []))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 4
    assert result.stderr == f"error: {message}\n"
    # only a training batch leaves an emergency checkpoint
    assert (tmp_path / "out" / "diverged.ckpt").exists() != held


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
    "pavlov": {"episodes": 3, "seed": 0, "conditioning_threshold": 2,
               "noise_p": 0.02, "split": "all", "paper_exact": False},
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
