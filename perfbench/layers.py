"""Per-layer metrics computed from the spans of a traced run.

Each metric names the end-to-end metric it should move (see NOTES.md):
``engine`` and ``autodiff`` counts and times move ``train_steps_per_s``,
``pong.env_step`` moves ``eval_steps_per_s`` on pong-tbptt, ``datasets``,
``topology`` and ``params`` times move ``setup_s``. Counts are exact and
repeat run to run for a seed; their values are not pinned anywhere, so a
change that removes redundant work may move them.

Self-time shares split the traced training phase among the modules that
define the code that ran; ``epoch.unattributed_share`` is the part of the
training loop that no traced function accounts for. Together they sum
to one.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanView

MODULES = ("engine", "autodiff", "training", "dynamics", "plasticity", "pong")

UNITS = {
    "engine.step.calls_per_train_step": "count",
    "engine.useful_step_ratio": "ratio",
    "engine.step.us_p50": "us",
    "engine.lif_spike_rate": "ratio",
    "autodiff.forward_taped.s_per_epoch": "s",
    "autodiff.backward.swept_per_train_step": "count",
    "autodiff.backward.us_per_swept_step": "us",
    "autodiff.backward.s_per_epoch": "s",
    "autodiff.step_loss.us": "us",
    "autodiff.step_loss_grad.us": "us",
    "autodiff.full_weights.calls_per_train_step": "count",
    "training.batch.ms_p50": "ms",
    "training.batch.ms_p90": "ms",
    "training.optimizer_update.us": "us",
    "training.clip_global_norm.us": "us",
    "training.save_checkpoint.ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "training.checkpoint.bytes": "bytes",
    "datasets.gen.s": "s",
    "datasets.save.ms": "ms",
    "datasets.load.ms": "ms",
    "datasets.file.bytes": "bytes",
    "topology.build.ms": "ms",
    "params.init.ms": "ms",
    "pong.env_step.us": "us",
    "pong.env_step.eval_share": "ratio",
    "dynamics.calls": "count",
    "plasticity.calls": "count",
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "epoch.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _pct(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def per_layer(tracer, *, epochs: int, train_steps: int, setups: int,
              checkpoint_bytes: int, dataset_bytes: int, spike_rate: float,
              overhead: float) -> dict[str, float]:
    """``train_steps`` counts episode steps over all ``epochs`` of the traced
    training; ``spike_rate`` comes from the spiking probe net of the checks;
    ``overhead`` is untraced over traced training steps/s."""
    train = SpanView(tracer, "bench.train")
    evals = SpanView(tracer, "bench.eval")
    setup = SpanView(tracer, "bench.setup")
    checks = SpanView(tracer, "bench.checks")

    step_calls = train.calls("engine", "step")
    swept = train.work_done("autodiff", "backward")
    optimizer = np.concatenate([train.durations("training", "Adam.update"),
                                train.durations("training", "Sgd.update")])
    out = {
        "engine.step.calls_per_train_step": step_calls / train_steps,
        "engine.useful_step_ratio": train_steps / step_calls if step_calls else 0.0,
        "engine.step.us_p50": _pct(train.durations("engine", "step"), 50, 1e6),
        "engine.lif_spike_rate": spike_rate,
        "autodiff.forward_taped.s_per_epoch":
            train.total("autodiff", "forward_taped") / epochs,
        "autodiff.backward.swept_per_train_step": swept / train_steps,
        "autodiff.backward.us_per_swept_step":
            train.total("autodiff", "backward") / swept * 1e6 if swept else 0.0,
        "autodiff.backward.s_per_epoch": train.total("autodiff", "backward") / epochs,
        "autodiff.step_loss.us": _pct(train.durations("autodiff", "step_loss"), 50, 1e6),
        "autodiff.step_loss_grad.us":
            _pct(train.durations("autodiff", "step_loss_grad"), 50, 1e6),
        "autodiff.full_weights.calls_per_train_step":
            train.binding_calls("autodiff.full_weights") / train_steps,
        "training.batch.ms_p50":
            _pct(train.durations("training", "_batch_gradients"), 50, 1e3),
        "training.batch.ms_p90":
            _pct(train.durations("training", "_batch_gradients"), 90, 1e3),
        "training.optimizer_update.us": _pct(optimizer, 50, 1e6),
        "training.clip_global_norm.us":
            _pct(train.durations("training", "clip_global_norm"), 50, 1e6),
        "training.save_checkpoint.ms":
            _pct(train.durations("training", "save_checkpoint"), 50, 1e3),
        "training.load_checkpoint.ms":
            _pct(checks.durations("training", "load_checkpoint"), 50, 1e3),
        "training.checkpoint.bytes": float(checkpoint_bytes),
        "datasets.gen.s": (setup.total("datasets", "gen_pavlov")
                           + setup.total("datasets", "gen_pong")) / setups,
        "datasets.save.ms": setup.total("datasets", "save_dataset") / setups * 1e3,
        "datasets.load.ms": setup.total("datasets", "load_dataset") / setups * 1e3,
        "datasets.file.bytes": float(dataset_bytes),
        "topology.build.ms": setup.total("topology", "build_random") / setups * 1e3,
        "params.init.ms":
            setup.total("params", "ParameterSet.from_topology") / setups * 1e3,
        "pong.env_step.us": _pct(evals.durations("pong", "PongEnv.step"), 50, 1e6),
        "pong.env_step.eval_share":
            evals.total("pong", "PongEnv.step") / evals.wall if evals.wall else 0.0,
        "dynamics.calls": float(train.module_calls("dynamics")
                                + evals.module_calls("dynamics")),
        "plasticity.calls": float(train.module_calls("plasticity")
                                  + evals.module_calls("plasticity")),
        "trace.overhead_ratio": overhead,
    }
    # training's share leaves out the loop in train() itself: that part is
    # the epoch time no traced function accounts for
    loop = train.self_of("training.train") + train.root_self
    for module in MODULES:
        own = train.module_self(module)
        if module == "training":
            own -= train.self_of("training.train")
        out[f"{module}.self_share"] = own / train.wall
    out["epoch.unattributed_share"] = loop / train.wall
    return out
