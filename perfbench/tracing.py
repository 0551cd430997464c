"""Span tracing of statenet calls, installed from outside the package.

Each traced function is replaced, in every ``statenet`` module that binds
it by name, by a wrapper that records one span: name, start, end and the
index of the enclosing span. A function that is imported by name into
another module (``step`` into ``training`` and ``autodiff``) is wrapped
there too, so calls through every binding are seen. A binding's span is
named ``<module>.<attr>`` after the module that holds the binding; the
function's own module is kept beside it so that time can be summed per
defining module.

Spans live in flat arrays while the run lasts and are written out once,
by ``Tracer.save``. Nothing in the measured package is edited; ``close``
puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "statenet"

# (defining module, attribute); "Class.method" names a method.
TARGETS = (
    ("engine", "step"),
    ("engine", "rollout"),
    ("engine", "fresh_state"),
    ("engine", "full_weights"),
    ("autodiff", "forward_taped"),
    ("autodiff", "backward"),
    ("autodiff", "step_loss"),
    ("autodiff", "step_loss_grad"),
    ("autodiff", "episode_loss"),
    ("autodiff", "episode_gradients"),
    ("autodiff", "tbptt_gradients"),
    ("training", "train"),
    ("training", "_batch_gradients"),
    ("training", "clip_global_norm"),
    ("training", "Adam.update"),
    ("training", "Sgd.update"),
    ("training", "save_checkpoint"),
    ("training", "load_checkpoint"),
    ("training", "eval_pavlov_acquisition"),
    ("training", "eval_pong_closed_loop"),
    ("pong", "PongEnv.step"),
    ("pong", "PongEnv.observation"),
    ("datasets", "gen_pavlov"),
    ("datasets", "gen_pong"),
    ("datasets", "save_dataset"),
    ("datasets", "load_dataset"),
    ("topology", "build_random"),
    ("topology", "save_topology"),
    ("topology", "load_topology"),
    ("params", "ParameterSet.from_topology"),
    ("dynamics", "rate_step"),
    ("dynamics", "lif_step"),
    ("dynamics", "lif_membrane_pre"),
    ("dynamics", "lif_surrogate_grad"),
    ("plasticity", "hebbian_update"),
    ("plasticity", "stdp_update"),
)


def _tape_length(args, kwargs):
    tape = args[0] if args else kwargs["tape"]
    return len(tape)


# Work done by one call, where it is not simply "one call".
WORK = {("autodiff", "backward"): _tape_length}


class Tracer:
    """Records spans around the statenet functions in ``TARGETS``."""

    def __init__(self):
        self.names: list[str] = []          # span name per name id
        self.owners: list[str] = []         # defining module per name id
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".") and mod is not None}
        for module, attr in TARGETS:
            home = modules.get(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._wrap_method(cls, meth, f"{module}.{attr}", module)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            work = WORK.get((module, attr))
            for binder, mod in modules.items():
                if vars(mod).get(attr) is original:
                    wrapper = self._wrapper(original, f"{binder}.{attr}", module, work)
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_method(self, cls, meth, name, module):
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, module, None))
        else:
            wrapped = self._wrapper(raw, name, module, None)
        self._restore.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def _id(self, name: str, module: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.owners.append(module)
        return self._ids[name]

    def _wrapper(self, fn, name, module, work):
        nid = self._id(name, module)
        stack = self._stack
        clock = time.perf_counter
        name_id, parent, start, end, amount = (self.name_id, self.parent, self.start,
                                               self.end, self.work)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            amount.append(work(args, kwargs) if work else 1.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    # -- phases ---------------------------------------------------------------

    def phase(self, name: str):
        """Context manager recording a top-level span owned by the benchmark."""
        return _Phase(self, self._id(name, "bench"))

    # -- analysis -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "work": np.frombuffer(self.work, dtype=np.float64).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            owners=np.array(self.owners), **self.spans())


class _Phase:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.start)
        tr.name_id.append(self.nid)
        tr.parent.append(tr._stack[-1])
        tr.work.append(1.0)
        tr.start.append(time.perf_counter())
        tr.end.append(0.0)
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.idx] = time.perf_counter()
        tr._stack.pop()


class SpanView:
    """Queries over the spans recorded inside one phase span."""

    def __init__(self, tracer: Tracer, phase: str):
        arr = tracer.spans()
        self.names = tracer.names
        self.owners = np.array(tracer.owners)
        nid = tracer._ids[phase]
        roots = np.flatnonzero(arr["name_id"] == nid)
        inside = np.zeros(len(arr["start"]), dtype=bool)
        for r in roots:
            inside |= (arr["start"] >= arr["start"][r]) & (arr["end"] <= arr["end"][r])
        dur = arr["end"] - arr["start"]
        has_parent = arr["parent"] >= 0
        child_time = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self.wall = float(np.sum(dur[roots]))
        sel = inside.copy()
        sel[roots] = False
        self.name_id = arr["name_id"][sel]
        self.dur = dur[sel]
        self.self_time = dur[sel] - child_time[sel]
        self.work = arr["work"][sel]
        self.root_self = float(np.sum(dur[roots] - child_time[roots]))

    def _mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name_id, ids)

    def _bindings(self, module: str, attr: str) -> list[str]:
        """Every binding name under which a function of ``module`` was traced."""
        return [n for i, n in enumerate(self.names)
                if self.owners[i] == module and n.split(".", 1)[1] == attr]

    def calls(self, module: str, attr: str) -> int:
        return int(np.count_nonzero(self._mask(*self._bindings(module, attr))))

    def binding_calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def durations(self, module: str, attr: str) -> np.ndarray:
        return self.dur[self._mask(*self._bindings(module, attr))]

    def total(self, module: str, attr: str) -> float:
        return float(np.sum(self.durations(module, attr)))

    def work_done(self, module: str, attr: str) -> float:
        return float(np.sum(self.work[self._mask(*self._bindings(module, attr))]))

    def module_self(self, module: str) -> float:
        ids = [i for i, owner in enumerate(self.owners) if owner == module]
        return float(np.sum(self.self_time[np.isin(self.name_id, ids)]))

    def module_calls(self, module: str) -> int:
        ids = [i for i, owner in enumerate(self.owners) if owner == module]
        return int(np.count_nonzero(np.isin(self.name_id, ids)))

    def self_of(self, name: str) -> float:
        return float(np.sum(self.self_time[self._mask(name)]))
