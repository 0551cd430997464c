"""Directed weighted neuron graph: roles, models, plastic edges.

A network is a set of neurons (input / hidden / output, each either a
continuous ``rate`` cell or a spiking ``lif`` cell) plus directed weighted
edges. Edges may be flagged plastic, in which case their weight evolves
during a rollout under the rule named by ``rule``.

Topologies are immutable after construction; the derived index arrays
(edge endpoints, role groups, per-model parameter vectors, and the edge
ids of each rule's edges, ``hebbian_pos`` / ``stdp_pos``, which select a
rule's columns of a rollout's per-edge weights) are what the execution
engine consumes. Serialization uses a single JSON document with
mandatory ``format: "snn-topology/1"``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .jsonio import decode, malformed, read_json, write_json
from .rng import Rng

FORMAT_TAG = "snn-topology/1"

ROLES = ("input", "hidden", "output")
MODELS = ("rate", "lif")
RULES = ("none", "hebbian", "stdp")


class TopologyError(ValueError):
    """Raised when a document cannot be parsed or fails validation."""


@dataclass(frozen=True)
class RateParams:
    """Continuous cell: new state = tanh(drive + self_coeff*state + bias)."""

    self_coeff: float = 0.0
    bias: float = 0.0
    activation: str = "tanh"


@dataclass(frozen=True)
class LifParams:
    """Spiking cell: leaky membrane, hard reset on threshold crossing."""

    threshold: float = 1.0
    reset: float = 0.0
    rest: float = 0.0
    dt: float = 0.5
    sharpness: float = 10.0  # steepness of the surrogate spike derivative


@dataclass(frozen=True)
class NeuronSpec:
    id: int
    role: str
    model: str
    params: RateParams | LifParams


@dataclass(frozen=True)
class EdgeSpec:
    src: int
    dst: int
    w0: float
    plastic: bool = False
    rule: str = "none"


@dataclass(frozen=True)
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class NetworkTopology:
    """Immutable graph plus the flat index arrays used by the engine.

    Edge order is normalized to (dst, src) at construction; the engine's
    gather and the reference interpreter both walk edges in this order,
    which is what makes them bitwise comparable.
    """

    def __init__(self, neurons: list[NeuronSpec], edges: list[EdgeSpec]):
        report = validate_parts(neurons, edges)
        if not report.ok:
            raise TopologyError("; ".join(report.errors))
        self.neurons = tuple(sorted(neurons, key=lambda nr: nr.id))
        self.edges = tuple(sorted(edges, key=lambda e: (e.dst, e.src)))
        self._build_index()

    def _build_index(self) -> None:
        n = len(self.neurons)
        self.n = n
        self.input_ids = np.array(
            [nr.id for nr in self.neurons if nr.role == "input"], dtype=np.intp)
        self.output_ids = np.array(
            [nr.id for nr in self.neurons if nr.role == "output"], dtype=np.intp)
        self.hidden_ids = np.array(
            [nr.id for nr in self.neurons if nr.role == "hidden"], dtype=np.intp)
        self.rate_ids = np.array(
            [nr.id for nr in self.neurons if nr.model == "rate" and nr.role != "input"],
            dtype=np.intp)
        self.lif_ids = np.array(
            [nr.id for nr in self.neurons if nr.model == "lif" and nr.role != "input"],
            dtype=np.intp)

        self.n_edges = len(self.edges)
        self.edge_src = np.array([e.src for e in self.edges], dtype=np.intp)
        self.edge_dst = np.array([e.dst for e in self.edges], dtype=np.intp)
        self.w0 = np.array([e.w0 for e in self.edges], dtype=np.float64)
        self.hebbian_pos = np.array(
            [i for i, e in enumerate(self.edges) if e.plastic and e.rule == "hebbian"],
            dtype=np.intp)
        self.stdp_pos = np.array(
            [i for i, e in enumerate(self.edges) if e.plastic and e.rule == "stdp"],
            dtype=np.intp)
        self.plastic_idx = np.array(
            [i for i, e in enumerate(self.edges) if e.plastic], dtype=np.intp)
        self.static_idx = np.array(
            [i for i, e in enumerate(self.edges) if not e.plastic], dtype=np.intp)

        # per-lif-neuron parameters aligned with lif_ids, as the (k, 1)
        # columns the dynamics kernels read
        lp = [self.neurons[i].params for i in self.lif_ids]
        self.lif_params = LifParams(**{
            f.name: np.array([getattr(p, f.name) for p in lp], np.float64).reshape(-1, 1)
            for f in fields(LifParams)})

        for arr in [*vars(self).values(), *vars(self.lif_params).values()]:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def n_inputs(self) -> int:
        return len(self.input_ids)

    @property
    def n_outputs(self) -> int:
        return len(self.output_ids)

    @property
    def n_plastic(self) -> int:
        return len(self.plastic_idx)

    def validate(self) -> ValidationReport:
        return validate_parts(list(self.neurons), list(self.edges))

    def content_hash(self) -> str:
        import hashlib
        return hashlib.sha256(
            json.dumps(to_document(self), sort_keys=True).encode()).hexdigest()[:16]


def validate_parts(neurons: list[NeuronSpec], edges: list[EdgeSpec]) -> ValidationReport:
    """Check structural invariants. Errors are fatal; warnings are not."""
    errors: list[str] = []
    warnings: list[str] = []

    n = len(neurons)
    ids = sorted(nr.id for nr in neurons)
    if ids != list(range(n)):
        errors.append(f"neuron ids must be dense 0..{n - 1} and unique, got {ids}")
    roles = {nr.id: nr.role for nr in neurons}
    models = {nr.id: nr.model for nr in neurons}
    for nr in neurons:
        if nr.role not in ROLES:
            errors.append(f"neuron {nr.id}: unknown role {nr.role!r}")
        if nr.model not in MODELS:
            errors.append(f"neuron {nr.id}: unknown model {nr.model!r}")
        elif nr.model == "rate":
            if not isinstance(nr.params, RateParams):
                errors.append(f"neuron {nr.id}: rate neuron needs rate params")
            elif nr.params.activation != "tanh":
                errors.append(f"neuron {nr.id}: unsupported activation "
                              f"{nr.params.activation!r}")
        elif nr.model == "lif":
            if not isinstance(nr.params, LifParams):
                errors.append(f"neuron {nr.id}: lif neuron needs lif params")
            else:
                p = nr.params
                if not p.threshold > p.reset:
                    errors.append(f"neuron {nr.id}: lif threshold must exceed reset")
                if not 0.0 < p.dt <= 1.0:
                    errors.append(f"neuron {nr.id}: lif dt must be in (0, 1]")
                if not p.sharpness > 0.0:
                    errors.append(f"neuron {nr.id}: lif sharpness must be positive")
        if isinstance(nr.params, (RateParams, LifParams)):
            errors += [f"neuron {nr.id}: {name} must be finite"
                       for name, value in vars(nr.params).items()
                       if isinstance(value, float) and not math.isfinite(value)]
    if not any(nr.role == "input" for nr in neurons):
        errors.append("network has no input neuron")
    if not any(nr.role == "output" for nr in neurons):
        errors.append("network has no output neuron")

    seen: set[tuple[int, int]] = set()
    for e in edges:
        if e.src not in roles or e.dst not in roles:
            errors.append(f"edge ({e.src}->{e.dst}): endpoint out of range")
            continue
        if roles[e.dst] == "input":
            errors.append(f"edge ({e.src}->{e.dst}): edge into input neuron "
                          "(inputs are clamped to external stimuli)")
        if e.src == e.dst and roles[e.src] == "input":
            errors.append(f"edge ({e.src}->{e.dst}): self-loop on input neuron")
        if (e.src, e.dst) in seen:
            errors.append(f"edge ({e.src}->{e.dst}): duplicate edge")
        seen.add((e.src, e.dst))
        if isinstance(e.w0, float) and not math.isfinite(e.w0):
            errors.append(f"edge ({e.src}->{e.dst}): w0 must be finite")
        if e.rule not in RULES:
            errors.append(f"edge ({e.src}->{e.dst}): unknown rule {e.rule!r}")
        if e.plastic and e.rule == "none":
            errors.append(f"edge ({e.src}->{e.dst}): plastic edge needs a rule")
        if not e.plastic and e.rule != "none":
            errors.append(f"edge ({e.src}->{e.dst}): rule {e.rule!r} on static edge")
        if e.rule == "stdp" and not (models.get(e.src) == "lif"
                                     and models.get(e.dst) == "lif"):
            errors.append(f"edge ({e.src}->{e.dst}): stdp requires lif neurons "
                          "at both endpoints")

    if not errors:
        # reachability of outputs from inputs (BFS over edge direction)
        adj: dict[int, list[int]] = {}
        for e in edges:
            adj.setdefault(e.src, []).append(e.dst)
        reached = {nr.id for nr in neurons if nr.role == "input"}
        queue = deque(reached)
        while queue:
            p = queue.popleft()
            for q in adj.get(p, ()):
                if q not in reached:
                    reached.add(q)
                    queue.append(q)
        for nr in neurons:
            if nr.role == "output" and nr.id not in reached:
                warnings.append(f"output neuron {nr.id} unreachable from any input")
        touched = {e.src for e in edges} | {e.dst for e in edges}
        for nr in neurons:
            if nr.id not in touched and nr.role != "input":
                warnings.append(f"neuron {nr.id} is isolated (no edges)")

    return ValidationReport(errors=errors, warnings=warnings)


# ---------------------------------------------------------------------------
# serialization


def to_document(topology: NetworkTopology) -> dict:
    return {
        "format": FORMAT_TAG,
        "neurons": [{**vars(nr), "params": dict(vars(nr.params))}
                    for nr in topology.neurons],
        "edges": [dict(vars(e)) for e in topology.edges],
    }


def from_document(doc: dict) -> NetworkTopology:
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be an object")
    unknown = set(doc) - {"format", "neurons", "edges"}
    if unknown:
        raise TopologyError(f"unknown top-level keys {sorted(unknown)}")
    if doc.get("format") != FORMAT_TAG:
        raise TopologyError(f"missing or unsupported format tag "
                            f"(expected {FORMAT_TAG!r}, got {doc.get('format')!r})")
    return NetworkTopology(_records(doc, "neuron", _neuron),
                           _records(doc, "edge", lambda rec: decode(EdgeSpec, rec)))


def _records(doc: dict, kind: str, decode_record) -> list:
    """Decode the document's list of ``kind`` records; a malformed record
    raises a TopologyError that names it."""
    records = doc.get(kind + "s", [])
    if type(records) is not list:
        raise TopologyError(f"{kind}s must be a list of records")
    out = []
    for i, rec in enumerate(records):
        with malformed(TopologyError, f"{kind} record {i}"):
            out.append(decode_record(rec))
    return out


def _neuron(rec) -> NeuronSpec:
    # params decode by model below: rate, else lif (validation names a bad model)
    spec = decode(NeuronSpec, rec, params=LifParams())
    cls = RateParams if spec.model == "rate" else LifParams
    return replace(spec, params=decode(cls, rec.get("params", {})))


def save_topology(topology: NetworkTopology, path: str) -> None:
    write_json(path, to_document(topology), indent=1)


def load_topology(path: str) -> NetworkTopology:
    return from_document(read_json(path, TopologyError))


# ---------------------------------------------------------------------------
# construction


def build_random(n_hidden: int, density: float, seed: int, model: str = "rate", *,
                 n_inputs: int, n_outputs: int,
                 plastic_rule: str = "none",
                 plastic_scope: str = "hidden",
                 direct_io: bool = False,
                 lif_params: LifParams | None = None) -> NetworkTopology:
    """Random graph: inputs fan out to every hidden, each ordered pair of
    distinct hidden neurons is wired with probability ``density``, hidden
    fans in to every output. With ``n_hidden == 0`` inputs connect directly
    to outputs.

    ``direct_io`` additionally wires every input straight to every output.
    Every edge delays its signal one step, so without direct edges an
    output can only reflect stimuli from two or more steps back; tasks
    whose targets depend on the previous stimulus need the direct block.

    Initial weights are uniform in [-a, a] with a = 1/sqrt(in-degree of the
    destination), which keeps the first gather variance-preserving.
    ``plastic_rule`` applies to the hidden-hidden block, or with
    ``plastic_scope="readout"`` also to edges into the outputs.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if plastic_rule not in RULES:
        raise ValueError(f"unknown plastic rule {plastic_rule!r}")
    if plastic_scope not in ("hidden", "readout"):
        raise ValueError(f"unknown plastic scope {plastic_scope!r}")
    if n_inputs < 1 or n_outputs < 1 or n_hidden < 0:
        raise ValueError("need n_inputs >= 1, n_outputs >= 1, n_hidden >= 0")

    rng = Rng(seed)
    n = n_inputs + n_hidden + n_outputs
    inputs = list(range(n_inputs))
    hidden = list(range(n_inputs, n_inputs + n_hidden))
    outputs = list(range(n_inputs + n_hidden, n))

    def make_params(role: str):
        if model == "rate":
            # hidden units start as leaky integrators with mixed horizons;
            # outputs start mildly persistent
            if role == "hidden":
                return RateParams(self_coeff=rng.uniform(0.0, 0.9), bias=0.0)
            return RateParams(self_coeff=0.5, bias=0.0)
        return lif_params or LifParams()

    neurons = []
    for i in inputs:
        neurons.append(NeuronSpec(i, "input", model, make_params("input")))
    for i in hidden:
        neurons.append(NeuronSpec(i, "hidden", model, make_params("hidden")))
    for i in outputs:
        neurons.append(NeuronSpec(i, "output", model, make_params("output")))

    pairs: list[tuple[int, int, bool]] = []  # (src, dst, plastic-block?)
    if n_hidden > 0:
        for i in inputs:
            for h in hidden:
                pairs.append((i, h, False))
        for p in hidden:
            for q in hidden:
                if p == q:
                    continue
                if rng.chance(density):
                    pairs.append((p, q, True))
        readout = plastic_scope == "readout"
        for h in hidden:
            for o in outputs:
                pairs.append((h, o, readout))
    if n_hidden == 0 or direct_io:
        readout = plastic_scope == "readout"
        for i in inputs:
            for o in outputs:
                pairs.append((i, o, readout))

    in_degree: dict[int, int] = {}
    for _, dst, _ in pairs:
        in_degree[dst] = in_degree.get(dst, 0) + 1

    edges = []
    for src, dst, in_block in pairs:
        a = 1.0 / max(1, in_degree[dst]) ** 0.5
        w0 = rng.uniform(-a, a)
        plastic = in_block and plastic_rule != "none"
        edges.append(EdgeSpec(src, dst, w0, plastic=plastic,
                              rule=plastic_rule if plastic else "none"))
    return NetworkTopology(neurons, edges)
