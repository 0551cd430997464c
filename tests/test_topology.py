from collections import deque

import pytest

from statenet.topology import (EdgeSpec, LifParams, NetworkTopology, NeuronSpec,
                               RateParams, TopologyError, build_random,
                               from_document, load_topology, save_topology,
                               to_document, validate_parts)
from statenet.training import lif_stdp_recipe, pavlov_recipe, pong_recipe


def two_neuron_net():
    return [NeuronSpec(0, "input", "rate", RateParams()),
            NeuronSpec(1, "output", "rate", RateParams())], \
           [EdgeSpec(0, 1, 0.5)]


def test_minimal_legal_graph_validates_clean():
    neurons, edges = two_neuron_net()
    assert validate_parts(neurons, edges) == ([], [])


def test_edge_into_input_is_error():
    neurons, edges = two_neuron_net()
    edges = edges + [EdgeSpec(1, 0, 0.1)]
    errors, _ = validate_parts(neurons, edges)
    assert any("into input" in e for e in errors)


def test_duplicate_edge_is_error():
    neurons, edges = two_neuron_net()
    errors, _ = validate_parts(neurons, edges + [EdgeSpec(0, 1, 0.7)])
    assert any("duplicate" in e for e in errors)


def test_stdp_on_rate_neurons_is_error():
    neurons, _ = two_neuron_net()
    errors, _ = validate_parts(neurons, [EdgeSpec(0, 1, 0.5, plastic=True, rule="stdp")])
    assert any("stdp" in e for e in errors)


def test_dense_id_violation_is_error():
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(2, "output", "rate", RateParams())]
    errors, _ = validate_parts(neurons, [])
    assert any("dense" in e for e in errors)


def test_bad_lif_params_are_errors():
    neurons = [NeuronSpec(0, "input", "lif", LifParams()),
               NeuronSpec(1, "output", "lif",
                          LifParams(threshold=0.0, reset=0.5))]
    errors, _ = validate_parts(neurons, [EdgeSpec(0, 1, 1.0)])
    assert any("threshold" in e for e in errors)


def test_params_of_the_other_model_are_errors():
    # a document decodes each neuron's params by its model, so only a
    # library caller can hand one the other model's params
    neurons = [NeuronSpec(0, "input", "rate", LifParams()),
               NeuronSpec(1, "output", "lif", RateParams())]
    errors, _ = validate_parts(neurons, [EdgeSpec(0, 1, 1.0)])
    assert errors == ["neuron 0: rate neuron needs rate params",
                      "neuron 1: lif neuron needs lif params"]


def bfs_reachable(n, edges, sources):
    adj = {}
    for e in edges:
        adj.setdefault(e.src, []).append(e.dst)
    seen = set(sources)
    queue = deque(sources)
    while queue:
        p = queue.popleft()
        for q in adj.get(p, ()):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def test_unreachable_output_is_warning_matching_bfs_oracle():
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "hidden", "rate", RateParams()),
               NeuronSpec(2, "output", "rate", RateParams()),
               NeuronSpec(3, "output", "rate", RateParams())]
    edges = [EdgeSpec(0, 1, 1.0), EdgeSpec(1, 2, 1.0), EdgeSpec(2, 3, 0.0)]
    errors, warnings = validate_parts(neurons, edges)
    assert not errors
    reachable = bfs_reachable(4, edges, [0])
    flagged = {int(w.split()[2]) for w in warnings if "unreachable" in w}
    assert flagged == {nr.id for nr in neurons
                       if nr.role == "output" and nr.id not in reachable}
    # removing the feeding edge makes both outputs unreachable
    _, warnings2 = validate_parts(neurons, edges[1:])
    flagged2 = {int(w.split()[2]) for w in warnings2 if "unreachable" in w}
    assert flagged2 == {2, 3}


def test_isolated_neuron_is_warning():
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "hidden", "rate", RateParams()),
               NeuronSpec(2, "output", "rate", RateParams())]
    _, warnings = validate_parts(neurons, [EdgeSpec(0, 2, 1.0)])
    assert any("isolated" in w for w in warnings)


def test_topology_keeps_its_warnings_in_neuron_id_order():
    # outputs 4 and 5 feed output 3 but no input reaches them; hidden
    # neurons 1 and 2 have no edges
    roles = ["input", "hidden", "hidden", "output", "output", "output"]
    neurons = [NeuronSpec(i, role, "rate", RateParams())
               for i, role in enumerate(roles)]
    edges = [EdgeSpec(0, 3, 1.0), EdgeSpec(4, 3, 1.0), EdgeSpec(5, 3, 1.0)]
    want = ("output neuron 4 unreachable from any input",
            "output neuron 5 unreachable from any input",
            "neuron 1 is isolated (no edges)", "neuron 2 is isolated (no edges)")
    assert NetworkTopology(neurons, edges).warnings == want
    assert NetworkTopology(neurons[::-1], edges[::-1]).warnings == want


def test_validate_is_pure():
    neurons, edges = two_neuron_net()
    r1 = validate_parts(neurons, edges)
    r2 = validate_parts(neurons, edges)
    assert r1 == r2


def test_construction_rejects_fatal_findings():
    neurons, _ = two_neuron_net()
    with pytest.raises(TopologyError):
        NetworkTopology(neurons, [EdgeSpec(1, 0, 1.0)])


def test_no_inputs_or_outputs_rejected():
    with pytest.raises(TopologyError):
        NetworkTopology([], [])
    with pytest.raises(TopologyError):
        NetworkTopology([NeuronSpec(0, "hidden", "rate", RateParams())], [])


# ---------------------------------------------------------------------------
# serialization


def conditioning_document():
    return {
        "format": "snn-topology/1",
        "neurons": [
            {"id": 0, "role": "input", "model": "rate", "params": {}},
            {"id": 1, "role": "input", "model": "rate", "params": {}},
            {"id": 2, "role": "output", "model": "rate",
             "params": {"self_coeff": 0.2, "bias": -0.1}},
        ],
        "edges": [
            {"src": 0, "dst": 2, "w0": 0.8, "plastic": False, "rule": "none"},
            {"src": 1, "dst": 2, "w0": 0.1, "plastic": True, "rule": "hebbian"},
        ],
    }


def test_load_conditioning_document():
    # two stimulus channels, one response channel
    topo = from_document(conditioning_document())
    assert topo.n_inputs == 2 and topo.n_outputs == 1
    assert topo.n_plastic == 1


def test_empty_neuron_list_rejected():
    doc = conditioning_document()
    doc["neurons"] = []
    doc["edges"] = []
    with pytest.raises(TopologyError):
        from_document(doc)


def test_unknown_keys_rejected():
    doc = conditioning_document()
    doc["extra"] = 1
    with pytest.raises(TopologyError, match="unknown top-level"):
        from_document(doc)
    doc = conditioning_document()
    doc["neurons"][0]["color"] = "red"
    with pytest.raises(TopologyError, match="unknown keys"):
        from_document(doc)


def test_format_tag_mandatory():
    doc = conditioning_document()
    del doc["format"]
    with pytest.raises(TopologyError, match="format"):
        from_document(doc)


def test_round_trip_identity(tmp_path):
    topo = build_random(5, 0.5, seed=9, model="lif", n_inputs=2, n_outputs=2,
                        plastic_rule="stdp")
    path = str(tmp_path / "net.json")
    save_topology(topo, path)
    back = load_topology(path)
    assert to_document(back) == to_document(topo)
    assert back.content_hash() == topo.content_hash()


def test_recipe_content_hashes_are_stable():
    # checkpoints carry these hashes: a change to the document form would
    # refuse every existing checkpoint of the three recipes
    assert pavlov_recipe()[0].content_hash() == "2c86032bef743509"
    assert pong_recipe()[0].content_hash() == "eb77b928382a8056"
    assert lif_stdp_recipe()[0].content_hash() == "e33a4f25cb4e8fa8"


def test_non_finite_values_are_errors():
    neurons = [NeuronSpec(0, "input", "rate", RateParams()),
               NeuronSpec(1, "output", "rate",
                          RateParams(self_coeff=float("inf")))]
    errors, _ = validate_parts(neurons, [EdgeSpec(0, 1, float("nan"))])
    assert "neuron 1: self_coeff must be finite" in errors
    assert "edge (0->1): w0 must be finite" in errors
    for bad in ({"rest": float("nan")}, {"threshold": float("inf")},
                {"reset": -float("inf")}):
        lif = [NeuronSpec(0, "input", "lif", LifParams()),
               NeuronSpec(1, "output", "lif", LifParams(**bad))]
        errors, _ = validate_parts(lif, [EdgeSpec(0, 1, 1.0)])
        assert f"neuron 1: {next(iter(bad))} must be finite" in errors


def test_malformed_document_is_parse_error(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(TopologyError, match="malformed"):
        load_topology(path)


# ---------------------------------------------------------------------------
# random construction


def test_density_one_gives_reciprocal_pairs():
    topo = build_random(2, 1.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    h = set(topo.hidden_ids.tolist())
    pairs = {(e.src, e.dst) for e in topo.edges if e.src in h and e.dst in h}
    a, b = sorted(h)
    assert (a, b) in pairs and (b, a) in pairs


def test_same_seed_identical_edge_lists():
    t1 = build_random(6, 0.4, seed=77, model="rate", n_inputs=2, n_outputs=1)
    t2 = build_random(6, 0.4, seed=77, model="rate", n_inputs=2, n_outputs=1)
    assert t1.edges == t2.edges
    assert to_document(t1) == to_document(t2)


def test_hidden_block_edge_count_within_binomial_bounds():
    # 20*19 ordered pairs at p=0.3: mean 114, sigma = sqrt(n p (1-p)) ~ 8.93
    topo = build_random(20, 0.3, seed=7, model="rate", n_inputs=1, n_outputs=1)
    h = set(topo.hidden_ids.tolist())
    count = sum(1 for e in topo.edges if e.src in h and e.dst in h)
    mean = 0.3 * 20 * 19
    sigma = (20 * 19 * 0.3 * 0.7) ** 0.5
    assert abs(count - mean) <= 3 * sigma


def test_weight_scale_follows_in_degree():
    topo = build_random(8, 0.6, seed=5, model="rate", n_inputs=2, n_outputs=1)
    indeg = {}
    for e in topo.edges:
        indeg[e.dst] = indeg.get(e.dst, 0) + 1
    for e in topo.edges:
        assert abs(e.w0) <= 1.0 / max(1, indeg[e.dst]) ** 0.5 + 1e-12


def test_density_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_random(3, 0.0, seed=1, model="rate", n_inputs=1, n_outputs=1)
    with pytest.raises(ValueError):
        build_random(3, 1.5, seed=1, model="rate", n_inputs=1, n_outputs=1)


@pytest.mark.parametrize("kwargs,message", [
    ({"model": "rte"}, "unknown model 'rte'"),
    ({"plastic_rule": "oja"}, "unknown plastic rule 'oja'"),
    ({"plastic_scope": "all"}, "unknown plastic scope 'all'"),
])
def test_build_random_refuses_unknown_names(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_random(3, 0.5, seed=1, n_inputs=1, n_outputs=1, **kwargs)


def test_zero_hidden_connects_inputs_to_outputs():
    topo = build_random(0, 0.5, seed=2, model="rate", n_inputs=2, n_outputs=2)
    assert topo.n_edges == 4
    assert topo.warnings == ()


def test_readout_scope_marks_edges_into_outputs():
    topo = build_random(4, 0.5, seed=3, model="rate", n_inputs=2, n_outputs=1,
                        plastic_rule="hebbian", plastic_scope="readout",
                        direct_io=True)
    out = set(topo.output_ids.tolist())
    ins = set(topo.input_ids.tolist())
    for e in topo.edges:
        if e.dst in out:
            assert e.plastic and e.rule == "hebbian"
        elif e.src in ins:
            assert not e.plastic


def test_derived_arrays_immutable():
    topo = build_random(3, 0.5, seed=4, model="rate", n_inputs=1, n_outputs=1)
    with pytest.raises(ValueError):
        topo.w0[0] = 99.0


@pytest.mark.parametrize("model,rule", [("rate", "hebbian"), ("lif", "stdp")])
def test_rule_endpoints_are_their_edges_endpoints(model, rule):
    topo = build_random(5, 0.7, seed=6, model=model, n_inputs=2, n_outputs=1,
                        plastic_rule=rule)
    for name in ("hebbian", "stdp"):
        pos = getattr(topo, f"{name}_pos")
        src, dst = getattr(topo, f"{name}_src"), getattr(topo, f"{name}_dst")
        assert src.tolist() == [topo.edges[k].src for k in pos]
        assert dst.tolist() == [topo.edges[k].dst for k in pos]
        assert not src.flags.writeable and not dst.flags.writeable
    assert len(getattr(topo, f"{rule}_src")) > 0
