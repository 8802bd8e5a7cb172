"""Network builders: structure, element properties, serialization."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import tnkit.stabilizer as stab
from tnkit import dense, tns as tns_mod
from tnkit.mapping import map_to_dict, place_refined, route_lines
from tnkit.tns import (KIND_ANCHOR, KIND_CODES, KIND_DISENTANGLER,
                       KIND_ISOMETRY, KIND_TOP, KINDS, MeraMeta,
                       build_mera_1d, build_mera_2d_b2,
                       build_mera_2d_b3, build_ttn_example,
                       tns_from_dict, tns_to_dict, ttn_cut_size,
                       ttn_gate_schedule, two_site_rotation_gate,
                       validate_preconditions,
                       _random_orthonormal, _random_top)

BUILDERS = [
    (build_mera_1d, 3),
    (build_mera_2d_b2, 2),
    (build_mera_2d_b3, 2),
    (build_ttn_example, 3),
]


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_preconditions_hold(build, layers):
    assert validate_preconditions(build(layers)) == []


@pytest.mark.parametrize("build,layers", BUILDERS[:3])
@pytest.mark.parametrize("chi,phys_dim", [(1, 2), (3, 2), (2, 3), (5, 4)])
def test_preconditions_hold_at_any_chi_and_phys_dim(build, layers, chi,
                                                    phys_dim):
    net = build(layers, chi, phys_dim, with_elements=False)
    assert validate_preconditions(net) == []


def _broken_1d(edit):
    """mera1d T=3 with one hand-made fault; edit gets the node and line
    lists of its tns-v1 document."""
    data = tns_to_dict(build_mera_1d(3, with_elements=False))
    edit(data["nodes"], data["lines"])
    return tns_from_dict(data)


def _swap_ends(lines, i, j, end):
    """Exchange the end ("a" or "b") slots of lines i and j."""
    lines[i][end], lines[j][end] = lines[j][end], lines[i][end]


def _node_entry(nodes, nid):
    return next(nd for nd in nodes if nd["id"] == nid)


HAND_MADE_FAULTS = [
    (lambda nodes, lines: lines[0].__setitem__("dim", 3),
     ["line 0: dimension 3 exceeds chi 2",
      "line 0: p:1 has no slot 0 of dimension 3",
      "line 0: u:1:1 has no slot 0 of dimension 3"]),
    (lambda nodes, lines: _swap_ends(lines, 6, 22, "b"),
     ["line 22: spans layers 1..3, max distance 1",
      "line 6: spans layers 0..3, max distance 1"]),
    (lambda nodes, lines: _swap_ends(lines, 6, 13, "a"),
     ["line 13: cell distance 3 exceeds 2",
      "line 6: cell distance 3 exceeds 2"]),
    (lambda nodes, lines: _node_entry(nodes, "w:1:3").__setitem__(
        "cell", [4]),
     ["w:1:3: cell (4,) outside layer grid"]),
    (lambda nodes, lines: lines.pop(),
     ["t:3:0 slot 0: covered by 0 lines",
      "w:3:0 slot 2: covered by 0 lines"]),
    (lambda nodes, lines: lines.append({**lines[-1], "id": len(lines)}),
     ["t:3:0 slot 0: covered by 2 lines",
      "w:3:0 slot 2: covered by 2 lines"]),
    (lambda nodes, lines: lines.append(
        {**lines[-1], "id": len(lines), "a": ["t:3:0", 5],
         "b": ["w:3:0", 9]}),
     ["line 23: t:3:0 has no slot 5 of dimension 2",
      "line 23: w:3:0 has no slot 9 of dimension 2"]),
    (lambda nodes, lines: _node_entry(nodes, "p:0").__setitem__("layer", 2),
     ["p:0: anchor at layer 2, not 0"]),
]
FAULT_IDS = ["dim", "layer-distance", "cell-distance", "cell-outside",
             "uncovered", "doubly-covered", "missing-slots", "anchor-layer"]


@pytest.mark.parametrize("edit,issues", HAND_MADE_FAULTS, ids=FAULT_IDS)
def test_preconditions_pin_issue_strings(edit, issues):
    assert issues
    assert validate_preconditions(_broken_1d(edit)) == issues


def _oracle_validate(tns):
    """Issue list of the scalar precondition check, one node and one line
    at a time; the oracle of validate_preconditions."""
    issues = []
    spec, meta = tns.spec, tns.meta
    if spec.length != spec.branching ** spec.layers:
        issues.append(f"lattice length {spec.length} is not "
                      f"branching**layers = {spec.branching}**{spec.layers}")
    if meta.branching != spec.branching:
        issues.append(f"meta branching {meta.branching} is not the lattice "
                      f"branching {spec.branching}")
    if not 0 <= meta.max_layer_distance <= spec.layers:
        issues.append(f"meta max_layer_distance {meta.max_layer_distance} "
                      f"outside [0, {spec.layers}]")
    if not 1 <= tns.chi <= meta.chi:
        issues.append(f"chi {tns.chi} outside [1, {meta.chi}]")
    per_cell = {}
    anchor_dims = (tns.physical_dim,)
    for node in tns.nodes.values():
        if not 0 <= node.layer <= spec.layers:
            issues.append(f"{node.id}: layer {node.layer} outside "
                          f"[0, {spec.layers}]")
        if node.kind == KIND_ANCHOR:
            if node.layer != 0:
                issues.append(f"{node.id}: anchor at layer {node.layer}, "
                              f"not 0")
            if node.dims != anchor_dims:
                issues.append(f"{node.id}: dims {node.dims} are not "
                              f"(physical_dim,) = {anchor_dims}")
        else:
            if node.order > meta.max_tensor_order:
                issues.append(f"{node.id}: order {node.order} exceeds "
                              f"{meta.max_tensor_order}")
            width = spec.length // spec.branching ** node.layer
            if any(not 0 <= c < max(width, 1) for c in node.cell):
                issues.append(f"{node.id}: cell {node.cell} outside layer "
                              f"grid")
            key = (node.layer, node.cell)
            per_cell[key] = per_cell.get(key, 0) + 1
    for key, count in sorted(per_cell.items()):
        if count > meta.max_tensors_per_cell:
            issues.append(f"layer {key[0]} cell {key[1]}: {count} tensors "
                          f"exceed {meta.max_tensors_per_cell}")
    nodes, b = tns.nodes, spec.branching
    slot_seen = {}
    for line in tns.lines:
        if line.dim > meta.chi:
            issues.append(f"line {line.id}: dimension {line.dim} exceeds chi "
                          f"{meta.chi}")
        if line.dim < 1:
            issues.append(f"line {line.id}: dimension {line.dim} is below 1")
        slot_seen[line.a] = slot_seen.get(line.a, 0) + 1
        slot_seen[line.b] = slot_seen.get(line.b, 0) + 1
        pa, pb = nodes[line.a[0]], nodes[line.b[0]]
        for node, slot in ((pa, line.a[1]), (pb, line.b[1])):
            if slot < 0 or node.dims[slot:slot + 1] != (line.dim,):
                issues.append(f"line {line.id}: {node.id} has no slot {slot} "
                              f"of dimension {line.dim}")
        lo, hi = (pa, pb) if pa.layer <= pb.layer else (pb, pa)
        if hi.layer - lo.layer > meta.max_layer_distance:
            issues.append(f"line {line.id}: spans layers "
                          f"{lo.layer}..{hi.layer}, max distance "
                          f"{meta.max_layer_distance}")
            continue
        scale = b ** (hi.layer if lo.kind == KIND_ANCHOR
                      else hi.layer - lo.layer)
        dist = sum(abs(x // scale - y) for x, y in zip(lo.cell, hi.cell))
        if dist > meta.max_cell_distance:
            issues.append(f"line {line.id}: cell distance {dist} exceeds "
                          f"{meta.max_cell_distance}")
    for node in tns.nodes.values():
        for slot in range(node.order):
            n = slot_seen.get((node.id, slot), 0)
            if n != 1:
                issues.append(f"{node.id} slot {slot}: covered by {n} lines")
    return sorted(set(issues))


@pytest.mark.parametrize("edit,issues", HAND_MADE_FAULTS, ids=FAULT_IDS)
def test_preconditions_match_oracle_on_hand_made_faults(edit, issues):
    net = _broken_1d(edit)
    assert validate_preconditions(net) == _oracle_validate(net)


def _mutate(data, rng):
    """One random edit of a node, a line or the header of a tns-v1
    document, to values the format can hold (layers stay >= 0, cells keep
    the lattice dimension)."""
    nodes, lines, lattice = data["nodes"], data["lines"], data["lattice"]
    node = nodes[rng.integers(len(nodes))]
    i = int(rng.integers(len(lines))) if lines else None
    r = lambda lo, hi: int(rng.integers(lo, hi))
    what = r(0, 12)
    if what == 0 and lines:
        lines[i]["dim"] = r(0, 5)
    elif what == 1 and lines:
        end = "ab"[r(0, 2)]
        lines[i][end] = [lines[i][end][0], r(-1, 7)]
    elif what == 2 and lines:
        end = "ab"[r(0, 2)]
        lines[i][end] = [node["id"], lines[i][end][1]]
    elif what == 3 and lines:
        del lines[i]
    elif what == 4 and lines:
        lines.append({**lines[i], "id": max(ln["id"] for ln in lines) + 1})
    elif what == 5:
        node["layer"] = r(0, lattice["layers"] + 3)
    elif what == 6:
        node["cell"][r(0, len(node["cell"]))] = r(-3, lattice["length"] + 3)
    elif what == 7:
        dims = node["dims"]
        if dims and r(0, 3):
            dims[r(0, len(dims))] = r(0, 5)
        elif r(0, 2):
            dims.append(r(1, 4))
        else:
            dims.pop()
        # elements of the old shape would no longer read back
        node["elements"] = None
    elif what == 8:
        node["kind"] = sorted(KINDS)[r(0, 4)]
    elif what == 9:
        data["meta"][dataclasses.fields(MeraMeta)[r(0, 6)].name] = r(-1, 12)
    elif what == 10:
        data[("physical_dim", "chi")[r(0, 2)]] = r(-1, 5)
    elif lines:
        j = r(0, len(lines))
        _swap_ends(lines, i, j, "ab"[r(0, 2)])


@pytest.mark.parametrize("build,layers", BUILDERS + [(build_mera_2d_b2, 3)])
def test_preconditions_match_oracle_on_random_faults(build, layers):
    rng = np.random.default_rng(layers + len(build.__name__))
    kw = {} if build is build_ttn_example else {"with_elements": False}
    text = json.dumps(tns_to_dict(build(layers, **kw)))
    for _ in range(60):
        data = json.loads(text)
        for _ in range(int(rng.integers(1, 5))):
            _mutate(data, rng)
        net = tns_from_dict(data)
        assert validate_preconditions(net) == _oracle_validate(net)


def test_preconditions_match_oracle_with_branching_past_int64():
    # every power of b past b**0 leaves int64, so each lower cell at the
    # higher end's scale is 0 (or -1 for a negative cell)
    data = tns_to_dict(build_mera_1d(2, with_elements=False))
    data["lattice"]["branching"] = 2 ** 63
    data["nodes"][0]["cell"] = [-3]
    net = tns_from_dict(data)
    issues = validate_preconditions(net)
    assert issues == _oracle_validate(net)
    assert ("meta branching 2 is not the lattice branching "
            "9223372036854775808") in issues


@pytest.mark.parametrize("cell", [[0, 0, 0], [0], []])
def test_dict_rejects_cell_of_wrong_length(tmp_path, capsys, cell):
    from tnkit.cli import main
    data = tns_to_dict(build_mera_2d_b2(2, with_elements=False))
    node = next(nd for nd in data["nodes"] if nd["id"] == "w:1:0,0")
    node["cell"] = cell
    with pytest.raises(ValueError, match="cell"):
        tns_from_dict(data)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert main(["map", "--tns", str(path), "--scheme", "refined",
                 "--out-prefix", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed tns-v1 document") and "cell" in err


def test_dict_rejects_negative_layer():
    data = tns_to_dict(build_mera_1d(2, with_elements=False))
    data["nodes"][-1]["layer"] = -1
    with pytest.raises(ValueError, match="malformed.*layer"):
        tns_from_dict(data)


COLUMNS = ("layer", "kind", "variant", "cell", "dims", "dim_offsets",
           "line_id", "line_ends", "line_slots", "line_dim")


def _assert_same_tables(a, b):
    """a and b have equal node and line tables: the same ids and variant
    names, int64 columns of equal shape and values, equal elements."""
    assert a.ids == b.ids and a.variants == b.variants
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64, name
        assert np.array_equal(x, y), name
    assert len(a.elements) == len(b.elements) == len(a.ids)
    for x, y in zip(a.elements, b.elements):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_builders_deterministic(build, layers):
    _assert_same_tables(build(layers), build(layers))


@pytest.mark.parametrize("build,layers", [
    (build_mera_1d, 2), (build_mera_1d, 5), (build_mera_2d_b2, 1),
    (build_mera_2d_b2, 3), (build_mera_2d_b3, 1), (build_mera_2d_b3, 2),
    (build_ttn_example, 1), (build_ttn_example, 5)])
def test_read_network_has_the_built_tables(build, layers):
    kw = {} if build is build_ttn_example else {"with_elements": False}
    net = build(layers, **kw)
    _assert_same_tables(net, tns_from_dict(tns_to_dict(net)))


def test_views_read_the_tables():
    net = build_mera_1d(2, with_elements=False)
    assert len(net.nodes) == len(net.ids) and len(net.lines) == 9
    assert list(net.nodes) == net.ids
    w = net.nodes["w:1:1"]
    assert (w.id, w.layer, w.cell, w.kind, w.variant, w.dims, w.order) \
        == ("w:1:1", 1, (1,), KIND_ISOMETRY, "w", (2, 2, 2), 3)
    top = net.lines[-1]
    assert (top.id, top.a, top.b, top.dim) == (8, ("w:2:0", 2),
                                               ("t:2:0", 0), 2)
    assert net.lines[8] == top
    with pytest.raises(AttributeError):
        w.layer = 2
    with pytest.raises(IndexError):
        net.lines[9]
    with pytest.raises(KeyError):
        net.nodes["no-such-node"]


def test_seed_changes_elements():
    a = build_mera_1d(2, seed=0)
    b = build_mera_1d(2, seed=1)
    some = next(n for n in a.nodes.values() if n.kind == KIND_ISOMETRY)
    assert not np.allclose(some.elements, b.nodes[some.id].elements)


def test_meta_constants_frozen():
    assert build_mera_1d(2).meta == MeraMeta(2, 2, 4, 2, 2, 1)
    assert build_mera_2d_b2(2).meta == MeraMeta(2, 2, 8, 2, 2, 1)
    assert build_mera_2d_b3(2).meta == MeraMeta(2, 3, 10, 4, 2, 1)
    assert build_ttn_example(3).meta == MeraMeta(2, 2, 4, 3, 1, 1)


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_meta_independent_of_depth(build, layers):
    deeper = layers + (2 if build is build_ttn_example else 1)
    assert build(layers).meta == build(deeper).meta


def test_dim_ladder_saturates():
    net = build_mera_1d(3, chi=5, phys_dim=2)
    w1 = net.nodes["w:1:0"]
    assert w1.dims == (2, 2, 4)
    w2 = net.nodes["w:2:0"]
    assert w2.dims == (4, 4, 5)
    w3 = net.nodes["w:3:0"]
    assert w3.dims == (5, 5, 5)
    for line in net.lines:
        assert line.dim <= net.meta.chi


def test_isometries_have_orthonormal_columns():
    net = build_mera_2d_b2(2, chi=3)
    for node in net.nodes.values():
        if node.kind != KIND_ISOMETRY:
            continue
        mat = node.elements.reshape(-1, node.dims[-1])
        gram = mat.conj().T @ mat
        np.testing.assert_allclose(gram, np.eye(node.dims[-1]), atol=1e-12)


def test_disentanglers_are_unitary():
    net = build_mera_1d(2, chi=2)
    for node in net.nodes.values():
        if node.kind != KIND_DISENTANGLER:
            continue
        half = node.order // 2
        n = int(np.prod(node.dims[:half]))
        mat = node.elements.reshape(n, n)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(n), atol=1e-12)


def test_top_tensor_normalized():
    net = build_mera_1d(2)
    top = next(n for n in net.nodes.values() if n.kind == KIND_TOP)
    assert top.order == 1
    np.testing.assert_allclose(np.linalg.norm(top.elements), 1.0)


def test_anchor_bookkeeping():
    net = build_mera_2d_b2(1)
    nodes = net.nodes
    anchors = [n for n in nodes.values() if n.kind == KIND_ANCHOR]
    assert len(anchors) == net.spec.num_sites
    assert (net.kind == KIND_CODES[KIND_ANCHOR]).sum() == len(anchors)
    for a in anchors:
        assert a.order == 1
        assert a.id == "p:" + ",".join(map(str, a.cell))
    phys = [ln for ln in net.lines if KIND_ANCHOR in
            (nodes[ln.a[0]].kind, nodes[ln.b[0]].kind)]
    assert len(phys) == len(anchors)


def test_symbolic_build_has_no_elements():
    net = build_mera_2d_b3(1, with_elements=False)
    for node in net.nodes.values():
        if node.kind != KIND_ANCHOR:
            assert node.elements is None


def test_build_argument_errors():
    with pytest.raises(ValueError):
        build_mera_1d(0)
    with pytest.raises(ValueError):
        build_mera_1d(2, chi=0)
    with pytest.raises(ValueError):
        build_mera_1d(2, phys_dim=1)
    with pytest.raises(ValueError):
        build_ttn_example(2)
    with pytest.raises(ValueError):
        build_ttn_example(0)


def test_b3_variant_census():
    # 3x3 blocks: one full corner disentangler per interior corner, one
    # partial per interior edge midpoint, one isometry per block
    net = build_mera_2d_b3(2)
    by_variant = {}
    for node in net.nodes.values():
        if node.layer == 1 and node.kind != KIND_ANCHOR:
            by_variant[node.variant] = by_variant.get(node.variant, 0) + 1
    assert by_variant == {"u2x2": 4, "u2x1": 6, "u1x2": 6, "w": 9}


def test_rotation_gate_matrix():
    gate = two_site_rotation_gate()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = (np.eye(4) - 1j * np.kron(x, x)) / np.sqrt(2)
    np.testing.assert_allclose(gate.reshape(4, 4).T, expected, atol=1e-15)
    mat = gate.reshape(4, 4)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-15)


def test_gate_schedule_matches_simulator_schedule():
    schedule = ttn_gate_schedule(3)
    assert schedule.dtype == np.int64
    assert schedule.tolist() == [[3, 3, 7], [2, 1, 3], [2, 5, 7], [1, 0, 1],
                                 [1, 2, 3], [1, 4, 5], [1, 6, 7]]


def test_gate_schedule_sites_in_range():
    layers = 4
    n = 2 ** layers
    seen_pairs = set()
    for tau, a, b in ttn_gate_schedule(layers).tolist():
        assert 1 <= tau <= layers
        assert 0 <= a < b < n
        assert (a, b) not in seen_pairs
        seen_pairs.add((a, b))


def test_cut_size_sequence():
    assert [ttn_cut_size(t) for t in (1, 3, 5, 7, 9, 11, 13)] \
        == [1, 3, 11, 43, 171, 683, 2731]
    with pytest.raises(ValueError):
        ttn_cut_size(4)


def test_tree_state_smallest_case():
    state = dense.contract_to_statevector(build_ttn_example(1))
    expected = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2)
    assert dense.states_equal(state, expected, tol=1e-12)


def test_tree_state_matches_stabilizer_run():
    layers = 3
    run = stab.run_ttn_example(layers)
    state = dense.contract_to_statevector(build_ttn_example(layers))
    proj = stab.to_projector(run.state)
    v = state.amplitudes / np.linalg.norm(state.amplitudes)
    np.testing.assert_allclose(proj @ v, v, atol=1e-9)
    s_dense = dense.entanglement_entropy(state, [(q,) for q in run.region])
    np.testing.assert_allclose(s_dense, run.entropy, atol=1e-9)


@pytest.mark.parametrize("build,layers", [(build_mera_1d, 2),
                                          (build_ttn_example, 3)])
def test_dict_roundtrip(build, layers):
    net = build(layers)
    data = tns_to_dict(net)
    back = tns_from_dict(data)
    assert back.spec == net.spec
    assert back.meta == net.meta
    _assert_same_tables(back, net)


def test_dict_version_guard():
    data = tns_to_dict(build_mera_1d(1))
    data["version"] = "tns-v0"
    with pytest.raises(ValueError):
        tns_from_dict(data)


def test_dict_rejects_repeated_node_id():
    data = tns_to_dict(build_mera_1d(2, with_elements=False))
    data["nodes"][5]["id"] = data["nodes"][4]["id"]
    with pytest.raises(ValueError, match="malformed.*repeated node id"):
        tns_from_dict(data)


def test_dict_keeps_unknown_variant_names():
    data = tns_to_dict(build_mera_1d(2, with_elements=False))
    data["nodes"][-1]["variant"] = "apex"
    net = tns_from_dict(data)
    assert net.nodes[data["nodes"][-1]["id"]].variant == "apex"
    assert tns_to_dict(net) == data


def test_dict_rejects_missing_key_or_unknown_node():
    data = tns_to_dict(build_mera_1d(1))
    del data["meta"]
    with pytest.raises(ValueError, match="malformed"):
        tns_from_dict(data)
    data = tns_to_dict(build_mera_1d(1))
    data["lines"][-1]["b"][0] = "no-such-node"
    with pytest.raises(ValueError, match="malformed"):
        tns_from_dict(data)


# sha256 of the symbolic tns-v1 JSON and of its refined map-v1 JSON.  The
# documents hold only integers and strings, so the digests are the same on
# every platform; they pin node and line order, ids, dims and routing.
DOCUMENT_DIGESTS = {
    (build_mera_1d, 1): (
        "fbd2c61f42a17689907a754bb25e2e2862145c59e23388ae164ae94ace8e750a",
        "9cf85d62df9eb81d5c394457fc7d4063080ec059bf8fb6e7fb9afc3c35e1024c"),
    (build_mera_1d, 2): (
        "ec43e46b2eb78a8d4915ca7091469a678642e68d75221a6de0cd08d8a2e55f39",
        "776488bdf38c4eaa33e3cda8cf9568ec3761aeac047aebf8b28a68c52a07373d"),
    (build_mera_1d, 3): (
        "00ea40276e6833f5d2a660bbb71e930d21ce57efc8a4030f9da1c8ce78263209",
        "fb6ce5e8e4aa79e422a337eb84b51a7071e77b412e542fc185b16a2b64a1edec"),
    (build_mera_2d_b2, 1): (
        "aa345100d3dba99a8d5739b9e8b4362159f3fb48db74f034284942071c13229e",
        "705be8097710363ad170a16f4dc1c6efc12e18d22caa53507ca90c5f23c24fd5"),
    (build_mera_2d_b2, 2): (
        "b3ded25dc501ae1b4f8022a8aba3204078128cca32134999674fc271ec3a712f",
        "1e946d287861c8489bc932f0fcff0e7292af6e7c6bed27bf26096ee3acd314a3"),
    (build_mera_2d_b2, 3): (
        "7fb946516382a8d37c1bab2903cf4b295e256a6da87203f9fe14581837a02dfc",
        "01556e88191a631d64767cf8052478401ecf9c7b48d6b1cd8ae6126436d45a05"),
    (build_mera_2d_b3, 1): (
        "2339464ab1399bf4b92f2d5819215e6d984073c5fc97ed10b0f680fe0e9d76d7",
        "e83e6dce6432931e487cff88ea2c73db661c2ad4fcbae7b104368cd0d7b91b41"),
    (build_mera_2d_b3, 2): (
        "d6b7698632b978d0f5feb2c9495fa2b3a8cf70d3f0abf3a7ae982c36ca3f0d38",
        "165ada9fa73ac2444a861a75850d0360b17ba7af93c97892c116fd806c409c00"),
    (build_mera_2d_b3, 3): (
        "08597bbccb2579bea477b845259b5a02ee9540ba1437c99d093b17adb1a3f609",
        "958adf9b8e95137b25e83eb2708e5167e33dd9c12814ac2a6da1aeb99b1107c7"),
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("build,layers", sorted(
    DOCUMENT_DIGESTS, key=lambda k: (k[0].__name__, k[1])))
def test_symbolic_documents_pinned(build, layers):
    net = build(layers, with_elements=False)
    p = place_refined(net)
    tns_digest, map_digest = DOCUMENT_DIGESTS[(build, layers)]
    assert _digest(tns_to_dict(net)) == tns_digest
    assert _digest(map_to_dict(p, route_lines(net, p))) == map_digest


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_headers_are_the_whole_documents_without_entries(build, layers):
    net = build(layers)
    whole = tns_to_dict(net)
    assert tns_to_dict(net, entries=False) == {**whole, "nodes": [],
                                                "lines": []}
    p = place_refined(net)
    paths = route_lines(net, p)
    whole = map_to_dict(p, paths)
    assert map_to_dict(p, paths, entries=False) == {**whole, "sites": [],
                                                     "paths": []}


def _random_isometry(rng, fine_dims, coarse_dim):
    """One isometry drawn on its own, (*fine_dims, coarse_dim): the
    per-tensor draw the builders' batched draw must reproduce."""
    rows = int(np.prod(fine_dims))
    a = rng.standard_normal((rows, coarse_dim)) \
        + 1j * rng.standard_normal((rows, coarse_dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.real(np.diagonal(r)) + 1e-300)
    return np.ascontiguousarray(q.reshape(*fine_dims, coarse_dim))


def _random_unitary(rng, leg_dims):
    """One unitary drawn on its own, (*leg_dims_out, *leg_dims_in)."""
    n = int(np.prod(leg_dims))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.real(np.diagonal(r)) + 1e-300)
    return np.ascontiguousarray(q.reshape(*leg_dims, *leg_dims))


@pytest.mark.parametrize("build,layers", [(build_mera_1d, 3),
                                          (build_mera_2d_b2, 2),
                                          (build_mera_2d_b3, 2)])
@pytest.mark.parametrize("chi,phys_dim", [(2, 2), (5, 3)])
def test_elements_follow_node_order(build, layers, chi, phys_dim):
    """Elements equal, bit for bit, one per-tensor draw after another from
    one generator in node insertion order."""
    for seed in (7, 8):
        net = build(layers, chi=chi, phys_dim=phys_dim, seed=seed)
        rng = np.random.default_rng(seed)
        for node in net.nodes.values():
            if node.kind == KIND_ANCHOR:
                continue
            if node.kind == KIND_DISENTANGLER:
                expected = _random_unitary(rng, node.dims[:node.order // 2])
            elif node.kind == KIND_ISOMETRY:
                expected = _random_isometry(rng, node.dims[:-1],
                                            node.dims[-1])
            else:
                expected = _random_top(rng, node.dims[0])
            assert np.array_equal(node.elements, expected), node.id


@pytest.mark.parametrize("count,rows,cols", [(1, 2, 2), (3, 4, 4),
                                             (6, 16, 2), (5, 8, 5),
                                             (4, 81, 5)])
def test_batched_draw_matches_per_tensor_draws(count, rows, cols):
    """One stacked draw gives the per-tensor elements bit for bit and
    leaves the generator where the per-tensor draws leave it."""
    batched, single = np.random.default_rng(3), np.random.default_rng(3)
    q = _random_orthonormal(batched, count, rows, cols)
    for k in range(count):
        assert np.array_equal(q[k], _random_isometry(single, (rows,), cols))
    assert batched.bit_generator.state == single.bit_generator.state


# (rows, columns, low, high, dtype, ranked by bincount): rows whose column
# ranges multiply to at most the row count take the bincount branch
DISTINCT_CASES = [
    (6000, 2, 0, 5, np.uint8, True),
    (3000, 3, -4, 9, np.int64, True),
    (200, 4, 0, 2, np.bool_, True),
    (50, 1, -2**62, 2**62, np.int64, False),
    (300, 2, 0, 40, np.int32, False),
    (300, 3, -10, 10, np.int8, False),
    (0, 3, 0, 5, np.int64, False),
    (7, 0, 0, 1, np.int64, True),
    (0, 0, 0, 1, np.int64, False),
]


@pytest.mark.parametrize("rows,columns,low,high,dtype,ranked",
                         DISTINCT_CASES)
def test_distinct_rows_equal_np_unique(monkeypatch, rows, columns, low,
                                       high, dtype, ranked):
    calls = []
    rank = tns_mod._ranked_rows
    monkeypatch.setattr(tns_mod, "_ranked_rows",
                        lambda *args: calls.append(1) or rank(*args))
    values = np.random.default_rng(rows + columns).integers(
        low, high, (rows, columns)).astype(dtype)
    got, inverse = tns_mod.distinct(values)
    expected, expected_inverse = np.unique(values, axis=0,
                                           return_inverse=True)
    assert got.dtype == values.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert inverse.dtype == np.int64
    assert np.array_equal(inverse, expected_inverse.ravel())
    assert bool(calls) == ranked
