"""Network builders: structure, element properties, serialization."""

import numpy as np
import pytest

import tnkit.stabilizer as stab
from tnkit import dense
from tnkit.tns import (KIND_ANCHOR, KIND_DISENTANGLER, KIND_ISOMETRY,
                       KIND_TOP, MeraMeta, build_mera_1d, build_mera_2d_b2,
                       build_mera_2d_b3, build_ttn_example,
                       tns_from_dict, tns_to_dict, ttn_cut_size,
                       ttn_gate_schedule, two_site_rotation_gate,
                       validate_preconditions)

BUILDERS = [
    (build_mera_1d, 3),
    (build_mera_2d_b2, 2),
    (build_mera_2d_b3, 2),
    (build_ttn_example, 3),
]


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_preconditions_hold(build, layers):
    report = validate_preconditions(build(layers))
    assert report.ok, report.issues


@pytest.mark.parametrize("build,layers", BUILDERS)
def test_builders_deterministic(build, layers):
    a, b = build(layers), build(layers)
    assert list(a.nodes) == list(b.nodes)
    assert a.lines == b.lines
    for nid in a.nodes:
        na, nb = a.nodes[nid], b.nodes[nid]
        assert (na.layer, na.cell, na.kind, na.variant, na.dims) \
            == (nb.layer, nb.cell, nb.kind, nb.variant, nb.dims)
        if na.elements is None:
            assert nb.elements is None
        else:
            assert np.array_equal(na.elements, nb.elements)


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
    anchors = net.anchors()
    assert len(anchors) == net.spec.num_sites
    for a in anchors:
        assert a.kind == KIND_ANCHOR and a.order == 1
        assert net.anchor_id(a.cell) == a.id
    phys = [ln for ln in net.lines if net.is_physical_line(ln)]
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
    for layers in (1, 3, 5):
        assert ttn_gate_schedule(layers) == stab._tree_schedule(layers)
        assert len(ttn_gate_schedule(layers)) == 2 ** layers - 1


def test_gate_schedule_sites_in_range():
    layers = 4
    n = 2 ** layers
    seen_pairs = set()
    for tau, (a, b) in ttn_gate_schedule(layers):
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
    assert list(back.nodes) == list(net.nodes)
    assert back.lines == net.lines
    assert back.spec == net.spec
    assert back.meta == net.meta
    for nid, node in net.nodes.items():
        other = back.nodes[nid]
        assert other.dims == node.dims
        if node.elements is None:
            assert other.elements is None
        else:
            np.testing.assert_allclose(other.elements, node.elements,
                                       atol=1e-15)


def test_dict_version_guard():
    data = tns_to_dict(build_mera_1d(1))
    data["version"] = "tns-v0"
    with pytest.raises(ValueError):
        tns_from_dict(data)


def test_dict_rejects_missing_key_or_unknown_node():
    data = tns_to_dict(build_mera_1d(1))
    del data["meta"]
    with pytest.raises(ValueError, match="malformed"):
        tns_from_dict(data)
    data = tns_to_dict(build_mera_1d(1))
    data["lines"][-1]["b"][0] = "no-such-node"
    with pytest.raises(ValueError, match="malformed"):
        tns_from_dict(data)
