"""Placement schemes, deterministic routing, congestion, grid embedding.

The frozen congestion numbers in here pin the routing rule; a change to
the router that shifts any of them needs the full acceptance scan re-run,
not just an updated constant.
"""

import dataclasses
import math

import numpy as np
import pytest

from tnkit import dense
from tnkit.lattice import LatticeSpec
from tnkit.mapping import (CongestionReport, PathAssignment, Placement,
                           assemble_peps, check_routing, chi_bound,
                           congestion_csv,
                           contract_refined_to_normal,
                           default_refined_offsets, detect_stacks,
                           line_density_estimate, map_from_dict, map_to_dict,
                           measured_chi, place_naive, place_refined,
                           place_shifted, route_lines, _orient, _tensor_site)
from tnkit.tns import (MeraMeta, build_mera_1d, build_mera_2d_b2,
                       build_mera_2d_b3, build_ttn_example)


def routed(build, layers, scheme, **kw):
    net = build(layers, **kw) if build is not build_ttn_example \
        else build(layers)
    place = {"naive": place_naive, "shifted": place_shifted,
             "refined": place_refined}[scheme]
    p = place(net)
    return net, p, route_lines(net, p)


# ---------------------------------------------------------------- placement

def test_refined_offsets_shape():
    off = default_refined_offsets(2)
    assert off["w"] == (1, 1) and off["u2x2"] == (0, 0)
    assert off["u2x1"] == (1, 0) and off["u1x2"] == (0, 1)
    assert default_refined_offsets(1)["w"] == (1,)


def test_naive_piles_layers_at_origin():
    net = build_mera_1d(5)
    assert detect_stacks(place_naive(net)).max_height >= 5


def test_shifted_keeps_stacks_within_meta():
    for build, layers in ((build_mera_1d, 3), (build_mera_2d_b2, 2),
                          (build_mera_2d_b3, 2), (build_ttn_example, 3)):
        net = build(layers)
        report = detect_stacks(place_shifted(net))
        assert report.max_height <= net.meta.max_tensors_per_cell
        assert sum(report.counts.values()) \
            == len(net.nodes) - len(net.anchors())


def test_shifted_layers_use_disjoint_sublattices():
    net = build_mera_1d(3)
    p = place_shifted(net)
    for nid, site in p.site_of.items():
        node = net.nodes[nid]
        if node.kind == "physical-anchor":
            continue
        tau = node.layer
        assert site == tuple(2 ** tau * c + 2 ** (tau - 1)
                             for c in node.cell)


def test_refined_positions_b3():
    net = build_mera_2d_b3(2)
    p = place_refined(net)
    assert p.refine_factor == 3
    assert p.lattice.length == 27
    assert p.site_of["u2x2:1:1,1"] == (10, 10)
    assert p.site_of["u2x1:1:1,1"] == (13, 10)
    assert p.site_of["u1x2:1:1,1"] == (10, 13)
    assert p.site_of["w:1:1,1"] == (13, 13)
    assert p.site_of["w:2:0,0"] == (12, 12)
    assert detect_stacks(p).max_height == 2


def test_refined_anchor_column_avoids_tensor_sites():
    net = build_mera_2d_b2(2)
    p = place_refined(net)
    tensor_sites = {p.site_of[nid] for nid in p.site_of
                    if nid not in p.anchor_ids}
    for aid in p.anchor_ids:
        assert p.site_of[aid] not in tensor_sites


def test_refined_formula_degenerates_to_shifted():
    for tau in (1, 2, 3):
        assert _tensor_site("refined", 2, tau, (3,), 0, (0,)) \
            == _tensor_site("shifted", 2, tau, (3,), 0, None)


def test_refined_argument_validation():
    net = build_mera_2d_b2(1)
    with pytest.raises(ValueError):
        place_refined(net, delta_tau=0)


# ------------------------------------------------------------------ routing

ROUTE_CASES = [
    (build_mera_1d, 3, "naive"),
    (build_mera_1d, 3, "shifted"),
    (build_mera_1d, 2, "refined"),
    (build_mera_2d_b2, 2, "shifted"),
    (build_mera_2d_b2, 2, "refined"),
    (build_mera_2d_b3, 2, "shifted"),
    (build_mera_2d_b3, 2, "refined"),
    (build_ttn_example, 3, "refined"),
]


@pytest.mark.parametrize("build,layers,scheme", ROUTE_CASES)
def test_paths_are_shortest_and_monotone(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme)
    assert set(pa.chains) == {ln.id for ln in net.lines}
    for line in net.lines:
        chain = pa.chains[line.id]
        src, dst = _orient(net, line)
        s, t = p.site_of[src], p.site_of[dst]
        assert chain[0] == s and chain[-1] == t
        l1 = sum(abs(a - b) for a, b in zip(s, t))
        assert len(chain) - 1 == l1
        for a, b in zip(chain, chain[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1
        for ax in range(len(s)):
            coords = [v[ax] for v in chain]
            assert coords == sorted(coords) \
                or coords == sorted(coords, reverse=True)


@pytest.mark.parametrize("build,layers,scheme", ROUTE_CASES)
def test_paths_turn_at_most_twice(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme)
    for line in net.lines:
        chain = pa.chains[line.id]
        dirs = []
        for a, b in zip(chain, chain[1:]):
            d = tuple(y - x for x, y in zip(a, b))
            if not dirs or dirs[-1] != d:
                dirs.append(d)
        src, dst = _orient(net, line)
        gathers = (net.nodes[src].kind == "isometry"
                   and net.nodes[dst].variant == "u2x1")
        assert len(dirs) <= (3 if gathers else 2), line.id


def test_colocated_endpoints_give_empty_path():
    net, p, pa = routed(build_mera_2d_b2, 2, "shifted")
    empties = [lid for lid, chain in pa.chains.items() if len(chain) == 1]
    assert empties
    for lid in empties:
        src, dst = _orient(net, net.lines[lid])
        assert pa.chains[lid] == (p.site_of[src],) == (p.site_of[dst],)
    crossing = set(measured_chi(net, pa).line_ids.tolist())
    assert crossing and not crossing & set(empties)


def test_routing_is_deterministic():
    _, _, pa1 = routed(build_mera_2d_b3, 2, "refined")
    _, _, pa2 = routed(build_mera_2d_b3, 2, "refined")
    assert pa1.chains == pa2.chains


def test_gather_lines_ride_coarse_tracks():
    net, p, pa = routed(build_mera_2d_b3, 3, "refined")
    found = 0
    for line in net.lines:
        src, dst = _orient(net, line)
        if not (net.nodes[src].kind == "isometry"
                and net.nodes[dst].variant == "u2x1"):
            continue
        chain = pa.chains[line.id]
        vertical = {a[0] for a, b in zip(chain, chain[1:]) if a[0] == b[0]}
        step = 3 ** net.nodes[dst].layer
        if any(x % step == 0 for x in vertical):
            found += 1
    assert found > 0


# --------------------------------------------------------------- congestion

def test_congestion_frozen_b2():
    for layers in (2, 3):
        net, _, pa = routed(build_mera_2d_b2, layers, "shifted")
        rep = measured_chi(net, pa)
        assert rep.max_paths() == 6
        assert rep.log_chi_peps(2) == 6.0
        net, _, pa = routed(build_mera_2d_b2, layers, "refined")
        rep = measured_chi(net, pa)
        assert rep.max_paths(include_physical=False) == 2


def test_congestion_frozen_b3():
    net, _, pa = routed(build_mera_2d_b3, 2, "refined")
    rep = measured_chi(net, pa)
    assert rep.max_paths(include_physical=False) == 5
    assert rep.log_chi_peps(2, include_physical=False) == 5.0


def test_congestion_frozen_1d():
    heights = {"naive": [], "shifted": []}
    for scheme in heights:
        for layers in (2, 3, 4):
            net, _, pa = routed(build_mera_1d, layers, scheme)
            heights[scheme].append(measured_chi(net, pa).max_paths())
    assert heights["naive"] == [3, 5, 7]
    assert heights["shifted"] == [4, 6, 8]


def test_congestion_report_arithmetic():
    net, _, pa = routed(build_mera_1d, 2, "shifted")
    rep = measured_chi(net, pa)
    edge, count = rep.busiest_edge()
    assert rep.paths_through(edge) == count == rep.max_paths()
    assert rep.bond_dim_of(edge) == 2 ** count
    assert rep.chi_peps() == 2 ** rep.max_paths()
    assert rep.max_paths(include_physical=False) <= rep.max_paths()
    assert rep.paths_through(((97,), (98,))) == 0
    assert rep.bond_dim_of(((97,), (98,))) == 1
    with pytest.raises(ValueError):
        rep.log_chi_peps(1)


def test_no_lines_means_unit_bonds():
    net = build_mera_1d(1)
    rep = measured_chi(net, PathAssignment({}))
    for include_physical in (True, False):
        assert rep.max_paths(include_physical) == 0
        assert rep.chi_peps(include_physical) == 1
        assert rep.log_chi_peps(2, include_physical) == 0.0


def _oracle_edge_lines(chains):
    """Reference tally: walk every chain in line-id order and grow one
    tuple of ids per edge, then sort the edges."""
    edge_lines = {}
    for lid in sorted(chains):
        chain = chains[lid]
        for a, b in zip(chain, chain[1:]):
            edge = (a, b) if a <= b else (b, a)
            edge_lines[edge] = edge_lines.get(edge, ()) + (lid,)
    return {e: edge_lines[e] for e in sorted(edge_lines)}


def _assert_matches_oracle(rep, chains):
    """Every figure of rep equals the one taken from the reference tally
    of chains."""
    expected = _oracle_edge_lines(chains)
    assert rep.edge_lines == expected
    assert list(rep.edge_lines) == list(expected)
    dims = rep.line_dims
    rows = [f"{';'.join(map(str, a))},{';'.join(map(str, b))},{len(ls)},"
            f"{math.prod(dims[l] for l in ls)}"
            for (a, b), ls in expected.items()]
    assert congestion_csv(rep) == \
        "\n".join(["edge_a,edge_b,paths,bond_dim"] + rows) + "\n"
    for include_physical in (True, False):
        counted = {e: [l for l in ls if include_physical
                       or l not in rep.physical_lines]
                   for e, ls in expected.items()}
        paths = {e: len(ls) for e, ls in counted.items()}
        bonds = {e: math.prod(dims[l] for l in ls)
                 for e, ls in counted.items()}
        most = max(paths.values(), default=0)
        assert rep.max_paths(include_physical) == most
        assert type(rep.max_paths(include_physical)) is int
        chi = max(bonds.values(), default=1)
        assert rep.chi_peps(include_physical) == chi
        assert rep.log_chi_peps(5, include_physical) == \
            math.log(chi) / math.log(5)
        busiest = next((e for e, n in paths.items() if n == most), None) \
            if most else None
        assert rep.busiest_edge(include_physical) == (busiest, most)
        for e in expected:
            assert rep.paths_through(e, include_physical) == paths[e]
            assert rep.bond_dim_of(e, include_physical) == bonds[e]


@pytest.mark.parametrize("build,layers,scheme", [
    (build_mera_2d_b2, 3, "refined"), (build_mera_2d_b3, 2, "refined"),
    (build_mera_1d, 4, "shifted")])
def test_report_maxima_match_brute_force(build, layers, scheme):
    net, _, pa = routed(build, layers, scheme, chi=5, phys_dim=3,
                        with_elements=False)
    rep = measured_chi(net, pa)
    # physical legs and interior lines differ in dimension
    assert {rep.line_dims[l] for l in rep.physical_lines} == {3}
    assert 5 in rep.line_dims.values()
    _assert_matches_oracle(rep, pa.chains)


def test_report_bond_dimensions_past_int64_stay_exact():
    net, _, pa = routed(build_mera_1d, 6, "refined", chi=100000,
                        with_elements=False)
    rep = measured_chi(net, pa)
    assert rep.chi_peps() == 922337203685477580800000
    assert rep.chi_peps() > 2 ** 63
    _assert_matches_oracle(rep, pa.chains)


@pytest.mark.parametrize("chains", [
    {0: ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)),
     3: ((1, 1, 1), (1, 1, 0), (1, 0, 0)),
     4: ((0, 0, 1), (0, 1, 1)), 6: ((2, 2, 2), (2, 2, 3))},
    {1: ((-2, -1), (-1, -1), (-1, 0), (-1, 1)),
     2: ((0, -3), (-1, -3), (-1, -2), (-1, -3)),
     5: ((-1, -1), (-1, 0)), 8: ((7, -7), (7, -8))},
    {0: (), 4: ((3, 3),), 7: ((3, 3), (3, 4)), 8: ((5, 5),)},
    {2: ()},
    {},
], ids=["3d", "negative", "length-one", "vertexless", "empty"])
def test_hand_made_chains_match_oracle(chains):
    net = build_mera_1d(2, chi=5, phys_dim=3, with_elements=False)
    _assert_matches_oracle(measured_chi(net, PathAssignment(chains)), chains)


@pytest.mark.parametrize("chain", [((0, 0), (2, 0)), ((0, 0), (1, 1)),
                                   ((0, 0), (0, 0)),
                                   ((4, 0), (3, 0), (5, 0))],
                         ids=["jump", "diagonal", "standing", "back-jump"])
def test_tally_rejects_non_unit_steps(chain):
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: chain}
    with pytest.raises(ValueError, match="line 3 makes a non-unit step"):
        measured_chi(net, PathAssignment(chains))


def test_tally_rejects_boxes_past_int64():
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: ((2 ** 62, 0), (2 ** 62, 1))}
    with pytest.raises(ValueError, match="too large a box"):
        measured_chi(net, PathAssignment(chains))


def test_one_class_per_line_matches_oracle():
    # a distinct dimension per line puts every line in a class of its own
    net, _, pa = routed(build_mera_1d, 5, "shifted", with_elements=False)
    net.lines[:] = [dataclasses.replace(ln, dim=2 + ln.id)
                    for ln in net.lines]
    assert len(net.lines) > 63
    _assert_matches_oracle(measured_chi(net, pa), pa.chains)


@pytest.mark.parametrize("chain", [((4,), (5,)), ((0, 0, 0), (1,))],
                         ids=["other-line", "within-line"])
def test_tally_rejects_mixed_dimensions(chain):
    # ((0, 0, 0), (1,)) has as many coordinates as two 2-D vertices
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: chain}
    with pytest.raises(ValueError, match="differ in dimension"):
        measured_chi(net, PathAssignment(chains))


def test_merged_report_matches_oracle():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined", chi=5, phys_dim=3,
                        with_elements=False)
    merged = contract_refined_to_normal(assemble_peps(net, p, pa))
    f = p.refine_factor
    blocked = {}
    for lid, chain in pa.chains.items():
        blocks = [tuple(c // f for c in v) for v in chain]
        blocked[lid] = tuple(b for i, b in enumerate(blocks)
                             if i == 0 or b != blocks[i - 1])
    _assert_matches_oracle(merged.congestion, blocked)


def test_congestion_csv_deterministic():
    net, _, pa = routed(build_mera_1d, 2, "shifted")
    rep = measured_chi(net, pa)
    text = congestion_csv(rep)
    assert text.splitlines()[0] == "edge_a,edge_b,paths,bond_dim"
    assert text == congestion_csv(measured_chi(net, pa))
    assert len(text.splitlines()) == len(rep.edge_lines) + 1


def test_chi_bound_worked_examples():
    assert chi_bound(build_mera_2d_b2(2).meta, 2) == 4352
    small = MeraMeta(chi=2, branching=2, max_tensor_order=1,
                     max_tensors_per_cell=1, max_cell_distance=1,
                     max_layer_distance=0)
    assert chi_bound(small, 2) == 16


def test_chi_bound_monotone_in_constants():
    base = MeraMeta(2, 2, 4, 2, 2, 1)
    b0 = chi_bound(base, 2)
    assert chi_bound(MeraMeta(2, 2, 5, 2, 2, 1), 2) > b0
    assert chi_bound(MeraMeta(2, 2, 4, 3, 2, 1), 2) > b0
    assert chi_bound(MeraMeta(2, 2, 4, 2, 3, 1), 2) > b0
    assert chi_bound(MeraMeta(2, 2, 4, 2, 2, 2), 2) > b0
    assert chi_bound(MeraMeta(2, 3, 4, 2, 2, 1), 2) > b0


def test_line_density_estimate():
    for layers in (1, 3, 6):
        assert line_density_estimate(1, 2, layers) == layers + 1
    for b in (2, 3):
        cap = 1.0 / (1.0 - b ** -1.0)
        prev = 0.0
        for layers in (1, 2, 4, 8):
            est = line_density_estimate(2, b, layers)
            assert prev < est < cap
            prev = est


# ---------------------------------------------------------------- embedding

def test_peps_bond_dims_match_congestion():
    net, p, pa = routed(build_mera_1d, 2, "shifted")
    peps = assemble_peps(net, p, pa)
    rep = measured_chi(net, pa)
    assert peps.congestion.edge_lines == rep.edge_lines
    assert peps.congestion.chi_peps() == rep.chi_peps()
    open_cells = {l[1] for _, labels in peps.all_factors() for l in labels
                  if l[0] == "p"}
    assert open_cells == {a.cell for a in net.anchors()}


def test_peps_preserves_small_states():
    for build, layers, scheme in ((build_mera_1d, 1, "shifted"),
                                  (build_mera_1d, 2, "refined"),
                                  (build_mera_2d_b2, 1, "shifted")):
        net, p, pa = routed(build, layers, scheme)
        peps = assemble_peps(net, p, pa)
        ref = dense.contract_to_statevector(net)
        emb = dense.contract_to_statevector(peps)
        assert ref.sites == emb.sites
        assert dense.states_equal(ref, emb, tol=1e-12)


def test_peps_site_tensor_contracts_local_factors():
    net, p, pa = routed(build_mera_1d, 1, "shifted")
    peps = assemble_peps(net, p, pa)
    site = next(iter(peps.site_factors))
    arr, labels = peps.site_tensor(site)
    assert len(labels) == arr.ndim
    assert peps.site_tensor((999,))[1] == ()


def test_refined_merge_to_physical_grid():
    net, p, pa = routed(build_mera_2d_b2, 1, "refined")
    peps = assemble_peps(net, p, pa)
    merged = contract_refined_to_normal(peps)
    assert merged.lattice == net.spec
    assert merged.refine_factor == 1
    ref = dense.contract_to_statevector(net)
    emb = dense.contract_to_statevector(merged)
    assert dense.states_equal(ref, emb, tol=1e-12)


def test_refined_merge_bond_dimension_b2():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    merged = contract_refined_to_normal(assemble_peps(net, p, pa))
    assert merged.congestion.chi_peps() == 16


@pytest.mark.parametrize("build,layers", [(build_mera_2d_b2, 2),
                                          (build_mera_2d_b3, 1),
                                          (build_mera_1d, 3)])
def test_refined_merge_matches_coarse_grained_recount(build, layers):
    net, p, pa = routed(build, layers, "refined", with_elements=False)
    merged = contract_refined_to_normal(assemble_peps(net, p, pa))
    f = p.refine_factor
    expected = {}
    for lid in sorted(pa.chains):
        blocks = [tuple(c // f for c in v) for v in pa.chains[lid]]
        for a, b in zip(blocks, blocks[1:]):
            if a != b:
                expected.setdefault((min(a, b), max(a, b)), []).append(lid)
    assert merged.congestion.edge_lines == \
        {e: tuple(ids) for e, ids in expected.items()}
    assert list(merged.congestion.edge_lines) == sorted(expected)
    assert merged.congestion.chi_peps() == max(
        math.prod(net.lines[l].dim for l in ids)
        for ids in expected.values())


# ------------------------------------------------------------ serialization

def test_map_dict_roundtrip():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    data = map_to_dict(p, pa)
    assert data["offsets"] == dict(sorted(default_refined_offsets(2).items()))
    assert map_to_dict(place_shifted(net), pa)["offsets"] is None
    # offsets are derived on write and not read back
    for offsets in (data["offsets"], None, {"w": [0, 0]}, [1, 2]):
        p2, pa2 = map_from_dict({**data, "offsets": offsets}, net)
        assert p2 == p
        assert pa2.chains == pa.chains


@pytest.mark.parametrize("delta_tau", ["1", 1.0, True, None])
def test_map_dict_rejects_non_integer_delta_tau(delta_tau):
    net, p, pa = routed(build_mera_2d_b2, 1, "refined")
    with pytest.raises(ValueError, match="malformed.*delta_tau"):
        map_from_dict({**map_to_dict(p, pa), "delta_tau": delta_tau}, net)


def test_map_dict_version_guard():
    net, p, pa = routed(build_mera_1d, 1, "shifted")
    data = map_to_dict(p, pa)
    data["version"] = "map-v9"
    with pytest.raises(ValueError):
        map_from_dict(data, net)


def test_map_dict_rejects_missing_key_or_site():
    net, p, pa = routed(build_mera_2d_b2, 1, "shifted")
    data = map_to_dict(p, pa)
    del data["paths"]
    with pytest.raises(ValueError, match="malformed"):
        map_from_dict(data, net)
    data = map_to_dict(p, pa)
    data["sites"] = data["sites"][1:]
    with pytest.raises(ValueError, match="malformed"):
        map_from_dict(data, net)


# ------------------------------------------------------------ routing check

def test_check_routing_accepts_router_output():
    for build, layers, scheme in ((build_mera_1d, 3, "refined"),
                                  (build_mera_2d_b2, 2, "refined"),
                                  (build_mera_2d_b3, 1, "shifted")):
        net, p, pa = routed(build, layers, scheme, with_elements=False)
        assert check_routing(net, p, pa) is None


def test_check_routing_rejects_bad_paths():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined", with_elements=False)
    lid, chain = next((lid, c) for lid, c in sorted(pa.chains.items())
                      if len(c) >= 3 and any(0 in v for v in c))

    def verdict(new_chain):
        chains = dict(pa.chains)
        chains[lid] = tuple(new_chain)
        return check_routing(net, p, PathAssignment(chains))

    assert "does not join" in verdict(chain[:-1])
    assert "jumps" in verdict(chain[:1] + chain[2:])
    # out one step and straight back: unit steps, same endpoints
    a = chain[0]
    side = next(w for w in (a[:i] + (a[i] + d,) + a[i + 1:]
                            for i in range(len(a)) for d in (1, -1))
                if p.lattice.contains(w))
    assert "L1-shortest" in verdict((a, side) + chain)
    i = next(i for i, c in enumerate(chain) if 0 in c)
    v = chain[i]
    off = list(v)
    off[v.index(0)] = -1
    assert "leaves the host grid" in verdict(
        chain[:i + 1] + (tuple(off), v) + chain[i + 1:])
    # a corner cut by a half-integer vertex: both steps have L1 length 1
    k = next(k for k in range(1, len(chain) - 1)
             if chain[k - 1][0] != chain[k + 1][0]
             and chain[k - 1][1] != chain[k + 1][1])
    mid = tuple((x + y) / 2 for x, y in zip(chain[k - 1], chain[k + 1]))
    assert "leaves the host grid" in verdict(chain[:k] + (mid,)
                                             + chain[k + 1:])
    # integral floats and bools compare equal to ints but are no sites
    assert "leaves the host grid" in verdict(
        chain[:1] + (tuple(map(float, chain[1])),) + chain[2:])
    bools = next(k for k, w in enumerate(chain) if set(w) <= {0, 1})
    assert "leaves the host grid" in verdict(
        chain[:bools] + (tuple(map(bool, chain[bools])),)
        + chain[bools + 1:])
    chains = dict(pa.chains)
    del chains[lid]
    assert "do not cover" in check_routing(net, p,
                                           PathAssignment(chains))
    nid = next(iter(p.site_of))
    moved = {**p.site_of, nid: tuple(c + 1 for c in p.site_of[nid])}
    assert "do not match the scheme" in check_routing(
        net, Placement(p.scheme, p.lattice, p.delta_tau, moved, p.anchor_ids),
        pa)
    wider = LatticeSpec(p.lattice.dimension, p.lattice.length + 1,
                        p.lattice.branching, p.lattice.layers,
                        p.lattice.boundary)
    assert "host lattice" in check_routing(
        net, Placement(p.scheme, wider, p.delta_tau, p.site_of, p.anchor_ids),
        pa)
    # the scheme check has no fallback: what place refuses, raises
    for scheme, delta_tau in (("foo", 1), ("refined", 0), ("refined", -1)):
        with pytest.raises(ValueError):
            check_routing(net, dataclasses.replace(
                p, scheme=scheme, delta_tau=delta_tau), pa)
