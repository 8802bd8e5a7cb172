"""Placement schemes, deterministic routing, congestion, grid embedding.

The frozen congestion numbers in here pin the routing rule; a change to
the router that shifts any of them needs the full acceptance scan re-run,
not just an updated constant.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import embed_oracle
import tally_oracle
from tnkit import dense, mapping, stabilizer
from tnkit.lattice import LatticeSpec
from tnkit.mapping import (CongestionReport, PathAssignment, Peps,
                           Placement, assemble_peps, check_routing, chi_bound,
                           congestion_csv,
                           default_refined_offsets, detect_stacks,
                           line_density_estimate, map_from_dict, map_to_dict,
                           measured_chi, place, place_naive, place_refined,
                           place_shifted, read_map, route_lines,
                           scheme_members, SCHEMES, _tensor_site)
from tnkit.tns import (KIND_ANCHOR, KIND_CODES, MeraMeta, build_mera_1d,
                       build_mera_2d_b2, build_mera_2d_b3, build_ttn_example,
                       slot_labels, tns_from_dict, tns_to_dict)


def _orient(tns, line):
    """(source, target) node ids of a line as the router orders them: by
    layer, then kind code, then node id."""
    nodes = tns.nodes

    def key(nid):
        return nodes[nid].layer, KIND_CODES[nodes[nid].kind], nid

    na, nb = line.a[0], line.b[0]
    return (na, nb) if key(na) <= key(nb) else (nb, na)


def _anchor_rows(net):
    return net.kind == KIND_CODES[KIND_ANCHOR]


def routed(build, layers, scheme, **kw):
    net = build(layers, **kw) if build is not build_ttn_example \
        else build(layers)
    place = {"naive": place_naive, "shifted": place_shifted,
             "refined": place_refined}[scheme]
    p = place(net)
    return net, p, route_lines(net, p)


def _same_placement(a, b):
    return ((a.scheme, a.lattice, a.delta_tau, a.ids)
            == (b.scheme, b.lattice, b.delta_tau, b.ids)
            and np.array_equal(a.sites, b.sites)
            and np.array_equal(a.anchor, b.anchor))


def _paths(chains, d=2):
    """PathAssignment of a dict of vertex chains per line id, in the
    router's layout; d is the dimension of a layout without vertices."""
    ids = sorted(chains)
    rows = [v for lid in ids for v in chains[lid]]
    return PathAssignment(
        np.array(ids, np.int64),
        np.cumsum([0] + [len(chains[lid]) for lid in ids], dtype=np.int64),
        np.array(rows, np.int64).reshape(-1, len(rows[0]) if rows else d))


# ---------------------------------------------------------------- placement

def test_refined_offsets_shape():
    off = default_refined_offsets(2)
    assert off["w"] == (1, 1) and off["u2x2"] == (0, 0)
    assert off["u2x1"] == (1, 0) and off["u1x2"] == (0, 1)
    assert default_refined_offsets(1)["w"] == (1,)


def test_naive_piles_layers_at_origin():
    net = build_mera_1d(5)
    assert detect_stacks(place_naive(net)) >= 5


def test_shifted_keeps_stacks_within_meta():
    for build, layers in ((build_mera_1d, 3), (build_mera_2d_b2, 2),
                          (build_mera_2d_b3, 2), (build_ttn_example, 3)):
        net = build(layers)
        assert detect_stacks(place_shifted(net)) \
            <= net.meta.max_tensors_per_cell


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
    assert detect_stacks(p) == 2


def test_refined_anchor_column_avoids_tensor_sites():
    net = build_mera_2d_b2(2)
    p = place_refined(net)
    site_of, anchor_ids = p.site_of, p.anchor_ids
    tensor_sites = {site_of[nid] for nid in site_of if nid not in anchor_ids}
    for aid in anchor_ids:
        assert site_of[aid] not in tensor_sites


def test_refined_formula_degenerates_to_shifted():
    tau, cells = np.array([1, 2, 3]), np.array([[3], [0], [5]])
    assert np.array_equal(
        _tensor_site("refined", 2, tau, cells, 0, np.zeros((3, 1), int)),
        _tensor_site("shifted", 2, tau, cells, 0, None))


def test_shifted_refuses_tensor_at_layer_0():
    net = build_mera_1d(2, with_elements=False)
    i = int((net.kind != KIND_CODES[KIND_ANCHOR]).argmax())
    net.layer[i] = 0
    with pytest.raises(ValueError, match=f"{net.ids[i]} placed outside the "
                                         f"host lattice: layer 0 outside "
                                         f"\\[1, 2\\]"):
        place_shifted(net)


def test_refined_host_length_stays_within_int64():
    # the network's lattice as a tns-v1 header may give it: 2 * 2**61
    # fits in int64 and 2 * 2**62 does not; placing allocates per node,
    # not per host site
    net = build_mera_1d(2, with_elements=False)
    net.spec = LatticeSpec(1, 2 ** 61, 2, 61)
    p = place(net, "refined")
    assert p.lattice.length == 2 ** 62
    assert max(max(s) for s in p.site_of.values()) < 2 ** 62
    net.spec = LatticeSpec(1, 2 ** 62, 2, 62)
    with pytest.raises(ValueError, match=f"^a refined host of {2 ** 62} "
                                         f"\\* 2 sites per axis is past "
                                         f"int64$"):
        place(net, "refined")


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
    chains, site_of = pa.chains, p.site_of
    assert set(chains) == {ln.id for ln in net.lines}
    for line in net.lines:
        chain = chains[line.id]
        src, dst = _orient(net, line)
        s, t = site_of[src], site_of[dst]
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
    chains = pa.chains
    for line in net.lines:
        chain = chains[line.id]
        dirs = []
        for a, b in zip(chain, chain[1:]):
            d = tuple(y - x for x, y in zip(a, b))
            if not dirs or dirs[-1] != d:
                dirs.append(d)
        src, dst = _orient(net, line)
        gathers = (net.nodes[src].kind == "isometry"
                   and net.nodes[dst].variant == "u2x1")
        assert len(dirs) <= (3 if gathers else 2), line.id


# The scalar router, one line at a time, kept as the oracle of route_lines.

def _oracle_junction_axis(s, t):
    d = len(s)
    if d != 2:
        return d - 1
    dx, dy = abs(t[0] - s[0]), abs(t[1] - s[1])
    if dy == 0:
        return 0
    if dx == 0:
        return 1
    return 0 if dx >= 4 * dy else 1


def _oracle_apex_isometries(tns):
    per_layer = {}
    for node in tns.nodes.values():
        if node.kind == "isometry":
            per_layer.setdefault(node.layer, []).append(node.id)
    return frozenset(ids[0] for ids in per_layer.values() if len(ids) == 1)


def _oracle_approach_axis(tns, apex, src, dst, s, t):
    d = len(s)
    if d == 1:
        return 0
    if tns.nodes[src].kind == "isometry" and dst in apex:
        return _oracle_junction_axis(s, t)
    if (tns.nodes[dst].variant == "u2x1"
            and tns.nodes[src].kind == "physical-anchor"):
        return 0
    if (tns.nodes[src].variant == "u1x2"
            and tns.nodes[dst].kind == "isometry"
            and abs(t[0] - s[0]) > tns.spec.branching):
        return 0
    return d - 1


def _oracle_coarse_track(s_val, t_val, step):
    if t_val >= s_val:
        track = -((-s_val) // step) * step
        return track if track <= t_val else None
    track = (s_val // step) * step
    return track if track >= t_val else None


def _oracle_walk_to(chain, cur, wp, order):
    for ax in order:
        sgn = 1 if wp[ax] > cur[ax] else -1
        for cur[ax] in range(cur[ax] + sgn, wp[ax] + sgn, sgn):
            chain.append(tuple(cur))


def _oracle_route_one(tns, p, apex, src, dst, s, t):
    d = len(s)
    chain, cur = [s], list(s)
    if (d == 2 and tns.nodes[src].kind == "isometry"
            and tns.nodes[dst].variant == "u2x1"):
        step = p.lattice.branching ** tns.nodes[dst].layer
        track = _oracle_coarse_track(s[0], t[0], step)
        if track is not None:
            for wp in ((track,) + s[1:], (track,) + t[1:], t):
                _oracle_walk_to(chain, cur, wp, range(d))
            return tuple(chain)
    axis = _oracle_approach_axis(tns, apex, src, dst, s, t)
    _oracle_walk_to(chain, cur, t, [i for i in range(d) if i != axis] + [axis])
    return tuple(chain)


def _oracle_route_lines(tns, p):
    """Chains per line id, routed one line at a time."""
    chains = {}
    apex = _oracle_apex_isometries(tns)
    site_of = p.site_of
    for line in tns.lines:
        src, dst = _orient(tns, line)
        chains[line.id] = _oracle_route_one(tns, p, apex, src, dst,
                                            site_of[src], site_of[dst])
    return chains


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", [
    (build_mera_1d, 1), (build_mera_1d, 3), (build_mera_1d, 6),
    (build_mera_2d_b2, 1), (build_mera_2d_b2, 2), (build_mera_2d_b2, 4),
    (build_mera_2d_b3, 1), (build_mera_2d_b3, 2), (build_mera_2d_b3, 3),
    (build_ttn_example, 1), (build_ttn_example, 5)])
def test_router_matches_scalar_oracle(build, layers, scheme):
    kw = {} if build is build_ttn_example else {"with_elements": False}
    net, p, pa = routed(build, layers, scheme, **kw)
    expected = _oracle_route_lines(net, p)
    assert list(pa.chains) == sorted(expected)
    assert pa.chains == expected


def test_colocated_endpoints_give_empty_path():
    net, p, pa = routed(build_mera_2d_b2, 2, "shifted")
    chains, site_of = pa.chains, p.site_of
    empties = [lid for lid, chain in chains.items() if len(chain) == 1]
    assert empties
    for lid in empties:
        src, dst = _orient(net, net.lines[lid])
        assert chains[lid] == (site_of[src],) == (site_of[dst],)
    crossing = set(measured_chi(net, pa).leg_lines.tolist())
    assert crossing and not crossing & set(empties)


def test_router_matches_oracle_on_shuffled_lines():
    # line ids out of list order, and nodes in reverse insertion order
    data = tns_to_dict(build_mera_2d_b3(2, with_elements=False))
    data["lines"].reverse()
    data["nodes"].reverse()
    net = tns_from_dict(data)
    p = place_refined(net)
    pa = route_lines(net, p)
    assert list(pa.chains) == sorted(pa.chains)
    assert pa.chains == _oracle_route_lines(net, p)


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
def test_router_breaks_ties_by_node_id(scheme):
    # a top of isometry kind ties with the apex isometry on layer and
    # kind, and its id orders it first
    data = tns_to_dict(build_mera_2d_b2(2, with_elements=False))
    next(nd for nd in data["nodes"] if nd["id"] == "t:2:0,0")["kind"] = \
        "isometry"
    net = tns_from_dict(data)
    p = {"naive": place_naive, "shifted": place_shifted,
         "refined": place_refined}[scheme](net)
    pa = route_lines(net, p)
    top_line = net.lines[-1]
    assert _orient(net, top_line) == ("t:2:0,0", "w:2:0,0")
    assert pa.chains == _oracle_route_lines(net, p)


def test_router_writes_one_flat_vertex_array():
    net, p, pa = routed(build_mera_2d_b3, 2, "refined", with_elements=False)
    ids, offsets, vertices = pa.line_ids, pa.offsets, pa.vertices
    assert vars(pa).keys() == {"line_ids", "offsets", "vertices"}
    assert vertices.dtype == ids.dtype == offsets.dtype == np.int64
    assert vertices.shape[1] == 2
    assert ids.tolist() == sorted(ln.id for ln in net.lines)
    assert offsets[0] == 0 and offsets[-1] == len(vertices)
    assert (np.diff(offsets) >= 1).all()
    # the chains are made from the layout on each access, not kept
    chains = pa.chains
    assert pa.chains is not chains and "chains" not in vars(pa)
    for lid, a, b in zip(ids.tolist(), offsets, offsets[1:]):
        assert chains[lid] == tuple(map(tuple, vertices[a:b].tolist()))


def test_router_vertex_budget_boundary(monkeypatch):
    # mera1d T=3 shifted routes 53 vertices: a budget of 53 holds them
    net = build_mera_1d(3, with_elements=False)
    p = place_shifted(net)
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "53")
    assert len(route_lines(net, p).vertices) == 53
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "52")
    with pytest.raises(dense.ResourceLimitError,
                       match="^routed paths of 53 vertices exceed the "
                             "budget 52$"):
        route_lines(net, p)


def test_routing_is_deterministic():
    _, _, pa1 = routed(build_mera_2d_b3, 2, "refined")
    _, _, pa2 = routed(build_mera_2d_b3, 2, "refined")
    assert pa1.chains == pa2.chains


def test_gather_lines_ride_coarse_tracks():
    net, p, pa = routed(build_mera_2d_b3, 3, "refined")
    chains = pa.chains
    found = 0
    for line in net.lines:
        src, dst = _orient(net, line)
        if not (net.nodes[src].kind == "isometry"
                and net.nodes[dst].variant == "u2x1"):
            continue
        chain = chains[line.id]
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
        assert rep.interior().max_paths() == 2


def test_congestion_frozen_b3():
    net, _, pa = routed(build_mera_2d_b3, 2, "refined")
    rep = measured_chi(net, pa)
    assert rep.interior().max_paths() == 5
    assert rep.interior().log_chi_peps(2) == 5.0


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
    assert rep.interior().max_paths() <= rep.max_paths()
    assert rep.paths_through(((97,), (98,))) == 0
    assert rep.bond_dim_of(((97,), (98,))) == 1
    with pytest.raises(ValueError):
        rep.log_chi_peps(1)


def test_edge_queries_do_not_build_edge_lines():
    net, _, pa = routed(build_mera_2d_b2, 3, "refined")
    rep = measured_chi(net, pa)
    edge, count = rep.busiest_edge()
    a, b = edge
    assert rep.paths_through(edge) == count
    assert rep.interior().bond_dim_of(edge) >= 1
    assert rep.paths_through((b, a)) == 0
    assert rep.paths_through((a, tuple(c + 1 for c in b))) == 0
    assert rep.paths_through(((-5, -5), (-5, -4))) == 0
    assert "edge_lines" not in vars(rep)
    assert rep.paths_through(edge) == len(rep.edge_lines[edge])
    # pairs of another dimension, and an edge in the box no line crosses
    units = np.eye(len(rep.shape), dtype=int).tolist()
    box = itertools.product(*(range(o, o + n)
                              for o, n in zip(rep.origin, rep.shape)))
    free = next((lower, upper) for lower in box
                for upper in (tuple(map(sum, zip(lower, u))) for u in units)
                if (lower, upper) not in rep.edge_lines)
    for pair in (((0,), (1,)), ((0, 0, 0), (0, 0, 1)), free):
        assert (rep.paths_through(pair), rep.bond_dim_of(pair)) == (0, 1)


def test_no_lines_means_unit_bonds():
    net = build_mera_1d(1)
    rep = measured_chi(net, _paths({}, 1))
    for counted in (rep, rep.interior()):
        assert counted.max_paths() == 0
        assert counted.chi_peps() == 1
        assert counted.log_chi_peps(2) == 0.0


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


def _line_classes(net):
    """Dimension per line id, and the ids of the physical legs."""
    nodes = net.nodes
    return ({ln.id: ln.dim for ln in net.lines},
            {ln.id for ln in net.lines
             if KIND_ANCHOR in (nodes[ln.a[0]].kind, nodes[ln.b[0]].kind)})


def _assert_matches_oracle(rep, chains, net):
    """Every figure of rep equals the one taken from the reference tally
    of chains, with the line dimensions of net."""
    expected = _oracle_edge_lines(chains)
    dims, physical = _line_classes(net)
    rows = [f"{';'.join(map(str, a))},{';'.join(map(str, b))},{len(ls)},"
            f"{math.prod(dims[l] for l in ls)}"
            for (a, b), ls in expected.items()]
    assert "".join(congestion_csv(rep)) == \
        "\n".join(["edge_a,edge_b,paths,bond_dim"] + rows) + "\n"
    # the interior report: the oracle's lines less the physical ones, on
    # the edges that keep a line
    interior = {e: tuple(l for l in ls if l not in physical)
                for e, ls in expected.items()}
    interior = {e: ls for e, ls in interior.items() if ls}
    for counted, lines in ((rep, expected), (rep.interior(), interior)):
        assert counted.edge_lines == lines
        assert list(counted.edge_lines) == list(lines)
        paths = {e: len(ls) for e, ls in lines.items()}
        bonds = {e: math.prod(dims[l] for l in ls)
                 for e, ls in lines.items()}
        most = max(paths.values(), default=0)
        assert counted.max_paths() == most
        assert type(counted.max_paths()) is int
        chi = max(bonds.values(), default=1)
        assert counted.chi_peps() == chi
        assert counted.log_chi_peps(5) == math.log(chi) / math.log(5)
        busiest = next((e for e, n in paths.items() if n == most), None) \
            if most else None
        assert counted.busiest_edge() == (busiest, most)
        for e in expected:
            assert counted.paths_through(e) == paths.get(e, 0)
            assert counted.bond_dim_of(e) == bonds.get(e, 1)
        # pairs that are no edge: every edge reversed, and a non-unit pair
        zero = (0,) * len(rep.shape)
        for e in [(b, a) for a, b in expected] + [(zero, (2,) + zero[1:])]:
            assert counted.paths_through(e) == 0
            assert counted.bond_dim_of(e) == 1


@pytest.mark.parametrize("build,layers,scheme", [
    (build_mera_2d_b2, 3, "refined"), (build_mera_2d_b3, 2, "refined"),
    (build_mera_1d, 4, "shifted")])
def test_report_maxima_match_brute_force(build, layers, scheme):
    net, _, pa = routed(build, layers, scheme, chi=5, phys_dim=3,
                        with_elements=False)
    rep = measured_chi(net, pa)
    # physical legs and interior lines differ in dimension
    dims, physical = _line_classes(net)
    assert {dims[l] for l in physical} == {3}
    assert 5 in dims.values()
    _assert_matches_oracle(rep, pa.chains, net)


def test_report_bond_dimensions_past_int64_stay_exact():
    net, _, pa = routed(build_mera_1d, 6, "refined", chi=100000,
                        with_elements=False)
    rep = measured_chi(net, pa)
    assert rep.chi_peps() == 922337203685477580800000
    assert rep.chi_peps() > 2 ** 63
    _assert_matches_oracle(rep, pa.chains, net)


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
    {0: ((np.int64(0), np.int64(0)), (np.int64(0), np.int64(1))),
     3: ((np.int64(1), 0), (np.int64(2), 0), (2, np.int64(1)))},
], ids=["3d", "negative", "length-one", "vertexless", "empty", "numpy-ints"])
def test_hand_made_chains_match_oracle(chains):
    net = build_mera_1d(2, chi=5, phys_dim=3, with_elements=False)
    _assert_matches_oracle(measured_chi(net, _paths(chains)), chains, net)


@pytest.mark.parametrize("chain", [((0, 0), (2, 0)), ((0, 0), (1, 1)),
                                   ((0, 0), (0, 0)),
                                   ((4, 0), (3, 0), (5, 0))],
                         ids=["jump", "diagonal", "standing", "back-jump"])
def test_tally_rejects_non_unit_steps(chain):
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: chain}
    with pytest.raises(ValueError, match="line 3 makes a non-unit step"):
        measured_chi(net, _paths(chains))


@pytest.mark.parametrize("lid,empty", [(-1, False), (99, False), (0, True)],
                         ids=["-1", "99", "no-lines"])
def test_tally_rejects_unknown_line(lid, empty):
    net = build_mera_1d(2, with_elements=False)
    if empty:   # no nodes and no lines: an empty line table
        data = tns_to_dict(net)
        data["nodes"], data["lines"] = [], []
        net = tns_from_dict(data)
    chains = {0: ((0, 0), (0, 1)), lid: ((1, 0), (1, 1))}
    with pytest.raises(ValueError, match=f"path of line {lid} names no line "
                                         f"of the network"):
        measured_chi(net, _paths(chains))


def _edited_path(chain):
    """A b2 T=1 shifted map-v1 document with the path of its second line
    replaced by chain, and its network."""
    net, p, pa = routed(build_mera_2d_b2, 1, "shifted", with_elements=False)
    data = map_to_dict(p, pa)
    data["paths"][1][1] = chain
    return data, net


@pytest.mark.parametrize("chain", [((0.5, 0), (1, 0)),
                                   ((0, 0), (np.float64(0.5), 1)),
                                   ((2.0, 0), (1, 0)), ((2 ** 63, 0),)],
                         ids=["half", "numpy-half", "integral-float",
                              "past-int64"])
def test_tally_rejects_non_integer_coordinates(chain):
    # the tally reads int64 arrays; np.fromiter would truncate (0.5, 0)
    # to (0, 0), so such a vertex is refused where map-v1 is read and
    # never reaches a tally
    data, net = _edited_path(chain)
    with pytest.raises(ValueError, match="malformed map-v1 document: .*"
                       "coordinate (is not an integer|does not fit in 64 "
                       "bits)"):
        map_from_dict(data, net)


def test_tally_rejects_boxes_past_int64():
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: ((2 ** 62, 0), (2 ** 62, 1))}
    with pytest.raises(ValueError, match="too large a box"):
        measured_chi(net, _paths(chains))


def test_tally_refuses_boxes_past_the_budget(monkeypatch):
    # the coverage counts fill the box the paths span, here 1025 x 1
    # sites by two line classes, past a budget of 1024 amplitudes
    net = build_mera_1d(2, with_elements=False)
    chains = {0: ((0, 0), (0, 1)), 3: ((1024, 0), (1024, 1))}
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "1024")
    with pytest.raises(dense.ResourceLimitError,
                       match="^tally box of 1025 sites by 2 line classes "
                             "exceeds the budget 1024$"):
        measured_chi(net, _paths(chains))
    chains[3] = ((500, 0), (500, 1))
    assert measured_chi(net, _paths(chains)).shape == (501, 1)


def test_one_class_per_line_matches_oracle():
    # a distinct dimension per line puts every line in a class of its own
    net, _, pa = routed(build_mera_1d, 5, "shifted", with_elements=False)
    net.line_dim[:] = 2 + net.line_id
    assert len(net.lines) > 63
    _assert_matches_oracle(measured_chi(net, pa), pa.chains, net)


@pytest.mark.parametrize("chain", [((4,), (5,)), ((0, 0, 0), (1,))],
                         ids=["other-line", "within-line"])
def test_tally_rejects_mixed_dimensions(chain):
    # the tally's layout has D coordinates per vertex; ((0, 0, 0), (1,))
    # has as many coordinates as two 2-D vertices, and either chain is
    # refused where map-v1 is read
    data, net = _edited_path(chain)
    with pytest.raises(ValueError, match="site or path vertex is not "
                                         "2-dimensional"):
        map_from_dict(data, net)


def test_merged_report_matches_oracle():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined", chi=5, phys_dim=3,
                        with_elements=False)
    f = p.refine_factor
    blocked = {}
    for lid, chain in pa.chains.items():
        blocks = [tuple(c // f for c in v) for v in chain]
        blocked[lid] = tuple(b for i, b in enumerate(blocks)
                             if i == 0 or b != blocks[i - 1])
    _assert_matches_oracle(measured_chi(net, pa).blocked(f), blocked, net)


def _assert_matches_crossings(rep, ref):
    """rep has the box, class table, used edges, per-class counts and
    edge_lines of the per-crossing reference tally ref."""
    edge_keys, counts = ref.edge_counts()
    assert (rep.origin, rep.shape) == (ref.origin, ref.shape)
    np.testing.assert_array_equal(rep.class_table, ref.class_table)
    np.testing.assert_array_equal(rep.edge_keys, edge_keys)
    np.testing.assert_array_equal(rep.counts, counts)
    expected = ref.edge_lines()
    assert rep.edge_lines == expected
    assert list(rep.edge_lines) == list(expected)
    assert int(rep.counts.sum()) == len(ref.keys) >= len(rep.leg_keys)


def _iso3d(layers, **_):
    from test_cli import _isometry_tree_3d
    return tns_from_dict(_isometry_tree_3d(layers))


def _rerouted(pa, rng):
    """pa with every chain replaced by a random L1-shortest monotone path
    between its ends: the unit steps along each axis, shuffled, so most
    chains zig-zag in many legs."""
    chains = {}
    for lid, chain in pa.chains.items():
        s, t = np.array(chain[0]), np.array(chain[-1])
        axes = np.repeat(np.arange(len(s)), np.abs(t - s))
        rng.shuffle(axes)
        steps = np.zeros((len(axes), len(s)), np.int64)
        steps[np.arange(len(axes)), axes] = np.sign(t - s)[axes]
        chains[lid] = tuple(map(tuple, (s + np.cumsum(
            np.concatenate([[0 * s], steps]), axis=0)).tolist()))
    return _paths(chains, pa.vertices.shape[1])


FAMILIES = [(build_mera_1d, 3), (build_mera_2d_b2, 2), (build_mera_2d_b3, 2),
            (build_ttn_example, 5), (_iso3d, 2)]


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", FAMILIES,
                         ids=["1d", "b2", "b3", "ttn", "iso3d"])
def test_legs_tally_matches_crossing_oracle(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme, chi=3, phys_dim=5,
                        with_elements=False)
    # the routed paths, then zig-zag re-routings that the routing check
    # accepts, each tallied and blocked onto grids 2 and 3 times coarser
    rng = np.random.default_rng(layers + 7 * len(scheme))
    for paths in [pa] + [_rerouted(pa, rng) for _ in range(3)]:
        assert check_routing(net, p, paths) is None
        rep = measured_chi(net, paths)
        ref = tally_oracle.crossings(net, paths)
        _assert_matches_crossings(rep, ref)
        for f in (2, 3):
            _assert_matches_crossings(rep.blocked(f), ref.blocked(f))


@pytest.mark.parametrize("build,layers", [(build_mera_1d, 3),
                                          (build_mera_2d_b2, 2),
                                          (build_mera_2d_b3, 2)])
def test_blocked_legs_match_crossing_oracle(build, layers):
    net, p, pa = routed(build, layers, "refined", chi=3, phys_dim=5,
                        with_elements=False)
    _assert_matches_crossings(
        measured_chi(net, pa).blocked(p.refine_factor),
        tally_oracle.crossings(net, pa).blocked(p.refine_factor))


def _report_arrays(rep):
    return (rep.edge_keys, rep.counts, rep.class_table, rep.leg_lines,
            rep.leg_keys, rep.leg_lengths, rep.leg_classes)


def _assert_same_report(rep, ref):
    assert (rep.origin, rep.shape) == (ref.origin, ref.shape)
    for got, expected in zip(_report_arrays(rep), _report_arrays(ref)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("build,layers", [(build_mera_1d, 4),
                                          (build_mera_2d_b2, 2),
                                          (build_mera_2d_b3, 2)],
                         ids=["1d", "b2", "b3"])
def test_blocking_composes(build, layers):
    # blocking by 1 keeps every edge and leg; blocking by a then by b is
    # blocking by a * b
    net, _, pa = routed(build, layers, "refined", with_elements=False)
    rep = measured_chi(net, pa)
    _assert_same_report(rep.blocked(1), rep)
    for a, b in itertools.product((2, 3), repeat=2):
        _assert_same_report(rep.blocked(a).blocked(b), rep.blocked(a * b))


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", [
    *itertools.product((build_mera_1d, build_mera_2d_b2, build_mera_2d_b3),
                       (1, 2, 3)), (build_ttn_example, 3)])
def test_interior_commutes_with_blocking(build, layers, scheme):
    net, _, pa = routed(build, layers, scheme, with_elements=False)
    rep = measured_chi(net, pa)
    interior = rep.interior()
    # the same box, and edges of the report's own
    assert (interior.origin, interior.shape) == (rep.origin, rep.shape)
    assert np.isin(interior.edge_keys, rep.edge_keys).all()
    for f in (1, 2, 3):
        # blocked tallies a box of its own, so the two are compared by
        # edges, not keys
        a, b = interior.blocked(f), rep.blocked(f).interior()
        assert list(a.edge_lines.items()) == list(b.edge_lines.items())
        assert (a.max_paths(), a.chi_peps(), a.busiest_edge()) == \
            (b.max_paths(), b.chi_peps(), b.busiest_edge())


@pytest.mark.parametrize("factor", [0, -1, 2.0, True])
def test_blocked_refuses_factors_that_are_not_positive_ints(factor):
    net, _, pa = routed(build_mera_1d, 2, "refined", with_elements=False)
    with pytest.raises(ValueError, match=f"^blocking factor {factor!r} is "
                                         f"no int >= 1$"):
        measured_chi(net, pa).blocked(factor)


@pytest.mark.parametrize("build,layers", [(build_mera_1d, 3),
                                          (build_mera_2d_b2, 2)])
def test_legs_tally_matches_crossing_oracle_on_vertex_edits(build, layers):
    # edited chains: the same report, or the same non-unit step; a vertex
    # far off the grid makes both a non-unit step and a box past int64,
    # which the legs tally reports in that order
    net, p, pa = routed(build, layers, "shifted", with_elements=False)
    rng = np.random.default_rng(layers)
    raised = 0
    for edited in _vertex_edits(pa, p.lattice.length, rng, 100):
        try:
            ref = tally_oracle.crossings(net, edited)
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as got:
                measured_chi(net, edited)
            if "too large a box" not in str(exc):
                assert str(got.value) == str(exc)
            continue
        _assert_matches_crossings(measured_chi(net, edited), ref)
    assert 0 < raised < 100


def test_congestion_csv_deterministic():
    net, _, pa = routed(build_mera_1d, 2, "shifted")
    rep = measured_chi(net, pa)
    text = "".join(congestion_csv(rep))
    assert text.splitlines()[0] == "edge_a,edge_b,paths,bond_dim"
    assert text == "".join(congestion_csv(measured_chi(net, pa)))
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
    assert rep.blocked(1).edge_lines == rep.edge_lines
    assert rep.blocked(1).chi_peps() == rep.chi_peps()
    open_cells = {l[1] for _, labels in peps.all_factors() for l in labels
                  if isinstance(l, tuple) and l[0] == "p"}
    assert open_cells == set(map(tuple, net.cell[_anchor_rows(net)].tolist()))


@pytest.mark.parametrize("make", [
    lambda: assemble_peps(*routed(build_mera_1d, 1, "shifted", seed=3)),
    lambda: dense.contract_to_statevector(build_mera_1d(1, seed=3)),
    lambda: stabilizer.init_zero(3),
    lambda: stabilizer.run_ttn_example(3)],
    ids=["Peps", "StateVector", "StabilizerState", "TtnRun"])
def test_array_records_compare_by_identity(make):
    # records of arrays: == compares identity, never array truth values
    x, y = make(), make()
    assert type(x) is type(y)
    assert (x == y) is False
    assert (x == x) is True


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


def test_refined_merge_to_physical_grid():
    # the refined embedding holds the network's state, and blocking by the
    # refine factor takes its sites and its tally to the physical grid
    net, p, pa = routed(build_mera_2d_b2, 1, "refined")
    peps = assemble_peps(net, p, pa)
    assert peps.lattice != net.spec
    f = p.refine_factor
    assert all(net.spec.contains(tuple(map(int, s)))
               for s in peps.sites // f)
    blocked = measured_chi(net, pa).blocked(f)
    assert all(net.spec.contains(v) for e in blocked.edge_lines for v in e)
    ref = dense.contract_to_statevector(net)
    emb = dense.contract_to_statevector(peps)
    assert dense.states_equal(ref, emb, tol=1e-12)


@pytest.mark.parametrize("build,layers,scheme", [
    (build_mera_1d, 3, "refined"), (build_mera_2d_b2, 2, "refined"),
    (build_mera_2d_b3, 1, "shifted")])
def test_peps_is_a_factor_list_and_a_site_column(build, layers, scheme,
                                                 monkeypatch):
    net, p, pa = routed(build, layers, scheme)

    def tally(*_):
        raise AssertionError("the embedding takes no tally")

    # assembly neither takes nor reads a tally
    monkeypatch.setattr(mapping, "measured_chi", tally)
    peps = assemble_peps(net, p, pa)
    assert [f.name for f in dataclasses.fields(Peps)] == [
        "lattice", "physical_dim", "factors", "sites"]
    with pytest.raises(AttributeError):
        peps.site_factors = {}
    assert peps.all_factors() is peps.factors
    assert peps.sites.dtype == np.int64
    assert peps.sites.shape == (len(peps.factors), net.spec.dimension)
    # the tracer counts factors and wires from the view
    view = peps.site_factors
    assert list(view) == sorted(view)
    assert sum(map(len, view.values())) == len(peps.all_factors())
    # each site's list: its tensors in node order, then its wires in line
    # order, a line's wires along its path
    node_of = {id(net.elements[i]): i
               for i in (~_anchor_rows(net)).nonzero()[0].tolist()}

    # segment codes rise with line order and with position along a path,
    # so a wire's outgoing segment orders it
    def key(factor):
        array, labels = factor
        if id(array) in node_of:
            return 0, node_of[id(array)]
        return 1, labels[-1]

    assert sum(id(a) in node_of for a, _ in peps.factors) == len(node_of)
    for factors in view.values():
        keys = list(map(key, factors))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _assert_renamed(labels, reference):
    """labels equal reference up to a one-to-one renaming that fixes every
    ("p", site) label; every other label is an int."""
    forward, backward = {}, {}
    assert len(labels) == len(reference)
    for new, old in zip(labels, reference):
        assert forward.setdefault(new, old) == old
        assert backward.setdefault(old, new) == new
        if isinstance(new, tuple) or old[0] == "p":
            assert new == old and new[0] == "p"
        else:
            assert type(new) is int


def _assert_matches_embed_oracle(net, p, pa):
    peps = assemble_peps(net, p, pa)
    ref = embed_oracle.assemble_peps(net, p, pa)
    _assert_renamed(list(slot_labels(net)), embed_oracle.slot_labels(net))
    assert len(peps.factors) == len(ref.factors)
    tensors = int((~_anchor_rows(net)).sum())
    for (a, _), (b, _) in zip(peps.factors[:tensors], ref.factors):
        assert a is b
    for (a, _), (b, _) in zip(peps.factors[tensors:], ref.factors[tensors:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    _assert_renamed([l for _, ls in peps.factors for l in ls],
                    [l for _, ls in ref.factors for l in ls])
    assert peps.sites.dtype == ref.sites.dtype
    assert np.array_equal(peps.sites, ref.sites)
    if net.elements[-1] is not None and net.physical_dim ** (
            int(_anchor_rows(net).sum())) <= 2 ** 16:
        assert (dense.contract_to_statevector(peps).amplitudes.tobytes()
                == dense.contract_to_statevector(ref).amplitudes.tobytes())


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", [
    (build_mera_1d, 1), (build_mera_1d, 2), (build_mera_1d, 3),
    (build_mera_1d, 4), (build_mera_2d_b2, 1), (build_mera_2d_b2, 2),
    (build_mera_2d_b3, 1), (build_mera_2d_b3, 2), (build_ttn_example, 3)])
def test_assembly_matches_embed_oracle(build, layers, scheme):
    # naive maps stack tensors on one site, so some lines have length 0
    net, p, pa = routed(build, layers, scheme, seed=5)
    assert scheme != "naive" or (np.diff(pa.offsets) == 1).any()
    _assert_matches_embed_oracle(net, p, pa)


@pytest.mark.parametrize("build,layers,scheme", [
    (build_mera_2d_b2, 2, "shifted"), (build_mera_2d_b3, 1, "refined")])
def test_rerouted_read_map_matches_embed_oracle(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme, seed=1234567)
    zigzag = _rerouted(pa, np.random.default_rng(layers))
    doc = json.loads(json.dumps(map_to_dict(p, zigzag)))
    read_p, read_pa = map_from_dict(doc, net)
    assert check_routing(net, read_p, read_pa) is None
    assert not np.array_equal(read_pa.vertices, pa.vertices)
    _assert_matches_embed_oracle(net, read_p, read_pa)


def test_refined_merge_bond_dimension_b2():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    assert measured_chi(net, pa).blocked(p.refine_factor).chi_peps() == 16


@pytest.mark.parametrize("build,layers", [(build_mera_2d_b2, 2),
                                          (build_mera_2d_b3, 1),
                                          (build_mera_1d, 3)])
def test_refined_merge_matches_coarse_grained_recount(build, layers):
    net, p, pa = routed(build, layers, "refined", with_elements=False)
    f = p.refine_factor
    blocked = measured_chi(net, pa).blocked(f)
    expected = {}
    chains = pa.chains
    for lid in sorted(chains):
        blocks = [tuple(c // f for c in v) for v in chains[lid]]
        for a, b in zip(blocks, blocks[1:]):
            if a != b:
                expected.setdefault((min(a, b), max(a, b)), []).append(lid)
    assert blocked.edge_lines == \
        {e: tuple(ids) for e, ids in expected.items()}
    assert list(blocked.edge_lines) == sorted(expected)
    assert blocked.chi_peps() == max(
        math.prod(net.lines[l].dim for l in ids)
        for ids in expected.values())


# ------------------------------------------------------------ serialization

def test_map_dict_roundtrip():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    data = map_to_dict(p, pa)
    assert data["offsets"] == dict(sorted(default_refined_offsets(2).items()))
    assert map_to_dict(place_shifted(net), pa)["offsets"] is None
    # offsets are derived from the scheme; only the scheme's are read
    for offsets in (data["offsets"], json.loads(json.dumps(data["offsets"]))):
        p2, pa2 = map_from_dict({**data, "offsets": offsets}, net)
        assert _same_placement(p2, p)
        assert pa2.chains == pa.chains
    for offsets in (None, {"w": [0, 0]}, [1, 2]):
        with pytest.raises(ValueError, match="offsets differ from the ones "
                                             "the refined scheme writes"):
            map_from_dict({**data, "offsets": offsets}, net)


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", [
    (build_mera_1d, 3), (build_mera_2d_b2, 2), (build_mera_2d_b3, 2)])
def test_map_dict_reads_the_router_arrays(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme, with_elements=False)
    doc = map_to_dict(p, pa)
    assert map_to_dict(*map_from_dict(doc, net)) == doc
    text = json.dumps(doc)
    read = json.loads(text)
    p2, pa2 = map_from_dict(read, net)
    assert json.loads(json.dumps(map_to_dict(p2, pa2))) == read
    assert json.dumps(map_to_dict(p2, pa2)) == text
    assert _same_placement(p2, p) and p2.ids == net.ids
    pairs = [(p2.sites, p.sites), (p2.anchor, p.anchor)] + [
        (getattr(pa2, name), getattr(pa, name))
        for name in ("line_ids", "offsets", "vertices")]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)
    assert pa2.vertices.dtype == np.int64
    # sites and paths in another order read into the same arrays
    read["sites"].reverse()
    read["paths"].reverse()
    p3, pa3 = map_from_dict(read, net)
    assert _same_placement(p3, p)
    for name in ("line_ids", "offsets", "vertices"):
        assert np.array_equal(getattr(pa3, name), getattr(pa, name))


@pytest.mark.parametrize("build,layers,scheme", [
    (build_mera_1d, 3, "refined"), (build_mera_2d_b2, 2, "shifted"),
    (build_mera_2d_b3, 2, "refined")])
def test_read_map_needs_no_network(build, layers, scheme):
    # the reader returns the document's own values in document order;
    # map_from_dict only binds the sites to the network's nodes
    net, p, pa = routed(build, layers, scheme, with_elements=False)
    doc = json.loads(json.dumps(map_to_dict(p, pa)))
    got_scheme, host, ids, coords, paths = read_map(doc)
    assert (got_scheme, host) == (p.scheme, p.lattice)
    assert ids == sorted(p.ids)
    assert coords.dtype == np.int64
    order = [p.ids.index(nid) for nid in ids]
    assert np.array_equal(coords, p.sites[order])
    for name in ("line_ids", "offsets", "vertices"):
        assert np.array_equal(getattr(paths, name), getattr(pa, name))


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("build", [build_mera_1d, build_mera_2d_b2])
def test_read_map_accepts_exactly_the_members_map_to_dict_writes(build,
                                                                 scheme):
    # the scheme's own delta_tau and offsets are read; those of every
    # scheme in either dimension, whole or one member at a time, are
    # refused unless they are the same
    net, p, pa = routed(build, 2, scheme, with_elements=False)
    doc = json.loads(json.dumps(map_to_dict(p, pa)))
    fixed = scheme_members(scheme, net.spec.dimension)
    assert list(fixed) == ["delta_tau", "offsets"]
    own = {key: doc[key] for key in fixed}
    assert own == json.loads(json.dumps(fixed))
    assert fixed["delta_tau"] == p.delta_tau == SCHEMES[scheme][1]
    refused = 0
    for other in (scheme_members(s, d) for s in SCHEMES for d in (1, 2)):
        for edit in (other, *({key: value} for key, value in other.items())):
            edited = {**doc, **json.loads(json.dumps(edit))}
            if {key: edited[key] for key in fixed} == own:
                assert read_map(edited)[0] == scheme
                continue
            refused += 1
            with pytest.raises(ValueError, match=f"^malformed map-v1 "
                                                 f"document: TypeError "
                                                 f"delta_tau or offsets "
                                                 f"differ from the ones the "
                                                 f"{scheme} scheme writes$"):
                read_map(edited)
    assert refused >= 3


@pytest.mark.parametrize("delta_tau", ["1", 1.0, True, None])
def test_map_dict_rejects_non_integer_delta_tau(delta_tau):
    net, p, pa = routed(build_mera_2d_b2, 1, "refined")
    with pytest.raises(ValueError, match="malformed.*delta_tau"):
        map_from_dict({**map_to_dict(p, pa), "delta_tau": delta_tau}, net)


def test_map_dict_rejects_repeated_path_line_id():
    net, p, pa = routed(build_mera_1d, 2, "refined")
    data = map_to_dict(p, pa)
    data["paths"].append([data["paths"][0][0], data["paths"][1][1]])
    with pytest.raises(ValueError, match="repeated path line id"):
        map_from_dict(data, net)


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
    first = data["sites"][0]
    # a site too few, a site too many (for an unknown node or a second
    # one for a node) is no placement of the network
    for sites, message in (
            (data["sites"][1:], f"no site for node {first[0]!r}"),
            (data["sites"] + [["ghost", first[1]]],
             "site for unknown node 'ghost'"),
            (data["sites"] + [first], f"repeated site id {first[0]!r}")):
        with pytest.raises(ValueError, match="malformed map-v1 document: "
                                             + message):
            map_from_dict({**data, "sites": sites}, net)


def test_map_dict_rejects_non_integer_vertices():
    # a vertex off the integer grid is refused where map-v1 is read
    net, p, pa = routed(build_mera_2d_b2, 2, "refined", with_elements=False)
    data = map_to_dict(p, pa)
    entry = next(e for e in data["paths"]
                 if len(e[1]) >= 3 and any(0 in v for v in e[1]))
    chain = entry[1]
    # a corner cut by a half-integer vertex: both steps have L1 length 1
    k = next(k for k in range(1, len(chain) - 1)
             if chain[k - 1][0] != chain[k + 1][0]
             and chain[k - 1][1] != chain[k + 1][1])
    mid = tuple((x + y) / 2 for x, y in zip(chain[k - 1], chain[k + 1]))
    # integral floats and bools compare equal to ints but are no sites
    bools = next(k for k, w in enumerate(chain) if set(w) <= {0, 1})
    for edited in (chain[:k] + [mid] + chain[k + 1:],
                   chain[:1] + [tuple(map(float, chain[1]))] + chain[2:],
                   chain[:bools] + [tuple(map(bool, chain[bools]))]
                   + chain[bools + 1:]):
        entry[1] = edited
        with pytest.raises(ValueError, match="path vertex coordinate is "
                                             "not an integer"):
            map_from_dict(data, net)
    entry[1] = chain
    nid, site = data["sites"][0]
    for value in (float(site[0]), 0.5, "1", True, 2 ** 63):
        data["sites"][0] = (nid, (value,) + site[1:])
        with pytest.raises(ValueError, match="coordinate (is not an "
                                             "integer|does not fit)"):
            map_from_dict(data, net)


# ------------------------------------------------------------ routing check

def _oracle_check_routing(tns, p, paths):
    """The routing check one line and one vertex at a time, on the
    placement's site dict and the paths' chains; the oracle of
    check_routing."""
    expected = place(tns, p.scheme)
    if expected.lattice != p.lattice:
        return "host lattice does not match the scheme"
    chains, site_of = paths.chains, p.site_of
    if expected.site_of != site_of:
        return "site positions do not match the scheme"
    if set(chains) != set(tns.line_id.tolist()):
        return "paths do not cover the contraction lines"
    for line in tns.lines:
        lid, chain = line.id, chains[line.id]
        s, t = map(site_of.__getitem__, _orient(tns, line))
        if not chain or chain[0] != s or chain[-1] != t:
            return f"path of line {lid} does not join its endpoints"
        off = next((v for v in chain if not p.lattice.contains(v)), None)
        if off is not None:
            return f"path of line {lid} leaves the host grid at {off}"
        for a, b in zip(chain, chain[1:]):
            if sum(abs(x - y) for x, y in zip(a, b)) != 1:
                return f"path of line {lid} jumps"
        if len(chain) - 1 != sum(abs(x - y) for x, y in zip(s, t)):
            return f"path of line {lid} is not L1-shortest"
    return None


def _checked(net, p, pa):
    """check_routing's verdict, asserted equal to the oracle's."""
    verdict = check_routing(net, p, pa)
    assert verdict == _oracle_check_routing(net, p, pa)
    return verdict


def test_check_routing_accepts_router_output():
    for build, layers, scheme in ((build_mera_1d, 3, "refined"),
                                  (build_mera_2d_b2, 2, "refined"),
                                  (build_mera_2d_b3, 1, "shifted")):
        net, p, pa = routed(build, layers, scheme, with_elements=False)
        assert _checked(net, p, pa) is None


def test_check_routing_rejects_bad_paths():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined", with_elements=False)
    chains = pa.chains
    lid, chain = next((lid, c) for lid, c in sorted(chains.items())
                      if len(c) >= 3 and any(0 in v for v in c))

    def verdict(new_chain):
        return _checked(net, p, _paths({**chains, lid: tuple(new_chain)}))

    assert "does not join" in verdict(chain[:-1])
    assert "does not join" in verdict(())
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
    # half-integer, float and bool vertices: see
    # test_map_dict_rejects_non_integer_vertices
    rest = dict(chains)
    del rest[lid]
    assert "do not cover" in _checked(net, p, _paths(rest))
    assert "do not cover" in _checked(net, p, _paths({**chains, 999: ()}))
    moved = p.sites.copy()
    moved[0] += 1
    assert "do not match the scheme" in _checked(
        net, dataclasses.replace(p, sites=moved), pa)
    # a site too many or too few: see test_map_dict_rejects_missing_key_or_site
    wider = LatticeSpec(p.lattice.dimension, p.lattice.length + 1,
                        p.lattice.branching, p.lattice.layers,
                        p.lattice.boundary)
    assert "host lattice" in _checked(
        net, dataclasses.replace(p, lattice=wider), pa)
    # the scheme check has no fallback: what place refuses, raises
    with pytest.raises(ValueError, match="^unknown placement scheme 'foo'$"):
        check_routing(net, dataclasses.replace(p, scheme="foo"), pa)


def _vertex_edits(pa, length, rng, count):
    """count copies of pa, each with one vertex moved by a step or two,
    moved off the grid, removed or repeated."""
    for _ in range(count):
        vertices, offsets = pa.vertices.copy(), pa.offsets.copy()
        j, axis = (int(rng.integers(n)) for n in vertices.shape)
        what = int(rng.integers(4))
        if what == 0:
            vertices[j, axis] += rng.choice([-2, -1, 1, 2])
        elif what == 1:
            vertices[j, axis] = rng.choice([-1, length, -2 ** 62])
        elif what == 2:
            vertices = np.delete(vertices, j, axis=0)
            offsets[offsets > j] -= 1
        else:
            vertices = np.insert(vertices, j, vertices[j], axis=0)
            offsets[offsets > j] += 1
        yield PathAssignment(pa.line_ids, offsets, vertices)


@pytest.mark.parametrize("scheme", ["naive", "shifted", "refined"])
@pytest.mark.parametrize("build,layers", [
    (build_mera_1d, 3), (build_mera_2d_b2, 2), (build_mera_2d_b3, 1)])
def test_check_routing_matches_oracle_on_vertex_edits(build, layers, scheme):
    net, p, pa = routed(build, layers, scheme, with_elements=False)
    rng = np.random.default_rng(layers + len(scheme) + 10 * len(net.ids))
    verdicts = set()
    for edited in _vertex_edits(pa, p.lattice.length, rng, 200):
        verdict = _checked(net, p, edited)
        verdicts.add(verdict.split(" ", 4)[-1].split(" at ")[0]
                     if verdict else None)
    assert {"does not join its endpoints", "leaves the host grid",
            "jumps"} <= verdicts
