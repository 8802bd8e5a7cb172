"""Placement schemes, deterministic routing, congestion, grid embedding.

The frozen congestion numbers in here pin the routing rule; a change to
the router that shifts any of them needs the full acceptance scan re-run,
not just an updated constant.
"""

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
    with pytest.raises(ValueError):
        place_refined(net, offsets={"u": (2, 0), "w": (1, 1)})


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
        assert pa.length_of(line.id) == l1
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
        assert pa.path_of(lid) == ()
        assert pa.length_of(lid) == 0


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
    for include_physical in (True, False):
        counted = [[l for l in lines
                    if include_physical or l not in rep.physical_lines]
                   for lines in rep.edge_lines.values()]
        chi = max(math.prod(rep.line_dims[l] for l in ls) for ls in counted)
        assert rep.max_paths(include_physical) == max(map(len, counted))
        assert rep.chi_peps(include_physical) == chi
        assert rep.log_chi_peps(5, include_physical) == \
            math.log(chi) / math.log(5)


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
    assert peps.chi_peps == rep.chi_peps()
    for edge in rep.edge_lines:
        assert peps.bond_dim_of(edge) == rep.bond_dim_of(edge)
    assert set(peps.physical_host) == {a.cell for a in net.anchors()}


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
    merged = contract_refined_to_normal(peps, 1)
    assert merged.lattice == net.spec
    assert merged.refine_factor == 1
    ref = dense.contract_to_statevector(net)
    emb = dense.contract_to_statevector(merged)
    assert dense.states_equal(ref, emb, tol=1e-12)
    with pytest.raises(ValueError):
        contract_refined_to_normal(peps, 2)


def test_refined_merge_bond_dimension_b2():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    merged = contract_refined_to_normal(assemble_peps(net, p, pa), 1)
    assert merged.chi_peps == 16


# ------------------------------------------------------------ serialization

def test_map_dict_roundtrip():
    net, p, pa = routed(build_mera_2d_b2, 2, "refined")
    data = map_to_dict(p, pa)
    p2, pa2 = map_from_dict(data, net)
    assert p2.scheme == p.scheme
    assert p2.delta_tau == p.delta_tau
    assert p2.offsets == p.offsets
    assert p2.site_of == p.site_of
    assert p2.lattice == p.lattice
    assert pa2.chains == pa.chains


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
    chains = dict(pa.chains)
    del chains[lid]
    assert "do not cover" in check_routing(net, p,
                                           PathAssignment(chains))
    nid = next(iter(p.site_of))
    moved = {**p.site_of, nid: tuple(c + 1 for c in p.site_of[nid])}
    assert "do not match the scheme" in check_routing(
        net, Placement(p.scheme, p.lattice, p.delta_tau, moved, p.anchor_ids,
                       p.offsets), pa)
    wider = LatticeSpec(p.lattice.dimension, p.lattice.length + 1,
                        p.lattice.branching, p.lattice.layers,
                        p.lattice.boundary)
    assert "host lattice" in check_routing(
        net, Placement(p.scheme, wider, p.delta_tau, p.site_of, p.anchor_ids,
                       p.offsets), pa)
