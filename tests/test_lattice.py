"""Grid specs, and the scale sublattices of the placements the pipeline
runs: layer-tau tensors sit on coordinates of b-adic valuation tau - 1."""

import itertools

import pytest

from tnkit.lattice import LatticeSpec
from tnkit.mapping import place, place_refined, place_shifted
from tnkit.tns import (build_mera_1d, build_mera_2d_b2, build_mera_2d_b3,
                       build_ttn_example)

NETWORKS = ((build_mera_1d, 4), (build_mera_2d_b2, 3), (build_mera_2d_b3, 2),
            (build_ttn_example, 3))


def valuation(n, b):
    """Largest k such that b**k divides n > 0."""
    k = 0
    while n % b == 0:
        n, k = n // b, k + 1
    return k


def placements():
    """(network, placement) for the shifted and refined schemes."""
    for build, layers in NETWORKS:
        net = build(layers)
        for scheme in ("shifted", "refined"):
            yield net, place(net, scheme)


def layer_sites(net, p):
    """Distinct tensor sites per layer; anchors are not tensors."""
    out = {}
    for nid, site in p.site_of.items():
        if nid not in p.anchor_ids:
            out.setdefault(net.nodes[nid].layer, set()).add(site)
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0, 4)
    with pytest.raises(ValueError):
        LatticeSpec(1, 0)
    with pytest.raises(ValueError):
        LatticeSpec(1, 4, branching=1)
    with pytest.raises(ValueError):
        LatticeSpec(1, 4, layers=-1)
    with pytest.raises(ValueError):
        LatticeSpec(1, 4, boundary="twisted")


def test_spec_shape_and_sites():
    spec = LatticeSpec(2, 3)
    assert spec.shape == (3, 3)
    assert spec.num_sites == 9
    sites = list(spec.sites())
    assert len(sites) == 9
    assert sites == sorted(sites)
    assert spec.contains((2, 2))
    assert not spec.contains((3, 0))
    assert not spec.contains((0,))


def test_mera_host_refinement():
    for build, layers in NETWORKS:
        net = build(layers)
        b = net.spec.branching
        assert place_shifted(net).lattice == net.spec
        for delta_tau in (1, 2):
            host = place_refined(net, delta_tau=delta_tau).lattice
            assert host.length == b ** (layers + delta_tau)
            assert host.layers == layers + delta_tau


def test_sublattice_examples():
    net = build_mera_1d(3)
    assert layer_sites(net, place_shifted(net)) == {
        1: {(1,), (3,), (5,), (7,)}, 2: {(2,), (6,)}, 3: {(4,)}}


def test_sublattice_valuation_and_size():
    for net, p in placements():
        b, length = net.spec.branching, net.spec.length
        for tau, sites in layer_sites(net, p).items():
            for site in sites:
                assert all(valuation(c, b) == tau - 1 for c in site), site
            if p.scheme == "shifted":
                # every cell of the layer is used: the whole sublattice
                coords = range(b ** (tau - 1), length, b ** tau)
                assert sites == set(itertools.product(
                    coords, repeat=net.spec.dimension))


def test_sublattices_disjoint():
    for net, p in placements():
        seen = {}
        for tau, sites in layer_sites(net, p).items():
            for site in sites:
                assert site not in seen, (p.scheme, site, seen.get(site), tau)
                seen[site] = tau


def test_cell_recovers_sublattice_index():
    for net, p in placements():
        b = net.spec.branching
        for nid, site in p.site_of.items():
            if nid in p.anchor_ids:
                continue
            node = net.nodes[nid]
            step = b ** (node.layer + p.delta_tau)
            assert tuple(c // step for c in site) == node.cell, nid
