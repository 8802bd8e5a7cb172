"""Swap-automaton pair tracker: motion rule, symmetries, entropy law."""

import math

import numpy as np
import pytest

from tnkit import qca
from tnkit.lattice import LatticeSpec


def test_initial_pairs_perfect_matching():
    for dim, length in ((1, 8), (2, 4), (2, 6)):
        ps = qca.initial_pairs(dim, length)
        assert len(ps.pairs) == length ** dim // 2
        endpoints = [s for pair in ps.pairs for s in pair]
        assert len(set(endpoints)) == length ** dim
        for a, b in ps.pairs:
            assert a <= b


def test_initial_pairs_1d_layout():
    ps = qca.initial_pairs(1, 8)
    assert ps.pairs == (((0,), (7,)), ((1,), (2,)), ((3,), (4,)),
                        ((5,), (6,)))


def test_grid_validation():
    with pytest.raises(ValueError):
        qca.initial_pairs(1, 5)
    with pytest.raises(ValueError):
        qca.initial_pairs(1, 2)
    with pytest.raises(ValueError):
        qca.initial_pairs(0, 4)
    with pytest.raises(ValueError):
        qca.sublayer_swaps(1, 8, 2)


def test_step_worked_example():
    spec = LatticeSpec(2, 6, 2, 1, "periodic")
    ps = qca.PairSet(spec, (((2, 2), (3, 3)),))
    out = qca.evolve(ps, 1)
    assert out.pairs == (((0, 0), (5, 5)),)


def test_step_equals_sublayer_composition():
    # one layer = odd-aligned swaps then even-aligned swaps
    for dim, length in ((1, 8), (2, 6)):
        layer = {s: s for s in LatticeSpec(dim, length).sites()}
        for offset in (1, 0):
            swaps = dict(qca.sublayer_swaps(dim, length, offset))
            swaps.update({b: a for a, b in swaps.items()})
            layer = {s: swaps.get(t, t) for s, t in layer.items()}
        perm = dict(layer)
        for layers in (1, 2, 3):
            for site, image in perm.items():
                assert image == qca._advance(site, length, layers), \
                    (layers, site, image)
            perm = {s: layer[t] for s, t in perm.items()}


def test_evolve_equals_repeated_single_layers():
    # the closed form wraps around the torus for L=8 and 12 within T=6
    for dim in (1, 2):
        for length in (8, 12, 32):
            ps = qca.initial_pairs(dim, length)
            stepped = ps
            for layers in range(7):
                assert qca.evolve(ps, layers).pairs == stepped.pairs, \
                    (dim, length, layers)
                stepped = qca.evolve(stepped, 1)


def test_evolve_rejects_negative_layers():
    with pytest.raises(ValueError, match="layers must be >= 0"):
        qca.evolve(qca.initial_pairs(1, 8), -1)


def test_motion_preserves_parity():
    ps = qca.evolve(qca.initial_pairs(2, 8), 3)
    for pair in ps.pairs:
        for site in pair:
            for c in site:
                assert 0 <= c < 8


def test_translation_covariance():
    length = 8

    def shift(ps, delta):
        moved = tuple(tuple(tuple((c + d) % length for c, d in zip(s, delta))
                            for s in pair) for pair in ps.pairs)
        return qca.PairSet(ps.spec, qca._canonical(moved))

    ps = qca.initial_pairs(2, length)
    delta = (2, 4)
    assert qca.evolve(shift(ps, delta), 2).pairs \
        == shift(qca.evolve(ps, 2), delta).pairs


def test_quarter_turn_covariance():
    length = 8

    def turn(ps):
        moved = tuple(tuple((length - 1 - s[1], s[0]) for s in pair)
                      for pair in ps.pairs)
        return qca.PairSet(ps.spec, qca._canonical(moved))

    ps = qca.initial_pairs(2, length)
    assert qca.evolve(turn(ps), 2).pairs == turn(qca.evolve(ps, 2)).pairs


def test_separation_grows_four_root_d_per_layer():
    # endpoints move independently, so a single tracked pair suffices
    for dim in (1, 2):
        ps0 = qca.initial_pairs(dim, 32)
        single = qca.PairSet(ps0.spec, (ps0.pairs[1],))
        prev = None
        for layers in (1, 2, 3):
            sep = qca.pair_separation(qca.evolve(single, layers).pairs[0], 32)
            if prev is not None:
                assert sep - prev == pytest.approx(4 * math.sqrt(dim))
            prev = sep


def test_entropy_region_validation():
    ps = qca.initial_pairs(2, 4)
    with pytest.raises(ValueError):
        qca.entropy_across(ps, [(4, 0)])
    assert qca.entropy_across(ps, []) == 0


def test_entropy_complement_symmetry():
    ps = qca.evolve(qca.initial_pairs(2, 8), 2)
    region = qca.half_cut_region(2, 8)
    inside = set(region)
    complement = [s for s in ps.spec.sites() if s not in inside]
    assert qca.entropy_across(ps, region) \
        == qca.entropy_across(ps, complement)


def test_half_cut_entropy_law():
    # S = 2 L (2T - 1) for the straight half cut while 4T - 2 <= L / 2
    for length in (12, 16, 20):
        region = qca.half_cut_region(2, length)
        ps = qca.initial_pairs(2, length)
        for layers in (1, 2):
            ps_t = qca.evolve(ps, layers)
            assert qca.entropy_across(ps_t, region) \
                == 2 * length * (2 * layers - 1)


def test_half_cut_region_size():
    assert len(qca.half_cut_region(2, 6)) == 18
    assert len(qca.half_cut_region(1, 8)) == 4


def test_random_connected_region_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        region = qca.random_connected_region(2, 6, rng)
        cells = set(region)
        assert 1 <= len(cells) < 36
        # connectivity under periodic wrap
        seen = {region[0]}
        frontier = [region[0]]
        while frontier:
            x, y = frontier.pop()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nbr = ((x + dx) % 6, (y + dy) % 6)
                if nbr in cells and nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        assert seen == cells


def test_random_connected_region_seeded_and_sized():
    a = qca.random_connected_region(2, 6, np.random.default_rng(12), size=9)
    b = qca.random_connected_region(2, 6, np.random.default_rng(12), size=9)
    assert a == b and len(a) == 9
    with pytest.raises(ValueError):
        qca.random_connected_region(2, 6, np.random.default_rng(0), size=36)


def test_cost_estimate_worked_values():
    assert qca.cost_estimate(1, 8, 3).local_obs_cost == 192
    assert qca.cost_estimate(2, 8, 2).local_obs_cost == 512
    est = qca.cost_estimate(2, 8, 2)
    assert est.state_cost == 256
    with pytest.raises(ValueError):
        qca.cost_estimate(2, 8, 0)


def test_cost_estimate_huge_layers_reported_as_inf():
    est = qca.cost_estimate(2, 1024, 40)
    assert est.state_cost == math.inf
    assert est.state_cost_log2 == 3200
