"""Swap-automaton pair tracker: motion rule, symmetries, entropy law.

The tracker runs on row-major index arrays; the site-tuple versions below
are the implementations it replaced, kept as oracles it must match.
"""

import itertools
import math

import numpy as np
import pytest

from tnkit import qca
from tnkit.lattice import LatticeSpec


def _advance(site, length, layers):
    return tuple((c + 2 * layers) % length if c % 2
                 else (c - 2 * layers) % length for c in site)


def _canonical(pairs):
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def _sublayer_swaps(dimension, length, offset):
    out = []
    for base in itertools.product(range(offset, length, 2), repeat=dimension):
        for c in itertools.product((0, 1), repeat=dimension):
            if c[0] == 1:
                continue
            a = tuple((b + ci) % length for b, ci in zip(base, c))
            b2 = tuple((b + 1 - ci) % length for b, ci in zip(base, c))
            out.append((a, b2))
    return out


def _evolve(ps, layers):
    length = ps.spec.length
    return _canonical((_advance(a, length, layers),
                       _advance(b, length, layers)) for a, b in ps.pairs)


def _entropy_across(ps, region):
    inside = set(region)
    for site in inside:
        if not ps.spec.contains(site):
            raise ValueError(f"site {site} outside the lattice")
    return sum((a in inside) != (b in inside) for a, b in ps.pairs)


def _random_connected_region(dimension, length, rng, size=None):
    total = length ** dimension
    if size is None:
        size = int(rng.integers(1, total))
    start = tuple(int(c) for c in rng.integers(0, length, size=dimension))
    region = {start}
    frontier = [start]
    while len(region) < size:
        i = int(rng.integers(0, len(frontier)))
        site = frontier[i]
        nbrs = []
        for axis in range(dimension):
            for delta in (-1, 1):
                nbr = list(site)
                nbr[axis] = (nbr[axis] + delta) % length
                nbr = tuple(nbr)
                if nbr not in region:
                    nbrs.append(nbr)
        if not nbrs:
            del frontier[i]
            continue
        pick = nbrs[int(rng.integers(0, len(nbrs)))]
        region.add(pick)
        frontier.append(pick)
    return sorted(region)


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


@pytest.mark.parametrize("pair,message", [
    (((2.5, 2), (3, 3)), "site (2.5, 2) outside the lattice"),
    (((True, 2), (3, 3)), "site (True, 2) outside the lattice"),
    (((2, 2), (6, 3)), "site (6, 3) outside the lattice"),
    (((2, 2),), "pair ((2, 2),) is not two sites"),
    (((1, 1), (2, 2), (3, 3)), "pair ((1, 1), (2, 2), (3, 3)) is not two "
                               "sites"),
])
def test_pair_set_refuses_pairs_that_are_not_two_sites(pair, message):
    # an int64 cast would read 2.5 as 2 and True as 1
    spec = LatticeSpec(2, 6, 2, 1, "periodic")
    with pytest.raises(ValueError) as err:
        qca.PairSet(spec, (pair,))
    assert str(err.value) == message


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
                assert image == _advance(site, length, layers), \
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
        return qca.PairSet(ps.spec, _canonical(moved))

    ps = qca.initial_pairs(2, length)
    delta = (2, 4)
    assert qca.evolve(shift(ps, delta), 2).pairs \
        == shift(qca.evolve(ps, 2), delta).pairs


def test_quarter_turn_covariance():
    length = 8

    def turn(ps):
        moved = tuple(tuple((length - 1 - s[1], s[0]) for s in pair)
                      for pair in ps.pairs)
        return qca.PairSet(ps.spec, _canonical(moved))

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


def test_sublayer_swaps_match_tuple_oracle():
    for dim, lengths in ((1, range(4, 17, 2)), (2, range(4, 17, 2)),
                         (3, (4, 6, 8))):
        for length in lengths:
            for offset in (0, 1):
                swaps = qca.sublayer_swaps(dim, length, offset)
                assert swaps == _sublayer_swaps(dim, length, offset)
                a, b = qca.sublayer_indices(dim, length, offset)
                assert a.dtype == b.dtype == np.int64
                assert a.tolist() == [qca.site_index(s, length)
                                      for s, _ in swaps]
                assert b.tolist() == [qca.site_index(s, length)
                                      for _, s in swaps]


def test_initial_pairs_match_tuple_oracle():
    for dim in (1, 2, 3):
        for length in (4, 6, 8):
            ps = qca.initial_pairs(dim, length)
            assert ps.pairs == _canonical(_sublayer_swaps(dim, length, 1))
            assert ps.ends.tolist() == [
                [qca.site_index(a, length), qca.site_index(b, length)]
                for a, b in ps.pairs]


def test_evolve_matches_tuple_oracle():
    for dim in (1, 2):
        for length in range(4, 65, 2):
            ps = qca.initial_pairs(dim, length)
            for layers in range(10):
                out = qca.evolve(ps, layers)
                assert out.pairs == _evolve(ps, layers), (dim, length, layers)
            # the endpoint indices it carries are those of its pairs
            assert out.ends.tolist() == qca.PairSet(
                ps.spec, out.pairs).ends.tolist()


def test_evolve_matches_tuple_oracle_on_partial_pair_sets():
    # any set of pairs, not only perfect matchings, in any order
    rng = np.random.default_rng(11)
    spec = LatticeSpec(2, 10, 2, 1, "periodic")
    sites = list(spec.sites())
    for _ in range(20):
        k = int(rng.integers(0, 20))
        picks = rng.permutation(len(sites))[:2 * k]
        pairs = tuple((sites[picks[2 * j + 1]], sites[picks[2 * j]])
                      for j in range(k))
        ps = qca.PairSet(spec, pairs)
        for layers in (0, 1, 7, 2 ** 70):
            assert qca.evolve(ps, layers).pairs == _evolve(ps, layers)


def test_entropy_across_matches_oracle_on_random_regions():
    rng = np.random.default_rng(21)
    for dim, length in ((1, 8), (1, 64), (2, 6), (2, 16), (2, 24)):
        ps0 = qca.initial_pairs(dim, length)
        sites = list(ps0.spec.sites())
        for layers in range(5):
            ps = qca.evolve(ps0, layers)
            for _ in range(6):
                k = int(rng.integers(0, len(sites) + 1))
                region = [sites[i] for i in rng.choice(len(sites), size=k)]
                assert qca.entropy_across(ps, region) \
                    == _entropy_across(ps, region)
                assert qca.entropy_across(ps, iter(region)) \
                    == _entropy_across(ps, region)


@pytest.mark.parametrize("site", [
    (4, 0), (0, 4), (-1, 0), (0, 0, 0), (0,), (0.0, 1), (1, 1.5),
    (True, 1), (1, False), (np.int64(1), 0), (2 ** 70, 0)])
def test_entropy_across_rejects_sites_off_the_lattice(site):
    ps = qca.initial_pairs(2, 4)
    region = [(0, 0), site, (1, 1)]
    with pytest.raises(ValueError, match="outside the lattice") as err:
        qca.entropy_across(ps, region)
    assert str(err.value) == f"site {site} outside the lattice"
    with pytest.raises(ValueError, match="outside the lattice"):
        _entropy_across(ps, region)


# the benchmark's region shapes first, then small grids that wrap often
REGION_SHAPES = ((1, 256), (1, 512), (2, 24), (2, 32), (2, 48),
                 (1, 4), (1, 6), (2, 4), (2, 6), (2, 10), (3, 4), (3, 6))


def test_random_connected_region_matches_oracle():
    seeds = np.random.default_rng(31).integers(0, 2 ** 31, size=200)
    for case, seed in enumerate(seeds.tolist()):
        dim, length = REGION_SHAPES[case % len(REGION_SHAPES)]
        total = length ** dim
        size = None if case % 2 else 1 + seed % min(total - 1, 600)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qca.random_connected_region(dim, length, rng, size=size)
        assert got == _random_connected_region(dim, length, ref, size=size), \
            (dim, length, seed, size)
        assert all(type(c) is int for site in got for c in site)
        # the same draws were made: the generators are left in one state
        assert rng.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


# bounds at both ends of numpy's 32-bit rule; 2**31 + 1 and 3 * 2**30
# reject about a half and a quarter of their words, so the redraw runs
BOUNDS = (1, 2, 3, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32)


@pytest.mark.parametrize("m", BOUNDS)
def test_bounded_draw_equals_scalar_integers(m):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    words = qca._Words(rng)
    got = [words.bounded(m) for _ in range(400)]
    read = words.done + words.pos
    words.close()
    assert got == [int(ref.integers(0, m)) for _ in range(400)]
    assert rng.bit_generator.state == ref.bit_generator.state
    if m == 1:
        assert read == 0
    elif m in (2 ** 31 + 1, 3 * 2 ** 30):
        assert read > 400
    else:
        assert read == 400


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox,
                                           np.random.SFC64])
def test_random_connected_region_matches_oracle_on_bit_generators(
        bit_generator):
    for case, (dim, length) in enumerate(REGION_SHAPES):
        rng = np.random.Generator(bit_generator(100 + case))
        ref = np.random.Generator(bit_generator(100 + case))
        for _ in range(2):   # the second region starts where the first left
            assert qca.random_connected_region(dim, length, rng) == \
                _random_connected_region(dim, length, ref)
        assert rng.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)


def test_random_connected_region_refills_its_block(monkeypatch):
    monkeypatch.setattr(qca, "_BLOCK", 7)
    sizes = []
    draw = qca._Words._draw

    def recording(self, n):
        sizes.append(n)
        return draw(self, n)

    monkeypatch.setattr(qca._Words, "_draw", recording)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    got = qca.random_connected_region(2, 10, rng, size=60)
    assert got == _random_connected_region(2, 10, ref, size=60)
    assert rng.bit_generator.state == ref.bit_generator.state
    # the picks read several blocks, and the replay draws the words read
    # again in as many chunks; no draw holds more than 7 words
    reads = len(sizes) // 2
    assert reads > 3 and sizes[:reads] == [7] * reads
    assert max(sizes[reads:]) == 7 and sum(sizes[reads:]) > 7 * (reads - 1)


def test_site_budget(monkeypatch):
    from tnkit.dense import ResourceLimitError
    # a budget of 64 * 64 amplitudes holds 64 sites: a ring of 64 sites,
    # not one of 66 or a 10 x 10 grid
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(64 * 64))
    rng = np.random.default_rng(0)
    assert len(qca.half_cut_region(1, 64)) == 32
    qca.initial_pairs(1, 64)
    assert len(qca.random_connected_region(1, 64, rng, size=5)) == 5
    for call in (lambda: qca.half_cut_region(1, 66),
                 lambda: qca.initial_pairs(2, 10),
                 lambda: qca.sublayer_swaps(2, 10, 0),
                 lambda: qca.random_connected_region(2, 10, rng)):
        with pytest.raises(ResourceLimitError, match="site budget 64"):
            call()
    # the grid is checked first: a bad length stays a ValueError
    with pytest.raises(ValueError):
        qca.half_cut_region(1, 67)
