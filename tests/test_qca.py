"""Swap-automaton pair tracker: motion rule, symmetries, entropy law.

The tracker runs on row-major index arrays; the site-tuple versions below
are the implementations it replaced, kept as oracles it must match.
Regions are index arrays, turned into site tuples (_sites_of) only where
an oracle takes them.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tnkit import qca, stabilizer
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


def _pair_set(spec, pairs):
    """PairSet of site-tuple pairs, through their row-major indices."""
    coords = np.array(pairs, dtype=np.int64).reshape(-1, 2, spec.dimension)
    return qca.PairSet(spec, qca.site_indices(coords, spec.length))


def _sites_of(region, dimension, length):
    """Site tuples of row-major indices, in their order."""
    sites = list(itertools.product(range(length), repeat=dimension))
    return [sites[i] for i in np.asarray(region).tolist()]


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
    ps = _pair_set(spec, (((2, 2), (3, 3)),))
    out = qca.evolve(ps, 1)
    assert out.pairs == (((0, 0), (5, 5)),)


@pytest.mark.parametrize("ends,message", [
    (np.array([[14.0, 21.0]]), "ends entry 14.0 is not an int64 index"),
    (np.array([[True, False]]), "ends entry True is not an int64 index"),
    (np.array([[14, -1]]), "ends index -1 outside [0, 36)"),
    (np.array([[14, 36]]), "ends index 36 outside [0, 36)"),
    (np.array([[14, 21, 28]]), "ends must be a (P, 2) array of site "
                               "indices, not of shape (1, 3)"),
    (np.array([14, 21]), "ends must be a (P, 2) array of site indices, "
                         "not of shape (2,)")],
    ids=["float", "bool", "negative", "past-the-grid", "three-ends",
         "one-axis"])
def test_pair_set_refuses_ends_that_are_not_index_pairs(ends, message):
    # an int64 cast would read 14.0 as 14 and True as 1
    spec = LatticeSpec(2, 6, 2, 1, "periodic")
    with pytest.raises(ValueError) as err:
        qca.PairSet(spec, ends)
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
        return _pair_set(ps.spec, _canonical(moved))

    ps = qca.initial_pairs(2, length)
    delta = (2, 4)
    assert qca.evolve(shift(ps, delta), 2).pairs \
        == shift(qca.evolve(ps, 2), delta).pairs


def test_quarter_turn_covariance():
    length = 8

    def turn(ps):
        moved = tuple(tuple((length - 1 - s[1], s[0]) for s in pair)
                      for pair in ps.pairs)
        return _pair_set(ps.spec, _canonical(moved))

    ps = qca.initial_pairs(2, length)
    assert qca.evolve(turn(ps), 2).pairs == turn(qca.evolve(ps, 2)).pairs


def test_separation_grows_four_root_d_per_layer():
    # endpoints move independently, so a single tracked pair suffices
    for dim in (1, 2):
        ps0 = qca.initial_pairs(dim, 32)
        single = _pair_set(ps0.spec, (ps0.pairs[1],))
        prev = None
        for layers in (1, 2, 3):
            sep = qca.pair_separation(qca.evolve(single, layers).pairs[0], 32)
            if prev is not None:
                assert sep - prev == pytest.approx(4 * math.sqrt(dim))
            prev = sep


def test_entropy_region_validation():
    ps = qca.initial_pairs(2, 4)
    with pytest.raises(ValueError):
        qca.entropy_across(ps, [16])
    assert qca.entropy_across(ps, []) == 0


def test_entropy_complement_symmetry():
    ps = qca.evolve(qca.initial_pairs(2, 8), 2)
    region = qca.half_cut_region(2, 8)
    complement = np.setdiff1d(np.arange(64), region)
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


def test_half_cut_region_is_the_first_half_of_the_indices():
    for dim, length in ((1, 8), (2, 6), (3, 4)):
        region = qca.half_cut_region(dim, length)
        assert region.dtype == np.int64
        assert _sites_of(region, dim, length) == [
            s for s in itertools.product(range(length), repeat=dim)
            if s[0] < length // 2]


def test_random_connected_region_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        region = _sites_of(qca.random_connected_region(2, 6, rng), 2, 6)
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
    assert a.tolist() == b.tolist() and len(a) == 9
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
            assert out.ends.tolist() == _pair_set(
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
        ps = _pair_set(spec, pairs)
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
                region = rng.choice(len(sites), size=k)
                want = _entropy_across(ps, [sites[i] for i in region])
                assert qca.entropy_across(ps, region) == want
                assert qca.entropy_across(ps, region.tolist()) == want


@pytest.mark.parametrize("site", [
    (4, 0), (0, 4), (-1, 0), (0, 0, 0), (0,), (0.0, 1), (1, 1.5),
    (True, 1), (1, False), (np.int64(1), 0), (2 ** 70, 0)])
def test_entropy_across_rejects_sites_off_the_lattice(site):
    # entropy_across takes site indices, so no region of site tuples;
    # the site check of stabilizer.region_qubits names the site
    ps = qca.initial_pairs(2, 4)
    region = [(0, 0), site, (1, 1)]
    with pytest.raises(ValueError):
        qca.entropy_across(ps, region)
    with pytest.raises(ValueError, match="outside the lattice") as err:
        stabilizer.region_qubits(region, 4)
    assert str(err.value) == f"site {site} outside the lattice"
    with pytest.raises(ValueError, match="outside the lattice"):
        _entropy_across(ps, region)


@pytest.mark.parametrize("region,message", [
    ([0, -1], "region index -1 outside [0, 16)"),
    ([16, 3], "region index 16 outside [0, 16)"),
    (np.array([2 ** 63], dtype=np.uint64),
     "region index 9223372036854775808 outside [0, 16)"),
    ([2 ** 70], "region entry 1180591620717411303424 is not an int64 index"),
    (np.array([1.0, 2.0]), "region entry 1.0 is not an int64 index"),
    ([0.5], "region entry 0.5 is not an int64 index"),
    ([True, False], "region entry True is not an int64 index"),
    ([(0, 1)], "region must be a 1-d array of site indices, "
               "not of shape (1, 2)"),
    (3, "region must be a 1-d array of site indices, not of shape ()")],
    ids=["negative", "past-the-grid", "past-int64", "past-int64-int",
         "float-array", "fraction", "bool", "site-tuple", "scalar"])
def test_entropy_across_refuses_bad_indices(region, message):
    ps = qca.initial_pairs(2, 4)
    with pytest.raises(ValueError) as err:
        qca.entropy_across(ps, region)
    assert str(err.value) == message


# the benchmark's region shapes first, then small grids that wrap often
REGION_SHAPES = ((1, 256), (1, 512), (2, 24), (2, 32), (2, 48),
                 (1, 4), (1, 6), (2, 4), (2, 6), (2, 10), (3, 4), (3, 6))


def test_random_connected_region_matches_oracle():
    seeds = np.random.default_rng(31).integers(0, 2 ** 31, size=200)
    cases = []
    for case, seed in enumerate(seeds.tolist()):
        dim, length = REGION_SHAPES[case % len(REGION_SHAPES)]
        total = length ** dim
        size = None if case % 2 else 1 + seed % min(total - 1, 600)
        cases.append((dim, length, seed, size))
    # both ends on the small grids: size 1 draws no pick, and total - 1
    # drains the frontier down to sites with no neighbour left outside
    for seed, (dim, length) in enumerate(REGION_SHAPES[5:]):
        cases += [(dim, length, seed, 1),
                  (dim, length, seed, length ** dim - 1)]
    for dim, length, seed, size in cases:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = qca.random_connected_region(dim, length, rng, size=size)
        want = _random_connected_region(dim, length, ref, size=size)
        assert got.tolist() == [qca.site_index(s, length) for s in want], \
            (dim, length, seed, size)
        assert got.dtype == np.int64
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
            got = qca.random_connected_region(dim, length, rng)
            want = _random_connected_region(dim, length, ref)
            assert got.tolist() == [qca.site_index(s, length) for s in want]
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
    assert _sites_of(got, 2, 10) == _random_connected_region(2, 10, ref,
                                                              size=60)
    assert rng.bit_generator.state == ref.bit_generator.state
    # the picks read several blocks, and the replay draws the words read
    # again in as many chunks; no draw holds more than 7 words
    reads = len(sizes) // 2
    assert reads > 3 and sizes[:reads] == [7] * reads
    assert max(sizes[reads:]) == 7 and sum(sizes[reads:]) > 7 * (reads - 1)


def test_random_connected_region_redraws_as_bounded_does(monkeypatch):
    """Most words zeroed: a low half of 0 is below every m, and numpy's
    rule rejects it unless m is a power of two, so most picks go through
    the redraw of _Words.bounded while the other words take the sampler's
    inlined accept test.  The oracle draws every pick through bounded on
    the same words, so the regions and the words read agree only if both
    paths keep one position in the block."""
    monkeypatch.setattr(qca, "_BLOCK", 5)
    draw, close = qca._Words._draw, qca._Words.close
    read = []

    def zeroed(self, n):
        words = draw(self, n)
        words[words % 4 != 0] = 0
        return words

    def counted(self):
        read.append(self.done + self.pos)
        close(self)

    monkeypatch.setattr(qca._Words, "_draw", zeroed)
    monkeypatch.setattr(qca._Words, "close", counted)

    class Bounded:
        """integers as the oracle calls it: the start from the generator,
        then each scalar draw by bounded on the words after it."""

        def __init__(self, rng):
            self.rng, self.words, self.draws = rng, None, 0

        def integers(self, low, high, size=None):
            if size is not None:
                return self.rng.integers(low, high, size=size)
            self.words = self.words or qca._Words(self.rng)
            self.draws += high - low > 1
            return low + self.words.bounded(high - low)

    for case, (dim, length, size) in enumerate(
            ((1, 64, 40), (2, 10, 60), (2, 24, 300), (3, 4, 50))):
        rng = np.random.default_rng(60 + case)
        ref = Bounded(np.random.default_rng(60 + case))
        got = qca.random_connected_region(dim, length, rng, size=size)
        want = _random_connected_region(dim, length, ref, size=size)
        ref.words.close()
        assert got.tolist() == [qca.site_index(s, length) for s in want]
        assert read[-2] == read[-1] > ref.draws
        assert rng.bit_generator.state == ref.rng.bit_generator.state


def test_random_connected_region_refuses_a_size_that_is_not_an_integer():
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    for size in (2.5, 3.0, True, np.bool_(True), "3", np.float64(3)):
        with pytest.raises(ValueError) as err:
            qca.random_connected_region(2, 6, rng, size=size)
        assert str(err.value) == f"size must be an integer, not {size!r}"
        assert rng.bit_generator.state == state
    assert qca.random_connected_region(2, 6, rng, size=np.int64(9)).tolist() \
        == qca.random_connected_region(2, 6, np.random.default_rng(6),
                                       size=9).tolist()


def test_neighbour_table_built_in_chunks(monkeypatch):
    """The table built 7 rows at a time, so rows straddle the chunks,
    against np.roll of the grid; each site's index is one int object."""
    monkeypatch.setattr(qca, "_ROWS", 7)
    # past 256 sites, where CPython no longer shares small ints itself
    for dim, length in ((1, 6), (2, 18), (3, 8)):
        qca._neighbours.cache_clear()
        table = qca._neighbours(dim, length)
        grid = np.arange(length ** dim).reshape((length,) * dim)
        assert table == [tuple(row) for row in np.stack(
            [np.roll(grid, -delta, axis).ravel() for axis in range(dim)
             for delta in (-1, 1)], axis=1).tolist()]
        shared = {}
        assert all(shared.setdefault(q, q) is q
                   for row in table for q in row)
    qca._neighbours.cache_clear()


def test_sampler_keeps_the_most_recent_neighbour_table():
    qca._neighbours.cache_clear()
    rng = np.random.default_rng(4)
    for dim, length in ((2, 6), (2, 6), (3, 4), (2, 6)):
        qca.random_connected_region(dim, length, rng)
    info = qca._neighbours.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
    # a ring's region is an arc: it neither reads nor replaces the table
    qca.random_connected_region(1, 8, rng)
    assert qca._neighbours.cache_info() == info


def _by_general_route(length, rng, size):
    """random_connected_region(1, length, rng, size) through _grown, the
    route of D >= 2, in place of the arc."""
    if size is None:
        size = int(rng.integers(1, length))
    start = int(rng.integers(0, length, size=1)[0])
    words = qca._Words(rng)
    region = qca._grown(words, start, 1, length, size)
    words.close()
    return region


@pytest.mark.parametrize("block", [None, 5, 7])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox,
                                           np.random.SFC64])
def test_arc_matches_the_general_route(monkeypatch, bit_generator, block):
    """The arc makes the general route's draws on every ring of
    REGION_SHAPES, and at full blocks on 2**16 sites, at both ends of the
    sizes; with _BLOCK at 5 or 7 the blocks refill, and no block, the
    first included, holds more than _BLOCK words."""
    rings = [length for dim, length in REGION_SHAPES if dim == 1]
    if block:
        monkeypatch.setattr(qca, "_BLOCK", block)
    else:
        rings.append(2 ** 16)
    sizes = []
    draw = qca._Words._draw

    def recording(self, n):
        sizes.append(n)
        return draw(self, n)

    monkeypatch.setattr(qca._Words, "_draw", recording)
    for case, length in enumerate(rings):
        for size in (None, 1, 2, 3, length - 2, length - 1):
            if size is None and length == 2 ** 16:
                continue
            seed = 1000 * case + (size or 0) % 997
            rng = np.random.Generator(bit_generator(seed))
            ref = np.random.Generator(bit_generator(seed))
            del sizes[:]
            got = qca.random_connected_region(1, length, rng, size=size)
            want = _by_general_route(length, ref, size)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), (length, size)
            np.testing.assert_equal(rng.bit_generator.state,
                                    ref.bit_generator.state)
            assert max(sizes, default=0) <= qca._BLOCK
            if size and size > 1:
                assert sizes[0] == min(3 * size, qca._BLOCK)


def test_arc_builds_no_neighbour_table():
    """2**16 - 1 sites of a ring hold the region's 8 bytes a site and a
    block of words, about 8.8 bytes a site in all: no neighbour table
    (about 210 bytes a site through the general route), no count per
    site."""
    length = 2 ** 16
    qca._neighbours.cache_clear()
    rng = np.random.default_rng(9)
    qca.random_connected_region(1, 8, rng)   # first-call allocations
    tracemalloc.start()
    try:
        region = qca.random_connected_region(1, length, rng, size=length - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(region) == length - 1
    assert qca._neighbours.cache_info().misses == 0
    assert peak < 10 * length, peak


def test_layer_permutation_is_both_sublayers():
    for dim, length in ((1, 8), (1, 10), (2, 6), (3, 4)):
        index = {s: i for i, s in
                 enumerate(itertools.product(range(length), repeat=dim))}
        # held[q]: the site whose content site q holds
        held = list(index)
        for offset in (1, 0):
            for a, b in _sublayer_swaps(dim, length, offset):
                held[index[a]], held[index[b]] = held[index[b]], held[index[a]]
        step = qca.layer_permutation(dim, length)
        assert step.dtype == np.int64
        assert step.tolist() == [index[s] for s in held]


def test_layer_permutation_moves_pairs_as_evolve_does():
    for dim, length in ((1, 12), (2, 8), (3, 4)):
        ps = qca.initial_pairs(dim, length)
        # an endpoint at site e goes to the site q with step[q] == e
        to = np.argsort(qca.layer_permutation(dim, length))
        ends = ps.ends
        for layers in range(1, 6):
            ends = to[ends]
            assert sorted(sorted(pair) for pair in ends.tolist()) \
                == qca.evolve(ps, layers).ends.tolist()


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
                 lambda: qca.layer_permutation(2, 10),
                 lambda: qca.layer_permutation(1, 2 ** 40),
                 lambda: qca.sublayer_swaps(2, 10, 0),
                 lambda: qca.random_connected_region(2, 10, rng)):
        with pytest.raises(ResourceLimitError, match="site budget 64"):
            call()
    # the grid is checked first: a bad length stays a ValueError
    with pytest.raises(ValueError):
        qca.half_cut_region(1, 67)
