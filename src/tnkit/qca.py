"""Combinatorial fast path for the swap automaton.

The automaton starts from two-site entangled pairs on the antipodal
corners of the odd-aligned plaquettes of a periodic grid.  One layer
applies the odd-aligned sublayer of diagonal plaquette swaps and then the
even-aligned sublayer.  Because every gate is a permutation of sites, the
state stays a perfect matching of entangled pairs, and each endpoint moves
by a fixed rule: coordinates with odd parity advance by 2, coordinates
with even parity retreat by 2 (mod L).  Parities are preserved, so every
endpoint travels on a straight line forever and per-axis separations grow
by 4 per layer once endpoints have left their birth plaquette.

Entropy across any region is exactly the number of pairs split by it, in
bits, which the stabilizer simulation confirms gate by gate.

The tracker works on row-major site indices, the qubit order of the
stabilizer driver, in which index order is the lexicographic order of
sites.  A sublayer is a pair of index arrays, a PairSet carries its
(P, 2) endpoint-index array beside the canonical site tuples, and regions
are grown and counted on indices; site tuples appear only where the
public functions take or return them.

The region sampler draws the same integers as scalar rng.integers calls
and leaves the generator in the same state.  Its picks are computed by
numpy's bounded-integer rule from blocks of the generator's 32-bit words,
and the words it read are then drawn again from the saved state.

The functions that hold per-site data (initial_pairs and the sublayers,
half_cut_region, random_connected_region) take at most
lattice.site_budget() sites, 2**20 by default: the tableau's budget of 16
bytes per amplitude at 1 KiB a site.  Beyond that they raise
ResourceLimitError before they allocate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, Site, check_grid

Pair = tuple[Site, Site]


def site_index(site: Site, length: int) -> int:
    """Row-major index of a site, matching lexicographic qubit order."""
    idx = 0
    for c in site:
        idx = idx * length + c
    return idx


def site_indices(coords: np.ndarray, length: int) -> np.ndarray:
    """Row-major indices of integer coordinates along the last axis;
    ValueError for a coordinate outside [0, length)."""
    coords = np.asarray(coords)
    d = coords.shape[-1]
    return np.ravel_multi_index(tuple(coords[..., k] for k in range(d)),
                                (length,) * d)


def _sites(idx: np.ndarray, dimension: int, length: int) -> list[Site]:
    """Site tuples of a 1-d index array, in its order."""
    return list(zip(*(c.tolist() for c in
                      np.unravel_index(idx, (length,) * dimension))))


def _check_grid(dimension: int, length: int) -> None:
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if length < 4 or length % 2:
        raise ValueError(f"length must be even and >= 4, got {length}")


def check_sites(dimension: int, length: int) -> None:
    """_check_grid, then ResourceLimitError unless the grid's sites fit
    lattice.site_budget()."""
    _check_grid(dimension, length)
    check_grid("automaton", length, dimension)


@dataclass
class PairSet:
    """A perfect matching of lattice sites into entangled pairs.

    ends holds the pairs' row-major endpoint indices as a (P, 2) int64
    array, derived from pairs unless given (ValueError unless each pair is
    two lattice sites); it does not take part in comparisons.
    """

    spec: LatticeSpec
    pairs: tuple[Pair, ...]
    ends: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ends is None:
            bad = [pair for pair in self.pairs if len(pair) != 2]
            if bad:
                raise ValueError(f"pair {bad[0]} is not two sites")
            sites = itertools.chain.from_iterable(self.pairs)
            self.ends = _region_indices(self.spec, sites).reshape(-1, 2)


def _pair_set(spec: LatticeSpec, ends: np.ndarray) -> PairSet:
    """The canonical PairSet of (P, 2) endpoint indices: each pair in
    ascending order, then the pairs in ascending order."""
    ends = np.sort(ends, axis=1)
    ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
    d, length = spec.dimension, spec.length
    pairs = zip(_sites(ends[:, 0], d, length), _sites(ends[:, 1], d, length))
    return PairSet(spec, tuple(pairs), ends)


def initial_pairs(dimension: int, length: int) -> PairSet:
    """Antipodal-corner pairs on every odd-aligned plaquette.

    A plaquette with base r covers r + {0,1}^D; its 2**(D-1) pairs join
    corner r + c to corner r + (1,...,1) - c.  Odd alignment means every
    base coordinate is odd, with wrap-around on the torus.  These are the
    transpositions of the odd-aligned swap sublayer.
    """
    a, b = sublayer_indices(dimension, length, 1)
    return _pair_set(LatticeSpec(dimension, length, 2, 1, "periodic"),
                     np.stack([a, b], axis=1))


def sublayer_indices(dimension: int, length: int,
                     offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major index arrays (a, b) of one swap sublayer: swap k exchanges
    sites a[k] and b[k].

    offset 0 selects the even-aligned plaquette partition, offset 1 the
    odd-aligned one.  Plaquettes come in lexicographic order of their base
    r.  Each contributes the swaps of its antipodal corners r + c and
    r + (1,...,1) - c for every c in {0,1}^D with c[0] = 0, in
    lexicographic order of c.
    """
    check_sites(dimension, length)
    if offset not in (0, 1):
        raise ValueError("offset must be 0 or 1")
    bases = 2 * np.indices((length // 2,) * dimension).reshape(
        dimension, -1).T + offset
    corners = np.indices((1,) + (2,) * (dimension - 1)).reshape(
        dimension, -1).T
    a = (bases[:, None] + corners) % length
    b = (bases[:, None] + 1 - corners) % length
    return (site_indices(a.reshape(-1, dimension), length),
            site_indices(b.reshape(-1, dimension), length))


def sublayer_swaps(dimension: int, length: int, offset: int) -> list[Pair]:
    """Site transpositions of one swap sublayer, in the order of
    sublayer_indices."""
    a, b = sublayer_indices(dimension, length, offset)
    return list(zip(_sites(a, dimension, length),
                    _sites(b, dimension, length)))


def evolve(ps: PairSet, layers: int) -> PairSet:
    """The pairs after the given number of automaton layers.

    One layer (odd-aligned swaps, then even-aligned) moves every odd
    coordinate by +2 and every even coordinate by -2; parities never
    change, so T layers move them by +2T and -2T (mod L) in one pass.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    d, length = ps.spec.dimension, ps.spec.length
    coords = np.stack(np.unravel_index(ps.ends, (length,) * d), axis=-1)
    shift = 2 * layers % length
    moved = np.where(coords % 2 == 1, coords + shift, coords - shift) % length
    return _pair_set(ps.spec, site_indices(moved, length))


def _region_indices(spec: LatticeSpec, region) -> np.ndarray:
    """Row-major indices of a region's sites.  ValueError, naming a site,
    unless every site is D int coordinates inside the lattice."""
    sites = list(region)
    coords = list(itertools.chain.from_iterable(sites))
    if ({spec.dimension}.issuperset(map(len, sites))
            and {int}.issuperset(map(type, coords))
            and (not coords
                 or 0 <= min(coords) and max(coords) < spec.length)):
        return site_indices(np.array(coords, dtype=np.int64).reshape(
            len(sites), spec.dimension), spec.length)
    bad = next(site for site in sites if not spec.contains(site))
    raise ValueError(f"site {bad} outside the lattice")


def entropy_across(ps: PairSet, region) -> int:
    """Entropy in bits across a cut: pairs with exactly one endpoint inside."""
    inside = np.zeros(ps.spec.num_sites, dtype=bool)
    inside[_region_indices(ps.spec, region)] = True
    return int(np.count_nonzero(inside[ps.ends[:, 0]]
                                != inside[ps.ends[:, 1]]))


def half_cut_region(dimension: int, length: int) -> list[Site]:
    """Sites with first coordinate below length / 2."""
    check_sites(dimension, length)
    return list(itertools.product(range(length // 2),
                                  *[range(length)] * (dimension - 1)))


# generator words _Words holds at once
_BLOCK = 1024


class _Words:
    """Bounded integers computed from a generator's 32-bit words.

    numpy draws integers(0, m) by Lemire's multiply-shift rule
    (arXiv:1805.10941): it takes the generator's next 32-bit word w,
    redraws while the low word of w * m is below (2**32 - m) % m, returns
    (w * m) >> 32, and reads no word for m = 1.  bounded(m) applies that
    rule to words read _BLOCK at a time by one integers call, so it equals
    the scalar call made at the same point of the stream.  close() puts
    back the state saved at the start and draws again exactly the words
    read, _BLOCK at a time, which leaves the generator where the scalar
    calls would have.  Only .state and integers are used, so this holds
    for every bit generator.
    """

    __slots__ = ("rng", "state", "block", "pos", "done")

    def __init__(self, rng) -> None:
        self.rng = rng
        self.state = rng.bit_generator.state
        self.block: list[int] = []
        self.pos = 0    # words read of block
        self.done = 0   # words of the blocks before it

    def _draw(self, n: int) -> np.ndarray:
        return self.rng.integers(0, 2 ** 32, size=n, dtype=np.uint64)

    def bounded(self, m: int) -> int:
        """int(rng.integers(0, m)) for 1 <= m <= 2**32."""
        if m == 1:
            return 0
        block, pos = self.block, self.pos
        while True:
            if pos == len(block):
                self.done += pos
                block = self.block = self._draw(_BLOCK).tolist()
                pos = 0
            x = block[pos] * m
            pos += 1
            low = x & 0xFFFFFFFF
            if low >= m or low >= (2 ** 32 - m) % m:
                self.pos = pos
                return x >> 32

    def close(self) -> None:
        """Leave the generator where the words read have taken it."""
        left = self.done + self.pos
        self.rng.bit_generator.state = self.state
        while left:
            n = min(left, _BLOCK)
            self._draw(n)
            left -= n


def random_connected_region(dimension: int, length: int, rng,
                            size: int | None = None) -> list[Site]:
    """Connected random site region grown by seeded breadth-first search.

    Each step draws a frontier site, then one of its neighbours outside
    the region, listed axis by axis, -1 before +1; a frontier site with
    none left is dropped.  Every draw equals a scalar rng.integers call,
    and rng ends where those calls would leave it: the size and start
    are drawn by integers, the picks are replayed from blocks of the
    generator's words (_Words).
    """
    check_sites(dimension, length)
    total = length ** dimension
    if size is None:
        size = int(rng.integers(1, total))
    if not 1 <= size < total:
        raise ValueError(f"size must be in [1, {total})")
    start = site_index(rng.integers(0, length, size=dimension).tolist(),
                       length)
    # neighbours[q]: the indices of site q's neighbours, in draw order
    grid = np.arange(total).reshape((length,) * dimension)
    neighbours = np.stack([np.roll(grid, -delta, axis).ravel()
                           for axis in range(dimension)
                           for delta in (-1, 1)], axis=1).tolist()
    inside = bytearray(total)
    inside[start] = 1
    frontier = [start]
    words = _Words(rng)
    draw = words.bounded
    for _ in range(size - 1):
        while True:
            i = draw(len(frontier))
            free = [q for q in neighbours[frontier[i]] if not inside[q]]
            if free:
                break
            del frontier[i]
        pick = free[draw(len(free))]
        inside[pick] = 1
        frontier.append(pick)
    words.close()
    return _sites(np.flatnonzero(np.frombuffer(inside, dtype=np.uint8)),
                  dimension, length)


def pair_separation(pair: Pair, length: int) -> float:
    """Euclidean distance between the endpoints under minimal images."""
    total = 0
    for a, b in zip(*pair):
        d = abs(a - b)
        d = min(d, length - d)
        total += d * d
    return math.sqrt(total)


@dataclass(frozen=True)
class CostEstimate:
    """Classical simulation cost of the automaton, in log2 units.

    state_cost covers producing the full state after T layers; reading out
    one local observable multiplies in another factor of T.
    """

    dimension: int
    length: int
    layers: int
    state_cost_log2: float
    local_obs_cost_log2: float

    @property
    def state_cost(self) -> float:
        return math.inf if self.state_cost_log2 > 1000 \
            else 2.0 ** self.state_cost_log2

    @property
    def local_obs_cost(self) -> float:
        return math.inf if self.local_obs_cost_log2 > 1000 \
            else 2.0 ** self.local_obs_cost_log2


def cost_estimate(dimension: int, length: int, layers: int) -> CostEstimate:
    """Exponential-in-T**D cost model of direct light-cone simulation.

    The state after T layers costs 2**(2 T**D); one local observable costs
    a further factor of T.  With T = (log2 L)**(1/D) the observable cost is
    polynomial in L for every D, while T = log2 L keeps it polynomial only
    for D = 1.
    """
    _check_grid(dimension, length)
    if layers < 1:
        raise ValueError("layers must be >= 1")
    state = 2.0 * layers ** dimension
    return CostEstimate(dimension, length, layers, state,
                        state + math.log2(layers))
