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
sites.  A sublayer is a pair of index arrays, and one layer is the
permutation layer_permutation composes from them.  A PairSet is its
(P, 2) endpoint-index array.  A region is a sorted int64 array of site
indices: half_cut_region and random_connected_region return one, and
entropy_across and stabilizer.entanglement_entropy both take it as it
is.  Both arrays pass one index check.  Site tuples are made only where
a public name reads single sites or pairs: the PairSet.pairs view,
sublayer_swaps, site_index and pair_separation.

The region sampler draws the same integers as scalar rng.integers calls
and leaves the generator in the same state.  Its picks are computed by
numpy's bounded-integer rule from blocks of the generator's 32-bit words,
the first block sized from the region, and the words it read are then
drawn again from the saved state.  On a ring a connected region is an
arc, and only its two ends can grow, so the 1D sampler replays the draws
from the frontier's length and the positions of the arc's two ends in
it, with no per-site state.  For D >= 2 it keeps each site's count of
neighbours outside the region in a bytearray, so a frontier site with
none left costs one lookup.  The neighbour table it walks there holds
one tuple per site over one shared int object per site, about 130 bytes
per site on a 2D grid; it is built once per grid, 65,536 rows at a time,
and kept for the most recent grid only.

The functions that hold per-site data (initial_pairs, the sublayers and
layer_permutation, half_cut_region, random_connected_region) take at most
lattice.site_budget() sites, 2**20 by default: the tableau's budget of 16
bytes per amplitude at 1 KiB a site.  Beyond that they raise
ResourceLimitError before they allocate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


def _indices(spec: LatticeSpec, values, what: str,
             width: int = 0) -> np.ndarray:
    """values as an int64 array of row-major site indices of spec's grid,
    1-d, or of shape (P, width) for a width; ValueError, naming what and
    the first offending entry, unless it has that shape and every entry
    is an integer in [0, L**D)."""
    idx = np.asarray(values)
    tail = (width,) if width else ()
    if idx.ndim != 1 + len(tail) or idx.shape[1:] != tail:
        form = f"a (P, {width})" if width else "a 1-d"
        raise ValueError(f"{what} must be {form} array of site indices, "
                         f"not of shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{what} entry {idx.ravel()[:1].tolist()[0]!r} "
                         f"is not an int64 index")
    n = spec.num_sites
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ValueError(f"{what} index {bad[0]} outside [0, {n})")
    return idx.astype(np.int64, copy=False)


@dataclass(eq=False)
class PairSet:
    """A perfect matching of lattice sites into entangled pairs.

    ends holds the pairs' row-major endpoint indices as a (P, 2) int64
    array; ValueError unless it is a (P, 2) array of integers in
    [0, L**D).  pairs is a view that makes the site tuples of ends on
    each access.
    """

    spec: LatticeSpec
    ends: np.ndarray

    def __post_init__(self) -> None:
        self.ends = _indices(self.spec, self.ends, "ends", 2)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        d, length = self.spec.dimension, self.spec.length
        return tuple(zip(_sites(self.ends[:, 0], d, length),
                         _sites(self.ends[:, 1], d, length)))


def _pair_set(spec: LatticeSpec, ends: np.ndarray) -> PairSet:
    """The canonical PairSet of (P, 2) endpoint indices: each pair in
    ascending order, then the pairs in ascending order."""
    a, b = ends.T
    ends = np.empty(ends.shape, np.int64)
    np.minimum(a, b, out=ends[:, 0])
    np.maximum(a, b, out=ends[:, 1])
    return PairSet(spec, ends[np.lexsort((ends[:, 1], ends[:, 0]))])


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


def layer_permutation(dimension: int, length: int) -> np.ndarray:
    """One automaton layer as a gather of row-major sites: after the
    odd-aligned sublayer and then the even-aligned one, site q holds what
    site step[q] held before."""
    check_sites(dimension, length)
    step = np.arange(length ** dimension)
    for offset in (1, 0):
        a, b = sublayer_indices(dimension, length, offset)
        step[np.concatenate([a, b])] = step[np.concatenate([b, a])]
    return step


def evolve(ps: PairSet, layers: int) -> PairSet:
    """The pairs after the given number of automaton layers.

    One layer (odd-aligned swaps, then even-aligned) moves every odd
    coordinate by +2 and every even coordinate by -2; parities never
    change, so T layers move them by +2T and -2T (mod L) in one pass.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    length, shift = ps.spec.length, 2 * layers % ps.spec.length
    moved = np.zeros(ps.ends.shape, np.int64)
    # an axis at a time, on the row-major indices: coordinate c of stride
    # s moves to c + shift or c - shift (mod L) by its parity
    for axis in range(ps.spec.dimension):
        stride = length ** axis
        c = ps.ends // stride % length
        c += (c & 1) * (2 * shift) - shift
        c %= length
        c *= stride
        moved += c
    return _pair_set(ps.spec, moved)


def entropy_across(ps: PairSet, region) -> int:
    """Entropy in bits across a cut: pairs with exactly one endpoint inside.

    region holds row-major site indices, in any order and with repeats;
    ValueError, naming an entry, unless it is a 1-d array of integers in
    [0, L**D)."""
    idx = _indices(ps.spec, region, "region")
    inside = np.zeros(ps.spec.num_sites, dtype=bool)
    inside[idx] = True
    return int(np.count_nonzero(inside[ps.ends[:, 0]]
                                != inside[ps.ends[:, 1]]))


def half_cut_region(dimension: int, length: int) -> np.ndarray:
    """Row-major indices of the sites with first coordinate below
    length / 2: the first half of all indices."""
    check_sites(dimension, length)
    return np.arange(length // 2 * length ** (dimension - 1), dtype=np.int64)


# generator words _Words holds at once
_BLOCK = 1024


class _Words:
    """Bounded integers computed from a generator's 32-bit words.

    numpy draws integers(0, m) by Lemire's multiply-shift rule
    (arXiv:1805.10941): it takes the generator's next 32-bit word w,
    redraws while the low word of w * m is below (2**32 - m) % m, returns
    (w * m) >> 32, and reads no word for m = 1.  bounded(m) applies that
    rule to words read in blocks by one integers call each, so it equals
    the scalar call made at the same point of the stream.  The first
    block holds first words, or _BLOCK if that is fewer or first is None,
    and every later block _BLOCK.  close() puts back the state saved at
    the start and draws again exactly the words read, _BLOCK at a time,
    which leaves the generator where the scalar calls would have.  Only
    .state and integers are used, so this holds for every bit generator.
    _arc and _grown read block and pos themselves for the one test
    numpy's rule always passes, low >= m (its threshold (2**32 - m) % m
    is below m), and hand bounded every other word.
    """

    __slots__ = ("rng", "state", "block", "pos", "done", "want")

    def __init__(self, rng, first: int | None = None) -> None:
        self.rng = rng
        self.state = rng.bit_generator.state
        self.block: list[int] = []
        self.pos = 0    # words read of block
        self.done = 0   # words of the blocks before it
        self.want = min(first or _BLOCK, _BLOCK)    # words of the next block

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
                block = self.block = self._draw(self.want).tolist()
                self.want = _BLOCK
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


# rows of the neighbour table turned into Python ints at once
_ROWS = 65536


@functools.lru_cache(maxsize=1)
def _neighbours(dimension: int, length: int) -> list[tuple[int, ...]]:
    """neighbours[q]: the indices of site q's neighbours, in draw order,
    as one tuple per site whose entries are shared int objects, one per
    site.  Only the most recent grid's table is kept, and its regions
    share it, so the sampler only reads it."""
    total = length ** dimension
    ints = list(range(total)).__getitem__
    table = []
    for lo in range(0, total, _ROWS):
        q = np.arange(lo, min(lo + _ROWS, total))
        columns = []
        for axis in range(dimension):
            stride = length ** (dimension - 1 - axis)
            c = q // stride % length
            columns += [map(ints, (q + ((c + delta) % length - c)
                                   * stride).tolist())
                        for delta in (-1, 1)]
        table += zip(*columns)
    return table


def _arc(words: _Words, start: int, length: int,
         size: int) -> np.ndarray:
    """The region of size sites that the draws of _grown make on a ring
    of length sites from start, made from three integers of state.

    On a ring the region is an arc, and only its two ends have a
    neighbour outside it.  So the frontier is kept as its length m and
    the positions lo and hi of the left and right ends in it; every other
    entry is a site with no neighbour left outside.  The first step draws
    the start's neighbour, left before right.  A frontier draw at an end
    extends that side: the new end goes to position m and the old one
    stays where it was, its last neighbour taken.  A draw elsewhere
    deletes that entry, and the ends above it move down by one.  An end
    has one neighbour outside, so its pick reads no word.
    """
    left = 0    # sites added left of start
    if size > 1:
        left = 1 - words.bounded(2)
        lo, hi, m = left, 1 - left, 2
        bounded = words.bounded
        block, pos = words.block, words.pos
        end = len(block)
        for _ in range(size - 2):
            while True:
                if pos < end and (x := block[pos] * m) & 0xFFFFFFFF >= m:
                    pos += 1
                    i = x >> 32
                else:
                    words.pos = pos
                    i = bounded(m)
                    block, pos = words.block, words.pos
                    end = len(block)
                if i == lo:
                    lo = m
                    left += 1
                    break
                if i == hi:
                    hi = m
                    break
                m -= 1
                if lo > i:
                    lo -= 1
                if hi > i:
                    hi -= 1
            m += 1
        words.pos = pos
    # sites first, ..., first + size - 1 mod length, sorted: the wrap
    # sites past length - 1 come first as 0, ..., wrap - 1
    first = (start - left) % length
    wrap = max(first + size - length, 0)
    region = np.arange(size, dtype=np.int64)
    region[wrap:] += first - wrap
    return region


def _grown(words: _Words, start: int, dimension: int, length: int,
           size: int) -> np.ndarray:
    """The region of size sites grown from start on any grid by the draws
    random_connected_region describes, sorted.

    Each site keeps its count of neighbours outside the region, so a
    frontier site with none is dropped after one lookup, and a site with
    one left takes it without a draw, as integers(0, 1) reads no word.
    The accept test of numpy's rule is inlined for a word whose low half
    is at least m, which it always accepts; every other word, and every
    block read, goes through _Words.bounded.
    """
    neighbours = _neighbours(dimension, length)
    inside = bytearray(length ** dimension)
    free = bytearray([2 * dimension]) * len(inside)
    inside[start] = 1
    for q in neighbours[start]:
        free[q] -= 1
    frontier = [start]
    bounded = words.bounded
    block, pos, end = words.block, 0, 0
    for _ in range(size - 1):
        while True:
            m = len(frontier)
            if m == 1:
                i = 0
            elif pos < end and (x := block[pos] * m) & 0xFFFFFFFF >= m:
                pos += 1
                i = x >> 32
            else:
                words.pos = pos
                i = bounded(m)
                block, pos = words.block, words.pos
                end = len(block)
            site = frontier[i]
            m = free[site]
            if m:
                break
            del frontier[i]
        if m == 1:
            k = 0
        elif pos < end and (x := block[pos] * m) & 0xFFFFFFFF >= m:
            pos += 1
            k = x >> 32
        else:
            words.pos = pos
            k = bounded(m)
            block, pos = words.block, words.pos
            end = len(block)
        for pick in neighbours[site]:
            if not inside[pick]:
                if not k:
                    break
                k -= 1
        inside[pick] = 1
        for q in neighbours[pick]:
            free[q] -= 1
        frontier.append(pick)
    words.pos = pos
    return np.flatnonzero(np.frombuffer(inside, dtype=np.uint8))


def random_connected_region(dimension: int, length: int, rng,
                            size: int | None = None) -> np.ndarray:
    """Connected random region grown by seeded breadth-first search, as
    the sorted int64 array of its row-major site indices.

    Each step draws a frontier site, then one of its neighbours outside
    the region, listed axis by axis, -1 before +1; a frontier site with
    none left is dropped.  Every draw equals a scalar rng.integers call,
    and rng ends where those calls would leave it: the size and start
    are drawn by integers, the picks are replayed from blocks of the
    generator's words (_Words), the first block 3 * size words or
    _BLOCK, whichever is fewer.
    ValueError, before any draw, unless size is None or an integer (not
    a bool) in [1, L**D).  A ring's region (D = 1) is an arc, made by
    _arc without a neighbour table; _grown makes the others.
    """
    check_sites(dimension, length)
    total = length ** dimension
    if size is None:
        size = int(rng.integers(1, total))
    elif isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"size must be an integer, not {size!r}")
    if not 1 <= size < total:
        raise ValueError(f"size must be in [1, {total})")
    start = site_index(rng.integers(0, length, size=dimension).tolist(),
                       length)
    words = _Words(rng, 3 * size)
    region = _arc(words, start, length, size) if dimension == 1 \
        else _grown(words, start, dimension, length, size)
    words.close()
    return region


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
