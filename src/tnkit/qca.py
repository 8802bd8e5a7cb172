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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .lattice import LatticeSpec, Site

Pair = tuple[Site, Site]


def site_index(site: Site, length: int) -> int:
    """Row-major index of a site, matching lexicographic qubit order."""
    idx = 0
    for c in site:
        idx = idx * length + c
    return idx


def _check_grid(dimension: int, length: int) -> None:
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if length < 4 or length % 2:
        raise ValueError(f"length must be even and >= 4, got {length}")


@dataclass
class PairSet:
    """A perfect matching of lattice sites into entangled pairs."""

    spec: LatticeSpec
    pairs: tuple[Pair, ...]


def _canonical(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def initial_pairs(dimension: int, length: int) -> PairSet:
    """Antipodal-corner pairs on every odd-aligned plaquette.

    A plaquette with base r covers r + {0,1}^D; its 2**(D-1) pairs join
    corner r + c to corner r + (1,...,1) - c.  Odd alignment means every
    base coordinate is odd, with wrap-around on the torus.  These are the
    transpositions of the odd-aligned swap sublayer.
    """
    pairs = _canonical(sublayer_swaps(dimension, length, 1))
    return PairSet(LatticeSpec(dimension, length, 2, 1, "periodic"), pairs)


def sublayer_swaps(dimension: int, length: int, offset: int) -> list[Pair]:
    """Site transpositions of one swap sublayer.

    offset 0 selects the even-aligned plaquette partition, offset 1 the
    odd-aligned one.  Each plaquette contributes the swaps of its
    antipodal corner pairs.
    """
    _check_grid(dimension, length)
    if offset not in (0, 1):
        raise ValueError("offset must be 0 or 1")
    out = []
    for base in itertools.product(range(offset, length, 2), repeat=dimension):
        for c in itertools.product((0, 1), repeat=dimension):
            if c[0] == 1:
                continue
            a = tuple((b + ci) % length for b, ci in zip(base, c))
            b2 = tuple((b + 1 - ci) % length for b, ci in zip(base, c))
            out.append((a, b2))
    return out


def _advance(site: Site, length: int, layers: int) -> Site:
    return tuple((c + 2 * layers) % length if c % 2
                 else (c - 2 * layers) % length for c in site)


def evolve(ps: PairSet, layers: int) -> PairSet:
    """The pairs after the given number of automaton layers.

    One layer (odd-aligned swaps, then even-aligned) moves every odd
    coordinate by +2 and every even coordinate by -2; parities never
    change, so T layers move them by +2T and -2T (mod L) in one pass.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    length = ps.spec.length
    pairs = [(_advance(a, length, layers), _advance(b, length, layers))
             for a, b in ps.pairs]
    return PairSet(ps.spec, _canonical(pairs))


def entropy_across(ps: PairSet, region) -> int:
    """Entropy in bits across a cut: pairs with exactly one endpoint inside."""
    inside = set(region)
    for site in inside:
        if not ps.spec.contains(site):
            raise ValueError(f"site {site} outside the lattice")
    return sum((a in inside) != (b in inside) for a, b in ps.pairs)


def half_cut_region(dimension: int, length: int) -> list[Site]:
    """Sites with first coordinate below length / 2."""
    _check_grid(dimension, length)
    return [s for s in itertools.product(range(length), repeat=dimension)
            if s[0] < length // 2]


def random_connected_region(dimension: int, length: int, rng,
                            size: int | None = None) -> list[Site]:
    """Connected random site region grown by seeded breadth-first search."""
    _check_grid(dimension, length)
    total = length ** dimension
    if size is None:
        size = int(rng.integers(1, total))
    if not 1 <= size < total:
        raise ValueError(f"size must be in [1, {total})")
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
