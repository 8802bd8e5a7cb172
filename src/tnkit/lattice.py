"""Integer lattice geometry for scale-hierarchical tensor placements.

Sites are integer coordinate tuples on a finite D-dimensional grid.  The
placement machinery relies on classifying coordinates by their b-adic
valuation: layer-tau objects live on the sublattice whose coordinates have
valuation exactly tau - 1, and their connection paths ride the edge grid
spanned by the lines through that sublattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

Site = tuple[int, ...]
Edge = tuple[Site, Site]

#: Valuation assigned to 0, which is divisible by every power of the base.
#: Grid membership tests treat coordinate 0 as lying on lines of every scale,
#: so paths near the lattice boundary always have a valid track.
INFINITE_VALUATION = math.inf


def b_adic_valuation(n: int, base: int = 2) -> int | float:
    """Largest k such that base**k divides n (INFINITE_VALUATION for n=0)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n == 0:
        return INFINITE_VALUATION
    n = abs(n)
    k = 0
    while n % base == 0:
        n //= base
        k += 1
    return k


@dataclass(frozen=True)
class LatticeSpec:
    """A finite D-dimensional square grid with nearest-neighbour edges.

    Parameters
    ----------
    dimension : int
        Number of spatial dimensions, >= 1.
    length : int
        Linear size; the grid has length**dimension sites.
    branching : int
        Linear coarse-graining ratio b >= 2 used by the scale hierarchy.
    layers : int
        Depth of the hierarchy hosted on this grid.  For a standard host
        lattice length == branching**layers.
    boundary : str
        "open" or "periodic".  Periodic wrap is only used by the automaton
        constructions; the hierarchical placements assume open boundary.
    """

    dimension: int
    length: int
    branching: int = 2
    layers: int = 1
    boundary: str = "open"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.layers < 0:
            raise ValueError("layers must be >= 0")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @classmethod
    def mera_host(cls, dimension: int, branching: int, layers: int,
                  refine: int = 1) -> "LatticeSpec":
        """Grid hosting a depth-`layers` hierarchy, optionally refined.

        With refine == b**dt the grid gains the auxiliary sites of a
        refinement step, and the extra dt scales fit below the hierarchy,
        so the hosted depth grows accordingly.
        """
        extra = 0
        r = refine
        while r > 1:
            if r % branching:
                raise ValueError("refine must be a power of branching")
            r //= branching
            extra += 1
        return cls(dimension=dimension, length=branching ** layers * refine,
                   branching=branching, layers=layers + extra)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.length,) * self.dimension

    @property
    def num_sites(self) -> int:
        return self.length ** self.dimension

    def contains(self, site: Site) -> bool:
        return len(site) == self.dimension and all(
            0 <= c < self.length for c in site)

    def sites(self) -> Iterator[Site]:
        """All sites in lexicographic order."""
        return itertools.product(range(self.length), repeat=self.dimension)

    def wrap(self, site: Site) -> Site:
        return tuple(c % self.length for c in site)

    def edges(self) -> Iterator[Edge]:
        """All nearest-neighbour edges, canonical and lexicographically sorted.

        For periodic boundary the wrap edges are included once, in canonical
        form (endpoints sorted lexicographically).
        """
        seen = set()
        for site in self.sites():
            for axis in range(self.dimension):
                nbr = list(site)
                nbr[axis] += 1
                if nbr[axis] >= self.length:
                    if self.boundary != "periodic" or self.length < 3:
                        continue
                    nbr[axis] = 0
                e = canonical_edge(site, tuple(nbr))
                if e not in seen:
                    seen.add(e)
                    yield e


def spec_to_dict(spec: LatticeSpec) -> dict:
    """Lattice entry of the tns-v1 and map-v1 formats."""
    return {"dimension": spec.dimension, "length": spec.length,
            "branching": spec.branching, "layers": spec.layers,
            "boundary": spec.boundary}


def spec_from_dict(data: dict) -> LatticeSpec:
    """Inverse of spec_to_dict; KeyError when a key is missing."""
    return LatticeSpec(data["dimension"], data["length"], data["branching"],
                       data["layers"], data["boundary"])


def canonical_edge(a: Site, b: Site) -> Edge:
    """Order the endpoints lexicographically so edges compare as values."""
    return (a, b) if a <= b else (b, a)


def sublattice_sites(spec: LatticeSpec, tau: int) -> list[Site]:
    """Sites reserved for layer tau, in lexicographic order.

    Layer tau occupies coordinates of the form b**tau * n + b**(tau-1),
    all of which have b-adic valuation exactly tau - 1.  The sublattices of
    distinct layers are disjoint.  tau = 0 denotes the full lattice.
    """
    if tau == 0:
        return list(spec.sites())
    if not 1 <= tau <= spec.layers:
        raise ValueError(f"tau must be in [1, {spec.layers}], got {tau}")
    b = spec.branching
    step = b ** tau
    offset = b ** (tau - 1)
    coords = range(offset, spec.length, step)
    return [s for s in itertools.product(coords, repeat=spec.dimension)]


def on_grid_line(spec: LatticeSpec, site: Site, tau: int, axis: int) -> bool:
    """Whether `site` lies on a scale-tau line running along `axis`.

    A scale-tau line fixes every coordinate other than `axis` to a value of
    valuation exactly tau - 1, with coordinate 0 admitted at every scale.
    """
    b = spec.branching
    for j, c in enumerate(site):
        if j == axis:
            continue
        if c != 0 and b_adic_valuation(c, b) != tau - 1:
            return False
    return True


def grid_edges(spec: LatticeSpec, tau: int) -> list[Edge]:
    """Edges of the scale-tau grid, canonical and sorted.

    An edge along axis i belongs to the grid when all the other coordinates
    of its endpoints have valuation exactly tau - 1 (coordinate 0 counts for
    every scale).  For D = 1 the condition is vacuous and every edge belongs
    to every grid.  tau = 0 denotes the unrestricted edge set.
    """
    if tau == 0:
        return list(spec.edges())
    if not 1 <= tau <= spec.layers:
        raise ValueError(f"tau must be in [1, {spec.layers}], got {tau}")
    b = spec.branching
    line_coords = [c for c in range(spec.length)
                   if c == 0 or b_adic_valuation(c, b) == tau - 1]
    out = []
    for axis in range(spec.dimension):
        other = [line_coords] * (spec.dimension - 1)
        for fixed in itertools.product(*other):
            for c in range(spec.length - 1):
                a = fixed[:axis] + (c,) + fixed[axis:]
                bsite = fixed[:axis] + (c + 1,) + fixed[axis:]
                out.append((a, bsite))
    out.sort()
    return out


def cell_of(site: Site, tau: int, spec: LatticeSpec) -> tuple[int, ...]:
    """Coarse-grained cell containing `site` at scale tau (floor division)."""
    step = spec.branching ** tau
    return tuple(c // step for c in site)
