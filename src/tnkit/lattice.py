"""Integer lattice geometry of the host grids.

Sites are integer coordinate tuples on a finite D-dimensional grid, and an
edge joins two sites one unit step apart.  A LatticeSpec records the grid
together with the scale hierarchy it hosts; where each layer's tensors sit
on it is decided by the placement schemes in tnkit.mapping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

Site = tuple[int, ...]
Edge = tuple[Site, Site]


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


def spec_to_dict(spec: LatticeSpec) -> dict:
    """Lattice entry of the tns-v1 and map-v1 formats."""
    return {"dimension": spec.dimension, "length": spec.length,
            "branching": spec.branching, "layers": spec.layers,
            "boundary": spec.boundary}


def spec_from_dict(data: dict) -> LatticeSpec:
    """Inverse of spec_to_dict; KeyError when a key is missing."""
    return LatticeSpec(data["dimension"], data["length"], data["branching"],
                       data["layers"], data["boundary"])
