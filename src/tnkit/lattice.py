"""Integer lattice geometry of the host grids.

Sites are integer coordinate tuples on a finite D-dimensional grid, and an
edge joins two sites one unit step apart.  A LatticeSpec records the grid
together with the scale hierarchy it hosts; where each layer's tensors sit
on it is decided by the placement schemes in tnkit.mapping.

The size budgets live here too, so that every module can reach them: an
amplitude limit, TNKIT_MAX_AMPLITUDES or 2**26, the site budget a
sixty-fourth of it, check_grid for a grid against that budget, and
ResourceLimitError for what would pass either.  The fault guard
`malformed` serves every reader of tns-v1 and map-v1.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

Site = tuple[int, ...]
Edge = tuple[Site, Site]

DEFAULT_MAX_AMPLITUDES = 2 ** 26


class ResourceLimitError(Exception):
    """A build, route, contraction or density matrix would exceed the
    size budget."""


def amplitude_limit() -> int:
    return int(os.environ.get("TNKIT_MAX_AMPLITUDES", DEFAULT_MAX_AMPLITUDES))


def site_budget() -> int:
    """The most sites of a grid whose every site is held in memory: the
    tableau's 16 bytes per amplitude at 1 KiB a site."""
    return amplitude_limit() // 64


def check_grid(what: str, base: int, power: int) -> None:
    """ResourceLimitError unless a grid of base**power sites fits the
    site budget; no power of a base above 1 past the budget's bit length
    is taken."""
    budget = site_budget()
    if base > 1 and power > budget.bit_length() or base ** power > budget:
        raise ResourceLimitError(f"{what} grid of {base}^{power} sites "
                                 f"exceeds the site budget {budget}")


@contextlib.contextmanager
def malformed(fmt: str):
    """Turn a fault in the values of a document of format fmt into
    ValueError: a missing key or entry, a value of the wrong type, a
    number past float64, or nesting past the JSON decoder's depth."""
    try:
        yield
    except (KeyError, IndexError, TypeError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"malformed {fmt} document: "
                         f"{type(exc).__name__} {exc}") from exc


def require_ints(values: Iterable, what: str) -> None:
    """TypeError unless every value's type is int: bools and integral
    floats compare equal to ints but are no sizes or coordinates."""
    if not {int}.issuperset(map(type, values)):
        raise TypeError(f"{what} is not an integer")


def int64_array(values: Iterable, count: int = -1, *, past: str) -> np.ndarray:
    """np.fromiter into int64, with a value past int64 ValueError(past)."""
    try:
        return np.fromiter(values, np.int64, count)
    except OverflowError:
        raise ValueError(past) from None


def off_grid(coords: np.ndarray, bound) -> np.ndarray:
    """Rows of an (n, D) int64 array with a coordinate below 0 or at
    least bound, a scalar or one per row.  Like the other column helpers
    here, it works a column at a time: numpy reduces along an axis of a
    few entries slowly."""
    columns = coords.view(np.uint64).T
    off = columns[0] >= bound
    for column in columns[1:]:
        off |= column >= bound
    return off


def l1_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of |diff| of an (n, D) int array, which it overwrites
    with |diff|, a column at a time."""
    np.abs(diff, out=diff)
    total = diff[:, 0].copy()
    for column in diff.T[1:]:
        total += column
    return total


@dataclass(frozen=True)
class LatticeSpec:
    """A finite D-dimensional square grid with nearest-neighbour edges.

    Parameters
    ----------
    dimension : int
        Number of spatial dimensions, >= 1.
    length : int
        Linear size below 2**63; the grid has length**dimension sites.
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

    # the integer fields and their least values
    _LEAST = {"dimension": 1, "length": 1, "branching": 2, "layers": 0}

    def __post_init__(self) -> None:
        for name, least in self._LEAST.items():
            value = getattr(self, name)
            require_ints((value,), f"lattice {name} {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.length >= 2 ** 63:  # coordinates are int64
            raise ValueError(f"lattice length {self.length} is past int64")
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
            type(c) is int and 0 <= c < self.length for c in site)

    def sites(self) -> Iterator[Site]:
        """All sites in lexicographic order."""
        return itertools.product(range(self.length), repeat=self.dimension)


def spec_to_dict(spec: LatticeSpec) -> dict:
    """Lattice entry of the tns-v1 and map-v1 formats: the fields in
    their order (dataclasses.asdict without its recursive copy, since
    every field is an int or a str)."""
    return dict(vars(spec))


def spec_from_dict(data: dict) -> LatticeSpec:
    """Inverse of spec_to_dict; KeyError when a key is missing."""
    return LatticeSpec(*(data[f.name] for f in fields(LatticeSpec)))
