"""The per-crossing tally that tnkit.mapping.measured_chi replaced with
its coverage count over legs, kept as the reference of that count.

Every unit step of a chain is one crossing: an int64 edge key, the line's
id and the code of its class.  An edge's key is the row-major index of
its lower vertex in the box of all crossings' lower vertices, times D,
plus D-1-axis; sorting the keys puts the used edges in key order, and a
bincount by edge and class counts the lines of each class on each edge.
"""

import math
from dataclasses import dataclass

import numpy as np

from tnkit.tns import KIND_ANCHOR, KIND_CODES, distinct

_ANCHOR = KIND_CODES[KIND_ANCHOR]


@dataclass
class Crossings:
    """One entry per crossing, in line-id order, and the box and class
    table of the tally."""

    keys: np.ndarray
    origin: tuple
    shape: tuple
    line_ids: np.ndarray
    classes: np.ndarray
    class_table: np.ndarray

    def edge_counts(self):
        """The used edge keys, ascending, and the (E, C) int64 counts of
        the lines of each class on each of them."""
        edge_keys, edge = distinct(self.keys)
        shape = len(edge_keys), len(self.class_table)
        counts = np.bincount(edge * shape[1] + self.classes,
                             minlength=math.prod(shape)).reshape(shape)
        return edge_keys, counts

    def ends(self, keys):
        """Lower and upper vertices, (n, D) arrays, of keyed edges."""
        d = len(self.shape)
        rank, rest = np.divmod(keys, d)
        lower = np.stack(np.unravel_index(rank, self.shape), axis=1)
        lower += self.origin
        upper = lower.copy()
        upper[np.arange(len(keys)), d - 1 - rest] += 1
        return lower, upper

    def edge_lines(self):
        """Sorted ids of the lines crossing each edge, in edge order."""
        order = np.argsort(self.keys, kind="stable")
        lower, upper = self.ends(self.keys[order])
        out = {}
        for a, b, lid in zip(map(tuple, lower.tolist()),
                             map(tuple, upper.tolist()),
                             self.line_ids[order].tolist()):
            out.setdefault((a, b), []).append(lid)
        return {e: tuple(ids) for e, ids in out.items()}

    def blocked(self, factor):
        """The crossings of block boundaries, each a unit step of the grid
        of factor x factor blocks."""
        lower, upper = self.ends(self.keys)
        lower //= factor
        upper //= factor
        crossing = (lower != upper).any(axis=1)
        line_ids = self.line_ids[crossing]
        keys, origin, shape = crossing_keys(
            zip(lower[crossing].T, upper[crossing].T), line_ids)
        return Crossings(keys, origin, shape, line_ids,
                         self.classes[crossing], self.class_table)


def crossing_keys(axes, line_ids):
    """Edge keys of crossings given per axis as (tail, head) coordinate
    columns, with the origin and shape of the box of their lower
    vertices; ValueError on a step that is not a unit step.  The columns
    are overwritten."""
    rank = length = axis = None
    origin, shape = [], []
    for k, (tail, head) in enumerate(axes):
        step = np.subtract(head, tail, out=head)
        lower = tail
        lower += np.minimum(step, 0)
        lo, hi = (int(lower.min()), int(lower.max())) if len(lower) else (0, 0)
        origin.append(lo)
        shape.append(hi - lo + 1)
        if math.prod(shape) * (k + 1) >= 2 ** 63:
            raise ValueError("paths span too large a box to tally")
        lower -= lo
        if rank is None:
            rank, length, axis = lower, np.abs(step), np.zeros_like(step)
        else:
            rank *= hi - lo + 1
            rank += lower
            length += np.abs(step)
        axis[step != 0] = k
    jump = (length != 1).nonzero()[0]
    if jump.size:
        raise ValueError(f"path of line {line_ids[jump[0]]} makes a "
                         f"non-unit step")
    d = len(shape)
    rank *= d
    rank += d - 1
    rank -= axis
    return rank, tuple(origin), tuple(shape)


def crossings(tns, paths):
    """The crossings of routed chains (see tnkit.mapping.PathAssignment):
    each step between consecutive vertices of a chain is one.  A step
    that is not a unit step, or a crossing of a line the network lacks,
    raises ValueError."""
    ids, offsets, coords = paths.line_ids, paths.offsets, paths.vertices
    lengths = offsets[1:] - offsets[:-1]
    steps = np.maximum(lengths - 1, 0)
    line_ids = ids.repeat(steps)
    # a step leaves every vertex but the last of its chain
    inner = np.ones(len(coords), bool)
    inner[offsets[1:][lengths > 0] - 1] = False
    inner = inner[:-1]
    axes = ((coords[:-1, k][inner], coords[1:, k][inner])
            for k in range(coords.shape[1]))
    keys, origin, shape = crossing_keys(axes, line_ids)
    crossed = ids[steps > 0]
    unknown = ~np.isin(crossed, tns.line_id)
    if unknown.any():
        raise ValueError(f"path of line {crossed[unknown][0]} names no line "
                         f"of the network")
    by_id = tns.line_id.argsort(kind="stable")
    line = by_id[tns.line_id[by_id].searchsorted(crossed)]
    physical = (tns.kind == _ANCHOR)[tns.line_ends[:, line]].any(axis=0)
    table, classes = distinct(np.stack((tns.line_dim[line], physical), 1))
    return Crossings(keys, origin, shape, line_ids,
                     classes.repeat(steps[steps > 0]), table)
