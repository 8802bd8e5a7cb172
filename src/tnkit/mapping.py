"""Placement of hierarchical networks onto a single lattice, path routing,
congestion accounting, and assembly of the resulting embedded network.

Placement schemes, the rows of the table SCHEMES, position every tensor
on a host grid:

* naive: layer-tau cell n sits at b**tau * n, stacking all layers above
  the origin region.
* shifted: layer-tau cell n sits at b**tau * n + b**(tau-1), which puts
  each layer on its own scale sublattice.
* refined: the host grid is one branching factor finer, and layer-tau
  cell n sits at b**(tau+1) * n + b**tau * m + b**(tau-1), where the
  offset m depends on the tensor variant.  This spreads the tensors of
  one cell over distinct sites.

Routed paths are L1-shortest and axis-monotone.  A path traverses its
non-approach axes first, riding grid lines of the source's scale, and
covers the approach axis last, riding a grid line of the target's scale.
Most lines approach along the last axis, so their first leg rides the
source's row and the final leg the target's column.  Physical legs into a
2x1 disentangler approach along the first axis instead, matching its
transposed offset pattern.  Isometry lines into an apex isometry, one
that is the only tensor of its layer and so gathers every input
directly, split over both grid lines through the apex: strongly
horizontal ones approach along the first axis, the rest along the last.
Isometry lines into a 2x1 disentangler travel far along both axes, and
the disentangler shares its column with the isometry it feeds, so that
column is already full.  Their vertical stretch rides a coarse track
instead: the column at a multiple of b**layer nearest the source, when
one lies within the line's horizontal span.  Track columns are free of
finer-layer traffic, and picking the multiple on the source's side
spreads lines that share a target over distinct tracks.  Finally, a
1x2 disentangler's line down to the isometry a cell below approaches
along the first axis when the horizontal hop exceeds b, descending its
own free column rather than the target's.

Every step reads the network's node and line tables and applies each
rule to all nodes or lines at once.  A routed map is a Placement, one
(N, D) int64 site per node in node order, and a PathAssignment, every
chain back to back in one (V, D) vertex array in line-id order with an
offset per line; from placement to check_routing and assemble_peps no
step converts them.  map-v1 JSON is read only by read_map, which
map_from_dict calls; map_to_dict makes it as a document and map_text as
text, column-wise.  The tally, measured_chi, reads the chains as legs,
maximal straight runs, found where a chain's step changes; per leg it
keeps the key of its first edge, its length, line id and the code of the
line's class, a (dimension, physical) pair of a small table.  The lines
of each class on each edge are counted by coverage along each axis, so
the used edges come out in key order with their per-class counts; the
tally lists no crossing, and only the report's edge_lines expands the
legs into them.  An edge's figures depend only on its row of those
counts, so they are taken once per distinct row.  A report has two
transforms: blocked tallies the same legs again on a coarser grid, and
interior keeps the lines that end on no anchor.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import tns as _tns
from .lattice import (Edge, LatticeSpec, ResourceLimitError, Site,
                      amplitude_limit, int64_array, l1_norms, malformed,
                      off_grid, require_ints, spec_from_dict, spec_to_dict)
from .tns import (GENERATOR_VERSION, KIND_ANCHOR, KIND_CODES, KIND_ISOMETRY,
                  VARIANTS, MeraMeta, Tns, distinct, encoded, joined,
                  numeral_axes, numerals, slot_labels, tails)

_ANCHOR, _ISOMETRY = KIND_CODES[KIND_ANCHOR], KIND_CODES[KIND_ISOMETRY]
_U2X1, _U1X2 = VARIANTS.index("u2x1"), VARIANTS.index("u1x2")


def default_refined_offsets(dimension: int) -> dict[str, tuple[int, ...]]:
    """Per-variant sub-cell offsets of the refined scheme, by sorted variant.

    Isometries and tops take the far corner of the cell, full disentanglers
    the near corner, and the partial disentanglers the mixed corners that
    align them with the block boundary they straddle.
    """
    zeros = (0,) * dimension
    ones = (1,) * dimension
    offsets = {"u": zeros, "u2x2": zeros, "g": zeros, "w": ones, "t": ones}
    if dimension >= 2:
        offsets["u2x1"] = (1,) + zeros[1:]
        offsets["u1x2"] = (0, 1) + zeros[2:]
    return dict(sorted(offsets.items()))


# scheme: (lowest layer with tensors, refinement exponent), as read by
# the placers, the map-v1 writer and reader and the --scheme choices
SCHEMES = {"naive": (0, 0), "shifted": (1, 0), "refined": (1, 1)}


def _scheme(name) -> tuple[int, int]:
    """The table row of a scheme name; ValueError for any other value."""
    if not isinstance(name, str) or name not in SCHEMES:
        raise ValueError(f"unknown placement scheme {name!r}")
    return SCHEMES[name]


def scheme_members(scheme: str, dimension: int) -> dict:
    """The map-v1 members a scheme fixes: delta_tau, its refinement
    exponent, and offsets; ValueError for an unknown scheme."""
    refine = _scheme(scheme)[1]
    return {"delta_tau": refine,
            "offsets": default_refined_offsets(dimension) if refine else None}


@dataclass(eq=False)
class Placement:
    """Host sites of a network's nodes, in its node order: `sites` is an
    (N, D) int64 array, `ids` the node ids and `anchor` the (N,) mask of
    physical anchors.  `site_of` (id -> site) and `anchor_ids` are made
    from them on each access, for inspection."""

    scheme: str
    lattice: LatticeSpec
    ids: list[str]
    sites: np.ndarray
    anchor: np.ndarray

    delta_tau = property(lambda self: SCHEMES[self.scheme][1])
    refine_factor = property(
        lambda self: self.lattice.branching ** self.delta_tau)

    site_of = property(
        lambda self: dict(zip(self.ids, map(tuple, self.sites.tolist()))))
    anchor_ids = property(lambda self: frozenset(
        itertools.compress(self.ids, self.anchor.tolist())))


def _tensor_site(scheme, b, tau, cells, dt, m):
    """Host sites, an (n, D) int64 array, of n tensors at layers tau (n,)
    and cells (n, D); m holds their refined offsets (n, D).  Layers start
    at 0 for the naive scheme and at 1 for the others."""
    power = b ** np.arange(int(tau.max(initial=0)) + dt + 1)
    site = power[tau + dt, None] * cells
    if scheme != "naive":
        site += power[tau - 1, None]
    if m is not None:
        site += power[tau, None] * m
    return site


def _place(tns: Tns, scheme: str) -> Placement:
    lowest, refine = _scheme(scheme)
    spec = host = tns.spec
    b, d, factor = spec.branching, spec.dimension, spec.branching ** refine
    if refine:
        # a tns-v1 lattice header may ask for a host past int64
        if spec.length * factor >= 2 ** 63:
            raise ValueError(f"a {scheme} host of {spec.length} * {factor} "
                             f"sites per axis is past int64")
        host = LatticeSpec(d, spec.length * factor, b, spec.layers + refine,
                           spec.boundary)

    ids, layer, cells = tns.ids, tns.layer, tns.cell
    anchor = tns.kind == _ANCHOR
    tensor = (~anchor).nonzero()[0]
    tau = layer[tensor]
    odd = ((tau - lowest).view(np.uint64)
           > tns.spec.layers - lowest).nonzero()[0]
    if odd.size:
        i = tensor[odd[0]]
        raise ValueError(f"{ids[i]} placed outside the host lattice: layer "
                         f"{layer[i]} outside [{lowest}, {tns.spec.layers}]")
    m = None
    if refine:
        # zeros for variants without an offset of their own
        offsets = default_refined_offsets(d)
        table = np.array([offsets.get(v, (0,) * d) for v in tns.variants],
                         np.int64).reshape(-1, d)
        m = table[tns.variant[tensor]]
    sites = factor * cells
    if refine and d >= 2:
        # keep anchors off the tensor sublattices: x stays even except
        # for an offset of 1, which no layer >= 2 site has, and layer-1
        # sites differ in the remaining parities
        sites[:, 0] += anchor
    sites[tensor] = _tensor_site(scheme, b, tau, cells[tensor], refine, m)
    outside = off_grid(sites, host.length).nonzero()[0]
    if outside.size:
        i = outside[0]
        raise ValueError(f"{ids[i]} placed outside the host lattice at "
                         f"{tuple(sites[i].tolist())}")
    return Placement(scheme, host, ids, sites, anchor)


def place_naive(tns: Tns) -> Placement:
    """Scale positions by b**tau only; layers pile up near the origin."""
    return _place(tns, "naive")


def place_shifted(tns: Tns) -> Placement:
    """Offset layer tau by b**(tau-1); each layer gets its own sublattice."""
    return _place(tns, "shifted")


def place_refined(tns: Tns) -> Placement:
    """Place on a grid one branching factor finer, with variant offsets."""
    return _place(tns, "refined")


def place(tns: Tns, scheme: str) -> Placement:
    """Placement by scheme name, by the module's place_<scheme> when called."""
    _scheme(scheme)
    return globals()[f"place_{scheme}"](tns)


def detect_stacks(p: Placement) -> int:
    """The largest number of tensors placed on one host site, 0 when there
    are none.  Anchors are bookkeeping and excluded."""
    _, at = distinct(p.sites[~p.anchor])
    return int(np.bincount(at).max(initial=0))


@dataclass(eq=False)
class PathAssignment:
    """Vertex chains of a network's lines in one flat layout: the chain of
    line `line_ids[i]` is `vertices[offsets[i]:offsets[i + 1]]`, and the
    (V, D) int64 `vertices` hold the chains back to back in ascending
    line-id order.  Each chain runs from the line's source to its target
    as _orientation orders them; a chain of length one crosses no edge.
    `chains`, a dict of vertex tuples per line id, is made on each access,
    for inspection."""

    line_ids: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray

    @property
    def chains(self) -> dict[int, tuple[Site, ...]]:
        vertices = list(map(tuple, self.vertices.tolist()))
        ends = self.offsets.tolist()
        return {lid: tuple(vertices[a:b]) for lid, a, b in
                zip(self.line_ids.tolist(), ends, ends[1:])}


def route_lines(tns: Tns, p: Placement) -> PathAssignment:
    """Deterministic L1-shortest paths for every contraction line, by the
    rules of the module docstring: each line becomes a few corners joined
    by axis-parallel legs (_corners), stepped out into the flat layout of
    PathAssignment in one pass."""
    by_id = tns.line_id.argsort(kind="stable")
    ends = _orientation(tns)[:, by_id]
    return PathAssignment(tns.line_id[by_id], *_step_out(_corners(
        p.lattice.branching, tns.layer, tns.kind, tns.variant, ends,
        *p.sites[ends])))


def _orientation(tns: Tns) -> np.ndarray:
    """Node indices (2, L) of each line's source and target, in line
    order: the source comes first by layer, then kind code, then node
    id."""
    ends = tns.line_ends
    (la, lb), (ka, kb) = tns.layer[ends], tns.kind[ends]
    same = la == lb
    a_first = (la < lb) | (same & (ka <= kb))
    for i in (same & (ka == kb)).nonzero()[0].tolist():
        a_first[i] = tns.ids[ends[0, i]] <= tns.ids[ends[1, i]]
    return np.where(a_first, ends, ends[::-1])


def _corners(b, layer, kind, variant, ends, s, t):
    """Corners (L, K, D) of every line's path from its source's site s
    to its target's t: the source's site, then one corner per axis, the
    non-approach axes ascending and the approach axis last, so that
    consecutive corners differ along one axis.  In 2D a fourth corner
    makes room for a coarse track; it repeats the target otherwise."""
    n, d = s.shape
    (ks, kd), (vs, vd) = kind[ends], variant[ends]
    delta = t - s
    # the approach axis: the last, or the first for the exceptions
    first = np.zeros(n, bool)
    if d >= 2:
        dx = np.abs(delta[:, 0])
        first = (((vd == _U2X1) & (ks == _ANCHOR))
                 | ((vs == _U1X2) & (kd == _ISOMETRY) & (dx > b)))
        # an apex isometry is the only isometry of its layer; in 2D its
        # strongly horizontal inputs approach along the first axis
        iso_layers = np.sort(layer[kind == _ISOMETRY])
        top = layer[ends[1]]
        apex = ((ks == _ISOMETRY) & (kd == _ISOMETRY)
                & (iso_layers.searchsorted(top, "right")
                   - iso_layers.searchsorted(top) == 1))
        if d == 2:
            first = np.where(apex, dx >= 4 * np.abs(delta[:, 1]), first)
        else:
            first &= ~apex
    # corner k has the axes of rank below k at the target's coordinates;
    # the approach axis ranks last, so axis a ranks a, or a - 1 mod D on
    # a line that approaches along the first axis
    corners = np.empty((n, d + 1 + (d == 2), d), np.int64)
    corners[:, 0] = s
    for k in range(1, d + 1):
        for a in range(d):
            out, last, early = corners[:, k, a], a < k, (a - 1) % d < k
            out[:] = t[:, a] if last and early else s[:, a]
            if last != early:
                np.copyto(out, t[:, a], where=first if early else ~first)
    if d == 2:
        corners[:, 3] = t
        # isometry lines into a 2x1 disentangler ride the multiple of
        # b**layer nearest the source on the first axis, when one lies
        # between the two ends: across to it, along it, on to the target
        gather = ((ks == _ISOMETRY) & (vd == _U2X1)).nonzero()[0]
        if gather.size:
            step = b ** layer[ends[1, gather]]
            s0, t0 = s[gather, 0], t[gather, 0]
            track = s0 // step * step
            track += ((t0 >= s0) & (track < s0)) * step
            ride = (track - s0) * (track - t0) <= 0
            gather, track = gather[ride], track[ride]
            corners[gather, 1:3, 0] = track[:, None]
            corners[gather, 1, 1] = s[gather, 1]
            corners[gather, 2, 1] = t[gather, 1]
    return corners


def _step_out(corners):
    """Offsets and vertices of the flat layout of chains that walk in
    unit steps from corner to corner of (L, K, D) corners, consecutive
    corners differing along one axis; ResourceLimitError before the
    vertices are allocated when they would number more than the
    amplitude limit."""
    n, k, d = corners.shape
    # a move per vertex: the jump from the previous chain's end for a
    # chain's first vertex, a unit step for the others; the running sum
    # of the moves is the vertices.  The legs are made in place of the
    # steps, which their signs then overwrite
    moves = np.empty(corners.shape, np.int64)
    moves[:, 0] = corners[:, 0]
    moves[1:, 0] -= corners[:-1, -1]
    legs = moves[:, 1:]
    np.subtract(corners[:, 1:], corners[:, :-1], out=legs)
    del corners
    counts = np.ones((n, k), np.int64)
    np.abs(legs[..., 0], out=counts[:, 1:])
    for axis in range(1, d):
        counts[:, 1:] += np.abs(legs[..., axis])
    np.sign(legs, out=legs)
    # a leg runs along one axis of the grid, so its length fits in int64;
    # their total, summed in float64, is exact up to 2**53 and cannot
    # overflow
    size, limit = counts.sum(dtype=float), amplitude_limit()
    if size > limit:
        raise ResourceLimitError(f"routed paths of {size:.0f} vertices "
                                 f"exceed the budget {limit}")
    offsets = np.zeros(n + 1, np.int64)
    for column in counts.T:
        offsets[1:] += column
    offsets.cumsum(out=offsets)
    vertices = moves.reshape(-1, d).repeat(counts.ravel(), axis=0)
    del moves
    vertices.cumsum(axis=0, out=vertices)
    return offsets, vertices


def check_routing(tns: Tns, p: Placement,
                  paths: PathAssignment) -> str | None:
    """First structural problem of a routed placement, or None.

    The placement must be the one the scheme makes: the same host lattice
    and sites; an unknown scheme raises ValueError.  Every line needs a
    path from its source's site to its target's that stays on the host
    grid, moves by unit steps and is L1-shortest, as route_lines makes
    it.  Each rule is a mask over all lines or vertices; the first line
    in line order to break one reports the first it breaks, in the order
    given here."""
    expected = place(tns, p.scheme)
    if expected.lattice != p.lattice:
        return "host lattice does not match the scheme"
    if not np.array_equal(expected.sites, p.sites):
        return "site positions do not match the scheme"
    if not np.array_equal(paths.line_ids, distinct(tns.line_id)[0]):
        return "paths do not cover the contraction lines"
    v, at = paths.vertices, paths.line_ids.searchsorted(tns.line_id)
    start, end = paths.offsets[at], paths.offsets[at + 1]
    s, t = p.sites[_orientation(tns)]
    joined = end > start
    k = joined.nonzero()[0]
    ok = joined[k]
    for first, last, a, b in zip(v[start[k]].T, v[end[k] - 1].T,
                                 s[k].T, t[k].T):
        ok &= first == a
        ok &= last == b
    joined[k] = ok
    # running counts of vertices off the grid and of non-unit steps (at
    # the vertex they leave; one off the grid may wrap around, but its
    # line fails the grid rule first)
    off = off_grid(v, p.lattice.length)
    step = np.diff(v, axis=0)
    total = l1_norms(step)
    top = step[:, 0].copy()
    for column in step.T[1:]:
        np.maximum(top, column, out=top)
    runs = np.zeros((len(v) + 1, 2), np.int64)
    runs[1:, 0] = off
    runs[1:-1, 1] = (top != 1) | (total != 1)
    del step, total, top
    runs.cumsum(axis=0, out=runs)
    problems = np.stack((~joined, runs[end, 0] > runs[start, 0],
                         runs[end - 1, 1] > runs[start, 1],
                         end - start - 1 != l1_norms(t - s)))
    bad = problems.any(axis=0)
    if not bad.any():
        return None
    i = int(bad.argmax())
    rule, lid = int(problems[:, i].argmax()), tns.line_id[i]
    if rule == 1:
        j = start[i] + int(off[start[i]:end[i]].argmax())
        return (f"path of line {lid} leaves the host grid at "
                f"{tuple(v[j].tolist())}")
    return f"path of line {lid} " + ("does not join its endpoints", "",
                                      "jumps", "is not L1-shortest")[rule]


@dataclass(eq=False)
class CongestionReport:
    """Edge usage of a routed placement.

    A leg is a maximal straight run of one line's path: it covers
    leg_lengths[i] consecutive edges along one axis, the first of which
    has the key leg_keys[i]; leg_lines and leg_classes hold its line id
    and line class, legs in line-id order.  An edge's key is the
    row-major index of its lower vertex in the box of the given origin
    and shape, times D, plus D-1-axis, so keys sort edges as (lower,
    upper) vertex pairs.  edge_keys are the used edges, ascending, and
    counts (E, C) holds the lines of each class on each of them; a
    class indexes class_table, whose row per line class holds a
    dimension and 1 for physical legs (lines ending on an anchor), else
    0.  edge_lines, the sorted ids of the lines crossing each edge, is
    expanded from the legs on first use.  paths_through and bond_dim_of
    take the key of a (lower, upper) pair and look it up in the used
    edge keys; a pair that is no edge of the report, reversed pairs and
    non-unit steps among them, has 0 paths and bond 1.  Every figure
    counts every line of the report: the embedded network's bond
    dimensions include the physical legs, and interior() is the report
    without them.  The per-edge figures are taken once, when the report
    is made.
    """

    edge_keys: np.ndarray
    counts: np.ndarray
    origin: Site
    shape: tuple[int, ...]
    class_table: np.ndarray
    leg_lines: np.ndarray
    leg_keys: np.ndarray
    leg_lengths: np.ndarray
    leg_classes: np.ndarray

    def __post_init__(self):
        # the figures are exact Python ints, taken once per distinct row
        # of counts
        rows, self._row_of_edge = distinct(self.counts)
        dims = self.class_table[:, 0].tolist()
        self._paths = rows.sum(axis=1)
        self._bonds = [math.prod(map(pow, dims, row))
                       for row in rows.tolist()]

    def _ends(self, keys):
        """Lower and upper vertices, as (n, D) arrays, of keyed edges."""
        d = len(self.shape)
        rank, rest = np.divmod(keys, d)
        lower = np.stack(np.unravel_index(rank, self.shape), axis=1)
        lower += self.origin
        upper = lower.copy()
        upper[np.arange(len(keys)), d - 1 - rest] += 1
        return lower, upper

    @functools.cached_property
    def edge_lines(self) -> dict[Edge, tuple[int, ...]]:
        """Sorted ids of the lines crossing each edge, in edge order."""
        d, n = len(self.shape), self.leg_lengths
        # the key step along axis D-1-r, for a key of remainder r
        step = np.array([math.prod(self.shape[d - r:]) * d
                         for r in range(d)], np.int64)
        keys = np.arange(n.sum(), dtype=np.int64)
        keys -= np.repeat(n.cumsum() - n, n)
        keys *= np.repeat(step[self.leg_keys % d], n)
        keys += np.repeat(self.leg_keys, n)
        lids = np.repeat(self.leg_lines, n)[
            np.argsort(keys, kind="stable")].tolist()
        ends = np.cumsum(self._paths[self._row_of_edge]).tolist()
        lower, upper = self._ends(self.edge_keys)
        return {(a, b): tuple(lids[s:t]) for a, b, s, t in
                zip(map(tuple, lower.tolist()), map(tuple, upper.tolist()),
                    [0] + ends, ends)}

    def _row(self, edge: Edge) -> int | None:
        """Row of counts of the edge from lower to upper, one unit step up
        one axis; None when the pair is no edge of the report."""
        lower, upper = edge
        d = len(self.shape)
        if len(lower) != d or len(upper) != d:
            return None
        steps = [b - a for a, b in zip(lower, upper)]
        if sorted(steps) != [0] * (d - 1) + [1]:
            return None
        rank = 0
        for c, o, n in zip(lower, self.origin, self.shape):
            if not o <= c < o + n:
                return None
            rank = rank * n + c - o
        key = rank * d + d - 1 - steps.index(1)
        i = int(np.searchsorted(self.edge_keys, key))
        if i == len(self.edge_keys) or self.edge_keys[i] != key:
            return None
        return int(self._row_of_edge[i])

    def paths_through(self, edge: Edge) -> int:
        row = self._row(edge)
        return 0 if row is None else int(self._paths[row])

    def bond_dim_of(self, edge: Edge) -> int:
        row = self._row(edge)
        return 1 if row is None else self._bonds[row]

    def max_paths(self) -> int:
        return int(self._paths.max(initial=0))

    def busiest_edge(self):
        """First edge in edge order that carries the most lines, with
        their number; (None, 0) when no line crosses one."""
        paths = self._paths[self._row_of_edge]
        if not paths.any():
            return None, 0
        i = int(paths.argmax())
        lower, upper = self._ends(self.edge_keys[i:i + 1])
        return ((tuple(lower[0].tolist()), tuple(upper[0].tolist())),
                int(paths[i]))

    def chi_peps(self) -> int:
        return max(self._bonds, default=1)

    def log_chi_peps(self, chi: int) -> float:
        if chi < 2:
            raise ValueError("chi must be >= 2 for a log-chi figure")
        return math.log(self.chi_peps()) / math.log(chi)

    def interior(self) -> CongestionReport:
        """The report of the same box without the physical lines, made
        from this one's arrays: the interior rows of class_table and their
        columns of counts, the edges that carry an interior line, and the
        interior legs, their classes renumbered."""
        interior = self.class_table[:, 1] == 0
        keep = interior.nonzero()[0]
        counts = self.counts[:, keep]
        used = counts.any(axis=1).nonzero()[0]
        legs = interior[self.leg_classes].nonzero()[0]
        code = np.zeros(len(interior), self.leg_classes.dtype)
        code[keep] = np.arange(len(keep))
        return CongestionReport(
            self.edge_keys[used], counts[used], self.origin, self.shape,
            self.class_table[keep], self.leg_lines[legs], self.leg_keys[legs],
            self.leg_lengths[legs], code[self.leg_classes[legs]])

    def blocked(self, factor: int) -> CongestionReport:
        """The report of the same legs on a grid factor times coarser, for
        an int factor >= 1 (ValueError otherwise): a leg from s, n edges up
        one axis, crosses the block boundaries k * factor in (s, s + n]."""
        if type(factor) is not int or factor < 1:
            raise ValueError(f"blocking factor {factor!r} is no int >= 1")
        d = len(self.shape)
        lower, _ = self._ends(self.leg_keys)
        axis = d - 1 - self.leg_keys % d
        start = lower[np.arange(len(axis)), axis]
        lengths = (start + self.leg_lengths) // factor - start // factor
        lower //= factor
        keep = lengths.nonzero()[0]
        return _tally(self.leg_lines[keep], lower[keep], axis[keep],
                      lengths[keep], self.leg_classes[keep], self.class_table)


def _tally(lines, lower, axis, lengths, classes, class_table):
    """CongestionReport of legs: leg i, of line lines[i] and class
    classes[i], covers lengths[i] >= 1 edges up axis[i] from the (n, D)
    vertex lower[i], which is overwritten.  The lines of each class on
    each edge are counted by coverage, one axis at a time: +1 at a leg's
    first edge and -1 past its last, then a running sum along the axis,
    over the box of the edges' lower vertices.  ValueError when the box
    holds too many edges to key in int64, ResourceLimitError when its
    counts would take more than the amplitude limit."""
    n, d = lower.shape
    origin, shape = [0] * d, [1] * d
    for k in range(n and d):
        along = axis == k
        origin[k], top = int(lower[:, k].min()), int(lower[:, k].max())
        top = (lower[along, k] + (lengths[along] - 1)).max(initial=top)
        shape[k] = int(top) - origin[k] + 1
    size, c = math.prod(shape), len(class_table)
    if size * d >= 2 ** 63:
        raise ValueError("paths span too large a box to tally")
    if size * c > amplitude_limit():
        raise ResourceLimitError(f"tally box of {size} sites by {c} line "
                                 f"classes exceeds the budget "
                                 f"{amplitude_limit()}")
    stride = [math.prod(shape[k + 1:]) for k in range(d)]
    rank = np.zeros(n, np.int64)
    for k in range(d):
        lower[:, k] -= origin[k]
        rank += lower[:, k] * stride[k]
    used, found = np.zeros((size, d), bool), []
    for a in range(d):
        on = (axis == a).nonzero()[0]
        at = classes[on] * np.int64(size) + rank[on]
        cover = np.bincount(at, minlength=c * size)
        # -1 past a leg's last edge, unless that lies outside the box
        past = (lower[on, a] + lengths[on] < shape[a]).nonzero()[0]
        at += lengths[on] * stride[a]
        cover -= np.bincount(at[past], minlength=c * size)
        del on, at, past
        box = cover.reshape(c, *shape)
        box.cumsum(axis=a + 1, out=box)
        cover = cover.reshape(c, size)
        used[:, d - 1 - a] = hit = cover.any(axis=0)
        rows = cover.compress(hit, axis=1)
        del box, cover, hit
        found.append(rows.astype(np.min_scalar_type(rows.max(initial=0))))
    # the used edges come out in key order: the row-major rank of an
    # edge's lower vertex, times D, plus D-1-axis
    edge_keys = np.flatnonzero(used)
    del used
    counts = np.empty((len(edge_keys), c), np.result_type(np.uint8, *found))
    for a, rows in enumerate(found):
        counts[edge_keys % d == d - 1 - a] = rows.T
    return CongestionReport(edge_keys, counts, tuple(origin), tuple(shape),
                            class_table, lines, rank * d + (d - 1 - axis),
                            lengths, classes)


def measured_chi(tns: Tns, paths: PathAssignment) -> CongestionReport:
    """Tally routed lines per lattice edge from the legs of their chains.

    The chains come as one coordinate array in line-id order (see
    PathAssignment).  A leg is a maximal run of equal steps within one
    chain, found where some axis's step changes; its two end vertices
    give its edges.  A leg that is not a run of unit steps along one
    axis, or a chain with a step of a line the network lacks, raises
    ValueError.
    """
    ids, offsets, v = paths.line_ids, paths.offsets, paths.vertices
    n, d = v.shape
    # 1 at a leg's first vertex: a chain's first and where the step
    # changes; 2 at a chain's last vertex, which starts no leg
    mark = np.zeros(n, np.int8)
    for k in range(d):
        step = np.diff(v[:, k])
        mark[1:-1] |= step[1:] != step[:-1]
    del step
    full = (offsets[1:] > offsets[:-1]).nonzero()[0]
    mark[offsets[full]] = 1
    mark[offsets[full + 1] - 1] = 2
    at = mark.nonzero()[0]
    kind = mark[at]
    leg = (kind[:-1] == 1).nonzero()[0]
    # a leg's chain follows the non-empty chains that end before it
    chain = full[np.cumsum(kind == 2)[leg]]
    first, last = at[leg], at[leg + 1]
    del mark, at, kind, leg
    lengths = last - first
    # a leg is good when exactly one axis moves, by its number of steps
    lower = np.empty((len(first), d), np.int64)
    axis = np.zeros(len(first), np.min_scalar_type(d))
    moved = np.zeros(len(first), np.min_scalar_type(d))
    jump = np.zeros(len(first), bool)
    for k in range(d):
        low, span = v[first, k], v[last, k]
        np.minimum(low, span, out=lower[:, k])
        span -= low
        np.abs(span, out=span)
        on = span != 0
        moved += on
        axis[on] = k
        jump |= on & (span != lengths)
    del first, last, low, span, on
    jump = (jump | (moved != 1)).nonzero()[0]
    if jump.size:
        raise ValueError(f"path of line {ids[chain[jump[0]]]} makes a "
                         f"non-unit step")
    # a line's class, a (dimension, physical) pair, is looked up once
    # per line that crosses an edge
    steps = offsets[1:] - offsets[:-1] > 1
    crossed = ids[steps]
    unknown = ~np.isin(crossed, tns.line_id)
    if unknown.any():
        raise ValueError(f"path of line {crossed[unknown][0]} names no line "
                         f"of the network")
    by_id = tns.line_id.argsort(kind="stable")
    line = by_id[tns.line_id[by_id].searchsorted(crossed)]
    anchor = tns.kind == _ANCHOR
    physical = anchor[tns.line_ends[0, line]] | anchor[tns.line_ends[1, line]]
    table, classes = distinct(np.stack((tns.line_dim[line], physical), 1))
    del crossed, by_id, line, anchor, physical
    # legs keep a class code in the smallest dtype
    code = np.zeros(len(ids), np.min_scalar_type(len(table)))
    code[steps] = classes
    del steps, classes
    lines, classes = ids[chain], code[chain]
    del chain, code
    return _tally(lines, lower, axis, lengths, classes, table)


def chi_bound(meta: MeraMeta, dimension: int) -> int:
    """The log-chi bound that map prints, a count of lines from the
    network's meta constants alone: the cells within the allowed cell
    distance, times the allowed layer distance plus the cells of the
    layers it spans, times the tensors of a cell and their order.  No size
    enters it, yet it bounds the measured log-chi only for D >= 2; mera1d's
    is 160 and its measured host log-chi, 2T, passes it from T = 81.
    """
    b = meta.branching
    reach = (2 * meta.max_cell_distance) ** dimension
    spread = meta.max_layer_distance + b ** (dimension *
                                             (meta.max_layer_distance + 1))
    return reach * spread * meta.max_tensors_per_cell * meta.max_tensor_order


def line_density_estimate(dimension: int, branching: int, layers: int) -> float:
    """Sum over scales of the per-edge line density b**(-(D-1) tau).

    Diverges linearly in layers for D = 1 and converges geometrically for
    D >= 2, which is why congestion stays bounded only above one dimension.
    """
    return float(sum(branching ** (-(dimension - 1) * tau)
                     for tau in range(layers + 1)))


def congestion_csv(report: CongestionReport):
    """CSV rows (edge_a, edge_b, paths, bond_dim), sorted by edge, as the
    header and then batches of rows for a file's writelines.

    Counts include every line of the report, physical legs too;
    report.interior() gives the interior figures.  Rows are formatted
    column-wise from the report's per-edge arrays by tns.joined, 8 *
    JSON_SLICE edges per batch, so that neither the Python objects of
    every row nor the whole text is ever alive at once.  Each coordinate
    axis of the two ends is a numeral table with the ";" or "," after it
    folded in, and an edge's paths and bond dimension depend only on its
    row of counts, so their text is made once per distinct row.
    """
    row_tails = np.array([f",{paths},{bond}\n" for paths, bond in zip(
        report._paths.tolist(), report._bonds)], object)
    yield "edge_a,edge_b,paths,bond_dim\n"
    size = 8 * _tns.JSON_SLICE
    for i in range(0, len(report.edge_keys), size):
        batch = slice(i, i + size)
        lower, upper = report._ends(report.edge_keys[batch])
        yield joined(len(lower), *numeral_axes(lower, ";", ","),
                     *numeral_axes(upper, ";"),
                     row_tails[report._row_of_edge[batch]])


@dataclass(eq=False)
class Peps:
    """Embedded network on the host lattice: `factors` lists the (array,
    labels) factors, the network's tensors in node order and then the
    identity wires in line order, and `sites`, an (F, D) int64 array, their
    host sites.  Its bond dimensions on the physical lattice are those of
    measured_chi(...).blocked(placement.refine_factor).

    Contracting all factors over equal labels reproduces the original
    state.  Labels are ints but for the open physical indices ("p", site);
    the wires of one dimension share one identity array, so a wire is
    replaced by assigning a new tuple, never by writing into the array.
    `site_factors`, the factor lists by site, is made on each access.
    """

    lattice: LatticeSpec
    physical_dim: int
    factors: list[tuple[np.ndarray, tuple]]
    sites: np.ndarray

    def all_factors(self) -> list[tuple[np.ndarray, tuple]]:
        return self.factors

    @property
    def site_factors(self) -> dict[Site, list[tuple[np.ndarray, tuple]]]:
        by_site: dict[Site, list[tuple[np.ndarray, tuple]]] = {}
        for site, factor in zip(map(tuple, self.sites.tolist()), self.factors):
            by_site.setdefault(site, []).append(factor)
        return dict(sorted(by_site.items()))


def assemble_peps(tns: Tns, p: Placement, paths: PathAssignment) -> Peps:
    """Realize a routed placement as a grid network of local factors.

    Tensors become factors at their host sites, in node order, labelled
    by slot_labels.  A line crossing n >= 1 edges becomes the int segment
    labels first ... first + n - 1, first past the L line labels, joined
    by identity wires at its inner vertices.  A physical leg keeps its
    open index ("p", site) at its anchor's host site through one more
    wire, so the embedded network has one physical index per site.  Its
    bond dimensions are the report of measured_chi(tns, paths).
    """
    label_of = slot_labels(tns)
    ends = _orientation(tns)
    # each line's slots, the source's first
    flat = tns.dim_offsets[tns.line_ends] + tns.line_slots
    src_slot, dst_slot = np.where(ends[0] == tns.line_ends[0], flat, flat[::-1])
    # the paths cover the lines, as check_routing requires
    row = paths.line_ids.searchsorted(tns.line_id)
    start, n = paths.offsets[row], np.diff(paths.offsets)[row] - 1
    first = len(n) + np.cumsum(n) - n
    cut = n > 0  # a line of length 0 keeps its label
    anchored = cut & (tns.kind[ends[0]] == _ANCHOR)
    label_of[dst_slot[cut]] = (first + n - 1)[cut]
    label_of[src_slot[cut & ~anchored]] = first[cut & ~anchored]
    # k wires per line: one from an anchor's open label to the first
    # segment, then one per inner vertex; wire j leaves segment s[j]
    k = n - cut + anchored
    s = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k + anchored, k)
    code = np.repeat(first, k) + s
    ins = code.astype(object)
    ins[s < 0] = label_of[src_slot[anchored]]
    eye = {dim: np.eye(dim) for dim in set(tns.line_dim.tolist())}
    wires = zip(map(eye.get, np.repeat(tns.line_dim, k).tolist()),
                zip(ins.tolist(), (code + 1).tolist()))
    return Peps(p.lattice, tns.physical_dim,
                tns.all_factors(label_of.tolist()) + list(wires),
                np.concatenate((p.sites[tns.kind != _ANCHOR],
                                paths.vertices[np.repeat(start + 1, k) + s])))


def map_to_dict(p: Placement, paths: PathAssignment,
                sites: slice = slice(None), lines: slice = slice(None)) -> dict:
    """JSON-ready description of a routed placement, format map-v1.  Its
    sites and paths entries are those in the given ranges of site id order
    and line id order, all of them by default, so that a writer can encode
    the document a range at a time; the sites are sorted only when their
    range is not empty.

    The delta_tau and offsets entries are the ones the scheme fixes;
    read_map refuses any other.
    """
    first = range(len(paths.line_ids))[lines].start
    line_ids = paths.line_ids[lines].tolist()
    ends = paths.offsets[first:first + len(line_ids) + 1].tolist()
    vertices = list(zip(*paths.vertices[ends[0]:ends[-1]].T.tolist()))
    return {
        "version": "map-v1",
        "generator_version": GENERATOR_VERSION,
        "scheme": p.scheme,
        **scheme_members(p.scheme, p.lattice.dimension),
        "lattice": spec_to_dict(p.lattice),
        # json writes the (id, site) tuples as arrays
        "sites": sorted(zip(p.ids, zip(*p.sites.T.tolist())))[sites]
        if range(len(p.ids))[sites] else [],
        "paths": [[lid, vertices[a - ends[0]:b - ends[0]]] for lid, a, b in
                  zip(line_ids, ends, ends[1:])],
    }


def map_text(p: Placement, paths: PathAssignment):
    """The text of json.dumps(map_to_dict(p, paths)) and a newline, as
    batches of text for a file's writelines.  The header members come
    from map_to_dict; the sites, in id order, and the paths are formatted
    column-wise from the arrays, JSON_SLICE entries per batch, by
    tns.joined, so that neither the document nor its text is ever whole.
    Each coordinate axis is a numeral table with the ", " after it
    folded in (tns.numeral_axes).  A batch of paths is one stream of
    vertices, each ending with a tail: "], [" inside a chain, "]]],
    [<next id>, [[" at a chain's end and "]]]" at the batch's end.  Every
    chain needs a vertex, as route_lines makes it: ValueError names the
    first line whose chain has none."""
    step = _tns.JSON_SLICE
    head = map_to_dict(p, paths, slice(0), slice(0))
    del head["sites"], head["paths"]
    yield json.dumps(head)[:-1] + ', "sites": ['
    # ids are distinct, so this is the order sorted gives the sites
    order = np.array(p.ids, object).argsort(kind="stable")
    for start in range(0, len(order), step):
        at = order[start:start + step]
        if start:
            yield ", "
        yield joined(len(at), "[", encoded(map(p.ids.__getitem__,
                                               at.tolist())),
                     ", [", *numeral_axes(p.sites[at], ", "),
                     tails(len(at), "]], ", "]]"))
    yield '], "paths": ['
    for start in range(0, len(paths.line_ids), step):
        part = slice(start, start + step)
        ends = paths.offsets[start:start + step + 1]
        if start:
            yield ", "
        empty = (ends[1:] == ends[:-1]).nonzero()[0]
        if empty.size:
            lid = paths.line_ids[start + empty[0]]
            raise ValueError(f"path of line {lid} has no vertex")
        lids = numerals(paths.line_ids[part])
        tail = tails(ends[-1] - ends[0], "], [", "]]]")
        tail[ends[1:-1] - ends[0] - 1] = "]]], [" + lids[1:] + ", [["
        yield "[" + lids[0] + ", [["
        yield joined(len(tail), *numeral_axes(
            paths.vertices[ends[0]:ends[-1]], ", "), tail)
    yield "]}\n"


def read_map(data: dict, d: int | None = None):
    """The scheme, host lattice, site ids, (S, d) int64 site coordinates
    and PathAssignment of a map-v1 document, every check that needs no
    network made.  Sites and vertices have d coordinates, the host
    lattice's dimension when d is None.  ValueError when the document is
    not an object or lacks a key, when a path line id or a coordinate is
    no JSON integer or past int64, a node id no string, a site or vertex
    not d-dimensional, two sites or two paths share an id, the scheme is
    no key of SCHEMES, generator_version is no string, or delta_tau and
    offsets are not, as JSON text, the ones the scheme fixes.  The
    vertices are checked and packed a slice of paths at a time."""
    if not isinstance(data, dict):
        raise ValueError("malformed map-v1 document: not a JSON object")
    if data.get("version") != "map-v1":
        raise ValueError(f"unsupported map format {data.get('version')!r}")
    flat = itertools.chain.from_iterable
    past = ("malformed map-v1 document: a path line id or coordinate does "
            "not fit in 64 bits")
    step = _tns.JSON_SLICE
    with malformed("map-v1"):
        scheme, host = data["scheme"], spec_from_dict(data["lattice"])
        d = host.dimension if d is None else d
        nids = [nid for nid, _ in data["sites"]]
        if not {str}.issuperset(map(type, nids)):
            raise TypeError("node id is not a string")
        require_ints([lid for lid, _ in data["paths"]], "path line id")
        paths = sorted(data["paths"], key=operator.itemgetter(0))
        # the sites, then the vertices of each slice of paths
        parts = [[site for _, site in data["sites"]]]
        parts += (list(flat(chain for _, chain in paths[i:i + step]))
                  for i in range(0, len(paths), step))
        coords = []
        for rows in parts:
            if set(map(len, rows)) - {d}:
                raise TypeError(f"a site or path vertex is not "
                                f"{d}-dimensional")
            values = list(flat(rows))
            require_ints(values, "a site or path vertex coordinate")
            coords.append(int64_array(values, len(values),
                                      past=past).reshape(-1, d))
        coords = np.concatenate(coords)
    line_ids = int64_array(map(operator.itemgetter(0), paths), len(paths),
                           past=past)
    if (line_ids[1:] == line_ids[:-1]).any():
        raise ValueError("malformed map-v1 document: repeated path line id")
    if len(set(nids)) < len(nids):
        seen = set()
        repeat = next(nid for nid in nids if nid in seen or seen.add(nid))
        raise ValueError(f"malformed map-v1 document: repeated site id "
                         f"{repeat!r}")
    fixed = scheme_members(scheme, host.dimension)
    with malformed("map-v1"):
        if not isinstance(data["generator_version"], str):
            raise TypeError("generator_version is not a string")
        if (json.dumps([data[key] for key in fixed], sort_keys=True)
                != json.dumps(list(fixed.values()), sort_keys=True)):
            raise TypeError(f"delta_tau or offsets differ from the ones "
                            f"the {scheme} scheme writes")
    offsets = np.cumsum([0] + [len(chain) for _, chain in paths],
                        dtype=np.int64)
    return (scheme, host, nids, coords[:len(nids)],
            PathAssignment(line_ids, offsets, coords[len(nids):]))


def map_from_dict(data: dict, tns: Tns) -> tuple[Placement, PathAssignment]:
    """Placement and paths of a map-v1 description: read_map with the
    network's dimension, the sites then bound to the network's node
    order.  ValueError as read_map, or when a site names an unknown node
    or a node has no site."""
    # vertices have the network's dimension; check_routing compares the
    # host lattice with the network's
    scheme, host, nids, coords, paths = read_map(data, tns.spec.dimension)
    index = dict(zip(tns.ids, itertools.count()))
    named = np.array([index.get(nid, -1) for nid in nids], np.int64)
    count = np.bincount(named[named >= 0], minlength=len(tns.ids))
    for problem, bad, names in (
            ("site for unknown node", named < 0, nids),
            ("no site for node", count == 0, tns.ids)):
        if bad.any():
            raise ValueError(f"malformed map-v1 document: {problem} "
                             f"{names[int(bad.argmax())]!r}")
    sites = np.empty((len(tns.ids), tns.spec.dimension), np.int64)
    sites[named] = coords
    return Placement(scheme, host, tns.ids, sites, tns.kind == _ANCHOR), paths
