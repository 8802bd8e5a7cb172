"""Placement of hierarchical networks onto a single lattice, path routing,
congestion accounting, and assembly of the resulting embedded network.

Placement schemes position every tensor on a host grid:

* naive: layer-tau cell n sits at b**tau * n, stacking all layers above
  the origin region.
* shifted: layer-tau cell n sits at b**tau * n + b**(tau-1), which puts
  each layer on its own scale sublattice.
* refined: the host grid is refined by b**dt and layer-tau cell n sits at
  b**(tau+dt) * n + b**tau * m + b**(tau-1), where the offset m depends on
  the tensor variant.  This spreads the tensors of one cell over distinct
  sites.

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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Edge, LatticeSpec, Site, spec_from_dict, spec_to_dict
from .tns import (GENERATOR_VERSION, KIND_ANCHOR, KIND_DISENTANGLER,
                  KIND_ISOMETRY, KIND_TOP, ContractionLine, MeraMeta, Tns)

_KIND_RANK = {KIND_ANCHOR: 0, KIND_DISENTANGLER: 1, KIND_ISOMETRY: 2,
              KIND_TOP: 3}


def default_refined_offsets(dimension: int) -> dict[str, tuple[int, ...]]:
    """Per-variant sub-cell offsets used by the refined scheme.

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
    return offsets


@dataclass
class Placement:
    scheme: str
    lattice: LatticeSpec
    delta_tau: int
    site_of: dict[str, Site]
    anchor_ids: frozenset[str]

    @property
    def refine_factor(self) -> int:
        return self.lattice.branching ** self.delta_tau


def _tensor_site(scheme, b, tau, cell, dt, m):
    if scheme == "naive":
        return tuple(b ** tau * c for c in cell)
    if scheme == "shifted":
        return tuple(b ** tau * c + b ** (tau - 1) for c in cell)
    return tuple(b ** (tau + dt) * c + b ** tau * mi + b ** (tau - 1)
                 for c, mi in zip(cell, m))


def _place(tns: Tns, scheme: str, delta_tau: int = 0) -> Placement:
    b = tns.spec.branching
    d = tns.spec.dimension
    if scheme == "refined":
        if delta_tau < 1:
            raise ValueError("refined placement needs delta_tau >= 1")
        offsets = default_refined_offsets(d)
        factor = b ** delta_tau
        host = LatticeSpec(d, tns.spec.length * factor, b,
                           tns.spec.layers + delta_tau, tns.spec.boundary)
    else:
        delta_tau, offsets, factor = 0, None, 1
        host = tns.spec

    site_of = {}
    anchor_ids = set()
    for node in tns.nodes.values():
        if node.kind == KIND_ANCHOR:
            anchor_ids.add(node.id)
            site = tuple(factor * c for c in node.cell)
            if scheme == "refined" and d >= 2:
                # keep anchors off the tensor sublattices: x stays even
                # except for an offset of 1, which no layer >= 2 site has,
                # and layer-1 sites differ in the remaining parities
                site = (site[0] + 1,) + site[1:]
        else:
            m = offsets.get(node.variant, (0,) * d) if offsets else None
            site = _tensor_site(scheme, b, node.layer, node.cell,
                                delta_tau, m)
        if not host.contains(site):
            raise ValueError(f"{node.id} placed outside the host lattice "
                             f"at {site}")
        site_of[node.id] = site
    return Placement(scheme, host, delta_tau, site_of, frozenset(anchor_ids))


def place_naive(tns: Tns) -> Placement:
    """Scale positions by b**tau only; layers pile up near the origin."""
    return _place(tns, "naive")


def place_shifted(tns: Tns) -> Placement:
    """Offset layer tau by b**(tau-1); each layer gets its own sublattice."""
    return _place(tns, "shifted")


def place_refined(tns: Tns, delta_tau: int = 1) -> Placement:
    """Place on a b**delta_tau refined grid with the default per-variant
    offsets."""
    return _place(tns, "refined", delta_tau)


def place(tns: Tns, scheme: str, delta_tau: int = 1) -> Placement:
    """Placement by scheme name: naive, shifted or refined."""
    if scheme == "naive":
        return place_naive(tns)
    if scheme == "shifted":
        return place_shifted(tns)
    if scheme == "refined":
        return place_refined(tns, delta_tau)
    raise ValueError(f"unknown placement scheme {scheme!r}")


@dataclass
class StackReport:
    counts: dict[Site, int]
    max_height: int


def detect_stacks(p: Placement) -> StackReport:
    """Per-site tensor counts.  Anchors are bookkeeping and excluded."""
    counts: dict[Site, int] = {}
    for nid, site in p.site_of.items():
        if nid in p.anchor_ids:
            continue
        counts[site] = counts.get(site, 0) + 1
    return StackReport(counts, max(counts.values(), default=0))


def _orient(tns: Tns, line: ContractionLine):
    """Deterministic (source, target) endpoint order for routing."""
    (na, sa), (nb, sb) = line.endpoints()
    pa, pb = tns.nodes[na], tns.nodes[nb]
    ka = (pa.layer, _KIND_RANK[pa.kind], pa.id)
    kb = (pb.layer, _KIND_RANK[pb.kind], pb.id)
    return (na, nb) if ka <= kb else (nb, na)


def _junction_axis(s: Site, t: Site) -> int:
    """Approach axis for a line feeding an apex isometry.

    Apex inputs form a co-columnar cluster: routed through the last axis
    alone they would all descend the one column through the apex.  Lines
    that run strongly horizontal, at least four times as far along the
    first axis as the second, leave their source's row early and approach
    along the target's row instead, which splits the cluster over both
    grid lines through the apex.  The remaining lines approach along the
    last axis so their first leg stays on the source's row and off the
    column that carries the source's own inputs.  Straight lines need no
    choice and higher dimensions fall back to the last axis.
    """
    d = len(s)
    if d != 2:
        return d - 1
    dx, dy = abs(t[0] - s[0]), abs(t[1] - s[1])
    if dy == 0:
        return 0
    if dx == 0:
        return 1
    return 0 if dx >= 4 * dy else 1


def _apex_isometries(tns: Tns) -> frozenset[str]:
    """Ids of isometries that are the only one of their layer.

    Such a layer has a single cell, so no disentangler precedes it and the
    apex gathers every input directly.
    """
    per_layer: dict[int, list[str]] = {}
    for node in tns.nodes.values():
        if node.kind == KIND_ISOMETRY:
            per_layer.setdefault(node.layer, []).append(node.id)
    return frozenset(ids[0] for ids in per_layer.values() if len(ids) == 1)


def _approach_axis(tns: Tns, apex: frozenset[str], src: str, dst: str,
                   s: Site, t: Site) -> int:
    """Final-segment axis for the line from src at s to dst at t."""
    d = len(s)
    if d == 1:
        return 0
    if tns.nodes[src].kind == KIND_ISOMETRY and dst in apex:
        return _junction_axis(s, t)
    if (tns.nodes[dst].variant == "u2x1"
            and tns.nodes[src].kind == KIND_ANCHOR):
        return 0
    if (tns.nodes[src].variant == "u1x2"
            and tns.nodes[dst].kind == KIND_ISOMETRY
            and abs(t[0] - s[0]) > tns.spec.branching):
        return 0
    return d - 1


@dataclass
class PathAssignment:
    """Vertex chains per line id, each running from the line's source to
    its target as _orient orders them.  A chain of length one denotes
    co-located endpoints and crosses no edge.
    """

    chains: dict[int, tuple[Site, ...]]


def _coarse_track(s_val: int, t_val: int, step: int) -> int | None:
    """Multiple of step nearest s_val within [s_val, t_val], or None.

    Taking the multiple on the source's side spreads lines that share a
    target over distinct tracks, one per source.
    """
    if t_val >= s_val:
        track = -((-s_val) // step) * step
        return track if track <= t_val else None
    track = (s_val // step) * step
    return track if track >= t_val else None


def _is_narrow_gather(tns: Tns, src: str, dst: str) -> bool:
    """True for isometry lines into a 2x1 disentangler.

    Such lines travel far along both axes, and their vertical stretch
    would land on a collect column that is already full: a 2x1
    disentangler shares its column with the isometry above it.  They
    ride a coarse vertical track instead.  The 1x2 case needs none of
    this; its own column carries no gathering isometry.
    """
    return (tns.nodes[src].kind == KIND_ISOMETRY
            and tns.nodes[dst].variant == "u2x1")


def _walk_to(chain: list[Site], cur: list[int], wp: Site, order) -> None:
    """Step cur to wp one axis at a time, in the given axis order,
    appending every vertex to chain."""
    for ax in order:
        sgn = 1 if wp[ax] > cur[ax] else -1
        while cur[ax] != wp[ax]:
            cur[ax] += sgn
            chain.append(tuple(cur))


def _route_one(tns: Tns, p: Placement, apex: frozenset[str], src: str,
               dst: str, s: Site, t: Site) -> tuple[Site, ...]:
    d = len(s)
    chain, cur = [s], list(s)
    if d == 2 and _is_narrow_gather(tns, src, dst):
        step = p.lattice.branching ** tns.nodes[dst].layer
        track = _coarse_track(s[0], t[0], step)
        if track is not None:
            for wp in ((track,) + s[1:], (track,) + t[1:], t):
                _walk_to(chain, cur, wp, range(d))
            return tuple(chain)
    axis = _approach_axis(tns, apex, src, dst, s, t)
    _walk_to(chain, cur, t, [i for i in range(d) if i != axis] + [axis])
    return tuple(chain)


def route_lines(tns: Tns, p: Placement) -> PathAssignment:
    """Deterministic L1-shortest paths for every contraction line.

    Axis order is all non-approach axes ascending, then the approach axis
    of the endpoint pair, so the final segment runs on the target's grid
    line and the earlier segments on the source's.  Isometry lines into a
    2x1 disentangler instead ride the coarse track nearest the source
    when their horizontal span contains one, crossing over to it on the
    source's grid line and leaving it on the target's.
    """
    chains = {}
    apex = _apex_isometries(tns)
    for line in tns.lines:
        src, dst = _orient(tns, line)
        chains[line.id] = _route_one(tns, p, apex, src, dst, p.site_of[src],
                                     p.site_of[dst])
    return PathAssignment(chains)


def check_routing(tns: Tns, p: Placement,
                  paths: PathAssignment) -> str | None:
    """First structural problem of a routed placement, or None.

    The sites must cover the nodes and sit where the scheme puts them; an
    unknown scheme, or a delta_tau the scheme refuses, raises ValueError.
    Every line needs a path from its source's site to its target's that
    stays on the host grid, whose coordinates are ints, moves by unit
    steps and is L1-shortest, as route_lines makes it.
    """
    if set(p.site_of) != set(tns.nodes):
        return "map sites do not cover the network nodes"
    expected = place(tns, p.scheme, p.delta_tau)
    if expected.lattice != p.lattice:
        return "host lattice does not match the scheme"
    if expected.site_of != p.site_of:
        return "site positions do not match the scheme"
    if set(paths.chains) != {ln.id for ln in tns.lines}:
        return "paths do not cover the contraction lines"
    for line in tns.lines:
        chain = paths.chains[line.id]
        s, t = (p.site_of[nid] for nid in _orient(tns, line))
        if not chain or chain[0] != s or chain[-1] != t:
            return f"path of line {line.id} does not join its endpoints"
        # bools and integral floats compare equal to ints but are no sites
        off = next((v for v in chain if any(type(c) is not int for c in v)
                    or not p.lattice.contains(v)), None)
        if off is not None:
            return f"path of line {line.id} leaves the host grid at {off}"
        for a, b in zip(chain, chain[1:]):
            if sum(abs(x - y) for x, y in zip(a, b)) != 1:
                return f"path of line {line.id} jumps"
        if len(chain) - 1 != sum(abs(x - y) for x, y in zip(s, t)):
            return f"path of line {line.id} is not L1-shortest"
    return None


@dataclass(eq=False)
class CongestionReport:
    """Edge usage of a routed placement.

    Every crossing of a line over a host edge is one entry of keys and
    line_ids, in line-id order.  An edge's key is the row-major index of
    its lower vertex in the box of the given origin and shape, times D,
    plus D-1-axis, so keys sort edges as (lower, upper) vertex pairs.
    edge_lines, the sorted ids of the lines crossing each edge, is built
    on first use.  Physical-leg lines (those ending on an anchor) can be
    included or excluded from every figure; embedded-network bond
    dimensions include them, while the interior congestion figures of the
    refined scheme exclude them.  The per-edge figures are taken once,
    when the report is made.
    """

    keys: np.ndarray
    origin: Site
    shape: tuple[int, ...]
    line_ids: np.ndarray
    line_dims: dict[int, int]
    physical_lines: frozenset[int]

    def __post_init__(self):
        self._edge_keys, edge = np.unique(self.keys, return_inverse=True)
        # a line class is a (dimension, physical) pair; an edge's figures
        # depend only on its count per class, so they are taken exactly,
        # in Python ints, once per distinct row of counts.  Crossings of
        # one line are adjacent, so a class is looked up once per line.
        lids = self.line_ids
        first_of_line = np.ones(len(lids), bool)
        first_of_line[1:] = lids[1:] != lids[:-1]
        starts = np.flatnonzero(first_of_line)
        runs = lids[starts].tolist()
        line_class = list(zip(map(self.line_dims.__getitem__, runs),
                              map(self.physical_lines.__contains__, runs)))
        classes = {c: i for i, c in enumerate(dict.fromkeys(line_class))}
        shape = len(self._edge_keys), len(classes)
        edge *= shape[1]
        edge += np.repeat(
            np.fromiter(map(classes.__getitem__, line_class), np.int64,
                        len(runs)),
            np.diff(starts, append=len(lids)))
        counts = np.bincount(edge, minlength=math.prod(shape)).reshape(shape)
        # distinct rows of counts: fold the columns into one code, made
        # dense after each, so it stays below edges * (crossings + 1)
        code = np.zeros(len(counts), np.int64)
        for column in counts.T:
            code = np.unique(code * (int(column.max()) + 1) + column,
                             return_inverse=True)[1]
        rows = np.zeros((int(code.max(initial=-1)) + 1, len(classes)),
                        np.int64)
        rows[code] = counts
        self._row_of_edge = code
        # (paths, bond dimension) per distinct row, by include_physical
        dims = [d for d, _ in classes]
        interior = np.array([not ph for _, ph in classes], bool)
        self._paths, self._bonds = {}, {}
        for include_physical, used in ((True, rows),
                                       (False, rows * interior)):
            self._paths[include_physical] = used.sum(axis=1)
            self._bonds[include_physical] = [
                math.prod(map(pow, dims, row)) for row in used.tolist()]

    def _ends(self, keys):
        """Lower and upper vertices, as (n, D) arrays, of keyed edges."""
        d = len(self.shape)
        rank, rest = np.divmod(keys, d)
        lower = np.stack(np.unravel_index(rank, self.shape), axis=1)
        lower += self.origin
        upper = lower.copy()
        upper[np.arange(len(keys)), d - 1 - rest] += 1
        return lower, upper

    def _edge_paths(self, include_physical):
        """Number of counted lines on each edge, in key order."""
        return self._paths[include_physical][self._row_of_edge]

    @functools.cached_property
    def edge_lines(self) -> dict[Edge, tuple[int, ...]]:
        """Sorted ids of the lines crossing each edge, in edge order."""
        lids = self.line_ids[np.argsort(self.keys, kind="stable")].tolist()
        ends = np.cumsum(self._edge_paths(True)).tolist()
        lower, upper = self._ends(self._edge_keys)
        return {(a, b): tuple(lids[s:t]) for a, b, s, t in
                zip(map(tuple, lower.tolist()), map(tuple, upper.tolist()),
                    [0] + ends, ends)}

    def _counted(self, lines, include_physical):
        if include_physical:
            return lines
        return tuple(l for l in lines if l not in self.physical_lines)

    def paths_through(self, edge: Edge, include_physical: bool = True) -> int:
        return len(self._counted(self.edge_lines.get(edge, ()),
                                 include_physical))

    def bond_dim_of(self, edge: Edge, include_physical: bool = True) -> int:
        return math.prod(map(self.line_dims.__getitem__,
                             self._counted(self.edge_lines.get(edge, ()),
                                           include_physical)))

    def max_paths(self, include_physical: bool = True) -> int:
        return int(self._paths[include_physical].max(initial=0))

    def busiest_edge(self, include_physical: bool = True):
        """First edge in edge order that carries the most counted lines,
        with their number; (None, 0) when no counted line crosses one."""
        paths = self._edge_paths(include_physical)
        if not paths.any():
            return None, 0
        i = int(paths.argmax())
        lower, upper = self._ends(self._edge_keys[i:i + 1])
        return ((tuple(lower[0].tolist()), tuple(upper[0].tolist())),
                int(paths[i]))

    def chi_peps(self, include_physical: bool = True) -> int:
        return max(self._bonds[include_physical], default=1)

    def log_chi_peps(self, chi: int, include_physical: bool = True) -> float:
        if chi < 2:
            raise ValueError("chi must be >= 2 for a log-chi figure")
        return math.log(self.chi_peps(include_physical)) / math.log(chi)


def _crossing_keys(axes, line_ids: np.ndarray):
    """Edge keys of crossings given per axis as (tail, head) coordinate
    columns, with the origin and shape of the box of their lower
    vertices; ValueError on a step that is not a unit step."""
    rank = length = axis = 0
    origin, shape, box = [], [], 1
    for k, (tail, head) in enumerate(axes):
        step = head - tail
        lower = np.minimum(tail, head)
        lo, hi = (int(lower.min()), int(lower.max())) if len(lower) else (0, 0)
        origin.append(lo)
        shape.append(hi - lo + 1)
        box *= hi - lo + 1
        if box * (k + 1) >= 2 ** 63:
            raise ValueError("paths span too large a box to tally")
        rank = rank * (hi - lo + 1) + (lower - lo)
        length = length + np.abs(step)
        axis = np.where(step != 0, k, axis)
    jump = np.flatnonzero(length != 1)
    if jump.size:
        raise ValueError(f"path of line {line_ids[jump[0]]} makes a "
                         f"non-unit step")
    d = len(shape)
    return rank * d + (d - 1 - axis), tuple(origin), tuple(shape)


def _chain_steps(chains, lengths: np.ndarray, d: int):
    """Per axis, the tail and head coordinates of every step between
    consecutive vertices of a chain, the chains flattened in order."""
    flat = np.fromiter(itertools.chain.from_iterable(
        itertools.chain.from_iterable(chains)), np.int64,
        int(lengths.sum()) * d)
    coords = flat.reshape(-1, d)
    inner = np.ones(len(coords), bool)
    inner[np.cumsum(lengths)[lengths > 0] - 1] = False
    inner = inner[:-1]
    for k in range(d):
        yield coords[:-1, k][inner], coords[1:, k][inner]


def measured_chi(tns: Tns, paths: PathAssignment) -> CongestionReport:
    """Tally routed lines per lattice edge.

    The chains are flattened once, in line-id order, into one coordinate
    array; each step between consecutive vertices of a chain is one
    crossing, so every edge's ids come out sorted.  Vertices of differing
    dimension, or a step that is not a unit step, raise ValueError.
    """
    ids = sorted(paths.chains)
    chains = list(map(paths.chains.__getitem__, ids))
    lengths = np.fromiter(map(len, chains), np.int64, len(chains))
    line_ids = np.repeat(np.asarray(ids, np.int64),
                         np.maximum(lengths - 1, 0))
    dims = set(map(len, itertools.chain.from_iterable(chains)))
    if len(dims) > 1:
        raise ValueError("path vertices differ in dimension")
    d = dims.pop() if dims else tns.spec.dimension
    return CongestionReport(
        *_crossing_keys(_chain_steps(chains, lengths, d), line_ids),
        line_ids, {ln.id: ln.dim for ln in tns.lines},
        frozenset(ln.id for ln in tns.lines if tns.is_physical_line(ln)))


def chi_bound(meta: MeraMeta, dimension: int) -> int:
    """Size-independent cap on the log-chi bond dimension of the embedding.

    Combines the worst-case number of lines that can share one edge: those
    bridging nearby cells of the same scale, across the allowed layer
    distance, for every tensor of a cell, at every order.
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


def congestion_csv(report: CongestionReport) -> str:
    """CSV rows (edge_a, edge_b, paths, bond_dim), sorted by edge.

    Counts include physical-leg lines; interior-only figures are available
    through the report API.  Rows are formatted column-wise from the
    report's per-edge arrays, a batch of edges at a time, which bounds
    the Python objects alive at once.
    """
    vertex = ";".join(["%d"] * len(report.shape))
    row = f"{vertex},{vertex},%d,%d\n".__mod__
    paths = report._edge_paths(True)
    parts, size = ["edge_a,edge_b,paths,bond_dim\n"], 1 << 16
    for i in range(0, len(paths), size):
        batch = slice(i, i + size)
        lower, upper = report._ends(report._edge_keys[batch])
        parts.append("".join(map(row, zip(
            *lower.T.tolist(), *upper.T.tolist(), paths[batch].tolist(),
            map(report._bonds[True].__getitem__,
                report._row_of_edge[batch].tolist())))))
    return "".join(parts)


@dataclass
class Peps:
    """Embedded network: per-site lists of (array, labels) factors on the
    host grid.

    Contracting all factors over equal labels reproduces the original
    state; labels of the form ("p", site) are the open physical indices.
    congestion tallies the lines crossing each host edge, so the bond
    dimension of an edge is the product of its lines' dimensions.
    """

    lattice: LatticeSpec
    physical_lattice: LatticeSpec
    refine_factor: int
    physical_dim: int
    site_factors: dict[Site, list[tuple[np.ndarray, tuple]]]
    congestion: CongestionReport

    def all_factors(self) -> list[tuple[np.ndarray, tuple]]:
        return [f for site in sorted(self.site_factors)
                for f in self.site_factors[site]]

    def site_tensor(self, site: Site):
        """Dense tensor of one site: factors contracted over labels shared
        within the site.  Returns (array, open labels)."""
        from .dense import contract_labeled
        factors = self.site_factors.get(site, [])
        if not factors:
            return np.array(1.0 + 0j), ()
        return contract_labeled(factors)


def assemble_peps(tns: Tns, p: Placement, paths: PathAssignment) -> Peps:
    """Realize a routed placement as a grid network of local factors.

    Tensors become factors at their host sites.  A line of positive length
    is split into one label per traversed edge, joined by identity wires at
    the intermediate sites.  A physical leg keeps its open index at the
    anchor's host site through an identity wire, so the embedded network
    has one physical index per original site, located where the anchor was
    placed.
    """
    label_of: dict[tuple[str, int], object] = {}
    wires: dict[Site, list[tuple[np.ndarray, tuple]]] = {}

    for line in tns.lines:
        src, dst = _orient(tns, line)
        chain = paths.chains[line.id]
        src_slot = (line.a if line.a[0] == src else line.b)
        dst_slot = (line.b if src_slot is line.a else line.a)
        phys = ("p", tns.nodes[src].cell) if src in p.anchor_ids else None
        if len(chain) == 1:
            if phys:
                label_of[dst_slot] = phys
            else:
                label_of[src_slot] = label_of[dst_slot] = ("i", line.id)
            continue
        eye = np.eye(line.dim)
        labels = [("t", line.id, j) for j in range(len(chain) - 1)]
        if phys:
            wires.setdefault(chain[0], []).append((eye, (phys, labels[0])))
        else:
            label_of[src_slot] = labels[0]
        label_of[dst_slot] = labels[-1]
        for j in range(1, len(labels)):
            wires.setdefault(chain[j], []).append(
                (eye, (labels[j - 1], labels[j])))

    site_factors: dict[Site, list[tuple[np.ndarray, tuple]]] = {}
    for node in tns.nodes.values():
        if node.kind == KIND_ANCHOR:
            continue
        labels = tuple(label_of[(node.id, slot)]
                       for slot in range(node.order))
        site_factors.setdefault(p.site_of[node.id], []).append(
            (node.elements, labels))
    for site, fs in wires.items():
        site_factors.setdefault(site, []).extend(fs)

    return Peps(p.lattice, tns.spec, p.refine_factor, tns.physical_dim,
                {s: site_factors[s] for s in sorted(site_factors)},
                measured_chi(tns, paths))


def contract_refined_to_normal(peps: Peps) -> Peps:
    """Merge the refine_factor blocks of a refined embedding into single
    sites of the physical grid.

    Lines between sites of one block become internal to the merged site;
    lines crossing a block boundary multiply into the merged bond, so a
    merged edge carries the product of the parallel refined bonds.  The
    crossings of block boundaries are tallied again as unit steps of the
    physical grid.
    """
    factor = peps.refine_factor

    def block(site):
        return tuple(c // factor for c in site)

    site_factors: dict[Site, list[tuple[np.ndarray, tuple]]] = {}
    for site in sorted(peps.site_factors):
        site_factors.setdefault(block(site), []).extend(
            peps.site_factors[site])

    report = peps.congestion
    lower, upper = report._ends(report.keys)
    lower //= factor
    upper //= factor
    crossing = (lower != upper).any(axis=1)
    line_ids = report.line_ids[crossing]
    coarse = peps.physical_lattice
    return Peps(coarse, coarse, 1, peps.physical_dim, site_factors,
                CongestionReport(
                    *_crossing_keys(zip(lower[crossing].T,
                                        upper[crossing].T), line_ids),
                    line_ids, report.line_dims, report.physical_lines))


def map_to_dict(p: Placement, paths: PathAssignment) -> dict:
    """JSON-ready description of a routed placement, format map-v1.

    The offsets entry is derived from the scheme and not read back.
    """
    offsets = (default_refined_offsets(p.lattice.dimension)
               if p.scheme == "refined" else None)
    return {
        "version": "map-v1",
        "generator_version": GENERATOR_VERSION,
        "scheme": p.scheme,
        "delta_tau": p.delta_tau,
        "offsets": dict(sorted(offsets.items())) if offsets else None,
        "lattice": spec_to_dict(p.lattice),
        # json writes the (id, site) and (id, chain) tuples as arrays
        "sites": sorted(p.site_of.items()),
        "paths": sorted(paths.chains.items()),
    }


def map_from_dict(data: dict, tns: Tns) -> tuple[Placement, PathAssignment]:
    """Placement and paths from a map-v1 description; ValueError when the
    document is not an object, lacks a key or a site for a network node,
    or has a delta_tau that is not an integer."""
    if not isinstance(data, dict):
        raise ValueError("malformed map-v1 document: not a JSON object")
    if data.get("version") != "map-v1":
        raise ValueError(f"unsupported map format {data.get('version')!r}")
    try:
        host = spec_from_dict(data["lattice"])
        site_of = {nid: tuple(site) for nid, site in data["sites"]}
        if type(data["delta_tau"]) is not int:
            raise TypeError(f"delta_tau {data['delta_tau']!r} is not an "
                            f"integer")
        p = Placement(data["scheme"], host, data["delta_tau"], site_of,
                      frozenset(n.id for n in tns.anchors()))
        chains = {lid: tuple(tuple(v) for v in chain)
                  for lid, chain in data["paths"]}
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed map-v1 document: "
                         f"{type(exc).__name__} {exc}") from exc
    missing = next((nid for nid in tns.nodes if nid not in site_of), None)
    if missing is not None:
        raise ValueError(f"malformed map-v1 document: no site for node "
                         f"{missing!r}")
    return p, PathAssignment(chains)
