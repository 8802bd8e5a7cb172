"""Builders for hierarchical tensor network states on scale lattices.

A network is a collection of tensors organised in layers 1..T above a
physical lattice (layer 0).  Disentanglers act across block boundaries,
isometries coarse-grain one block to one site of the next layer, and a top
tensor closes the hierarchy.  Physical sites are represented by order-1
anchor nodes; the line into an anchor is the open physical index.

Slot conventions (array axes follow slot order):

* isometry: slots 0..k-1 are the fine block sites in lexicographic order,
  slot k is the coarse output.  Elements have shape (*fine, coarse) and
  orthonormal columns, so contracting the coarse slot with a normalized
  state yields a normalized fine state.
* disentangler: slots 0..k-1 face the layer below (circuit outputs), slots
  k..2k-1 face the layer above (circuit inputs), both in lexicographic
  site order.  Elements are a unitary reshaped as (*below, *above).
* two-site gate (binary-tree builder): slots (0, 1) are inputs, (2, 3)
  outputs, each ordered (first site, second site).
* top and physical-anchor nodes have a single slot 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .lattice import (LatticeSpec, Site, require_ints, spec_from_dict,
                      spec_to_dict)

GENERATOR_VERSION = "tnkit-0.1.0"

KIND_DISENTANGLER = "disentangler"
KIND_ISOMETRY = "isometry"
KIND_TOP = "top"
KIND_ANCHOR = "physical-anchor"
KINDS = frozenset((KIND_DISENTANGLER, KIND_ISOMETRY, KIND_TOP, KIND_ANCHOR))
# int64 code of each kind in node arrays; the router orders a line's
# endpoints by it within a layer
KIND_CODES = {KIND_ANCHOR: 0, KIND_DISENTANGLER: 1, KIND_ISOMETRY: 2,
              KIND_TOP: 3}


@dataclass(frozen=True)
class MeraMeta:
    """Per-family structural constants, all independent of lattice size.

    chi bounds every contraction line dimension, max_tensor_order the slot
    count of any tensor, max_tensors_per_cell the number of tensors sharing
    one cell of their layer, max_cell_distance the L1 cell distance bridged
    by any line (measured in the coarser layer of its endpoints), and
    max_layer_distance the number of layers a line may skip.
    """

    chi: int
    branching: int
    max_tensor_order: int
    max_tensors_per_cell: int
    max_cell_distance: int
    max_layer_distance: int


@dataclass(eq=False)
class TensorNode:
    """One tensor of the network.

    `kind` is the structural role; `variant` the placement flavour used to
    key position offsets ("u", "w", "u2x2", "u2x1", "u1x2", "g", "t", "p").
    `elements` is None for symbolic networks.
    """

    id: str
    layer: int
    cell: tuple[int, ...]
    kind: str
    variant: str
    dims: tuple[int, ...]
    elements: np.ndarray | None = None

    @property
    def order(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class ContractionLine:
    """A contracted index pair between two node slots."""

    id: int
    a: tuple[str, int]
    b: tuple[str, int]
    dim: int


@dataclass
class Tns:
    spec: LatticeSpec
    physical_dim: int
    chi: int
    meta: MeraMeta
    nodes: dict[str, TensorNode] = field(default_factory=dict)
    lines: list[ContractionLine] = field(default_factory=list)

    def anchors(self) -> list[TensorNode]:
        return [n for n in self.nodes.values() if n.kind == KIND_ANCHOR]

    def is_physical_line(self, line: ContractionLine) -> bool:
        nodes = self.nodes
        return (nodes[line.a[0]].kind == KIND_ANCHOR
                or nodes[line.b[0]].kind == KIND_ANCHOR)


class _Wiring:
    """Accumulates nodes and lines with deterministic ordering."""

    def __init__(self):
        self.nodes: dict[str, TensorNode] = {}
        self.lines: list[ContractionLine] = []

    def add(self, node: TensorNode) -> TensorNode:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        return node

    def connect(self, a: tuple[str, int], b: tuple[str, int], dim: int) -> None:
        self.lines.append(ContractionLine(len(self.lines), a, b, dim))


def _random_isometry(rng, fine_dims, coarse_dim) -> np.ndarray:
    """Array of shape (*fine_dims, coarse_dim) with orthonormal columns."""
    rows = int(np.prod(fine_dims))
    a = rng.standard_normal((rows, coarse_dim)) \
        + 1j * rng.standard_normal((rows, coarse_dim))
    q, r = np.linalg.qr(a)
    # fix the gauge so the decomposition is unique and runs reproduce
    q = q * np.sign(np.real(np.diagonal(r)) + 1e-300)
    return np.ascontiguousarray(q.reshape(*fine_dims, coarse_dim))


def _random_unitary(rng, leg_dims) -> np.ndarray:
    """Unitary on prod(leg_dims), shaped (*leg_dims_out, *leg_dims_in)."""
    n = int(np.prod(leg_dims))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.real(np.diagonal(r)) + 1e-300)
    return np.ascontiguousarray(q.reshape(*leg_dims, *leg_dims))


def _random_top(rng, dim) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _anchor_id(site: Site) -> str:
    return "p:" + ",".join(str(c) for c in site)


def _add_anchors(w: _Wiring, spec: LatticeSpec, phys_dim: int):
    exposed = {}
    for site in spec.sites():
        sid = _anchor_id(site)
        w.add(TensorNode(sid, 0, site, KIND_ANCHOR, "p", (phys_dim,)))
        exposed[site] = (sid, 0)
    return exposed


def _node_id(variant: str, tau: int, cell) -> str:
    return f"{variant}:{tau}:" + ",".join(str(c) for c in cell)


# Per-axis roles of a disentangler pattern: the first cell n that carries
# it and the offsets from b*n of the sites it covers.  A straddling axis
# covers the sites b*n - 1, b*n on either side of an interior block
# boundary; a middle axis covers the site b*n + 1 inside the block.
_STRADDLE = (1, (-1, 0))
_MIDDLE = (0, (1,))

# (dimension, b) -> disentangler patterns (variant, role per axis), in the
# order their tensors are added and their elements drawn.
_FAMILIES = {
    (1, 2): (("u", (_STRADDLE,)),),
    (2, 2): (("u", (_STRADDLE, _STRADDLE)),),
    (2, 3): (("u2x2", (_STRADDLE, _STRADDLE)),
             ("u2x1", (_STRADDLE, _MIDDLE)),
             ("u1x2", (_MIDDLE, _STRADDLE))),
}


def _cover(roles, b: int, out: int):
    """(cell, covered sites) pairs of one pattern on a layer of out^D cells,
    cells and each cell's sites in lexicographic order.  roles holds one
    (first cell, site offsets) pair per axis."""
    axes = [{n: tuple(b * n + o for o in offs) for n in range(first, out)}
            for first, offs in roles]
    for n in itertools.product(*axes):
        yield n, itertools.product(*map(operator.getitem, axes, n))


def _build_mera(dimension: int, b: int, layers: int, chi: int,
                phys_dim: int, seed: int, with_elements: bool) -> Tns:
    """Hierarchical network with b**dimension blocks on a (b**layers)^D grid.

    Layer tau first applies the family's disentangler patterns across the
    block boundaries, pattern by pattern and cells in lexicographic order,
    then isometries coarse-grain each block to one site of the next layer.
    Sites no disentangler covers feed their isometry directly.  A top
    tensor closes the hierarchy.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if chi < 1:
        raise ValueError("chi must be >= 1")
    if phys_dim < 2:
        raise ValueError("phys_dim must be >= 2")
    patterns = [(variant, roles, math.prod(len(offs) for _, offs in roles))
                for variant, roles in _FAMILIES[(dimension, b)]]
    block = b ** dimension
    spec = LatticeSpec(dimension, b ** layers, b, layers)
    rng = np.random.default_rng(seed)
    # index dimension per layer; grows by the block size until capped
    dims = [phys_dim]
    for _ in range(layers):
        dims.append(min(chi, dims[-1] ** block))
    w = _Wiring()
    exposed = _add_anchors(w, spec, phys_dim)
    block_roles = ((0, tuple(range(b))),) * dimension

    for tau in range(1, layers + 1):
        out = spec.length // b ** tau
        f, c = dims[tau - 1], dims[tau]
        for variant, roles, legs in patterns:
            for n, sites in _cover(roles, b, out):
                u = w.add(TensorNode(
                    _node_id(variant, tau, n), tau, n, KIND_DISENTANGLER,
                    variant, (f,) * (2 * legs),
                    _random_unitary(rng, (f,) * legs) if with_elements
                    else None))
                for i, s in enumerate(sites):
                    w.connect(exposed[s], (u.id, i), f)
                    exposed[s] = (u.id, legs + i)
        new_exposed = {}
        for n, sites in _cover(block_roles, b, out):
            iso = w.add(TensorNode(
                _node_id("w", tau, n), tau, n, KIND_ISOMETRY, "w",
                (f,) * block + (c,),
                _random_isometry(rng, (f,) * block, c) if with_elements
                else None))
            for i, s in enumerate(sites):
                w.connect(exposed[s], (iso.id, i), f)
            new_exposed[n] = (iso.id, block)
        exposed = new_exposed

    origin = (0,) * dimension
    top = w.add(TensorNode(_node_id("t", layers, origin), layers, origin,
                           KIND_TOP, "t", (dims[layers],),
                           _random_top(rng, dims[layers]) if with_elements
                           else None))
    w.connect(exposed[origin], (top.id, 0), dims[layers])

    meta = MeraMeta(chi=max(chi, phys_dim), branching=b,
                    max_tensor_order=max(2 * max(p[2] for p in patterns),
                                         block + 1),
                    max_tensors_per_cell=len(patterns) + 1,
                    max_cell_distance=2, max_layer_distance=1)
    return Tns(spec, phys_dim, chi, meta, w.nodes, w.lines)


def build_mera_1d(layers: int, chi: int = 2, phys_dim: int = 2, seed: int = 0,
                  with_elements: bool = True) -> Tns:
    """Binary 1D hierarchical network on 2**layers sites."""
    return _build_mera(1, 2, layers, chi, phys_dim, seed, with_elements)


def build_mera_2d_b2(layers: int, chi: int = 2, phys_dim: int = 2,
                     seed: int = 0, with_elements: bool = True) -> Tns:
    """2D network with 2x2 blocks and 2x2 corner disentanglers."""
    return _build_mera(2, 2, layers, chi, phys_dim, seed, with_elements)


def build_mera_2d_b3(layers: int, chi: int = 2, phys_dim: int = 2,
                     seed: int = 0, with_elements: bool = True) -> Tns:
    """2D network with 3x3 blocks; corner and edge-midpoint disentanglers."""
    return _build_mera(2, 3, layers, chi, phys_dim, seed, with_elements)


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_site_rotation_gate() -> np.ndarray:
    """exp(-i pi/4 XX) as a (2,2,2,2) array indexed (in1, in2, out1, out2)."""
    u = (np.eye(4) - 1j * np.kron(_PAULI_X, _PAULI_X)) / np.sqrt(2.0)
    return u.T.reshape(2, 2, 2, 2)


def ttn_gate_schedule(layers: int) -> list[tuple[int, tuple[int, int]]]:
    """Gate layer and 0-based site pair, in application order (top first).

    Layer tau holds 2**(layers - tau) gates; gate k of layer tau couples
    sites 2**(tau-1) * (2k - 1) - 1 and 2**tau * k - 1.
    """
    out = []
    for tau in range(layers, 0, -1):
        for k in range(1, 2 ** (layers - tau) + 1):
            a = 2 ** (tau - 1) * (2 * k - 1) - 1
            b = 2 ** tau * k - 1
            out.append((tau, (a, b)))
    return out


def ttn_cut_size(layers: int) -> int:
    """Size of the distinguished trailing cut; odd layers only.

    p_1 = 1 and p_{T+2} = 4 p_T - 1, so the cut is a fixed fraction of the
    chain while its boundary in the tree grows linearly with depth.
    """
    if layers < 1 or layers % 2 == 0:
        raise ValueError("layers must be odd and >= 1")
    p = 1
    for _ in range((layers - 1) // 2):
        p = 4 * p - 1
    return p


def build_ttn_example(layers: int) -> Tns:
    """Binary-tree network of two-site Clifford gates on 2**layers sites.

    Every gate is exp(-i pi/4 XX) acting on one fresh ancilla in state
    (1, 0) and the carried index of its subtree; the tree closes with one
    extra ancilla at the root.  layers must be odd so the distinguished
    trailing-cut entropy (layers + 1) / 2 is an integer.
    """
    if layers < 1 or layers % 2 == 0:
        raise ValueError("layers must be odd and >= 1")
    spec = LatticeSpec(1, 2 ** layers, 2, layers)
    w = _Wiring()
    _add_anchors(w, spec, 2)
    gate = two_site_rotation_gate()
    producer: dict[int, tuple[str, int]] = {}

    def zero_node(tau, cell, tag):
        z = w.add(TensorNode(f"t:{tau}:{cell}:{tag}", tau, (cell,),
                             KIND_TOP, "t", (2,), np.array([1.0, 0.0])))
        return (z.id, 0)

    for tau, (a, b) in ttn_gate_schedule(layers):
        cell = b // 2 ** tau
        g = w.add(TensorNode(f"g:{tau}:{cell}", tau, (cell,),
                             KIND_DISENTANGLER, "g", (2, 2, 2, 2), gate))
        w.connect(zero_node(tau, cell, "a"), (g.id, 0), 2)
        src = producer.get(b) or zero_node(tau, cell, "b")
        w.connect(src, (g.id, 1), 2)
        producer[a] = (g.id, 2)
        producer[b] = (g.id, 3)

    for site in spec.sites():
        w.connect(producer[site[0]], (_anchor_id(site), 0), 2)

    meta = MeraMeta(chi=2, branching=2, max_tensor_order=4,
                    max_tensors_per_cell=3, max_cell_distance=1,
                    max_layer_distance=1)
    return Tns(spec, 2, 2, meta, w.nodes, w.lines)


@dataclass
class ValidationReport:
    issues: list[str]

    @property
    def ok(self) -> bool:
        return not self.issues


def _int64(values, count: int = -1) -> np.ndarray:
    """np.fromiter into int64, with a value past int64 a ValueError."""
    try:
        return np.fromiter(values, np.int64, count)
    except OverflowError:
        raise ValueError("a layer, cell, dim, slot or line id does not fit "
                         "in 64 bits") from None


def node_arrays(tns: Tns):
    """Layer, kind code (KIND_CODES) and (N, D) cell of every node, int64
    arrays in node order.  Cells must have the lattice dimension."""
    nodes, get = tns.nodes.values(), operator.attrgetter
    n, d = len(nodes), tns.spec.dimension
    return (_int64(map(get("layer"), nodes), n),
            _int64(map(KIND_CODES.__getitem__, map(get("kind"), nodes)), n),
            _int64(itertools.chain.from_iterable(map(get("cell"), nodes)),
                   n * d).reshape(n, d))


def line_ends(tns: Tns):
    """(2, L) node indices (in node order) and slots of the a and b ends
    of every line, in line order; KeyError for an unknown node."""
    index = dict(zip(tns.nodes, itertools.count()))
    ends = list(map(operator.attrgetter("a"), tns.lines))
    ends += map(operator.attrgetter("b"), tns.lines)
    name, slot = operator.itemgetter(0), operator.itemgetter(1)
    return (_int64(map(index.__getitem__, map(name, ends)),
                   len(ends)).reshape(2, -1),
            _int64(map(slot, ends), len(ends)).reshape(2, -1))


def validate_preconditions(tns: Tns) -> ValidationReport:
    """Check the structural conditions the placement schemes rely on.

    Verifies the host lattice shape, layer labels, line dimensions against
    meta.chi, tensor orders, per-cell tensor counts, line layer distances,
    and line cell distances (L1, measured in the coarser endpoint layer).
    Also checks that every line end names a slot of its node with the
    line's dimension, that every slot is covered by exactly one line, and
    that the header agrees with the network: meta.branching is the lattice
    branching, every anchor has dims (physical_dim,), and chi lies in
    [1, meta.chi].  The checks run on int64 arrays of the nodes and lines,
    and only failures are formatted.
    """
    issues = []
    spec, meta = tns.spec, tns.meta
    b = spec.branching
    if spec.length != b ** spec.layers:
        issues.append(f"lattice length {spec.length} is not "
                      f"branching**layers = {b ** spec.layers}")
    if meta.branching != b:
        issues.append(f"meta branching {meta.branching} is not the lattice "
                      f"branching {b}")
    if not 1 <= tns.chi <= meta.chi:
        issues.append(f"chi {tns.chi} outside [1, {meta.chi}]")

    nodes, lines = list(tns.nodes.values()), tns.lines
    layer, kind, cells = node_arrays(tns)
    dims = list(map(operator.attrgetter("dims"), nodes))
    order = _int64(map(len, dims), len(dims))
    # slot k of node i is flat entry start[i] + k; the padding entry at
    # the end stands for every slot a node lacks
    start = _int64(itertools.accumulate(map(len, dims), initial=0),
                   len(dims) + 1)
    pad = int(start[-1])
    start = start[:-1]
    flat_dims = _int64(itertools.chain(itertools.chain.from_iterable(dims),
                                       (0,)), pad + 1)

    anchor = kind == KIND_CODES[KIND_ANCHOR]
    tensor = ~anchor
    # layer-grid width by layer (a negative layer takes layer 0's); from
    # the first power of b above the length on it is 1
    widths, scale = [], 1
    while scale <= spec.length:
        widths.append(min(spec.length // scale, 2 ** 63 - 1))
        scale *= b
    width = np.array(widths + [1], np.uint64).take(layer, mode="clip")
    # as uint64 a negative layer or cell lies past every bound
    for mask, text in (
            (layer.view(np.uint64) > spec.layers, lambda n: (
                f"{n.id}: layer {n.layer} outside [0, {spec.layers}]")),
            (anchor & ((order != 1) | (flat_dims[start] != tns.physical_dim)),
             lambda n: f"{n.id}: dims {n.dims} are not (physical_dim,) = "
                       f"{(tns.physical_dim,)}"),
            (tensor & (order > meta.max_tensor_order), lambda n: (
                f"{n.id}: order {n.order} exceeds {meta.max_tensor_order}")),
            (tensor & (cells.view(np.uint64) >= width[:, None]).any(axis=1),
             lambda n: f"{n.id}: cell {n.cell} outside layer grid")):
        issues.extend(text(nodes[i]) for i in mask.nonzero()[0].tolist())

    # tensors per (layer, cell), as runs of equal rows in sorted order; a
    # run longer than the most allowed has equal rows that many apart
    most = meta.max_tensors_per_cell
    keys = np.concatenate((layer[:, None], cells), axis=1)[tensor]
    keys = keys[np.lexsort(keys.T[::-1])]
    if most < 1 or (len(keys) > most
                    and (keys[most:] == keys[:-most]).all(axis=1).any()):
        runs = np.ones(len(keys) + 1, bool)
        runs[1:-1] = (keys[1:] != keys[:-1]).any(axis=1)
        runs = runs.nonzero()[0]
        counts = runs[1:] - runs[:-1]
        for i in (counts > most).nonzero()[0].tolist():
            key = keys[runs[i]].tolist()
            issues.append(f"layer {key[0]} cell {tuple(key[1:])}: "
                          f"{counts[i]} tensors exceed {most}")

    ends, slots = line_ends(tns)
    dim = _int64(map(operator.attrgetter("dim"), lines), len(lines))
    has_slot = slots.view(np.uint64) < order.view(np.uint64)[ends]
    flat_slot = np.where(has_slot, start[ends] + slots, pad)
    for k, i in zip(*(x.tolist() for x in (
            ~has_slot | (flat_dims[flat_slot] != dim)).nonzero())):
        issues.append(f"line {lines[i].id}: {nodes[ends[k, i]].id} has no "
                      f"slot {slots[k, i]} of dimension {lines[i].dim}")
    # rows lo and hi: the end in the lower layer (the a end on a tie),
    # then the other
    swap = layer[ends[0]] > layer[ends[1]]
    ends = np.where(swap, ends[::-1], ends)
    lo_layer, hi_layer = layer[ends]
    span = hi_layer - lo_layer
    too_far = span > meta.max_layer_distance
    # the lower end's cell at the higher end's scale b**exponent; past
    # the powers of b within int64 the quotient is 0 or -1
    exponent = np.maximum(np.where(anchor[ends[0]], hi_layer, span), 0)
    powers = [b ** k for k in range(int(min(exponent.max(initial=0), 63))
                                    + 1)]
    powers = np.array([q for q in powers if q < 2 ** 63], np.int64)
    lo_cell, hi_cell = cells[ends]
    lo_cell //= powers.take(exponent, mode="clip")[:, None]
    past = exponent >= len(powers)
    if past.any():
        lo_cell[past] = -(cells[ends[0, past]] < 0)
    dist = np.abs(lo_cell - hi_cell).sum(axis=1)
    for mask, text in (
            (dim > meta.chi, lambda ln, i: (
                f"line {ln.id}: dimension {ln.dim} exceeds chi {meta.chi}")),
            (too_far, lambda ln, i: (
                f"line {ln.id}: spans layers {lo_layer[i]}..{hi_layer[i]}, "
                f"max distance {meta.max_layer_distance}")),
            (~too_far & (dist > meta.max_cell_distance), lambda ln, i: (
                f"line {ln.id}: cell distance {dist[i]} exceeds "
                f"{meta.max_cell_distance}"))):
        issues.extend(text(lines[i], i) for i in mask.nonzero()[0].tolist())

    covered = np.bincount(flat_slot[has_slot], minlength=pad + 1)[:pad]
    for j in (covered != 1).nonzero()[0].tolist():
        i = int(np.searchsorted(start, j, "right")) - 1
        issues.append(f"{nodes[i].id} slot {j - start[i]}: covered by "
                      f"{covered[j]} lines")

    return ValidationReport(sorted(set(issues)))


def tns_to_dict(tns: Tns) -> dict:
    """JSON-ready description, format tns-v1.  Deterministic field order."""
    nodes = []
    for node in tns.nodes.values():
        elements = None
        if node.elements is not None:
            # complex128 memory layout: real, imaginary part per amplitude
            elements = np.ascontiguousarray(
                node.elements, complex).view(float).ravel().tolist()
        nodes.append({"id": node.id, "layer": node.layer,
                      "cell": list(node.cell), "kind": node.kind,
                      "variant": node.variant, "dims": list(node.dims),
                      "elements": elements})
    return {
        "version": "tns-v1",
        "generator_version": GENERATOR_VERSION,
        "lattice": spec_to_dict(tns.spec),
        "physical_dim": tns.physical_dim,
        "chi": tns.chi,
        "meta": asdict(tns.meta),
        "nodes": nodes,
        "lines": [{"id": ln.id, "a": list(ln.a), "b": list(ln.b),
                   "dim": ln.dim} for ln in tns.lines],
    }


def tns_from_dict(data: dict) -> Tns:
    """Network from its tns-v1 description; ValueError when the document
    is not an object, lacks a key, has a node of unknown kind, an integer
    field that is not an integer, a node id or variant that is not a
    string, two lines of one id, a line that names an unknown node, a
    node cell whose length is not the lattice dimension, or a negative
    layer."""
    if not isinstance(data, dict):
        raise ValueError("malformed tns-v1 document: not a JSON object")
    if data.get("version") != "tns-v1":
        raise ValueError(f"unsupported network format {data.get('version')!r}")
    try:
        spec = spec_from_dict(data["lattice"])
        meta = MeraMeta(*(data["meta"][f.name] for f in fields(MeraMeta)))
        nodes = {}
        for nd in data["nodes"]:
            dims, elements = tuple(nd["dims"]), nd["elements"]
            if elements is not None:
                elements = np.array(elements, float).view(complex).reshape(
                    dims)
            nodes[nd["id"]] = TensorNode(nd["id"], nd["layer"],
                                         tuple(nd["cell"]), nd["kind"],
                                         nd["variant"], dims, elements)
        # looking the endpoint nodes up rejects unknown ones in this pass
        lines = [ContractionLine(ld["id"],
                                 (nodes[ld["a"][0]].id, ld["a"][1]),
                                 (nodes[ld["b"][0]].id, ld["b"][1]),
                                 ld["dim"])
                 for ld in data["lines"]]
        # every field is checked in bulk, off the loops above
        values, get = nodes.values(), operator.attrgetter
        kinds = set(map(get("kind"), values))
        if not kinds <= KINDS:
            raise TypeError(f"unknown node kind "
                            f"{min(map(repr, kinds - KINDS))}")
        flat, slot = itertools.chain.from_iterable, operator.itemgetter(1)
        if not {str}.issuperset(map(type, flat(map(get("id", "variant"),
                                                   values)))):
            raise TypeError("node id or variant is not a string")
        ids = list(map(get("id"), lines))
        require_ints(flat((
            (data["physical_dim"], data["chi"]), astuple(meta), ids,
            map(get("layer"), values), flat(map(get("cell"), values)),
            flat(map(get("dims"), values)), map(get("dim"), lines),
            map(slot, map(get("a"), lines)), map(slot, map(get("b"), lines)))),
            "a count, layer, cell, dim, slot or line id")
        if len(set(ids)) < len(ids):
            raise ValueError("malformed tns-v1 document: repeated line id")
        if set(map(len, map(get("cell"), values))) - {spec.dimension}:
            node = next(n for n in values if len(n.cell) != spec.dimension)
            raise ValueError(f"malformed tns-v1 document: {node.id}: cell "
                             f"{list(node.cell)} is not {spec.dimension}-"
                             f"dimensional")
        if min(map(get("layer"), values), default=0) < 0:
            node = next(n for n in values if n.layer < 0)
            raise ValueError(f"malformed tns-v1 document: {node.id}: "
                             f"negative layer {node.layer}")
        return Tns(spec, data["physical_dim"], data["chi"], meta, nodes,
                   lines)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed tns-v1 document: "
                         f"{type(exc).__name__} {exc}") from exc
