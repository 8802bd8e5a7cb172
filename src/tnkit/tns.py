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
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, Site, spec_from_dict, spec_to_dict

GENERATOR_VERSION = "tnkit-0.1.0"

KIND_DISENTANGLER = "disentangler"
KIND_ISOMETRY = "isometry"
KIND_TOP = "top"
KIND_ANCHOR = "physical-anchor"
KINDS = frozenset((KIND_DISENTANGLER, KIND_ISOMETRY, KIND_TOP, KIND_ANCHOR))


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

    def endpoints(self):
        return (self.a, self.b)


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

    def anchor_id(self, site: Site) -> str:
        return _anchor_id(site)

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


def validate_preconditions(tns: Tns) -> ValidationReport:
    """Check the structural conditions the placement schemes rely on.

    Verifies the host lattice shape, layer labels, line dimensions against
    meta.chi, tensor orders, per-cell tensor counts, line layer distances,
    and line cell distances (L1, measured in the coarser endpoint layer).
    Also checks that every slot is covered by exactly one line.
    """
    issues = []
    spec, meta = tns.spec, tns.meta
    if spec.length != spec.branching ** spec.layers:
        issues.append(f"lattice length {spec.length} is not "
                      f"branching**layers = {spec.branching ** spec.layers}")

    per_cell: dict[tuple[int, tuple[int, ...]], int] = {}
    for node in tns.nodes.values():
        if not 0 <= node.layer <= spec.layers:
            issues.append(f"{node.id}: layer {node.layer} outside [0, {spec.layers}]")
        if node.kind != KIND_ANCHOR:
            if node.order > meta.max_tensor_order:
                issues.append(f"{node.id}: order {node.order} exceeds "
                              f"{meta.max_tensor_order}")
            width = spec.length // spec.branching ** node.layer if node.layer else spec.length
            if any(not 0 <= c < max(width, 1) for c in node.cell):
                issues.append(f"{node.id}: cell {node.cell} outside layer grid")
            key = (node.layer, node.cell)
            per_cell[key] = per_cell.get(key, 0) + 1

    for key, count in sorted(per_cell.items()):
        if count > meta.max_tensors_per_cell:
            issues.append(f"layer {key[0]} cell {key[1]}: {count} tensors exceed "
                          f"{meta.max_tensors_per_cell}")

    nodes, b = tns.nodes, spec.branching
    slot_seen: dict[tuple[str, int], int] = {}
    for line in tns.lines:
        if line.dim > meta.chi:
            issues.append(f"line {line.id}: dimension {line.dim} exceeds chi "
                          f"{meta.chi}")
        slot_seen[line.a] = slot_seen.get(line.a, 0) + 1
        slot_seen[line.b] = slot_seen.get(line.b, 0) + 1
        pa, pb = nodes[line.a[0]], nodes[line.b[0]]
        lo, hi = (pa, pb) if pa.layer <= pb.layer else (pb, pa)
        if hi.layer - lo.layer > meta.max_layer_distance:
            issues.append(f"line {line.id}: spans layers {lo.layer}..{hi.layer}, "
                          f"max distance {meta.max_layer_distance}")
            continue
        scale = b ** (hi.layer if lo.kind == KIND_ANCHOR
                      else hi.layer - lo.layer)
        dist = 0
        for x, y in zip(lo.cell, hi.cell):
            dist += abs(x // scale - y)
        if dist > meta.max_cell_distance:
            issues.append(f"line {line.id}: cell distance {dist} exceeds "
                          f"{meta.max_cell_distance}")

    for node in tns.nodes.values():
        for slot in range(node.order):
            n = slot_seen.get((node.id, slot), 0)
            if n != 1:
                issues.append(f"{node.id} slot {slot}: covered by {n} lines")
    for end, n in slot_seen.items():
        if n > 1:
            issues.append(f"{end[0]} slot {end[1]}: covered by {n} lines")

    return ValidationReport(sorted(set(issues)))


def tns_to_dict(tns: Tns) -> dict:
    """JSON-ready description, format tns-v1.  Deterministic field order."""
    nodes = []
    for node in tns.nodes.values():
        elements = None
        if node.elements is not None:
            flat = np.asarray(node.elements, dtype=complex).reshape(-1)
            elements = [x for z in flat for x in (float(z.real), float(z.imag))]
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
        "meta": {"chi": tns.meta.chi, "branching": tns.meta.branching,
                 "max_tensor_order": tns.meta.max_tensor_order,
                 "max_tensors_per_cell": tns.meta.max_tensors_per_cell,
                 "max_cell_distance": tns.meta.max_cell_distance,
                 "max_layer_distance": tns.meta.max_layer_distance},
        "nodes": nodes,
        "lines": [{"id": ln.id, "a": list(ln.a), "b": list(ln.b),
                   "dim": ln.dim} for ln in tns.lines],
    }


def tns_from_dict(data: dict) -> Tns:
    """Network from its tns-v1 description; ValueError when the document
    is not an object, lacks a key, has a node of unknown kind or with a
    layer or cell entry that is not an integer, or a line names an
    unknown node."""
    if not isinstance(data, dict):
        raise ValueError("malformed tns-v1 document: not a JSON object")
    if data.get("version") != "tns-v1":
        raise ValueError(f"unsupported network format {data.get('version')!r}")
    try:
        spec = spec_from_dict(data["lattice"])
        m = data["meta"]
        meta = MeraMeta(m["chi"], m["branching"], m["max_tensor_order"],
                        m["max_tensors_per_cell"], m["max_cell_distance"],
                        m["max_layer_distance"])
        nodes = {}
        for nd in data["nodes"]:
            elements = None
            if nd["elements"] is not None:
                flat = np.array(nd["elements"], dtype=float)
                elements = (flat[0::2] + 1j * flat[1::2]).reshape(
                    tuple(nd["dims"]))
            nodes[nd["id"]] = TensorNode(nd["id"], nd["layer"],
                                         tuple(nd["cell"]), nd["kind"],
                                         nd["variant"], tuple(nd["dims"]),
                                         elements)
        # checked in bulk, off the per-node loop; bools and integral
        # floats compare equal to ints, so every entry's type is checked
        values = nodes.values()
        kinds = set(map(operator.attrgetter("kind"), values))
        if not kinds <= KINDS:
            raise TypeError(f"unknown node kind "
                            f"{min(map(repr, kinds - KINDS))}")
        if not {int}.issuperset(map(type, itertools.chain(
                map(operator.attrgetter("layer"), values),
                itertools.chain.from_iterable(
                    map(operator.attrgetter("cell"), values))))):
            raise TypeError("node layer or cell entry is not an integer")
        # looking the endpoint nodes up rejects unknown ones in this pass
        lines = [ContractionLine(ld["id"],
                                 (nodes[ld["a"][0]].id, ld["a"][1]),
                                 (nodes[ld["b"][0]].id, ld["b"][1]),
                                 ld["dim"])
                 for ld in data["lines"]]
        return Tns(spec, data["physical_dim"], data["chi"], meta, nodes,
                   lines)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed tns-v1 document: "
                         f"{type(exc).__name__} {exc}") from exc
