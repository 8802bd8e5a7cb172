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

A network (Tns) is a node table and a line table of int64 columns.  The
builders fill them, the readers make them, and every pass indexes the
columns without a Python object per node or line; the views `Tns.nodes`
and `Tns.lines` copy a row into a snapshot record per access.

A network of the _FAMILIES is one local rule repeated at every scale,
so the tns-v1 text tns_text writes for it without elements (`build
--no-elements`) follows from its header: tns_from_bytes decodes the
header, rebuilds the network and returns it only when tns_text of it
reproduces the bytes.  Text equal to json.dumps of a document is text
json reads as that document, so the network is the one json would give.
Any other document, elements among them, is decoded by json, and
tns_from_dict reads its nodes and lines a column at a time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import astuple, dataclass, fields

import numpy as np

from .lattice import (LatticeSpec, ResourceLimitError, amplitude_limit,
                      check_grid, int64_array, l1_norms, malformed, off_grid,
                      require_ints, spec_from_dict, spec_to_dict)

GENERATOR_VERSION = "tnkit-0.1.0"

KIND_DISENTANGLER = "disentangler"
KIND_ISOMETRY = "isometry"
KIND_TOP = "top"
KIND_ANCHOR = "physical-anchor"
# kinds by their code in the node table; the router orders a line's
# endpoints by it within a layer
KIND_NAMES = (KIND_ANCHOR, KIND_DISENTANGLER, KIND_ISOMETRY, KIND_TOP)
KIND_CODES = {k: i for i, k in enumerate(KIND_NAMES)}
KINDS = frozenset(KIND_NAMES)
# variant names by their code in the node table; a network read from
# tns-v1 appends any other names it uses
VARIANTS = ("p", "u", "u2x2", "u2x1", "u1x2", "w", "t", "g")
# entries of a tns-v1 or map-v1 array per batch of text when the command
# line writes a document (congestion CSV rows: 8 times as many), and
# paths per slice when a map is read
JSON_SLICE = 8192
_PAST_INT64 = "a layer, cell, dim, slot or line id does not fit in 64 bits"
_int64 = functools.partial(int64_array, past=_PAST_INT64)


# The text kernel of the writers of tns-v1, map-v1 and the congestion CSV,
# and of node ids: each column of a batch of entries is a small table of
# strings, one per distinct value, taken at the entries' indices into an
# object array, and a batch is joined once, so that each distinct value
# is formatted once and the rest moves references.  Constant text next
# to a narrow column (coordinates, slots, dims, kinds, variants) is
# folded into its table, which leaves fewer pieces to join; next to a
# wide one (line and node ids) it stays a piece of its own, since
# folding would cost a concatenation per distinct value.


def joined(count: int, *pieces) -> str:
    """The text of count entries back to back, each the pieces in order:
    a str piece is the same in every entry, any other is an object array
    of count strings, one per entry.  The pieces are interleaved in one
    list, which str.join takes as it is; an object array would be copied
    into a list of the same size first.  Each piece costs count
    references in that list, so callers fold the constant text next to
    a narrow column into its numeral table rather than pass it apart."""
    out = [None] * (count * len(pieces))
    for k, piece in enumerate(pieces):
        out[k::len(pieces)] = [piece] * count if isinstance(piece, str) \
            else piece.tolist()
    return "".join(out)


def numerals(values: np.ndarray, before: str = "",
             after: str = "") -> np.ndarray:
    """before + str(v) + after for each entry v of an int column, as an
    object array, each distinct value's text made once into a table: a
    table of every value from the least to the greatest when that range
    is no longer than the column, else one of the distinct values."""
    if not len(values):
        return np.empty(0, object)
    # Python ints, so that the range of int64 extremes does not wrap
    low, high = int(values.min()), int(values.max())
    if high - low < len(values):
        table, at = range(low, high + 1), values - low
    else:
        table, at = distinct(values)
        table = table.tolist()
    return np.array([before + str(v) + after for v in table], object)[at]


def numeral_axes(rows: np.ndarray, sep: str, end: str = "") -> list:
    """Pieces for joined: the numeral column of each axis of (n, D) int
    rows, sep folded after each axis but the last, which takes end."""
    return [numerals(column, after=sep) for column in rows.T[:-1]] + \
        [numerals(rows[:, -1], after=end)]


def encoded(strings) -> np.ndarray:
    """Each string as json.dumps writes it, quotes included, as an object
    array."""
    return np.array(list(map(json.encoder.encode_basestring_ascii, strings)),
                    object)


def tails(count: int, inner: str, last: str) -> np.ndarray:
    """A piece for joined that ends every entry with inner but the last,
    which it ends with last.  (np.full would copy inner into a new
    string per entry.)"""
    out = np.empty(count, object)
    out[:] = inner
    out[-1:] = last
    return out


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


class TensorNode(collections.namedtuple(
        "TensorNode", "id layer cell kind variant dims elements")):
    """A node's row of the node table, copied when `of` makes it;
    `elements` is None for symbolic networks."""

    __slots__ = ()
    order = property(lambda self: len(self.dims))

    @classmethod
    def of(cls, tns: Tns, i: int) -> TensorNode:
        start, end = tns.dim_offsets[i:i + 2].tolist()
        return cls(tns.ids[i], int(tns.layer[i]), tuple(tns.cell[i].tolist()),
                   KIND_NAMES[tns.kind[i]], tns.variants[tns.variant[i]],
                   tuple(tns.dims[start:end].tolist()), tns.elements[i])


# a contracted index pair: line id, (node id, slot) of each end, dimension
ContractionLine = collections.namedtuple("ContractionLine", "id a b dim")


class NodeView(Mapping):
    """Node id -> TensorNode of a network, records made on demand."""

    def __init__(self, tns: Tns):
        self._tns = tns

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self._tns.ids, itertools.count()))

    def __getitem__(self, nid: str) -> TensorNode:
        return TensorNode.of(self._tns, self._index[nid])

    def __iter__(self):
        return iter(self._tns.ids)

    def __len__(self) -> int:
        return len(self._tns.ids)


class LineView(Sequence):
    """ContractionLine records of a network in line order, made on
    demand."""

    def __init__(self, tns: Tns):
        self._tns = tns

    def __getitem__(self, i: int) -> ContractionLine:
        t, i = self._tns, range(len(self))[i]
        (a, b), (sa, sb) = t.line_ends[:, i].tolist(), t.line_slots[:, i]
        return ContractionLine(int(t.line_id[i]), (t.ids[a], int(sa)),
                               (t.ids[b], int(sb)), int(t.line_dim[i]))

    def __len__(self) -> int:
        return len(self._tns.line_id)


@dataclass(eq=False)
class Tns:
    """Node table, in node order: `ids`, int64 `layer` (N,), `kind` (N,)
    of KIND_CODES, `variant` (N,) of codes into `variants`, `cell` (N, D),
    node i's slot dims at `dims[dim_offsets[i]:dim_offsets[i + 1]]`, and
    `elements`, an array or None per node.  Line table, in line order:
    int64 `line_id` (L,), the node indices `line_ends` (2, L) and slots
    `line_slots` (2, L) of each line's a and b ends, and `line_dim` (L,).
    """

    spec: LatticeSpec
    physical_dim: int
    chi: int
    meta: MeraMeta
    ids: list[str]
    layer: np.ndarray
    kind: np.ndarray
    variant: np.ndarray
    cell: np.ndarray
    dims: np.ndarray
    dim_offsets: np.ndarray
    elements: list
    line_id: np.ndarray
    line_ends: np.ndarray
    line_slots: np.ndarray
    line_dim: np.ndarray
    variants: tuple[str, ...] = VARIANTS

    nodes = property(NodeView)
    lines = property(LineView)

    def all_factors(self, labels=None) -> list[tuple]:
        """(elements, labels of its slots) of every node but the anchors,
        in node order, sliced from `labels` (default slot_labels(self))."""
        labels = slot_labels(self) if labels is None else labels
        bounds = self.dim_offsets.tolist()
        tensors = (self.kind != KIND_CODES[KIND_ANCHOR]).nonzero()[0]
        return [(self.elements[i], tuple(labels[bounds[i]:bounds[i + 1]]))
                for i in tensors.tolist()]


def slot_labels(tns: Tns) -> np.ndarray:
    """One label per slot, an object array, slot k of node i at entry
    dim_offsets[i] + k: both slots of line i carry the int i, those of a
    physical leg ("p", cell of its anchor), the open labels dense reads."""
    ends = tns.line_ends
    flat = tns.dim_offsets[ends] + tns.line_slots
    labels = np.empty(int(tns.dim_offsets[-1]), object)
    labels[flat] = np.arange(ends.shape[1])
    anchor = tns.kind[ends] == KIND_CODES[KIND_ANCHOR]
    legs = anchor.any(axis=0)
    cells = map(tuple, tns.cell[np.where(anchor[0], *ends)[legs]].tolist())
    labels[flat[:, legs]] = np.fromiter(zip(itertools.repeat("p"), cells),
                                        object, legs.sum())
    return labels


class _Tables:
    """Node and line columns of a network being built: groups of nodes that
    share their layer, kind, variant and dims, and blocks of lines."""

    def __init__(self):
        self.ids, self.elements, self.groups, self.lines = [], [], [], []

    def add(self, ids, layer, kind, variant, cells, dims, elements=None):
        """Indices of new nodes of the given ids and cells (n, D)."""
        self.groups.append((len(ids), layer, KIND_CODES[kind],
                            VARIANTS.index(variant), dims, cells))
        self.elements += elements or [None] * len(ids)
        self.ids += ids
        return np.arange(len(self.ids) - len(ids), len(self.ids))

    def connect(self, *columns):
        """Lines from nodes a to nodes b: columns a, b, a's slot, b's slot
        and dim, broadcast to the shape of a, in row-major order."""
        zero = np.zeros(np.shape(columns[0]), np.int64)
        self.lines.append([(zero + x).ravel() for x in columns])

    def network(self, spec, physical_dim, chi, meta) -> Tns:
        counts, layer, kind, variant, dims, cells = zip(*self.groups)
        order = np.repeat(list(map(len, dims)), counts)
        # each group's dims padded to the widest, one row per node
        width = max(map(len, dims))
        rows = np.repeat([d + (0,) * (width - len(d)) for d in dims], counts,
                         axis=0)
        lines = np.concatenate(self.lines, axis=1)
        return Tns(spec, physical_dim, chi, meta, self.ids,
                   *(np.repeat(c, counts) for c in (layer, kind, variant)),
                   np.concatenate(cells).reshape(-1, spec.dimension),
                   rows[np.arange(width) < order[:, None]],
                   np.concatenate(([0], order.cumsum())), self.elements,
                   np.arange(lines.shape[1]), lines[:2], lines[2:4], lines[4])


def _random_orthonormal(rng, count, rows, cols) -> np.ndarray:
    """count complex (rows, cols) matrices with orthonormal columns, from
    one draw that holds each matrix's real part, then its imaginary part."""
    a = rng.standard_normal((count, 2, rows, cols))
    q, r = np.linalg.qr(a[:, 0] + 1j * a[:, 1])
    # fix the gauge so the decomposition is unique and runs reproduce
    return q * np.sign(np.real(np.diagonal(r, axis1=1, axis2=2))
                       + 1e-300)[:, None]


def _random_top(rng, dim) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _ids(prefix: str, cells: np.ndarray) -> list[str]:
    """Node ids of the form prefix + comma-joined cell, cells (n, D).
    Each axis is a numeral table with the prefix or "," folded in, and
    the axes are added as object arrays, one add per axis after the
    first."""
    first, *rest = cells.T
    text = numerals(first, before=prefix)
    for column in rest:
        text += numerals(column, before=",")
    return text.tolist()


def _add_anchors(t: _Tables, spec: LatticeSpec, phys_dim: int):
    """Anchor nodes of every site in lexicographic order; the node and
    slot that expose each site, by row-major rank."""
    sites = np.indices(spec.shape).reshape(spec.dimension, -1).T
    return (t.add(_ids("p:", sites), 0, KIND_ANCHOR, "p", sites,
                  (phys_dim,)), np.zeros(len(sites), np.int64))


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
    """Cells (n, D) of one pattern on a layer of out^D cells, in
    lexicographic order, and the row-major ranks (n, legs) of the sites
    each covers on the (b*out)^D grid below, in lexicographic order.
    roles holds one (first cell, site offsets) pair per axis."""
    d = len(roles)
    cells = np.empty([out - first for first, _ in roles] + [d], np.int64)
    # rank[n_0..n_D-1, l_0..l_D-1] of site offset l_k along axis k of cell n
    rank = 0
    for k, (first, offs) in enumerate(roles):
        n = np.arange(first, out)
        cells[..., k] = n.reshape([-1 if j == k else 1 for j in range(d)])
        shape = [1] * (2 * d)
        shape[k], shape[d + k] = len(n), len(offs)
        rank = rank * (b * out) + (b * n[:, None] + offs).reshape(shape)
    cells = cells.reshape(-1, d)
    return cells, rank.reshape(len(cells), math.prod(rank.shape[d:]))


def _build_mera(dimension: int, b: int, layers: int, chi: int,
                phys_dim: int, seed: int, with_elements: bool) -> Tns:
    """Hierarchical network with b**dimension blocks on a (b**layers)^D grid.

    Layer tau first applies the family's disentangler patterns across the
    block boundaries, pattern by pattern and cells in lexicographic order,
    then isometries coarse-grain each block to one site of the next layer.
    Sites no disentangler covers feed their isometry directly.  A top
    tensor closes the hierarchy.  Each pattern's nodes and lines are
    added as columns at once, and its elements are drawn in one call, in
    node order.  The grid must fit the site budget, and the elements drawn
    so far, counted before each draw, the amplitude limit.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if chi < 1:
        raise ValueError("chi must be >= 1")
    if phys_dim < 2:
        raise ValueError("phys_dim must be >= 2")
    check_grid("network", b, dimension * layers)
    patterns = [(variant, roles, math.prod(len(offs) for _, offs in roles))
                for variant, roles in _FAMILIES[(dimension, b)]]
    block = b ** dimension
    spec = LatticeSpec(dimension, b ** layers, b, layers)
    # numpy.random is imported only to draw: a symbolic build needs none
    rng = np.random.default_rng(seed) if with_elements else None
    # index dimension per layer; grows by the block size until capped
    dims = [phys_dim]
    for _ in range(layers):
        dims.append(min(chi, dims[-1] ** block))
    if max(dims) >= 2 ** 63:
        raise ValueError(_PAST_INT64)
    t = _Tables()
    limit, drawn = amplitude_limit(), 0

    def charge(amplitudes):
        """ResourceLimitError when the next draw takes the elements past
        the amplitude limit."""
        nonlocal drawn
        drawn += amplitudes
        if drawn > limit:
            raise ResourceLimitError(f"elements of {drawn} amplitudes exceed "
                                     f"the budget {limit}")

    def draw(count, rows, cols):
        """Elements of count tensors shaped (*rows, *cols), each a matrix
        with orthonormal columns: unitaries and isometries."""
        if not with_elements:
            return None
        charge(count * math.prod(rows) * math.prod(cols))
        q = _random_orthonormal(rng, count, math.prod(rows), math.prod(cols))
        return list(q.reshape(count, *rows, *cols))

    # the node and slot exposing each site of the grid below layer tau
    node, slot = _add_anchors(t, spec, phys_dim)
    block_roles = ((0, tuple(range(b))),) * dimension
    for tau in range(1, layers + 1):
        out = spec.length // b ** tau
        f, c = dims[tau - 1], dims[tau]
        for variant, roles, legs in patterns:
            if out <= max(first for first, _ in roles):
                continue
            cells, sites = _cover(roles, b, out)
            u = t.add(_ids(f"{variant}:{tau}:", cells), tau,
                      KIND_DISENTANGLER, variant, cells, (f,) * (2 * legs),
                      draw(len(cells), (f,) * legs, (f,) * legs))
            t.connect(node[sites], u[:, None], slot[sites], np.arange(legs),
                      f)
            node[sites] = u[:, None]
            slot[sites] = legs + np.arange(legs)
        cells, sites = _cover(block_roles, b, out)
        iso = t.add(_ids(f"w:{tau}:", cells), tau, KIND_ISOMETRY, "w",
                    cells, (f,) * block + (c,),
                    draw(len(cells), (f,) * block, (c,)))
        t.connect(node[sites], iso[:, None], slot[sites], np.arange(block),
                  f)
        node, slot = iso, np.full(len(iso), block)

    origin = np.zeros((1, dimension), np.int64)
    if with_elements:
        charge(dims[layers])
    top = t.add(_ids(f"t:{layers}:", origin), layers, KIND_TOP, "t", origin,
                (dims[layers],),
                [_random_top(rng, dims[layers])] if with_elements else None)
    t.connect(node, top, slot, 0, dims[layers])

    meta = MeraMeta(chi=max(chi, phys_dim), branching=b,
                    max_tensor_order=max(2 * max(p[2] for p in patterns),
                                         block + 1),
                    max_tensors_per_cell=len(patterns) + 1,
                    max_cell_distance=2, max_layer_distance=1)
    return t.network(spec, phys_dim, chi, meta)


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


def ttn_gate_schedule(layers: int) -> np.ndarray:
    """Gate rows (layer tau, site a, site b), int64, top layer first; the
    builder and the stabilizer tree driver both read them.  Layer tau
    holds 2**(layers - tau) gates from row 2**(layers - tau) - 1 on; gate
    k of it couples sites 2**(tau-1) * (2k - 1) - 1 and 2**tau * k - 1.
    """
    tau = np.repeat(np.arange(layers, 0, -1), 2 ** np.arange(layers))
    k = np.arange(2, 2 ** layers + 1) - 2 ** (layers - tau)
    b = (k << tau) - 1
    return np.stack([tau, b - (1 << (tau - 1)), b], axis=1)


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


def build_ttn_example(layers: int, with_elements: bool = True) -> Tns:
    """Binary-tree network of two-site Clifford gates on 2**layers sites.

    Every gate is exp(-i pi/4 XX) acting on one fresh ancilla in state
    (1, 0) and the carried index of its subtree; the tree closes with one
    extra ancilla at the root.  layers must be odd so the distinguished
    trailing-cut entropy (layers + 1) / 2 is an integer.  Without
    elements every node's elements are None.
    """
    if layers < 1 or layers % 2 == 0:
        raise ValueError("layers must be odd and >= 1")
    check_grid("network", 2, layers)
    spec = LatticeSpec(1, 2 ** layers, 2, layers)
    t = _Tables()
    _add_anchors(t, spec, 2)
    gate, zero = ([two_site_rotation_gate()], [np.array([1.0, 0.0])]) \
        if with_elements else (None, None)
    producer: dict[int, tuple[int, int]] = {}

    def zero_node(tau, cell, tag):
        z, = t.add([f"t:{tau}:{cell}:{tag}"], tau, KIND_TOP, "t", [[cell]],
                   (2,), zero)
        return z

    for tau, a, b in ttn_gate_schedule(layers).tolist():
        cell = b // 2 ** tau
        g, = t.add([f"g:{tau}:{cell}"], tau, KIND_DISENTANGLER, "g",
                   [[cell]], (2, 2, 2, 2), gate)
        t.connect(zero_node(tau, cell, "a"), g, 0, 0, 2)
        src, slot = producer.get(b) or (zero_node(tau, cell, "b"), 0)
        t.connect(src, g, slot, 1, 2)
        producer[a] = (g, 2)
        producer[b] = (g, 3)

    # anchor i exposes site i
    src, slot = zip(*map(producer.__getitem__, range(spec.length)))
    t.connect(src, np.arange(spec.length), slot, 0, 2)

    meta = MeraMeta(chi=2, branching=2, max_tensor_order=4,
                    max_tensors_per_cell=3, max_cell_distance=1,
                    max_layer_distance=1)
    return t.network(spec, 2, 2, meta)


def distinct(values: np.ndarray):
    """Sorted distinct entries of a 1-D array, or distinct rows of a 2-D
    one in lexicographic order, and the index of each entry or row among
    them (np.unique without its numpy.ma import).  Int rows whose column
    ranges multiply to no more than the row count are ranked a column at
    a time by bincount, as numerals picks its table by the range; other
    rows are lexsorted."""
    if values.ndim == 2 and len(values) and \
            np.can_cast(values.dtype, np.int64):
        # per column: numpy reduces a narrow 2-D array along axis 0 slowly
        lows = [int(column.min()) for column in values.T]
        spans = [int(column.max()) - low + 1
                 for column, low in zip(values.T, lows)]
        if math.prod(spans) <= len(values):
            return _ranked_rows(values, lows, spans)
    if values.ndim == 1:
        order = values.argsort()
    else:
        # rows of no columns are all equal; lexsort needs a key
        order = np.lexsort(values.T[::-1]) if values.shape[1] else \
            np.arange(len(values))
    ranked = values.take(order, axis=0)
    # an entry or row is new where a column differs from the one before
    new = np.zeros(len(values), bool)
    new[:1] = True
    for column in np.atleast_2d(ranked.T):
        new[1:] |= column[1:] != column[:-1]
    ranked = ranked[new]
    inverse = np.empty(len(values), np.int64)
    inverse[order] = new.cumsum() - 1
    return ranked, inverse


def _ranked_rows(values: np.ndarray, lows: list, spans: list):
    """distinct of int rows whose column k holds spans[k] values from
    lows[k] on, the spans multiplying to at most the row count.  Each
    row's rank among the distinct rows of the columns so far becomes its
    rank with the next column by a bincount over (rank, value) pairs, so
    that no table is longer than the rows, and the distinct rows grow a
    column from the pairs in use."""
    rank, rows = np.zeros(len(values), np.int64), values[:1, :0]
    for column, low, span in zip(values.T, lows, spans):
        rank *= span
        rank += column
        rank -= low
        used = np.bincount(rank, minlength=len(rows) * span) > 0
        rank = (used.cumsum() - 1).take(rank)
        used = used.nonzero()[0]
        rows = np.column_stack((rows[used // span],
                                (used % span + low).astype(values.dtype)))
    return rows, rank


def validate_preconditions(tns: Tns) -> list[str]:
    """The sorted distinct issues with the structural conditions the
    placement schemes rely on; empty when the network meets them all.

    Verifies the host lattice shape, layer labels, line dimensions from 1
    to meta.chi, tensor orders, per-cell tensor counts, line layer distances,
    and line cell distances (L1, measured in the coarser endpoint layer).
    Also checks that every line end names a slot of its node with the
    line's dimension, that every slot is covered by exactly one line, and
    that the header agrees with the network: meta.branching is the lattice
    branching, meta.max_layer_distance lies in [0, layers], anchors sit on
    layer 0 with dims (physical_dim,), and chi lies in [1, meta.chi].  The
    checks run on the network's columns, and only failures are formatted.
    """
    issues = []
    spec, meta = tns.spec, tns.meta
    b = spec.branching
    # b**layers exceeds the length past its bit length: no huge power
    if (spec.layers > spec.length.bit_length()
            or spec.length != b ** spec.layers):
        issues.append(f"lattice length {spec.length} is not "
                      f"branching**layers = {b}**{spec.layers}")
    if not 0 <= meta.max_layer_distance <= spec.layers:
        issues.append(f"meta max_layer_distance {meta.max_layer_distance} "
                      f"outside [0, {spec.layers}]")
    if meta.branching != b:
        issues.append(f"meta branching {meta.branching} is not the lattice "
                      f"branching {b}")
    if not 1 <= tns.chi <= meta.chi:
        issues.append(f"chi {tns.chi} outside [1, {meta.chi}]")

    layer, kind, cells = tns.layer, tns.kind, tns.cell
    # slot k of node i is flat entry start[i] + k; the padding entry at
    # the end stands for every slot a node lacks
    start = tns.dim_offsets[:-1]
    order = tns.dim_offsets[1:] - start
    pad = len(tns.dims)
    flat_dims = np.append(tns.dims, 0)

    anchor = kind == KIND_CODES[KIND_ANCHOR]
    tensor = ~anchor
    # layer-grid width by layer (a negative layer takes layer 0's); from
    # the first power of b above the length on it is 1
    widths, scale = [], 1
    while scale <= spec.length:
        widths.append(spec.length // scale)
        scale *= b
    width = np.array(widths + [1], np.uint64).take(layer, mode="clip")
    # as uint64 a negative layer or cell lies past every bound
    for mask, text in (
            (layer.view(np.uint64) > spec.layers, lambda n: (
                f"{n.id}: layer {n.layer} outside [0, {spec.layers}]")),
            (anchor & ((order != 1) | (flat_dims[start] != tns.physical_dim)),
             lambda n: f"{n.id}: dims {n.dims} are not (physical_dim,) = "
                       f"{(tns.physical_dim,)}"),
            (anchor & (layer != 0),
             lambda n: f"{n.id}: anchor at layer {n.layer}, not 0"),
            (tensor & (order > meta.max_tensor_order), lambda n: (
                f"{n.id}: order {n.order} exceeds {meta.max_tensor_order}")),
            (tensor & off_grid(cells, width),
             lambda n: f"{n.id}: cell {n.cell} outside layer grid")):
        issues.extend(text(TensorNode.of(tns, i))
                      for i in mask.nonzero()[0].tolist())

    # tensors per (layer, cell)
    most = meta.max_tensors_per_cell
    keys, at = distinct(np.concatenate((layer[:, None], cells),
                                       axis=1)[tensor])
    counts = np.bincount(at, minlength=len(keys))
    over = counts > most
    for key, count in zip(keys[over].tolist(), counts[over].tolist()):
        issues.append(f"layer {key[0]} cell {tuple(key[1:])}: {count} "
                      f"tensors exceed {most}")

    ends, slots, dim, line_id = (tns.line_ends, tns.line_slots, tns.line_dim,
                                 tns.line_id)
    has_slot = slots.view(np.uint64) < order.view(np.uint64)[ends]
    flat_slot = np.where(has_slot, start[ends] + slots, pad)
    for k, i in zip(*(x.tolist() for x in (
            ~has_slot | (flat_dims[flat_slot] != dim)).nonzero())):
        issues.append(f"line {line_id[i]}: {tns.ids[ends[k, i]]} has no "
                      f"slot {slots[k, i]} of dimension {dim[i]}")
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
        lo_cell[past] = np.where(cells[ends[0, past]] < 0, -1, 0)
    lo_cell -= hi_cell
    dist = l1_norms(lo_cell)
    for mask, text in (
            (dim > meta.chi, lambda i: (
                f"line {line_id[i]}: dimension {dim[i]} exceeds chi "
                f"{meta.chi}")),
            (dim < 1, lambda i: (
                f"line {line_id[i]}: dimension {dim[i]} is below 1")),
            (too_far, lambda i: (
                f"line {line_id[i]}: spans layers {lo_layer[i]}.."
                f"{hi_layer[i]}, max distance {meta.max_layer_distance}")),
            (~too_far & (dist > meta.max_cell_distance), lambda i: (
                f"line {line_id[i]}: cell distance {dist[i]} exceeds "
                f"{meta.max_cell_distance}"))):
        issues.extend(map(text, mask.nonzero()[0].tolist()))

    covered = np.bincount(flat_slot[has_slot], minlength=pad + 1)[:pad]
    for j in (covered != 1).nonzero()[0].tolist():
        i = int(np.searchsorted(start, j, "right")) - 1
        issues.append(f"{tns.ids[i]} slot {j - start[i]}: covered by "
                      f"{covered[j]} lines")

    return sorted(set(issues))


def _flat_elements(nid: str, elements):
    """The float list tns-v1 stores for a node's elements, None for none:
    the complex128 memory layout, real then imaginary part per amplitude.
    ValueError names the node when an entry is a NaN or an infinity,
    which tns-v1 cannot carry."""
    if elements is None:
        return None
    flat = np.ascontiguousarray(elements, complex).view(float).ravel()
    bad = flat[~np.isfinite(flat)]
    if len(bad):
        raise ValueError(f"{nid}: elements entry {float(bad[0])} is not a "
                         f"finite number")
    return flat.tolist()


def tns_to_dict(tns: Tns, entries: bool = True) -> dict:
    """JSON-ready description, format tns-v1.  Deterministic field order.
    With entries false its nodes and lines are empty: the header that
    tns_text writes the entries into.  ValueError names a node whose
    elements hold a NaN or an infinity, which tns-v1 cannot carry."""
    doc = {
        "version": "tns-v1",
        "generator_version": GENERATOR_VERSION,
        "lattice": spec_to_dict(tns.spec),
        "physical_dim": tns.physical_dim,
        "chi": tns.chi,
        # the int fields in their order, as dataclasses.asdict gives them
        "meta": dict(vars(tns.meta)),
        "nodes": [],
        "lines": [],
    }
    if not entries:
        return doc
    dims, bounds = tns.dims.tolist(), tns.dim_offsets.tolist()
    doc["nodes"] = [
        {"id": i, "layer": layer, "cell": cell, "kind": kind,
         "variant": variant, "dims": dims[start:end], "elements": e}
        for i, layer, cell, kind, variant, start, end, e in zip(
            tns.ids, tns.layer.tolist(), tns.cell.tolist(),
            map(KIND_NAMES.__getitem__, tns.kind.tolist()),
            map(tns.variants.__getitem__, tns.variant.tolist()),
            bounds, bounds[1:], map(_flat_elements, tns.ids, tns.elements))]
    (a, b), (sa, sb) = [list(map(tns.ids.__getitem__, row)) for row in
                        tns.line_ends.tolist()], tns.line_slots.tolist()
    doc["lines"] = [{"id": i, "a": [na, slot_a], "b": [nb, slot_b], "dim": dim}
                    for i, na, slot_a, nb, slot_b, dim in zip(
                        tns.line_id.tolist(), a, sa, b, sb,
                        tns.line_dim.tolist())]
    return doc


def tns_text(tns: Tns):
    """The text of json.dumps(tns_to_dict(tns)) and a newline, as batches
    of text for a file's writelines.  The header members come from
    tns_to_dict; the nodes and lines are formatted column-wise from the
    network's arrays, JSON_SLICE entries per batch, by joined over the
    id, kind and variant tables and numeral columns, so that neither the
    document nor its text is ever whole.  The member names and brackets
    after a layer, cell, kind, variant, dims or slot are folded into that
    column's table; ids and line ids are wide, so the text around them
    is a piece of its own.  ValueError as tns_to_dict's, once the batches
    before it are given."""
    dumps, step = json.dumps, JSON_SLICE
    head = tns_to_dict(tns, entries=False)
    del head["nodes"], head["lines"]
    yield dumps(head)[:-1] + ', "nodes": ['
    # the function json.dumps applies to every string, so that any id
    # reads back exactly
    ids = encoded(tns.ids)
    kinds = encoded(KIND_NAMES) + ', "variant": '
    variants = encoded(tns.variants) + ', "dims": ['
    for start in range(0, len(ids), step):
        part = slice(start, start + step)
        count = len(ids[part])
        elements = tns.elements[part]
        if start:
            yield ", "
        yield joined(
            count, '{"id": ', ids[part],
            numerals(tns.layer[part], ', "layer": ', ', "cell": ['),
            *numeral_axes(tns.cell[part], ", ", '], "kind": '),
            kinds[tns.kind[part]], variants[tns.variant[part]],
            _dims_text(tns.dims, tns.dim_offsets[start:start + step + 1]),
            "null" if _all_none(elements)
            else np.array(["null" if e is None
                           else dumps(_flat_elements(nid, e))
                           for nid, e in zip(tns.ids[part], elements)],
                          object),
            tails(count, "}, ", "}"))
    yield '], "lines": ['
    for start in range(0, len(tns.line_id), step):
        part = slice(start, start + step)
        (a, b), (sa, sb) = tns.line_ends[:, part], tns.line_slots[:, part]
        if start:
            yield ", "
        yield joined(
            len(a), '{"id": ', numerals(tns.line_id[part]), ', "a": [',
            ids[a], numerals(sa, ", ", '], "b": ['), ids[b],
            numerals(sb, ", ", '], "dim": '), numerals(tns.line_dim[part]),
            tails(len(a), "}, ", "}"))
    yield "]}\n"


def _all_none(values: list) -> bool:
    """Whether every entry is None (an array's == None is no bool)."""
    try:
        return values.count(None) == len(values)
    except ValueError:
        return False


def _dims_text(dims: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The text of each node's dims, dims[bounds[i]:bounds[i + 1]] joined
    by ", ", followed by '], "elements": ', as an object array; each
    distinct row of dims is formatted once, with that text folded in."""
    order = np.diff(bounds)
    text = np.empty(len(order), object)
    for width in distinct(order)[0].tolist():
        at = (order == width).nonzero()[0]
        rows, inverse = distinct(dims[bounds[at, None] + np.arange(width)])
        text[at] = np.array([", ".join(map(str, row)) + '], "elements": '
                             for row in rows.tolist()], object)[inverse]
    return text


_NODES = b', "nodes": ['


def tns_from_bytes(data: bytes):
    """The network of a tns-v1 file's bytes when they are exactly the
    text tns_text writes for a network without elements, else None; it
    never raises.  The nodes and lines are not parsed: a network of one
    of the _FAMILIES is one local rule repeated at every scale, so its
    text follows from the header.  json decodes the header members,
    which tns_from_dict checks over empty nodes and lines, _build_mera
    rebuilds the network the header names, and the network is returned
    only when tns_text of it reproduces the bytes, batch by batch.  Text
    equal to json.dumps of a document is text json.load reads as that
    document, so the network is the one tns_from_dict(json.loads(...))
    makes of the same bytes.  Nothing is built for elements, for a
    header that names no family or a length that is not
    branching**layers, or for more sites than the bytes hold, each
    anchor entry being over 64 bytes; then, as for any other text, None
    is returned, and the caller reads the text by json."""
    if b'"elements": [' in data:
        return None
    nodes_at = data.find(_NODES)
    if nodes_at < 0:
        return None
    try:
        head = json.loads(data[:nodes_at] + b"}")
        # the header passes every rule of the json reader
        spec = tns_from_dict({**head, "nodes": [], "lines": []}).spec
        b = spec.branching
        # b**64 is past every length, so that no huge power is taken
        if ((spec.dimension, b) not in _FAMILIES
                or spec.length != b ** min(spec.layers, 64)
                or spec.num_sites > len(data) // 64):
            return None
        net = _build_mera(spec.dimension, b, spec.layers, head["chi"],
                          head["physical_dim"], 0, False)
        at = 0
        for piece in tns_text(net):
            piece = piece.encode()
            if not data.startswith(piece, at):
                return None
            at += len(piece)
    except (ValueError, RecursionError, ResourceLimitError):
        return None
    return net if at == len(data) else None


def _columns(rows, keys):
    """Columns, as tuples, of the given keys of a list of JSON objects."""
    return [tuple(map(operator.itemgetter(key), rows)) for key in keys]


_INTS = "a count, layer, cell, dim, slot or line id"


def tns_from_dict(data: dict) -> Tns:
    """Network from its tns-v1 description, its nodes and lines read a
    column at a time.  ValueError, in this order of precedence, when the
    document is not an object, lacks a key, or has a generator_version
    that is not a string or a count that is not an integer; when a node
    entry is not an object or lacks a key, has a kind that is unknown,
    an id or variant that is not a string, a cell or dims that is not an
    array, or elements that are neither an array nor null; when two
    nodes share an id; when a layer, cell entry or dim is not an
    integer; when elements do not hold 2 numbers per amplitude of dims,
    hold an entry that is not a finite JSON number (a string, a bool, an
    array, null, NaN or an infinity) or that cannot be shaped by dims,
    each naming the node, or hold a number past float64; when a layer, cell
    entry or dim does not fit in 64 bits; when a line entry is not an
    object or lacks a key, a line end is not a (node id, slot) pair, or
    a line id, slot or dim is not an integer or does not fit in 64 bits;
    when a line names an unknown node; when two lines share an id; and
    when a node cell's length is not the lattice dimension or a layer is
    negative."""
    if not isinstance(data, dict):
        raise ValueError("malformed tns-v1 document: not a JSON object")
    if data.get("version") != "tns-v1":
        raise ValueError(f"unsupported network format {data.get('version')!r}")
    flat = itertools.chain.from_iterable
    with malformed("tns-v1"):
        if not isinstance(data["generator_version"], str):
            raise TypeError("generator_version is not a string")
        spec = spec_from_dict(data["lattice"])
        meta = MeraMeta(*(data["meta"][f.name] for f in fields(MeraMeta)))
        nodes, lines = data["nodes"], data["lines"]
        require_ints((data["physical_dim"], data["chi"], *astuple(meta)),
                     _INTS)
        ids, layers, cells, kinds, variants, dims, elements = _columns(
            nodes, ("id", "layer", "cell", "kind", "variant", "dims",
                    "elements"))
        kind_set = set(kinds)
        if not kind_set <= KINDS:
            raise TypeError(f"unknown node kind "
                            f"{min(map(repr, kind_set - KINDS))}")
        if not {str}.issuperset(map(type, ids + variants)):
            raise TypeError("node id or variant is not a string")
        if not {list}.issuperset(map(type, cells + dims)):
            raise TypeError("node cell or dims is not an array")
        if not {list, type(None)}.issuperset(map(type, elements)):
            raise TypeError("node elements are neither an array nor null")
        if len(set(ids)) < len(ids):
            raise ValueError("malformed tns-v1 document: repeated node id")
        require_ints(flat((layers, flat(cells), flat(dims))), _INTS)
        elements = list(elements)
        if elements.count(None) < len(ids):
            for nid, e, shape in zip(ids, elements, dims):
                if e is not None and len(e) != 2 * math.prod(shape):
                    raise ValueError(
                        f"malformed tns-v1 document: {nid}: {len(e)} "
                        f"numbers in elements, not 2 per amplitude of {shape}")
            try:
                for k, (nid, e, shape) in enumerate(zip(ids, elements, dims)):
                    if e is not None:
                        # numpy would parse a string and read a bool as 1
                        a = (np.array(e, float)
                             if {int, float}.issuperset(map(type, e))
                             else None)
                        if a is None or not np.isfinite(a).all():
                            bad = next(x for x in e if type(x) not in
                                       (int, float) or not math.isfinite(x))
                            raise ValueError(f"elements entry {bad!r} is "
                                             f"not a finite number")
                        elements[k] = a.view(complex).reshape(shape)
            except ValueError as exc:
                # an entry that is no finite number, or dims numpy cannot
                # take
                raise ValueError(f"malformed tns-v1 document: {nid}: "
                                 f"{exc}") from None
        n = len(ids)
        names = VARIANTS + tuple(sorted(set(variants) - set(VARIANTS)))
        codes = dict(zip(names, itertools.count()))
        cell_len = _int64(map(len, cells), n)
        offsets = _int64(itertools.accumulate(map(len, dims), initial=0),
                         n + 1)
        layer = _int64(layers, n)
        kind = _int64(map(KIND_CODES.__getitem__, kinds), n)
        variant = _int64(map(codes.__getitem__, variants), n)
        cell = _int64(flat(cells), int(cell_len.sum()))
        flat_dims = _int64(flat(dims), offsets[-1])
        line_ids, a, b, line_dims = _columns(lines, ("id", "a", "b", "dim"))
        ends = list(map(operator.itemgetter(0), itertools.chain(a, b)))
        slots = list(map(operator.itemgetter(1), itertools.chain(a, b)))
        require_ints(itertools.chain(line_ids, slots, line_dims), _INTS)
        count = len(line_ids)
        line_id = _int64(line_ids, count)
        slots = _int64(slots, 2 * count).reshape(2, count)
        line_dims = _int64(line_dims, count)
        index = dict(zip(ids, itertools.count()))
        ends = _int64(map(index.__getitem__, ends), 2 * count)
    ranked = np.sort(line_id)
    if (ranked[1:] == ranked[:-1]).any():
        raise ValueError("malformed tns-v1 document: repeated line id")
    d = spec.dimension
    if (cell_len != d).any():
        bad = int((cell_len != d).argmax())
        raise ValueError(f"malformed tns-v1 document: {ids[bad]}: cell "
                         f"{cells[bad]} is not {d}-dimensional")
    if (layer < 0).any():
        i = int((layer < 0).argmax())
        raise ValueError(f"malformed tns-v1 document: {ids[i]}: "
                         f"negative layer {layer[i]}")
    return Tns(spec, data["physical_dim"], data["chi"], meta, list(ids),
               layer, kind, variant, cell.reshape(n, d), flat_dims, offsets,
               elements, line_id, ends.reshape(2, count), slots, line_dims,
               names)
