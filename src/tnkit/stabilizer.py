"""Generator-packed stabilizer simulator for the Clifford constructions.

A state on n qubits is tracked by n generators of the form
i**r * prod_q X**x_q Z**z_q (X left of Z on every qubit), with r mod 4.
Storage is generator-packed, as in Aaronson-Gottesman (quant-ph/0406196)
and Stim (arXiv:2103.02202): x and z are (n, ceil(n/64)) uint64 arrays
whose row q holds the bits of every generator on qubit q, generator g at
bit g % 64 of word g // 64.  The phases r are bit-sliced the same way: a
(2, ceil(n/64)) array of low and high bit planes.  A gate on fixed qubits
therefore costs O(n/64) word operations, and a swap is a row exchange.

apply_xx_rotations and apply_swaps take a batch of disjoint qubit pairs
and apply the whole batch in a few array operations; the single-gate
calls are batches of one pair.  A batch of rotations runs in blocks of
about _BLOCK_WORDS generator words, so that its temporaries stay in
cache, and each block's phase change is a bit-sliced count mod 4 taken
from the running XOR of its rows.  The tableau may take at most
16 * lattice.amplitude_limit() bytes (1 GiB by default, set through
TNKIT_MAX_AMPLITUDES); init_zero raises ResourceLimitError beyond that.

Entanglement entropy of a region A is rank_GF2(generators restricted to
the X and Z columns of A) - |A|, exact and integer.  The rank is taken on
the smaller side of the cut, valid because S_A = S_B for a pure state,
on the list of (generator, column) bits read from the nonzero words of
that side's qubit rows, a block of rows at a time.  Rounds of array
operations first peel the pivots that need no elimination: a generator
that alone sets some column, and a column that is some generator's only
bit.  Only the core left over becomes Python-int rows for _gf2_rank;
the tree cuts of every odd T <= 15 peel completely.

The tree-state driver applies tns.ttn_gate_schedule a layer's block of
rows at a time and sizes the cut by tns.ttn_cut_size; it never calls
tns.build_ttn_example, so the tableau and the dense contraction of the
built network simulate the same gates independently.  The automaton
driver rotates the odd swap sublayer's pairs of qca.sublayer_indices
into entangled pairs, the set qca.initial_pairs hands the pair tracker.
Its layers are one permutation of qubits, qca.layer_permutation, and
permute_qubits, the one row mover, applies a permutation as a single
gather of the x and z rows; run_qca raises the permutation to the
number of layers before it moves the rows once, and `entropy
--cross-check` sets each length up once and moves the rows one layer
at a time.  The cross-checks live in the test suite and in that
command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tns
from .lattice import LatticeSpec, ResourceLimitError, amplitude_limit
from .qca import layer_permutation, site_indices, sublayer_indices

# generator words per block of a batched rotation or of the rows an
# entropy reads: 128 KiB temporaries stay in L2 (fastest of 2**11-2**20)
_BLOCK_WORDS = 2 ** 14


@dataclass
class StabilizerState:
    num_qubits: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    def copy(self) -> "StabilizerState":
        return StabilizerState(self.num_qubits, self.x.copy(), self.z.copy(),
                               self.phase.copy())


def init_zero(num_qubits: int) -> StabilizerState:
    """All-zeros computational state, stabilized by Z on every qubit."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    words = (num_qubits + 63) // 64
    need = 2 * num_qubits * words * 8
    if need > 16 * amplitude_limit():
        raise ResourceLimitError(
            f"stabilizer tableau of {num_qubits} qubits needs {need} bytes, "
            f"over the budget of {16 * amplitude_limit()}")
    x = np.zeros((num_qubits, words), dtype=np.uint64)
    z = np.zeros((num_qubits, words), dtype=np.uint64)
    q = np.arange(num_qubits)
    z[q, q // 64] = np.uint64(1) << (q % 64).astype(np.uint64)
    return StabilizerState(num_qubits, x, z,
                           np.zeros((2, words), dtype=np.uint64))


def _qubits(t: StabilizerState, qs) -> np.ndarray:
    qs = np.asarray(qs).reshape(-1)
    if qs.size and qs.dtype.kind not in "iu":
        raise TypeError(f"qubits must be integers, not {qs.dtype}")
    bad = qs[(qs < 0) | (qs >= t.num_qubits)]
    if bad.size:
        raise ValueError(f"qubit {bad[0]} outside [0, {t.num_qubits})")
    return qs.astype(np.int64, copy=False)


def _pairs(t: StabilizerState, a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _qubits(t, a), _qubits(t, b)
    if a.size != b.size:
        raise ValueError("pair batches need as many first as second qubits")
    qs = np.sort(np.concatenate([a, b]))
    if np.any(qs[1:] == qs[:-1]):
        raise ValueError("qubits must be distinct")
    return a, b


def _count_mod4(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bit, the number of rows with it set, mod 4, as (low, high)
    bit planes.  The low plane is the parity of all rows; the high one
    flips at every carry, where row i meets an odd parity of the rows
    before it: the XOR over i >= 1 of prefix[i - 1] & rows[i]."""
    prefix = np.bitwise_xor.accumulate(rows, axis=0)
    carry = prefix[:-1]
    carry &= rows[1:]
    return prefix[-1], np.bitwise_xor.reduce(carry, axis=0)


def apply_xx_rotations(t: StabilizerState, a, b) -> StabilizerState:
    """exp(-i pi/4 X_a X_b) on every pair of a batch of disjoint pairs.

    Each gate fixes X_a and X_b and maps Z_a to -Y_a X_b: it flips the X
    bits of both qubits and subtracts 1 from the phase of every generator
    that anticommutes with X_a X_b.  The subtractions of the batch are
    summed mod 4 before they reach the phases.
    """
    a, b = _pairs(t, a, b)
    block = max(1, _BLOCK_WORDS // t.x.shape[1])
    p0, p1 = t.phase
    for s in range(0, a.size, block):
        qa, qb = a[s:s + block], b[s:s + block]
        anti = t.z[qa]
        anti ^= t.z[qb]
        t.x[qa] ^= anti
        t.x[qb] ^= anti
        lo, hi = _count_mod4(anti)
        # -c mod 4 has the bit planes (c0, c1 ^ c0)
        hi ^= lo
        hi ^= p0 & lo
        p1 ^= hi
        p0 ^= lo
    return t


def apply_xx_rotation(t: StabilizerState, i: int, j: int) -> StabilizerState:
    """exp(-i pi/4 X_i X_j): fixes X_i and X_j, maps Z_i to -Y_i X_j."""
    return apply_xx_rotations(t, [i], [j])


def apply_swaps(t: StabilizerState, a, b) -> StabilizerState:
    """SWAP on every pair of a batch of disjoint pairs: row exchanges."""
    a, b = _pairs(t, a, b)
    ab, ba = np.concatenate([a, b]), np.concatenate([b, a])
    t.x[ab] = t.x[ba]
    t.z[ab] = t.z[ba]
    return t


def apply_swap(t: StabilizerState, i: int, j: int) -> StabilizerState:
    return apply_swaps(t, [i], [j])


def apply_h(t: StabilizerState, q: int) -> StabilizerState:
    _qubits(t, q)
    xb, zb = t.x[q].copy(), t.z[q].copy()
    t.phase[1] ^= xb & zb
    t.x[q], t.z[q] = zb, xb
    return t


def apply_s(t: StabilizerState, q: int) -> StabilizerState:
    _qubits(t, q)
    xb = t.x[q]
    t.phase[1] ^= t.phase[0] & xb
    t.phase[0] ^= xb
    t.z[q] ^= xb
    return t


def apply_cnot(t: StabilizerState, control: int, target: int) -> StabilizerState:
    _pairs(t, control, target)
    t.x[target] ^= t.x[control]
    t.z[control] ^= t.z[target]
    return t


def _restricted_hits(t: StabilizerState,
                     qubits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(generator, column) of every set bit of the generators restricted
    to the X bits (columns 0..k-1) and Z bits (columns k..2k-1) of the
    given qubits, as two int64 arrays; the qubit rows are read a block
    at a time."""
    k, words = len(qubits), t.x.shape[1]
    step = max(1, _BLOCK_WORDS // words)
    gens, cols = [], []
    for offset, arr in ((0, t.x), (k, t.z)):
        for s in range(0, k, step):
            block = arr[qubits[s:s + step]].reshape(-1)
            at = np.flatnonzero(block != 0)
            bits = np.unpackbits(block[at].astype("<u8", copy=False)
                                 .view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")
            hit = np.flatnonzero(bits)
            at = at[hit >> 6]
            gens.append(64 * (at % words) + (hit & 63))
            cols.append(at // words + (offset + s))
    return np.concatenate(gens), np.concatenate(cols)


def _peeled_rank(gens: np.ndarray, cols: np.ndarray, num_rows: int,
                 num_cols: int) -> int:
    """GF(2) rank of the num_rows x num_cols matrix whose ones sit at the
    distinct (row, column) pairs (gens[i], cols[i]).

    Rounds of array operations remove two kinds of pivot: a row that
    sets a column no other row sets (the row and its bits go), and a
    column that some row sets as its only bit (that column of every row
    goes, and with it the row); each adds one to the rank.  _gf2_rank
    takes the core that is left, one Python int per row."""
    rank = 0
    while gens.size:
        before = gens.size
        # rows with a column of their own
        lone = np.bincount(cols, minlength=num_cols)[cols] == 1
        pivot = np.zeros(num_rows, dtype=bool)
        pivot[gens[lone]] = True
        rank += int(np.count_nonzero(pivot))
        keep = ~pivot[gens]
        gens, cols = gens[keep], cols[keep]
        # columns that are some row's only bit
        lone = np.bincount(gens, minlength=num_rows)[gens] == 1
        pivot = np.zeros(num_cols, dtype=bool)
        pivot[cols[lone]] = True
        rank += int(np.count_nonzero(pivot))
        keep = ~pivot[cols]
        gens, cols = gens[keep], cols[keep]
        if gens.size == before:
            break
    core: dict[int, int] = {}
    for g, c in zip(gens.tolist(), cols.tolist()):
        core[g] = core.get(g, 0) | (1 << c)
    return rank + _gf2_rank(core.values())


def entanglement_entropy(t: StabilizerState, region) -> int:
    """Entropy in bits of the reduced state on the given qubits, an
    integer array (such as a qca region) or any iterable of ints; exact."""
    n = t.num_qubits
    if not isinstance(region, np.ndarray):
        region = list(region)
    inside = np.zeros(n, dtype=bool)
    inside[_qubits(t, region)] = True
    k = int(np.count_nonzero(inside))
    if k == 0 or k == n:
        return 0
    qubits = np.flatnonzero(inside if 2 * k <= n else ~inside)
    gens, cols = _restricted_hits(t, qubits)
    return _peeled_rank(gens, cols, n, 2 * len(qubits)) - len(qubits)


def _gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                rank += 1
                break
            v ^= p
    return rank


_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_XZ = _X @ _Z


def _bit(arr: np.ndarray, g: int) -> int:
    """Bit of generator g in a word row."""
    return int(arr[g // 64] >> np.uint64(g % 64)) & 1


def generator_operator(t: StabilizerState, g: int) -> np.ndarray:
    """Dense matrix of generator g; qubit 0 is the most significant."""
    op = np.array([[1.0 + 0j]])
    for q in range(t.num_qubits):
        xb, zb = _bit(t.x[q], g), _bit(t.z[q], g)
        op = np.kron(op, (_I2, _X, _Z, _XZ)[xb + 2 * zb])
    r = _bit(t.phase[0], g) + 2 * _bit(t.phase[1], g)
    return (1j ** r) * op


def to_projector(t: StabilizerState) -> np.ndarray:
    """Dense projector prod_g (I + g) / 2 onto the stabilized subspace."""
    if t.num_qubits > 10:
        raise ValueError("dense projector limited to 10 qubits")
    dim = 2 ** t.num_qubits
    proj = np.eye(dim, dtype=complex)
    for g in range(t.num_qubits):
        proj = proj @ (np.eye(dim, dtype=complex)
                       + generator_operator(t, g)) / 2.0
    return proj


@dataclass
class TtnRun:
    entropy: int
    region: tuple[int, ...]
    schedule: np.ndarray
    state: StabilizerState


def run_ttn_example(layers: int) -> TtnRun:
    """Build the binary-tree Clifford state and measure the trailing cut.

    Every gate is exp(-i pi/4 XX), applied one tree layer at a time: the
    gates of a layer act on disjoint blocks.  The distinguished region is
    the last p sites with p_1 = 1 and p_{T+2} = 4 p_T - 1; its entropy
    comes out as (layers + 1) / 2, growing with depth at fixed region
    fraction.
    """
    p = tns.ttn_cut_size(layers)
    n = 2 ** layers
    state = init_zero(n)
    schedule = tns.ttn_gate_schedule(layers)
    for top in range(layers):   # the rows of layer layers - top
        _, a, b = schedule[2 ** top - 1:2 ** (top + 1) - 1].T
        apply_xx_rotations(state, a, b)
    region = tuple(range(n - p, n))
    return TtnRun(entanglement_entropy(state, region), region, schedule, state)


def permute_qubits(t: StabilizerState, source) -> StabilizerState:
    """Move every qubit's rows at once: qubit q takes the X and Z bits
    that qubit source[q] held.  source must be a permutation of the
    qubits (ValueError otherwise); phases do not change."""
    source = _qubits(t, source)
    seen = np.zeros(t.num_qubits, dtype=bool)
    seen[source] = True
    if source.size != t.num_qubits or not seen.all():
        raise ValueError("source must be a permutation of the qubits")
    # one array at a time, so that at most one old copy is alive
    t.x = t.x[source]
    t.z = t.z[source]
    return t


def run_qca(dimension: int, length: int, layers: int) -> StabilizerState:
    """State of the swap automaton after the given number of layers.

    Starts from rotation-created pairs on the odd-aligned plaquettes; each
    layer applies the odd-aligned sublayer of diagonal swaps first and the
    even-aligned sublayer second.  Qubits are indexed row-major.  The two
    sublayers compose to one permutation of qubits,
    qca.layer_permutation; it is raised to the number of layers on the
    indices, and permute_qubits moves the rows once.  A caller that
    wants every depth takes run_qca(dimension, length, 0) and applies
    permute_qubits(state, qca.layer_permutation(dimension, length)) once
    per layer, the same state layer by layer.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    state = init_zero(length ** dimension)
    # the initial pairs are the odd sublayer's swaps
    apply_xx_rotations(state, *sublayer_indices(dimension, length, 1))
    if layers:
        step = layer_permutation(dimension, length)
        source = step
        for _ in range(layers - 1):
            source = source[step]
        permute_qubits(state, source)
    return state


def region_qubits(region, length: int) -> list[int]:
    """Row-major qubit indices of a site region; ValueError, naming a
    site, unless every site has as many int coordinates as the first
    and each lies in [0, length)."""
    sites = list(region)
    if not sites:
        return []
    # a first site of no coordinates is named as a site, not a dimension
    spec = LatticeSpec(max(len(sites[0]), 1), length)
    bad = next((site for site in sites if not spec.contains(site)), None)
    if bad is not None:
        raise ValueError(f"site {bad} outside the lattice")
    return site_indices(np.array(sites, dtype=np.int64), length).tolist()
