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
calls are batches of one pair.  The tableau may take at most
16 * dense.amplitude_limit() bytes (1 GiB by default, set through
TNKIT_MAX_AMPLITUDES); init_zero raises ResourceLimitError beyond that.

Entanglement entropy of a region A is rank_GF2(generators restricted to
the X and Z columns of A) - |A|, exact and integer.  The rank is taken on
the smaller side of the cut, valid because S_A = S_B for a pure state,
from sparse rows built out of the nonzero words of that side's qubit rows.

The tree-state driver builds its gate schedule from a closed-form site
formula on purpose: tns.build_ttn_example is not imported, so the tree
entropy is an independent cross-check.  The automaton driver takes its
initial pairs and swap sublayers from qca.initial_pairs and
qca.sublayer_swaps, the same sets the pair tracker evolves; the
cross-checks live in the test suite and in `entropy --cross-check`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dense import ResourceLimitError, amplitude_limit
from .qca import initial_pairs, site_index, sublayer_swaps

# generator words per block of a batched rotation, bounding its temporaries
_BLOCK_WORDS = 2 ** 20


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
    qs = np.asarray(qs, dtype=np.int64).reshape(-1)
    bad = qs[(qs < 0) | (qs >= t.num_qubits)]
    if bad.size:
        raise ValueError(f"qubit {bad[0]} outside [0, {t.num_qubits})")
    return qs


def _pairs(t: StabilizerState, a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _qubits(t, a), _qubits(t, b)
    if a.size != b.size:
        raise ValueError("pair batches need as many first as second qubits")
    if np.unique(np.concatenate([a, b])).size != 2 * a.size:
        raise ValueError("qubits must be distinct")
    return a, b


def _count_mod4(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bit, the number of rows with it set, mod 4, as (low, high)
    bit planes; pairwise bit-sliced addition, log2(len(rows)) steps."""
    lo, hi = rows, np.zeros_like(rows)
    while len(lo) > 1:
        if len(lo) % 2:
            pad = np.zeros_like(lo[:1])
            lo, hi = np.concatenate([lo, pad]), np.concatenate([hi, pad])
        carry = lo[0::2] & lo[1::2]
        lo = lo[0::2] ^ lo[1::2]
        hi = hi[0::2] ^ hi[1::2] ^ carry
    return lo[0], hi[0]


def apply_xx_rotations(t: StabilizerState, a, b) -> StabilizerState:
    """exp(-i pi/4 X_a X_b) on every pair of a batch of disjoint pairs.

    Each gate fixes X_a and X_b and maps Z_a to -Y_a X_b: it flips the X
    bits of both qubits and subtracts 1 from the phase of every generator
    that anticommutes with X_a X_b.  The subtractions of the batch are
    summed mod 4 before they reach the phases.
    """
    a, b = _pairs(t, a, b)
    block = max(1, _BLOCK_WORDS // t.x.shape[1])
    for s in range(0, a.size, block):
        qa, qb = a[s:s + block], b[s:s + block]
        anti = t.z[qa] ^ t.z[qb]
        t.x[qa] ^= anti
        t.x[qb] ^= anti
        lo, hi = _count_mod4(anti)
        hi = hi ^ lo   # -c mod 4 has the bit planes (c0, c1 ^ c0)
        p0, p1 = t.phase
        t.phase = np.stack([p0 ^ lo, p1 ^ hi ^ (p0 & lo)])
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


def _restricted_rows(t: StabilizerState, qubits: np.ndarray) -> dict:
    """Generator -> bit row of its X bits (columns 0..k-1) and Z bits
    (columns k..2k-1) on the given qubits; generators with no support
    there are left out."""
    k = len(qubits)
    rows: dict[int, int] = {}
    for offset, arr in ((0, t.x), (k, t.z)):
        block = arr[qubits]
        c, w = np.nonzero(block)
        bits = np.unpackbits(block[c, w].astype("<u8").view(np.uint8)
                             .reshape(-1, 8), axis=1, bitorder="little")
        e, bit = np.nonzero(bits)
        for g, col in zip((64 * w[e] + bit).tolist(),
                          (c[e] + offset).tolist()):
            rows[g] = rows.get(g, 0) | (1 << col)
    return rows


def entanglement_entropy(t: StabilizerState, region) -> int:
    """Entropy in bits of the reduced state on the given qubits; exact."""
    qubits = np.unique(_qubits(t, list(region)))
    n = t.num_qubits
    if len(qubits) == 0 or len(qubits) == n:
        return 0
    if 2 * len(qubits) > n:
        qubits = np.setdiff1d(np.arange(n), qubits)
    return _gf2_rank(_restricted_rows(t, qubits).values()) - len(qubits)


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


def _tree_schedule(layers: int):
    """(layer, (site_a, site_b)) gate list, root gate first.

    Gate k of layer tau pairs the midpoint 2**(tau-1) (2k - 1) - 1 of its
    block with the block's last site 2**tau k - 1.
    """
    half = 1
    out = []
    for tau in range(layers, 0, -1):
        width = 2 ** tau
        half = width // 2
        for k in range(1, 2 ** (layers - tau) + 1):
            out.append((tau, (width * k - half - 1, width * k - 1)))
    return out


def _tree_cut_size(layers: int) -> int:
    p = 1
    for _ in range((layers - 1) // 2):
        p = 4 * p - 1
    return p


@dataclass
class TtnRun:
    entropy: int
    region: tuple[int, ...]
    schedule: tuple
    state: StabilizerState


def run_ttn_example(layers: int) -> TtnRun:
    """Build the binary-tree Clifford state and measure the trailing cut.

    Every gate is exp(-i pi/4 XX), applied one tree layer at a time: the
    gates of a layer act on disjoint blocks.  The distinguished region is
    the last p sites with p_1 = 1 and p_{T+2} = 4 p_T - 1; its entropy
    comes out as (layers + 1) / 2, growing with depth at fixed region
    fraction.
    """
    if layers < 1 or layers % 2 == 0:
        raise ValueError("layers must be odd and >= 1")
    n = 2 ** layers
    state = init_zero(n)
    schedule = tuple(_tree_schedule(layers))
    for _, gates in itertools.groupby(schedule, key=lambda gate: gate[0]):
        a, b = np.array([pair for _, pair in gates]).T
        apply_xx_rotations(state, a, b)
    p = _tree_cut_size(layers)
    region = tuple(range(n - p, n))
    return TtnRun(entanglement_entropy(state, region), region, schedule, state)


def run_qca(dimension: int, length: int, layers: int) -> StabilizerState:
    """State of the swap automaton after the given number of layers.

    Starts from rotation-created pairs on the odd-aligned plaquettes; each
    layer applies the odd-aligned sublayer of diagonal swaps first and the
    even-aligned sublayer second.  Qubits are indexed row-major.  The two
    sublayers compose to one permutation of qubits, raised to the number
    of layers on the indices before the rows are moved once.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    n = length ** dimension
    state = init_zero(n)
    pairs = initial_pairs(dimension, length).pairs
    apply_xx_rotations(state, [site_index(a, length) for a, _ in pairs],
                       [site_index(b, length) for _, b in pairs])
    step = np.arange(n)
    for offset in (1, 0):   # odd-aligned sublayer first
        swaps = sublayer_swaps(dimension, length, offset)
        a = [site_index(s, length) for s, _ in swaps]
        b = [site_index(s, length) for _, s in swaps]
        step[a + b] = step[b + a]
    # qubit q ends up holding the bits of qubit source[q]
    source = np.arange(n)
    for _ in range(layers):
        source = source[step]
    state.x, state.z = state.x[source], state.z[source]
    return state


def region_qubits(region, length: int) -> list[int]:
    """Row-major qubit indices of a site region."""
    return [site_index(site, length) for site in region]
