"""The dense generator-packed tableau kernel that the word-sparse store
replaced, kept as the bit-for-bit reference of tnkit.stabilizer.

x and z are (n, ceil(n/64)) uint64 arrays whose row q holds the bits of
every generator on qubit q, generator g at bit g % 64 of word g // 64;
the phases are the same (2, ceil(n/64)) bit planes the sparse state
keeps.  A batch of rotations runs in blocks of about BLOCK_WORDS
generator words, each block's phase change a bit-sliced count mod 4 of
the running XOR of its rows.
"""

from dataclasses import dataclass

import numpy as np

BLOCK_WORDS = 2 ** 14


@dataclass
class DenseTableau:
    num_qubits: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    def copy(self):
        return DenseTableau(self.num_qubits, self.x.copy(), self.z.copy(),
                            self.phase.copy())


def live_words(t):
    """(bit row, word, value) of every stored word of a word-sparse
    StabilizerState, row after row, each row's words in pool order."""
    count = t.stop - t.start
    row = np.repeat(np.arange(count.size), count)
    slot = np.concatenate([np.arange(a, b) for a, b in
                           zip(t.start.tolist(), t.stop.tolist())] + [[]])
    slot = slot.astype(np.int64)
    return row, t.word[slot], t.val[slot]


def densify(t) -> DenseTableau:
    """The dense tableau of a word-sparse StabilizerState."""
    n = t.num_qubits
    bits = np.zeros((2 * n, t.phase.shape[1]), dtype=np.uint64)
    row, word, val = live_words(t)
    bits[row, word] = val
    return DenseTableau(n, bits[:n], bits[n:], t.phase.copy())


def init_zero(n: int) -> DenseTableau:
    words = (n + 63) // 64
    x = np.zeros((n, words), dtype=np.uint64)
    z = np.zeros((n, words), dtype=np.uint64)
    q = np.arange(n)
    z[q, q // 64] = np.uint64(1) << (q % 64).astype(np.uint64)
    return DenseTableau(n, x, z, np.zeros((2, words), dtype=np.uint64))


def count_mod4(rows):
    """Per bit, the number of rows with it set, mod 4, as (low, high)
    bit planes: the parity of all rows, and the XOR over i >= 1 of
    prefix[i - 1] & rows[i]."""
    prefix = np.bitwise_xor.accumulate(rows, axis=0)
    carry = prefix[:-1]
    carry &= rows[1:]
    return prefix[-1], np.bitwise_xor.reduce(carry, axis=0)


def xx_rotations(t: DenseTableau, a, b) -> DenseTableau:
    """The rotations of a batch of disjoint pairs.  A batch whose pairs
    share a qubit is not supported: t.x[qa] ^= anti is a fancy-index
    XOR that writes a repeated row once, so it keeps only one of that
    row's flips; apply such batches one pair per call."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    block = max(1, BLOCK_WORDS // t.x.shape[1])
    p0, p1 = t.phase
    for s in range(0, a.size, block):
        qa, qb = a[s:s + block], b[s:s + block]
        anti = t.z[qa]
        anti ^= t.z[qb]
        t.x[qa] ^= anti
        t.x[qb] ^= anti
        lo, hi = count_mod4(anti)
        hi ^= lo
        hi ^= p0 & lo
        p1 ^= hi
        p0 ^= lo
    return t


def swaps(t: DenseTableau, a, b) -> DenseTableau:
    ab, ba = np.concatenate([a, b]), np.concatenate([b, a])
    t.x[ab] = t.x[ba]
    t.z[ab] = t.z[ba]
    return t


def h(t: DenseTableau, q: int) -> DenseTableau:
    xb, zb = t.x[q].copy(), t.z[q].copy()
    t.phase[1] ^= xb & zb
    t.x[q], t.z[q] = zb, xb
    return t


def s(t: DenseTableau, q: int) -> DenseTableau:
    xb = t.x[q]
    t.phase[1] ^= t.phase[0] & xb
    t.phase[0] ^= xb
    t.z[q] ^= xb
    return t


def cnot(t: DenseTableau, control: int, target: int) -> DenseTableau:
    t.x[target] ^= t.x[control]
    t.z[control] ^= t.z[target]
    return t


def permute(t: DenseTableau, source) -> DenseTableau:
    t.x = t.x[source]
    t.z = t.z[source]
    return t


def restricted_hits(t: DenseTableau, qubits):
    """The sorted (generator, column) pairs of every set bit of the
    generators restricted to the X bits (columns 0..k-1) and Z bits
    (columns k..2k-1) of the given qubits, as a (hits, 2) array."""
    k, words = len(qubits), t.x.shape[1]
    gens, cols = [], []
    for offset, arr in ((0, t.x), (k, t.z)):
        block = arr[qubits].reshape(-1)
        at = np.flatnonzero(block != 0)
        bits = np.unpackbits(block[at].astype("<u8").view(np.uint8)
                             .reshape(-1, 8), axis=1, bitorder="little")
        hit = np.flatnonzero(bits)
        at = at[hit >> 6]
        gens.append(64 * (at % words) + (hit & 63))
        cols.append(at // words + offset)
    return np.unique(np.stack([np.concatenate(gens), np.concatenate(cols)],
                              axis=1), axis=0)
