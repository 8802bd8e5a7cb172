"""Word-sparse stabilizer simulator for the Clifford constructions.

A state on n qubits is tracked by n generators of the form
i**r * prod_q X**x_q Z**z_q (X left of Z on every qubit), with r mod 4.
The bits are generator-packed, as in Aaronson-Gottesman
(quant-ph/0406196) and Stim (arXiv:2103.02202): bit row q holds the X
bits of every generator on qubit q and bit row n + q its Z bits,
generator g at bit g % 64 of word g // 64 of the row's ceil(n/64) words.
The rows are word-sparse.  The state stores only their nonzero words, in
a pool of two parallel arrays (the word index and the uint64 value of
each), and every bit row is one slice of the pool, named by its start
and stop slots.  No zero word is stored, and the words of each row are
ascending.  The phases r stay dense: a (2, ceil(n/64)) array of low and
high bit planes.  The tree state at T=13 keeps 16,638 of the 2,097,152
words of the dense tableau.

Every gate reads and writes only the slices of its own rows.  A row move
(SWAP, permute_qubits, the exchange of a qubit's X and Z rows by H)
moves the rows' start and stop slots; no word moves.  XOR-ing rows into
rows (CNOT, S and the X bits of the rotations) gathers the slices of the
rows written together with the new words, sorts them by (row, word),
XORs the words of equal key into one, drops those that came out zero and
appends each row's result to the pool as its new slice.  The old slices
are left dead; when the pool is full, the live slices move into a new
pool twice their size.  With no dead slot, as in a fresh state, the used
prefix is copied and every slice keeps its slots; only a pool with dead
slots is gathered row by row, which compacts it.  apply_xx_rotations and
apply_swaps apply a whole batch of qubit pairs in a few array
operations; the single-gate calls are batches of one pair.  A batch of
swaps moves rows, so its pairs must be disjoint.  The rotations of a
batch may share qubits: they commute and none changes a Z bit, so the Z
rows before the batch tell which generators anticommute with each pair.
A batch of rotations gathers the Z words of its rows, merges them into
each pair's anticommuting words, merges those again by (qubit, word)
into each qubit's flips, from which the distinct qubits follow without a
sort of the qubits, and XORs the flips into those qubits' X rows; its
phase change is a bit-sliced count mod 4 over the pairs, taken per
generator word as a segmented prefix parity.  Whatever the size of the
state, a single H, S, CNOT or rotation costs a few dozen numpy calls,
some tens of microseconds, plus time about linear in its rows' words;
the packing of a full pool comes on top now and then.

The budget counts the bytes the store holds: 16 per pool slot, live,
dead or free (word index and value), 16 per bit row (its start and stop)
and the phase planes, against 16 * lattice.amplitude_limit() bytes
(1 GiB by default, set through TNKIT_MAX_AMPLITUDES).  Each charge adds
what is about to be allocated and raises ResourceLimitError, naming the
qubits and the bytes, before it is: init_zero charges its store, _pack
the new pool beside the old one, the tree driver's tile its new store
beside the state it copies, with 32 bytes per word and 24 per row of
that state for the read, a batch of rotations 128 bytes per word of its
Z rows, for its merges and writes, and the entropy 24 bytes per word it
reads and 32 per set bit of its (generator, column) list, which bound
what it holds past the read, and then its core, if one is left, at
num_cols / 2 + 160 bytes a row.  _pack, the tile and a batch of
rotations count their words from the rows' slots and charge before they
read one; the entropy counts the set bits of the words it read, from
their nonzero octets, and charges before it makes any array of set bits,
and its rank charges the core before it builds it.  The tree state holds
a few words per row.  Built in one batch, its largest charge, the
rotations', is about 300 bytes per qubit; grown by the tile, it is the
entropy's, about 120, the tile's about 110.  A near-dense store, which
no command makes, is refused before it is allocated.

Entanglement entropy of a region A is rank_GF2(generators restricted to
the X and Z columns of A) - |A|, exact and integer.  The rank is taken
on the smaller side of the cut, valid because S_A = S_B for a pure
state, on the list of (generator, column) bits of the stored words of
that side's rows.  The list is built from the words' nonzero octets
through two 256-row tables, each octet's popcount and its bit positions,
so it costs time with its set bits, about two a word for the tree, not
with the 64 bits of every word.  Rounds of array operations first peel
the pivots that need no elimination: a generator that alone sets some
column, and a column that is some generator's only bit; each round
frees the arrays it filters.  Only the core left over becomes rows for
_gf2_rank, packed into bytes and turned into Python ints one at a time;
the tree cuts of every odd T <= 17 peel completely.

The tree-state driver applies every row of tns.ttn_gate_schedule as one
batch of rotations and sizes the cut by tns.ttn_cut_size; it never calls
tns.build_ttn_example, so the tableau and the dense contraction of the
built network simulate the same gates independently.  Handed the run of
two layers fewer, as `entropy --family ttn1d` hands each depth the last,
it grows the tableau of T >= 9 from that run's instead: layers 1..T-2 of
the schedule are four copies of the shallower one, shifted by multiples
of its 2**(T-2) qubits, which fill whole generator words, so _tile lays
four copies of the shallower pool's live words side by side, shifted by
whole words, and only the schedule's rows 0-2, the top two layers, are
applied.  The tableau is the same, word for word; the shallower state is
taken out of its run and freed once tiled.  The automaton driver
rotates the odd swap sublayer's pairs of qca.sublayer_indices into
entangled pairs, the set qca.initial_pairs hands the pair tracker.  Its
layers are one permutation of qubits, qca.layer_permutation, and
permute_qubits, the one row mover of whole layers, permutes the slots of
every row at once, a layer at a time in run_qca and in `entropy
--cross-check`.  The cross-checks live in the test suite and in that
command, the dense projector and generator matrices in the tests'
tableau_oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import tns
from .lattice import LatticeSpec, ResourceLimitError, amplitude_limit
from .qca import layer_permutation, site_indices, sublayer_indices


@dataclass(eq=False)
class StabilizerState:
    """Generators of a state on num_qubits qubits.  Bit row r (the X bits
    of qubit q in row q, its Z bits in row num_qubits + q) is the pool
    slice start[r]:stop[r], its nonzero words: word index word[i] and
    value val[i].  Pool slots from used on are free; those below it that
    no row's slice covers are dead.  phase holds the (low, high) bit
    planes of r."""

    num_qubits: int
    start: np.ndarray
    stop: np.ndarray
    word: np.ndarray
    val: np.ndarray
    used: int
    phase: np.ndarray

    def copy(self) -> "StabilizerState":
        return StabilizerState(self.num_qubits, self.start.copy(),
                               self.stop.copy(), self.word.copy(),
                               self.val.copy(), self.used,
                               self.phase.copy())


def _charge(num_qubits: int, need: int) -> None:
    """ResourceLimitError unless need bytes, what a tableau of num_qubits
    qubits would hold, fit in 16 bytes per amplitude of the budget."""
    budget = 16 * amplitude_limit()
    if need > budget:
        raise ResourceLimitError(
            f"stabilizer tableau of {num_qubits} qubits needs {need} bytes, "
            f"over the budget of {budget}")


def _held(t: StabilizerState) -> int:
    """Bytes of the store: 16 per pool slot, 16 per row, the phases."""
    return (t.word.nbytes + t.val.nbytes + t.start.nbytes + t.stop.nbytes
            + t.phase.nbytes)


def init_zero(num_qubits: int) -> StabilizerState:
    """All-zeros computational state, stabilized by Z on every qubit."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    words = (num_qubits + 63) // 64
    # a pool slot per qubit, two rows per qubit and the phase planes
    _charge(num_qubits, 16 * (3 * num_qubits + words))
    q = np.arange(num_qubits, dtype=np.int64)
    # empty X rows; the Z row of qubit q is pool slot q
    start = np.concatenate([np.zeros_like(q), q])
    stop = np.concatenate([np.zeros_like(q), q + 1])
    return StabilizerState(num_qubits, start, stop, q // 64,
                           np.uint64(1) << (q % 64).astype(np.uint64),
                           num_qubits, np.zeros((2, words), dtype=np.uint64))


def _qubits(t: StabilizerState, qs) -> np.ndarray:
    qs = np.asarray(qs).reshape(-1)
    if qs.size and qs.dtype.kind not in "iu":
        raise TypeError(f"qubits must be integers, not {qs.dtype}")
    bad = qs[(qs < 0) | (qs >= t.num_qubits)]
    if bad.size:
        raise ValueError(f"qubit {bad[0]} outside [0, {t.num_qubits})")
    return qs.astype(np.int64, copy=False)


def _qubit(t: StabilizerState, q) -> int:
    """The qubit argument q of a one-qubit gate as an int; ValueError
    unless it is a single integer (not a bool, not a sequence) on the
    tableau."""
    try:
        if isinstance(q, (bool, np.bool_)):
            raise TypeError
        q = operator.index(q)
    except TypeError:
        raise ValueError(f"q must be one integer qubit, not {q!r}") from None
    _qubits(t, q)
    return q


def _pairs(t: StabilizerState, a, b,
           disjoint: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The qubits of a pair batch; ValueError unless the two qubits of
    each pair differ and, if disjoint, no qubit is in two pairs."""
    a, b = _qubits(t, a), _qubits(t, b)
    if a.size != b.size:
        raise ValueError("pair batches need as many first as second qubits")
    same = a == b
    if disjoint:
        qs = np.sort(np.concatenate([a, b]))
        same = qs[1:] == qs[:-1]
    if np.any(same):
        raise ValueError("qubits must be distinct")
    return a, b


def _read(t: StabilizerState,
          rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index into rows, word, value) of every stored word of the given
    bit rows, row after row."""
    first = t.start[rows]
    count = t.stop[rows] - first
    label = np.repeat(np.arange(rows.size), count)
    # the i-th word read is slot i + first - (words of the rows before)
    slot = np.cumsum(count)
    slot -= count + first
    slot = np.arange(label.size) - slot[label]
    return label, t.word[slot], t.val[slot]


def _write(t: StabilizerState, rows: np.ndarray, label: np.ndarray,
           word: np.ndarray, val: np.ndarray) -> None:
    """Make the words of label i, ascending in label, the new content of
    bit row rows[i]; rows are distinct.  The rows' old slices die, and
    the new ones are appended to the pool."""
    t.start[rows] = t.stop[rows] = 0
    if t.used + word.size > t.word.size:
        _pack(t, word.size)
    count = np.bincount(label, minlength=rows.size)
    end = t.used + word.size
    t.word[t.used:end], t.val[t.used:end] = word, val
    t.stop[rows] = t.used + np.cumsum(count)
    t.start[rows] = t.stop[rows] - count
    t.used = end


def _pack(t: StabilizerState, extra: int) -> None:
    """Move the live slices to the front of a new pool twice the size of
    them and extra more words; ResourceLimitError before the new pool is
    allocated when the store would pass the budget while it holds both
    pools.  Without a dead slot the used prefix is copied and every slice
    keeps its slots; otherwise the live slices are gathered row by row."""
    words = int(t.stop.sum() - t.start.sum())
    _charge(t.num_qubits, _held(t) + 32 * (words + extra))
    dead = words < t.used
    if dead:
        _, word, val = _read(t, np.arange(t.start.size))
    else:
        word, val = t.word[:words], t.val[:words]
    t.word = np.empty(2 * (words + extra), dtype=np.int64)
    t.val = np.empty(t.word.size, dtype=np.uint64)
    t.word[:words], t.val[:words] = word, val
    if dead:
        count = t.stop - t.start
        t.stop = np.cumsum(count)
        t.start = t.stop - count
    t.used = words


def _starts(key: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values of a sorted array begins."""
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return np.flatnonzero(new)


def _xor_merge(key: np.ndarray,
               val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct keys of key, each with the XOR of its
    values, leaving out the keys whose XOR is zero."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = _starts(key)
    val = np.bitwise_xor.reduceat(val[order], start)
    keep = np.flatnonzero(val)
    return key[start[keep]], val[keep]


def _xor_into(t: StabilizerState, rows: np.ndarray, label: np.ndarray,
              word: np.ndarray, val: np.ndarray) -> None:
    """XOR val[i] into word word[i] of bit row rows[label[i]], repeats
    allowed; rows are distinct.  Only the slices of those rows are read
    and written."""
    width = t.phase.shape[1]
    old, old_word, old_val = _read(t, rows)
    key, val = _xor_merge(np.concatenate([old, label]) * width
                          + np.concatenate([old_word, word]),
                          np.concatenate([old_val, val]))
    label, word = np.divmod(key, width)
    _write(t, rows, label, word, val)


def _segment_count_mod4(vals: np.ndarray,
                        start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bit and per segment of vals (segment i runs from start[i] to
    start[i + 1]), the number of values with the bit set, mod 4, as
    (low, high) bit planes.  The low plane is the segment's parity; the
    high one flips at every carry, where value i meets an odd parity of
    the segment's values before it."""
    # the parity of all values before each one, then of those of its
    # own segment
    before = np.zeros_like(vals)
    np.bitwise_xor.accumulate(vals[:-1], out=before[1:])
    seg = np.zeros(vals.size, dtype=np.int64)
    seg[start[1:]] = 1
    np.cumsum(seg, out=seg)
    before ^= before[start][seg]
    before &= vals
    return (np.bitwise_xor.reduceat(vals, start),
            np.bitwise_xor.reduceat(before, start))


def apply_xx_rotations(t: StabilizerState, a, b) -> StabilizerState:
    """exp(-i pi/4 X_a X_b) on every pair of a batch; pairs may share
    qubits and repeat, as the gates commute.

    Each gate fixes X_a and X_b and maps Z_a to -Y_a X_b: it flips the X
    bits of both qubits and subtracts 1 from the phase of every generator
    that anticommutes with X_a X_b.  No gate changes a Z bit, so whether a
    generator anticommutes with a pair does not depend on the other gates
    of the batch.  A qubit's X row takes the XOR of the flips of every
    pair on it, merged by (qubit, word); the runs of that merge give the
    distinct qubits and each word's row, with no sort of the qubits and
    no array over all n of them.  The subtractions of the batch are
    summed mod 4 before they reach the phases.
    """
    a, b = _pairs(t, a, b, disjoint=False)
    n, width, m = t.num_qubits, t.phase.shape[1], a.size
    rows = n + np.concatenate([a, b])
    # the batch's merges and writes take about 128 bytes per word read
    _charge(n, _held(t) + 128 * int(t.stop[rows].sum() - t.start[rows].sum()))
    # the words of z[a] ^ z[b]: the generators anticommuting with X_a X_b
    k, word, val = _read(t, rows)
    key, anti = _xor_merge(k % m * width + word, val)
    k, word = np.divmod(key, width)
    # the X row of a qubit in several pairs takes the XOR of their words
    key, flip = _xor_merge(np.concatenate([a[k], b[k]]) * width
                           + np.concatenate([word, word]),
                           np.concatenate([anti, anti]))
    # each array goes once used: a batch sets the peak of the tree at
    # T=21 and of the 2^20-qubit automaton
    del k
    qubit, at = np.divmod(key, width)
    del key
    # the distinct qubits, ascending; the qubit column becomes the labels
    start = _starts(qubit)
    rows = qubit[start]
    qubit[:] = 0
    qubit[start[1:]] = 1
    np.cumsum(qubit, out=qubit)
    _xor_into(t, rows, qubit, at, flip)
    del qubit, at, flip
    # per generator word, the anticommuting pairs counted mod 4
    order = np.argsort(word, kind="stable")
    word, anti = word[order], anti[order]
    start = _starts(word)
    lo, hi = _segment_count_mod4(anti, start)
    word = word[start]
    p0, p1 = t.phase
    # -c mod 4 has the bit planes (c0, c1 ^ c0)
    hi ^= lo
    hi ^= p0[word] & lo
    p1[word] ^= hi
    p0[word] ^= lo
    return t


def apply_xx_rotation(t: StabilizerState, i: int, j: int) -> StabilizerState:
    """exp(-i pi/4 X_i X_j): fixes X_i and X_j, maps Z_i to -Y_i X_j."""
    return apply_xx_rotations(t, [i], [j])


def apply_swaps(t: StabilizerState, a, b) -> StabilizerState:
    """SWAP on every pair of a batch of disjoint pairs: row exchanges."""
    a, b = _pairs(t, a, b)
    n = t.num_qubits
    ab, ba = np.concatenate([a, b]), np.concatenate([b, a])
    rows, source = np.concatenate([ab, n + ab]), np.concatenate([ba, n + ba])
    t.start[rows], t.stop[rows] = t.start[source], t.stop[source]
    return t


def apply_swap(t: StabilizerState, i: int, j: int) -> StabilizerState:
    return apply_swaps(t, [i], [j])


def apply_h(t: StabilizerState, q: int) -> StabilizerState:
    """Hadamard on qubit q: exchanges its X and Z rows' slices and flips
    the high phase bit of the generators with Y on q."""
    q = _qubit(t, q)
    z = t.num_qubits + q
    xs, zs = slice(t.start[q], t.stop[q]), slice(t.start[z], t.stop[z])
    both, i, j = np.intersect1d(t.word[xs], t.word[zs], assume_unique=True,
                                return_indices=True)
    t.phase[1, both] ^= t.val[xs][i] & t.val[zs][j]
    t.start[[q, z]], t.stop[[q, z]] = t.start[[z, q]], t.stop[[z, q]]
    return t


def apply_s(t: StabilizerState, q: int) -> StabilizerState:
    """Phase gate on qubit q: adds 1 to the phase of the generators with
    an X bit on q and XORs q's X row into its Z row, a merge of the two
    rows' slices."""
    q = _qubit(t, q)
    xs = slice(t.start[q], t.stop[q])
    word, xb = t.word[xs], t.val[xs]
    p0, p1 = t.phase
    p1[word] ^= p0[word] & xb
    p0[word] ^= xb
    _xor_into(t, np.array([t.num_qubits + q]),
              np.zeros(word.size, dtype=np.int64), word, xb)
    return t


def apply_cnot(t: StabilizerState, control: int, target: int) -> StabilizerState:
    """CNOT: x[target] ^= x[control] and z[control] ^= z[target], merges
    of those four rows' slices; the phases do not change."""
    control, target = _pairs(t, control, target)
    n = t.num_qubits
    _xor_into(t, np.concatenate([target, n + control]),
              *_read(t, np.concatenate([control, n + target])))
    return t


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], np.uint8)
# row v, flattened: the positions of the set bits of v, ascending, then
# zeros
_BIT_POSITIONS = np.array(
    [([i for i in range(8) if v >> i & 1] + [0] * 8)[:8] for v in range(256)],
    np.uint8).reshape(-1)


def _restricted_hits(t: StabilizerState,
                     qubits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(generator, column) of every set bit of the generators restricted
    to the X bits (columns 0..k-1) and Z bits (columns k..2k-1) of the
    given qubits, as two int64 arrays, read from the slices of their
    rows.  The words are read as octets; the set bits of the nonzero
    ones come from two 256-row tables, the popcount and the bit
    positions, so the work grows with the set bits, not with 64 a word.
    Once they are counted, the store, 24 bytes per word read and 32 per
    set bit are charged to the budget, before any array of set bits."""
    cols, word, val = _read(t, np.concatenate([qubits,
                                               t.num_qubits + qubits]))
    octets = val.astype("<u8", copy=False).view(np.uint8)
    key = np.flatnonzero(octets)
    octet = octets[key]
    del octets, val
    count = _POPCOUNT[octet]
    bits = int(count.sum(dtype=np.int64))
    _charge(t.num_qubits, _held(t) + 24 * word.size + 32 * bits)
    # set bit i, of rank r among the bits of nonzero octet j, is entry
    # 8 * octet[j] + r of the position table, r being i less the set bits
    # of the octets before j; its key is 2048 times the place of octet j
    # among the octets read, plus that entry
    key <<= 11
    key += octet.astype(np.int64) << 3
    key += count
    key -= np.cumsum(count, dtype=np.int64)
    key = np.repeat(key, count)
    key += np.arange(bits)
    # the bit's place in the words read, 64 a word
    place = key >> 11
    place <<= 3
    key &= 2047
    place += _BIT_POSITIONS[key]
    del key, octet, count
    slot = place >> 6
    place &= 63
    gens = word[slot]
    gens <<= 6
    gens |= place
    return gens, cols[slot]


# bytes a core row holds past its num_cols / 2 (its packed bits, its
# Python int and, as a pivot, another): the ints' headers and a pivot's
# dict entry
_CORE_ROW = 160


def _hit_rank(hits: list, num_rows: int, num_cols: int,
              held: int = 0) -> int:
    """GF(2) rank of the num_rows x num_cols matrix whose ones sit at the
    distinct (row, column) pairs of hits, a list [gens, cols] that it
    empties, so that the arrays are freed as they are filtered unless
    the caller holds them too.

    Rounds of array operations remove two kinds of pivot: a row that
    sets a column no other row sets (the row and its bits go), and a
    column that some row sets as its only bit (that column of every row
    goes, and with it the row); each adds one to the rank.  A round
    holds the pair, a bool a bit and one filtered array, at most 25
    bytes a bit.  _gf2_rank takes the core that is left: its rows,
    packed into num_cols bits each, become Python ints one at a time as
    it reads them.  The core is charged before it is built, on top of
    held, what the caller holds, and the pair."""
    gens, cols = hits
    hits.clear()
    rank = 0
    while gens.size:
        before = gens.size
        # rows with a column of their own
        lone = (np.bincount(cols, minlength=num_cols) == 1)[cols]
        pivot = np.zeros(num_rows, dtype=bool)
        pivot[gens[lone]] = True
        del lone
        rank += int(np.count_nonzero(pivot))
        keep = ~pivot[gens]
        gens = gens[keep]
        cols = cols[keep]
        # columns that are some row's only bit
        lone = (np.bincount(gens, minlength=num_rows) == 1)[gens]
        pivot = np.zeros(num_cols, dtype=bool)
        pivot[cols[lone]] = True
        del lone
        rank += int(np.count_nonzero(pivot))
        keep = ~pivot[cols]
        gens = gens[keep]
        cols = cols[keep]
        if gens.size == before:
            break
    if not gens.size:
        return rank
    # core row r is the generator with r others below it left
    row = np.cumsum(np.bincount(gens, minlength=num_rows) != 0)
    rows, width = int(row[-1]), (num_cols + 7) // 8
    _charge(num_rows, held + gens.nbytes + cols.nbytes
            + rows * (num_cols // 2 + _CORE_ROW))
    byte = row[gens]
    del row, gens
    byte -= 1
    byte *= width
    byte += cols >> 3
    cols &= 7
    core = np.zeros((rows, width), np.uint8)
    np.bitwise_or.at(core.reshape(-1), byte,
                     np.left_shift(np.uint8(1), cols.astype(np.uint8)))
    del byte, cols
    return rank + _gf2_rank(int.from_bytes(r, "little") for r in core)


def entanglement_entropy(t: StabilizerState, region) -> int:
    """Entropy in bits of the reduced state on the given qubits, an
    integer array (such as a qca region) or any iterable of ints; exact."""
    n = t.num_qubits
    if not isinstance(region, np.ndarray):
        region = list(region)
    inside = np.zeros(n, dtype=bool)
    inside[_qubits(t, region)] = True
    k = int(np.count_nonzero(inside))
    qubits = np.flatnonzero(inside if 2 * k <= n else ~inside)
    # only _hit_rank holds the hits, so its rounds free them
    return _hit_rank(list(_restricted_hits(t, qubits)), n,
                     2 * len(qubits), _held(t)) - len(qubits)


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


@dataclass(eq=False)
class TtnRun:
    entropy: int
    region: np.ndarray
    schedule: np.ndarray
    # None once the run of two layers more has taken it
    state: StabilizerState | None


def _tile(t: StabilizerState, copies: int, room: int) -> StabilizerState:
    """The product of copies side-by-side copies of t, whose qubits must
    fill whole words: qubit q and generator g of copy k become qubit
    k * n + q and generator k * n + g, so the rows of copy k hold the
    live words of t's rows shifted by k * n / 64 words, and the phase
    planes repeat.  The pool holds the X rows of copies 0, 1, ... in
    turn, then their Z rows, and room free slots past them.  The new
    store, beside t, is charged with 32 bytes per word and 24 per row of
    t for the read, before anything is read or allocated."""
    n, width = t.num_qubits, t.phase.shape[1]
    words = int(t.stop.sum() - t.start.sum())
    size = copies * words + room
    _charge(copies * n, _held(t) + 16 * (size + copies * width)
            + 32 * copies * n + 32 * words + 48 * n)
    count = t.stop - t.start
    # a row's slot in the tile is its place among the words read, plus
    # the words of the copies before it
    place = np.cumsum(count)
    place -= count
    _, word, val = _read(t, np.arange(2 * n))
    x = int(count[:n].sum())
    shift = width * np.arange(copies)[:, None]
    tiled_word = np.empty(size, dtype=np.int64)
    tiled_val = np.empty(size, dtype=np.uint64)
    for first, part in ((0, slice(0, x)), (copies * x, slice(x, words))):
        block = slice(first, first + copies * (part.stop - part.start))
        np.add(word[part], shift, out=tiled_word[block].reshape(copies, -1))
        tiled_val[block].reshape(copies, -1)[:] = val[part]
    del word, val
    k = np.arange(copies)
    before = np.stack([k * x, (copies - 1) * x + k * (words - x)])
    start = (place.reshape(2, 1, n) + before[:, :, None]).reshape(-1)
    del place
    stop = (start.reshape(2, copies, n) + count.reshape(2, 1, n)).reshape(-1)
    return StabilizerState(copies * n, start, stop, tiled_word, tiled_val,
                           copies * words, np.tile(t.phase, copies))


def run_ttn_example(layers: int, shallower: TtnRun | None = None) -> TtnRun:
    """Build the binary-tree Clifford state and measure the trailing cut.

    Every gate is exp(-i pi/4 XX); the gates commute, so the whole
    schedule is one batch.  The distinguished region is the last p sites
    with p_1 = 1 and p_{T+2} = 4 p_T - 1; its entropy comes out as
    (layers + 1) / 2, growing with depth at fixed region fraction.

    shallower, the run of layers - 2 (ValueError unless its state has
    2**(layers - 2) qubits), gives up its state.  From layers = 9 on,
    where that state's generators fill whole words, the tree's layers
    1..T-2 are four shifted copies of its gates, so the tableau starts
    as four side-by-side copies of that state and only the top two
    layers' three gates are applied; the result is the same tableau.
    """
    p = tns.ttn_cut_size(layers)
    n = 2 ** layers
    state = None
    if shallower is not None:
        if shallower.state is None or shallower.state.num_qubits != n // 4:
            raise ValueError(f"the shallower run must hold a tableau of "
                             f"{n // 4} qubits")
        # once tiled, the shallower state is freed
        state, shallower.state = shallower.state, None
    schedule = None
    # below T=9 the shallower generators do not fill whole words
    if state is None or n // 4 % 64:
        state = init_zero(n)
        schedule = tns.ttn_gate_schedule(layers)
        _, a, b = schedule.T
    else:
        _, a, b = tns.ttn_gate_schedule(layers, 3).T
        # the rotations write each end's X row with the Z words of its
        # pairs flipped in: at most twice the words of the ends' rows
        ends = np.concatenate([a, b]) % (n // 4)
        rows = np.concatenate([ends, n // 4 + ends])
        state = _tile(state, 4, 2 * int(state.stop[rows].sum()
                                        - state.start[rows].sum()))
    apply_xx_rotations(state, a, b)
    region = np.arange(n - p, n)
    entropy = entanglement_entropy(state, region)
    if schedule is None:
        schedule = tns.ttn_gate_schedule(layers)
    return TtnRun(entropy, region, schedule, state)


def permute_qubits(t: StabilizerState, source) -> StabilizerState:
    """Move every qubit's rows at once: qubit q takes the X and Z bits
    that qubit source[q] held.  source must be a permutation of the
    qubits (ValueError otherwise); phases do not change.  Only the rows'
    start and stop slots move; no word does."""
    source = _qubits(t, source)
    seen = np.zeros(t.num_qubits, dtype=bool)
    seen[source] = True
    if source.size != t.num_qubits or not seen.all():
        raise ValueError("source must be a permutation of the qubits")
    rows = np.concatenate([source, t.num_qubits + source])
    t.start, t.stop = t.start[rows], t.stop[rows]
    return t


def run_qca(dimension: int, length: int, layers: int) -> StabilizerState:
    """State of the swap automaton after the given number of layers.

    Starts from rotation-created pairs on the odd-aligned plaquettes; each
    layer applies the odd-aligned sublayer of diagonal swaps first and the
    even-aligned sublayer second.  Qubits are indexed row-major.  The two
    sublayers compose to one permutation of qubits,
    qca.layer_permutation, and each layer is one permute_qubits through
    it, as `entropy --cross-check` steps its state layer by layer.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    state = init_zero(length ** dimension)
    # the initial pairs are the odd sublayer's swaps
    apply_xx_rotations(state, *sublayer_indices(dimension, length, 1))
    step = layer_permutation(dimension, length) if layers else None
    for _ in range(layers):
        permute_qubits(state, step)
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
