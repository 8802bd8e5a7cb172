"""Stabilizer tableau simulator against an independent dense oracle.

The dense reference below applies gate matrices to full statevectors and
measures entropy through singular values, sharing no code with the
tableau implementation.  tableau_oracle keeps the dense generator-packed
kernel the word-sparse store replaced, the bit-for-bit reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tableau_oracle as oracle
from tnkit import stabilizer as stab

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
S2 = np.diag([1.0, 1.0j])
CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)
SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
XX4 = (np.eye(4) - 1j * np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])) \
    / np.sqrt(2)


def apply_1q(psi, n, q, m):
    t = psi.reshape((2,) * n)
    t = np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def apply_2q(psi, n, i, j, m):
    t = np.moveaxis(psi.reshape((2,) * n), (i, j), (0, 1))
    t = (m @ t.reshape(4, -1)).reshape((2, 2) + (2,) * (n - 2))
    return np.moveaxis(t, (0, 1), (i, j)).reshape(-1)


def dense_entropy(psi, n, region):
    axes = sorted(region)
    rest = [ax for ax in range(n) if ax not in axes]
    mat = np.transpose(psi.reshape((2,) * n), axes + rest)
    sv = np.linalg.svd(mat.reshape(2 ** len(axes), -1), compute_uv=False)
    probs = sv[sv > 1e-12] ** 2
    return float(-np.sum(probs * np.log2(probs)))


GATES = [
    ("h", 1, H2, stab.apply_h),
    ("s", 1, S2, stab.apply_s),
    ("cnot", 2, CNOT4, stab.apply_cnot),
    ("swap", 2, SWAP4, stab.apply_swap),
    ("xx", 2, XX4, stab.apply_xx_rotation),
]


def random_circuit(rng, n, depth):
    ops = []
    for _ in range(depth):
        name, arity, mat, fn = GATES[rng.integers(0, len(GATES))]
        qs = rng.choice(n, size=arity, replace=False)
        ops.append((tuple(int(q) for q in qs), mat, fn))
    return ops


def run_both(rng, n, depth):
    t = stab.init_zero(n)
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    for qs, mat, fn in random_circuit(rng, n, depth):
        fn(t, *qs)
        psi = apply_1q(psi, n, qs[0], mat) if len(qs) == 1 \
            else apply_2q(psi, n, *qs, mat)
    return t, psi


def test_init_zero_entropy_and_validation():
    t = stab.init_zero(3)
    assert stab.entanglement_entropy(t, [0]) == 0
    assert stab.entanglement_entropy(t, []) == 0
    assert stab.entanglement_entropy(t, [0, 1, 2]) == 0
    with pytest.raises(ValueError):
        stab.init_zero(0)
    with pytest.raises(ValueError):
        stab.entanglement_entropy(t, [3])
    with pytest.raises(ValueError):
        stab.apply_cnot(t, 1, 1)


def test_pair_creation_state():
    t = stab.apply_xx_rotation(stab.init_zero(2), 0, 1)
    psi = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2)
    proj = stab.to_projector(t)
    np.testing.assert_allclose(proj, np.outer(psi, psi.conj()), atol=1e-12)
    assert stab.entanglement_entropy(t, [0]) == 1


def test_ghz_entropies():
    t = stab.init_zero(3)
    stab.apply_h(t, 0)
    stab.apply_cnot(t, 0, 1)
    stab.apply_cnot(t, 0, 2)
    for region in ([0], [1], [2], [0, 1], [1, 2]):
        assert stab.entanglement_entropy(t, region) == 1


def test_gate_identities():
    rng = np.random.default_rng(5)
    t, psi = run_both(rng, 3, 12)
    u = t.copy()
    stab.apply_h(u, 1)
    stab.apply_h(u, 1)
    np.testing.assert_allclose(stab.to_projector(u), stab.to_projector(t),
                               atol=1e-12)
    v = t.copy()
    for _ in range(4):
        stab.apply_s(v, 2)
    np.testing.assert_allclose(stab.to_projector(v), stab.to_projector(t),
                               atol=1e-12)


def test_swap_equals_three_cnots():
    rng = np.random.default_rng(11)
    t, _ = run_both(rng, 4, 10)
    a = t.copy()
    stab.apply_swap(a, 1, 3)
    b = t.copy()
    stab.apply_cnot(b, 1, 3)
    stab.apply_cnot(b, 3, 1)
    stab.apply_cnot(b, 1, 3)
    np.testing.assert_allclose(stab.to_projector(a), stab.to_projector(b),
                               atol=1e-12)


def test_projector_matches_dense_state():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        t, psi = run_both(rng, n, int(rng.integers(4, 4 * n)))
        proj = stab.to_projector(t)
        np.testing.assert_allclose(np.trace(proj), 1.0, atol=1e-9)
        np.testing.assert_allclose(proj, np.outer(psi, psi.conj()),
                                   atol=1e-9)


def test_projector_size_guard():
    with pytest.raises(ValueError):
        stab.to_projector(stab.init_zero(11))


def test_entropy_matches_dense_on_random_circuits():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        t, psi = run_both(rng, n, int(rng.integers(3, 3 * n)))
        k = int(rng.integers(1, n))
        region = [int(q) for q in rng.choice(n, size=k, replace=False)]
        s_tab = stab.entanglement_entropy(t, region)
        s_ref = dense_entropy(psi, n, region)
        assert abs(s_tab - s_ref) < 1e-9


def test_word_boundary_pair():
    # a pair straddling the 64-qubit word boundary of the packed storage
    t = stab.init_zero(66)
    stab.apply_xx_rotation(t, 63, 64)
    assert stab.entanglement_entropy(t, range(64)) == 1
    stab.apply_swap(t, 64, 65)
    assert stab.entanglement_entropy(t, range(64)) == 1
    assert stab.entanglement_entropy(t, range(65)) == 1


def test_tree_run_small_values():
    for layers, expected, cut in ((1, 1, 1), (3, 2, 3), (5, 3, 11)):
        run = stab.run_ttn_example(layers)
        assert run.entropy == expected
        assert run.region == tuple(range(2 ** layers - cut, 2 ** layers))
        assert len(run.schedule) == 2 ** layers - 1
    with pytest.raises(ValueError):
        stab.run_ttn_example(2)


def test_tree_schedule_agrees_with_builder_formula():
    from tnkit.tns import ttn_gate_schedule
    for layers in (1, 3, 5):
        schedule = stab.run_ttn_example(layers).schedule
        np.testing.assert_array_equal(schedule, ttn_gate_schedule(layers))
        assert len(schedule) == 2 ** layers - 1


def test_qca_run_rejects_negative_layers():
    with pytest.raises(ValueError, match="layers must be >= 0"):
        stab.run_qca(1, 8, -1)


def test_qca_run_matches_pair_tracker_small():
    from tnkit import qca
    for dim, length in ((1, 8), (2, 4)):
        ps = qca.initial_pairs(dim, length)
        state = stab.run_qca(dim, length, 0)
        region = qca.half_cut_region(dim, length)
        assert stab.entanglement_entropy(state, region) \
            == qca.entropy_across(ps, region)
        for layers in (1, 2):
            ps = qca.evolve(ps, 1)
            state = stab.run_qca(dim, length, layers)
            assert stab.entanglement_entropy(state, region) \
                == qca.entropy_across(ps, region)


def test_region_qubits_row_major():
    assert stab.region_qubits([(0, 0), (1, 2), (3, 1)], 4) == [0, 6, 13]


@pytest.mark.parametrize("region,bad", [
    ([(1, 1), (0.5, 1)], (0.5, 1)),
    ([(True, 1)], (True, 1)),
    ([(0, 1, 2), (3,)], (3,))], ids=["fraction", "bool", "ragged"])
def test_region_qubits_refuse_sites_they_would_misread(region, bad):
    # an int64 cast read (0.5, 1) as (0, 1) and True as 1, and a reshape
    # read [(0, 1, 2), (3,)] as (0, 1), (2, 3)
    with pytest.raises(ValueError) as err:
        stab.region_qubits(region, 4)
    assert str(err.value) == f"site {bad} outside the lattice"


# ------------------------------------------------ batched gates and layout

def random_pairs(rng, n, m):
    qs = rng.permutation(n)[:2 * m]
    return qs[:m], qs[m:]


def assert_canonical(t):
    """The store's form: every row a slice of the used pool, no two rows
    sharing a slot, every stored word nonzero and on a word of the
    tableau, and the words of each row ascending."""
    n, width = t.num_qubits, t.phase.shape[1]
    assert t.start.dtype == t.stop.dtype == t.word.dtype == np.int64
    assert t.val.dtype == np.uint64
    assert t.start.shape == t.stop.shape == (2 * n,)
    assert t.word.shape == t.val.shape
    assert np.all((0 <= t.start) & (t.start <= t.stop) & (t.stop <= t.used))
    assert t.used <= t.word.size
    slots = np.concatenate([np.arange(a, b) for a, b in
                            zip(t.start.tolist(), t.stop.tolist())])
    assert np.unique(slots).size == slots.size
    row, word, val = oracle.live_words(t)
    assert np.all(val != 0)
    assert np.all((word >= 0) & (word < width))
    same = row[1:] == row[:-1]
    assert np.all(word[1:][same] > word[:-1][same])


def assert_matches_oracle(t, ref):
    assert_canonical(t)
    dense = oracle.densify(t)
    np.testing.assert_array_equal(dense.x, ref.x)
    np.testing.assert_array_equal(dense.z, ref.z)
    np.testing.assert_array_equal(dense.phase, ref.phase)


def assert_same_tableau(a, b):
    assert_canonical(b)
    assert_matches_oracle(a, oracle.densify(b))


def test_count_mod4_matches_bit_counts():
    # the phase count of a rotation batch, on values cut into segments
    rng = np.random.default_rng(3)
    for m in range(1, 201):
        vals = rng.integers(0, 2 ** 63, size=m, dtype=np.uint64)
        cuts = np.sort(rng.choice(np.arange(1, m), replace=False,
                                  size=min(m - 1, int(rng.integers(0, 8)))))
        start = np.concatenate([[0], cuts]).astype(np.int64)
        lo, hi = stab._segment_count_mod4(vals.copy(), start)
        for i, group in enumerate(np.split(vals, cuts)):
            bits = np.unpackbits(group.view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")
            count = bits.sum(axis=0) % 4
            got = np.unpackbits(lo[i:i + 1].view(np.uint8),
                                bitorder="little") \
                + 2 * np.unpackbits(hi[i:i + 1].view(np.uint8),
                                    bitorder="little")
            np.testing.assert_array_equal(got, count)
            ref_lo, ref_hi = oracle.count_mod4(group[:, None])
            assert (lo[i], hi[i]) == (ref_lo[0], ref_hi[0])


@pytest.mark.parametrize("batch,single,mat", [
    (stab.apply_xx_rotations, stab.apply_xx_rotation, XX4),
    (stab.apply_swaps, stab.apply_swap, SWAP4)])
def test_batches_match_single_gates_small(batch, single, mat):
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        t, psi = run_both(rng, n, int(rng.integers(2, 3 * n)))
        a, b = random_pairs(rng, n, int(rng.integers(1, n // 2 + 1)))
        one = t.copy()
        for i, j in zip(a, b):
            single(one, int(i), int(j))
            psi = apply_2q(psi, n, int(i), int(j), mat)
        many = batch(t.copy(), a, b)
        assert_same_tableau(many, one)
        np.testing.assert_allclose(stab.to_projector(many),
                                   np.outer(psi, psi.conj()), atol=1e-9)


def test_batches_match_single_gates_across_generator_words():
    # 130 qubits take three generator words; the batch includes the
    # pairs whose Z generators sit at bits 63/64 and 127/128
    rng = np.random.default_rng(29)
    n = 130
    t = stab.init_zero(n)
    for _ in range(300):
        name, arity, _, fn = GATES[rng.integers(0, len(GATES))]
        fn(t, *(int(q) for q in rng.choice(n, size=arity, replace=False)))
    rest = rng.permutation([q for q in range(n)
                            if q not in (63, 64, 127, 128)])
    a = np.concatenate([[63, 127], rest[:40]])
    b = np.concatenate([[64, 128], rest[40:80]])
    for batch, single in ((stab.apply_xx_rotations, stab.apply_xx_rotation),
                          (stab.apply_swaps, stab.apply_swap)):
        one = t.copy()
        for i, j in zip(a, b):
            single(one, int(i), int(j))
        many = batch(t.copy(), a, b)
        assert_same_tableau(many, one)
        for region in (range(64), range(64, 128), range(60, 130, 3),
                       [0, 63, 64, 127, 128, 129]):
            assert stab.entanglement_entropy(many, region) \
                == stab.entanglement_entropy(one, region)


def test_batched_rotation_spanning_blocks_matches_single_gates():
    # enough generator words per row that a batch of disjoint pairs fills
    # at least three blocks of the dense reference kernel, which sums the
    # phase changes block by block; the sparse batch sums them at once
    words = int(np.ceil(np.sqrt(3 * oracle.BLOCK_WORDS / 32))) + 1
    n = 64 * words
    block = max(1, oracle.BLOCK_WORDS // words)
    m = 3 * block + 1
    assert 2 * m <= n
    rng = np.random.default_rng(37)
    t = stab.init_zero(n)
    for q in rng.choice(n, size=n // 2, replace=False):
        stab.apply_h(t, int(q))
    for _ in range(n):
        name, arity, _, fn = GATES[rng.integers(0, len(GATES))]
        fn(t, *(int(q) for q in rng.choice(n, size=arity, replace=False)))
    a, b = random_pairs(rng, n, m)
    one = t.copy()
    for i, j in zip(a, b):
        stab.apply_xx_rotation(one, int(i), int(j))
    many = stab.apply_xx_rotations(t.copy(), a, b)
    assert_same_tableau(many, one)
    assert_matches_oracle(many, oracle.xx_rotations(oracle.densify(t), a, b))


def test_batch_validation():
    t = stab.init_zero(6)
    with pytest.raises(ValueError):
        stab.apply_xx_rotations(t, [0, 1], [2, 1])
    with pytest.raises(ValueError):
        stab.apply_swaps(t, [0, 1], [2])
    with pytest.raises(ValueError):
        stab.apply_swaps(t, [0], [6])
    assert_same_tableau(stab.apply_xx_rotations(t.copy(), [], []), t)


def test_entropy_of_region_equals_complement():
    rng = np.random.default_rng(31)
    for n in (7, 130):
        t = stab.init_zero(n)
        for _ in range(6 * n):
            name, arity, _, fn = GATES[rng.integers(0, len(GATES))]
            fn(t, *(int(q) for q in rng.choice(n, size=arity,
                                               replace=False)))
        for _ in range(10):
            k = int(rng.integers(1, n))
            region = set(int(q) for q in rng.choice(n, size=k,
                                                    replace=False))
            rest = set(range(n)) - region
            assert stab.entanglement_entropy(t, region) \
                == stab.entanglement_entropy(t, rest)


def test_qca_permutation_matches_swap_sublayers():
    from tnkit import qca
    for dim, length, layers in ((1, 12, 3), (2, 6, 2)):
        t = stab.init_zero(length ** dim)
        for a, b in qca.initial_pairs(dim, length).pairs:
            stab.apply_xx_rotation(t, qca.site_index(a, length),
                                   qca.site_index(b, length))
        for _ in range(layers):
            for offset in (1, 0):
                swaps = qca.sublayer_swaps(dim, length, offset)
                stab.apply_swaps(t, [qca.site_index(a, length)
                                     for a, _ in swaps],
                                 [qca.site_index(b, length)
                                  for _, b in swaps])
        assert_same_tableau(stab.run_qca(dim, length, layers), t)


@pytest.mark.parametrize("dim,length", [(1, 256), (2, 24), (2, 48)])
def test_qca_layer_by_layer_matches_run_qca(dim, length):
    from tnkit import qca
    state = stab.run_qca(dim, length, 0)
    step = qca.layer_permutation(dim, length)
    for layers in range(9):
        assert_same_tableau(state, stab.run_qca(dim, length, layers))
        assert stab.permute_qubits(state, step) is state


@pytest.mark.parametrize("source,error,message", [
    ([0, 1, 2], ValueError, "source must be a permutation of the qubits"),
    ([0, 1, 2, 2], ValueError, "source must be a permutation of the qubits"),
    ([0, 1, 2, 3, 0], ValueError,
     "source must be a permutation of the qubits"),
    ([0, 1, 2, 4], ValueError, "qubit 4 outside [0, 4)"),
    ([0.0, 1.0, 2.0, 3.0], TypeError, "qubits must be integers, not float64")],
    ids=["short", "repeat", "long", "off-the-tableau", "float"])
def test_permute_qubits_takes_only_permutations(source, error, message):
    t = stab.apply_xx_rotations(stab.init_zero(4), [0], [3])
    before = t.copy()
    with pytest.raises(error) as err:
        stab.permute_qubits(t, source)
    assert str(err.value) == message
    assert_same_tableau(t, before)


def test_permute_qubits_moves_rows_not_phases():
    t = stab.apply_xx_rotations(stab.init_zero(4), [0, 1], [3, 2])
    moved = stab.permute_qubits(t.copy(), [2, 0, 3, 1])
    before = oracle.densify(t)
    assert_matches_oracle(moved, oracle.permute(before, [2, 0, 3, 1]))
    np.testing.assert_array_equal(moved.phase, t.phase)


def _run_qca(dimension, length, layers):
    """The site-tuple automaton driver that run_qca replaced: one
    site_index call per swap endpoint."""
    from tnkit import qca
    n = length ** dimension
    state = stab.init_zero(n)
    step = np.arange(n)
    for offset in (1, 0):
        swaps = qca.sublayer_swaps(dimension, length, offset)
        a = [qca.site_index(s, length) for s, _ in swaps]
        b = [qca.site_index(s, length) for _, s in swaps]
        if offset:
            stab.apply_xx_rotations(state, a, b)
        step[a + b] = step[b + a]
    source = np.arange(n)
    for _ in range(layers):
        source = source[step]
    # qubit q takes the X and Z rows (pool slices) of qubit source[q]
    rows = np.concatenate([source, n + source])
    state.start, state.stop = state.start[rows], state.stop[rows]
    return state


def test_qca_run_matches_site_tuple_driver():
    for dim in (1, 2):
        for length in range(4, 13, 2):
            for layers in range(6):
                assert_same_tableau(stab.run_qca(dim, length, layers),
                                    _run_qca(dim, length, layers))


def test_region_qubits_match_site_index():
    from tnkit import qca
    rng = np.random.default_rng(8)
    for dim, length in ((1, 16), (2, 8), (3, 4)):
        region = qca.random_connected_region(dim, length, rng)
        sites = list(zip(*(c.tolist() for c in
                           np.unravel_index(region, (length,) * dim))))
        assert stab.region_qubits(sites, length) \
            == [qca.site_index(s, length) for s in sites] == region.tolist()
    assert stab.region_qubits([], 4) == []


@pytest.mark.parametrize("a,b", [([0, 1], [1, 2]), ([3], [3]),
                                 ([0, 2, 4], [5, 6, 0])])
def test_pair_batches_need_distinct_qubits(a, b):
    # swaps move rows, so their pairs must be disjoint; rotations commute,
    # so only a pair (q, q) is refused and pairs may share a qubit
    t, _ = run_both(np.random.default_rng(43), 8, 24)
    with pytest.raises(ValueError, match="qubits must be distinct"):
        stab.apply_swaps(t, a, b)
    if any(i == j for i, j in zip(a, b)):
        with pytest.raises(ValueError, match="qubits must be distinct"):
            stab.apply_xx_rotations(t, a, b)
    else:
        one = t.copy()
        for i, j in zip(a, b):
            stab.apply_xx_rotation(one, i, j)
        assert_same_tableau(stab.apply_xx_rotations(t.copy(), a, b), one)
    with pytest.raises(ValueError, match="qubits must be distinct"):
        stab.apply_cnot(t, 5, 5)


@pytest.mark.parametrize("qubits", [[0.5], [True], np.array([1.0])])
def test_qubits_must_be_integers(qubits):
    # an int64 cast would read [0.5] as qubit 0 and [True] as qubit 1
    t = stab.init_zero(4)
    with pytest.raises(TypeError, match="qubits must be integers"):
        stab.entanglement_entropy(t, qubits)
    for gate in (stab.apply_swaps, stab.apply_xx_rotations):
        with pytest.raises(TypeError, match="qubits must be integers"):
            gate(t, qubits, [2])
        with pytest.raises(TypeError, match="qubits must be integers"):
            gate(t, [2], qubits)
    # an empty list holds no qubit of any type
    assert stab.entanglement_entropy(t, []) == 0
    stab.apply_xx_rotations(t, [], [])
    assert stab.entanglement_entropy(t, [0]) == 0


def test_entropy_region_repeats_and_order_do_not_matter():
    t = stab.run_qca(1, 12, 2)
    region = [7, 3, 3, 0, 7, 11]
    want = stab.entanglement_entropy(t, sorted(set(region)))
    assert stab.entanglement_entropy(t, region) == want
    assert stab.entanglement_entropy(t, iter(region)) == want
    assert stab.entanglement_entropy(t, range(12)) == 0
    assert stab.entanglement_entropy(t, [5] * 3) \
        == stab.entanglement_entropy(t, [q for q in range(12) if q != 5])


def test_tableau_resource_guard(monkeypatch):
    # 8 qubits hold 16 * (3 * 8 + 1) = 400 bytes, exactly 16 * 25; 32
    # qubits hold 1552
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "25")
    from tnkit.dense import ResourceLimitError
    stab.init_zero(8)
    with pytest.raises(ResourceLimitError, match="^stabilizer tableau of "
                       "32 qubits needs 1552 bytes, over the budget of "
                       "400$"):
        stab.init_zero(32)
    with pytest.raises(ResourceLimitError):
        stab.run_ttn_example(5)


def test_refused_charges_read_no_word(monkeypatch):
    # a batch of rotations and a pack count their words from the rows'
    # slots and charge them before _read gathers one
    from tnkit.dense import ResourceLimitError
    reads = []
    read = stab._read
    monkeypatch.setattr(stab, "_read",
                        lambda t, rows: reads.append(rows) or read(t, rows))
    t = stab.init_zero(8)
    # the 400 bytes of the store fit; its rotation of two Z rows, 256
    # bytes more, and its pack, 256 bytes more, do not
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "25")
    with pytest.raises(ResourceLimitError, match="^stabilizer tableau of 8 "
                       "qubits needs 656 bytes, over the budget of 400$"):
        stab.apply_xx_rotations(t, [0], [1])
    with pytest.raises(ResourceLimitError, match="^stabilizer tableau of 8 "
                       "qubits needs 656 bytes, over the budget of 400$"):
        stab._pack(t, 0)
    assert reads == []
    # under the default budget the same rotation reads its two Z rows
    monkeypatch.delenv("TNKIT_MAX_AMPLITUDES")
    stab.apply_xx_rotations(t, [0], [1])
    assert [r.tolist() for r in reads[:1]] == [[8, 9]]


def _dense_clifford(n, layers, seed):
    """n qubits after layers of H on a random half of them and a batch
    of CNOTs on random disjoint pairs: most words of the tableau set."""
    rng = np.random.default_rng(seed)
    t = stab.init_zero(n)
    for _ in range(layers):
        for q in rng.choice(n, size=n // 2, replace=False).tolist():
            stab.apply_h(t, q)
        stab.apply_cnot(t, *random_pairs(rng, n, n // 2))
    return t


def test_dense_clifford_state_exits_the_budget(monkeypatch):
    from tnkit.dense import ResourceLimitError
    t = _dense_clifford(256, 8, 3)
    # more than half of the 2 * 256 * 4 words of the dense tableau
    assert np.sum(t.stop - t.start) > 1024
    # the store fits, its entropy's unpacked bits do not
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(stab._held(t) // 16 + 1))
    with pytest.raises(ResourceLimitError, match="^stabilizer tableau of "
                       "256 qubits needs [0-9]+ bytes, over the budget"):
        stab.entanglement_entropy(t, range(128))
    # the initial store, 16 * (3 * 256 + 4) bytes, fits; its first pack
    # does not
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(3 * 256 + 4))
    stab.init_zero(256)
    with pytest.raises(ResourceLimitError, match="^stabilizer tableau of "
                       "256 qubits needs [0-9]+ bytes, over the budget of "
                       "12352$"):
        _dense_clifford(256, 8, 3)


def test_tree_run_fifteen_layers():
    assert stab.run_ttn_example(15).entropy == 8


def test_tree_run_seventeen_layers_under_a_raised_budget(monkeypatch):
    # 2**17 qubits need 2 * 2**17 * 2**11 * 8 = 2**32 bytes by the dense
    # rule, exactly 16 * 2**28; the sparse store holds a few words a row
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", str(2 ** 28))
    run = stab.run_ttn_example(17)
    assert run.entropy == 9
    assert len(run.region) == 43691
    assert np.sum(run.state.stop - run.state.start) < 8 * 2 ** 17


# ------------------------------------------- against the dense reference

def assert_hits_match(t, ref, qubits):
    gens, cols = stab._restricted_hits(t, qubits)
    np.testing.assert_array_equal(
        np.unique(np.stack([gens, cols], axis=1), axis=0),
        oracle.restricted_hits(ref, qubits))


ORACLE_GATES = {stab.apply_h: oracle.h, stab.apply_s: oracle.s,
                stab.apply_cnot: oracle.cnot,
                stab.apply_swap: lambda t, i, j: oracle.swaps(t, [i], [j]),
                stab.apply_xx_rotation:
                    lambda t, i, j: oracle.xx_rotations(t, [i], [j])}


@pytest.mark.parametrize("n", [2, 7, 64, 65, 127, 130])
def test_random_circuits_match_dense_kernel_gate_by_gate(n):
    # single gates and batches, compared bit for bit after every gate,
    # with qubits on both sides of the generator-word boundaries
    rng = np.random.default_rng(1000 + n)
    t, ref = stab.init_zero(n), oracle.init_zero(n)
    edges = sorted({q for q in (0, 63, 64, 127, 128, n - 1) if q < n})
    for step in range(6 * n + 20):
        kind = int(rng.integers(0, len(GATES) + 2))
        if kind < len(GATES):
            _, arity, _, fn = GATES[kind]
            pool = edges if step % 3 == 0 and len(edges) >= arity \
                else range(n)
            qs = [int(q) for q in rng.choice(pool, size=arity,
                                             replace=False)]
            fn(t, *qs)
            ORACLE_GATES[fn](ref, *qs)
        else:
            a, b = random_pairs(rng, n, int(rng.integers(1, n // 2 + 1)))
            if kind == len(GATES):
                stab.apply_xx_rotations(t, a, b)
                oracle.xx_rotations(ref, a, b)
            else:
                stab.apply_swaps(t, a, b)
                oracle.swaps(ref, a, b)
        assert_matches_oracle(t, ref)
    for _ in range(5):
        qubits = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False))
        assert_hits_match(t, ref, qubits)


@pytest.mark.parametrize("n", [2, 7, 64, 65, 130])
def test_overlapping_rotation_batches_match_one_pair_at_a_time(n):
    # batches whose pairs share qubits, repeat a pair and hold both
    # orientations of one, on random Clifford states with qubits on both
    # sides of the generator-word boundaries; the dense reference takes
    # one pair per call, as its batch kernel needs disjoint pairs
    rng = np.random.default_rng(2000 + n)
    t, ref = stab.init_zero(n), oracle.init_zero(n)
    for _ in range(8):
        for _ in range(2 * n):
            _, arity, _, fn = GATES[rng.integers(0, len(GATES))]
            qs = [int(q) for q in rng.choice(n, size=arity, replace=False)]
            fn(t, *qs)
            ORACLE_GATES[fn](ref, *qs)
        m = int(rng.integers(1, 2 * n + 1))
        a = rng.integers(0, n, size=m)
        b = (a + rng.integers(1, n, size=m)) % n
        # a repeated pair and the reverse of a pair
        a = np.concatenate([a, a[:1], b[-1:]])
        b = np.concatenate([b, b[:1], a[m - 1:m]])
        one = t.copy()
        for i, j in zip(a.tolist(), b.tolist()):
            stab.apply_xx_rotation(one, i, j)
            oracle.xx_rotations(ref, [i], [j])
        stab.apply_xx_rotations(t, a, b)
        assert_same_tableau(t, one)
        assert_matches_oracle(t, ref)


@pytest.mark.parametrize("layers", [1, 3, 5, 7, 9, 11, 13])
def test_tree_tableau_matches_dense_kernel(layers):
    from tnkit.tns import ttn_gate_schedule
    ref = oracle.init_zero(2 ** layers)
    schedule = ttn_gate_schedule(layers)
    for top in range(layers):
        _, a, b = schedule[2 ** top - 1:2 ** (top + 1) - 1].T
        oracle.xx_rotations(ref, a, b)
    run = stab.run_ttn_example(layers)
    assert_matches_oracle(run.state, ref)
    assert_hits_match(run.state, ref, np.array(run.region))


@pytest.mark.parametrize("dim,lengths,layers_max", [
    (2, (24, 32), 4), (1, (256, 512), 8), (2, (48,), 3)])
def test_qca_layers_match_dense_kernel(dim, lengths, layers_max):
    # the job shapes of `entropy --cross-check`, one layer at a time
    from tnkit import qca
    rng = np.random.default_rng(53)
    for length in lengths:
        n = length ** dim
        ref = oracle.xx_rotations(oracle.init_zero(n),
                                  *qca.sublayer_indices(dim, length, 1))
        state = stab.run_qca(dim, length, 0)
        assert_matches_oracle(state, ref)
        step = qca.layer_permutation(dim, length)
        for layers in range(1, layers_max + 1):
            stab.permute_qubits(state, step)
            oracle.permute(ref, step)
            assert_matches_oracle(state, ref)
            assert_same_tableau(stab.run_qca(dim, length, layers), state)
            assert_hits_match(state, ref,
                              qca.random_connected_region(dim, length, rng))


@pytest.mark.parametrize("gate", [stab.apply_h, stab.apply_s])
@pytest.mark.parametrize("q", [[0, 1], [], [2], np.array([1]), 1.0, True,
                               "1", None],
                         ids=["two", "none", "list", "array", "float",
                              "bool", "str", "None"])
def test_one_qubit_gates_take_one_integer(gate, q):
    # a list used to pass the qubit check and fail inside numpy with
    # "non-broadcastable output operand"
    t = stab.apply_xx_rotations(stab.init_zero(4), [0], [3])
    before = t.copy()
    with pytest.raises(ValueError) as err:
        gate(t, q)
    assert str(err.value) == f"q must be one integer qubit, not {q!r}"
    assert_same_tableau(t, before)


def test_one_qubit_gates_take_numpy_integers():
    a, b = stab.init_zero(3), stab.init_zero(3)
    for gate in (stab.apply_h, stab.apply_s):
        gate(a, np.int64(2))
        gate(b, 2)
    assert_same_tableau(a, b)
    with pytest.raises(ValueError, match=r"qubit 3 outside \[0, 3\)"):
        stab.apply_h(a, 3)


def test_tree_fifteen_layers_matches_layer_by_layer():
    # run_ttn_example applies the whole schedule in one call; a layer's
    # block of rows is a batch of disjoint pairs.  Up to T=13 the dense
    # reference checks the tree; its T=15 tableau would take 256 MiB
    from tnkit.tns import ttn_gate_schedule
    layers = 15
    state = stab.init_zero(2 ** layers)
    schedule = ttn_gate_schedule(layers)
    for top in range(layers):
        _, a, b = schedule[2 ** top - 1:2 ** (top + 1) - 1].T
        stab.apply_xx_rotations(state, a, b)
    run = stab.run_ttn_example(layers).state
    # equal stored words mean equal dense tableaux: in the canonical form
    # a row stores its nonzero words, ascending
    assert_canonical(run)
    assert_canonical(state)
    for got, want in zip(oracle.live_words(run), oracle.live_words(state)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(run.phase, state.phase)


# --------------------------------------- octets, packs and one-gate cost

def _state_of_words(bits):
    """A StabilizerState whose bit row r stores the nonzero words of
    bits[r], a (2n, words) uint64 array; its generators need not
    commute, which the hit list does not ask."""
    rows, word = np.nonzero(bits)
    stop = np.cumsum(np.bincount(rows, minlength=bits.shape[0]))
    return stab.StabilizerState(
        bits.shape[0] // 2, np.concatenate([[0], stop[:-1]]), stop,
        word.astype(np.int64), bits[rows, word], rows.size,
        np.zeros((2, bits.shape[1]), dtype=np.uint64))


def _one_bit_per_octet(rng, shape):
    shift = rng.integers(0, 8, size=shape).astype(np.uint64)
    return np.uint64(0x0101010101010101) << shift


WORD_PATTERNS = {
    # the uint64 sign bit alone
    "bit-63": lambda rng, shape: np.where(
        rng.random(shape) < 0.5, np.uint64(1 << 63), np.uint64(0)),
    "all-64": lambda rng, shape: np.where(
        rng.random(shape) < 0.5, ~np.uint64(0), np.uint64(0)),
    "one-per-octet": _one_bit_per_octet,
    # words on one row in eight, the rest empty
    "empty-rows": lambda rng, shape: np.where(
        (np.arange(shape[0]) % 8 == 3)[:, None],
        rng.integers(1, 2 ** 64, size=shape, dtype=np.uint64),
        np.uint64(0)),
}


@pytest.mark.parametrize("pattern", WORD_PATTERNS.values(),
                         ids=WORD_PATTERNS.keys())
def test_octet_route_matches_oracle(pattern):
    rng = np.random.default_rng(61)
    n = 150
    t = _state_of_words(pattern(rng, (2 * n, 3)))
    ref = oracle.densify(t)
    # one qubit, every row empty under empty-rows, a region across the
    # word boundaries and one larger than half
    for qubits in ([5], np.arange(0, n, 8), np.arange(60, 130),
                   np.sort(rng.choice(n, size=110, replace=False))):
        assert_hits_match(t, ref, np.asarray(qubits))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       density=st.sampled_from([0.01, 0.05, 0.5, 0.95, 1.0]))
def test_octet_route_matches_oracle_on_random_words(n, seed, fill, density):
    # sparse and dense words: fill of the words stored, density of the
    # bits set in each
    rng = np.random.default_rng(seed)
    shape = (2 * n, (n + 63) // 64)
    bits = np.packbits(rng.random(shape + (64,)) < density, axis=-1,
                       bitorder="little").view("<u8")[..., 0]
    bits = np.where(rng.random(shape) < fill, bits, np.uint64(0))
    t = _state_of_words(bits.astype(np.uint64))
    qubits = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                replace=False))
    assert_hits_match(t, oracle.densify(t), qubits)


@pytest.mark.parametrize("pattern", WORD_PATTERNS.values(),
                         ids=WORD_PATTERNS.keys())
def test_entropy_charge_bounds_the_octet_route(pattern, monkeypatch):
    # the charge takes 24 bytes per word read, what _read returns, and
    # 32 per set bit; past the read the route's peak stays within the
    # second, one set bit an octet included
    import tracemalloc
    rng = np.random.default_rng(67)
    n = 1024
    t = _state_of_words(pattern(rng, (2 * n, n // 64)))
    qubits = np.arange(100, 700)
    read, after_read = stab._read, []

    def traced_read(t, rows):
        out = read(t, rows)
        assert sum(a.nbytes for a in out) == 24 * out[0].size
        after_read.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(stab, "_read", traced_read)
    tracemalloc.start()
    try:
        gens, _ = stab._restricted_hits(t, qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_read[0] <= 32 * gens.size


def test_entropy_peak_stays_within_its_charges(monkeypatch):
    # a 512-qubit state of eight layers of H and disjoint CNOTs leaves
    # most generators in the core: the peel rounds free the hit list as
    # they filter it, and the core is charged before it is built, so the
    # whole entropy's peak stays within the largest charge past the store
    # (without both it was about twice the hit list's charge)
    import tracemalloc
    rng = np.random.default_rng(0)
    n = 512
    t = stab.init_zero(n)
    for _ in range(8):
        for q in range(n):
            if rng.integers(2):
                stab.apply_h(t, q)
        stab.apply_cnot(t, *random_pairs(rng, n, n // 2))
    region = np.arange(n // 2)
    entropy = stab.entanglement_entropy(t, region)
    charges, charge = [], stab._charge
    monkeypatch.setattr(stab, "_charge", lambda num_qubits, need: (
        charges.append(need - stab._held(t)), charge(num_qubits, need)))
    tracemalloc.start()
    try:
        assert stab.entanglement_entropy(t, region) == entropy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charges), (peak, charges)
    assert len(charges) == 2 and entropy > 200


def test_pack_of_a_fresh_state_keeps_every_slot():
    # row moves leave no dead slot, but the slices out of row order
    t = stab.init_zero(200)
    stab.apply_swaps(t, [3, 150], [199, 4])
    stab.apply_h(t, 17)
    stab.permute_qubits(t, np.roll(np.arange(200), 9))
    before = t.copy()
    stab._pack(t, 7)
    assert t.word.size == t.val.size == 2 * (200 + 7)
    assert t.used == before.used == 200
    np.testing.assert_array_equal(t.start, before.start)
    np.testing.assert_array_equal(t.stop, before.stop)
    np.testing.assert_array_equal(t.word[:200], before.word)
    np.testing.assert_array_equal(t.val[:200], before.val)
    assert_same_tableau(t, before)


def test_pack_after_dead_slots_compacts_the_pool():
    rng = np.random.default_rng(71)
    t = stab.init_zero(200)
    for _ in range(3):
        stab.apply_xx_rotations(t, *random_pairs(rng, 200, 80))
        stab.apply_cnot(t, *random_pairs(rng, 200, 40))
    live = int(np.sum(t.stop - t.start))
    assert live < t.used
    before = t.copy()
    stab._pack(t, 5)
    assert t.used == live
    assert t.word.size == 2 * (live + 5)
    assert_same_tableau(t, before)


def test_one_rotation_allocates_nothing_of_the_state_size():
    # a single gate costs the same at any state size: no array of n
    # entries, not even a mark array of n bools, which takes 1 MiB here
    import tracemalloc
    n = 2 ** 20
    t = stab.init_zero(n)
    # the first write packs the full pool of a fresh state
    stab.apply_xx_rotation(t, 0, 1)
    tracemalloc.start()
    try:
        stab.apply_xx_rotation(t, 5, n - 3)
        stab.apply_xx_rotations(t, [1, 7, 1], [n - 1, 1, n - 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 16


# ------------------------------------------------------- rank and entropy

def _rank_oracle(gens, cols):
    rows = {}
    for g, c in zip(gens.tolist(), cols.tolist()):
        rows[g] = rows.get(g, 0) | (1 << c)
    return stab._gf2_rank(rows.values())


def _hit_set(matrix):
    gens, cols = np.nonzero(matrix)
    return gens.astype(np.int64), cols.astype(np.int64)


def _sparse(rng):
    r, c = (int(x) for x in rng.integers(1, 60, size=2))
    return rng.random((r, c)) < rng.uniform(0.01, 0.15)


def _dense(rng):
    # every row and column holds at least two bits, so nothing peels
    while True:
        r, c = (int(x) for x in rng.integers(2, 40, size=2))
        m = rng.random((r, c)) < 0.5
        if (m.sum(axis=0) >= 2).all() and (m.sum(axis=1) >= 2).all():
            return m


def _duplicate_single_bits(rng):
    m = _sparse(rng)
    col = int(rng.integers(0, m.shape[1]))
    unit = np.zeros((int(rng.integers(2, 5)), m.shape[1]), dtype=bool)
    unit[:, col] = True
    return rng.permutation(np.concatenate([m, unit]))


def _shared_singletons(rng):
    # each row owns a column no other row sets, and all rows share one
    # more column besides random bits in the remaining ones
    r = int(rng.integers(2, 20))
    extra = rng.random((r, int(rng.integers(0, 10)))) < 0.4
    m = np.concatenate([np.eye(r, dtype=bool), np.ones((r, 1), bool),
                        extra], axis=1)
    return m[:, rng.permutation(m.shape[1])]


@pytest.mark.parametrize("kind", [_sparse, _dense, _duplicate_single_bits,
                                  _shared_singletons])
def test_peeled_rank_matches_gf2_rank(kind):
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = kind(rng)
        gens, cols = _hit_set(m)
        assert stab._peeled_rank(gens, cols, *m.shape) \
            == _rank_oracle(gens, cols)


def test_peeled_rank_of_no_hits_is_zero():
    none = np.zeros(0, dtype=np.int64)
    assert stab._peeled_rank(none, none, 5, 8) == 0


def _restricted_rows(t, qubits):
    """The per-bit row builder the hit list replaced: generator -> bit
    row of its X bits (columns 0..k-1) and Z bits (columns k..2k-1) on
    the given qubits, read from the densified tableau."""
    k = len(qubits)
    rows = {}
    t = oracle.densify(t)
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


def test_entropy_matches_python_int_rank_past_one_word():
    rng = np.random.default_rng(43)
    # the last size, 64 * 129 qubits, spans many generator words per row
    # (a quarter of its qubits filled four blocks of the dense kernel's
    # hit list)
    words = int(np.sqrt(oracle.BLOCK_WORDS)) + 1
    for n in [int(n) for n in rng.integers(65, 201, size=12)] + [64 * words]:
        t = stab.init_zero(n)
        for _ in range(int(rng.integers(n // 2, 4 * n))):
            name, arity, _, fn = GATES[rng.integers(0, len(GATES))]
            fn(t, *(int(q) for q in rng.choice(n, size=arity,
                                               replace=False)))
        for _ in range(10):
            k = int(rng.integers(1, n))
            region = rng.choice(n, size=k, replace=False)
            inside = np.zeros(n, dtype=bool)
            inside[region] = True
            qubits = np.flatnonzero(inside if 2 * k <= n else ~inside)
            want = stab._gf2_rank(_restricted_rows(t, qubits).values()) \
                - len(qubits)
            assert stab.entanglement_entropy(t, region) == want
