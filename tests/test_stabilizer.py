"""Stabilizer tableau simulator against an independent dense oracle.

The dense reference below applies gate matrices to full statevectors and
measures entropy through singular values, sharing no code with the
tableau implementation.
"""

import numpy as np
import pytest

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
        assert stab.entanglement_entropy(
            state, stab.region_qubits(region, length)) \
            == qca.entropy_across(ps, region)
        for layers in (1, 2):
            ps = qca.evolve(ps, 1)
            state = stab.run_qca(dim, length, layers)
            assert stab.entanglement_entropy(
                state, stab.region_qubits(region, length)) \
                == qca.entropy_across(ps, region)


def test_region_qubits_row_major():
    assert stab.region_qubits([(0, 0), (1, 2), (3, 1)], 4) == [0, 6, 13]


# ------------------------------------------------ batched gates and layout

def random_pairs(rng, n, m):
    qs = rng.permutation(n)[:2 * m]
    return qs[:m], qs[m:]


def assert_same_tableau(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.phase, b.phase)


def test_count_mod4_matches_bit_counts():
    rng = np.random.default_rng(3)
    for m in range(1, 201):
        rows = rng.integers(0, 2 ** 63, size=(m, 2), dtype=np.uint64)
        lo, hi = stab._count_mod4(rows)
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        count = bits.sum(axis=0) % 4
        got = np.unpackbits(lo.view(np.uint8), bitorder="little") \
            + 2 * np.unpackbits(hi.view(np.uint8), bitorder="little")
        np.testing.assert_array_equal(got, count)


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
    # at least three blocks of the rotation kernel
    words = int(np.ceil(np.sqrt(3 * stab._BLOCK_WORDS / 32))) + 1
    n = 64 * words
    block = max(1, stab._BLOCK_WORDS // words)
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
    assert_same_tableau(stab.apply_xx_rotations(t.copy(), a, b), one)


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
    state.x, state.z = state.x[source], state.z[source]
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
        assert stab.region_qubits(region, length) \
            == [qca.site_index(s, length) for s in region]
    assert stab.region_qubits([], 4) == []


@pytest.mark.parametrize("a,b", [([0, 1], [1, 2]), ([3], [3]),
                                 ([0, 2, 4], [5, 6, 0])])
def test_pair_batches_need_distinct_qubits(a, b):
    t = stab.init_zero(8)
    for gate in (stab.apply_swaps, stab.apply_xx_rotations):
        with pytest.raises(ValueError, match="qubits must be distinct"):
            gate(t, a, b)
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
    # 32 qubits need 2 * 32 * 1 * 8 = 512 bytes, over 16 * 16
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    from tnkit.dense import ResourceLimitError
    stab.init_zero(8)
    with pytest.raises(ResourceLimitError):
        stab.init_zero(32)
    with pytest.raises(ResourceLimitError):
        stab.run_ttn_example(5)


def test_tree_run_fifteen_layers():
    assert stab.run_ttn_example(15).entropy == 8


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
    the given qubits."""
    k = len(qubits)
    rows = {}
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
    # at the last size, a quarter of the qubits fill four blocks of the
    # hit list
    words = int(np.sqrt(stab._BLOCK_WORDS)) + 1
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
