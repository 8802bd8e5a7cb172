"""Labeled contraction engine, state utilities, entropy, size guards."""

import ast
import heapq
import math
from pathlib import Path

import numpy as np
import pytest

from tnkit import dense
from tnkit.mapping import assemble_peps, place, route_lines
from tnkit.tns import build_mera_1d, build_mera_2d_b2, build_mera_2d_b3


def _oracle_contract_labeled(factors, open_order=None):
    """The greedy contraction on the labels as given, wires included: the
    oracle of dense.contract_labeled."""
    def contract_pair(a, la, b, lb):
        shared = [l for l in la if l in lb]
        out = np.tensordot(a, b, axes=([la.index(l) for l in shared],
                                       [lb.index(l) for l in shared]))
        return out, [l for l in la if l not in shared] + \
            [l for l in lb if l not in shared]

    def pair_size(a, la, b, lb):
        shared = set(la) & set(lb)
        return math.prod(n for arr, ls in ((a, la), (b, lb))
                         for n, l in zip(arr.shape, ls) if l not in shared)

    limit = dense.amplitude_limit()
    work, owners = {}, {}
    for k, (array, labels) in enumerate(factors):
        if array is None:
            raise ValueError("network carries no elements (symbolic build)")
        work[k] = (np.asarray(array), list(labels))
        for l in labels:
            owners.setdefault(l, []).append(k)
    bad = sorted((str(l) for l, ks in owners.items() if len(ks) > 2))
    if bad:
        raise ValueError(f"labels used more than twice: {', '.join(bad)}")
    heap = [(pair_size(*work[i], *work[j]), i, j)
            for i, j in {tuple(ks) for ks in owners.values()
                         if len(ks) == 2 and ks[0] != ks[1]}]
    heapq.heapify(heap)
    next_id = len(factors)
    while len(work) > 1:
        while heap and not (heap[0][1] in work and heap[0][2] in work):
            heapq.heappop(heap)
        if heap:
            size, i, j = heapq.heappop(heap)
        else:
            i, j = sorted(sorted(work, key=lambda k: work[k][0].size)[:2])
            size = work[i][0].size * work[j][0].size
        if size > limit:
            raise dense.ResourceLimitError(f"contraction of {size} "
                                           f"amplitudes exceeds budget "
                                           f"{limit}")
        out, labels = contract_pair(*work.pop(i), *work.pop(j))
        k, next_id = next_id, next_id + 1
        work[k] = (out, labels)
        neighbours = set()
        for l in labels:
            ks = owners[l]
            ks[:] = [k if o in (i, j) else o for o in ks]
            neighbours.update(o for o in ks if o != k)
        for n in neighbours:
            heapq.heappush(heap, (pair_size(*work[n], out, labels), n, k))
    array, labels = next(iter(work.values()), (np.array(1.0 + 0j), []))
    if open_order is None:
        open_order = sorted(labels, key=repr)
    if sorted(map(repr, labels)) != sorted(map(repr, open_order)):
        raise ValueError("open labels do not match the requested order")
    perm = [labels.index(l) for l in open_order]
    return np.ascontiguousarray(np.transpose(array, perm)), tuple(open_order)


def test_contract_labeled_is_matrix_product():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    out, labels = dense.contract_labeled(
        [(a, ("i", "k")), (b, ("k", "j"))], open_order=("i", "j"))
    np.testing.assert_allclose(out, a @ b, atol=1e-12)
    assert labels == ("i", "j")


def test_contract_labeled_open_order_permutes():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4))
    out, labels = dense.contract_labeled([(a, ("x", "y", "z"))],
                                         open_order=("z", "x", "y"))
    assert labels == ("z", "x", "y")
    np.testing.assert_allclose(out, np.transpose(a, (2, 0, 1)))


def test_contract_labeled_three_factor_trace():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3))
    out, _ = dense.contract_labeled(
        [(a, ("i", "j")), (b, ("j", "k")), (c, ("k", "i"))], open_order=())
    np.testing.assert_allclose(out, np.trace(a @ b @ c), atol=1e-10)


def test_contract_labeled_outer_product_of_components():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 5.0])
    out, labels = dense.contract_labeled([(a, ("i",)), (b, ("j",))],
                                         open_order=("i", "j"))
    np.testing.assert_allclose(out, np.outer(a, b))


# factor label lists of small networks; every label is one einsum letter
ORACLE_NETWORKS = {
    "chain": ["ab", "bcd", "de", "e"],
    "loop": ["ab", "bc", "cd", "da"],
    "two shared labels": ["abc", "bcd"],
    "disjoint components": ["ab", "bc", "de", "e"],
}


@pytest.mark.parametrize("name", sorted(ORACLE_NETWORKS))
def test_contract_labeled_matches_einsum(name):
    specs = ORACLE_NETWORKS[name]
    rng = np.random.default_rng(len(name))
    letters = sorted(set("".join(specs)))
    dim = dict(zip(letters, rng.integers(2, 5, len(letters))))
    arrays = [rng.standard_normal([dim[l] for l in spec])
              + 1j * rng.standard_normal([dim[l] for l in spec])
              for spec in specs]
    open_labels = tuple(l for l in letters
                        if "".join(specs).count(l) == 1)
    out, labels = dense.contract_labeled(
        [(a, tuple(spec)) for a, spec in zip(arrays, specs)],
        open_order=open_labels)
    expected = np.einsum(",".join(specs) + "->" + "".join(open_labels),
                         *arrays)
    assert labels == open_labels
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


def test_contract_labeled_outer_product_budget(monkeypatch):
    a, b, c = np.ones((4, 2)), np.ones((2, 4)), np.ones(2)
    factors = [(a, ("i", "k")), (b, ("k", "j")), (c, ("m",))]
    # the shared pair fits in 16 amplitudes, the final outer product not
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    with pytest.raises(dense.ResourceLimitError, match="32 amplitudes"):
        dense.contract_labeled(factors)
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "32")
    out, labels = dense.contract_labeled(factors)
    assert labels == ("i", "j", "m")
    np.testing.assert_array_equal(out, np.full((4, 4, 2), 2.0))


def test_contract_labeled_rejects_overused_label():
    a = np.ones((2, 2))
    with pytest.raises(ValueError):
        dense.contract_labeled([(a, ("i", "i")), (a, ("i", "j"))])


@pytest.mark.parametrize("factors,open_order,message", [
    ([(np.ones((2, 2)), ("i",))], None, "factor of 2 axes carries 1 labels"),
    ([(np.ones((2, 3)), ("i", "j")), (np.ones(2), ("j",))], None,
     "label 'j' has dimensions 3 and 2"),
    ([(np.ones((2, 3)), ("i", "j"))], ("i", "k"),
     "open labels do not match the requested order"),
], ids=["label-count", "label-of-two-dims", "open-order-not-in-result"])
def test_contract_labeled_rejects_malformed_factors(factors, open_order,
                                                    message):
    with pytest.raises(ValueError, match=message):
        dense.contract_labeled(factors, open_order)


def test_contract_labeled_rejects_symbolic():
    with pytest.raises(ValueError):
        dense.contract_labeled([(None, ("i",))])


def test_outer_product_budget_with_wires(monkeypatch):
    eye = np.eye(2)
    a, b, c = np.ones((4, 2)), np.ones((2, 4)), np.ones(2)
    factors = [(a, ("i", "k")), (eye, ("k", "k2")), (b, ("k2", "j")),
               (eye, ("m2", "m")), (c, ("m2",))]
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "16")
    with pytest.raises(dense.ResourceLimitError, match="32 amplitudes"):
        dense.contract_labeled(factors)


def _random_factors(rng, count, labels):
    """count random complex factors; each of `labels` labels goes on one
    or two distinct factors, with axes in random order."""
    owned = [[] for _ in range(count)]
    for l in range(labels):
        for k in rng.choice(count, rng.integers(1, 3), replace=False):
            owned[k].append(f"l{l}")
    dim = rng.integers(1, 4, labels)
    factors = []
    for ls in owned:
        ls = [ls[i] for i in rng.permutation(len(ls))]
        shape = [dim[int(l[1:])] for l in ls]
        factors.append((rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape), tuple(ls)))
    return factors


@pytest.mark.parametrize("seed", range(12))
def test_contract_labeled_matches_oracle_bit_for_bit(seed):
    # no factor is an identity wire, so the contraction order is the
    # oracle's and so is every bit of the result
    rng = np.random.default_rng(seed)
    factors = _random_factors(rng, int(rng.integers(1, 9)),
                              int(rng.integers(0, 12)))
    out, labels = dense.contract_labeled(factors)
    expected, expected_labels = _oracle_contract_labeled(factors)
    assert labels == expected_labels
    assert np.array_equal(out, expected)


# the five verify-small shapes: the largest embeddings within the budget
VERIFY_SMALL = [(build_mera_1d, 4, "refined"), (build_mera_1d, 4, "shifted"),
                (build_mera_2d_b2, 2, "refined"),
                (build_mera_2d_b2, 2, "shifted"),
                (build_mera_2d_b3, 1, "refined")]


def _oracle_state(obj):
    factors = obj.all_factors()
    open_labels = sorted({l for _, ls in factors for l in ls
                          if isinstance(l, tuple) and l[0] == "p"},
                         key=lambda l: l[1])
    return _oracle_contract_labeled(factors, open_order=open_labels)[0]


@pytest.mark.parametrize("build,layers,scheme", VERIFY_SMALL)
def test_contraction_matches_oracle_on_verify_shapes(build, layers, scheme):
    net = build(layers, seed=5)
    state = dense.contract_to_statevector(net)
    # the network has no wires: the same order and the same bits
    assert np.array_equal(state.amplitudes, _oracle_state(net).reshape(-1))
    p = place(net, scheme)
    peps = assemble_peps(net, p, route_lines(net, p))
    embedded = dense.contract_to_statevector(peps)
    assert embedded.sites == state.sites
    assert dense.states_equal(embedded, _oracle_state(peps).reshape(-1),
                              tol=1e-12)
    assert dense.states_equal(embedded, state, tol=1e-12)


@pytest.mark.parametrize("build,layers,scheme", VERIFY_SMALL)
def test_embedding_contracts_to_the_network_state_bit_for_bit(build, layers,
                                                              scheme):
    # the embedding lists the network's tensors in node order, so once its
    # wires are renamed away the greedy loop takes the network's steps
    net = build(layers, seed=5)
    p = place(net, scheme)
    peps = assemble_peps(net, p, route_lines(net, p))
    assert np.array_equal(dense.contract_to_statevector(peps).amplitudes,
                          dense.contract_to_statevector(net).amplitudes)


def test_wire_chain_matches_einsum():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eye = np.eye(2)
    factors = [(eye, ("k1", "k2")), (a, ("i", "k0")), (eye, ("k0", "k1")),
               (eye, ("k3", "k2")), (b, ("k3", "j")),
               (np.eye(4), ("j", "o"))]
    out, labels = dense.contract_labeled(factors)
    assert labels == ("i", "o")
    np.testing.assert_allclose(out, np.einsum("ik,kj->ij", a, b),
                               rtol=1e-14, atol=1e-14)


def test_scaled_identity_is_a_tensor():
    a = np.arange(4.0).reshape(2, 2)
    out, _ = dense.contract_labeled([(a, ("i", "k")),
                                     (2 * np.eye(2), ("k", "j"))])
    np.testing.assert_array_equal(out, 2 * a)


def test_pauli_x_in_place_of_a_wire_changes_the_state():
    net = build_mera_1d(3, seed=2)
    p = place(net, "refined")
    peps = assemble_peps(net, p, route_lines(net, p))
    state = dense.contract_to_statevector(net)
    assert dense.states_equal(dense.contract_to_statevector(peps), state)
    k = next(k for k, (a, ls) in enumerate(peps.factors)
             if a.shape == (2, 2) and np.array_equal(a, np.eye(2)))
    labels = peps.factors[k][1]
    peps.factors[k] = (np.array([[0.0, 1.0], [1.0, 0.0]]), labels)
    assert not dense.states_equal(dense.contract_to_statevector(peps), state)


@pytest.mark.parametrize("reverse", [False, True])
def test_wire_into_open_label_keeps_its_name(reverse):
    v = np.array([1.0, 2.0, 3.0])
    factors = [(v, ("k",)), (np.eye(3), ("k", ("p", (0,))))]
    out, labels = dense.contract_labeled(factors[::-1] if reverse
                                         else factors)
    assert labels == (("p", (0,)),)
    np.testing.assert_array_equal(out, v)


def test_wire_between_open_labels_stays():
    eye = np.eye(3)
    out, labels = dense.contract_labeled([(eye, ("a", "b"))])
    assert labels == ("a", "b")
    np.testing.assert_array_equal(out, eye)
    out, labels = dense.contract_labeled([(eye, ("a", "k")),
                                          (eye, ("k", "b"))],
                                         open_order=("b", "a"))
    assert labels == ("b", "a")
    np.testing.assert_array_equal(out, eye)


def test_loop_wire_contracts_to_its_trace():
    eye = np.eye(3)
    a = np.arange(9.0).reshape(3, 3)
    out, labels = dense.contract_labeled([(eye, ("a", "b")),
                                          (eye, ("b", "a"))])
    assert labels == () and out == 3
    out, _ = dense.contract_labeled([(eye, ("a", "a"))])
    assert out == 3
    out, _ = dense.contract_labeled([(a, ("a", "b")), (eye, ("b", "a"))])
    assert out == np.trace(a)


def test_label_used_three_times_raises_with_wires():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="used more than twice: b"):
        dense.contract_labeled([(eye, ("a", "b")), (eye, ("b", "c")),
                                (np.ones((2, 2)), ("b", "d"))])


def test_amplitude_budget_env_override(monkeypatch):
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "8")
    assert dense.amplitude_limit() == 8
    a = np.ones((4, 4))
    with pytest.raises(dense.ResourceLimitError):
        dense.contract_labeled([(a, ("i", "j")), (a, ("k", "l"))],
                               open_order=("i", "j", "k", "l"))


def test_statevector_norm_and_equality():
    v = dense.StateVector(np.array([1.0, 1.0j]) / np.sqrt(2), ((0,),), 2)
    assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0)
    assert v.num_sites == 1
    w = np.exp(0.3j) * v.amplitudes
    assert dense.states_equal(v, w)
    assert not dense.states_equal(v, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dense.states_equal(v, np.ones(4))
    with pytest.raises(ValueError):
        dense.states_equal(v, np.zeros(2))


def test_states_equal_passes_a_state_against_itself_at_tol_zero():
    rng = np.random.default_rng(0)
    for n in (7, 64, 333, 1393):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for scale in (1.0, 1e150, 1e-150):
            assert dense.states_equal(v * scale, v * scale, tol=0)
            assert dense.states_equal(v * scale, np.exp(0.7j) * v * scale,
                                      tol=1e-12)
        w = v.copy()
        w[n // 2] += 1e-3
        assert not dense.states_equal(v, w, tol=0)
        assert not dense.states_equal(v, w)


def test_states_equal_refuses_tiny_orthogonal_states():
    a, b = np.zeros(4), np.zeros(4)
    a[0], b[3] = 1e-150, 1e-150
    for tol in (0, 1e-10, 0.5):
        assert not dense.states_equal(a, b, tol=tol)
    assert dense.states_equal(a, a, tol=0)


def test_contract_to_statevector_against_manual_contraction():
    net = build_mera_1d(1, chi=2, seed=3)
    state = dense.contract_to_statevector(net)
    w = net.nodes["w:1:0"].elements
    t = net.nodes["t:1:0"].elements
    expected = np.einsum("abc,c->ab", w, t).reshape(-1)
    assert state.sites == ((0,), (1,))
    assert dense.states_equal(state, expected, tol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0,
                               atol=1e-12)


def test_contract_to_statevector_rejects_symbolic_network():
    net = build_mera_1d(1, with_elements=False)
    with pytest.raises(ValueError):
        dense.contract_to_statevector(net)


def test_contract_to_statevector_size_guard():
    net = build_mera_1d(5, with_elements=False)
    # 2^32 amplitudes trip the budget before any element access
    with pytest.raises(dense.ResourceLimitError):
        dense.contract_to_statevector(net)


def bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return dense.StateVector(amps, ((0,), (1,)), 2)


def test_reduced_density_bell():
    rho = dense.reduced_density(bell_state(), [(0,)])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
    assert dense.entropy_bits(rho) == pytest.approx(1.0)


def test_reduced_density_accepts_bare_indices():
    rho = dense.reduced_density(bell_state(), [1])
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)
    with pytest.raises(ValueError):
        dense.reduced_density(bell_state(), [(7,)])


def test_entropy_of_product_state_is_zero():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    state = dense.StateVector(amps, ((0,), (1,)), 2)
    assert dense.entanglement_entropy(state, [(0,)]) == pytest.approx(0.0)


def test_entropy_bits_requires_hermitian():
    with pytest.raises(ValueError):
        dense.entropy_bits(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ghz_entropy_one_bit_everywhere():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    state = dense.StateVector(amps, ((0,), (1,), (2,)), 2)
    for region in ([(0,)], [(1,)], [(0,), (2,)]):
        assert dense.entanglement_entropy(state, region) \
            == pytest.approx(1.0)


def test_reduced_density_size_guard(monkeypatch):
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "8")
    state = dense.StateVector(np.ones(16) / 4.0,
                              tuple((q,) for q in range(4)), 2)
    with pytest.raises(dense.ResourceLimitError):
        dense.reduced_density(state, [(0,), (1,)])


def test_dense_imports_no_package_module_but_lattice():
    # networks state their own factors (all_factors), so dense contracts
    # factor lists and knows no network type
    names = []
    for node in ast.walk(ast.parse(Path(dense.__file__).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "tnkit." * (node.level > 0) + (node.module or "")
            names += [module] + [f"{module}.{alias.name}"
                                 for alias in node.names]
    package = [n for n in names if n.split(".")[0] == "tnkit"]
    assert package
    assert all(n.split(".")[1:2] == ["lattice"] for n in package), package
