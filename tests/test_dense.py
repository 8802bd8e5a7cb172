"""Labeled contraction engine, state utilities, entropy, size guards."""

import numpy as np
import pytest

from tnkit import dense
from tnkit.tns import build_mera_1d


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


def test_contract_labeled_rejects_symbolic():
    with pytest.raises(ValueError):
        dense.contract_labeled([(None, ("i",))])


def test_amplitude_budget_env_override(monkeypatch):
    monkeypatch.setenv("TNKIT_MAX_AMPLITUDES", "8")
    assert dense.amplitude_limit() == 8
    a = np.ones((4, 4))
    with pytest.raises(dense.ResourceLimitError):
        dense.contract_labeled([(a, ("i", "j")), (a, ("k", "l"))],
                               open_order=("i", "j", "k", "l"))


def test_statevector_norm_and_equality():
    v = dense.StateVector(np.array([1.0, 1.0j]) / np.sqrt(2), ((0,),), 2)
    assert v.norm() == pytest.approx(1.0)
    assert v.num_sites == 1
    w = np.exp(0.3j) * v.amplitudes
    assert dense.states_equal(v, w)
    assert not dense.states_equal(v, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dense.states_equal(v, np.ones(4))
    with pytest.raises(ValueError):
        dense.states_equal(v, np.zeros(2))


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
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
    assert rho.region == ((0,),)
    assert dense.entropy_bits(rho) == pytest.approx(1.0)


def test_reduced_density_accepts_bare_indices():
    rho = dense.reduced_density(bell_state(), [1])
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
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
