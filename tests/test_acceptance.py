"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line so a verbose run reads as a
checklist.  Criterion 9 is recorded as a strict expected failure: the
half-cut entropy of the swap automaton is S = 2L(2T - 1) exactly, so the
ratio S / (L T) depends on T, and no implementation can make it constant.
The amended test after it pins the law that does hold.  The refined 3x3
depth sweep after criterion 4 is recorded the same way: a pinned law plus
a strict expected failure for the plateau it does not reach.
"""

import math
import time

import numpy as np
import pytest

from tnkit import dense, qca, stabilizer as stab
from tnkit.mapping import (assemble_peps, chi_bound, measured_chi,
                           place_naive, place_refined, place_shifted,
                           route_lines)
from tnkit.tns import (build_mera_1d, build_mera_2d_b2, build_mera_2d_b3,
                       build_ttn_example)


def report(num, text):
    print(f"criterion {num:02d}: PASS  {text}")


def test_criterion_01_tree_entropy_sequence():
    for layers in (1, 3, 5, 7, 9, 11, 13):
        start = time.monotonic()
        run = stab.run_ttn_example(layers)
        elapsed = time.monotonic() - start
        assert run.entropy == (layers + 1) // 2, layers
        if layers == 13:
            assert elapsed <= 300.0, f"T=13 took {elapsed:.1f} s"
    report(1, f"entropy (T+1)/2 for T up to 13; T=13 in {elapsed:.1f} s")


def test_criterion_02_embedding_preserves_state():
    cases = [
        (build_mera_1d, 2, place_shifted),
        (build_mera_1d, 2, place_refined),
        (build_mera_2d_b2, 1, place_shifted),
        (build_mera_2d_b2, 1, place_refined),
        (build_mera_2d_b2, 2, place_refined),
    ]
    worst = 1.0
    for build, layers, place in cases:
        net = build(layers)
        p = place(net)
        peps = assemble_peps(net, p, route_lines(net, p))
        ref = dense.contract_to_statevector(net).amplitudes
        emb = dense.contract_to_statevector(peps).amplitudes
        overlap = abs(np.vdot(ref, emb)) \
            / (np.linalg.norm(ref) * np.linalg.norm(emb))
        assert overlap >= 1 - 1e-10, (build.__name__, layers, overlap)
        worst = min(worst, overlap)
    report(2, f"five embeddings, worst overlap {worst:.15f}")


def test_criterion_03_refined_paths_per_edge_constant():
    values = []
    for layers in (2, 3, 4):
        net = build_mera_2d_b2(layers)
        p = place_refined(net)
        rep = measured_chi(net, route_lines(net, p))
        values.append(rep.interior().max_paths())
    assert values == [2, 2, 2]
    report(3, "refined 2x2-block embedding: max 2 paths/edge at T=2,3,4")


def test_criterion_04_scheme_exponents():
    for layers in (2, 3):
        net = build_mera_2d_b2(layers)
        p = place_shifted(net)
        rep = measured_chi(net, route_lines(net, p))
        assert rep.log_chi_peps(2) == 6.0, layers
        net = build_mera_2d_b3(layers)
        p = place_refined(net)
        rep = measured_chi(net, route_lines(net, p))
        assert rep.interior().log_chi_peps(2) == 5.0, layers
    report(4, "shifted 2x2 exponent 6; refined 3x3 exponent 5 (T=2,3)")


@pytest.fixture(scope="module")
def b3_refined_interior_log_chi():
    values = []
    for layers in (2, 3, 4):
        net = build_mera_2d_b3(layers, with_elements=False)
        p = place_refined(net)
        rep = measured_chi(net, route_lines(net, p))
        values.append(rep.interior().log_chi_peps(2))
    return values


def test_refined_b3_depth_sweep_law(b3_refined_interior_log_chi):
    # coarse tracks of nested scales share the columns next to a collect
    # column, so the busiest edge gains a line from T=4 on
    assert b3_refined_interior_log_chi == [5.0, 5.0, 6.0]


@pytest.mark.xfail(strict=True, reason="refined 3x3 interior log-chi is "
                   "5, 5, 6 at T=2, 3, 4: the router does not plateau")
def test_refined_b3_depth_sweep_plateau(b3_refined_interior_log_chi):
    assert len(set(b3_refined_interior_log_chi)) == 1, \
        b3_refined_interior_log_chi


def test_criterion_05_bound_soundness():
    combos = [
        (build_mera_1d, (1, 2, 3, 4)),
        (build_mera_2d_b2, (1, 2, 3, 4)),
        (build_mera_2d_b3, (1, 2, 3, 4)),
        (build_ttn_example, (1, 3)),
    ]
    checked = 0
    for build, depths in combos:
        for layers in depths:
            net = build(layers)
            bound = chi_bound(net.meta, net.spec.dimension)
            for place in (place_shifted, place_refined):
                p = place(net)
                rep = measured_chi(net, route_lines(net, p))
                measured = rep.log_chi_peps(2)
                assert measured <= bound, \
                    (build.__name__, layers, place.__name__, measured, bound)
                checked += 1
    report(5, f"log-chi within structural bound in all {checked} runs")


def test_criterion_06_one_dimension_grows_linearly():
    depths = list(range(2, 7))
    for place in (place_naive, place_shifted):
        values = []
        for layers in depths:
            net = build_mera_1d(layers)
            rep = measured_chi(net, route_lines(net, place(net)))
            values.append(rep.max_paths())
        slope = np.polyfit(depths, values, 1)[0]
        assert slope >= 1.0, (place.__name__, values, slope)
    report(6, "1D congestion slope >= 1 under naive and shifted placement")


def _dense_apply(psi, n, qs, mat):
    t = psi.reshape((2,) * n)
    if len(qs) == 1:
        t = np.moveaxis(np.tensordot(mat, t, axes=([1], [qs[0]])), 0, qs[0])
    else:
        t = np.moveaxis(t, qs, (0, 1))
        t = (mat @ t.reshape(4, -1)).reshape((2, 2) + (2,) * (n - 2))
        t = np.moveaxis(t, (0, 1), qs)
    return t.reshape(-1)


def _dense_entropy(psi, n, region):
    state = dense.StateVector(psi, tuple((q,) for q in range(n)), 2)
    return dense.entanglement_entropy(state, region)


def test_criterion_07_stabilizer_matches_dense_oracle():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    gates = [
        (1, np.array([[1, 1], [1, -1]]) / np.sqrt(2), stab.apply_h),
        (1, np.diag([1, 1j]), stab.apply_s),
        (2, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex), stab.apply_cnot),
        (2, np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=complex), stab.apply_swap),
        (2, (np.eye(4) - 1j * np.kron(x, x)) / np.sqrt(2),
         stab.apply_xx_rotation),
    ]
    rng = np.random.default_rng(2026)
    for trial in range(200):
        n = int(rng.integers(2, 11))
        t = stab.init_zero(n)
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0] = 1.0
        for _ in range(int(rng.integers(3, 3 * n + 1))):
            arity, mat, fn = gates[rng.integers(0, len(gates))]
            qs = tuple(int(q) for q in rng.choice(n, arity, replace=False))
            fn(t, *qs)
            psi = _dense_apply(psi, n, qs, mat)
        k = int(rng.integers(1, n))
        region = [int(q) for q in rng.choice(n, k, replace=False)]
        s_tab = stab.entanglement_entropy(t, region)
        s_ref = _dense_entropy(psi, n, region)
        assert abs(s_tab - s_ref) < 1e-9, (trial, s_tab, s_ref)
    report(7, "200 random Clifford circuits, entropies exact to 1e-9")


def test_criterion_08_automaton_matches_stabilizer():
    ps = qca.PairSet(qca.initial_pairs(2, 6).spec, qca.site_indices(
        np.array([[(2, 2), (3, 3)]]), 6))
    assert qca.evolve(ps, 1).pairs == (((0, 0), (5, 5)),)

    rng = np.random.default_rng(8)
    for dim, length in ((1, 64), (2, 16)):
        ps0 = qca.initial_pairs(dim, length)
        for layers in (1, 2, 3, 4):
            ps = qca.evolve(ps0, layers)
            state = stab.run_qca(dim, length, layers)
            for _ in range(5):
                region = qca.random_connected_region(dim, length, rng)
                s_pairs = qca.entropy_across(ps, region)
                s_tab = stab.entanglement_entropy(state, region)
                assert s_pairs == s_tab, (dim, length, layers, s_pairs, s_tab)
    report(8, "pair motion example and 40 stabilizer cross-checks exact")


@pytest.mark.xfail(strict=True, reason="half-cut entropy is 2L(2T-1), so "
                   "S/(LT) is 2 at T=1 and 3 at T=2; no constant exists")
def test_criterion_09_entropy_rate_constant_as_written():
    ratios = []
    for length in (12, 16, 20):
        for layers in (1, 2):
            ps = qca.evolve(qca.initial_pairs(2, length), layers)
            s = qca.entropy_across(ps, qca.half_cut_region(2, length))
            ratios.append(s / (length * layers))
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    assert spread < 1e-12, ratios


def test_criterion_09_entropy_rate_amended():
    # the law that does hold: S = 2L(2T-1) exactly, L-independent rate at
    # fixed T, and S >= 2LT (the linear-in-T lower bound the criterion
    # was after)
    for layers in (1, 2):
        rates = set()
        for length in (12, 16, 20):
            ps = qca.evolve(qca.initial_pairs(2, length), layers)
            s = qca.entropy_across(ps, qca.half_cut_region(2, length))
            assert s == 2 * length * (2 * layers - 1), (length, layers, s)
            assert s >= 2 * length * layers
            rates.add(s / length)
        assert len(rates) == 1, rates
    report(9, "amended: S = 2L(2T-1) exact, rate L-independent, S >= 2LT")


def test_criterion_10_cost_model():
    assert qca.cost_estimate(1, 8, 3).local_obs_cost == 192
    assert qca.cost_estimate(2, 8, 2).local_obs_cost == 512

    def ratio(dim, k, layers):
        est = qca.cost_estimate(dim, 2 ** k, layers)
        return est.local_obs_cost_log2 / k

    ks = range(4, 21)
    poly_1d = [ratio(1, k, k) for k in ks]
    poly_2d = [ratio(2, k, max(1, round(math.sqrt(k)))) for k in ks]
    divergent = [ratio(2, k, k) for k in ks]
    assert max(poly_1d) < 4.0
    assert max(poly_2d) < 4.0
    assert all(b > a for a, b in zip(divergent, divergent[1:]))
    assert divergent[-1] > 4 * divergent[0]
    report(10, "worked costs 192 and 512; log-cost ratio bounded vs divergent")
