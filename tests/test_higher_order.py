import numpy as np
import pytest

from apseq import (BiSequence, OperatorSequence, SeminormFamily, TrigPoly,
                   build_companion, build_B_from_D, companion_D_block,
                   companion_D_dense, companion_forward_oracle, omega_c_check,
                   solve_second_order)
from apseq.higher_order import second_order_residual
from conftest import random_matrix

FAM1 = SeminormFamily.sup_only(1)


def const(value, dim=1):
    m = np.asarray(value, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    return OperatorSequence.constant(m)


def scalar_system(a0, a1, a2, c=1.0):
    return build_companion(2, [const(a0), const(a1), const(a2)],
                           [[c]])


def test_companion_block_shapes_p2_scalar():
    sys_ = scalar_system(2.0, 1.0, 1.0)
    assert np.array_equal(sys_.bold_A(0), np.array([[-2.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(sys_.bold_B(1), np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(sys_.bold_C(), np.eye(2))


def test_companion_zero_coefficients():
    sys_ = scalar_system(0.0, 0.0, 0.0)
    assert np.array_equal(sys_.bold_A(5), np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(sys_.bold_B(5), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_companion_p3_pattern_matches_independent_assembly(rng):
    # oracle: literal entry-by-entry assembly of the displayed pattern
    d, p = 2, 3
    seqs = [OperatorSequence.constant(random_matrix(rng, d))
            for _ in range(p + 1)]
    C = random_matrix(rng, d)
    sys_ = build_companion(p, seqs, C)
    k = 4
    A = np.zeros((p * d, p * d), dtype=complex)
    A[:d, :d] = -seqs[0].matrix(k)
    for i in range(1, p):
        A[i * d:(i + 1) * d, i * d:(i + 1) * d] = C
    assert np.array_equal(sys_.bold_A(k), A)
    B = np.zeros((p * d, p * d), dtype=complex)
    for j in range(p):
        B[:d, j * d:(j + 1) * d] = seqs[j + 1].matrix(k + 1 + j)
    for i in range(1, p):
        B[i * d:(i + 1) * d, (i - 1) * d:i * d] = np.eye(d)
    assert np.array_equal(sys_.bold_B(k + 1), B)


def test_selection_block_p2_scalar_matches_dense_product():
    # A0=2, A1=1, A2=1, C=1: dense oracle gives [[-0.5, 1], [-0.5, 0]]
    sys_ = scalar_system(2.0, 1.0, 1.0)
    G = const(0.5)  # [A0]^{-1} C
    got = companion_D_block(sys_, G, 0)
    dense = companion_D_dense(sys_, 0)
    assert np.abs(got - dense).max() <= 1e-15
    assert np.array_equal(got, np.array([[-0.5, 1.0], [-0.5, 0.0]]))


def test_selection_block_vanishing_first_row():
    # A1 = A2 = 0: only the resolvent block below the diagonal survives
    sys_ = scalar_system(2.0, 0.0, 0.0)
    got = companion_D_block(sys_, const(0.5), 3)
    assert np.array_equal(got, np.array([[0.0, 0.0], [-0.5, 0.0]]))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_selection_block_matches_dense_on_random_draws(p, rng):
    d = 2
    for _ in range(25):
        seqs = [OperatorSequence.periodic(
                    [random_matrix(rng, d) + 3 * np.eye(d) for _ in range(2)])
                for _ in range(p + 1)]
        C = random_matrix(rng, d)
        sys_ = build_companion(p, seqs, C)
        k = int(rng.integers(-5, 5))
        G = OperatorSequence.from_function(
            d, lambda j: np.linalg.solve(seqs[0].matrix(j), C))
        got = companion_D_block(sys_, G, k)
        dense = companion_D_dense(sys_, k)
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(got - dense).max() / scale <= 1e-13


def test_second_order_zero_forcing():
    u, rep = solve_second_order(const(-8.0), const(1.0), const(0.125),
                                [[1.0]], BiSequence.zeros(1), (-5, 5),
                                family=FAM1)
    assert all(u(k)[0] == 0.0 for k in range(-5, 6))


def test_second_order_scalar_constant_solutions():
    # certificates 1/8 + 1/8 + 1/8 = 3/8 < 1; constant forcing f = 1.
    # Constant-solution algebra: (1/8 + 1 - 8) u = 1 -> u = -8/55.
    f = BiSequence.constant([1.0])
    u, rep = solve_second_order(const(-8.0), const(1.0), const(0.125),
                                [[1.0]], f, (-6, 6), tol=1e-10, family=FAM1)
    assert abs(u(0)[0] - (-8.0 / 55.0)) <= 1e-10
    assert rep.max_residual["sup"] <= 3e-10 * (1 + 3.0 / 8.0)
    assert rep.extras["shift_consistency_defect"] <= 1e-9

    # variant with A1 = 1/8: (1/8 + 1/8 - 8) u = 1 -> u = -4/31
    u2, _ = solve_second_order(const(-8.0), const(0.125), const(0.125),
                               [[1.0]], f, (-6, 6), family=FAM1)
    assert abs(u2(0)[0] - (-4.0 / 31.0)) <= 1e-10


def test_second_order_against_companion_forward_oracle():
    # invertible A2 so the companion recursion can be iterated directly.
    # Forward iteration expands errors (the bounded solution is stable
    # backward), so the oracle is seeded with the exact constant solution
    # from the fixed-point algebra and must then stay put.
    f = BiSequence.constant([1.0])
    a0, a1, a2 = -8.0, 1.0, 0.125
    exact = 1.0 / (a2 + a1 + a0)  # constant solution of the order-2 equation
    u, _ = solve_second_order(const(a0), const(a1), const(a2), [[1.0]], f,
                              (-5, 5), tol=1e-12, family=FAM1)
    sys_ = scalar_system(a0, a1, a2)
    # forward iteration amplifies roundoff by roughly |a0|/(a1+a2) per step,
    # so the oracle only holds the fixed point over a short stretch
    orc = companion_forward_oracle(sys_, f, -5, np.array([exact, exact]),
                                   (-5, 0))
    for k in range(-5, 1):
        assert abs(orc(k)[0] - exact) <= 1e-7  # oracle self-consistency
        assert abs(u(k)[0] - orc(k)[0]) <= 1e-7
    for k in range(-5, 6):
        assert abs(u(k)[0] - exact) <= 1e-10  # the solver is the tight one


def test_second_order_matches_backward_iteration_oracle(rng):
    # independent brute force for nonconstant forcing: solve the equation
    # for u(k) given the two entries to its right and iterate downward from
    # a zero seed far to the right (the bounded solution is stable backward)
    a0, a1, a2 = -8.0, 1.0, 0.125
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.9, [1.0]), (0.0, [0.4])]))
    u, _ = solve_second_order(const(a0), const(a1), const(a2), [[1.0]], f,
                              (-6, 6), tol=1e-12, family=FAM1)
    hi = 6 + 90
    vals = {hi + 1: 0.0, hi + 2: 0.0}
    for k in range(hi, -7, -1):
        vals[k] = (f(k)[0] - a2 * vals[k + 2] - a1 * vals[k + 1]) / a0
    for k in range(-6, 7):
        assert abs(u(k)[0] - vals[k]) <= 1e-9


def test_second_order_degenerate_leading_coefficient():
    # A1 = A2 = 0 reduces to the static equation A0 u = C f
    f = BiSequence.constant([1.0])
    u, rep = solve_second_order(const(-2.0), const(0.0), const(0.0),
                                [[1.0]], f, (-5, 5), family=FAM1)
    assert all(abs(u(k)[0] - (-0.5)) <= 1e-12 for k in range(-5, 6))


def test_second_order_matrix_coefficients_shift_consistency(rng):
    d = 2
    fam = SeminormFamily.sup_only(d)
    A0 = OperatorSequence.constant(
        5.0 * np.eye(d) + 0.4 * random_matrix(rng, d))
    A1 = OperatorSequence.constant(0.15 * random_matrix(rng, d))
    A2 = OperatorSequence.constant(0.05 * random_matrix(rng, d) +
                                   0.1 * np.eye(d))
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(d))]))
    tol = 1e-10
    u, rep = solve_second_order(A0, A1, A2, np.eye(d), f, (-6, 6), tol=tol,
                                family=fam)
    assert rep.extras["shift_consistency_defect"] <= 10 * tol
    assert rep.max_residual["sup"] <= 10 * tol
    # independent residual recomputation on the returned table
    res = second_order_residual(A0, A1, A2, np.eye(d), f, u, (-6, 6), fam)
    assert res["sup"] == rep.max_residual["sup"]


@pytest.mark.parametrize("generator", [False, True])
def test_second_order_recovery_is_the_per_k_product_bit_for_bit(
        generator, rng, monkeypatch):
    # u(k) = -G(k) (v(k+1) - vec f(k))_head as stacked mat-vecs keeps the
    # bits of the product taken one k at a time
    from apseq import higher_order
    d = 3
    fam = SeminormFamily.sup_only(d)
    a0 = 5.0 * np.eye(d) + 0.4 * random_matrix(rng, d)
    A0 = (OperatorSequence.from_function(
        d, lambda k: a0 * (1 + 0.1 * np.sin(k))) if generator
        else OperatorSequence.constant(a0))
    A1 = OperatorSequence.constant(0.15 * random_matrix(rng, d))
    A2 = OperatorSequence.constant(0.1 * np.eye(d))
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(d))]))
    solves = []
    solve = higher_order.solve_inclusion
    monkeypatch.setattr(higher_order, "solve_inclusion",
                        lambda *a, **kw: solves.append(solve(*a, **kw))
                        or solves[-1])
    sel = higher_order.second_order_selection(A0, A1, A2, np.eye(d), fam)
    u, _ = solve_second_order(A0, A1, A2, np.eye(d), f, (-8, 8),
                              family=fam, selection=sel)
    (v, _), = solves
    vec_f = build_companion(2, [A0, A1, A2], np.eye(d)).lift(f)
    ref = np.stack([sel.D.matrix(k)[d:, :d] @ (v(k + 1) - vec_f(k))[:d]
                    for k in range(-8, 11)])
    assert u.window_values((-8, 10)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("omega,c", [(1, 0.5), (2, 1.0), (3, 1j)])
def test_second_order_omega_c_transfer(omega, c, rng):
    fam = FAM1
    mats0 = [[[-(6.0 + rng.uniform(0, 2))]] for _ in range(omega)]
    mats1 = [[[rng.uniform(0.2, 0.8)]] for _ in range(omega)]
    mats2 = [[[rng.uniform(0.1, 0.3)]] for _ in range(omega)]
    A0 = OperatorSequence.periodic(mats0)
    A1 = OperatorSequence.periodic(mats1)
    A2 = OperatorSequence.periodic(mats2)
    base = rng.standard_normal((omega, 1)) + 1j * rng.standard_normal((omega, 1))
    f = BiSequence.omega_c(base, omega, c)
    u, _ = solve_second_order(A0, A1, A2, [[1.0]], f, (-9, 9), tol=1e-10,
                              family=fam, pad_right=omega)
    assert omega_c_check(u, omega, c, fam, (-9, 9)) <= 2e-10


def test_build_B_from_D_examples(rng):
    fam = SeminormFamily.sup_only(2)
    # D = 0 gives B = 0
    A = OperatorSequence.constant(random_matrix(rng, 2))
    D0 = OperatorSequence.constant(np.zeros((2, 2)))
    B, warnings = build_B_from_D(A, D0, 2)
    assert np.abs(B.matrix(1)).max() == 0.0 and not warnings

    # p = 1 scalars: B(k+1) = a d
    a, dsel = 0.8, 0.1
    B1, _ = build_B_from_D(const(a), const(dsel), 1)
    assert B1.matrix(1)[0, 0] == pytest.approx(a * dsel)

    # p = 2 diagonal: A = 2I, D = I/8 -> B = I/4
    A2 = OperatorSequence.constant(2.0 * np.eye(2))
    D2 = OperatorSequence.constant(np.eye(2) / 8.0)
    B2, warnings = build_B_from_D(A2, D2, 1, base_family=fam, window=(0, 0))
    assert np.allclose(B2.matrix(3), np.eye(2) / 4.0)


def test_build_B_from_D_budget_warning():
    fam = FAM1
    A = const(1.0)
    big = const(0.5)  # exceeds 1/(2 p^2) = 1/8 for p = 2... p=1: 1/2 boundary
    _, warnings = build_B_from_D(A, big, 1, base_family=fam, window=(0, 1))
    assert not warnings  # 0.5 <= 1/2 exactly
    _, warnings = build_B_from_D(A, const(0.51), 1, base_family=fam,
                                 window=(0, 1))
    assert len(warnings) == 2  # one per k


def test_first_projection_residual_tracks_block_residual(rng):
    # shift consistency and the order-2 residual stay within 10 tol of the
    # inner inclusion tolerance
    f = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0])]))
    tol = 1e-11
    u, rep = solve_second_order(const(-10.0), const(0.5), const(0.2),
                                [[1.0]], f, (-8, 8), tol=tol, family=FAM1)
    assert rep.max_residual["sup"] <= 10 * tol
    assert rep.extras["shift_consistency_defect"] <= 10 * tol
