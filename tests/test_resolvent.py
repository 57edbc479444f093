import numpy as np
import pytest

from apseq import (BiSequence, InputContractError, OperatorSequence,
                   ResolventSelection, SeminormFamily, TrigPoly,
                   forward_oracle, inclusion_residual, omega_c_check,
                   seq_reverse, solve_degenerate_vb, solve_degenerate_vb1,
                   solve_inclusion)
from apseq.operator_model import induced_bound
from apseq.resolvent import compose_selection, vb1_residual, vb_residual
from conftest import random_certified_operator

FAM1 = SeminormFamily.sup_only(1)


def scalar_selection(d_value, c_value=1.0, family=FAM1):
    D = OperatorSequence.constant([[d_value]], family=family)
    return ResolventSelection(D, [[c_value]])


def test_scalar_inclusion_fixed_point():
    # multivalued coefficient 2 with C = 1: selection D = 1/2, f = 1.
    # Transformed equation v(k+1) = v(k)/2 - 1/2 has fixed point -1.
    sel = scalar_selection(0.5)
    f = BiSequence.constant([1.0])
    x, rep = solve_inclusion(sel, f, (-8, 8), tol=1e-10)
    for k in range(-8, 9):
        assert abs(x(k)[0] + 1.0) <= 1e-9
    # selection-form identity x(k) = (1/2)(x(k+1) - 1) at the fixed point
    assert rep.max_residual["sup"] <= 3e-10 * 1.5
    # oracle: forward iteration on the transformed equation
    A_rev = OperatorSequence.constant([[0.5]], family=FAM1)
    f_rev = BiSequence.constant([-0.5])
    orc = forward_oracle(A_rev, f_rev, -60, [0.0], (-8, 8))
    assert abs(orc(0)[0] - (-1.0)) <= 1e-15


def test_inclusion_zero_forcing_and_zero_regularizer():
    sel = scalar_selection(0.5)
    x, _ = solve_inclusion(sel, BiSequence.zeros(1), (-5, 5))
    assert all(x(k)[0] == 0.0 for k in range(-5, 6))
    # C = 0 forces D = 0 and the solution collapses to zero
    sel0 = scalar_selection(0.0, 0.0)
    x0, _ = solve_inclusion(sel0, BiSequence.constant([3.0]), (-5, 5))
    assert all(x0(k)[0] == 0.0 for k in range(-5, 6))


def test_inclusion_residual_exact_scalar():
    # x = -1 exactly satisfies x(k) = D(x(k+1) - f(k))
    sel = scalar_selection(0.5)
    f = BiSequence.constant([1.0])
    x = BiSequence.constant([-1.0])
    res = inclusion_residual(sel, f, x, (-10, 10), FAM1)
    assert res["sup"] == 0.0
    zero = BiSequence.zeros(1)
    assert inclusion_residual(sel, zero, zero, (-5, 5), FAM1)["sup"] == 0.0


def test_round_trip_forward_form(rng):
    # for single-valued invertible coefficients the solution satisfies
    # C x(k+1) - A(k) x(k) - C f(k) = 0 up to 10 tol
    fam = SeminormFamily.sup_only(3)
    C = np.eye(3)
    A_mat = OperatorSequence.periodic(
        [rng.standard_normal((3, 3)) + 4 * np.eye(3) for _ in range(2)])
    sel = ResolventSelection.from_matrix_inverse(A_mat, C, fam)
    for k in range(-3, 3):
        AD = A_mat.matrix(k) @ sel.D.matrix(k)
        assert np.abs(AD - C).max() <= 1e-10
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.4, rng.standard_normal(3))]))
    tol = 1e-10
    x, rep = solve_inclusion(sel, f, (-6, 6), tol=tol)
    # vb residual with B = I: C x(k+1) - A(k) x(k) - C f(k)
    eye = OperatorSequence.constant(C)
    res = vb_residual(eye, A_mat, C, f, x, (-6, 6), fam)
    amp = max(np.abs(A_mat.matrix(k)).sum(axis=1).max() for k in range(-6, 7))
    assert res["sup"] <= 10 * tol * max(1.0, amp)


def test_time_reversal_involution_bit_identical(rng):
    vals = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    F = BiSequence.from_table(-4, vals)
    G = seq_reverse(seq_reverse(F))
    assert all(np.array_equal(F(k), G(k)) for k in range(-4, 5))


def test_vb_identity_B_reduces_to_inclusion(rng):
    fam = SeminormFamily.sup_only(2)
    B = OperatorSequence.constant(np.eye(2), family=fam)
    G = random_certified_operator(rng, fam, 0.5)
    f = BiSequence.from_trig_poly(TrigPoly.of([(1.1, rng.standard_normal(2))]))
    tol = 1e-10
    v, u, rep = solve_degenerate_vb(B, G, np.eye(2), f, (-6, 6), tol=tol)
    x, _ = solve_inclusion(ResolventSelection(G, np.eye(2)), f, (-6, 6),
                           tol=tol)
    worst = max(np.abs(v(k) - x(k)).max() for k in range(-6, 7))
    assert worst <= 10 * tol
    assert all(np.array_equal(u(k), v(k)) for k in range(-6, 7))


def test_vb_scalar_fixed_point_and_residual():
    # B = b, A = a, C = 1, f = 1, |b/a| < 1: v = -b/(a-b), u = v/b
    b, a = 0.4, 1.0
    fam = FAM1
    B = OperatorSequence.constant([[b]], family=fam)
    A = OperatorSequence.constant([[a]])
    AinvC = OperatorSequence.constant([[1.0 / a]], family=fam)
    f = BiSequence.constant([1.0])
    v, u, rep = solve_degenerate_vb(B, AinvC, [[1.0]], f, (-6, 6),
                                    tol=1e-10, A=A)
    # oracle: forward iteration of the transformed fixed-point equation
    assert abs(v(0)[0] - (-b / (a - b))) <= 1e-10
    assert abs(u(0)[0] - (-1.0 / (a - b))) <= 1e-9
    assert rep.residual_form == "vb_direct"
    assert rep.max_residual["sup"] <= 3e-10 * (1 + b / a)
    # direct substitution: C b u - a u - 1 = 0 exactly at the fixed point
    uc = BiSequence.constant([-1.0 / (a - b)])
    assert vb_residual(B, A, [[1.0]], f, uc, (-5, 5), fam)["sup"] <= 1e-15


def test_vb_zero_forcing():
    fam = FAM1
    B = OperatorSequence.constant([[0.3]], family=fam)
    AinvC = OperatorSequence.constant([[0.9]], family=fam)
    v, u, _ = solve_degenerate_vb(B, AinvC, [[1.0]], BiSequence.zeros(1),
                                  (-4, 4))
    assert all(v(k)[0] == 0.0 and u(k)[0] == 0.0 for k in range(-4, 5))


def test_vb_singular_B_selection_recovery():
    # B = 0: the composite selection is zero, v = 0, and u comes from the
    # selection route u(k) = AinvC (v(k+1) - f(k))
    fam = FAM1
    B = OperatorSequence.constant([[0.0]], family=fam)
    a = -2.0
    A = OperatorSequence.constant([[a]])
    AinvC = OperatorSequence.constant([[1.0 / a]], family=fam)
    f = BiSequence.constant([1.0])
    v, u, rep = solve_degenerate_vb(B, AinvC, [[1.0]], f, (-4, 4), A=A)
    assert all(v(k)[0] == 0.0 for k in range(-4, 5))
    # 0 = a u + f -> u = -f/a = 0.5
    assert all(abs(u(k)[0] - 0.5) <= 1e-12 for k in range(-4, 5))
    assert any("abandoned" in w for w in rep.warnings)
    assert any("selection" in w for w in rep.warnings)
    assert rep.max_residual["sup"] <= 1e-12


@pytest.mark.parametrize("backend", ["constant", "periodic", "generator"])
def test_vb_u_recovery_is_the_per_k_inverse_bit_for_bit(backend, rng):
    # the recovery's stacked mat-vecs, over more than one block of k, keep
    # the bits of B(k)^{-1} v(k) taken one k at a time
    from apseq.operator_model import checked_solve
    d = 5
    fam = SeminormFamily.sup_only(d)
    B = random_certified_operator(rng, fam, 0.8, backend=backend)
    G = random_certified_operator(rng, fam, 0.5, backend="periodic")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.6, rng.standard_normal(d))]))
    v, u, rep = solve_degenerate_vb(B, G, np.eye(d), f, (-70, 10))
    assert rep.warnings[-1] == "u recovered via b_inverse"
    ref = np.stack([checked_solve(B.matrix(k), np.eye(d)) @ v(k)
                    for k in range(-70, 12)])
    assert u.window_values((-70, 11)).tobytes() == ref.tobytes()


def test_vb1_identity_B_with_matching_g_reduces_to_inclusion(rng):
    fam = SeminormFamily.sup_only(2)
    B = OperatorSequence.constant(np.eye(2))
    G = random_certified_operator(rng, fam, 0.45)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.9, rng.standard_normal(2))]))
    u, rep = solve_degenerate_vb1(B, G, np.eye(2), f, f, (-6, 6), tol=1e-10)
    x, _ = solve_inclusion(ResolventSelection(G, np.eye(2)), f, (-6, 6),
                           tol=1e-10)
    worst = max(np.abs(u(k) - x(k)).max() for k in range(-6, 7))
    assert worst <= 10e-10


def test_vb1_scalar_example():
    # A = a, B = b, C = 1, g = 1, f = 1/b: u = -1/(a-b)
    a, b = 1.0, 0.4
    fam = FAM1
    B = OperatorSequence.constant([[b]])
    A = OperatorSequence.constant([[a]])
    AinvBC = OperatorSequence.constant([[b / a]], family=fam)
    g = BiSequence.constant([1.0])
    f = BiSequence.constant([1.0 / b])
    u, rep = solve_degenerate_vb1(B, AinvBC, [[1.0]], g, f, (-6, 6),
                                  tol=1e-10, A=A)
    assert abs(u(0)[0] - (-1.0 / (a - b))) <= 1e-9
    assert rep.residual_form == "vb1_direct"
    assert rep.max_residual["sup"] <= 3e-10 * (1 + b / a)
    # direct substitution oracle
    uc = BiSequence.constant([-1.0 / (a - b)])
    assert vb1_residual(B, A, [[1.0]], g, uc, (-5, 5), fam)["sup"] <= 1e-15


def test_vb1_zero_data():
    fam = FAM1
    B = OperatorSequence.constant([[0.5]])
    AinvBC = OperatorSequence.constant([[0.25]], family=fam)
    u, _ = solve_degenerate_vb1(B, AinvBC, [[1.0]], BiSequence.zeros(1),
                                BiSequence.zeros(1), (-4, 4))
    assert all(u(k)[0] == 0.0 for k in range(-4, 5))


def test_vb1_consistency_check_fails_loudly():
    fam = FAM1
    B = OperatorSequence.constant([[0.5]])
    AinvBC = OperatorSequence.constant([[0.25]], family=fam)
    g = BiSequence.constant([1.0])
    f = BiSequence.constant([1.0])  # should be 2.0 for b = 0.5
    with pytest.raises(InputContractError):
        solve_degenerate_vb1(B, AinvBC, [[1.0]], g, f, (-3, 3))


@pytest.mark.parametrize("omega,c", [(1, 0.5), (2, 1.0), (3, 2.0), (2, 1j)])
def test_inclusion_omega_c_transfer(omega, c, rng):
    fam = SeminormFamily.sup_only(2)
    D = random_certified_operator(rng, fam, 0.55, backend="periodic",
                                  period=omega)
    sel = ResolventSelection(D, np.eye(2))
    base = rng.standard_normal((omega, 2)) + 1j * rng.standard_normal((omega, 2))
    f = BiSequence.omega_c(base, omega, c)
    x, _ = solve_inclusion(sel, f, (-10, 10), tol=1e-10, pad_right=omega)
    assert omega_c_check(x, omega, c, fam, (-10, 10)) <= 2e-10


def test_compose_selection_product_certificates(rng):
    fam = SeminormFamily.sup_only(2)
    B = random_certified_operator(rng, fam, 0.8)
    G = random_certified_operator(rng, fam, 0.6)
    D = compose_selection(B, G, fam)
    sup = fam.by_label("sup")
    for k in range(-4, 6):
        assert np.array_equal(D.matrix(k), B.matrix(k) @ G.matrix(k))
        # the induced bound of the product, never above the product rule
        assert D.certificate("sup", k) == induced_bound(D.matrix(k), sup)
        assert D.certificate("sup", k) <= (B.certificate("sup", k)
                                           * G.certificate("sup", k)
                                           * (1 + 1e-12))
    assert D.sup_bound("sup") <= 0.8 * 0.6 * (1 + 1e-12)


def test_triple_equivalence_vb_inclusion_reversed_series(rng):
    # with B = I and C = I the three routes coincide pointwise to 10 tol:
    # the degenerate solve, the inclusion solve, and a hand-built
    # time-reversed first-order series
    from apseq import solve_series
    from apseq.seq_core import Window
    fam = SeminormFamily.sup_only(2)
    D = random_certified_operator(rng, fam, 0.5, backend="periodic")
    B = OperatorSequence.constant(np.eye(2), family=fam)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(2))]))
    tol = 1e-10
    window = (-7, 7)

    v_vb, u_vb, _ = solve_degenerate_vb(B, D, np.eye(2), f, window, tol=tol)
    x_inc, _ = solve_inclusion(ResolventSelection(D, np.eye(2)), f, window,
                               tol=tol)

    # manual reversal: w(j+1) = D(-j-1) w(j) - D(-j-1) f(-j-1), x(k) = w(-k)
    A_rev = OperatorSequence.from_function(
        2, lambda j: D.matrix(-j - 1), family=fam,
        sup_bounds=dict(D.sup_bounds))
    f_rev = BiSequence.from_function(
        2, lambda j: -(D.matrix(-j - 1) @ f(-j - 1)))
    w, _ = solve_series(A_rev, f_rev, Window(-7, 7).reflected(), tol=tol)

    for k in range(-7, 8):
        assert np.abs(u_vb(k) - x_inc(k)).max() <= 10 * tol
        assert np.abs(x_inc(k) - w(-k)).max() <= 10 * tol


def test_backward_depth_search_matches_the_reversed_series(rng):
    # certificates that vary with k over two seminorms: the depth of each k
    # and its tail bounds must be those of the hand-built reversed series at
    # j = -k, which pins the orientation of the depth-search rows
    from apseq import Seminorm
    fam = SeminormFamily.of([Seminorm.sup(), Seminorm.p_norm(1)], 2)
    D = random_certified_operator(rng, fam, 0.6, backend="generator")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(2)),
                                               (0.0, rng.standard_normal(2))]))
    window = (-9, 9)
    _, rep = solve_inclusion(ResolventSelection(D, np.eye(2)), f, window,
                             tol=1e-10)
    # hand-built reversal as in the triple equivalence above: its table on
    # j in [-10, 10] holds x(k) = w(-k) for k in [-10, 10]
    from apseq import solve_series
    A_rev = OperatorSequence.from_function(
        2, lambda j: D.matrix(-j - 1), family=fam)
    f_rev = BiSequence.from_function(
        2, lambda j: -(D.matrix(-j - 1) @ f(-j - 1)))
    _, hand = solve_series(A_rev, f_rev, (-10, 9), tol=1e-10)
    assert rep.truncation_V == sorted((-j, V) for j, V in hand.truncation_V)
    assert len({V for _, V in rep.truncation_V}) > 1
    for lbl in fam.labels():
        got = np.array([b for _, b in rep.tail_bounds[lbl]])
        want = np.array(sorted((-j, b) for j, b in hand.tail_bounds[lbl]))
        assert [k for k, _ in rep.tail_bounds[lbl]] == want[:, 0].tolist()
        assert np.allclose(got, want[:, 1], rtol=1e-12, atol=0)


def test_inclusion_reports_probes_in_the_callers_k(rng):
    # the backward series reads f and D to the right of the window: the
    # table covers work = [-11, 11], the certificates [work.start,
    # work.end + margin - 1] and the forcing probe one step wider each way
    fam = SeminormFamily.sup_only(2)
    D = random_certified_operator(rng, fam, 0.5, backend="generator")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(2))]))
    _, rep = solve_inclusion(ResolventSelection(D, np.eye(2)), f, (-10, 10),
                             tol=1e-10)
    assert [k for k, _ in rep.truncation_V] == list(range(-11, 12))
    depth = max(V for _, V in rep.truncation_V)
    assert rep.f_probe[0] == -12 and rep.f_probe[1] >= 11 + depth
    assert rep.sup_probe == (-11, rep.f_probe[1] - 1)
    assert rep.sup_certificates["sup"] == D.certificate_array(
        "sup", rep.sup_probe).max()
    assert rep.uniqueness == "not certified"


def test_inclusion_with_exact_sups_is_certified(rng):
    # constant and periodic selections bring their exact sups to the
    # backward solve: no certificate is probed
    fam = SeminormFamily.sup_only(2)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(2))]))
    for backend in ("constant", "periodic"):
        D = random_certified_operator(rng, fam, 0.5, backend=backend)
        _, rep = solve_inclusion(ResolventSelection(D, np.eye(2)), f,
                                 (-10, 10), tol=1e-10)
        assert rep.uniqueness == "certified" and rep.sup_probe is None
        assert rep.sup_certificates == D.sup_bounds
        assert rep.to_dict()["sup_probe"] is None


def test_inclusion_forcing_is_evaluated_a_window_at_a_time(rng):
    # -D(k) f(k) comes from one apply_rows per window: the forcing is read
    # a window at a time, never k by k (a read of f(k) is a one-k window)
    fam = SeminormFamily.sup_only(3)
    D = random_certified_operator(rng, fam, 0.6, backend="periodic")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.3, rng.standard_normal(3))]))
    windows = []
    window_fn = f._window_fn
    f._window_fn = lambda w: windows.append(w) or window_fn(w)
    _, rep = solve_inclusion(ResolventSelection(D, np.eye(3)), f, (-12, 12),
                             tol=1e-10)
    probed = rep.f_probe[1] - rep.f_probe[0] + 1
    assert probed > 60
    assert all(len(w) > 1 for w in windows) and len(windows) <= 4


def test_inclusion_reads_A_only_where_the_solve_reads_it():
    # A(-50) = 0 is singular but lies left of everything the reversed
    # series reads, which starts at k = -6
    fam = SeminormFamily.sup_only(1)
    A = OperatorSequence.from_function(
        1, lambda k: [[0.0 if k == -50 else 4.0]])
    sel = ResolventSelection.from_matrix_inverse(A, [[1.0]], fam)
    x, rep = solve_inclusion(sel, BiSequence.constant([1.0]), (-5, 5))
    # x(k) = (x(k+1) - 1) / 4 has the fixed point -1/3
    assert all(abs(x(k)[0] + 1 / 3) <= 1e-9 for k in range(-5, 6))
    assert rep.max_residual["sup"] <= 1e-9
