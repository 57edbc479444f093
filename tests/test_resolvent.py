import numpy as np
import pytest

from apseq import (BiSequence, InputContractError, OperatorSequence,
                   RangeError, SeminormFamily, TrigPoly, Window,
                   forward_oracle, inclusion_residual, omega_c_check,
                   solve_degenerate_vb, solve_degenerate_vb1, solve_inclusion)
from apseq.operator_model import induced_bound
from apseq.resolvent import (compose_selection, inverse_selection,
                             vb1_residual, vb_residual)
from conftest import (inverse_of, per_k_operator, per_k_sequence,
                      random_certified_operator)

FAM1 = SeminormFamily.sup_only(1)


def scalar_selection(d_value, family=FAM1):
    return OperatorSequence.constant([[d_value]], family=family)


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
    sel0 = scalar_selection(0.0)
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
    sel = inverse_selection(A_mat, C, fam)
    for k in range(-3, 3):
        AD = A_mat.matrix(k) @ sel.matrix(k)
        assert np.abs(AD - C).max() <= 1e-10
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.4, rng.standard_normal(3))]))
    tol = 1e-10
    x, rep = solve_inclusion(sel, f, (-6, 6), tol=tol)
    # vb residual with B = I: C x(k+1) - A(k) x(k) - C f(k)
    eye = OperatorSequence.constant(C)
    res = vb_residual(eye, A_mat, C, f, x, (-6, 6), fam)
    amp = max(np.abs(A_mat.matrix(k)).sum(axis=1).max() for k in range(-6, 7))
    assert res["sup"] <= 10 * tol * max(1.0, amp)


def test_vb_identity_B_reduces_to_inclusion(rng):
    fam = SeminormFamily.sup_only(2)
    B = OperatorSequence.constant(np.eye(2), family=fam)
    G = random_certified_operator(rng, fam, 0.5)
    f = BiSequence.from_trig_poly(TrigPoly.of([(1.1, rng.standard_normal(2))]))
    tol = 1e-10
    v, u, rep = solve_degenerate_vb(B, G, np.eye(2), f, (-6, 6), tol=tol,
                                    A=inverse_of(G))
    x, _ = solve_inclusion(G, f, (-6, 6), tol=tol)
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
    A = OperatorSequence.constant([[1.0 / 0.9]])
    v, u, _ = solve_degenerate_vb(B, AinvC, [[1.0]], BiSequence.zeros(1),
                                  (-4, 4), A=A)
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


def abandoned(k, B_k):
    """The vb note of a B(k) that the condition check refuses."""
    return (f"B({k}) has condition estimate {np.linalg.cond(B_k):.3e} "
            f"above 1.0e+12; refusing the dense solve; B-inverse recovery "
            f"abandoned")


def vb_with(B, window, tol=1e-10):
    """solve_degenerate_vb with A = diag(1, 2), C = I and f = (1, -1)."""
    A = OperatorSequence.constant(np.diag([1.0, 2.0]))
    ainv = OperatorSequence.constant(np.diag([1.0, 0.5]),
                                     family=SeminormFamily.sup_only(2))
    return solve_degenerate_vb(B, ainv, np.eye(2), BiSequence.constant(
        [1.0, -1.0]), window, tol=tol, A=A)


def test_vb_generator_B_singular_at_one_k_takes_the_selection_route():
    # only B(3) fails the check, with a finite condition estimate of 1e13
    def b(k):
        return np.diag([0.3, 3e-14 if k == 3 else 0.3])

    B = per_k_operator(2, b, family=SeminormFamily.sup_only(2))
    _, u, rep = vb_with(B, (-6, 6))
    assert rep.warnings[-2:] == [abandoned(3, b(3)),
                                 "u recovered via selection"]
    assert "1.000e+13" in rep.warnings[-2]
    assert rep.max_residual["sup"] <= 1e-10


@pytest.mark.parametrize("window", [(-6, 6), (3, 3)],
                         ids=["holds-the-residue", "misses-the-residue"])
def test_vb_periodic_B_singular_at_one_residue_takes_the_selection_route(
        window):
    # B(k) is singular for k = 2 mod 3, which the recovery on [3, 4] of the
    # short window never reads: the note names the residue, k = 2, and u
    # is the bounded solution either way
    good = np.diag([0.3, 0.2])
    bad = np.diag([0.3, 0.0])
    B = OperatorSequence.periodic([good, good, bad],
                                  family=SeminormFamily.sup_only(2))
    _, u, rep = vb_with(B, window)
    assert rep.warnings[-2:] == [abandoned(2, bad),
                                 "u recovered via selection"]
    assert rep.max_residual["sup"] <= 1e-10
    _, ref, _ = vb_with(B, (-10, 10))
    w = (window[0], window[1] + 1)
    assert np.abs(u.window_values(w) - ref.window_values(w)).max() <= 1e-10


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
    v, u, rep = solve_degenerate_vb(B, G, np.eye(d), f, (-70, 10),
                                    A=inverse_of(G))
    assert rep.warnings[-1] == "u recovered via b_inverse"
    ref = np.stack([checked_solve(B.matrices((k, k)), np.eye(d), "B",
                                  Window(k, k))[0] @ v(k)
                    for k in range(-70, 12)])
    assert u.window_values((-70, 11)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["vb", "vb1", "second_order"])
def test_reductions_pad_u_to_their_residuals_reach(kind):
    # u covers the k past the window that its residual reads, and no more:
    # one for vb and vb1, two for order 2.  Each u is the constant
    # solution of a scalar equation with C = 1 and f = 1.
    from apseq import solve_second_order

    def const(value, family=None):
        return OperatorSequence.constant([[value]], family=family)

    window, one = (-5, 5), BiSequence.constant([1.0])
    if kind == "vb":
        _, u, rep = solve_degenerate_vb(const(0.4, FAM1), const(1.0, FAM1),
                                        [[1.0]], one, window, A=const(1.0))
        want, reach = -1.0 / 0.6, 1
    elif kind == "vb1":
        u, rep = solve_degenerate_vb1(const(0.4), const(0.4, FAM1), [[1.0]],
                                      one, BiSequence.constant([2.5]),
                                      window, A=const(1.0))
        want, reach = -1.0 / 0.6, 1
    else:
        u, rep = solve_second_order(const(-8.0), const(1.0), const(0.125),
                                    [[1.0]], one, window, family=FAM1)
        want, reach = 1.0 / (0.125 + 1.0 - 8.0), 2
    vals = u.window_values((-5, 5 + reach))
    assert np.abs(vals - want).max() <= 1e-9
    assert rep.max_residual["sup"] <= 1e-9
    with pytest.raises(RangeError):
        u(5 + reach + 1)


def test_vb1_identity_B_with_matching_g_reduces_to_inclusion(rng):
    fam = SeminormFamily.sup_only(2)
    B = OperatorSequence.constant(np.eye(2))
    G = random_certified_operator(rng, fam, 0.45)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.9, rng.standard_normal(2))]))
    u, rep = solve_degenerate_vb1(B, G, np.eye(2), f, f, (-6, 6), tol=1e-10,
                                  A=inverse_of(G))
    x, _ = solve_inclusion(G, f, (-6, 6), tol=1e-10)
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
    A = OperatorSequence.constant([[2.0]])  # A^{-1} B C = 0.25
    u, _ = solve_degenerate_vb1(B, AinvBC, [[1.0]], BiSequence.zeros(1),
                                BiSequence.zeros(1), (-4, 4), A=A)
    assert all(u(k)[0] == 0.0 for k in range(-4, 5))


def test_vb1_consistency_check_fails_loudly():
    fam = FAM1
    B = OperatorSequence.constant([[0.5]])
    AinvBC = OperatorSequence.constant([[0.25]], family=fam)
    g = BiSequence.constant([1.0])
    f = BiSequence.constant([1.0])  # should be 2.0 for b = 0.5
    A = OperatorSequence.constant([[2.0]])  # A^{-1} B C = 0.25
    with pytest.raises(InputContractError):
        solve_degenerate_vb1(B, AinvBC, [[1.0]], g, f, (-3, 3), A=A)


@pytest.mark.parametrize("omega,c", [(1, 0.5), (2, 1.0), (3, 2.0), (2, 1j)])
def test_inclusion_omega_c_transfer(omega, c, rng):
    fam = SeminormFamily.sup_only(2)
    D = random_certified_operator(rng, fam, 0.55, backend="periodic",
                                  period=omega)
    sel = D
    base = rng.standard_normal((omega, 2)) + 1j * rng.standard_normal((omega, 2))
    f = BiSequence.omega_c(base, omega, c)
    # the check reads x on [-10, 10 + omega]; the table holds one k past
    # the window it solves
    x, _ = solve_inclusion(sel, f, (-10, 10 + omega - 1), tol=1e-10)
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

    v_vb, u_vb, _ = solve_degenerate_vb(B, D, np.eye(2), f, window, tol=tol,
                                        A=inverse_of(D))
    x_inc, _ = solve_inclusion(D, f, window, tol=tol)

    # manual reversal: w(j+1) = D(-j-1) w(j) - D(-j-1) f(-j-1), x(k) = w(-k)
    A_rev = per_k_operator(
        2, lambda j: D.matrix(-j - 1), family=fam,
        sup_bounds=dict(D.sup_bounds))
    f_rev = per_k_sequence(
        2, lambda j: -(D.matrix(-j - 1) @ f(-j - 1)))
    w, _ = solve_series(A_rev, f_rev, Window(-7, 7), tol=tol)

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
    _, rep = solve_inclusion(D, f, window, tol=1e-10)
    # hand-built reversal as in the triple equivalence above: its table on
    # j in [-10, 10] holds x(k) = w(-k) for k in [-10, 10]
    from apseq import solve_series
    A_rev = per_k_operator(
        2, lambda j: D.matrix(-j - 1), family=fam)
    f_rev = per_k_sequence(
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
    _, rep = solve_inclusion(D, f, (-10, 10), tol=1e-10)
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
        _, rep = solve_inclusion(D, f, (-10, 10), tol=1e-10)
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
    _, rep = solve_inclusion(D, f, (-12, 12), tol=1e-10)
    probed = rep.f_probe[1] - rep.f_probe[0] + 1
    assert probed > 60
    assert all(len(w) > 1 for w in windows) and len(windows) <= 4


def test_inclusion_reads_A_only_where_the_solve_reads_it():
    # A(-50) = 0 is singular but lies left of everything the reversed
    # series reads, which starts at k = -6
    fam = SeminormFamily.sup_only(1)
    A = per_k_operator(
        1, lambda k: [[0.0 if k == -50 else 4.0]])
    sel = inverse_selection(A, [[1.0]], fam)
    x, rep = solve_inclusion(sel, BiSequence.constant([1.0]), (-5, 5))
    # x(k) = (x(k+1) - 1) / 4 has the fixed point -1/3
    assert all(abs(x(k)[0] + 1 / 3) <= 1e-9 for k in range(-5, 6))
    assert rep.max_residual["sup"] <= 1e-9


def test_inclusion_derives_its_selection_once_over_what_it_reads():
    # each probe round derives D in one window rule call over its
    # certificates and the probe rows right of them, instead of a call of
    # its own for each lone k there; only the probe's row left of the
    # certificates comes after them, so a failing rule still names their
    # first k
    windows = []

    def rule(w):
        windows.append((w.start, w.end))
        return np.stack([[[4.0 + np.cos(k)]] for k in w])

    A = OperatorSequence(1, rule)
    sel = inverse_selection(A, [[1.0]], FAM1)
    x, rep = solve_inclusion(sel, BiSequence.constant([1.0]), (-5, 5))
    assert rep.max_residual["sup"] <= 1e-9
    lo, hi = rep.f_probe
    # two probe rounds: depth 8, then the depth the probed sups need
    assert len(windows) == 4
    assert windows[:2] == [(lo + 1, -1), (0, windows[1][1])]
    assert windows[2:] == [(lo, lo), (windows[1][1] + 1, hi)]
