import numpy as np
import pytest

from apseq import (BiSequence, InputContractError, OperatorSequence, Seminorm,
                   SeminormFamily, TrigPoly, Window, bohr_check,
                   omega_c_check)
from apseq.discretization import (_gate_sups, _minus_diagonal,
                                  _sine_resolvent, heat_problem, laplacian_1d,
                                  sine_basis, wave_problem)
from apseq.higher_order import build_B_from_D
from apseq.operator_model import real_or_complex
from apseq.resolvent import solve_degenerate_vb1
from conftest import axpy, per_k_sequence


def test_laplacian_1d_examples():
    assert np.array_equal(laplacian_1d(1, 1.0), [[-2.0]])
    L3 = laplacian_1d(3, 1.0)
    assert not L3.flags.writeable
    eigs = np.sort(np.linalg.eigvalsh(L3.real))
    expected = np.sort([-(2 - np.sqrt(2)), -2.0, -(2 + np.sqrt(2))])
    assert np.abs(eigs - expected).max() <= 1e-14
    L2 = laplacian_1d(2, 0.5)
    assert np.array_equal(L2, 4.0 * np.array([[-2.0, 1.0],
                                              [1.0, -2.0]]))


def test_laplacian_1d_closed_form_spectrum():
    n, h = 7, 0.3
    L = laplacian_1d(n, h)
    eigs = np.sort(np.linalg.eigvalsh(L.real))
    js = np.arange(1, n + 1)
    expected = np.sort(-(2 - 2 * np.cos(js * np.pi / (n + 1))) / h ** 2)
    assert np.abs(eigs - expected).max() <= 1e-11


EPS = np.finfo(float).eps


@pytest.mark.parametrize("h", [1.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_sine_basis_diagonalises_the_laplacian(n, h):
    L = laplacian_1d(n, h)
    q, mu = sine_basis(n, h)
    assert np.array_equal(q, q.T)
    assert np.abs(q @ q - np.eye(n)).max() <= n * EPS
    ev, V = np.linalg.eigh(L)
    order = np.argsort(mu)
    assert np.abs(mu[order] - ev).max() <= 2 * n * EPS * np.abs(ev).max()
    # the spectrum is simple, so eigh's vectors are Q's columns up to sign;
    # their error grows like eps ||L|| / gap, and the gap like 1/n^2
    assert np.abs(np.abs(q[:, order].T @ V) - np.eye(n)).max() <= n * n * EPS


@pytest.mark.parametrize("h", [1.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_sine_resolvent_matches_a_dense_solve(n, h):
    L = laplacian_1d(n, h)
    rule = _sine_resolvent(L, h)
    eye = np.eye(n)
    shifts = np.array([3.0, 2 + 0.5j, 0.01 + 3j])
    stack = _minus_diagonal(L, shifts[:, None, None])
    for b in shifts:
        a = _minus_diagonal(L, real_or_complex([[[b]]]))
        x = rule(Window(0, 0), a)
        x_lu = np.linalg.solve(a, eye)
        assert x.dtype == a.dtype == (float if b.imag == 0 else complex)
        assert np.abs(x - x_lu).max() <= 2 * n * EPS * np.abs(x_lu).max()
        # one refinement step brings the residual back to the LU solve's,
        # taken no lower than one unit roundoff
        res, res_lu = (np.abs(a[0] @ y[0] - eye).sum(axis=1).max()
                       for y in (x, x_lu))
        assert res <= 2 * max(res_lu, EPS)
    # a k has the same bits alone as in a stack
    x = rule(Window(0, 2), stack)
    assert all(rule(Window(k, k), stack[k:k + 1]).tobytes()
               == x[k:k + 1].tobytes() for k in range(3))


@pytest.mark.parametrize("shift", [
    [3.0, 0.25, 2.0 ** -30],
    [3 + 0.0j, complex(2.0, -0.0), 1 + 1j, 0.5 - 2j, complex(1e-300, -0.0)],
])
def test_shifted_laplacian_has_the_bits_of_the_broadcast_product(shift):
    L = laplacian_1d(5, 0.3)
    shift = np.array(shift)[:, None, None]
    a = _minus_diagonal(L, shift)
    want = L - shift * np.eye(5)
    assert a.dtype == want.dtype
    assert a.tobytes() == want.tobytes()


def test_heat_resolvent_solves_nothing(monkeypatch):
    hp = heat_problem(8, 1.0, BiSequence.constant([0.1]),
                      BiSequence.from_trig_poly(TrigPoly.of(
                          [(0.0, [3.0]), (1.0, [0.5])])),
                      grid_forcing(8), family=grid_family(8),
                      window=(-20, 20))

    def no_solve(*args):
        raise AssertionError("np.linalg.solve on the resolvent path")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert hp.Ainv_C.matrices(Window(-70, 70)).shape == (141, 8, 8)


def resolvent(L, b):
    """(b I - Lap)^{-1} by a dense solve."""
    eye = np.eye(len(L))
    return np.linalg.solve(b * eye - L, eye)


def test_resolvent_norm_example_n3():
    L = laplacian_1d(3, 1.0)
    R = resolvent(L, 1.0)
    # eigendecomposition oracle: norm = 1/(1 + 2 - sqrt(2))
    measured = np.linalg.norm(R, 2)
    assert measured == pytest.approx(1.0 / (3.0 - np.sqrt(2)), rel=1e-12)
    assert measured == pytest.approx(0.6306, abs=1e-4)


def test_resolvent_bound_random_b(rng):
    for n in (3, 10):
        L = laplacian_1d(n, 1.0)
        for _ in range(50):
            b = complex(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0))
            measured = np.linalg.norm(resolvent(L, b), 2)
            assert measured <= 1.0 / b.real + 1e-12


def grid_family(n):
    """Grid sup norm plus first- and second-difference sup seminorms."""
    return SeminormFamily.of([Seminorm.sup(), Seminorm.first_difference(),
                              Seminorm.second_difference()], n)


def grid_forcing(n):
    prof = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return BiSequence.from_trig_poly(TrigPoly.of(
        [(1.0, prof / 2), (-1.0, prof / 2)]))  # prof * cos(k)


def test_heat_zero_multiplier_static_elliptic_solve():
    # m = 0 degenerates the left side: u(k) = (b(k) - Lap)^{-1} f(k)
    n = 5
    L = laplacian_1d(n, 1.0)
    f = grid_forcing(n)
    hp = heat_problem(n, 1.0, BiSequence.constant([0.0]),
                      BiSequence.constant([3.0]), f, family=grid_family(n),
                      window=(-10, 10))
    v, u, rep = hp.solve(tol=1e-10)
    for k in (-10, -3, 0, 7):
        assert np.abs(v(k)).max() == 0.0
        direct = np.linalg.solve(3.0 * np.eye(n) - L, f(k))
        assert np.abs(u(k) - direct).max() <= 1e-12
    assert any("selection" in w for w in rep.warnings)


def test_heat_zero_forcing():
    n = 4
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]),
                      BiSequence.constant([2.0]), BiSequence.zeros(n),
                      family=grid_family(n), window=(-6, 6))
    _, u, _ = hp.solve()
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-6, 7))


def test_heat_rejects_nonpositive_re_b_on_the_probe():
    # b = 3 except b(-11) = -1: k = -11 lies left of the window but on the
    # gate window [window.start - 1, window.end + 1], which the solve reads
    b = axpy(1.0, BiSequence.constant([3.0]), 1.0,
             BiSequence.spike(-11, [-4.0]))
    with pytest.raises(InputContractError,
                       match=r"Re b\(-11\) = -1\.0 is not positive"):
        heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                     BiSequence.zeros(4), family=grid_family(4),
                     window=(-10, 10))


def test_gate_fails_a_nan_sup():
    # nan >= gate is False, so a nan sup passed the gate
    D = OperatorSequence.periodic([[[0.5]], [[np.nan]]],
                                  family=SeminormFamily.sup_only(1))
    with pytest.raises(InputContractError,
                       match=r"\{'sup': nan\} reach the gate 0\.9; failing "
                             r"k on the gate: \[-1, 1\]"):
        _gate_sups(D, Window(-2, 1), "sups")


def test_heat_reads_b_only_where_build_and_solve_read_it():
    # b(-60) = -1 lies left of the gate window [-11, 11], and the solve
    # reads b only from there rightwards: neither rejects it
    b = axpy(1.0, BiSequence.constant([3.0]), 1.0,
             BiSequence.spike(-60, [-4.0]))
    hp = heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                      BiSequence.zeros(4), family=grid_family(4),
                      window=(-10, 10))
    _, u, _ = hp.solve()
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-10, 11))


@pytest.mark.parametrize("per_k", [False, True])
def test_heat_reports_the_first_nonpositive_re_b(per_k):
    # two bad k in one certificate block of the gate window: the first is
    # named, also when b is a user rule read k by k within each window
    b = axpy(1.0, BiSequence.constant([3.0]), 1.0, axpy(
        1.0, BiSequence.spike(-8, [-4.0]), 1.0,
        BiSequence.spike(-3, [-5.0])))
    if per_k:
        b = per_k_sequence(1, b)
    with pytest.raises(InputContractError,
                       match=r"Re b\(-8\) = -1\.0 is not positive"):
        heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                     BiSequence.zeros(4), family=grid_family(4),
                     window=(-10, 10))


def test_heat_window_rules_match_per_k_generators():
    # non-constant m and b make B, A, Ainv and D generators; matrices read
    # k by k, through one-k windows, have the bits of whole windows, so the
    # solve does not depend on the order the k are read in.  With
    # OpenBLAS's Haswell kernels one gemm over a whole run of the
    # resolvent's (len * n, n) rows rounds a row by its place in it at
    # n = 33, though not at 6 or 32, so n = 33 catches such a fold.
    m = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [0.05]), (0.7, [0.01]), (-0.7, [0.01])]))
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))
    for n in (6, 32, 33):
        f = grid_forcing(n)
        runs = []
        for per_k in (False, True):
            hp = heat_problem(n, 1.0, m, b, f, family=grid_family(n),
                              window=(-30, 30))
            ops = (hp.B, hp.A, hp.Ainv_C, hp.D)
            assert {op.backend for op in ops} == {"generator"}
            if per_k:
                for op in ops:
                    for k in range(60, -80, -1):
                        op.matrix(k)
            _, u, rep = hp.solve(tol=1e-10)
            runs.append((hp.certificate_sup, rep.truncation_V,
                         u.window_values((-30, 30)).tobytes(),
                         [op.matrices(Window(-79, 60)).tobytes()
                          for op in ops]))
        assert runs[0] == runs[1], n


def test_heat_ap_data_residual_and_bohr():
    n = 5
    m = BiSequence.constant([0.1])
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))  # 3 + sin k
    f = grid_forcing(n)
    # the Bohr scan below consumes u on k_window + tau_range + L
    hp = heat_problem(n, 1.0, m, b, f, family=grid_family(n),
                      window=(-80, 120))
    v, u, rep = hp.solve(tol=1e-10)
    assert rep.residual_form == "vb_direct"
    assert max(rep.max_residual.values()) <= 1e-9
    assert all(s < 0.9 for s in hp.certificate_sup.values())

    sn = Seminorm.sup()
    k_window, tau_range, L = (-20, 20), (-60, 60), 40
    probe = bohr_check(f, sn, np.inf, k_window, tau_range, L)
    eps = probe.max_defect * (1 + 1e-9)
    rep_u = bohr_check(u, sn, 2 * eps, k_window, tau_range, L)
    assert rep_u.verdict


def test_heat_periodic_data_is_periodic():
    n = 4
    omega = 3
    m = BiSequence.omega_c([[0.05], [0.1], [0.02]], omega, 1.0)
    b = BiSequence.omega_c([[2.0], [3.0], [2.5]], omega, 1.0)
    base = np.outer([1.0, 0.5, -0.25], np.ones(n))
    f = BiSequence.omega_c(base, omega, 1.0)
    hp = heat_problem(n, 1.0, m, b, f, family=grid_family(n), window=(-12, 12))
    _, u, _ = hp.solve(tol=1e-10)
    fam = hp.family
    assert omega_c_check(u, omega, 1.0, fam, (-12, 10)) <= 2e-10


def test_heat_family_does_not_change_solution():
    # certificates gate truncation depth only; the solution agrees across
    # seminorm families to within the tolerance
    n = 5
    m = BiSequence.constant([0.1])
    b = BiSequence.constant([3.0])
    f = grid_forcing(n)
    tol = 1e-10
    hp_full = heat_problem(n, 1.0, m, b, f, family=grid_family(n),
                           window=(-8, 8))
    hp_sup = heat_problem(n, 1.0, m, b, f, family=SeminormFamily.sup_only(n),
                          window=(-8, 8))
    _, u1, _ = hp_full.solve(tol=tol)
    _, u2, _ = hp_sup.solve(tol=tol)
    worst = max(np.abs(u1(k) - u2(k)).max() for k in range(-8, 9))
    assert worst <= 2 * tol


def test_heat_rejects_bad_shift_or_large_multiplier():
    n = 3
    f = BiSequence.zeros(n)
    with pytest.raises(InputContractError):
        heat_problem(n, 1.0, BiSequence.constant([0.1]),
                     BiSequence.constant([-1.0]), f, family=grid_family(n),
                     window=(-4, 4))
    with pytest.raises(InputContractError):
        # multiplier so large the composite certificate reaches the gate
        heat_problem(n, 1.0, BiSequence.constant([10.0]),
                     BiSequence.constant([2.0]), f, family=grid_family(n),
                     window=(-4, 4))


@pytest.mark.parametrize("k", [-11, 13])
def test_wave_rejects_nonpositive_re_b_as_heat_does(k):
    # b = 3 except b(k) = -1.  k = -11 lies on the gate window [-11, 12],
    # which the build reads; k = 13 lies right of it, where only the solve
    # reads A0.  Either way evaluating A0(k) names k, as heat's A(k) does,
    # rather than failing on a certificate sup of the selection
    n = 4
    b = axpy(1.0, BiSequence.constant([3.0]), 1.0,
             BiSequence.spike(k, [-4.0]))
    with pytest.raises(InputContractError,
                       match=rf"Re b\({k}\) = -1\.0 is not positive"):
        wave_problem(n, 1.0, BiSequence.constant([0.05]),
                     BiSequence.constant([0.05]), b,
                     BiSequence.constant(np.ones(n)), family=grid_family(n),
                     window=(-10, 10)).solve()


def test_wave_gate_names_the_failing_k():
    # m2(3) = 0.95 puts A2(3) in the selection D(2), whose certificate
    # max(c1 + c2, c3) then reaches the gate
    n = 4
    m2 = axpy(1.0, BiSequence.constant([0.05]), 1.0,
              BiSequence.spike(3, [0.9]))
    with pytest.raises(InputContractError,
                       match=r"reach the gate 0\.9; failing k on the gate: "
                             r"\[2\]$"):
        wave_problem(n, 1.0, BiSequence.constant([0.05]), m2,
                     BiSequence.constant([3.0]), BiSequence.zeros(n),
                     family=grid_family(n), window=(-10, 10))


def test_wave_trivial_and_constant_fixed_point():
    n = 5
    L = laplacian_1d(n, 1.0)
    zero = BiSequence.zeros(n)
    wp = wave_problem(n, 1.0, BiSequence.constant([0.0]),
                      BiSequence.constant([0.0]), BiSequence.constant([3.0]),
                      zero, family=grid_family(n), window=(-6, 6))
    u, _ = wp.solve()
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-6, 7))

    ones = BiSequence.constant(np.ones(n))
    wp2 = wave_problem(n, 1.0, BiSequence.constant([0.05]),
                       BiSequence.constant([0.05]), BiSequence.constant([3.0]),
                       ones, family=grid_family(n), window=(-6, 6))
    u2, rep2 = wp2.solve(tol=1e-10)
    # constant fixed point: (m1 + m2 + b) u - Lap u = f, dense solve oracle
    expected = np.linalg.solve(3.1 * np.eye(n) - L, np.ones(n))
    assert np.abs(np.asarray(u2(0)) - expected).max() <= 1e-9
    assert max(rep2.max_residual.values()) <= 3e-10 * (
        1 + max(wp2.certificate_sup.values()))


def test_wave_static_elliptic_when_multipliers_vanish():
    n = 4
    L = laplacian_1d(n, 1.0)
    f = grid_forcing(n)
    wp = wave_problem(n, 1.0, BiSequence.constant([0.0]),
                      BiSequence.constant([0.0]), BiSequence.constant([2.0]),
                      f, family=grid_family(n), window=(-5, 5))
    u, _ = wp.solve(tol=1e-11)
    for k in (-4, 0, 3):
        direct = np.linalg.solve(2.0 * np.eye(n) - L, f(k))
        assert np.abs(u(k) - direct).max() <= 1e-10


def test_resolvent_block_selection_and_system_solve(rng):
    # block selection with resolvent entries feeding the derived-B system
    p, n = 2, 3
    fam = SeminormFamily.sup_only(n)
    L = laplacian_1d(n, 1.0)
    # every block is (b - Lap)^{-1} with b = 16 p^2: norm <= 1/b, so the
    # block budget holds
    D = OperatorSequence.constant(
        np.kron(np.ones((p, p)), resolvent(L, 16.0 * p * p)),
        family=fam.lifted(p))
    A_blocks = np.kron(np.eye(p), 2.0 * np.eye(n) - L)
    A = OperatorSequence.constant(A_blocks)
    B, warnings = build_B_from_D(A, D, p, base_family=fam, window=(-2, 2))
    assert not warnings  # sum of block resolvent norms <= 1/(2 p^2)
    vec_f = BiSequence.constant(np.ones(p * n))
    g = per_k_sequence(p * n, lambda k: B.matrix(k + 1) @ vec_f(k))
    u, rep = solve_degenerate_vb1(B, D, np.eye(p * n), g, vec_f, (-4, 4),
                                  tol=1e-10, A=A)
    assert max(rep.max_residual.values()) <= 1e-9


def test_heat_grid_varying_multiplier(rng):
    # m varies across the grid: certificates come from the composite
    # diag(m) resolvent matrices and stay sound for every seminorm
    n = 5
    profile = 0.02 + 0.08 * rng.random(n)
    m = BiSequence.constant(profile)
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))
    f = grid_forcing(n)
    hp = heat_problem(n, 1.0, m, b, f, family=grid_family(n), window=(-15, 15))
    v, u, rep = hp.solve(tol=1e-10)
    assert max(rep.max_residual.values()) <= 1e-9
    # sampled soundness of the composite selection certificates
    from apseq.resolvent import compose_selection
    D = compose_selection(hp.B, hp.Ainv_C, hp.family)
    for _ in range(200):
        k = int(rng.integers(-15, 15))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for sn in hp.family:
            lhs = sn(D.matrix(k) @ x)
            assert lhs <= D.certificate(sn.label, k) * sn(x) * (1 + 1e-12)


def test_vb_explicit_selection_recovery_route():
    # B-inverse recovery agrees with the selection formula
    # u(k) = Ainv_C(k) (v(k+1) - f(k))
    from apseq import solve_degenerate_vb
    fam = SeminormFamily.sup_only(1)
    B = OperatorSequence.constant([[0.4]], family=fam)
    A = OperatorSequence.constant([[1.0]])
    AinvC = OperatorSequence.constant([[1.0]], family=fam)
    f = BiSequence.constant([1.0])
    v, u, rep = solve_degenerate_vb(B, AinvC, [[1.0]], f, (-5, 5), A=A)
    assert "u recovered via b_inverse" in rep.warnings
    for k in range(-5, 6):
        u_sel = AinvC.matrix(k) @ (v(k + 1) - f(k))
        assert abs(u_sel[0] - u(k)[0]) <= 1e-9


def test_heat_sup_covers_every_certificate_the_solve_multiplies():
    # a trig b makes D a generator: its sup is the max over the k the solve
    # reads, which lie right of the window by the truncation depth
    n = 5
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]), b, grid_forcing(n),
                      family=grid_family(n), window=(-20, 20))
    read = []
    certificate_array = hp.D.certificate_array

    def recording(label, window):
        cs = certificate_array(label, window)
        read.extend((label, k, c) for k, c in zip(window, cs))
        return cs

    hp.D.certificate_array = recording
    _, _, rep = hp.solve(tol=1e-10)
    assert rep.uniqueness == "not certified"
    lo, hi = rep.sup_probe
    assert (lo, hi) == (min(k for _, k, _ in read), max(k for _, k, _ in read))
    assert lo == -21 and hi >= 20 + max(V for _, V in rep.truncation_V)
    for label, k, c in read:
        assert c <= rep.sup_certificates[label]


def test_constant_grid_data_certify_uniqueness():
    n = 5
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]),
                      BiSequence.constant([3.0]), grid_forcing(n),
                      family=grid_family(n), window=(-8, 8))
    _, _, rep = hp.solve(tol=1e-10)
    assert rep.uniqueness == "certified" and rep.sup_probe is None
    assert rep.sup_certificates == hp.certificate_sup
    wp = wave_problem(n, 1.0, BiSequence.constant([0.05]),
                      BiSequence.constant([0.05]), BiSequence.constant([3.0]),
                      grid_forcing(n), family=grid_family(n), window=(-8, 8))
    _, rep = wp.solve(tol=1e-10)
    assert rep.uniqueness == "certified" and rep.sup_probe is None


def test_heat_solve_derives_each_certificate_of_D_once(monkeypatch):
    # B and the recovery's B^{-1} are the only other certified sequences
    # (constant: one matrix per seminorm each); the backward solve reads
    # D's certificates
    from apseq import operator_model
    counts = {}
    bound = operator_model.induced_bound

    def counting(m, sn):
        counts[sn.label] = counts.get(sn.label, 0) + (
            1 if np.ndim(m) == 2 else len(m))
        return bound(m, sn)

    monkeypatch.setattr(operator_model, "induced_bound", counting)
    n = 5
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]), b, grid_forcing(n),
                      family=grid_family(n), window=(-20, 20))
    _, _, rep = hp.solve(tol=1e-10)
    assert hp.D.backend == "generator" and hp.B.backend == "constant"
    derived = hp.D._cert_cache
    assert counts == {lbl: 2 + len(derived) for lbl in hp.D.labels()}
    lo, hi = rep.sup_probe
    assert set(derived) >= set(range(lo, hi + 1))


def test_canned_wave_sup_is_the_induced_bound_of_its_selection():
    from apseq.cli import example_config
    from apseq.config import ScenarioConfig
    from apseq.operator_model import induced_bound
    from apseq.seq_core import Window
    n = 12
    cfg = ScenarioConfig.from_dict(
        example_config("wave", n, 1.0, Window(-20, 20), 1e-10))

    def seq(name):
        return cfg.sequence(cfg.sequences[name], dim=1)

    wp = wave_problem(n, 1.0, seq("m1"), seq("m2"), seq("b"),
                      cfg.sequence(cfg.forcing), family=cfg.family(n),
                      window=cfg.window)
    # D(0) = [[-m1 G, m2 I], [-G, 0]] with G = (3 I - Lap)^{-1}
    eye = np.eye(n)
    G = np.linalg.solve(3.0 * eye - laplacian_1d(n, 1.0), eye)
    D0 = wp.D.matrix(0)
    assert np.abs(D0 - np.block([[-0.05 * G, 0.05 * eye],
                                 [-G, 0 * eye]])).max() <= 1e-15
    lifted = wp.family.lifted(2)
    for sn in wp.family:
        sup = wp.certificate_sup[sn.label]
        assert sup == induced_bound(D0, lifted.by_label(sn.label))
        # the block-column bound max(c1 + c2, c3) is the sum c1 + c2 here,
        # |m2| = 0.05 below the three-piece sum c1 + c2 + c3
        three = (induced_bound(G, sn) + induced_bound(0.05 * G, sn)
                 + induced_bound(0.05 * eye, sn))
        assert abs(three - 0.05 - sup) <= 1e-12


def canned_heat(n):
    from apseq.cli import example_config
    from apseq.config import ScenarioConfig
    cfg = ScenarioConfig.from_dict(
        example_config("heat", n, 1.0, Window(-20, 20), 1e-10))
    return heat_problem(n, 1.0, cfg.sequence(cfg.sequences["m"], dim=1),
                        cfg.sequence(cfg.sequences["b"], dim=1),
                        cfg.sequence(cfg.forcing, dim=n),
                        family=cfg.family(n), window=cfg.window)


def test_canned_heat_holds_real_stacks():
    # L, m = 0.1 and b = 3 + sin k are real: A, Ainv_C and D hold float64
    hp = canned_heat(8)
    _, u, rep = hp.solve(tol=1e-10)
    assert hp.A.backend == hp.D.backend == "generator"
    for seq in (hp.A, hp.D):
        assert {s.dtype for _, s in seq._mat_cache.values()} == {
            np.dtype(np.float64)}
    assert hp.Ainv_C.matrices(Window(-3, 3)).dtype == np.float64
    assert hp.B.matrix(0).dtype == np.float64
    assert u.table_values.dtype == np.complex128
    assert max(rep.max_residual.values()) <= 1e-10


def test_canned_heat_series_runs_at_tol_over_c_of_B_inverse(tmp_path):
    # u = B^{-1} v with B = m I, m = 0.1: c(B^{-1}) = 1/m = 10 in every
    # seminorm of the family, so report.json records v's series at tol / 10
    import json

    from apseq import cli
    assert cli.main(["example", "heat", "--n", "8", "--out",
                     str(tmp_path)]) == 0
    solve = json.loads((tmp_path / "report.json").read_text())["solve"]
    assert solve["tol"] == 1e-10
    assert solve["extras"]["series_tol"] == pytest.approx(1e-11, rel=1e-13)


def test_heat_complex_shift_keeps_complex_stacks():
    n = 8
    b = BiSequence.from_trig_poly(TrigPoly.of([(0.0, [3.0]), (1.0, [0.5])]))
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]), b, grid_forcing(n),
                      family=grid_family(n), window=(-20, 20))
    _, _, rep = hp.solve(tol=1e-10)
    for seq in (hp.A, hp.D):
        assert {s.dtype for _, s in seq._mat_cache.values()} == {
            np.dtype(np.complex128)}
    assert hp.Ainv_C.matrices(Window(-3, 3)).dtype == np.complex128
    assert max(rep.max_residual.values()) <= 1e-10


def test_heat_solve_reads_each_k_of_the_forcing_once():
    # the probe of g = -D f reads each k of f once; the vb residual then
    # reads f on the window once more, itself, as a fresh vb_residual does
    from apseq.resolvent import vb_residual
    n = 8
    reads = []
    f = grid_forcing(n)

    def rule(w):
        reads.append(w)
        return f.window_values(w)

    b = BiSequence.from_trig_poly(TrigPoly.of([(0.0, [3.0]), (1.0, [0.5])]))
    window = Window(-20, 20)
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]), b,
                      BiSequence(n, rule), family=grid_family(n),
                      window=window)
    _, u, rep = hp.solve(tol=1e-10)
    *probe, residual_read = reads
    ks = sorted(k for w in probe for k in w)
    assert ks == list(range(rep.f_probe[0], rep.f_probe[1] + 1))
    assert residual_read == window
    assert rep.max_residual == vb_residual(hp.B, hp.A, np.eye(n), f, u,
                                           window, hp.family)
