import numpy as np
import pytest

from apseq import (BiSequence, InputContractError, OperatorSequence, Seminorm,
                   SeminormFamily, TrigPoly, Window, bohr_check,
                   omega_c_check, seq_axpy)
from apseq.discretization import (difference_family, heat_problem,
                                  laplacian_1d, wave_problem)
from apseq.higher_order import build_B_from_D
from apseq.resolvent import solve_degenerate_vb1


def test_laplacian_1d_examples():
    assert np.array_equal(laplacian_1d(1, 1.0).matrix, [[-2.0]])
    L3 = laplacian_1d(3, 1.0)
    eigs = np.sort(np.linalg.eigvalsh(L3.matrix.real))
    expected = np.sort([-(2 - np.sqrt(2)), -2.0, -(2 + np.sqrt(2))])
    assert np.abs(eigs - expected).max() <= 1e-14
    L2 = laplacian_1d(2, 0.5)
    assert np.array_equal(L2.matrix, 4.0 * np.array([[-2.0, 1.0],
                                                     [1.0, -2.0]]))


def test_laplacian_1d_closed_form_spectrum():
    n, h = 7, 0.3
    L = laplacian_1d(n, h)
    eigs = np.sort(np.linalg.eigvalsh(L.matrix.real))
    js = np.arange(1, n + 1)
    expected = np.sort(-(2 - 2 * np.cos(js * np.pi / (n + 1))) / h ** 2)
    assert np.abs(eigs - expected).max() <= 1e-11


def resolvent(L, b):
    """(b I - Lap)^{-1} by a dense solve."""
    eye = np.eye(L.size)
    return np.linalg.solve(b * eye - L.matrix, eye)


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
                      BiSequence.constant([3.0]), f, window=(-10, 10))
    v, u, rep = hp.solve((-10, 10), tol=1e-10)
    for k in (-10, -3, 0, 7):
        assert np.abs(v(k)).max() == 0.0
        direct = np.linalg.solve(3.0 * np.eye(n) - L.matrix, f(k))
        assert np.abs(u(k) - direct).max() <= 1e-12
    assert any("selection" in w for w in rep.warnings)


def test_heat_zero_forcing():
    n = 4
    hp = heat_problem(n, 1.0, BiSequence.constant([0.1]),
                      BiSequence.constant([2.0]), BiSequence.zeros(n),
                      window=(-6, 6))
    _, u, _ = hp.solve((-6, 6))
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-6, 7))


def test_heat_rejects_nonpositive_re_b_on_the_probe():
    # b = 3 except b(-11) = -1: k = -11 lies left of the window but on the
    # gate window [window.start - 1, window.end + 1], which the solve reads
    b = seq_axpy(1.0, BiSequence.constant([3.0]), 1.0,
                 BiSequence.spike(-11, [-4.0]))
    with pytest.raises(InputContractError,
                       match=r"Re b\(-11\) = -1\.0 is not positive"):
        heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                     BiSequence.zeros(4), window=(-10, 10))


def test_heat_reads_b_only_where_build_and_solve_read_it():
    # b(-60) = -1 lies left of the gate window [-11, 11], and the solve
    # reads b only from there rightwards: neither rejects it
    b = seq_axpy(1.0, BiSequence.constant([3.0]), 1.0,
                 BiSequence.spike(-60, [-4.0]))
    hp = heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                      BiSequence.zeros(4), window=(-10, 10))
    _, u, _ = hp.solve((-10, 10))
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-10, 11))


@pytest.mark.parametrize("per_k", [False, True])
def test_heat_reports_the_first_nonpositive_re_b(per_k):
    # two bad k in one certificate block of the gate window: the first is
    # named, also when b is a user rule read k by k within each window
    b = seq_axpy(1.0, BiSequence.constant([3.0]), 1.0, seq_axpy(
        1.0, BiSequence.spike(-8, [-4.0]), 1.0,
        BiSequence.spike(-3, [-5.0])))
    if per_k:
        b = BiSequence.from_function(1, b)
    with pytest.raises(InputContractError,
                       match=r"Re b\(-8\) = -1\.0 is not positive"):
        heat_problem(4, 1.0, BiSequence.constant([0.1]), b,
                     BiSequence.zeros(4), window=(-10, 10))


def test_heat_window_rules_match_per_k_generators():
    # non-constant m and b make B, A, Ainv and D generators; matrices read
    # k by k, through one-k windows, have the bits of whole windows, so the
    # solve does not depend on the order the k are read in
    n = 6
    m = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [0.05]), (0.7, [0.01]), (-0.7, [0.01])]))
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))
    f = grid_forcing(n)
    runs = []
    for per_k in (False, True):
        hp = heat_problem(n, 1.0, m, b, f, window=(-30, 30))
        ops = (hp.B, hp.A, hp.Ainv_C, hp.D)
        assert {op.backend for op in ops} == {"generator"}
        if per_k:
            for op in ops:
                for k in range(60, -80, -1):
                    op.matrix(k)
        _, u, rep = hp.solve((-30, 30), tol=1e-10)
        runs.append((hp.certificate_sup, rep.truncation_V,
                     u.window_values((-30, 30)).tobytes(),
                     [op.matrices(Window(-79, 60)).tobytes() for op in ops]))
    assert runs[0] == runs[1]


def test_heat_ap_data_residual_and_bohr():
    n = 5
    m = BiSequence.constant([0.1])
    b = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, [3.0]), (1.0, [-0.5j]), (-1.0, [0.5j])]))  # 3 + sin k
    f = grid_forcing(n)
    # the Bohr scan below consumes u on k_window + tau_range + L
    hp = heat_problem(n, 1.0, m, b, f, window=(-80, 120))
    v, u, rep = hp.solve((-80, 120), tol=1e-10)
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
    hp = heat_problem(n, 1.0, m, b, f, window=(-12, 12))
    _, u, _ = hp.solve((-12, 12), tol=1e-10)
    fam = difference_family(n)
    assert omega_c_check(u, omega, 1.0, fam, (-12, 10)) <= 2e-10


def test_heat_family_does_not_change_solution():
    # certificates gate truncation depth only; the solution agrees across
    # seminorm families to within the tolerance
    n = 5
    m = BiSequence.constant([0.1])
    b = BiSequence.constant([3.0])
    f = grid_forcing(n)
    tol = 1e-10
    hp_full = heat_problem(n, 1.0, m, b, f, family=difference_family(n),
                           window=(-8, 8))
    hp_sup = heat_problem(n, 1.0, m, b, f, family=SeminormFamily.sup_only(n),
                          window=(-8, 8))
    _, u1, _ = hp_full.solve((-8, 8), tol=tol)
    _, u2, _ = hp_sup.solve((-8, 8), tol=tol)
    worst = max(np.abs(u1(k) - u2(k)).max() for k in range(-8, 9))
    assert worst <= 2 * tol


def test_heat_rejects_bad_shift_or_large_multiplier():
    n = 3
    f = BiSequence.zeros(n)
    with pytest.raises(InputContractError):
        heat_problem(n, 1.0, BiSequence.constant([0.1]),
                     BiSequence.constant([-1.0]), f, window=(-4, 4))
    with pytest.raises(InputContractError):
        # multiplier so large the composite certificate reaches the gate
        heat_problem(n, 1.0, BiSequence.constant([10.0]),
                     BiSequence.constant([2.0]), f, window=(-4, 4))


def test_wave_trivial_and_constant_fixed_point():
    n = 5
    L = laplacian_1d(n, 1.0)
    zero = BiSequence.zeros(n)
    wp = wave_problem(n, 1.0, BiSequence.constant([0.0]),
                      BiSequence.constant([0.0]), BiSequence.constant([3.0]),
                      zero, window=(-6, 6))
    u, _ = wp.solve((-6, 6))
    assert all(np.abs(u(k)).max() == 0.0 for k in range(-6, 7))

    ones = BiSequence.constant(np.ones(n))
    wp2 = wave_problem(n, 1.0, BiSequence.constant([0.05]),
                       BiSequence.constant([0.05]), BiSequence.constant([3.0]),
                       ones, window=(-6, 6))
    u2, rep2 = wp2.solve((-6, 6), tol=1e-10)
    # constant fixed point: (m1 + m2 + b) u - Lap u = f, dense solve oracle
    expected = np.linalg.solve(3.1 * np.eye(n) - L.matrix, np.ones(n))
    assert np.abs(np.asarray(u2(0)) - expected).max() <= 1e-9
    assert max(rep2.max_residual.values()) <= 3e-10 * (
        1 + max(wp2.certificate_sup.values()))


def test_wave_static_elliptic_when_multipliers_vanish():
    n = 4
    L = laplacian_1d(n, 1.0)
    f = grid_forcing(n)
    wp = wave_problem(n, 1.0, BiSequence.constant([0.0]),
                      BiSequence.constant([0.0]), BiSequence.constant([2.0]),
                      f, window=(-5, 5))
    u, _ = wp.solve((-5, 5), tol=1e-11)
    for k in (-4, 0, 3):
        direct = np.linalg.solve(2.0 * np.eye(n) - L.matrix, f(k))
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
    A_blocks = np.kron(np.eye(p), 2.0 * np.eye(n) - L.matrix)
    A = OperatorSequence.constant(A_blocks)
    B, warnings = build_B_from_D(A, D, p, base_family=fam, window=(-2, 2))
    assert not warnings  # sum of block resolvent norms <= 1/(2 p^2)
    vec_f = BiSequence.constant(np.ones(p * n))
    g = BiSequence.from_function(p * n, lambda k: B.matrix(k + 1) @ vec_f(k))
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
    hp = heat_problem(n, 1.0, m, b, f, window=(-15, 15))
    v, u, rep = hp.solve((-15, 15), tol=1e-10)
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
                      window=(-20, 20))
    read = []
    certificate_array = hp.D.certificate_array

    def recording(label, window):
        cs = certificate_array(label, window)
        read.extend((label, k, c) for k, c in zip(window, cs))
        return cs

    hp.D.certificate_array = recording
    _, _, rep = hp.solve((-20, 20), tol=1e-10)
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
                      window=(-8, 8))
    _, _, rep = hp.solve((-8, 8), tol=1e-10)
    assert rep.uniqueness == "certified" and rep.sup_probe is None
    assert rep.sup_certificates == hp.certificate_sup
    wp = wave_problem(n, 1.0, BiSequence.constant([0.05]),
                      BiSequence.constant([0.05]), BiSequence.constant([3.0]),
                      grid_forcing(n), window=(-8, 8))
    _, rep = wp.solve((-8, 8), tol=1e-10)
    assert rep.uniqueness == "certified" and rep.sup_probe is None


def test_heat_solve_derives_each_certificate_of_D_once(monkeypatch):
    # B is the only other certified sequence (constant: one matrix per
    # seminorm); the backward solve reads D's certificates
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
                      window=(-20, 20))
    _, _, rep = hp.solve((-20, 20), tol=1e-10)
    assert hp.D.backend == "generator" and hp.B.backend == "constant"
    derived = hp.D._cert_cache
    assert counts == {lbl: 1 + len(derived) for lbl in hp.D.labels()}
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
                      cfg.sequence(cfg.forcing), window=cfg.window)
    # D(0) = [[-m1 G, m2 I], [-G, 0]] with G = (3 I - Lap)^{-1}
    eye = np.eye(n)
    G = np.linalg.solve(3.0 * eye - laplacian_1d(n, 1.0).matrix, eye)
    D0 = wp.selection.D.matrix(0)
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
