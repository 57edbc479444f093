"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from apseq import (BiSequence, ConvergencePreconditionError,
                   OperatorSequence, Seminorm,
                   SeminormFamily, TrigPoly, Window, besicovitch_distance, bohr_check,
                   build_companion, companion_selection, forward_oracle, omega_c_check, residual,
                   solve_degenerate_vb, solve_inclusion, solve_second_order,
                   solve_series)
from apseq.discretization import laplacian_1d
from apseq.resolvent import inverse_selection, solve_degenerate_vb1
from conftest import (axpy, dense_selection, inverse_of, per_k_sequence,
                      random_certified_operator, random_matrix)

SUP = Seminorm.sup()


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_oracle_equivalence():
    # 50 randomized problems, d <= 8, sup c <= 0.9, bounded f on [-20, 20]:
    # series vs forward iteration from k0 = -220, x0 = 0, within 1e-9
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 9))
        fam = SeminormFamily.sup_only(d)
        backend = ("constant", "periodic", "generator")[trial % 3]
        target = float(rng.uniform(0.25, 0.85))  # sup c^kappa <= 0.9
        A = random_certified_operator(rng, fam, target, backend=backend)
        # over the oracle's run-in and the window
        assert A.sup_over("sup", Window(-220, 20)) <= 0.9
        f = BiSequence.from_trig_poly(TrigPoly.of(
            [(float(rng.uniform(0, 3)), rng.standard_normal(d))
             for _ in range(2)]))
        window = (-20, 20)
        x, _ = solve_series(A, f, window, tol=1e-11)
        orc = forward_oracle(A, f, -220, np.zeros(d), window)
        diff = max(SUP(x(k) - orc(k)) for k in range(-20, 21))
        worst = max(worst, diff)
        assert diff <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(1, f"50 problems, worst series-vs-oracle gap {worst:.2e} "
               f"<= 1e-9 in {elapsed:.2f}s")


def test_criterion_02_residual_certification():
    # every solver kind at tol = 1e-10 satisfies
    # residual <= 3 tol (1 + sup c) on its window
    rng = np.random.default_rng(22)
    tol = 1e-10
    t0 = time.monotonic()
    window = (-10, 10)
    fam = SeminormFamily.sup_only(2)
    results = {}

    A = random_certified_operator(rng, fam, 0.7, backend="periodic")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.9, rng.standard_normal(2))]))
    _, rep = solve_series(A, f, window, tol=tol)
    results["first_order"] = (rep.max_residual, rep.sup_certificates)

    D = random_certified_operator(rng, fam, 0.6)
    _, rep = solve_inclusion(D, f, window, tol=tol)
    results["inclusion"] = (rep.max_residual, rep.sup_certificates)

    B = OperatorSequence.constant(np.diag([0.5, 0.4]), family=fam)
    Amat = OperatorSequence.constant(np.eye(2) + 0.2 * random_matrix(rng, 2))
    AinvC = inverse_selection(Amat, np.eye(2), fam)
    _, _, rep = solve_degenerate_vb(B, AinvC, np.eye(2), f, window, tol=tol,
                                    A=Amat)
    results["vb"] = (rep.max_residual, rep.sup_certificates)

    AinvBC = OperatorSequence.constant(
        np.linalg.solve(Amat.matrix(0), B.matrix(1)), family=fam)
    g = per_k_sequence(2, lambda k: B.matrix(k + 1) @ f(k))
    _, rep = solve_degenerate_vb1(B, AinvBC, np.eye(2), g, f, window, tol=tol,
                                  A=Amat)
    results["vb1"] = (rep.max_residual, rep.sup_certificates)

    A0 = OperatorSequence.constant([[-8.0]])
    A1 = OperatorSequence.constant([[1.0]])
    A2 = OperatorSequence.constant([[0.125]])
    f1 = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0]), (0.0, [0.3])]))
    _, rep = solve_second_order(A0, A1, A2, [[1.0]], f1, window, tol=tol,
                                family=SeminormFamily.sup_only(1))
    results["p2"] = (rep.max_residual, rep.sup_certificates)

    for kind, (res, sups) in results.items():
        bound = 3 * tol * (1 + max(sups.values()))
        assert max(res.values()) <= bound, (kind, res, bound)
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    _report(2, "residual <= 3 tol (1 + sup c) for "
               f"{sorted(results)} in {elapsed:.2f}s")


@pytest.mark.parametrize("omega", [1, 2, 3])
@pytest.mark.parametrize("c", [1.0, 0.5, 2.0, 1j], ids=str)
def test_criterion_03_omega_c_transfer(omega, c):
    # periodic coefficients + (omega, c)-periodic forcing give solutions
    # with periodicity defect <= 2e-10, across all four solver routes.
    # For |c| < 1 the forcing grows toward -inf, so the series only
    # converges when the certificates stay below |c|^(1/omega).
    rng = np.random.default_rng(33 + omega)
    tol = 1e-10
    window = (-9, 9)
    # the check reads x on [-9, 9 + omega]; a table holds one k past the
    # window it solves
    hull = (-9, 9 + omega - 1)
    worst = 0.0
    cert = 0.55 * min(1.0, abs(c)) ** (1.0 / omega)

    fam = SeminormFamily.sup_only(2)
    base = rng.standard_normal((omega, 2)) + 1j * rng.standard_normal((omega, 2))
    f = BiSequence.omega_c(base, omega, c)

    A = random_certified_operator(rng, fam, cert, backend="periodic",
                                  period=omega)
    x, _ = solve_series(A, f, hull, tol=tol)
    worst = max(worst, omega_c_check(x, omega, c, fam, window))

    D = random_certified_operator(rng, fam, cert, backend="periodic",
                                  period=omega)
    x, _ = solve_inclusion(D, f, hull, tol=tol)
    worst = max(worst, omega_c_check(x, omega, c, fam, window))

    B = OperatorSequence.periodic(
        [np.diag([0.3 + 0.05 * j, 0.35]) for j in range(omega)], family=fam)
    AinvC = random_certified_operator(rng, fam, min(0.5, cert),
                                      backend="periodic", period=omega)
    _, u, _ = solve_degenerate_vb(B, AinvC, np.eye(2), f, hull, tol=tol,
                                  A=inverse_of(AinvC))
    worst = max(worst, omega_c_check(u, omega, c, fam, window))

    fam1 = SeminormFamily.sup_only(1)
    base1 = rng.standard_normal((omega, 1))
    f1 = BiSequence.omega_c(base1, omega, c)
    # three-piece certificate 1/10 + 3/100 + 1/10 stays below every cert gate
    A0 = OperatorSequence.periodic([[[-10.0 - j]] for j in range(omega)])
    A1 = OperatorSequence.periodic([[[0.3 + 0.05 * j]] for j in range(omega)])
    A2 = OperatorSequence.periodic([[[0.1]] for _ in range(omega)])
    u, _ = solve_second_order(A0, A1, A2, [[1.0]], f1, hull, tol=tol,
                              family=fam1)
    worst = max(worst, omega_c_check(u, omega, c, fam1, window))

    assert worst <= 2e-10
    _report(3, f"omega={omega} c={c}: worst defect {worst:.2e} <= 2e-10 "
               "(first-order, inclusion, vb, p2)")


def test_criterion_04_non_uniqueness_witness():
    # A = I/2, f = 0: the zero solution and 2^{-k} x0 both have residual
    # exactly zero and both are (1, 1/2)-periodic with defect zero
    fam = SeminormFamily.sup_only(1)
    A = OperatorSequence.constant([[0.5]], family=fam)
    zero_f = BiSequence.zeros(1)
    x_zero, _ = solve_series(A, zero_f, (-25, 25))
    x_alt = BiSequence.omega_c([[1.0]], 1, 0.5)
    for sol in (x_zero, x_alt):
        assert residual(A, zero_f, sol, (-20, 20), fam)["sup"] == 0.0
        assert omega_c_check(sol, 1, 0.5, fam, (-20, 20)) == 0.0
    assert SUP(x_alt(0)) == 1.0 and SUP(x_zero(0)) == 0.0
    _report(4, "both 0 and 2^(-k) x0 solve A=I/2, f=0 exactly; both are "
               "(1, 1/2)-periodic with defect 0")


def test_criterion_05_uniqueness_diagnostic():
    rng = np.random.default_rng(55)
    fam = SeminormFamily.sup_only(3)
    # a global sup c <= 0.9: backward products fall below 1e-12 within
    # K <= 300, and the solve certifies uniqueness
    for target in (0.9, 0.7, 0.45):
        A = random_certified_operator(rng, fam, target, backend="periodic")
        decay = np.cumprod(A.certificate_array("sup", Window(-300, -1))[::-1])
        assert decay[-1] < 1e-12
        _, rep = solve_series(A, BiSequence.constant(np.ones(3)), (-5, 5))
        assert rep.uniqueness == "certified" and rep.sup_probe is None

    # the same bound on a generator rests on the probed window only
    A = random_certified_operator(rng, fam, 0.7, backend="generator")
    _, rep = solve_series(A, BiSequence.constant(np.ones(3)), (-5, 5))
    assert rep.uniqueness == "not certified" and rep.sup_probe is not None

    # c = 1: no decay, and the solve refuses
    ones = OperatorSequence.constant(np.eye(1), family=SeminormFamily.sup_only(1))
    assert ones.sup_bound("sup") == 1.0
    with pytest.raises(ConvergencePreconditionError):
        solve_series(ones, BiSequence.constant([1.0]), (0, 0))
    _report(5, "decay < 1e-12 within K <= 300 for a global sup c <= 0.9 "
               "and 'certified'; a generator reports 'not certified'; c = 1 "
               "is refused")


def test_criterion_06_bohr_transfer():
    # A = 0.5 I, f a {1, sqrt 2} trig polynomial: with eps the level at
    # which f passes on the stated windows, the solution passes at
    # eps' = 2 eps (1 + 1) / 1
    A = OperatorSequence.constant([[0.5]], family=SeminormFamily.sup_only(1))
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(1.0, [1.0]), (np.sqrt(2.0), [0.7])]))
    k_window, tau_range, L = (-100, 100), (-500, 500), 100
    probe = bohr_check(f, SUP, np.inf, k_window, tau_range, L)
    eps = probe.max_defect * (1 + 1e-9)
    assert bohr_check(f, SUP, eps, k_window, tau_range, L).verdict

    lo = k_window[0] + tau_range[0]
    hi = k_window[1] + tau_range[1] + L
    x, _ = solve_series(A, f, (lo, hi), tol=1e-12)
    eps_prime = 2 * eps * (1 + 1) / 1
    rep = bohr_check(x, SUP, eps_prime, k_window, tau_range, L)
    assert rep.verdict
    # the sharp transfer bound eps/(1-c) also holds
    sharp = bohr_check(x, SUP, 2 * eps * (1 + 1e-6) + 4e-12, k_window,
                       tau_range, L)
    assert sharp.verdict
    _report(6, f"f passes at eps={eps:.3e}; solution passes at "
               f"eps'={eps_prime:.3e} (and at the sharp 2 eps)")


def test_criterion_07_besicovitch_transfer():
    # a unit spike in the forcing moves the solution's Cesaro distance by
    # at most 3/l at every grid length
    A = OperatorSequence.constant([[0.5]], family=SeminormFamily.sup_only(1))
    base = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0]), (0.0, [0.4])]))
    spiked = axpy(1.0, base, 1.0, BiSequence.spike(0, [1.0]))
    grid = [64, 128, 256, 512]
    window = (-513, 514)
    x_base, _ = solve_series(A, base, window, tol=1e-12)
    x_spiked, _ = solve_series(A, spiked, window, tol=1e-12)
    rep = besicovitch_distance(x_spiked, x_base, SUP, 1.0, grid)
    for l, value in rep.values_by_l:
        assert value <= 3.0 / l, (l, value)
    _report(7, "spike response Cesaro averages "
            + ", ".join(f"{v:.2e}<=3/{l}" for l, v in rep.values_by_l))


def test_criterion_08_companion_structure():
    # blockwise assembly of the reduction selection equals dense block
    # multiplication to 1e-13 relative, p in {2, 3, 4}, 100 random draws
    rng = np.random.default_rng(88)
    draws = 0
    for p in (2, 3, 4):
        for _ in range(34):
            d = 2
            seqs = [OperatorSequence.constant(
                        random_matrix(rng, d) + 3 * np.eye(d))
                    for _ in range(p + 1)]
            C = random_matrix(rng, d)
            sys_ = build_companion(p, seqs, C)
            G = OperatorSequence.constant(
                np.linalg.solve(seqs[0].matrix(0), C))
            k = int(rng.integers(-6, 6))
            got = companion_selection(sys_, G).matrix(k)
            dense = dense_selection(sys_, k)
            scale = max(1.0, float(np.abs(dense).max()))
            assert np.abs(got - dense).max() / scale <= 1e-13
            draws += 1
    assert draws >= 100

    # p = 2 scalar instance A0=2, A1=1, A2=1, C=1. The dense-multiplication
    # oracle fixes the exact matrix [[-0.5, 1], [-0.5, 0]]; the printed form
    # with a global minus carries a sign misprint in its first row, so the
    # oracle value is the binding one (see decisions ledger).
    sys2 = build_companion(2, [OperatorSequence.constant([[2.0]]),
                               OperatorSequence.constant([[1.0]]),
                               OperatorSequence.constant([[1.0]])],
                           [[1.0]])
    G2 = OperatorSequence.constant([[0.5]])
    got = companion_selection(sys2, G2).matrix(0)
    dense = dense_selection(sys2, 0)
    assert np.abs(got - dense).max() <= 1e-15
    assert np.array_equal(got, np.array([[-0.5, 1.0], [-0.5, 0.0]]))
    _report(8, f"{draws} random draws match dense multiplication to 1e-13; "
               "p=2 scalar selection equals [[-0.5, 1], [-0.5, 0]] exactly")


def test_criterion_09_resolvent_bound():
    rng = np.random.default_rng(99)
    for n in (3, 10, 25):
        L = laplacian_1d(n, 1.0)
        eye = np.eye(n)
        mu1 = 2.0 - 2.0 * np.cos(np.pi / (n + 1))
        for _ in range(100):
            b = complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
            R = np.linalg.solve(b * eye - L, eye)
            measured = np.linalg.norm(R, 2)
            assert measured <= 1.0 / b.real * (1 + 1e-12)
        for _ in range(20):
            br = float(rng.uniform(0.1, 10.0))
            R = np.linalg.solve(br * eye - L, eye)
            measured = np.linalg.norm(R, 2)
            closed = 1.0 / (br + mu1)
            assert abs(measured - closed) / closed <= 1e-12
    _report(9, "||(b - Lap)^-1||_2 <= 1/Re b for n in {3, 10, 25}; real-b "
               "equality matches 1/(Re b + 2 - 2cos(pi/(n+1))) to 1e-12")


def test_criterion_10_heat_example_end_to_end(tmp_path):
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "apseq.cli",
         "example", "heat", "--n", "5", "--out", str(tmp_path / "heat")],
        capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "heat" / "report.json").read_text())
    assert max(report["solve"]["max_residual"].values()) <= 1e-9
    assert report["analysis"]["bohr"]["verdict"] is True
    assert elapsed <= 5.0
    _report(10, f"heat example: exit 0, residual "
                f"{max(report['solve']['max_residual'].values()):.2e} <= 1e-9, "
                f"bohr verdict true, {elapsed:.2f}s <= 5s")


def test_criterion_11_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "kind": "first_order",
        "dim": 2,
        "window": [-15, 15],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}, {"kind": "first_difference"}],
        "operators": {"A": {"backend": "periodic",
                            "matrices": [[[[0.4, 0.1], [0.0, 0.0]],
                                          [[0.1, 0.0], [0.3, 0.0]]],
                                         [[[0.2, -0.1], [0.1, 0.0]],
                                          [[0.0, 0.0], [0.5, 0.0]]]]}},
        "forcing": {"backend": "trig_poly",
                    "terms": [{"frequency": 1.0,
                               "coefficient": [[1.0, 0.0], [0.5, 0.5]]}]},
        "analysis": {"besicovitch": {"p": 1, "l_grid": [16, 32, 64, 128],
                                     "frequencies": [1.0]}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))

    def run(out):
        r = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "apseq.cli",
             "solve", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return ((Path(out) / "solution.csv").read_bytes(),
                (Path(out) / "report.json").read_bytes())

    c1, r1 = run(tmp_path / "o1")
    c2, r2 = run(tmp_path / "o2")
    assert c1 == c2
    assert r1 == r2
    _report(11, "byte-identical CSV and report.json across reruns")
