"""Reductions against the exact rational solution of constant real data.

Each case is a scenario config; ``conftest.exact_constant_solution`` solves
it in Fraction arithmetic from the config's numbers, and the written tables
must lie within the caller's tol of it, at every k they hold.
"""

from fractions import Fraction

import numpy as np
import pytest

from apseq.config import ScenarioConfig, cmat
from apseq.higher_order import solve_second_order
from apseq.operator_model import OperatorSequence, checked_solve
from apseq.resolvent import (inverse_selection, solve_degenerate_vb,
                             solve_degenerate_vb1)
from conftest import exact_constant_solution


def constant(rows):
    return {"backend": "constant",
            "matrix": [[[x, 0.0] for x in row] for row in rows]}


def scenario(kind, operators, forcing, window=(-5, 5), **extra):
    return {"schema_version": 1, "kind": kind, "dim": len(forcing),
            "window": list(window), "seminorms": [{"kind": "sup"}],
            "operators": operators,
            "forcing": {"backend": "constant",
                        "value": [[x, 0.0] for x in forcing]}, **extra}


def max_error(rows, exact) -> float:
    """max over the written ``rows`` and their components of |written -
    exact|, the real part's error taken exactly before it is rounded."""
    return max(float(np.hypot(float(abs(Fraction(z.real) - e)), z.imag))
               for row in rows for z, e in zip(row, exact))


def parsed(config):
    cfg = ScenarioConfig.from_dict(config)
    C = cmat(config["operators"]["C"]) if "C" in config["operators"] \
        else np.eye(cfg.dim)
    return cfg, cfg.family(), C, cfg.sequence(cfg.forcing)


# C B u(k+1) = A u(k) + C f with B = 0.1, A = 0.1/0.9, so D = 0.9 and
# c(B^{-1}) = 10: u = -90, v = B u = -9
VB_REPRO = scenario("degenerate_vb", {
    "B": constant([[0.1]]), "A": constant([[0.1 / 0.9]]),
    "Ainv_C": constant([[9.0]]), "C": [[[1.0, 0.0]]]}, [1.0])


@pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-8])
def test_vb_recovered_u_meets_tol_on_the_exact_solution(tol):
    # u = B^{-1} v amplifies v's error by c(B^{-1}) = 10, so v's series
    # runs at tol / 10 and both written tables meet tol
    exact = exact_constant_solution(VB_REPRO)
    assert exact == [Fraction(1) / (Fraction(0.1) - Fraction(0.1 / 0.9))]
    assert abs(float(exact[0]) + 90) < 1e-12
    cfg, fam, C, f = parsed(VB_REPRO)
    v, u, rep = solve_degenerate_vb(
        cfg.operator("B", family=fam), cfg.operator("Ainv_C", family=fam), C,
        f, cfg.window, tol, A=cfg.operator("A", plain=True))
    assert rep.warnings == ["u recovered via b_inverse"]
    assert rep.extras["series_tol"] == pytest.approx(tol / 10, rel=1e-14)
    assert max_error(u.window_values((-5, 6)), exact) <= tol
    assert max_error(v.window_values((-6, 7)),
                     [Fraction(0.1) * exact[0]]) <= tol


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_vb_selection_recovery_meets_tol_on_the_exact_solution(tol):
    # B(k) is singular, so u(k) = A^{-1} (v(k+1) - f(k)) and the series
    # runs at tol over c(A^{-1}) = 50.25
    config = scenario("degenerate_vb", {
        "B": constant([[0.01, 0.0], [0.0, 0.0]]),
        "A": constant([[0.02, 0.001], [0.0, 0.2]])}, [1.0, -1.0])
    exact = exact_constant_solution(config)
    cfg, fam, C, f = parsed(config)
    A = cfg.operator("A", plain=True)
    ainv = inverse_selection(A, C, fam)
    v, u, rep = solve_degenerate_vb(cfg.operator("B", family=fam), ainv, C, f,
                                    cfg.window, tol, A=A)
    assert rep.warnings[-1] == "u recovered via selection"
    c_ainv = ainv.sup_bound("sup")
    assert c_ainv > 50
    assert rep.extras["series_tol"] == tol / c_ainv
    assert max_error(u.window_values((-5, 6)), exact) <= tol


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_vb1_meets_tol_on_the_exact_solution(tol):
    # B(k+1) C u(k+1) = A u(k) + C g with g = B f, solved as u = v
    config = scenario("degenerate_vb1", {
        "B": constant([[0.4, 0.1], [0.0, 0.3]]),
        "A": constant([[2.0, 0.0], [0.5, 3.0]])}, [1.0, 1.0],
        sequences={"g": {"backend": "constant",
                         "value": [[0.5, 0.0], [0.3, 0.0]]}})
    exact = exact_constant_solution(config)
    cfg, fam, C, f = parsed(config)
    A, B = cfg.operator("A", plain=True), cfg.operator("B", plain=True)
    ainv_bc = OperatorSequence.map(
        lambda w, a, b: checked_solve(a, b @ C, "A", w), A, B, shifts=(0, 1),
        family=fam)
    u, rep = solve_degenerate_vb1(B, ainv_bc, C, cfg.sequence(
        cfg.sequences["g"]), f, cfg.window, tol, A=A)
    assert rep.extras["series_tol"] == tol
    assert max_error(u.window_values((-5, 6)), exact) <= tol


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_second_order_meets_tol_on_the_exact_solution(tol):
    # u = -G head with c_G <= c_D < 1 on the lifted family: no tightening
    config = scenario("second_order", {
        "A0": constant([[4.0, 1.0], [0.0, 5.0]]),
        "A1": constant([[0.1, 0.0], [0.0, 0.1]]),
        "A2": constant([[0.1, 0.0], [0.05, 0.1]])}, [1.0, 2.0])
    exact = exact_constant_solution(config)
    cfg, fam, C, f = parsed(config)
    u, rep = solve_second_order(*(cfg.operator(n, plain=True)
                                  for n in ("A0", "A1", "A2")), C, f,
                                cfg.window, tol, family=fam)
    assert rep.extras["series_tol"] == tol
    assert max_error(u.window_values((-5, 7)), exact) <= tol
