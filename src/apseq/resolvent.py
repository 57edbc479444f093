"""Inclusions and degenerate equations reduced to the first-order series.

The regularized inclusion

    C x(k+1) in Amlo(k) x(k) + C f(k)

is consumed only through a single-valued continuous selection
D(k) of [Amlo(k)]^{-1} C, under which it is equivalent to

    x(k) = D(k) x(k+1) - D(k) f(k).

Its bounded solution is the backward series

    x(k) = -sum_{v>=0} D(k) ... D(k+v-1) D(k+v) f(k+v),

which the series solver sums in one backward sweep.  The degenerate
equations

    C B(k+1) u(k+1) = A(k) u(k) + C f(k)           (vb)
    B(k+1) C u(k+1) = A(k) u(k) + C g(k)           (vb1)

reduce to inclusions with selections B(k) [A(k)]^{-1} C and
[A(k)]^{-1} B(k+1) C respectively.

One core, ``_solve_reduced``, solves every reduction; the inclusion
itself, vb, vb1 and order 2 are builders on it.  It tightens the series
tol by the sup bound of the recovery u <- v, so the written u meets tol;
orders p > 2 belong in it too.  A is required for vb and vb1, as their
residuals read it.

Every selection is an ``OperatorSequence`` derived by
``OperatorSequence.map``: one window rule over the stacks of its inputs,
such as the condition-checked stacked solve of ``inverse_selection`` or
the stacked product of ``compose_selection``.  The solvers read only the
selection D, which carries the regularizer C.  vb's B^{-1} is the same
``checked_solve`` rule over B; where it refuses a B(k), the recovery of u
takes the selection instead.  Each solve reads f only through g = -D f,
except a residual, which reads f itself.
"""

from __future__ import annotations

import numpy as np

from .errors import InputContractError, NumericError
from .first_order import SolveReport, _solve_series, linear_residual
from .operator_model import (OperatorSequence, as_matrix, checked_solve,
                             stack_product)
from .seq_core import BiSequence, SeminormFamily, as_window

CONSISTENCY_TOL = 1e-10  # relative defect allowed in B(k+1) C f(k) = C g(k)


def inverse_selection(A: OperatorSequence, C,
                      family: SeminormFamily | None = None,
                      name: str = "A") -> OperatorSequence:
    """D(k) = [A(k)]^{-1} C by condition-checked stacked dense solves,
    certified over ``family`` by the induced bounds of the solved matrices
    (plain without one).  A failing check names ``name``(k)."""
    C = as_matrix(C, A.dim)
    return OperatorSequence.map(lambda w, a: checked_solve(a, C, name, w), A,
                                family=family)


def solve_inclusion(D: OperatorSequence, f: BiSequence, window,
                    tol: float = 1e-10) -> tuple[BiSequence, SolveReport]:
    """Solve the inclusion through its selection D as the backward series
    of the equation x(k) = D(k) x(k+1) + g(k) with g = -D f.

    Returns x on [window.start - 1, window.end + 1] (table backend) with
    the selection-form residual x(k) - D(k) x(k+1) + D(k) f(k) measured
    over the requested window, from the rows of g the solve read.
    """
    _, x, report = _solve_reduced(
        D, f, window, tol, "inclusion_selection",
        lambda x, w, g_rows: inclusion_residual(D, f, x, w, D.family,
                                                g_rows))
    return x, report


def _solve_reduced(D: OperatorSequence, f: BiSequence, window, tol: float,
                   form: str, residual, reach: int = 1, recover=None
                   ) -> tuple[BiSequence, BiSequence, SolveReport]:
    """(v, u, report) of an equation reduced to the inclusion with
    selection D and forcing f.  u is v, or with ``recover = (R, rule)``
    ``rule(v, u_window, report)``, a window rule reading v one k right of
    u_window, whose error at k is R(k) times v's (R None: at most v's).
    v is solved at tol / max(1, R's certificate sups on u_window), the
    report's extras["series_tol"], so v and u both meet tol.  u holds
    ``window`` and the ``reach`` k past it that its ``residual(u, window,
    g_rows)`` reads, held as max_residual under ``form``.  g_rows are the
    rows of the reduced forcing g = -D f on the window, as the solve read
    them.  ``_solve_series`` derives a generator D once per probe round
    where its certificates and g read it."""
    window = as_window(window)
    if D.family is None:
        raise InputContractError("selection operator carries no seminorm family")
    if f.dim != D.dim:
        raise InputContractError(f"forcing dim {f.dim} vs operator dim {D.dim}")
    R, rule = recover or (None, None)
    u_window = window.extended(right=reach)
    sups = [] if R is None else [R.sup_over(lbl, u_window)
                                 for lbl in R.labels()]
    series_tol = tol / max([1.0, *sups])
    g = BiSequence(D.dim,
                   lambda w: -D.apply_rows(w.start, f.window_values(w)))
    v, report, g_rows = _solve_series(
        D, g, window.extended(left=1), series_tol,
        reach + (rule is not None), backward=True)
    report.window = (window.start, window.end)
    report.tol = tol
    report.extras["series_tol"] = series_tol
    u = v if rule is None else rule(v, u_window, report)
    report.residual_form = form
    report.max_residual = residual(u, window, g_rows[1:])
    return v, u, report


def inclusion_residual(D: OperatorSequence, f: BiSequence, x: BiSequence,
                       window, family: SeminormFamily,
                       g_rows: np.ndarray | None = None) -> dict[str, float]:
    """max over window and kappa of kappa(x(k) - D(k) x(k+1) + D(k) f(k)),
    the verifiable membership defect under the selection D.  ``g_rows``,
    the rows of -D f on the window when the caller holds them, stand in
    for D f, which is then not read again."""
    minus_D = (-1.0, (D, 0))
    rhs = (minus_D, f) if g_rows is None else ((), g_rows)
    return linear_residual(x, {0: (), 1: minus_D}, rhs, window, family)


def compose_selection(B: OperatorSequence, G: OperatorSequence,
                      family: SeminormFamily) -> OperatorSequence:
    """Lazy product sequence k -> B(k) G(k), certified by the induced bounds
    of the products, which are never above c_B(k) c_G(k).  Constant or
    periodic factors give exact sups; a generator product has none, and
    the solve probes it."""
    if B.dim != G.dim:
        raise InputContractError(f"dims differ: {B.dim} vs {G.dim}")
    return OperatorSequence.map(lambda w, b, g: b @ g, B, G, family=family)


def solve_degenerate_vb(B: OperatorSequence, Ainv_C: OperatorSequence,
                        C, f: BiSequence, window, tol: float = 1e-10, *,
                        A: OperatorSequence,
                        D: OperatorSequence | None = None
                        ) -> tuple[BiSequence, BiSequence, SolveReport]:
    """Solve C B(k+1) u(k+1) = A(k) u(k) + C f(k) via v(k) = B(k) u(k).

    Solves the substituted inclusion for v with the composite selection
    D(k) = B(k) Ainv_C(k) (or the given ``D``, built by
    ``compose_selection`` from the same B and Ainv_C).  Before the solve,
    B^{-1} on u's window, by ``checked_solve``, picks the recovery: u(k) =
    B(k)^{-1} v(k), or, when the check refuses some B(k) there (for a
    constant or periodic B, any residue, named in [0, period - 1]), the
    selection u(k) = Ainv_C(k) (v(k+1) - f(k)), with checked_solve's
    message noted.  v's series tol is tol over that operator's certificate
    sup there, when above 1.  The vb residual is certified directly on u,
    which covers the window and the k right of it.
    """
    window = as_window(window)
    family = Ainv_C.family or B.family
    if family is None:
        raise InputContractError("need a seminorm family on B or Ainv_C")
    C = as_matrix(C, B.dim)
    if D is None:
        D = compose_selection(B, Ainv_C, family)

    eye = np.eye(B.dim)
    u_window = window.extended(right=1)
    try:
        B_inv = OperatorSequence.map(
            lambda w, b: checked_solve(b, eye, "B", w), B, family=family)
        runs = B_inv.runs(u_window)
    except NumericError as exc:
        notes = [f"{exc}; B-inverse recovery abandoned",
                 "u recovered via selection"]
        R = Ainv_C if Ainv_C.family else OperatorSequence.map(
            lambda w, a: a, Ainv_C, family=family)

        def recover(v, u_window, _):
            return BiSequence._adopt_table(u_window.start, R.apply_rows(
                u_window.start, v.window_values(u_window.shifted(1))
                - f.window_values(u_window)))
    else:
        R, notes = B_inv, ["u recovered via b_inverse"]

        def recover(v, u_window, _):
            # stacked mat-vecs run by run keep the bits of each
            # B(k)^{-1} @ v(k); a constant B^{-1} is cast once
            v_vals = v.window_values(u_window)
            u_vals = np.empty_like(v_vals)
            for w, inv in runs:
                i = slice(w.start - u_window.start, w.end - u_window.start + 1)
                u_vals[i] = stack_product(inv, v_vals[i, :, None])[..., 0]
            return BiSequence._adopt_table(u_window.start, u_vals)

    v, u, report = _solve_reduced(
        D, f, window, tol, "vb_direct",
        lambda u, w, _: vb_residual(B, A, C, f, u, w, family),
        recover=(R, recover))
    report.warnings.extend(notes)
    return v, u, report


def vb_residual(B: OperatorSequence, A: OperatorSequence, C,
                f: BiSequence, u: BiSequence, window,
                family: SeminormFamily) -> dict[str, float]:
    """max of kappa(C B(k+1) u(k+1) - A(k) u(k) - C f(k))."""
    C = as_matrix(C, u.dim)
    return linear_residual(u, {1: (C, (B, 1)), 0: (-1.0, (A, 0))}, ((C,), f),
                           window, family)


def solve_degenerate_vb1(B: OperatorSequence, Ainv_BC: OperatorSequence,
                         C, g: BiSequence, f: BiSequence, window,
                         tol: float = 1e-10, *, A: OperatorSequence
                         ) -> tuple[BiSequence, SolveReport]:
    """Solve B(k+1) C u(k+1) = A(k) u(k) + C g(k) via the inclusion with
    selection D(k) = [A(k)]^{-1} B(k+1) C and forcing f.

    The supplied f must satisfy B(k+1) C f(k) = C g(k) on the window
    (checked to CONSISTENCY_TOL relative to 1 + the data scale).  u is the
    series' own solution, solved at tol; the vb1 residual is certified
    directly on it.
    """
    window = as_window(window)
    family = Ainv_BC.family
    if family is None:
        raise InputContractError("Ainv_BC carries no seminorm family")
    C = as_matrix(C, B.dim)

    rhs = g.window_values(window) @ C.T
    lhs = B.apply_rows(window.start + 1, f.window_values(window) @ C.T)
    scale = 1.0 + np.abs(rhs).max(axis=1)
    worst = float((np.abs(lhs - rhs).max(axis=1) / scale).max())
    if worst > CONSISTENCY_TOL:
        raise InputContractError(
            f"consistency B(k+1) C f(k) = C g(k) fails on the window: "
            f"max relative defect {worst:.3e} > {CONSISTENCY_TOL:.1e}")

    _, u, report = _solve_reduced(
        Ainv_BC, f, window, tol, "vb1_direct",
        lambda u, w, *_: vb1_residual(B, A, C, g, u, w, family))
    return u, report


def vb1_residual(B: OperatorSequence, A: OperatorSequence, C, g: BiSequence,
                 u: BiSequence, window, family: SeminormFamily) -> dict[str, float]:
    """max of kappa(B(k+1) C u(k+1) - A(k) u(k) - C g(k))."""
    C = as_matrix(C, u.dim)
    return linear_residual(u, {1: ((B, 1), C), 0: (-1.0, (A, 0))}, ((C,), g),
                           window, family)
