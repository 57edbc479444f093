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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputContractError, NumericError
from .first_order import SolveReport, linear_residual, solve_series
from .operator_model import (COND_LIMIT, Matrix, OperatorSequence, as_matrix,
                             checked_solve, induced_bound, window_blocks)
from .seq_core import BiSequence, SeminormFamily, Window, as_window

CONSISTENCY_TOL = 1e-10  # relative defect allowed in B(k+1) C f(k) = C g(k)


@dataclass
class ResolventSelection:
    """Single-valued selection D(k) of [Amlo(k)]^{-1} C, plus the regularizer."""

    D: OperatorSequence
    C: Matrix

    def __post_init__(self):
        self.C = as_matrix(self.C, self.D.dim)

    @staticmethod
    def from_matrix_inverse(A_mat: OperatorSequence, C,
                            family: SeminormFamily) -> "ResolventSelection":
        """D(k) = [A(k)]^{-1} C by condition-checked dense solves, with
        certificates derived as induced bounds of the solved matrices."""
        C = as_matrix(C, A_mat.dim)
        D = OperatorSequence.map(
            lambda k, a: checked_solve(a, C, f"A({k})"), A_mat, family=family)
        return ResolventSelection(D, C)


def solve_inclusion(sel: ResolventSelection, f: BiSequence, window,
                    tol: float = 1e-10,
                    pad_right: int = 1) -> tuple[BiSequence, SolveReport]:
    """Solve the inclusion as the backward series of the equation
    x(k) = D(k) x(k+1) + g(k) with g = -D f.

    Returns x on [window.start - 1, window.end + pad_right] (table backend)
    with the selection-form residual x(k) - D(k) x(k+1) + D(k) f(k) measured
    over the requested window.
    """
    window = as_window(window)
    D = sel.D
    if D.family is None:
        raise InputContractError("selection operator carries no seminorm family")
    if f.dim != D.dim:
        raise InputContractError(f"forcing dim {f.dim} vs operator dim {D.dim}")
    g = BiSequence(D.dim,
                   lambda w: -D.apply_rows(w.start, f.window_values(w)))
    x, report = solve_series(D, g, window.extended(left=1), tol=tol,
                             pad_right=pad_right, backward=True)
    report.window = (window.start, window.end)
    report.residual_form = "inclusion_selection"
    report.max_residual = inclusion_residual(sel, f, x, window, D.family)
    return x, report


def inclusion_residual(sel: ResolventSelection, f: BiSequence, x: BiSequence,
                       window, family: SeminormFamily) -> dict[str, float]:
    """max over window and kappa of kappa(x(k) - D(k) x(k+1) + D(k) f(k)),
    the verifiable membership defect under the selection."""
    minus_D = (-1.0, (sel.D, 0))
    return linear_residual(x, {0: (), 1: minus_D}, (minus_D, f), window,
                           family)


def compose_selection(B: OperatorSequence, G: OperatorSequence,
                      family: SeminormFamily) -> OperatorSequence:
    """Lazy product sequence k -> B(k) G(k), certified by the induced bounds
    of the products, which are never above c_B(k) c_G(k).  Constant or
    periodic factors give exact sups; a generator product has none, and
    the solve probes it."""
    if B.dim != G.dim:
        raise InputContractError(f"dims differ: {B.dim} vs {G.dim}")
    return OperatorSequence.map(lambda k, b, g: b @ g, B, G, family=family)


def amplification(family: SeminormFamily, C: Matrix, stacks=()) -> float:
    """max(1, the induced bounds of C and of every matrix in ``stacks``, an
    iterable of (len, d, d) stacks, over the family): the factor a series
    tolerance is tightened by."""
    return max(1.0, *(float(np.max(induced_bound(m, sn)))
                      for m in chain([C], stacks) for sn in family))


def _b_inverse(B: OperatorSequence, k: int,
               inverses: dict[int, Matrix | None]) -> Matrix | None:
    """B(k)^{-1}, or None when B(k) fails its condition check.
    ``inverses`` keeps one entry per distinct matrix (keyed by
    ``B.residue(k)``), so a constant B is checked and inverted once."""
    key = B.residue(k)
    if key not in inverses:
        try:
            inverses[key] = checked_solve(B.matrix(k), np.eye(B.dim))
        except NumericError:
            inverses[key] = None
    return inverses[key]


def solve_degenerate_vb(B: OperatorSequence, Ainv_C: OperatorSequence,
                        C, f: BiSequence, window, tol: float = 1e-10,
                        A: OperatorSequence | None = None,
                        pad_right: int = 1,
                        D: OperatorSequence | None = None
                        ) -> tuple[BiSequence, BiSequence, SolveReport]:
    """Solve C B(k+1) u(k+1) = A(k) u(k) + C f(k) via v(k) = B(k) u(k).

    Solves the substituted inclusion for v with the composite selection
    D(k) = B(k) Ainv_C(k) (or the given ``D``, built by
    ``compose_selection`` from the same B and Ainv_C).  The recovery route
    is chosen automatically: u is recovered from v by inverting B, or,
    when some B(k) fails its condition check, through the selection
    u(k) = Ainv_C(k) (v(k+1) - f(k)).  With A supplied the vb
    residual is certified directly on u; otherwise the v-level inclusion
    residual is reported.
    """
    window = as_window(window)
    family = Ainv_C.family or B.family
    if family is None:
        raise InputContractError("need a seminorm family on B or Ainv_C")
    C = as_matrix(C, B.dim)
    if D is None:
        D = compose_selection(B, Ainv_C, family)
    sel = ResolventSelection(D, C)

    # tighten the series tolerance by the measured residual amplification
    # of A(k) B(k)^{-1}; a B(k) that fails its check contributes zero
    inverses: dict[int, Matrix | None] = {}
    zero = np.zeros((B.dim, B.dim), dtype=np.complex128)

    def b_inverses(w: Window) -> np.ndarray:
        return np.stack([zero if m is None else m
                         for m in (_b_inverse(B, k, inverses) for k in w)])

    products = () if A is None else (A.matrices(w) @ b_inverses(w)
                                     for w in window_blocks(window))
    series_tol = tol / (2.0 * amplification(family, C, products))

    v, report = solve_inclusion(sel, f, window, tol=series_tol,
                                pad_right=pad_right + 1)
    report.tol = tol

    # u recovery: u(k) = B(k)^{-1} v(k) as stacked mat-vecs, which keep the
    # bits of each B(k)^{-1} @ v(k)
    u_window = window.extended(right=pad_right)
    bad = next((k for k in u_window if _b_inverse(B, k, inverses) is None),
               None)
    if bad is None:
        route = "b_inverse"
        u_vals = np.concatenate([
            (b_inverses(w) @ v.window_values(w)[..., None])[..., 0]
            for w in window_blocks(u_window)])
    else:
        report.warnings.append(
            f"B({bad}) condition estimate above {COND_LIMIT:.1e}; "
            f"B-inverse recovery abandoned")
        route = "selection"
        u_vals = Ainv_C.apply_rows(u_window.start,
                                   v.window_values(u_window.shifted(1))
                                   - f.window_values(u_window))

    u = BiSequence.from_table(u_window.start, u_vals)
    report.warnings.append(f"u recovered via {route}")
    if A is not None:
        report.residual_form = "vb_direct"
        report.max_residual = vb_residual(B, A, C, f, u, window, family)
    return v, u, report


def vb_residual(B: OperatorSequence, A: OperatorSequence, C, f: BiSequence,
                u: BiSequence, window, family: SeminormFamily) -> dict[str, float]:
    """max of kappa(C B(k+1) u(k+1) - A(k) u(k) - C f(k))."""
    C = as_matrix(C, u.dim)
    return linear_residual(u, {1: (C, (B, 1)), 0: (-1.0, (A, 0))}, ((C,), f),
                           window, family)


def solve_degenerate_vb1(B: OperatorSequence, Ainv_BC: OperatorSequence,
                         C, g: BiSequence, f: BiSequence, window,
                         tol: float = 1e-10, A: OperatorSequence | None = None,
                         pad_right: int = 1) -> tuple[BiSequence, SolveReport]:
    """Solve B(k+1) C u(k+1) = A(k) u(k) + C g(k) via the inclusion with
    selection D(k) = [A(k)]^{-1} B(k+1) C and forcing f.

    The supplied f must satisfy B(k+1) C f(k) = C g(k) on the window
    (checked to CONSISTENCY_TOL relative to 1 + the data scale); with A
    supplied the vb1 residual is certified directly on u.
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

    stacks = () if A is None else map(A.matrices, window_blocks(window))
    series_tol = tol / (2.0 * amplification(family, C, stacks))

    sel = ResolventSelection(Ainv_BC, C)
    u, report = solve_inclusion(sel, f, window, tol=series_tol,
                                pad_right=pad_right)
    report.tol = tol
    if A is not None:
        report.residual_form = "vb1_direct"
        report.max_residual = vb1_residual(B, A, C, g, u, window, family)
    return u, report


def vb1_residual(B: OperatorSequence, A: OperatorSequence, C, g: BiSequence,
                 u: BiSequence, window, family: SeminormFamily) -> dict[str, float]:
    """max of kappa(B(k+1) C u(k+1) - A(k) u(k) - C g(k))."""
    C = as_matrix(C, u.dim)
    return linear_residual(u, {1: ((B, 1), C), 0: (-1.0, (A, 0))}, ((C,), g),
                           window, family)
