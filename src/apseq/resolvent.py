"""Inclusions and degenerate equations reduced to the first-order series.

The regularized inclusion

    C x(k+1) in Amlo(k) x(k) + C f(k)

is consumed only through a single-valued continuous selection
D(k) of [Amlo(k)]^{-1} C, under which it is equivalent to

    x(k) = D(k) x(k+1) - D(k) f(k).

Reversing time (k -> -k) turns this into a forward first-order equation

    v(k+1) = D(-k-1) v(k) - D(-k-1) f(-k-1),      v(k) = x(-k),

which the series solver handles; undoing the substitution yields x.  The
degenerate equations

    C B(k+1) u(k+1) = A(k) u(k) + C f(k)           (vb)
    B(k+1) C u(k+1) = A(k) u(k) + C g(k)           (vb1)

reduce to inclusions with selections B(k) [A(k)]^{-1} C and
[A(k)]^{-1} B(k+1) C respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, NumericError
from .first_order import SolveReport, linear_residual, solve_series
from .operator_model import (COND_LIMIT, Matrix, OperatorSequence,
                             V_MAX_DEFAULT, as_matrix, checked_solve,
                             induced_bound)
from .seq_core import BiSequence, SeminormFamily, Window, as_window


@dataclass
class ResolventSelection:
    """Single-valued selection D(k) of [Amlo(k)]^{-1} C, plus the regularizer.

    description records how D was built ("analytic inverse" or
    "numeric linear solve").
    """

    D: OperatorSequence
    C: Matrix
    description: str = "analytic inverse"

    def __post_init__(self):
        self.C = as_matrix(self.C, self.D.dim)

    @staticmethod
    def from_matrix_inverse(A_mat: OperatorSequence, C,
                            family: SeminormFamily,
                            sup_probe=None) -> "ResolventSelection":
        """D(k) = [A(k)]^{-1} C by condition-checked dense solves, with
        certificates derived as induced bounds of the solved matrices."""
        C = as_matrix(C, A_mat.dim)
        D = OperatorSequence.map(
            lambda k, a: checked_solve(a, C, f"A({k})"), A_mat, family=family,
            sup_probe=sup_probe if sup_probe is not None else A_mat.sup_probe)
        return ResolventSelection(D, C, "numeric linear solve")


def selection_consistency(sel: ResolventSelection, A_mat: OperatorSequence,
                          ks, samples: int = 16, seed: int = 0) -> float:
    """max relative defect of A(k) D(k) x = C x over sampled k and random x."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in ks:
        AD = A_mat.matrix(k) @ sel.D.matrix(k)
        for _ in range(samples):
            x = rng.standard_normal(sel.D.dim) + 1j * rng.standard_normal(sel.D.dim)
            lhs = AD @ x
            rhs = sel.C @ x
            scale = max(1.0, float(np.abs(rhs).max()))
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return worst


def _time_reversed_operator(D: OperatorSequence) -> OperatorSequence:
    """j -> D(-j-1) with certificates and sup bounds carried along."""
    certs = {lbl: (lambda j, _l=lbl: D.certificate(_l, -j - 1))
             for lbl in D.certificates}
    return OperatorSequence(D.dim, lambda j: D.matrix(-j - 1), "generator",
                            family=D.family, certificates=certs,
                            sup_bounds=dict(D.sup_bounds))


def solve_inclusion(sel: ResolventSelection, f: BiSequence, window,
                    tol: float = 1e-10, V_max: int = V_MAX_DEFAULT,
                    pad_right: int = 1,
                    threads: int | None = None) -> tuple[BiSequence, SolveReport]:
    """Solve the inclusion through the time-reversed first-order problem.

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
    pad_right = max(1, pad_right)

    A_rev = _time_reversed_operator(D)
    f_rev = BiSequence.from_function(
        D.dim, lambda j: -(D.matrix(-j - 1) @ f(-j - 1)))
    inner = Window(-(window.end + pad_right), -window.start)
    v, inner_report = solve_series(A_rev, f_rev, inner, tol=tol, V_max=V_max,
                                   pad_right=1, threads=threads)
    # v table covers [inner.start, inner.end + 1]; x(k) = v(-k)
    tbl = v.table_values[::-1]
    x = BiSequence.from_table(-(inner.end + 1), tbl)

    report = SolveReport(window=(window.start, window.end), tol=tol)
    report.residual_form = "inclusion_selection"
    report.truncation_V = sorted(((-j, V) for j, V in inner_report.truncation_V))
    report.tail_bounds = {
        lbl: sorted((-j, b) for j, b in pairs)
        for lbl, pairs in inner_report.tail_bounds.items()}
    report.f_sup = inner_report.f_sup
    report.f_probe = inner_report.f_probe
    report.sup_certificates = inner_report.sup_certificates
    report.uniqueness = inner_report.uniqueness
    report.uniqueness_by_label = inner_report.uniqueness_by_label
    report.max_residual = inclusion_residual(sel, f, x, window, D.family)
    report.inner = inner_report
    return x, report


def inclusion_residual(sel: ResolventSelection, f: BiSequence, x: BiSequence,
                       window, family: SeminormFamily) -> dict[str, float]:
    """max over window and kappa of kappa(x(k) - D(k) x(k+1) + D(k) f(k)),
    the verifiable membership defect under the selection."""
    minus_D = (-1.0, (sel.D, 0))
    return linear_residual(x, {0: (), 1: minus_D}, (minus_D, f), window,
                           family)


def forward_form_residual(A_mat: OperatorSequence, C, f: BiSequence,
                          x: BiSequence, window,
                          family: SeminormFamily) -> dict[str, float]:
    """max of kappa(C x(k+1) - A(k) x(k) - C f(k)): the forward form of the
    inclusion for single-valued A, used for round-trip checks."""
    C = as_matrix(C, x.dim)
    return linear_residual(x, {1: (C,), 0: (-1.0, (A_mat, 0))}, ((C,), f),
                           window, family)


def compose_selection(B: OperatorSequence, G: OperatorSequence,
                      family: SeminormFamily) -> OperatorSequence:
    """Lazy product sequence k -> B(k) G(k) with product-rule certificates
    c_B(k) * c_G(k) (sound: kappa(B G x) <= c_B kappa(G x) <= c_B c_G kappa(x))."""
    if B.dim != G.dim:
        raise InputContractError(f"dims differ: {B.dim} vs {G.dim}")
    labels = set(B.certificates) & set(G.certificates)
    needed = {sn.label for sn in family}
    if not needed <= labels:
        raise InputContractError(
            f"factors lack certificates for seminorms {sorted(needed - labels)}")
    certs = {lbl: (lambda k, _l=lbl: B.certificate(_l, k) * G.certificate(_l, k))
             for lbl in labels}
    sups = {lbl: B.sup_bound(lbl) * G.sup_bound(lbl) for lbl in labels}
    return OperatorSequence.map(lambda k, b, g: b @ g, B, G, family=family,
                                certificates=certs, sup_bounds=sups)


def _b_inverse(B: OperatorSequence, k: int, rhs, checked: dict[int, bool]):
    """B(k)^{-1} rhs, or None when B(k) fails its condition check.
    ``checked`` keeps each k's verdict, so every B(k) is checked once."""
    if k in checked:
        return np.linalg.solve(B.matrix(k), rhs) if checked[k] else None
    try:
        out = checked_solve(B.matrix(k), rhs)
    except NumericError:
        out = None
    checked[k] = out is not None
    return out


def solve_degenerate_vb(B: OperatorSequence, Ainv_C: OperatorSequence,
                        C, f: BiSequence, window, tol: float = 1e-10,
                        V_max: int = V_MAX_DEFAULT, A: OperatorSequence | None = None,
                        u_recovery: str = "auto", pad_right: int = 1,
                        threads: int | None = None,
                        D: OperatorSequence | None = None
                        ) -> tuple[BiSequence, BiSequence | None, SolveReport]:
    """Solve C B(k+1) u(k+1) = A(k) u(k) + C f(k) via v(k) = B(k) u(k).

    Solves the substituted inclusion for v with the composite selection
    D(k) = B(k) Ainv_C(k) (or the given ``D``, built by
    ``compose_selection`` from the same B and Ainv_C).  u is recovered
    from v by inverting B (the primary route, gated on a condition
    estimate) or, when B is singular and u_recovery="auto", through the
    selection u(k) = Ainv_C(k) (v(k+1) - f(k)).  With A supplied the vb
    residual is certified directly on u; otherwise the v-level inclusion
    residual is reported.
    """
    window = as_window(window)
    family = Ainv_C.family or B.family
    if family is None:
        raise InputContractError("need a seminorm family on B or Ainv_C")
    if u_recovery not in ("auto", "b_inverse_only", "selection"):
        raise InputContractError(f"unknown u_recovery {u_recovery!r}")
    C = as_matrix(C, B.dim)
    if D is None:
        D = compose_selection(B, Ainv_C, family)
    sel = ResolventSelection(D, C, "composite B * AinvC")

    # tighten the inner tolerance by the measured residual amplification
    amp = max(induced_bound(C, sn) for sn in family)
    checked: dict[int, bool] = {}
    if A is not None:
        for k in window:
            binv_at = _b_inverse(B, k, np.eye(B.dim), checked)
            if binv_at is not None:
                ab = A.matrix(k) @ binv_at
                amp = max(amp, max(induced_bound(ab, sn) for sn in family))
    inner_tol = tol / (2.0 * max(1.0, amp))

    v, report = solve_inclusion(sel, f, window, tol=inner_tol, V_max=V_max,
                                pad_right=pad_right + 1, threads=threads)
    report.tol = tol

    # u recovery
    u_window = window.extended(right=pad_right)
    route = None
    u_vals = None
    if u_recovery in ("auto", "b_inverse_only"):
        u_vals = np.empty((len(u_window), B.dim), dtype=np.complex128)
        route = "b_inverse"
        for i, k in enumerate(u_window):
            got = _b_inverse(B, k, np.asarray(v(k)), checked)
            if got is None:
                u_vals = None
                route = None
                report.warnings.append(
                    f"B({k}) condition estimate above {COND_LIMIT:.1e}; "
                    f"B-inverse recovery abandoned")
                break
            u_vals[i] = got
    if u_vals is None and u_recovery in ("auto", "selection"):
        route = "selection"
        u_vals = Ainv_C.apply_rows(u_window.start,
                                   v.window_values(u_window.shifted(1))
                                   - f.window_values(u_window))
    if u_vals is None:
        report.warnings.append("u not recovered; returning v only")
        return v, None, report

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
                         tol: float = 1e-10, V_max: int = V_MAX_DEFAULT,
                         A: OperatorSequence | None = None,
                         consistency_tol: float = 1e-10, pad_right: int = 1,
                         threads: int | None = None
                         ) -> tuple[BiSequence, SolveReport]:
    """Solve B(k+1) C u(k+1) = A(k) u(k) + C g(k) via the inclusion with
    selection D(k) = [A(k)]^{-1} B(k+1) C and forcing f.

    The supplied f must satisfy B(k+1) C f(k) = C g(k) on the window
    (checked, relative to 1 + the data scale); with A supplied the vb1
    residual is certified directly on u.
    """
    window = as_window(window)
    family = Ainv_BC.family
    if family is None:
        raise InputContractError("Ainv_BC carries no seminorm family")
    C = as_matrix(C, B.dim)

    worst = 0.0
    for k in window:
        lhs = B.matrix(k + 1) @ (C @ np.asarray(f(k)))
        rhs = C @ np.asarray(g(k))
        scale = 1.0 + float(np.abs(rhs).max())
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    if worst > consistency_tol:
        raise InputContractError(
            f"consistency B(k+1) C f(k) = C g(k) fails on the window: "
            f"max relative defect {worst:.3e} > {consistency_tol:.1e}")

    amp = max(induced_bound(C, sn) for sn in family)
    if A is not None:
        for k in window:
            amp = max(amp, max(induced_bound(A.matrix(k), sn)
                               for sn in family))
    inner_tol = tol / (2.0 * max(1.0, amp))

    sel = ResolventSelection(Ainv_BC, C, "selection Ainv * B(k+1) * C")
    u, report = solve_inclusion(sel, f, window, tol=inner_tol, V_max=V_max,
                                pad_right=pad_right, threads=threads)
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
