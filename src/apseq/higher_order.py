"""Block companion reduction of p-th order equations and the p = 2 solver.

The order-p equation

    C A_p(k+p) u(k+p) + ... + C A_1(k+1) u(k+1) + A_0(k) u(k) = C f(k)

is rewritten over the product state vec u(k) = [u(k), ..., u(k+p-1)] as

    boldC boldB(k+1) vec u(k+1) = boldA(k) vec u(k) + boldC vec f(k)

with boldA(k) = diag(-A_0(k), C, ..., C), boldB carrying the shifted
coefficients in its first row and identities on the subdiagonal, and
boldC = C on every block.  The reduction selection boldB(k) [boldA(k)]^{-1}
boldC keeps unit-size subdiagonal blocks for p >= 3, so its certificate
products do not decay; the series route therefore exists only for p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputContractError, NumericError, ShapeError
from .first_order import SolveReport, linear_residual
from .operator_model import (COND_LIMIT, Matrix, OperatorSequence, as_matrix,
                             checked_solve, induced_bound, window_blocks)
from .resolvent import ResolventSelection, amplification, solve_inclusion
from .seq_core import BiSequence, SeminormFamily, as_window


@dataclass
class CompanionSystem:
    """Block matrices of the order-p reduction over the product space Y^p."""

    p: int
    dim: int                      # base dimension d; blocks are d x d
    A_seqs: tuple[OperatorSequence, ...]   # A_0 .. A_p
    C: Matrix

    def __post_init__(self):
        self.C = as_matrix(self.C, self.dim)

    @property
    def block_dim(self) -> int:
        return self.p * self.dim

    def _zeros(self) -> np.ndarray:
        n = self.block_dim
        return np.zeros((n, n), dtype=np.complex128)

    def _set_block(self, m: np.ndarray, i: int, j: int, block) -> None:
        d = self.dim
        m[i * d:(i + 1) * d, j * d:(j + 1) * d] = block

    def bold_A(self, k: int) -> Matrix:
        """diag(-A_0(k), C, ..., C)."""
        m = self._zeros()
        self._set_block(m, 0, 0, -self.A_seqs[0].matrix(k))
        for i in range(1, self.p):
            self._set_block(m, i, i, self.C)
        return m

    def bold_B(self, j: int) -> Matrix:
        """First row A_1(j), A_2(j+1), ..., A_p(j+p-1); identities on the
        subdiagonal.  The argument is the sequence index itself, so the
        equation uses bold_B(k+1)."""
        m = self._zeros()
        for col in range(self.p):
            self._set_block(m, 0, col, self.A_seqs[col + 1].matrix(j + col))
        eye = np.eye(self.dim)
        for row in range(1, self.p):
            self._set_block(m, row, row - 1, eye)
        return m

    def bold_C(self) -> Matrix:
        m = self._zeros()
        for i in range(self.p):
            self._set_block(m, i, i, self.C)
        return m

    def lift(self, f: BiSequence) -> BiSequence:
        """vec f(k) = [f(k), 0, ..., 0]."""
        if f.dim != self.dim:
            raise ShapeError(f"forcing dim {f.dim} vs base dim {self.dim}")
        d = self.dim

        def window_fn(w):
            out = np.zeros((len(w), self.block_dim), dtype=np.complex128)
            out[:, :d] = f.window_values(w)
            return out

        return BiSequence(self.block_dim, window_fn)


def build_companion(p: int, A_seqs, C) -> CompanionSystem:
    """Assemble the reduction matrices for an order-p equation, p >= 2."""
    if p < 2:
        raise InputContractError(f"companion reduction needs order p >= 2, got {p}")
    seqs = tuple(A_seqs)
    if len(seqs) != p + 1:
        raise InputContractError(f"need p+1 = {p + 1} coefficient sequences, "
                                 f"got {len(seqs)}")
    dim = seqs[0].dim
    for s in seqs:
        if s.dim != dim:
            raise ShapeError("coefficient sequences have mixed dimensions")
    return CompanionSystem(p=p, dim=dim, A_seqs=seqs, C=as_matrix(C, dim))


def companion_D_block(sys: CompanionSystem, A0inv_C: OperatorSequence,
                      k: int) -> Matrix:
    """The reduction selection bold_B(k) [bold_A(k)]^{-1} bold_C, assembled
    blockwise: only the first row, the (2,1) resolvent block, and the
    subdiagonal identities are nonzero.  Equals the dense triple product.
    """
    if A0inv_C.dim != sys.dim:
        raise ShapeError("A0inv_C dimension mismatch")
    d, p = sys.dim, sys.p
    g = A0inv_C.matrix(k)                    # [A_0(k)]^{-1} C
    m = sys._zeros()
    sys._set_block(m, 0, 0, -(sys.A_seqs[1].matrix(k) @ g))
    for col in range(1, p):
        sys._set_block(m, 0, col, sys.A_seqs[col + 1].matrix(k + col))
    sys._set_block(m, 1, 0, -g)
    eye = np.eye(d)
    for row in range(2, p):
        sys._set_block(m, row, row - 1, eye)
    return m


def companion_D_dense(sys: CompanionSystem, k: int) -> Matrix:
    """Independent dense route: bold_B(k) @ solve(bold_A(k), bold_C)."""
    return sys.bold_B(k) @ np.linalg.solve(sys.bold_A(k), sys.bold_C())


def _a0_inverse_sequence(A0: OperatorSequence, C: Matrix) -> OperatorSequence:
    return OperatorSequence.map(lambda k, a0: checked_solve(a0, C, f"A0({k})"),
                                A0)


def second_order_selection(A0: OperatorSequence, A1: OperatorSequence,
                           A2: OperatorSequence, C, family: SeminormFamily
                           ) -> ResolventSelection:
    """The p = 2 companion selection bold_B(k) [bold_A(k)]^{-1} bold_C,
    certified by its induced bounds on the lifted family.

    In a block column the bound sums the blocks, so the certificate is
    max(c1 + c2, c3), with c1 for [A_0]^{-1} C, c2 for A_1 [A_0]^{-1} C
    and c3 for A_2 (at the index the selection block actually carries).
    Sup bounds are exact over the joint period of constant or periodic
    coefficients; when one of them is a generator the selection is one
    too, and its sups are taken where they are read.
    """
    C = as_matrix(C, A0.dim)
    sys = build_companion(2, [A0, A1, A2], C)
    G = _a0_inverse_sequence(A0, C)
    D = OperatorSequence.map(lambda k, *_: companion_D_block(sys, G, k),
                             G, A1, A2, shifts=(0, 0, 1), dim=2 * A0.dim,
                             family=family.lifted(2))
    return ResolventSelection(D, sys.bold_C())


def solve_second_order(A0: OperatorSequence, A1: OperatorSequence,
                       A2: OperatorSequence, C, f: BiSequence, window,
                       tol: float = 1e-10, family: SeminormFamily | None = None,
                       pad_right: int = 2,
                       selection: ResolventSelection | None = None
                       ) -> tuple[BiSequence, SolveReport]:
    """Solve C A_2(k+2) u(k+2) + C A_1(k+1) u(k+1) + A_0(k) u(k) = C f(k).

    Runs through ``second_order_selection`` (or the given ``selection``,
    built by it from the same coefficients); its certificate sups must
    stay below 1.  The scalar-level residual of the order-2 equation is
    certified on the returned u.
    """
    family = family or A0.family or A1.family or A2.family
    if family is None:
        raise InputContractError("need a seminorm family")
    window = as_window(window)
    C = as_matrix(C, A0.dim)
    sel = selection or second_order_selection(A0, A1, A2, C, family)
    vec_f = build_companion(2, [A0, A1, A2], C).lift(f)
    d = A0.dim

    series_tol = tol / (4.0 * amplification(family, C))
    u_pad = max(2, pad_right)  # the order-2 residual consumes u(k+2)
    v, report = solve_inclusion(sel, vec_f, window, tol=series_tol,
                                pad_right=u_pad + 1)
    report.tol = tol

    # vec u(k) = [bold_A(k)]^{-1} bold_C (v(k+1) - vec f(k)): block 1 is
    # -G(k) = -[A_0(k)]^{-1} C applied to the head, which is the (2,1)
    # block of D(k); block 2 passes through
    u_window = window.extended(right=u_pad)
    vec_u = (v.window_values(u_window.shifted(1))
             - vec_f.window_values(u_window))
    vec_u[:, :d] = (sel.D.matrices(u_window)[:, d:, :d]
                    @ vec_u[:, :d, None])[..., 0]
    u = BiSequence.from_table(u_window.start, vec_u[:, :d])

    shift_defect = float(np.abs(vec_u[:-1, d:] - vec_u[1:, :d]).max())
    report.residual_form = "second_order_direct"
    report.max_residual = second_order_residual(A0, A1, A2, C, f, u, window,
                                                family)
    report.extras["shift_consistency_defect"] = shift_defect
    return u, report


def second_order_residual(A0, A1, A2, C, f: BiSequence, u: BiSequence,
                          window, family: SeminormFamily) -> dict[str, float]:
    """max of kappa(C A2(k+2) u(k+2) + C A1(k+1) u(k+1) + A0(k) u(k) - C f(k))."""
    C = as_matrix(C, u.dim)
    return linear_residual(u, {2: (C, (A2, 2)), 1: (C, (A1, 1)),
                               0: ((A0, 0),)}, ((C,), f), window, family)


def companion_forward_oracle(sys: CompanionSystem, f: BiSequence, k0: int,
                             vec0, window) -> BiSequence:
    """Forward iteration of the companion system from vec u(k0) = vec0,
    solving boldC boldB(k+1) vec u(k+1) = boldA(k) vec u(k) + boldC vec f(k)
    step by step (needs invertible boldC boldB)."""
    window = as_window(window)
    if k0 > window.start:
        raise InputContractError("k0 must not exceed the window start")
    vec_f = sys.lift(f)
    bc = sys.bold_C()
    cur = np.asarray(vec0, dtype=np.complex128)
    if cur.shape != (sys.block_dim,):
        raise ShapeError(f"initial state needs shape ({sys.block_dim},)")
    values = np.empty((window.end - k0 + 1, sys.block_dim), dtype=np.complex128)
    values[0] = cur
    for i, k in enumerate(range(k0, window.end)):
        rhs = sys.bold_A(k) @ cur + bc @ vec_f(k)
        lhs = bc @ sys.bold_B(k + 1)
        cond = np.linalg.cond(lhs)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NumericError(f"companion step at k={k} is singular")
        cur = np.linalg.solve(lhs, rhs)
        values[i + 1] = cur
    return BiSequence.from_table(k0, values)


def build_B_from_D(A_mat: OperatorSequence, D_mat: OperatorSequence, p: int,
                   base_family: SeminormFamily | None = None,
                   window=None) -> tuple[OperatorSequence, list[str]]:
    """B(k+1) = A(k) D(k) as a lazy product sequence.

    When a base family and window are given, the per-block smallness budget
    sum_{i,j} ||D_ij(k)|| <= 1/(2 p^2) is checked with induced bounds and
    violations are reported as warnings; the certificate condition on the
    solve remains the binding gate either way.
    """
    if A_mat.dim != D_mat.dim:
        raise ShapeError("A and D dimensions differ")
    if p < 1 or A_mat.dim % p:
        raise InputContractError(f"dimension {A_mat.dim} is not p={p} blocks")
    budget = 1.0 / (2 * p * p)
    warnings: list[str] = []
    if base_family is not None and window is not None:
        d = A_mat.dim // p
        for w in window_blocks(as_window(window)):
            stack = D_mat.matrices(w)
            totals = [sum(induced_bound(
                stack[:, i * d:(i + 1) * d, j * d:(j + 1) * d], sn)
                for i in range(p) for j in range(p)) for sn in base_family]
            for n, k in enumerate(w):
                for sn, total in zip(base_family, totals):
                    if total[n] > budget:
                        warnings.append(
                            f"block budget violated at k={k}, seminorm "
                            f"{sn.label!r}: {total[n]:.4f} > {budget:.4f}")

    B = OperatorSequence.map(lambda j, a, d: a @ d, A_mat, D_mat,
                             shifts=(-1, -1))
    return B, warnings
