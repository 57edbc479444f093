"""Finite-difference Dirichlet Laplacians, resolvents, and the semi-discrete
heat and wave example problems on interior grids.

The grid operator is the desk-scale stand-in for the Dirichlet Laplacian:
symmetric, negative definite, with the 1-D spectrum
-(2 - 2 cos(j pi / (n+1))) / h^2.

Seminorm families for these problems follow the derivative-seminorm idiom:
grid sup norm plus first- and second-difference sup seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError
from .first_order import SolveReport
from .higher_order import second_order_selection, solve_second_order
from .operator_model import Matrix, OperatorSequence
from .resolvent import (ResolventSelection, compose_selection,
                        solve_degenerate_vb)
from .seq_core import BiSequence, Seminorm, SeminormFamily, Window, as_window


@dataclass(frozen=True)
class GridLaplacian:
    """Dirichlet finite-difference Laplacian on an interior grid."""

    n: int
    h: float
    matrix: Matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def laplacian_1d(n: int, h: float) -> GridLaplacian:
    """Tridiagonal (1, -2, 1)/h^2 with Dirichlet truncation."""
    if n < 1:
        raise InputContractError("need at least one interior point")
    if not 0 < h < np.inf:
        raise InputContractError(f"grid spacing must be a finite number > 0, "
                                 f"got {h}")
    m = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(m, -2.0)
    for i in range(n - 1):
        m[i, i + 1] = 1.0
        m[i + 1, i] = 1.0
    m /= h * h
    m.flags.writeable = False
    return GridLaplacian(n=n, h=float(h), matrix=m)


def difference_family(dim: int) -> SeminormFamily:
    """Grid sup norm plus first- and second-difference sup seminorms, the
    derivative-seminorm family at desk scale."""
    sns = [Seminorm.sup()]
    if dim >= 2:
        sns.append(Seminorm.first_difference())
        sns.append(Seminorm.second_difference())
    return SeminormFamily.of(sns, dim)


def _grid_operator(seq: BiSequence, size: int, build,
                   family: SeminormFamily | None = None) -> OperatorSequence:
    """The grid operators ``build`` makes of seq, certified over ``family``
    when given.  ``build(k0, values)`` maps the (len, dim) values of seq at
    k0, k0+1, ... to (len, size, size) matrices.  Constant data gives a
    constant sequence, certified once; other data a generator whose
    windows are one ``build`` over ``seq.window_values``."""
    if seq.constant_value is not None:
        return OperatorSequence.constant(
            build(0, seq.constant_value[None])[0], family=family)
    return OperatorSequence(
        size, lambda w: build(w.start, seq.window_values(w)), family=family)


def _multiplier(seq: BiSequence, size: int, what: str):
    """``_grid_operator`` rule for diag(seq(k)); dim 1 broadcasts to the
    grid."""
    if seq.dim not in (1, size):
        raise InputContractError(f"{what} must have dim 1 or {size}, "
                                 f"got {seq.dim}")
    diag = np.arange(size)

    def build(k0: int, vals: np.ndarray) -> np.ndarray:
        out = np.zeros((vals.shape[0], size, size), dtype=np.complex128)
        out[:, diag, diag] = vals
        return out

    return build


def _check_scalar(seq: BiSequence, what: str) -> None:
    if seq.dim != 1:
        raise InputContractError(f"{what} must be a scalar sequence")


@dataclass
class HeatProblem:
    """Degenerate instance m(k+1,.) u(k+1) = Lap u(k) - b(k) u(k) + f(k).

    In the degenerate form C B(k+1) u(k+1) = A(k) u(k) + C f(k) this is
    B(k) = multiplier by m(k,.), A(k) = Lap - b(k) I, C = I.  The selection
    certificate per seminorm is the induced bound of D(k) = B(k) Ainv_C(k).
    B is a constant sequence when m is constant, and A and Ainv_C when b
    is; otherwise they are generators whose matrices come a window at a
    time (Ainv_C as one stacked solve of Lap - b(k) I per block, which D
    reads through its window rule).  ``D`` is the composite selection
    whose certificates ``heat_problem`` validated; the solve reuses it.
    """

    laplacian: GridLaplacian
    B: OperatorSequence
    A: OperatorSequence
    Ainv_C: OperatorSequence
    D: OperatorSequence
    f: BiSequence
    family: SeminormFamily
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, window, tol: float = 1e-10, pad_right: int = 1
              ) -> tuple[BiSequence, BiSequence, SolveReport]:
        return solve_degenerate_vb(
            self.B, self.Ainv_C, np.eye(self.laplacian.size), self.f,
            window, tol=tol, A=self.A, pad_right=pad_right, D=self.D)


SMALLNESS_GATE = 0.9  # sup of the composite certificate must stay below this


def _heat_operators(L: GridLaplacian, m: BiSequence, b: BiSequence,
                    family: SeminormFamily):
    size = L.size
    mult = _multiplier(m, size, "multiplier m")
    _check_scalar(b, "shift b")
    eye = np.eye(size)

    def a_stack(k0: int, vals: np.ndarray) -> np.ndarray:
        re = vals[:, 0].real
        bad = np.flatnonzero(re <= 0)
        if bad.size:
            raise InputContractError(f"Re b({k0 + int(bad[0])}) = "
                                     f"{float(re[bad[0]])} is not positive")
        return L.matrix - vals[:, 0, None, None] * eye

    B = _grid_operator(m, size, mult, family=family)
    A = _grid_operator(b, size, a_stack)
    Ainv = _grid_operator(
        b, size, lambda k0, vals: np.linalg.solve(a_stack(k0, vals), eye))
    return B, A, Ainv


def heat_problem(n: int, h: float, m: BiSequence, b: BiSequence,
                 f: BiSequence, family: SeminormFamily | None = None,
                 window=None) -> HeatProblem:
    """Build and validate the heat instance on an n-point 1-D grid.

    Validation checks Re b(k) > 0 and the composite selection certificate
    on the gate window [window.start - 1, window.end + 1]; sups at or above
    the smallness gate are an input-contract error listing the failing k.
    Constant m and b are certified once, with exact sups.  The solve reads
    D further right, up to its truncation depth, takes the sup of a
    generator D there itself, and evaluating A(k) checks Re b(k) there.
    """
    L = laplacian_1d(n, h)
    family = family or difference_family(L.size)
    if family.dim != L.size:
        raise InputContractError(f"family dim {family.dim} vs grid {L.size}")
    if f.dim != L.size:
        raise InputContractError(f"forcing dim {f.dim} vs grid {L.size}")
    window = as_window(window) if window is not None else Window(-64, 64)
    gate = window.extended(left=1, right=1)
    B, A, Ainv = _heat_operators(L, m, b, family)
    D = compose_selection(B, Ainv, family)
    sups = {lbl: D.sup_over(lbl, gate) for lbl in D.labels()}
    bad = {lbl: s for lbl, s in sups.items() if s >= SMALLNESS_GATE}
    if bad:
        worst = np.max([D.certificate_array(lbl, gate) for lbl in bad], axis=0)
        failing = [k for k, c in zip(gate, worst) if c >= SMALLNESS_GATE]
        raise InputContractError(
            f"multiplier is not small enough: certificate sups {bad} reach "
            f"the gate {SMALLNESS_GATE}; failing k on the gate: {failing[:8]}")
    return HeatProblem(laplacian=L, B=B, A=A, Ainv_C=Ainv, D=D, f=f,
                       family=family, certificate_sup=sups)


@dataclass
class WaveProblem:
    """Second-order instance
    m2(k+2,.) u(k+2) + m1(k+1,.) u(k+1) = Lap u(k) - b(k) u(k) + f(k),
    rewritten with A2 = m2 multiplier, A1 = m1 multiplier,
    A0(k) = b(k) I - Lap and C = I.  ``selection`` is the companion
    selection whose certificates the builder validated; the solve reuses
    it."""

    laplacian: GridLaplacian
    A0: OperatorSequence
    A1: OperatorSequence
    A2: OperatorSequence
    f: BiSequence
    family: SeminormFamily
    selection: ResolventSelection
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, window, tol: float = 1e-10, pad_right: int = 2
              ) -> tuple[BiSequence, SolveReport]:
        return solve_second_order(self.A0, self.A1, self.A2,
                                  np.eye(self.laplacian.size), self.f, window,
                                  tol=tol, family=self.family,
                                  pad_right=pad_right,
                                  selection=self.selection)


def wave_problem(n: int, h: float, m1: BiSequence, m2: BiSequence,
                 b: BiSequence, f: BiSequence,
                 family: SeminormFamily | None = None,
                 window=None) -> WaveProblem:
    """Build and validate the wave instance (same hypotheses as heat, with
    the certificate of the order-2 selection on the lifted family, checked
    on the gate window [window.start - 1, window.end + 2]).  Constant m1,
    m2 and b give a constant selection, certified once with exact sups."""
    L = laplacian_1d(n, h)
    family = family or difference_family(L.size)
    if family.dim != L.size or f.dim != L.size:
        raise InputContractError("family/forcing dimensions must match the grid")
    window = as_window(window) if window is not None else Window(-64, 64)
    gate = window.extended(left=1, right=2)
    size = L.size
    eye = np.eye(size)
    _check_scalar(b, "shift b")
    A1 = _grid_operator(m1, size, _multiplier(m1, size, "multiplier m1"))
    A2 = _grid_operator(m2, size, _multiplier(m2, size, "multiplier m2"))

    if b.window_values(gate)[:, 0].real.min() <= 0:
        raise InputContractError("Re b(k) must be positive on the gate window")
    A0 = _grid_operator(
        b, size, lambda k0, vals: vals[:, 0, None, None] * eye - L.matrix)

    sel = second_order_selection(A0, A1, A2, eye, family)
    sups = {lbl: sel.D.sup_over(lbl, gate) for lbl in sel.D.labels()}
    bad = {lbl: s for lbl, s in sups.items() if s >= SMALLNESS_GATE}
    if bad:
        raise InputContractError(
            f"wave multipliers are not small enough: combined certificate "
            f"sups {bad} reach the gate {SMALLNESS_GATE}")
    return WaveProblem(laplacian=L, A0=A0, A1=A1, A2=A2, f=f, family=family,
                       selection=sel, certificate_sup=sups)
