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
    if h <= 0:
        raise InputContractError("grid spacing must be positive")
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


def _grid_profile(seq: BiSequence, size: int, what: str):
    """Evaluate a multiplier sequence; dim 1 broadcasts to the grid."""
    if seq.dim not in (1, size):
        raise InputContractError(f"{what} must have dim 1 or {size}, "
                                 f"got {seq.dim}")

    def profile(k: int) -> np.ndarray:
        v = np.asarray(seq(k))
        return np.full(size, v[0]) if v.shape[0] == 1 else v

    return profile


def _scalar_rule(seq: BiSequence, what: str):
    if seq.dim != 1:
        raise InputContractError(f"{what} must be a scalar sequence")
    return lambda k: complex(np.asarray(seq(k))[0])


@dataclass
class HeatProblem:
    """Degenerate instance m(k+1,.) u(k+1) = Lap u(k) - b(k) u(k) + f(k).

    In the degenerate form C B(k+1) u(k+1) = A(k) u(k) + C f(k) this is
    B(k) = multiplier by m(k,.), A(k) = Lap - b(k) I, C = I.  The selection
    certificate per seminorm is the multiplier bound times the resolvent
    bound; its sup over the probed range must stay below the smallness gate.
    ``D`` is the composite selection B(k) Ainv_C(k) whose certificates
    ``heat_problem`` validated; the solve reuses it.
    """

    laplacian: GridLaplacian
    B: OperatorSequence
    A: OperatorSequence
    Ainv_C: OperatorSequence
    D: OperatorSequence
    f: BiSequence
    family: SeminormFamily
    probe: Window
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, window, tol: float = 1e-10
              ) -> tuple[BiSequence, BiSequence, SolveReport]:
        return solve_degenerate_vb(
            self.B, self.Ainv_C, np.eye(self.laplacian.size), self.f,
            window, tol=tol, A=self.A, D=self.D)


SMALLNESS_GATE = 0.9  # sup of the composite certificate must stay below this
GRID_PROBE_MARGIN = 512  # steps left of the window the certificates probe


def _heat_operators(L: GridLaplacian, m: BiSequence, b: BiSequence,
                    family: SeminormFamily, probe: Window):
    size = L.size
    mprof = _grid_profile(m, size, "multiplier m")
    brule = _scalar_rule(b, "shift b")
    eye = np.eye(size)

    def b_mat(k: int) -> Matrix:
        return np.diag(mprof(k).astype(np.complex128))

    def a_mat(k: int) -> Matrix:
        bk = brule(k)
        if bk.real <= 0:
            raise InputContractError(f"Re b({k}) = {bk.real} is not positive")
        return L.matrix - bk * eye

    def ainv_mat(k: int) -> Matrix:
        return np.linalg.solve(a_mat(k), eye)

    B = OperatorSequence.from_function(size, b_mat, family=family,
                                       sup_probe=probe)
    A = OperatorSequence.from_function(size, a_mat, certificates={})
    Ainv = OperatorSequence.from_function(size, ainv_mat, family=family,
                                          sup_probe=probe)
    return B, A, Ainv


def heat_problem(n: int, h: float, m: BiSequence, b: BiSequence,
                 f: BiSequence, family: SeminormFamily | None = None,
                 window=None) -> HeatProblem:
    """Build and validate the heat instance on an n-point 1-D grid.

    Validation probes Re b(k) > 0 (the resolvent's sup bounds evaluate
    A(k) at every probe k) and the composite selection certificate over
    the window extended left by GRID_PROBE_MARGIN; certificate sups at or
    above the smallness gate are an input-contract error listing the
    failing k.
    """
    L = laplacian_1d(n, h)
    family = family or difference_family(L.size)
    if family.dim != L.size:
        raise InputContractError(f"family dim {family.dim} vs grid {L.size}")
    if f.dim != L.size:
        raise InputContractError(f"forcing dim {f.dim} vs grid {L.size}")
    window = as_window(window) if window is not None else Window(-64, 64)
    probe = window.extended(left=GRID_PROBE_MARGIN, right=1)
    B, A, Ainv = _heat_operators(L, m, b, family, probe)
    D = compose_selection(B, Ainv, family)
    sups = {lbl: D.sup_bound(lbl) for lbl in D.labels()}
    bad = {lbl: s for lbl, s in sups.items() if s >= SMALLNESS_GATE}
    if bad:
        failing = [k for k in window
                   if any(D.certificate(lbl, k) >= SMALLNESS_GATE for lbl in bad)]
        raise InputContractError(
            f"multiplier is not small enough: certificate sups {bad} reach "
            f"the gate {SMALLNESS_GATE}; failing k on the window: {failing[:8]}")
    return HeatProblem(laplacian=L, B=B, A=A, Ainv_C=Ainv, D=D, f=f,
                       family=family, probe=probe, certificate_sup=sups)


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
    probe: Window
    selection: ResolventSelection
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, window, tol: float = 1e-10
              ) -> tuple[BiSequence, SolveReport]:
        return solve_second_order(self.A0, self.A1, self.A2,
                                  np.eye(self.laplacian.size), self.f, window,
                                  tol=tol, family=self.family,
                                  sup_probe=self.probe,
                                  selection=self.selection)


def wave_problem(n: int, h: float, m1: BiSequence, m2: BiSequence,
                 b: BiSequence, f: BiSequence,
                 family: SeminormFamily | None = None,
                 window=None) -> WaveProblem:
    """Build and validate the wave instance (same hypotheses as heat, with
    the three-piece certificate of the order-2 route)."""
    L = laplacian_1d(n, h)
    family = family or difference_family(L.size)
    if family.dim != L.size or f.dim != L.size:
        raise InputContractError("family/forcing dimensions must match the grid")
    window = as_window(window) if window is not None else Window(-64, 64)
    probe = window.extended(left=GRID_PROBE_MARGIN, right=2)
    size = L.size
    eye = np.eye(size)
    brule = _scalar_rule(b, "shift b")
    m1prof = _grid_profile(m1, size, "multiplier m1")
    m2prof = _grid_profile(m2, size, "multiplier m2")

    min_re = min(brule(k).real for k in probe)
    if min_re <= 0:
        raise InputContractError("Re b(k) must be positive on the probe window")

    def a0_mat(k: int) -> Matrix:
        return brule(k) * eye - L.matrix

    A0 = OperatorSequence.from_function(size, a0_mat, certificates={})
    A1 = OperatorSequence.from_function(
        size, lambda k: np.diag(m1prof(k).astype(np.complex128)),
        certificates={})
    A2 = OperatorSequence.from_function(
        size, lambda k: np.diag(m2prof(k).astype(np.complex128)),
        certificates={})

    sel = second_order_selection(A0, A1, A2, eye, family, sup_probe=probe)
    sups = dict(sel.D.sup_bounds)
    bad = {lbl: s for lbl, s in sups.items() if s >= SMALLNESS_GATE}
    if bad:
        raise InputContractError(
            f"wave multipliers are not small enough: combined certificate "
            f"sups {bad} reach the gate {SMALLNESS_GATE}")
    return WaveProblem(laplacian=L, A0=A0, A1=A1, A2=A2, f=f, family=family,
                       probe=probe, selection=sel, certificate_sup=sups)
