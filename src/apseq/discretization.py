"""Finite-difference Dirichlet Laplacians, resolvents, and the semi-discrete
heat and wave example problems on interior grids.

The grid operator is the desk-scale stand-in for the Dirichlet Laplacian:
symmetric, negative definite, with the 1-D spectrum
mu_j = -4 sin^2(j pi / (2(n+1))) / h^2, diagonalised by the orthogonal
DST-I matrix Q (``sine_basis``).  Heat's resolvent (L - b I)^{-1} is
Q diag(1/(mu_j - b)) Q^T, refined once against L - b I, with no dense
solve (Strang, "The discrete cosine transform", SIAM Review 41, 1999).

A problem takes its seminorm family and the window it is solved on from
the caller; the canned examples use the derivative-seminorm idiom, grid
sup norm plus first- and second-difference sup seminorms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputContractError
from .first_order import SolveReport
from .higher_order import second_order_selection, solve_second_order
from .operator_model import Matrix, OperatorSequence, real_or_complex
from .resolvent import compose_selection, solve_degenerate_vb
from .seq_core import BiSequence, SeminormFamily, Window, as_window


def laplacian_1d(n: int, h: float) -> Matrix:
    """Tridiagonal (1, -2, 1)/h^2 with Dirichlet truncation, read-only
    float64."""
    if n < 1:
        raise InputContractError("need at least one interior point")
    if not 0 < h < np.inf:
        raise InputContractError(f"grid spacing must be a finite number > 0, "
                                 f"got {h}")
    h2 = float(h) * float(h)
    if not (0.0 < h2 < np.inf and 2.0 / h2 < np.inf):
        raise InputContractError(
            f"grid spacing h = {h} is out of range: the Laplacian's entries "
            f"1/h^2 and -2/h^2 must be finite and nonzero")
    m = np.diag(np.full(n, -2.0))
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = 1.0
    m /= h * h
    m.flags.writeable = False
    return m


def sine_basis(n: int, h: float) -> tuple[Matrix, np.ndarray]:
    """(Q, mu) with laplacian_1d(n, h) = Q diag(mu) Q^T: Q is the orthogonal
    DST-I matrix sqrt(2/(n+1)) sin(i j pi/(n+1)), i, j = 1..n, symmetric to
    the bit, and mu_j = -4 sin^2(j pi / (2(n+1))) / h^2.  The angles are
    reduced mod 2 pi in integers first, so each sine is taken of an angle
    below 2 pi.  Both are read-only float64."""
    j = np.arange(1, n + 1)
    q = np.sqrt(2.0 / (n + 1)) * np.sin(
        np.outer(j, j) % (2 * (n + 1)) * (np.pi / (n + 1)))
    mu = -4.0 * np.sin(j * (np.pi / (2 * (n + 1)))) ** 2 / (h * h)
    q.flags.writeable = mu.flags.writeable = False
    return q, mu


def _sine_resolvent(L: Matrix, h: float):
    """``OperatorSequence.map`` rule (L - b(k) I)^{-1} over the stack of
    A(k) = L - b(k) I.  b(k) is read off A(k)'s diagonal; the spectral
    inverse X0 = Q diag(1/(mu - b(k))) Q^T is refined once against A(k)
    itself, X = X0 + X0 (I - A(k) X0), which brings its residual back to
    a dense solve's.  Every product is one stacked matmul, a gemm per k,
    so a k has the same bits however its run is cut; a real A stack
    stays float64."""
    q, mu = sine_basis(len(L), h)
    eye = np.eye(len(L))

    def rule(w: Window, a: np.ndarray) -> np.ndarray:
        b = L[0, 0] - a[:, 0, 0]
        s = q * (1.0 / (mu - b[:, None]))[:, None, :]
        x0 = np.matmul(s, q)
        np.matmul(a, x0, out=s)
        np.subtract(eye, s, out=s)
        x = np.matmul(x0, s)
        x += x0
        return x

    return rule


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
    grid, and a window of real values gives a float64 stack.  A non-finite
    seq(k) is an input-contract error naming ``what`` and the first such k
    wherever seq is read."""
    if seq.dim not in (1, size):
        raise InputContractError(f"{what} must have dim 1 or {size}, "
                                 f"got {seq.dim}")
    diag = np.arange(size)

    def build(k0: int, vals: np.ndarray) -> np.ndarray:
        bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
        if bad.size:
            raise InputContractError(f"{what}({k0 + int(bad[0])}) is not "
                                     f"finite")
        vals = real_or_complex(vals)
        out = np.zeros((vals.shape[0], size, size), dtype=vals.dtype)
        out[:, diag, diag] = vals
        return out

    return build


def _minus_diagonal(L: Matrix, shift: np.ndarray) -> np.ndarray:
    """The stack L - shift(k) I for a (len, 1, 1) shift: L copied per k,
    with shift(k) subtracted on the diagonal.  Each entry has the bits of
    ``L - shift * np.eye(n)``, signed zeros included."""
    out = np.empty((len(shift),) + L.shape, dtype=shift.dtype)
    out[...] = L
    diag = np.arange(len(L))
    out[:, diag, diag] -= shift[:, 0]
    return out


def _shift(b: BiSequence, rule):
    """``_grid_operator`` rule ``rule(shift)`` over the scalar shift b, with
    shift its values as a (len, 1, 1) stack, float64 where they are real;
    a b(k) that is not finite or has Re b(k) <= 0 is an input-contract
    error naming the first such k wherever b is read."""
    if b.dim != 1:
        raise InputContractError("shift b must be a scalar sequence")

    def build(k0: int, vals: np.ndarray) -> np.ndarray:
        v = vals[:, 0]
        bad = np.flatnonzero(~(np.isfinite(v) & (v.real > 0)))
        if bad.size:
            i = int(bad[0])
            if not np.isfinite(v[i]):
                raise InputContractError(f"b({k0 + i}) = {complex(v[i])} is "
                                         f"not finite")
            raise InputContractError(f"Re b({k0 + i}) = {float(v[i].real)} "
                                     f"is not positive")
        return rule(real_or_complex(vals[:, 0, None, None]))

    return build


@dataclass
class HeatProblem:
    """Degenerate instance m(k+1,.) u(k+1) = Lap u(k) - b(k) u(k) + f(k).

    In the degenerate form C B(k+1) u(k+1) = A(k) u(k) + C f(k) this is
    B(k) = multiplier by m(k,.), A(k) = Lap - b(k) I, C = I.  The selection
    certificate per seminorm is the induced bound of D(k) = B(k) Ainv_C(k).
    B is a constant sequence when m is constant, and A and Ainv_C when b
    is; otherwise they are generators whose matrices come a window at a
    time.  A(k) is L copied with b(k) subtracted on its diagonal, built
    once per k and cached for the residual; Ainv_C is a window rule over
    A's stack in the sine basis, Q diag(1/(mu_j - b(k))) Q^T refined once
    against A(k), read through by D's rule and not cached.  ``D`` is the
    composite selection whose certificates ``heat_problem`` validated on
    ``window``, one stacked product B Ainv_C per window; the solve covers
    ``window``, reuses D, and derives B(k)^{-1} the same way, as a window
    rule over B.  Real m and b give float64 stacks, which are certified,
    inverted and multiplied in real arithmetic; complex ones keep
    complex128.
    """

    window: Window
    B: OperatorSequence
    A: OperatorSequence
    Ainv_C: OperatorSequence
    D: OperatorSequence
    f: BiSequence
    family: SeminormFamily
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, tol: float = 1e-10
              ) -> tuple[BiSequence, BiSequence, SolveReport]:
        return solve_degenerate_vb(
            self.B, self.Ainv_C, np.eye(self.family.dim), self.f,
            self.window, tol=tol, A=self.A, D=self.D)


SMALLNESS_GATE = 0.9  # sup of the composite certificate must stay below this


def _gate_sups(D: OperatorSequence, gate: Window, what: str
               ) -> dict[str, float]:
    """D's certificate sup per seminorm over ``gate``; sups that are not
    below SMALLNESS_GATE, NaN included, are an input-contract error,
    ``what`` followed by the failing sups and the failing k on the gate."""
    sups = {lbl: D.sup_over(lbl, gate) for lbl in D.labels()}
    bad = {lbl: s for lbl, s in sups.items() if not s < SMALLNESS_GATE}
    if bad:
        worst = np.max([D.certificate_array(lbl, gate) for lbl in bad], axis=0)
        failing = [k for k, c in zip(gate, worst) if not c < SMALLNESS_GATE]
        raise InputContractError(
            f"{what} {bad} reach the gate {SMALLNESS_GATE}; failing k on the "
            f"gate: {failing[:8]}")
    return sups


def heat_problem(n: int, h: float, m: BiSequence, b: BiSequence,
                 f: BiSequence, family: SeminormFamily,
                 window) -> HeatProblem:
    """Build and validate the heat instance on an n-point 1-D grid, to be
    solved on ``window``.

    Validation checks that m(k) and b(k) are finite, Re b(k) > 0 and the
    composite selection certificate on the gate window
    [window.start - 1, window.end + 1]; sups not below the smallness gate
    are an input-contract error listing the failing k.
    Constant m and b are certified once, with exact sups.  The solve reads
    D further right, up to its truncation depth, takes the sup of a
    generator D there itself, and evaluating A(k) checks b(k) there.
    The resolvent Ainv_C is a window rule over A that solves nothing: it
    scales the shared DST-I matrix Q of ``sine_basis`` by n numbers per k
    and refines the product once against A(k).  B, A, Ainv_C and D hold
    float64 matrices where m and b have no imaginary part.
    """
    L = laplacian_1d(n, h)
    if family.dim != n:
        raise InputContractError(f"family dim {family.dim} vs grid {n}")
    if f.dim != n:
        raise InputContractError(f"forcing dim {f.dim} vs grid {n}")
    window = as_window(window)
    B = _grid_operator(m, n, _multiplier(m, n, "multiplier m"), family=family)
    A = _grid_operator(b, n, _shift(b, lambda s: _minus_diagonal(L, s)))
    Ainv = OperatorSequence.map(_sine_resolvent(L, h), A)
    Ainv.cache = False  # read only by the rule of D = B Ainv
    D = compose_selection(B, Ainv, family)
    sups = _gate_sups(D, window.extended(left=1, right=1),
                      "multiplier is not small enough: certificate sups")
    return HeatProblem(window=window, B=B, A=A, Ainv_C=Ainv, D=D, f=f,
                       family=family, certificate_sup=sups)


@dataclass
class WaveProblem:
    """Second-order instance
    m2(k+2,.) u(k+2) + m1(k+1,.) u(k+1) = Lap u(k) - b(k) u(k) + f(k),
    rewritten with A2 = m2 multiplier, A1 = m1 multiplier,
    A0(k) = b(k) I - Lap and C = I.  ``D`` is the companion selection
    whose certificates the builder validated on ``window``; the solve
    covers ``window`` and reuses D.  It is constant when m1, m2 and b are,
    and otherwise a generator whose window rule is one stacked solve of A0
    and one stacked block assembly."""

    window: Window
    A0: OperatorSequence
    A1: OperatorSequence
    A2: OperatorSequence
    f: BiSequence
    family: SeminormFamily
    D: OperatorSequence
    certificate_sup: dict[str, float] = field(default_factory=dict)

    def solve(self, tol: float = 1e-10) -> tuple[BiSequence, SolveReport]:
        return solve_second_order(
            self.A0, self.A1, self.A2, np.eye(self.family.dim), self.f,
            self.window, tol=tol, family=self.family, D=self.D)


def wave_problem(n: int, h: float, m1: BiSequence, m2: BiSequence,
                 b: BiSequence, f: BiSequence, family: SeminormFamily,
                 window) -> WaveProblem:
    """Build and validate the wave instance, to be solved on ``window``
    (same hypotheses as heat, with the certificate of the order-2
    selection on the lifted family, checked on the gate window
    [window.start - 1, window.end + 2]).  As for heat, evaluating A0(k)
    checks b(k) wherever it is read.  Constant m1, m2 and b give a
    constant selection, certified once with exact sups."""
    L = laplacian_1d(n, h)
    if family.dim != n or f.dim != n:
        raise InputContractError("family/forcing dimensions must match the grid")
    window = as_window(window)
    # b(k) I - L as (-L) - (-b(k)) I: 0.0 - L keeps its zeros unsigned, so
    # each entry has the bits of b(k) * np.eye(n) - L
    minus_L = 0.0 - L
    A0 = _grid_operator(
        b, n, _shift(b, lambda s: _minus_diagonal(minus_L, -s)))
    A1 = _grid_operator(m1, n, _multiplier(m1, n, "multiplier m1"))
    A2 = _grid_operator(m2, n, _multiplier(m2, n, "multiplier m2"))

    D = second_order_selection(A0, A1, A2, np.eye(n), family)
    sups = _gate_sups(D, window.extended(left=1, right=2),
                      "wave multipliers are not small enough: combined "
                      "certificate sups")
    return WaveProblem(window=window, A0=A0, A1=A1, A2=A2, f=f,
                       family=family, D=D, certificate_sup=sups)
