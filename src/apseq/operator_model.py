"""Operator sequences k -> A(k) with per-seminorm bound certificates.

A bound certificate for a seminorm kappa is a rule k -> c(k) > 0 with
kappa(A(k) x) <= c(k) * kappa(x) for all x.  Certificates gate everything
downstream: the solution series converges when the backward products
c(k-1) * ... * c(k-v) are summable over v, and the truncation tail bounds
are built from those same products.  A global sup s >= c(k) on all of Z
(exact for constant and periodic sequences, declared for a generator)
below 1 also makes the bounded solution unique.

Certificates are either supplied analytically by the problem builder or
derived here as exact induced bounds of the concrete matrices:

  sup norm      max absolute row sum
  l1            max absolute column sum
  l2            largest singular value
  lp, 1<p<inf   interpolation bound ||A||_1^(1/p) * ||A||_inf^(1-1/p)
  stencil S     max absolute row sum of (S A) S^{-1} (S is the zero-padded
                stencil matrix, which is invertible for difference stencils;
                S^{-1} is formed once per stencil and dimension)
  block_sum     max over block columns j of sum_i c_base(A_ij)

All of these are sound upper bounds, so randomized soundness checks hold
up to roundoff with no fudge factor.  They apply to stacks of matrices
too, which is how generator sequences derive their certificates: one stack
per CERT_BLOCK-aligned block of k.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (CertificateError, InputContractError, NumericError,
                     ShapeError)
from .seq_core import Seminorm, SeminormFamily, Vector, Window, as_window

Matrix = np.ndarray  # (d, d) complex128

#: condition estimates above this make a dense solve untrustworthy
COND_LIMIT = 1e12
#: most matrices stacked at once when certificates are derived over a
#: window; bounds the memory a block takes besides the cached matrices
CERT_BLOCK = 64


def as_matrix(m, dim: int | None = None) -> Matrix:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ShapeError(f"expected dimension {dim}, got {a.shape[0]}")
    a = a.copy()
    a.flags.writeable = False
    return a


def _bound(x) -> float | np.ndarray:
    """A bound as a float for one matrix, an array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def induced_bound(matrix: Matrix, sn: Seminorm) -> float | np.ndarray:
    """Sound upper bound c with sn(A x) <= c * sn(x) for all x.

    A stack (..., d, d) gives an array of bounds, one per matrix, each
    with the bits of its own call."""
    a = np.abs(matrix)
    if sn.kind == "sup":
        return _bound(a.sum(axis=-1).max(axis=-1))
    if sn.kind == "p":
        n1 = a.sum(axis=-2).max(axis=-1)
        if sn.p == 1:
            return _bound(n1)
        if sn.p == 2:
            return _bound(np.linalg.norm(matrix, 2, axis=(-2, -1)))
        ninf = a.sum(axis=-1).max(axis=-1)
        # Python float powers: numpy's vectorized power rounds differently
        lp = np.vectorize(lambda x, y: float(x) ** (1.0 / sn.p)
                          * float(y) ** (1.0 - 1.0 / sn.p), otypes=[float])
        return _bound(lp(n1, ninf))
    if sn.kind == "stencil":
        d = matrix.shape[-1]
        s_inv = sn.stencil_inverse(d)
        if s_inv is None:
            raise CertificateError(
                f"stencil seminorm {sn.label!r} has a singular stencil matrix; "
                f"supply an analytic certificate instead")
        conj = (sn.stencil_matrix(d) @ matrix) @ s_inv
        return _bound(np.abs(conj).sum(axis=-1).max(axis=-1))
    if sn.kind == "block_sum":
        p = sn.blocks
        d, rem = divmod(matrix.shape[-1], p)
        if rem:
            raise ShapeError(f"matrix of size {matrix.shape[-1]} is not "
                             f"{p}x{p} blocks")
        col_sums = np.zeros(matrix.shape[:-2] + (p,))
        for j in range(p):
            for i in range(p):
                block = matrix[..., i * d:(i + 1) * d, j * d:(j + 1) * d]
                col_sums[..., j] += induced_bound(block, sn.base)
        return _bound(col_sums.max(axis=-1))
    raise InputContractError(f"unknown seminorm kind {sn.kind!r}")


def checked_solve(matrix: Matrix, rhs, what: str = "matrix") -> np.ndarray:
    """matrix^{-1} rhs by a dense solve with partial pivoting.

    Condition estimates above COND_LIMIT raise NumericError: certificate
    soundness requires trustworthy applies.
    """
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericError(f"{what} has condition estimate {cond:.3e} above "
                           f"{COND_LIMIT:.1e}; refusing the dense solve")
    return np.linalg.solve(matrix, rhs)


def window_blocks(window: Window) -> Iterator[Window]:
    """Sub-windows covering ``window``, cut at the multiples of CERT_BLOCK."""
    for a in range(window.start - window.start % CERT_BLOCK, window.end + 1,
                   CERT_BLOCK):
        yield Window(max(a, window.start), min(a + CERT_BLOCK - 1, window.end))


class OperatorSequence:
    """k -> A(k) with bound certificates and per-seminorm sup bounds.

    Backends: constant matrix, periodic list of matrices, or a pure
    generator rule.  Matrices produced by generators are memoized per k
    (windows are small and evaluation must be deterministic).  A generator
    may also carry ``window_fn``, which evaluates a window as one
    (len, dim, dim) stack with the same bits as stacking ``fn``.

    ``certificates[label]`` is a rule k -> c(k); ``sup_bounds[label]`` caps
    c(k) on all of Z: exact for constant and periodic backends, which
    certify each distinct matrix once; a generator has only those it
    declares.  Its family-derived certificates are evaluated one
    CERT_BLOCK-aligned block at a time (a cache miss derives its block),
    and the per-k caches hold views into the blocks.
    """

    def __init__(self, dim: int, fn: Callable[[int], Matrix], backend: str,
                 family: SeminormFamily | None = None,
                 certificates: dict[str, Callable[[int], float]] | None = None,
                 sup_bounds: dict[str, float] | None = None,
                 period: int | None = None,
                 window_fn: Callable[[Window], np.ndarray] | None = None):
        self.dim = int(dim)
        self.backend = backend
        self.period = period
        self.family = family
        self._fn = fn
        self._window_fn = window_fn
        self._mat_cache: dict[int, Matrix] = {}
        self._cert_cache: dict[tuple[str, int], float] = {}
        self._derived = certificates is None
        if certificates is None:
            if family is None:
                raise InputContractError(
                    "need a seminorm family to derive certificates, or "
                    "explicit certificate rules")
            certificates = {
                sn.label: (lambda k, _sn=sn: induced_bound(self.matrix(k), _sn))
                for sn in family}
        self.certificates = certificates
        self.sup_bounds = (self._exact_sup_bounds() if sup_bounds is None
                           else sup_bounds)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(matrix, family: SeminormFamily | None = None,
                 certificates=None, sup_bounds=None) -> "OperatorSequence":
        m = as_matrix(matrix)
        return OperatorSequence(m.shape[0], lambda k: m, "constant",
                                family=family, certificates=certificates,
                                sup_bounds=sup_bounds)

    @staticmethod
    def periodic(matrices: Sequence, family: SeminormFamily | None = None,
                 certificates=None, sup_bounds=None) -> "OperatorSequence":
        mats = [as_matrix(m) for m in matrices]
        if not mats:
            raise InputContractError("periodic backend needs >= 1 matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != dim:
                raise ShapeError("periodic matrices have mixed dimensions")
        omega = len(mats)
        return OperatorSequence(dim, lambda k: mats[k % omega], "periodic",
                                family=family, certificates=certificates,
                                sup_bounds=sup_bounds, period=omega)

    @staticmethod
    def from_function(dim: int, fn: Callable[[int], Matrix],
                      family: SeminormFamily | None = None,
                      certificates=None, sup_bounds=None,
                      window_fn=None) -> "OperatorSequence":
        """Generator k -> fn(k); ``window_fn(w)``, when given, returns the
        matrices of the window w as a (len(w), dim, dim) stack with the
        bits of fn."""
        return OperatorSequence(dim, lambda k: as_matrix(fn(k), dim),
                                "generator", family=family,
                                certificates=certificates,
                                sup_bounds=sup_bounds, window_fn=window_fn)

    @staticmethod
    def map(fn: Callable[..., Matrix], *seqs: "OperatorSequence",
            shifts: Sequence[int] | None = None, dim: int | None = None,
            family: SeminormFamily | None = None,
            certificates=None) -> "OperatorSequence":
        """k -> fn(k, seqs[0].matrix(k + shifts[0]), ...): constant if every
        input is constant, periodic with the lcm period if every input is
        constant or periodic, else a generator of dimension ``dim`` (default
        the first input's) with no global sup bounds.  fn sees only
        k = 0 .. period-1 for periodic results, so it may use k only to
        read sequences or to name it in errors."""
        shifts = tuple(shifts) if shifts is not None else (0,) * len(seqs)

        def at(k: int) -> Matrix:
            return fn(k, *(s.matrix(k + sh) for s, sh in zip(seqs, shifts)))

        kw = dict(family=family, certificates=certificates)
        backends = {s.backend for s in seqs}
        if backends <= {"constant"}:
            return OperatorSequence.constant(at(0), **kw)
        if backends <= {"constant", "periodic"}:
            period = lcm(*(s.period or 1 for s in seqs))
            return OperatorSequence.periodic([at(k) for k in range(period)],
                                             **kw)
        return OperatorSequence.from_function(dim or seqs[0].dim, at, **kw)

    def reversed(self) -> "OperatorSequence":
        """j -> A(-j-1) with A's certificates and sup bounds, on the same
        backend (a constant sequence is its own reversal)."""
        if self.backend == "constant":
            return self
        kw = dict(family=self.family, sup_bounds=dict(self.sup_bounds),
                  certificates={lbl: (lambda j, _l=lbl:
                                      self.certificate(_l, -j - 1))
                                for lbl in self.certificates})
        if self.backend == "periodic":
            return OperatorSequence.periodic(
                [self.matrix(-j - 1) for j in range(self.period)], **kw)
        return OperatorSequence(self.dim, lambda j: self.matrix(-j - 1),
                                "generator", **kw)

    # -- evaluation --------------------------------------------------------

    def residue(self, k: int) -> int:
        """The index that stands for k among the distinct matrices: 0 for
        a constant, k mod the period for a periodic backend, else k."""
        k = int(k)
        if self.backend == "constant":
            return 0
        if self.backend == "periodic":
            return k % self.period
        return k

    def matrix(self, k: int) -> Matrix:
        k = self.residue(k)
        if self.backend != "generator":
            return self._fn(k)
        m = self._mat_cache.get(k)
        if m is None:
            m = self._mat_cache[k] = self._fn(k)
        return m

    def matrices(self, window) -> np.ndarray:
        """A(k) for k in ``window`` as a (len, dim, dim) stack.  A generator
        with a ``window_fn`` evaluates the window in one pass and caches
        views into the stack for the k it had not cached."""
        window = as_window(window)
        if self._window_fn is None:
            return np.stack([self.matrix(k) for k in window])
        stack = np.asarray(self._window_fn(window), dtype=np.complex128)
        if stack.shape != (len(window), self.dim, self.dim):
            raise ShapeError(f"window rule gave shape {stack.shape} for "
                             f"{len(window)} matrices of dimension {self.dim}")
        stack.flags.writeable = False
        for k, m in zip(window, stack):
            self._mat_cache.setdefault(k, m)
        return stack

    def apply(self, k: int, x: Vector) -> Vector:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.dim,):
            raise ShapeError(f"operator dim {self.dim} vs value shape {x.shape}")
        return self.matrix(k) @ x

    def apply_rows(self, start: int, rows: np.ndarray) -> np.ndarray:
        """Row i -> A(start + i) rows[i].  Constant and periodic backends
        apply their few distinct matrices without stacking one per row."""
        if self.backend == "constant":
            return rows @ self.matrix(0).T
        if self.backend == "periodic":
            p = self.period
            out = np.empty(rows.shape, dtype=np.complex128)
            for r in range(p):
                out[r::p] = rows[r::p] @ self.matrix(start + r).T
            return out
        mats = self.matrices(Window(start, start + rows.shape[0] - 1))
        return np.einsum("pij,pj->pi", mats, rows)

    def certificate(self, label: str, k: int) -> float:
        if label not in self.certificates:
            raise CertificateError(f"no certificate for seminorm {label!r}")
        k = self.residue(k)
        key = (label, k)
        if key not in self._cert_cache:
            if self._derived and self.backend == "generator":
                a = k - k % CERT_BLOCK
                self._derive_certificates(Window(a, a + CERT_BLOCK - 1))
            else:
                self._cert_cache[key] = float(self.certificates[label](k))
        return self._cert_cache[key]

    def certificate_array(self, label: str, window: Window) -> np.ndarray:
        self._derive_certificates(window)
        return np.array([self.certificate(label, k) for k in window])

    def _derive_certificates(self, window: Window) -> None:
        """Cache a generator's family-derived certificates on ``window``,
        one stack of matrices per block; a no-op for other sequences."""
        if self.backend != "generator" or not self._derived:
            return
        labels = [sn.label for sn in self.family]
        for w in window_blocks(window):
            if all((lbl, k) in self._cert_cache for k in w for lbl in labels):
                continue
            stack = self.matrices(w)
            for sn in self.family:
                for k, c in zip(w, induced_bound(stack, sn).tolist()):
                    self._cert_cache.setdefault((sn.label, k), c)

    def sup_bound(self, label: str) -> float:
        if label not in self.sup_bounds:
            raise CertificateError(f"no global sup bound for {label!r}")
        return self.sup_bounds[label]

    def sup_over(self, label: str, window: Window) -> float:
        """The global sup bound when there is one, else the max of c(k)
        over ``window``."""
        if label in self.sup_bounds:
            return self.sup_bounds[label]
        return float(self.certificate_array(label, window).max())

    def labels(self) -> list[str]:
        return sorted(self.certificates)

    def _exact_sup_bounds(self) -> dict[str, float]:
        """max c(k) over the distinct matrices; none for a generator."""
        if self.backend == "generator":
            return {}
        return {label: max(self.certificate(label, k)
                           for k in range(self.period or 1))
                for label in self.certificates}


def op_product_apply(A: OperatorSequence, k: int, v: int, x: Vector) -> Vector:
    """A(k-1) A(k-2) ... A(k-v) x, applied right to left as matrix-vector
    products; the full product matrix is never formed."""
    if v < 1:
        raise InputContractError(f"product depth must be >= 1, got {v}")
    y = np.asarray(x, dtype=np.complex128)
    for i in range(v, 0, -1):
        y = A.apply(k - i, y)
    return y
