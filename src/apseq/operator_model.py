"""Operator sequences k -> A(k) with per-seminorm bound certificates.

A bound certificate for a seminorm kappa is a rule k -> c(k) > 0 with
kappa(A(k) x) <= c(k) * kappa(x) for all x.  Certificates gate everything
downstream: the solution series converges when the backward products
c(k-1) * ... * c(k-v) are summable over v, and the truncation tail bounds
are built from those same products.  A global sup s >= c(k) on all of Z
(exact for constant and periodic sequences, declared for a generator)
below 1 also makes the bounded solution unique.

A sequence holds one rule for its matrices: the distinct matrices it
cycles through, or a generator's window rule, whose A(k) is the matrix of
the one-k window.  A sequence with a seminorm family derives its
certificates from its own matrices, as exact induced bounds; one without
a family is plain and has none.  Analytic knowledge enters only as a
declared global sup (``sup_bounds``) or as the induced bound of a
seminorm kind:

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
too: a generator derives the certificates of exactly the windows it is
asked for, one stack per CERT_BLOCK-aligned run of k it has not cached.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Container, Iterator, Sequence

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
                f"stencil seminorm {sn.label!r} has a singular stencil "
                f"matrix, so it has no induced bound")
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


def window_blocks(window: Window, done: Container[int] = ()
                  ) -> Iterator[Window]:
    """Runs of consecutive k in ``window`` that are not in ``done``, cut at
    the multiples of CERT_BLOCK."""
    todo = [k for k in range(window.start, window.end + 1) if k not in done]
    starts = [i for i, k in enumerate(todo)
              if i == 0 or k != todo[i - 1] + 1 or k % CERT_BLOCK == 0]
    for a, b in zip(starts, starts[1:] + [len(todo)]):
        yield Window(todo[a], todo[b - 1])


class OperatorSequence:
    """k -> A(k) with bound certificates and per-seminorm sup bounds.

    A sequence holds one rule: either its distinct matrices A(0), ...,
    A(period - 1), which it cycles through (a constant has period 1), or a
    generator's window rule ``window_fn(w)`` -> the (len(w), dim, dim) stack
    of A(k) for k in w (``period`` None).  A generator memoizes its matrices
    per k as views into the stacks it evaluated (windows are small and
    evaluation must be deterministic), and ``matrix(k)`` on a miss reads
    the one-k window.  ``backend`` is read off ``period``: "constant",
    "periodic" or "generator".

    With a ``family``, c(k) for each of its seminorms is the induced bound
    of A(k), derived once per distinct matrix and cached; without one the
    sequence is plain.  ``sup_bounds[label]`` caps c(k) on all of Z: exact
    for constant and periodic sequences, and for a generator only what it
    declares.
    """

    def __init__(self, dim: int, rule, family: SeminormFamily | None = None,
                 sup_bounds: dict[str, float] | None = None):
        """``rule`` is the sequence of distinct matrices or a window rule."""
        self.dim = int(dim)
        self.family = family
        if callable(rule):
            self._window_fn, self._distinct = rule, None
            self.period = None
        else:
            self._window_fn, self._distinct = None, tuple(rule)
            self.period = len(self._distinct)
        self._mat_cache: dict[int, Matrix] = {}
        self._cert_cache: dict[int, dict[str, float]] = {}
        self.sup_bounds = (self._exact_sup_bounds() if sup_bounds is None
                           else sup_bounds)

    @property
    def backend(self) -> str:
        return {None: "generator", 1: "constant"}.get(self.period, "periodic")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(matrix, family: SeminormFamily | None = None,
                 sup_bounds=None) -> "OperatorSequence":
        return OperatorSequence.periodic([matrix], family=family,
                                         sup_bounds=sup_bounds)

    @staticmethod
    def periodic(matrices: Sequence, family: SeminormFamily | None = None,
                 sup_bounds=None) -> "OperatorSequence":
        mats = [as_matrix(m) for m in matrices]
        if not mats:
            raise InputContractError("periodic backend needs >= 1 matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != dim:
                raise ShapeError("periodic matrices have mixed dimensions")
        return OperatorSequence(dim, mats, family=family,
                                sup_bounds=sup_bounds)

    @staticmethod
    def from_function(dim: int, fn: Callable[[int], Matrix],
                      family: SeminormFamily | None = None,
                      sup_bounds=None) -> "OperatorSequence":
        """Generator of the user rule k -> fn(k), read k by k over each
        window."""
        return OperatorSequence(
            dim, lambda w: np.stack([as_matrix(fn(k), dim) for k in w]),
            family=family, sup_bounds=sup_bounds)

    @staticmethod
    def map(fn: Callable[..., Matrix], *seqs: "OperatorSequence",
            shifts: Sequence[int] | None = None, dim: int | None = None,
            family: SeminormFamily | None = None) -> "OperatorSequence":
        """k -> fn(k, seqs[0].matrix(k + shifts[0]), ...): periodic with the
        lcm period (constant for period 1) if every input is constant or
        periodic, else a generator of dimension ``dim`` (default the first
        input's) with no global sup bounds, which evaluates a window through
        the ``matrices`` of its generator inputs.  fn sees only
        k = 0 .. period-1 for periodic results, so it may use k only to read
        sequences or to name it in errors."""
        shifts = tuple(shifts) if shifts is not None else (0,) * len(seqs)

        def at(w: Window) -> np.ndarray:
            stacks = [s.matrices(w.shifted(sh)) if s.period is None
                      else None for s, sh in zip(seqs, shifts)]
            return np.stack([
                fn(k, *(s.matrix(k + sh) if st is None else st[i]
                        for s, sh, st in zip(seqs, shifts, stacks)))
                for i, k in enumerate(w)])

        if all(s.period is not None for s in seqs):
            period = lcm(*(s.period for s in seqs))
            return OperatorSequence.periodic(at(Window(0, period - 1)),
                                             family=family)
        return OperatorSequence(dim or seqs[0].dim, at, family=family)

    # -- evaluation --------------------------------------------------------

    def residue(self, k: int) -> int:
        """The index that stands for k among the distinct matrices: 0 for
        a constant, k mod the period for a periodic backend, else k."""
        k = int(k)
        return k if self.period is None else k % self.period

    def matrix(self, k: int) -> Matrix:
        k = self.residue(k)
        if self._distinct is not None:
            return self._distinct[k]
        if k not in self._mat_cache:
            self.matrices(Window(k, k))
        return self._mat_cache[k]

    def matrices(self, window) -> np.ndarray:
        """A(k) for k in ``window`` as a (len, dim, dim) stack.  A generator
        evaluates its window rule once per CERT_BLOCK-aligned run of the k
        it has not cached, and caches views into those stacks."""
        window = as_window(window)
        if self._distinct is not None:
            return np.stack([self._distinct[k % self.period] for k in window])
        for w in window_blocks(window, self._mat_cache):
            stack = np.asarray(self._window_fn(w), dtype=np.complex128)
            if stack.shape != (len(w), self.dim, self.dim):
                raise ShapeError(
                    f"window rule gave shape {stack.shape} for {len(w)} "
                    f"matrices of dimension {self.dim}")
            stack.flags.writeable = False
            self._mat_cache.update(zip(w, stack))
        return np.stack([self._mat_cache[k] for k in window])

    def apply(self, k: int, x: Vector) -> Vector:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.dim,):
            raise ShapeError(f"operator dim {self.dim} vs value shape {x.shape}")
        return self.matrix(k) @ x

    def apply_rows(self, start: int, rows: np.ndarray) -> np.ndarray:
        """Row i -> A(start + i) rows[i].  Constant and periodic backends
        apply their few distinct matrices without stacking one per row."""
        if self.period is not None:
            p = self.period
            out = np.empty(rows.shape, dtype=np.complex128)
            for r in range(p):
                out[r::p] = rows[r::p] @ self.matrix(start + r).T
            return out
        mats = self.matrices(Window(start, start + rows.shape[0] - 1))
        return np.einsum("pij,pj->pi", mats, rows)

    def certificate(self, label: str, k: int) -> float:
        k = int(k)
        return float(self.certificate_array(label, Window(k, k))[0])

    def certificate_array(self, label: str, window) -> np.ndarray:
        """c(k) for k in ``window``.  A cache miss derives every seminorm of
        the family from one stack of matrices: the distinct matrices of a
        constant or periodic backend, else the runs of ``window`` not yet
        derived."""
        if self.family is None or label not in self.family.labels():
            raise CertificateError(f"no certificate for seminorm {label!r}")
        window = as_window(window)
        if self.period is None:
            span, index = window, slice(None)
        else:
            n = self.period
            span = Window(0, n - 1)
            index = np.arange(window.start, window.end + 1) % n
        for w in window_blocks(span, self._cert_cache):
            stack = self.matrices(w)
            bounds = {sn.label: induced_bound(stack, sn).tolist()
                      for sn in self.family}
            self._cert_cache.update(
                (k, {lbl: b[i] for lbl, b in bounds.items()})
                for i, k in enumerate(w))
        return np.array([self._cert_cache[k][label] for k in span])[index]

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
        return sorted(self.family.labels()) if self.family else []

    def _exact_sup_bounds(self) -> dict[str, float]:
        """max c(k) over the distinct matrices; none for a generator."""
        if self.period is None or self.family is None:
            return {}
        distinct = Window(0, self.period - 1)
        return {sn.label: float(self.certificate_array(sn.label,
                                                       distinct).max())
                for sn in self.family}


def op_product_apply(A: OperatorSequence, k: int, v: int, x: Vector) -> Vector:
    """A(k-1) A(k-2) ... A(k-v) x, applied right to left as matrix-vector
    products; the full product matrix is never formed."""
    if v < 1:
        raise InputContractError(f"product depth must be >= 1, got {v}")
    y = np.asarray(x, dtype=np.complex128)
    for i in range(v, 0, -1):
        y = A.apply(k - i, y)
    return y
