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
a family is plain and has none.  Analytic knowledge enters only as the
induced bound of a seminorm kind or, for a window rule alone, as a
declared global sup (``sup_bounds``):

  sup norm      max absolute row sum
  l1            max absolute column sum
  l2            largest singular value
  lp, 1<p<inf   interpolation bound ||A||_1^(1/p) * ||A||_inf^(1-1/p)
  stencil S     max absolute row sum of (S A) S^{-1} (S is the zero-padded
                stencil matrix, which is invertible for difference stencils;
                S and S^{-1} are formed once per stencil and dimension, in
                the dtype of the stencil's weights)
  block_sum     max over block columns j of sum_i c_base(A_ij)

All of these are sound upper bounds, so randomized soundness checks hold
up to roundoff with no fudge factor.  They apply to stacks of matrices
too: a generator derives the certificates of exactly the windows it is
asked for, one stack per CERT_BLOCK-aligned run of k it has not cached.

Matrices are float64 when every imaginary part is exactly zero and
complex128 otherwise; ``real_or_complex`` alone decides, for ``as_matrix``,
for each stack a window rule gives and for the grid builders.  Real data
are then certified, solved and multiplied on one plane by numpy's dtype
dispatch, and a stencil's S and S^{-1} are float64 when its weights are
real, as every difference stencil's are: the stencil bound is the one
product (S A) S^{-1}, in real arithmetic for a real stack and in numpy's
complex products, with S cast, for a complex one.  Certificates of real
data have the bits of the same data held complex (l2 bounds a real stack
by the complex SVD), and so do their products with complex data, which
``stack_product`` casts; a real dense solve may differ from the complex
one in the last bits.  Vectors, forcings and solution tables stay
complex128.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Container, Iterator, Sequence

import numpy as np

from .errors import (CertificateError, InputContractError, NumericError,
                     ShapeError)
from .seq_core import Seminorm, SeminormFamily, Window, as_window

#: (d, d) float64 when real, else complex128, as real_or_complex decides
Matrix = np.ndarray

#: condition estimates above this make a dense solve untrustworthy
COND_LIMIT = 1e12
#: most matrices stacked at once when certificates are derived over a
#: window; bounds the memory a block takes besides the cached matrices
CERT_BLOCK = 64


def real_or_complex(a) -> np.ndarray:
    """``a`` as float64 when every imaginary part is exactly zero, else as
    complex128: the one place an operator's matrices get their dtype.  A
    real stack meeting complex data is cast, which gives the bits of the
    complex stack with zero imaginary parts."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(np.complex128, copy=False)
    return np.ascontiguousarray(a.real, dtype=np.float64)


def complex_stack(stack: np.ndarray) -> np.ndarray:
    """``stack`` as complex128 for a stacked product with complex data,
    with the bits of numpy's own cast; a constant's broadcast view stays a
    view, of its one matrix cast once, where numpy would cast a copy per k.
    """
    if stack.dtype == np.complex128:
        return stack
    if stack.strides[0] == 0:
        return np.broadcast_to(stack[0].astype(np.complex128), stack.shape)
    return stack.astype(np.complex128)


def stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with numpy's bits; complex_stack casts a real operand."""
    if a.dtype != b.dtype:
        a, b = complex_stack(a), complex_stack(b)
    return a @ b


def as_matrix(m, dim: int | None = None) -> Matrix:
    a = real_or_complex(m)
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
    if sn.kind == "sup":
        return _bound(np.abs(matrix).sum(axis=-1).max(axis=-1))
    if sn.kind == "p":
        a = np.abs(matrix)
        n1 = a.sum(axis=-2).max(axis=-1)
        if sn.p == 1:
            return _bound(n1)
        if sn.p == 2:
            # a complex SVD also of a real stack: dgesvd and zgesvd differ
            # in the last bits
            return _bound(np.linalg.norm(
                matrix.astype(np.complex128, copy=False), 2, axis=(-2, -1)))
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


def well_conditioned(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition estimates of a stack (..., d, d) and where they allow a
    dense solve: finite and at most COND_LIMIT."""
    cond = np.linalg.cond(stack)
    return cond, np.isfinite(cond) & (cond <= COND_LIMIT)


def checked_solve(stack: np.ndarray, rhs, name: str,
                  window: Window) -> np.ndarray:
    """A(k)^{-1} rhs for the stack of A(k), k in ``window``, by dense solves
    with partial pivoting; ``rhs`` is one matrix or a stack.

    A condition estimate above COND_LIMIT raises NumericError naming the
    first such ``name``(k): certificate soundness requires trustworthy
    applies.
    """
    cond, ok = well_conditioned(stack)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NumericError(f"{name}({window.start + i}) has condition "
                           f"estimate {cond[i]:.3e} above {COND_LIMIT:.1e}; "
                           f"refusing the dense solve")
    return np.linalg.solve(stack, rhs)


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
    of A(k) for k in w (``period`` None).  Evaluation must be
    deterministic.  A generator evaluates its rule once per
    CERT_BLOCK-aligned run of the k a read has not cached, and caches each
    run's read-only stack: ``_mat_cache`` maps k to (run, stack).  One
    whose ``cache`` is set False keeps none of its matrices; that is for an
    input that only a derived sequence's rule reads (see ``map``), so that
    the derived sequence alone holds what the rule made of them.
    ``matrix(k)`` on a miss reads the one-k window.  ``backend`` is read
    off ``period``: "constant", "periodic" or "generator".

    With a ``family``, c(k) for each of its seminorms is the induced bound
    of A(k), derived once per distinct matrix and cached; without one the
    sequence is plain.  ``sup_bounds[label]`` caps c(k) on all of Z: the
    exact max of the certificates of a constant or periodic sequence, which
    refuses a declared one, and for a generator only what it declares.
    """

    def __init__(self, dim: int, rule, family: SeminormFamily | None = None,
                 sup_bounds: dict[str, float] | None = None):
        """``rule`` is the sequence of distinct matrices or a window rule."""
        self.dim = int(dim)
        self.family = family
        self.cache = True
        self._mat_cache: dict[int, tuple[Window, np.ndarray]] = {}
        self._cert_cache: dict[int, dict[str, float]] = {}
        if callable(rule):
            self._window_fn, self._distinct, self.period = rule, None, None
            self.sup_bounds = sup_bounds or {}
        elif sup_bounds is not None:
            raise InputContractError("a constant or periodic sequence takes "
                                     "no declared sup bounds")
        else:
            self._window_fn, self._distinct = None, tuple(rule)
            self.period = len(self._distinct)
            # the one source of a constant or periodic sup: the exact max
            # of the certificates of its distinct matrices
            distinct = Window(0, self.period - 1)
            self.sup_bounds = {sn.label: float(self.certificate_array(
                sn.label, distinct).max()) for sn in family or ()}

    @property
    def backend(self) -> str:
        return {None: "generator", 1: "constant"}.get(self.period, "periodic")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(matrix, family: SeminormFamily | None = None
                 ) -> "OperatorSequence":
        return OperatorSequence.periodic([matrix], family=family)

    @staticmethod
    def periodic(matrices: Sequence, family: SeminormFamily | None = None
                 ) -> "OperatorSequence":
        mats = [as_matrix(m) for m in matrices]
        if not mats:
            raise InputContractError("periodic backend needs >= 1 matrix")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != dim:
                raise ShapeError("periodic matrices have mixed dimensions")
        return OperatorSequence(dim, mats, family=family)

    @staticmethod
    def map(fn: Callable[..., np.ndarray], *seqs: "OperatorSequence",
            shifts: Sequence[int] | None = None, dim: int | None = None,
            family: SeminormFamily | None = None) -> "OperatorSequence":
        """The derived sequence with the window rule w -> fn(w, *stacks),
        where stacks[i] = seqs[i].matrices(w.shifted(shifts[i])) and fn
        returns the (len(w), dim, dim) stack of its matrices on w from
        those stacks alone, reading no sequence itself.  An input whose
        ``cache`` is False is read through: its stacks are evaluated for fn
        and not kept, and the derived sequence caches its own.  It is
        periodic with the lcm period (constant for period 1) if every input
        is constant or periodic, and fn is then called once, on
        [0, period - 1], so it may use w only to name k in errors.
        Otherwise it is a generator of dimension ``dim`` (default the first
        input's) with no global sup bounds."""
        shifts = tuple(shifts) if shifts is not None else (0,) * len(seqs)

        def at(w: Window) -> np.ndarray:
            return fn(w, *(s.matrices(w.shifted(sh))
                           for s, sh in zip(seqs, shifts)))

        if all(s.period is not None for s in seqs):
            period = lcm(*(s.period for s in seqs))
            return OperatorSequence.periodic(at(Window(0, period - 1)),
                                             family=family)
        return OperatorSequence(dim or seqs[0].dim, at, family=family)

    # -- evaluation --------------------------------------------------------

    def matrix(self, k: int) -> Matrix:
        k = int(k)
        if self._distinct is not None:
            return self._distinct[k % self.period]
        if k not in self._mat_cache:
            return self.runs(Window(k, k))[0][1][0]
        run, stack = self._mat_cache[k]
        return stack[k - run.start]

    def matrices(self, window) -> np.ndarray:
        """A(k) for k in ``window`` as a (len, dim, dim) stack: the one
        piece of ``runs`` when there is one, so a constant gives a
        read-only view of its matrix and a generator the read-only stack
        of the run that ``window`` is, or a view into it; only a window
        across runs is copied."""
        runs = self.runs(window)
        if len(runs) == 1:
            return runs[0][1]
        return np.concatenate([stack for _, stack in runs])

    def runs(self, window) -> list[tuple[Window, np.ndarray]]:
        """A(k) for k in ``window`` as (run, stack) pieces in k order, so a
        long window is read without one stack over all of it.  A constant
        gives one read-only view of its matrix and a periodic sequence one
        stack.  A generator gives views of the runs it has cached (a whole
        run is its own stack) and its rule's stacks on the CERT_BLOCK-aligned
        runs it has not cached, which it caches unless its ``cache`` is
        False."""
        window = as_window(window)
        if self.period == 1:
            return [(window, np.broadcast_to(
                self._distinct[0], (len(window), self.dim, self.dim)))]
        if self._distinct is not None:
            return [(window, np.stack([self._distinct[k % self.period]
                                       for k in window]))]
        fresh = iter(list(window_blocks(window, self._mat_cache)))
        runs = []
        k = window.start
        while k <= window.end:
            if k in self._mat_cache:
                run, stack = self._mat_cache[k]
                w = Window(k, min(run.end, window.end))
                if w != run:
                    stack = stack[k - run.start:w.end - run.start + 1]
            else:
                w = next(fresh)
                stack = self._rule(w)
                if self.cache:
                    self._mat_cache.update((j, (w, stack)) for j in w)
            runs.append((w, stack))
            k = w.end + 1
        return runs

    def _rule(self, w: Window) -> np.ndarray:
        """The window rule's read-only stack on ``w``, shape-checked."""
        stack = real_or_complex(self._window_fn(w))
        if stack.shape != (len(w), self.dim, self.dim):
            raise ShapeError(
                f"window rule gave shape {stack.shape} for {len(w)} "
                f"matrices of dimension {self.dim}")
        stack.flags.writeable = False
        return stack

    def apply_rows(self, start: int, rows: np.ndarray) -> np.ndarray:
        """Row i -> A(start + i) rows[i], with the same bits for each row
        however the rows are cut.  Constant and periodic backends apply
        their few distinct matrices without stacking one per row; a
        generator applies the runs it caches one by one, into the output."""
        out = np.empty(rows.shape, dtype=np.complex128)
        if self.period is not None:
            p = self.period
            for r in range(p):
                part = rows[r::p]
                m = len(part)
                if m == 1:
                    # numpy multiplies a lone row by gemv, whose bits
                    # differ from gemm's on the same row in a longer slice
                    part = np.repeat(part, 2, axis=0)
                out[r::p] = (part @ self.matrix(start + r).T)[:m]
            return out
        for w, stack in self.runs(Window(start, start + len(rows) - 1)):
            i = slice(w.start - start, w.end - start + 1)
            np.einsum("pij,pj->pi", stack, rows[i], out=out[i])
        return out

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
