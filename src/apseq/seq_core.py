"""Finite-dimensional value spaces, seminorm families, and Z-indexed sequences.

Values live in C^d.  The topology of the (locally convex) state space is
modeled by a finite family of seminorms rather than a single norm, so all
quantitative statements downstream are "per seminorm".  Sequences are
immutable after construction; derived sequences (linear combinations,
shifts, time reversals) are lazy views, which keeps evaluation pure and
safe to share across threads.  Every backend except a plain generator rule
evaluates a whole window in one numpy pass, with the same bits as stacking
its per-k values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputContractError, RangeError, ShapeError

Vector = np.ndarray  # 1-D complex128 array of length d


def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce ``x`` to an immutable complex 1-D array, checking the dimension."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D value, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"expected dimension {dim}, got {v.shape[0]}")
    v = v.copy()
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Window:
    """Inclusive integer interval [start, end] on Z."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise InputContractError(f"empty window [{self.start}, {self.end}]")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __iter__(self):
        return iter(range(self.start, self.end + 1))

    def __contains__(self, k: int) -> bool:
        return self.start <= k <= self.end

    def extended(self, left: int = 0, right: int = 0) -> "Window":
        return Window(self.start - left, self.end + right)

    def shifted(self, tau: int) -> "Window":
        return Window(self.start + tau, self.end + tau)

    def reflected(self) -> "Window":
        return Window(-self.end, -self.start)


def as_window(w) -> Window:
    if isinstance(w, Window):
        return w
    a, b = int(w[0]), int(w[1])
    return Window(a, b)


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stencil_matrix(offsets: tuple, weights: tuple, dim: int) -> np.ndarray:
    """Square stencil matrix with zero padding outside [0, dim).

    Zero padding models values that vanish at the boundary, so difference
    stencils stay injective and induced operator bounds remain finite.
    """
    s = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for o, w in zip(offsets, weights):
            j = i + o
            if 0 <= j < dim:
                s[i, j] += w
    s.flags.writeable = False
    return s


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` for a real 2-D array, with the same bits (max is
    exact).  Reducing along a short row axis pays numpy's per-row overhead;
    reducing the transposed copy over axis 0 is one elementwise np.maximum
    across the columns."""
    return a.T.copy().max(axis=0)


@dataclass(frozen=True)
class Seminorm:
    """One seminorm kappa on C^d.

    kind "sup"     : max_i |x_i|
    kind "p"       : (sum_i |x_i|^p)^(1/p), p >= 1
    kind "stencil" : sup norm of a zero-padded difference stencil applied to x,
                     the grid stand-in for a derivative seminorm ||f^(alpha)||
    kind "block_sum": sum of a base seminorm over ``blocks`` equal chunks,
                     the product-space seminorm kappa(y_1,..,y_p) = sum kappa(y_i)
    """

    kind: str
    label: str
    p: float | None = None
    offsets: tuple[int, ...] | None = None
    weights: tuple[complex, ...] | None = None
    base: "Seminorm | None" = None
    blocks: int | None = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def sup(label: str = "sup") -> "Seminorm":
        return Seminorm(kind="sup", label=label)

    @staticmethod
    def p_norm(p: float, label: str | None = None) -> "Seminorm":
        if p < 1:
            raise InputContractError(f"p norm requires p >= 1, got {p}")
        return Seminorm(kind="p", label=label or f"l{p:g}", p=float(p))

    @staticmethod
    def stencil(offsets: Iterable[int], weights: Iterable[complex],
                label: str) -> "Seminorm":
        off = tuple(int(o) for o in offsets)
        wts = tuple(complex(w) for w in weights)
        if len(off) != len(wts) or not off:
            raise InputContractError("stencil needs matching nonempty offsets/weights")
        if all(w == 0 for w in wts):
            raise InputContractError("stencil weights are all zero")
        return Seminorm(kind="stencil", label=label, offsets=off, weights=wts)

    @staticmethod
    def block_sum(base: "Seminorm", blocks: int) -> "Seminorm":
        if blocks < 1:
            raise InputContractError("blocks must be >= 1")
        return Seminorm(kind="block_sum", label=base.label, base=base,
                        blocks=int(blocks))

    @staticmethod
    def first_difference(label: str = "d1") -> "Seminorm":
        return Seminorm.stencil((0, 1), (-1.0, 1.0), label)

    @staticmethod
    def second_difference(label: str = "d2") -> "Seminorm":
        return Seminorm.stencil((-1, 0, 1), (1.0, -2.0, 1.0), label)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> float:
        return float(self.of_rows(np.asarray(x, dtype=np.complex128).reshape(1, -1))[0])

    def of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; ``rows`` has one value per row."""
        rows = np.asarray(rows, dtype=np.complex128)
        if self.kind == "sup":
            return _row_max(np.abs(rows))
        if self.kind == "p":
            return (np.abs(rows) ** self.p).sum(axis=1) ** (1.0 / self.p)
        if self.kind == "stencil":
            s = _stencil_matrix(self.offsets, self.weights, rows.shape[1])
            return _row_max(np.abs(rows @ s.T))
        if self.kind == "block_sum":
            d, rem = divmod(rows.shape[1], self.blocks)
            if rem:
                raise ShapeError(f"dimension {rows.shape[1]} not divisible "
                                 f"into {self.blocks} blocks")
            parts = rows.reshape(rows.shape[0], self.blocks, d)
            out = np.zeros(rows.shape[0])
            for i in range(self.blocks):
                out += self.base.of_rows(parts[:, i, :])
            return out
        raise InputContractError(f"unknown seminorm kind {self.kind!r}")

    def stencil_matrix(self, dim: int) -> np.ndarray:
        if self.kind != "stencil":
            raise InputContractError("not a stencil seminorm")
        return _stencil_matrix(self.offsets, self.weights, dim)


def product_seminorm(parts: Sequence[tuple[Seminorm, Vector]]) -> float:
    """Sum of component seminorm values, the product-space seminorm."""
    if not parts:
        raise InputContractError("product_seminorm needs at least one part")
    return float(sum(sn(x) for sn, x in parts))


@dataclass(frozen=True)
class SeminormFamily:
    """Finite family of seminorms standing in for the topology of the space.

    The family must be separating at desk scale: every basis vector of C^dim
    is seen by at least one member.  Checked at construction.
    """

    seminorms: tuple[Seminorm, ...]
    dim: int

    def __post_init__(self):
        if not self.seminorms:
            raise InputContractError("seminorm family is empty")
        labels = [sn.label for sn in self.seminorms]
        if len(set(labels)) != len(labels):
            raise InputContractError(f"duplicate seminorm labels: {labels}")
        eye = np.eye(self.dim, dtype=np.complex128)
        for j in range(self.dim):
            if not any(sn(eye[j]) > 0.0 for sn in self.seminorms):
                raise InputContractError(
                    f"family is not separating: basis vector {j} is null "
                    f"for every seminorm")

    @staticmethod
    def of(seminorms: Iterable[Seminorm], dim: int) -> "SeminormFamily":
        return SeminormFamily(tuple(seminorms), int(dim))

    @staticmethod
    def sup_only(dim: int) -> "SeminormFamily":
        return SeminormFamily.of([Seminorm.sup()], dim)

    def labels(self) -> list[str]:
        return [sn.label for sn in self.seminorms]

    def by_label(self, label: str) -> Seminorm:
        for sn in self.seminorms:
            if sn.label == label:
                return sn
        raise InputContractError(f"no seminorm labeled {label!r}")

    def lifted(self, blocks: int) -> "SeminormFamily":
        """Product-space family on C^(dim*blocks) with the same labels."""
        return SeminormFamily(
            tuple(Seminorm.block_sum(sn, blocks) for sn in self.seminorms),
            self.dim * blocks)

    def __iter__(self):
        return iter(self.seminorms)


# ---------------------------------------------------------------------------
# Trigonometric polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigPoly:
    """P(k) = sum_j y_j * exp(i * lambda_j * k) with real frequencies."""

    terms: tuple[tuple[float, Vector], ...]

    @staticmethod
    def of(terms: Iterable[tuple[float, Iterable[complex]]]) -> "TrigPoly":
        out = []
        dim = None
        for lam, y in terms:
            v = as_vector(y, dim)
            dim = v.shape[0]
            out.append((float(lam), v))
        if not out:
            raise InputContractError("trig polynomial needs at least one term")
        return TrigPoly(tuple(out))

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    def eval(self, k: int) -> Vector:
        acc = np.zeros(self.dim, dtype=np.complex128)
        for lam, y in self.terms:
            # phase first, the operand order of eval_many: complex products
            # are not commutative bit for bit
            acc += np.exp(1j * lam * k) * y
        acc.flags.writeable = False
        return acc

    def eval_many(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.float64)
        out = np.zeros((ks.shape[0], self.dim), dtype=np.complex128)
        for lam, y in self.terms:
            out += np.exp(1j * lam * ks)[:, None] * y[None, :]
        return out

    def shifted(self, tau: int) -> "TrigPoly":
        return TrigPoly(tuple((lam, as_vector(y * np.exp(1j * lam * tau)))
                              for lam, y in self.terms))


# ---------------------------------------------------------------------------
# Bi-infinite sequences
# ---------------------------------------------------------------------------

class BiSequence:
    """A Z-indexed sequence of C^dim values, evaluable on any finite window.

    Backends: finite table (optionally zero-extended), pure generator rule,
    trigonometric polynomial, and the (omega, c) extension of a base window
    which satisfies F(k + omega) = c * F(k) for all k by construction.
    ``window_fn`` evaluates a whole window in one numpy pass with the same
    bits as stacking ``fn``; without it windows are filled k by k.
    """

    def __init__(self, dim: int, fn: Callable[[int], Vector], backend: str,
                 domain: Window | None = None,
                 window_fn: Callable[[Window], np.ndarray] | None = None):
        self.dim = int(dim)
        self._fn = fn
        self._window_fn = window_fn
        self.backend = backend
        self.domain = domain  # None means all of Z

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_table(start: int, values, extend: str | None = None) -> "BiSequence":
        vals = np.asarray(values, dtype=np.complex128)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ShapeError("table needs a nonempty 2-D value array")
        vals = vals.copy()
        vals.flags.writeable = False
        dim = vals.shape[1]
        window = Window(start, start + vals.shape[0] - 1)
        zero = as_vector(np.zeros(dim))
        if extend not in (None, "zero"):
            raise InputContractError(f"unknown table extension {extend!r}")

        def fn(k: int) -> Vector:
            if k in window:
                return vals[k - window.start]
            if extend == "zero":
                return zero
            raise RangeError(f"k={k} outside table window "
                             f"[{window.start}, {window.end}]")

        def window_fn(w: Window) -> np.ndarray:
            lo, hi = max(w.start, window.start), min(w.end, window.end)
            if extend is None and (lo, hi) != (w.start, w.end):
                # raises the RangeError of the first k outside the table
                fn(w.start if w.start not in window else window.end + 1)
            out = np.zeros((len(w), dim), dtype=np.complex128)
            if lo <= hi:
                out[lo - w.start:hi - w.start + 1] = \
                    vals[lo - window.start:hi - window.start + 1]
            return out

        seq = BiSequence(dim, fn, "table",
                         domain=None if extend else window,
                         window_fn=window_fn)
        seq.table_window = window
        seq.table_values = vals
        return seq

    @staticmethod
    def from_function(dim: int, fn: Callable[[int], Vector],
                      backend: str = "generator") -> "BiSequence":
        return BiSequence(dim, lambda k: as_vector(fn(k), dim), backend)

    @staticmethod
    def constant(value) -> "BiSequence":
        v = as_vector(value)
        return BiSequence(
            v.shape[0], lambda k: v, "generator",
            window_fn=lambda w: np.broadcast_to(v, (len(w), v.shape[0])).copy())

    @staticmethod
    def zeros(dim: int) -> "BiSequence":
        return BiSequence.constant(np.zeros(dim))

    @staticmethod
    def spike(k0: int, value) -> "BiSequence":
        """Zero everywhere except a single entry at k0."""
        v = as_vector(value)
        return BiSequence.from_table(k0, v[None, :], extend="zero")

    @staticmethod
    def from_trig_poly(poly: TrigPoly) -> "BiSequence":
        seq = BiSequence(poly.dim, poly.eval, "trig_poly",
                         window_fn=lambda w: poly.eval_many(
                             np.arange(w.start, w.end + 1)))
        seq.trig_poly = poly
        return seq

    @staticmethod
    def omega_c(base_values, omega: int, c: complex) -> "BiSequence":
        """Extension of one period by F(k + omega) = c * F(k).

        Powers of c are built incrementally (multiply up, divide down) so
        consecutive periods differ by exactly one multiplication by c.
        """
        base = np.asarray(base_values, dtype=np.complex128)
        if base.ndim == 1:
            base = base[:, None]
        omega = int(omega)
        c = complex(c)
        if omega < 1 or base.shape[0] != omega:
            raise InputContractError("base window must hold exactly omega values")
        if c == 0:
            raise InputContractError("c must be nonzero")
        base = base.copy()
        base.flags.writeable = False
        powers = {0: 1.0 + 0.0j}

        def cpow(q: int) -> complex:
            if q not in powers:
                top = max(powers)
                while top < q:
                    powers[top + 1] = powers[top] * c
                    top += 1
                bot = min(powers)
                while bot > q:
                    powers[bot - 1] = powers[bot] / c
                    bot -= 1
            return powers[q]

        def fn(k: int) -> Vector:
            q, r = divmod(k, omega)
            v = cpow(q) * base[r]
            v.flags.writeable = False
            return v

        def window_fn(w: Window) -> np.ndarray:
            q, r = np.divmod(np.arange(w.start, w.end + 1), omega)
            # q runs through q[0]..q[-1], each power looked up once
            qpow = np.array([cpow(j) for j in range(int(q[0]), int(q[-1]) + 1)])
            out = base[r]
            # power first, as in fn: complex products are not commutative
            # bit for bit
            return np.multiply(qpow[q - q[0], None], out, out=out)

        seq = BiSequence(base.shape[1], fn, "omega_c_extension",
                         window_fn=window_fn)
        seq.omega = omega
        seq.c = c
        return seq

    # -- evaluation --------------------------------------------------------

    def __call__(self, k: int) -> Vector:
        return self._fn(int(k))

    def window_values(self, window) -> np.ndarray:
        """Values on a window as a new (len, dim) array, rows in k order.

        Every backend but a plain generator rule evaluates the window in one
        numpy pass (views delegate to their parents' windows); the rows
        equal ``F(k)`` bit for bit either way."""
        window = as_window(window)
        if self._window_fn is not None:
            return self._window_fn(window)
        out = np.empty((len(window), self.dim), dtype=np.complex128)
        for i, k in enumerate(window):
            out[i] = self._fn(k)
        return out


def seq_eval(F: BiSequence, k: int) -> Vector:
    """Deterministic value of F at k (range-checked by the backend)."""
    return F(k)


def seq_axpy(alpha: complex, F: BiSequence, beta: complex,
             G: BiSequence) -> BiSequence:
    """Pointwise alpha*F + beta*G as a lazy view."""
    if F.dim != G.dim:
        raise ShapeError(f"dimension mismatch {F.dim} vs {G.dim}")
    a, b = complex(alpha), complex(beta)

    def fn(k: int) -> Vector:
        v = a * F(k) + b * G(k)
        v.flags.writeable = False
        return v

    return BiSequence(F.dim, fn, "generator",
                      window_fn=lambda w: (a * F.window_values(w)
                                           + b * G.window_values(w)))


def seq_shift(F: BiSequence, tau: int) -> BiSequence:
    """G(k) = F(k + tau)."""
    t = int(tau)
    return BiSequence(F.dim, lambda k: F(k + t), F.backend,
                      domain=None if F.domain is None
                      else F.domain.shifted(-t),
                      window_fn=lambda w: F.window_values(w.shifted(t)))


def seq_reverse(F: BiSequence) -> BiSequence:
    """G(k) = F(-k); applying it twice reproduces F's values exactly."""
    return BiSequence(F.dim, lambda k: F(-k), F.backend,
                      domain=None if F.domain is None
                      else F.domain.reflected(),
                      window_fn=lambda w: F.window_values(w.reflected())[::-1])


# ---------------------------------------------------------------------------
# CSV serialization: columns k, re_0, im_0, ..., re_{d-1}, im_{d-1}
# ---------------------------------------------------------------------------

FLOAT_FMT = "{:.16e}"  # 17 significant digits, lowercase scientific
#: rows formatted per write
_CSV_BLOCK = 256


def write_csv(path, F: BiSequence, window) -> None:
    """Write F on ``window`` in the bytes csv.writer would write for fields
    formatted with FLOAT_FMT; no field needs quoting, and '%.16e' % x equals
    FLOAT_FMT.format(x) for every float.  Rows are formatted a block at a
    time, so the table is never converted to Python floats at once."""
    window = as_window(window)
    vals = np.ascontiguousarray(F.window_values(window),
                                dtype=np.complex128).view(np.float64)
    row_fmt = "%d" + ",%.16e" * vals.shape[1] + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["k"] + [f"{p}_{i}" for i in range(F.dim)
                                   for p in ("re", "im")]) + "\r\n")
        for a in range(0, len(window), _CSV_BLOCK):
            ks = range(window.start + a, window.end + 1)
            fh.write("".join([row_fmt % (k, *row) for k, row in
                              zip(ks, vals[a:a + _CSV_BLOCK].tolist())]))


def read_csv(path) -> BiSequence:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise InputContractError(f"no data rows in {path}")
    header = rows[0]
    dim = (len(header) - 1) // 2
    ks = [int(r[0]) for r in rows[1:]]
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise InputContractError("CSV rows must cover consecutive k")
    vals = np.empty((len(ks), dim), dtype=np.complex128)
    for i, r in enumerate(rows[1:]):
        for j in range(dim):
            # complex() keeps the sign of a zero real part; re + 1j*im drops it
            vals[i, j] = complex(float(r[1 + 2 * j]), float(r[2 + 2 * j]))
    return BiSequence.from_table(ks[0], vals)
