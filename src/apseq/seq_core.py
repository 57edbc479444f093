"""Finite-dimensional value spaces, seminorm families, and Z-indexed sequences.

Values live in C^d.  The topology of the (locally convex) state space is
modeled by a finite family of seminorms rather than a single norm, so all
quantitative statements downstream are "per seminorm".  Sequences are
immutable after construction; derived sequences (linear combinations,
shifts, reflections k -> -k) are lazy views, which keeps evaluation pure and
safe to share across threads.  Each sequence has exactly one evaluation
rule, which maps a window to its values; F(k) is the read-only row of the
one-k window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

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


@lru_cache(maxsize=None)
def _stencil_inverse(offsets: tuple, weights: tuple,
                     dim: int) -> np.ndarray | None:
    """Inverse of ``_stencil_matrix``, or None when that matrix is singular."""
    try:
        inv = np.linalg.solve(_stencil_matrix(offsets, weights, dim),
                              np.eye(dim))
    except np.linalg.LinAlgError:
        return None
    inv.flags.writeable = False
    return inv


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
    kind "p"       : (sum_i |x_i|^p)^(1/p), finite p >= 1
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
        if not 1 <= p < np.inf:
            raise InputContractError(f"p norm requires a finite p >= 1, got "
                                     f"{p} (the sup kind is the inf-norm)")
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

    def stencil_inverse(self, dim: int) -> np.ndarray | None:
        """Inverse of ``stencil_matrix(dim)``, formed once per stencil and
        dimension; None when the stencil matrix is singular."""
        if self.kind != "stencil":
            raise InputContractError("not a stencil seminorm")
        return _stencil_inverse(self.offsets, self.weights, dim)


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

    def eval_many(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.float64)
        out = np.zeros((ks.shape[0], self.dim), dtype=np.complex128)
        for lam, y in self.terms:
            out += np.exp(1j * lam * ks)[:, None] * y[None, :]
        return out


# ---------------------------------------------------------------------------
# Bi-infinite sequences
# ---------------------------------------------------------------------------

class BiSequence:
    """A Z-indexed sequence of C^dim values, evaluable on any finite window.

    Backends: finite table (optionally zero-extended), user rule k -> F(k),
    trigonometric polynomial, and the (omega, c) extension of a base window
    which satisfies F(k + omega) = c * F(k) for all k by construction.
    Each holds one window rule, ``window_fn(w)`` -> a new (len(w), dim)
    array of the values on w; ``F(k)`` is the read-only row of the one-k
    window, so a value has the same bits however it is read.
    ``constant_value`` is the value of a constant sequence, else None.
    """

    constant_value: Vector | None = None

    def __init__(self, dim: int, window_fn: Callable[[Window], np.ndarray]):
        self.dim = int(dim)
        self._window_fn = window_fn

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
        if extend not in (None, "zero"):
            raise InputContractError(f"unknown table extension {extend!r}")

        def window_fn(w: Window) -> np.ndarray:
            lo, hi = max(w.start, window.start), min(w.end, window.end)
            if extend is None and (lo, hi) != (w.start, w.end):
                # name the first k of w outside the table
                k = w.start if w.start not in window else window.end + 1
                raise RangeError(f"k={k} outside table window "
                                 f"[{window.start}, {window.end}]")
            out = np.zeros((len(w), dim), dtype=np.complex128)
            if lo <= hi:
                out[lo - w.start:hi - w.start + 1] = \
                    vals[lo - window.start:hi - window.start + 1]
            return out

        seq = BiSequence(dim, window_fn)
        seq.table_values = vals
        return seq

    @staticmethod
    def from_function(dim: int, fn: Callable[[int], Vector]) -> "BiSequence":
        """The user rule k -> fn(k), read k by k over each window."""
        return BiSequence(dim, lambda w: np.stack([as_vector(fn(k), dim)
                                                   for k in w]))

    @staticmethod
    def constant(value) -> "BiSequence":
        v = as_vector(value)
        seq = BiSequence(v.shape[0], lambda w: np.broadcast_to(
            v, (len(w), v.shape[0])).copy())
        seq.constant_value = v
        return seq

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
        return BiSequence(poly.dim, lambda w: poly.eval_many(
            np.arange(w.start, w.end + 1)))

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

        def window_fn(w: Window) -> np.ndarray:
            q, r = np.divmod(np.arange(w.start, w.end + 1), omega)
            # q runs through q[0]..q[-1], each power looked up once
            qpow = np.array([cpow(j) for j in range(int(q[0]), int(q[-1]) + 1)])
            out = base[r]
            return np.multiply(qpow[q - q[0], None], out, out=out)

        return BiSequence(base.shape[1], window_fn)

    # -- evaluation --------------------------------------------------------

    def __call__(self, k: int) -> Vector:
        k = int(k)
        v = self._window_fn(Window(k, k))[0]
        v.flags.writeable = False
        return v

    def window_values(self, window) -> np.ndarray:
        """Values on a window as a new (len, dim) array, rows in k order,
        from one call of the window rule (views call their parents')."""
        return self._window_fn(as_window(window))


def seq_axpy(alpha: complex, F: BiSequence, beta: complex,
             G: BiSequence) -> BiSequence:
    """Pointwise alpha*F + beta*G as a lazy view."""
    if F.dim != G.dim:
        raise ShapeError(f"dimension mismatch {F.dim} vs {G.dim}")
    a, b = complex(alpha), complex(beta)
    return BiSequence(F.dim, lambda w: (a * F.window_values(w)
                                        + b * G.window_values(w)))


def seq_shift(F: BiSequence, tau: int) -> BiSequence:
    """G(k) = F(k + tau)."""
    t = int(tau)
    return BiSequence(F.dim, lambda w: F.window_values(w.shifted(t)))


def seq_reverse(F: BiSequence) -> BiSequence:
    """G(k) = F(-k); applying it twice reproduces F's values exactly."""
    return BiSequence(F.dim, lambda w: F.window_values(w.reflected())[::-1])


# ---------------------------------------------------------------------------
# CSV serialization: columns k, re_0, im_0, ..., re_{d-1}, im_{d-1}
# ---------------------------------------------------------------------------

FLOAT_FMT = "{:.16e}"  # 17 significant digits, lowercase scientific
#: rows formatted per write
_CSV_BLOCK = 256


def _write_rows(path, header: str, row_fmt: str, keys: np.ndarray,
                vals: np.ndarray) -> None:
    """Write ``header``, then row_fmt % (*keys[i], *vals[i]) for each row of
    the int table ``keys`` and the float table ``vals``.  Rows are formatted
    a block at a time, so the tables are never converted to Python numbers
    at once."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for a in range(0, len(vals), _CSV_BLOCK):
            b = a + _CSV_BLOCK
            fh.write("".join([row_fmt % (*key, *row) for key, row in
                              zip(keys[a:b].tolist(), vals[a:b].tolist())]))


def _float_table(F: BiSequence, window: Window) -> np.ndarray:
    """F on ``window`` as rows re_0, im_0, ..., re_{d-1}, im_{d-1}."""
    return np.ascontiguousarray(F.window_values(window),
                                dtype=np.complex128).view(np.float64)


def write_csv(path, F: BiSequence, window) -> None:
    """Write F on ``window`` in the bytes csv.writer would write for fields
    formatted with FLOAT_FMT; no field needs quoting, and '%.16e' % x equals
    FLOAT_FMT.format(x) for every float."""
    window = as_window(window)
    header = ",".join(["k"] + [f"{p}_{i}" for i in range(F.dim)
                               for p in ("re", "im")]) + "\r\n"
    _write_rows(path, header, "%d" + ",%.16e" * (2 * F.dim) + "\r\n",
                np.arange(window.start, window.end + 1)[:, None],
                _float_table(F, window))


def write_grid_csv(path, F: BiSequence, window) -> None:
    """Write F on ``window`` one component per line, as columns k, idx, re,
    im with FLOAT_FMT fields and '\\n' line ends."""
    window = as_window(window)
    ks = np.arange(window.start, window.end + 1)
    keys = np.stack([np.repeat(ks, F.dim), np.tile(np.arange(F.dim),
                                                   len(ks))], axis=1)
    _write_rows(path, "k,idx,re,im\n", "%d,%d,%.16e,%.16e\n", keys,
                _float_table(F, window).reshape(-1, 2))


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
