"""Finite-dimensional value spaces, seminorm families, and Z-indexed sequences.

Values live in C^d.  The topology of the (locally convex) state space is
modeled by a finite family of seminorms rather than a single norm, so all
quantitative statements downstream are "per seminorm".  Sequences are
immutable after construction; derived sequences (linear combinations)
are lazy views, which keeps evaluation pure and safe to share across
threads.  Each sequence has exactly one evaluation rule, which maps a
window to its values; F(k) is the read-only row of the one-k window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import isfinite
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


def as_int(v, what: str) -> int:
    """``v`` as an int, from an int or an integral float; a boolean or a
    non-integral number is an input-contract error naming ``what``."""
    if isinstance(v, (bool, np.bool_)) or (
            isinstance(v, (float, np.floating)) and not float(v).is_integer()):
        raise InputContractError(f"{what} must be an integer, got {v!r}")
    return int(v)


def as_window(w) -> Window:
    if isinstance(w, Window):
        return w
    return Window(as_int(w[0], "window start"), as_int(w[1], "window end"))


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stencil_matrix(offsets: tuple, weights: tuple, dim: int) -> np.ndarray:
    """Square stencil matrix with zero padding outside [0, dim), float64
    when every weight is real and complex128 otherwise.

    Zero padding models values that vanish at the boundary, so difference
    stencils stay injective and induced operator bounds remain finite.
    """
    if all(w.imag == 0 for w in weights):
        weights = tuple(w.real for w in weights)
    s = np.zeros((dim, dim), dtype=np.result_type(*weights, np.float64))
    for o, w in zip(offsets, weights):
        s += w * np.eye(dim, k=o)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=None)
def _stencil_inverse(offsets: tuple, weights: tuple,
                     dim: int) -> np.ndarray | None:
    """Inverse of ``_stencil_matrix``, in its dtype, or None when that
    matrix is singular."""
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

    def max_of_rows(self, rows: np.ndarray) -> float:
        """max over the rows of kappa(row), as of_rows(rows).max(); for the
        sup kind it is one reduction of |rows| over every entry, with the
        same bits (max is exact)."""
        if self.kind == "sup":
            return float(np.abs(np.asarray(rows, dtype=np.complex128)).max())
        return float(self.of_rows(rows).max())

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
        seen = np.zeros(self.dim, dtype=bool)
        for sn in self.seminorms:
            seen |= sn.of_rows(eye) > 0.0
        if not seen.all():
            raise InputContractError(
                f"family is not separating: basis vector "
                f"{int(np.argmin(seen))} is null for every seminorm")

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

def check_phases(frequencies: Iterable[float], *ks: float) -> None:
    """Raise InputContractError naming the first frequency lam that is not
    finite, or whose phase lam * k is not finite at some k of ``ks``.
    Given the two ends of a window of k, where |lam * k| is largest, it
    passes only if every k of the window has a finite phase, and each
    evaluation then keeps its bits."""
    for lam in frequencies:
        lam = float(lam)
        if not isfinite(lam):
            raise InputContractError(
                f"trig polynomial frequency {lam} is not finite")
        for k in ks:
            if not isfinite(lam * k):
                raise InputContractError(
                    f"trig polynomial frequency {lam} overflows at k = "
                    f"{k:g}: the phase frequency * k is not finite")


def trig_phases(lam: float, ks: np.ndarray) -> np.ndarray:
    """e^{i lam k} for each k of the float64 array ``ks``: the one formula
    every trig phase in apseq is computed by (a trig polynomial's, in a
    PhaseTable's rows or on a window of their own, a fit's and a
    ``scaled_constant`` operator's scale), so a phase has the same bits
    wherever it is read."""
    return np.exp(1j * lam * ks)


@dataclass(frozen=True, eq=False)
class PhaseTable(Window):
    """A window of k with e^{i lam k} tabulated on it: each distinct
    frequency's row is computed by trig_phases on first use and held by this
    table alone, so the phases live as long as the table.  Being a Window,
    it is also what a trig sequence is evaluated on to read its phases from
    the table."""

    rows: dict = field(default_factory=dict, init=False, repr=False)

    def row(self, lam: float, window: Window) -> np.ndarray | None:
        """e^{i lam k} for k in ``window``, a read-only slice of lam's row;
        None when ``window`` is not inside the table or lam * k is not
        finite at its ends (the caller then computes, and checks, its own
        window)."""
        if not (self.start <= window.start and window.end <= self.end
                and isfinite(lam * self.start) and isfinite(lam * self.end)):
            return None
        key = float(lam).hex()  # -0.0's phases differ from 0.0's in zeros
        row = self.rows.get(key)
        if row is None:
            row = trig_phases(lam, np.arange(self.start, self.end + 1,
                                             dtype=np.float64))
            row.flags.writeable = False
            self.rows[key] = row
        return row[window.start - self.start:window.end - self.start + 1]


def phase_row(lam: float, window: Window,
              phases: PhaseTable | None = None) -> np.ndarray:
    """e^{i lam k} for k in ``window``: a slice of ``phases`` where it
    holds the window, else computed by trig_phases."""
    row = phases.row(lam, window) if phases is not None else None
    if row is None:
        row = trig_phases(lam, np.arange(window.start, window.end + 1,
                                         dtype=np.float64))
    return row


@dataclass(frozen=True)
class TrigPoly:
    """P(k) = sum_j y_j * exp(i * lambda_j * k), frequencies finite reals."""

    terms: tuple[tuple[float, Vector], ...]

    @staticmethod
    def of(terms: Iterable[tuple[float, Iterable[complex]]]) -> "TrigPoly":
        out = []
        dim = None
        for lam, y in terms:
            v = as_vector(y, dim)
            dim = v.shape[0]
            lam = float(lam)
            check_phases([lam])
            out.append((lam, v))
        if not out:
            raise InputContractError("trig polynomial needs at least one term")
        return TrigPoly(tuple(out))

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    def on_window(self, window: Window,
                  phases: PhaseTable | None = None) -> np.ndarray:
        """P(k) for k in ``window`` as a new (len, dim) array, its phases
        read from ``phases`` (a window that is a PhaseTable serves as its
        own) by phase_row."""
        if phases is None and isinstance(window, PhaseTable):
            phases = window
        check_phases((lam for lam, _ in self.terms), window.start, window.end)
        out = np.zeros((len(window), self.dim), dtype=np.complex128)
        for lam, y in self.terms:
            out += phase_row(lam, window, phases)[:, None] * y[None, :]
        return out


# ---------------------------------------------------------------------------
# Bi-infinite sequences
# ---------------------------------------------------------------------------

class BiSequence:
    """A Z-indexed sequence of C^dim values, evaluable on any finite window.

    Backends: finite table (optionally zero-extended), trigonometric
    polynomial, the (omega, c) extension of a base window which satisfies
    F(k + omega) = c * F(k) for all k by construction, and a window rule
    ``window_fn(w)`` -> a new (len(w), dim) array of the values on w, which
    every backend holds; ``F(k)`` is the read-only row of the one-k window,
    so a value has the same bits however it is read.
    ``constant_value`` is the value of a constant sequence, else None.
    """

    constant_value: Vector | None = None

    def __init__(self, dim: int, window_fn: Callable[[Window], np.ndarray]):
        self.dim = int(dim)
        self._window_fn = window_fn

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_table(start: int, values, extend: str | None = None) -> "BiSequence":
        """The table of ``values`` (one row per k from ``start``), zero
        outside it with ``extend="zero"``; the values are copied."""
        return BiSequence._table(start, values, extend, adopt=False)

    @staticmethod
    def _adopt_table(start: int, values,
                     extend: str | None = None) -> "BiSequence":
        """from_table for an array its caller built and hands over: a
        C-contiguous complex array that owns its data is held as is, made
        read-only, any other (a view, such as a slice) is copied."""
        return BiSequence._table(start, values, extend, adopt=True)

    @staticmethod
    def _table(start: int, values, extend: str | None,
               adopt: bool) -> "BiSequence":
        vals = np.asarray(values, dtype=np.complex128)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ShapeError("table needs a nonempty 2-D value array")
        if not (adopt and vals.flags.owndata and vals.flags.c_contiguous):
            vals = vals.copy()
        vals.flags.writeable = False
        dim = vals.shape[1]
        window = Window(start, start + vals.shape[0] - 1)
        if extend not in (None, "zero"):
            raise InputContractError(f"unknown table extension {extend!r}")

        def window_fn(w: Window) -> np.ndarray:
            lo, hi = max(w.start, window.start), min(w.end, window.end)
            if (lo, hi) == (w.start, w.end):
                return vals[lo - window.start:hi - window.start + 1].copy()
            if extend is None:
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
    def from_trig_poly(poly: TrigPoly,
                       phases: PhaseTable | None = None) -> "BiSequence":
        """P as a sequence whose phases are read from ``phases`` on the
        windows it holds (see TrigPoly.on_window)."""
        return BiSequence(poly.dim, lambda w: poly.on_window(w, phases))

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
        # up[j] = c^j and down[j] = c^-j, each one multiplication (division)
        # by c from the last
        up, down = [1.0 + 0.0j], [1.0 + 0.0j]

        def powers(q0: int, q1: int) -> np.ndarray:
            """c^q for q in [q0, q1]."""
            while len(up) <= q1:
                up.append(up[-1] * c)
            while len(down) <= -q0:
                down.append(down[-1] / c)
            return np.array(down[max(1, -q1):max(1, 1 - q0)][::-1]
                            + up[max(0, q0):max(0, q1 + 1)])

        def window_fn(w: Window) -> np.ndarray:
            q, r = np.divmod(np.arange(w.start, w.end + 1), omega)
            # q runs through q[0]..q[-1], each power looked up once
            qpow = powers(int(q[0]), int(q[-1]))
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


# ---------------------------------------------------------------------------
# Serialization: report records, and CSV with columns k, re_0, im_0, ...,
# re_{d-1}, im_{d-1}
# ---------------------------------------------------------------------------

class Record:
    """Base of the report dataclasses."""

    def to_dict(self) -> dict:
        """The fields as plain JSON data: a tuple as a list, a PerK record,
        also one in a dict field, as the list of its (k, value) pairs."""
        def plain(v):
            if isinstance(v, PerK):
                return list(v)
            if isinstance(v, dict):
                return {key: plain(u) for key, u in v.items()}
            return v
        return {name: plain(v) for name, v in self._held().items()}

    def _held(self) -> dict:
        """The fields as held, a tuple field as a list, for the report
        writer, which sorts keys, writes nested tuples as arrays and a PerK
        record through PerK.to_json."""
        return {f.name: list(v) if isinstance(v := getattr(self, f.name),
                                              tuple) else v
                for f in fields(self)}


class PerK:
    """Values v(k) for k = start, start + 1, ..., held as one int or float
    array.  It iterates and compares as the list of (k, v(k)) pairs it
    stands for, v(k) a Python int or float, and ``to_json`` gives the bytes
    json.dumps gives that list."""

    __slots__ = ("start", "values")
    __hash__ = None

    def __init__(self, start: int, values: np.ndarray):
        self.start = int(start)
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return zip(range(self.start, self.start + len(self.values)),
                   self.values.tolist())

    def __eq__(self, other):
        if isinstance(other, (PerK, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PerK({self.start}, {self.values!r})"

    def to_json(self) -> str:
        """json.dumps(list(self)), from one uint8 row per pair laid out
        like a CSV row (see _write_rows): _format_ints writes the k and int
        values, and each distinct float is formatted once, as json.dumps
        formats it, and gathered into the rows it appears in."""
        n = len(self.values)
        if n == 0:
            return "[]"
        ks = np.arange(self.start, self.start + n)
        vals = self.values
        if vals.dtype.kind == "f":
            # distinct by bits, which keeps -0.0 apart from 0.0;
            # float.__repr__ is what json.dumps writes for a finite float
            bits, index = np.unique(
                np.ascontiguousarray(vals, dtype=np.float64).view(np.int64),
                return_inverse=True)
            floats = bits.view(np.float64)
            texts = list(map(float.__repr__, floats.tolist()))
            for i in np.flatnonzero(~np.isfinite(floats)):
                texts[i] = _JSON_NONFINITE[texts[i]]
            cells = np.take(np.array(texts, dtype="S").view(np.uint8).reshape(
                len(texts), -1), index, axis=0)
        else:
            cells = np.zeros((n, _int_width(vals)), dtype=np.uint8)
            _format_ints(vals, cells)
        # '[', k, ', ', v, '], '
        kw = _int_width(ks)
        rows = np.zeros((n, kw + cells.shape[1] + 6), dtype=np.uint8)
        rows[:, 0] = ord("[")
        _format_ints(ks, rows[:, 1:kw + 1])
        rows[:, kw + 1:kw + 3] = np.frombuffer(b", ", dtype=np.uint8)
        rows[:, kw + 3:-3] = cells
        rows[:, -3:] = np.frombuffer(b"], ", dtype=np.uint8)
        return "[" + _packed(rows)[:-2].decode() + "]"


#: json.dumps' names of the floats whose repr is nan, inf or -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


FLOAT_FMT = "{:.16e}"  # 17 significant digits, lowercase scientific
#: floats formatted per block of rows, which keeps the scratch arrays small
_CSV_BLOCK_FLOATS = 4096
#: the vector path's range of |x|: 10^s, its splits and every partial
#: product stay normal and finite for each exponent s it needs
_SAFE_MIN, _SAFE_MAX = 1e-250, 1e250
#: a field with |frac(y) - 1/2| at or below this is formatted by '%'
_TIE_MARGIN = 1e-6
#: bytes per float field: sign, digit, '.', 16 digits, 'e', sign, 3 digits
_FIELD = 24


@lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """As one uint32 each: the four ASCII digits of 0..9999, and the four
    bytes after 'e' of each exponent E in [-400, 400] (at E + 400): sign,
    hundreds digit (a zero pad byte below 100) and two digits.  Built on
    the first write, so a run that writes no CSV never pays for them."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                          dtype=np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), dtype=np.uint8)
    quads[..., :2] = pairs[:, None]
    quads[..., 2:] = pairs[None, :]
    e = np.arange(-400, 401)
    exps = np.empty((len(e), 4), dtype=np.uint8)
    exps[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    exps[:, 1] = np.where(abs(e) >= 100, abs(e) // 100 + ord("0"), 0)
    exps[:, 2:] = pairs[abs(e) % 100]
    tables = quads.view(np.uint32).reshape(-1), exps.view(np.uint32)[:, 0]
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _pow10_pair(s: int) -> tuple[float, float]:
    """(hi, lo) with hi = fl(10^s) and lo = fl(10^s - hi); int / int is
    correctly rounded, so both are exact roundings."""
    p, q = 10 ** max(s, 0), 10 ** max(-s, 0)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = h + l, each half of at most 26 significant bits,
    so products of halves are exact."""
    c = a * 134217729.0  # 2^27 + 1
    h = c - (c - a)
    return h, a - h


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^s as a double-double (y_hi, y_lo) with y_hi = fl(a * hi):
    Dekker's product gives a * hi - y_hi exactly, and y_lo adds a * lo."""
    s0 = int(s.min())
    s = s - s0
    his, los = np.zeros((2, int(s.max()) + 1))
    for i in np.flatnonzero(np.bincount(s.ravel())):
        his[i], los[i] = _pow10_pair(s0 + int(i))
    hi = np.take(his, s)
    y_hi = a * hi
    (ah, al), (bh, bl) = _split(a), _split(hi)
    err = (((ah * bh - y_hi) + ah * bl) + al * bh) + al * bl
    return y_hi, err + a * np.take(los, s)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, exact) for the float array x: |v| rounds to N 10^(E - 16) at
    17 significant digits, N in [10^16, 10^17) (N = 0, E = 0 for a zero),
    except where ``exact`` marks a field to be formatted by '%'.

    For 1e-250 < |v| < 1e250, N = round(y), y = |v| 10^s, s = 16 - E,
    where E = floor(log10 |v|) puts y in [10^16, 10^17).  y is formed as a
    double-double (y_hi, y_lo): the product with hi = fl(10^s) is exact,
    and the rounding of lo, of |v| lo and of their sum each add at most
    2^-49 since y < 2^57, so y_hi + y_lo is within 2^-47 of y.  y_hi >=
    2^53 is an integer, so N = y_hi + floor(y_lo) + [frac(y_lo) > 1/2] is
    the correctly rounded N unless y is within 2^-47 of a half-integer.
    Every field with |frac(y_lo) - 1/2| <= _TIE_MARGIN (1e-6, far above
    2^-47) is marked exact, and so are the exact ties, which '%' rounds
    half-even.  The log10 guess of E is checked on y_hi + y_lo, never on N:
    a v just below 10^E has y just below 10^16, and its digits are those of
    10 y at E - 1.  A carry to N = 10^17 moves to E + 1.  inf, nan and every
    other nonzero |v| are marked exact.
    """
    ax = np.abs(x)
    vec = (ax > _SAFE_MIN) & (ax < _SAFE_MAX)
    a = np.where(vec, ax, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    y_hi, y_lo = _scaled(a, 16 - E)
    low = (y_hi - 1e16) + y_lo < 0
    fix = low | ((y_hi - 1e17) + y_lo >= 0)
    if fix.any():
        E[fix] += np.where(low[fix], -1, 1)
        y_hi[fix], y_lo[fix] = _scaled(a[fix], 16 - E[fix])
    floor = np.floor(y_lo)
    frac = y_lo - floor
    N = y_hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    E += carry
    zero = ax == 0
    N[zero] = 0
    E[zero] = 0
    exact = ~(vec | zero) | vec & (np.abs(frac - 0.5) <= _TIE_MARGIN)
    return N, E, exact


def _format_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of '%.16e' % v for each v of the float array x into
    ``out[..., :_FIELD]``, which holds zero bytes: in fixed columns (sign,
    digit, '.', 16 digits, 'e', exponent sign, 3 exponent digits) with a
    zero byte for an absent sign or hundreds digit, from _decimal's digits,
    or left-aligned for a field it marks exact, formatted by '%'."""
    N, E, exact = _decimal(x)
    # N = q 10^8 + r; q < 10^9 and r < 10^8 are exact as floats
    q = N // 10 ** 8
    r = (N - q * 10 ** 8).astype(np.float64)
    q = q.astype(np.float64)
    d0 = np.floor(q / 1e8)
    q -= d0 * 1e8
    q_hi, r_hi = np.floor(q / 1e4), np.floor(r / 1e4)
    quads = np.stack([q_hi, q - q_hi * 1e4, r_hi, r - r_hi * 1e4], axis=-1)

    digits4, exponents = _digit_tables()
    out[..., 0] = np.signbit(x) * np.uint8(ord("-"))
    out[..., 1] = d0 + ord("0")
    out[..., 2] = ord(".")
    out[..., 3:19] = np.take(digits4, quads.astype(np.intp)).view(np.uint8)
    out[..., 19] = ord("e")
    out[..., 20:24] = np.take(exponents, E + 400)[..., None].view(np.uint8)
    for i in zip(*np.nonzero(exact)):
        field = ("%.16e" % x[i]).encode()
        out[i] = 0
        out[i][:len(field)] = np.frombuffer(field, dtype=np.uint8)


def _format_ints(k: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of '%d' % v for each v of the 1-D int array k into
    ``out`` (zero bytes beforehand, one more column than the widest |v| has
    digits): a sign column, then the digits right-aligned after zero pad
    bytes."""
    a = np.abs(k)
    out[k < 0, 0] = ord("-")
    width = out.shape[1] - 1
    for j in range(width):
        p = 10 ** j
        col = out[:, width - j]
        col[:] = a // p % 10 + ord("0")
        if j:
            col[a < p] = 0


def _int_width(k: np.ndarray) -> int:
    """Columns _format_ints needs for the int array k: a sign column and
    the digits of the largest |v|."""
    return len(str(np.abs(k).max())) + 1


def _packed(rows: np.ndarray) -> bytes:
    """The bytes of a uint8 row matrix without its zero pad bytes."""
    return rows.tobytes().replace(b"\0", b"")


def _write_rows(path, header: str, eol: str, keys: np.ndarray,
                vals: np.ndarray) -> None:
    """Write ``header``, then for each row i the bytes of

        ",".join(["%d"] * nk + ["%.16e"] * m) % (*keys[i], *vals[i]) + eol

    for the (n, nk) int table ``keys`` and the (n, m) float table ``vals``.

    A block of rows is laid out as one uint8 matrix of zero bytes, each
    field in columns of its own, filled by _format_ints and _format_floats
    and written with one call once the zero pad bytes are dropped.  Both
    match '%' byte for byte; _format_floats hands each float it cannot
    decide within its error bound to '%' itself.
    """
    n, m = vals.shape
    step = max(1, _CSV_BLOCK_FLOATS // m)
    widths = [_int_width(col) for col in keys.T]
    # each int, then a ',' (the last is the first float's), then ',' and
    # a field per float, then eol
    ends = np.cumsum([w + 1 for w in widths])
    width = ends[-1] - 1 + m * (_FIELD + 1) + len(eol)
    tail = np.frombuffer(eol.encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for a in range(0, n, step):
            kb, vb = keys[a:a + step], vals[a:a + step]
            rows = np.zeros((len(vb), width), dtype=np.uint8)
            for j, w in enumerate(widths):
                _format_ints(kb[:, j], rows[:, ends[j] - 1 - w:ends[j] - 1])
            fields = rows[:, ends[-1] - 1:width - len(tail)].reshape(
                len(vb), m, _FIELD + 1)
            rows[:, ends - 1] = fields[..., 0] = ord(",")
            _format_floats(vb, fields[..., 1:])
            rows[:, width - len(tail):] = tail
            fh.write(_packed(rows))


def _float_table(F: BiSequence, window: Window) -> np.ndarray:
    """F on ``window`` as rows re_0, im_0, ..., re_{d-1}, im_{d-1}."""
    return np.ascontiguousarray(F.window_values(window),
                                dtype=np.complex128).view(np.float64)


def write_csv(path, F: BiSequence, window) -> None:
    """Write F on ``window`` in the bytes csv.writer would write for fields
    formatted with FLOAT_FMT: the header k, re_0, im_0, ..., then per k of
    the window '%d' % k and the '%.16e' fields of re and im of each
    component, ',' between fields and '\\r\\n' line ends.  No field needs
    quoting, and '%.16e' % x equals FLOAT_FMT.format(x) for every float.
    The fields come from _write_rows' vector kernel, which formats nan,
    +-inf, |x| outside (1e-250, 1e250) and fields within 1e-6 of a rounding
    tie by '%' itself."""
    window = as_window(window)
    header = ",".join(["k"] + [f"{p}_{i}" for i in range(F.dim)
                               for p in ("re", "im")]) + "\r\n"
    _write_rows(path, header, "\r\n",
                np.arange(window.start, window.end + 1)[:, None],
                _float_table(F, window))


def write_grid_csv(path, F: BiSequence, window) -> None:
    """Write F on ``window`` one component per line, as columns k, idx, re,
    im with FLOAT_FMT fields and '\\n' line ends."""
    window = as_window(window)
    ks = np.arange(window.start, window.end + 1)
    keys = np.stack([np.repeat(ks, F.dim), np.tile(np.arange(F.dim),
                                                   len(ks))], axis=1)
    _write_rows(path, "k,idx,re,im\n", "\n", keys,
                _float_table(F, window).reshape(-1, 2))


def read_csv(path) -> BiSequence:
    """The table of a CSV in write_csv's layout: a header k, re_0, im_0,
    ..., then one row per consecutive k.  The columns are parsed whole by
    numpy, every float bit for bit (a signed zero and the sign of an inf
    included)."""
    with open(path, newline="") as fh:
        header = fh.readline()
        lines = fh.read().splitlines()
    if not any(line.strip() for line in lines):
        raise InputContractError(f"no data rows in {path}")
    dim = (len(header.split(",")) - 1) // 2
    rows = np.loadtxt(lines, delimiter=",", ndmin=1, dtype=np.dtype(
        [("k", np.int64), ("v", np.float64, (dim, 2))]))
    ks = rows["k"]
    if (ks != ks[0] + np.arange(len(ks))).any():
        raise InputContractError("CSV rows must cover consecutive k")
    # the parts are set apart: re + 1j*im would drop the sign of a zero
    # real part
    vals = np.empty((len(ks), dim), dtype=np.complex128)
    vals.real[:] = rows["v"][..., 0]
    vals.imag[:] = rows["v"][..., 1]
    return BiSequence._adopt_table(int(ks[0]), vals)
