"""Quantitative almost-periodicity checkers on finite windows.

Three classes are checked, each relative to a seminorm kappa:

  Bohr        relative density of eps-translation numbers tau with
              sup_k kappa(F(k+tau) - F(k)) <= eps
  Weyl        windowed averages l^{-1} sum_{j=s..s+l} kappa(F(j)-P(j))^p
              uniformly over the window start s, against a trigonometric
              polynomial P
  Besicovitch symmetric Cesaro averages l^{-1} sum_{|j|<=l} kappa(F(j)-P(j))^p
              with the limit over l estimated from a declared grid

The limits of the definitions are unreachable at desk scale; every checker
states exactly which finite ranges it scanned so results are reproducible.

The Bohr scan reads F once and costs O(taus * |k_window| * d / 64) plus
O(|k_window| * d) per tau it evaluates exactly: a lower bound for every
candidate tau from every 64th k (for the sup seminorm real arithmetic
only, no modulus), then exact defects only for the few taus whose bounds
leave the answer open.  Its minima and maxima over the windows of L + 1
taus take O(taus), not O(taus * L).  Each checker reads F through
``window_values`` on the windows it scans; ``apseq analyze`` hands them F
as a table evaluated once over the hull of every request, so those reads
are slices of one evaluation, and a PhaseTable over the same k, so each
trig phase of the run is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import InputContractError
from .seq_core import (BiSequence, PhaseTable, Record, Seminorm,
                       SeminormFamily, TrigPoly, Window, as_window,
                       check_phases, phase_row)


@dataclass
class APReport(Record):
    """Outcome of a Bohr translation-number scan.

    max_defect is the minimax defect: the worst over window starts t of the
    best achievable sup-defect by some tau in [t, t+L].  The verdict is
    exactly max_defect <= epsilon, so the defect stays diagnosable when the
    verdict is false.
    """

    epsilon: float
    seminorm_label: str
    verdict: bool
    witness_L: int | None
    translation_numbers: list[int]
    max_defect: float
    k_window: tuple[int, int] | None = None
    tau_range: tuple[int, int] | None = None


@dataclass
class BesicovitchReport(Record):
    """Cesaro averages per grid length l and the declared limit estimator."""

    p: float
    values_by_l: list[tuple[int, float]]
    limsup_estimate: float
    seminorm_label: str | None = None


#: the Bohr scan's lower bounds take every LB_STRIDE-th k of the k-window
LB_STRIDE = 64
#: rounding allowance of a stencil row value, relative to the bound
#: _stencil_scale * max|component| on it: BLAS rounds the same row
#: differently in differently shaped products
STENCIL_SLACK = 2.0 ** -40


def translation_defects(F: BiSequence, sn: Seminorm, k_window,
                        taus: np.ndarray) -> np.ndarray:
    """sup_{k in k_window} kappa(F(k+tau) - F(k)) for each tau."""
    k_window = as_window(k_window)
    taus = np.asarray(taus, dtype=np.int64)
    if taus.size == 0:
        return np.empty(0)
    lo = k_window.start + int(taus.min())
    hi = k_window.end + int(taus.max())
    all_vals = F.window_values(Window(min(lo, k_window.start),
                                      max(hi, k_window.end)))
    base0 = min(lo, k_window.start)
    base = all_vals[k_window.start - base0:k_window.end - base0 + 1]
    n = len(k_window)
    out = np.empty(taus.shape[0])
    for i, tau in enumerate(taus):
        a = k_window.start + int(tau) - base0
        out[i] = sn.max_of_rows(all_vals[a:a + n] - base)
    return out


def _blocks(x: np.ndarray, width: int) -> np.ndarray:
    """``x`` cut into rows of ``width`` entries, the last row padded with
    copies of x's last entry: every length-``width`` window of ``x`` is a
    suffix of one row and a prefix of the next, or one whole row."""
    return np.pad(x, (0, -len(x) % width), mode="edge").reshape(-1, width)


def _window_reduce(x: np.ndarray, width: int, op) -> np.ndarray:
    """op (np.minimum or np.maximum) over every length-``width`` window of
    ``x``, NaN propagating, in O(len(x)): op of the running op over the
    window's suffix in one row of _blocks and over its prefix in the
    next."""
    rows = _blocks(x, width)
    pre = op.accumulate(rows, axis=1).ravel()
    suf = op.accumulate(rows[:, ::-1], axis=1)[:, ::-1].ravel()
    start = np.arange(len(x) - width + 1)
    return op(suf[start], pre[start + width - 1])


def _window_argmin(x: np.ndarray, width: int) -> np.ndarray:
    """Index into ``x`` (no NaN) of the first smallest entry of every
    length-``width`` window of ``x``, in O(len(x)), as in _window_reduce
    with the index at which each running minimum was first reached."""
    rows = _blocks(x, width)
    idx = np.arange(rows.size).reshape(rows.shape)
    # a prefix's minimum moves only to a strictly smaller entry
    pre = np.minimum.accumulate(rows, axis=1)
    new = np.ones(rows.shape, dtype=bool)
    new[:, 1:] = rows[:, 1:] < pre[:, :-1]
    pre_at = np.maximum.accumulate(np.where(new, idx, 0), axis=1).ravel()
    # a suffix's minimum moves to every entry that is not larger, the
    # earlier one of a tie
    back = rows[:, ::-1]
    suf = np.minimum.accumulate(back, axis=1)
    new[:, 1:] = back[:, 1:] <= suf[:, :-1]
    suf_at = np.minimum.accumulate(np.where(new, idx[:, ::-1], rows.size),
                                   axis=1)[:, ::-1].ravel()
    pre, suf = pre.ravel(), suf[:, ::-1].ravel()
    start = np.arange(len(x) - width + 1)
    end = start + width - 1
    return np.where(suf[start] <= pre[end], suf_at[start], pre_at[end])


def _stencil_scale(sn: Seminorm, dim: int) -> float:
    """Largest |Re| + |Im| row sum of the stencil matrices sn applies to a
    row, 0 when it applies none."""
    if sn.kind == "stencil":
        s = sn.stencil_matrix(dim)
        return float((np.abs(s.real) + np.abs(s.imag)).sum(axis=1).max())
    if sn.kind == "block_sum" and dim % sn.blocks == 0:
        return sn.blocks * _stencil_scale(sn.base, dim // sn.blocks)
    return 0.0


def _sup_lower_bounds(vals: np.ndarray, rows: range, shift: int,
                      n_taus: int) -> np.ndarray:
    """For the j-th tau (shift + j): the max over the rows r of ``rows`` and
    the components i of max(|Re D_i|, |Im D_i|), D = vals[r + shift + j] -
    vals[r].  Re D and Im D are the parts of the complex difference, bit for
    bit, and np.abs(D_i) is at least either, so each bound is at most the
    exact sup defect with no rounding slack, and inf where D overflows."""
    # real and imaginary parts as rows of one contiguous array, so each
    # step is one elementwise pass over every component
    parts = np.concatenate([vals.real.T, vals.imag.T])
    acc = np.zeros((parts.shape[0], n_taus))
    diff = np.empty_like(acc)
    for r in rows:
        np.subtract(parts[:, r + shift:r + shift + n_taus], parts[:, r, None],
                    out=diff)
        np.abs(diff, out=diff)
        np.maximum(acc, diff, out=acc)
    return acc.max(axis=0)


def _bohr_defects(F: BiSequence, sn: Seminorm, epsilon: float,
                  k_window: Window, taus: np.ndarray, L: int) -> np.ndarray:
    """translation_defects of taus where they can change bohr_check's
    answer, +inf elsewhere: each window's minimum stays exact, and so does
    every comparison with a finite epsilon.

    F is read once on the scanned range, and translation_defects reads
    that read.  The lower bound of each tau is its defect's sup over every
    LB_STRIDE-th k: for the sup seminorm the component-wise bound of
    _sup_lower_bounds, for the other kinds of_rows less a stencil's
    rounding slack."""
    base0 = min(k_window.start, k_window.start + int(taus[0]))
    vals = F.window_values(Window(base0, max(k_window.end,
                                             k_window.end + int(taus[-1]))))
    scanned = BiSequence._adopt_table(base0, vals)
    scale = _stencil_scale(sn, vals.shape[1])
    zmax = float(max(np.abs(vals.real).max(), np.abs(vals.imag).max()))
    # non-finite values, or a stencil that may overflow to inf - inf, could
    # put a NaN at a k the lower bounds skip
    if not (np.isfinite(zmax)
            and scale * zmax < np.finfo(np.float64).max / 16):
        return translation_defects(scanned, sn, k_window, taus)
    rows = range(k_window.start - base0, k_window.end - base0 + 1, LB_STRIDE)
    if sn.kind == "sup":
        lb = _sup_lower_bounds(vals, rows, int(taus[0]), len(taus))
    else:
        lb = np.zeros(len(taus))
        for row in rows:
            a = row + int(taus[0])
            np.maximum(lb, sn.of_rows(vals[a:a + len(taus)] - vals[row]),
                       out=lb)
        lb -= STENCIL_SLACK * scale * 2 * zmax
    # round 1: each window's lowest bound, and every tau that may be an
    # epsilon-translation number (with epsilon = inf every tau is one
    # without an exact value)
    argmins = _window_argmin(lb, L + 1)
    first = np.zeros(len(taus), dtype=bool)
    first[argmins] = True
    if np.isfinite(epsilon):
        first |= lb <= epsilon
    defects = np.full(len(taus), np.inf)
    defects[first] = translation_defects(scanned, sn, k_window, taus[first])
    # round 2: a tau can lower the minimum of a window only if its bound is
    # below that window's round-1 value; reach[i] is the largest such value
    # over the windows holding taus[i]
    pad = np.full(L, -np.inf)
    reach = _window_reduce(np.concatenate([pad, defects[argmins], pad]),
                           L + 1, np.maximum)
    second = (lb < reach) & ~first
    defects[second] = translation_defects(scanned, sn, k_window,
                                          taus[second])
    return defects


def bohr_check(F: BiSequence, sn: Seminorm, epsilon: float, k_window,
               tau_range, L: int) -> APReport:
    """Scan every start t in tau_range for a translation number in [t, t+L].

    The answer is that of an exhaustive scan of every candidate tau in
    [tau_range.start, tau_range.end + L], bit for bit, but only a few taus
    are evaluated exactly by translation_defects, on the one read of F the
    scan makes.  A lower bound of every defect over every LB_STRIDE-th k
    (see _bohr_defects) picks them: each window's tau with the lowest
    bound, every tau whose bound is <= a finite epsilon, and then every
    tau whose bound is below the exact value picked in some window holding
    it.  A skipped tau's defect is >= a value already seen in each of its
    windows and > epsilon, so no window minimum and no translation number
    changes.  With epsilon = inf every tau is a translation number.  If
    the values of F on the scanned range are not all finite (or a stencil
    might overflow), every tau is evaluated, so NaN and inf propagate as
    in the exhaustive scan.  Recorded translation numbers are all tau with
    defect <= epsilon.  An exact defect is always np.abs of the complex
    difference: np.hypot of its parts differs from it in the last bit for
    about a third of random values.
    """
    if L < 1:
        raise InputContractError("interval length L must be >= 1")
    if not epsilon >= 0:
        raise InputContractError(f"epsilon must be >= 0, got {epsilon}")
    k_window = as_window(k_window)
    tau_range = as_window(tau_range)
    taus = np.arange(tau_range.start, tau_range.end + L + 1)
    defects = _bohr_defects(F, sn, epsilon, k_window, taus, L)
    # minimax over sliding windows of length L+1 (tau in [t, t+L])
    best_per_t = _window_reduce(defects, L + 1, np.minimum)
    max_defect = float(best_per_t.max())
    verdict = bool(max_defect <= epsilon)
    translations = taus[defects <= epsilon].tolist()
    return APReport(epsilon=float(epsilon), seminorm_label=sn.label,
                    verdict=verdict, witness_L=L if verdict else None,
                    translation_numbers=translations, max_defect=max_defect,
                    k_window=(k_window.start, k_window.end),
                    tau_range=(tau_range.start, tau_range.end))


def _difference_values(F: BiSequence, P: BiSequence, sn: Seminorm,
                       window: Window) -> np.ndarray:
    if F.dim != P.dim:
        raise InputContractError(f"dimension mismatch {F.dim} vs {P.dim}")
    vals = F.window_values(window)
    vals -= P.window_values(window)
    return sn.of_rows(vals)


def weyl_distance(F: BiSequence, P: BiSequence, sn: Seminorm, p: float,
                  l: int, s_range) -> float:
    """max over s in s_range of l^{-1} sum_{j=s}^{s+l} kappa(F(j)-P(j))^p.

    The sum has l+1 terms by definition; the normalizer is l.
    """
    if l < 1:
        raise InputContractError("window length l must be >= 1")
    if not 1 <= p < np.inf:
        raise InputContractError(f"exponent p must be a finite number >= 1, "
                                 f"got {p}")
    s_range = as_window(s_range)
    vals = _difference_values(F, P, sn,
                              Window(s_range.start, s_range.end + l)) ** p
    csum = np.concatenate([[0.0], np.cumsum(vals)])
    n_starts = len(s_range)
    sums = csum[l + 1:l + 1 + n_starts] - csum[:n_starts]
    return float(sums.max() / l)


def besicovitch_distance(F: BiSequence, P: BiSequence, sn: Seminorm, p: float,
                         l_grid=(64, 128, 256, 512)) -> BesicovitchReport:
    """Symmetric averages l^{-1} sum_{j=-l}^{l} kappa(F(j)-P(j))^p per grid l.

    The limit over l is estimated as the max over the largest quartile of the
    grid, a declared estimator in place of the unreachable limsup.
    """
    grid = [int(l) for l in l_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise InputContractError("l_grid must be nonempty and increasing")
    if not 1 <= p < np.inf:
        raise InputContractError(f"exponent p must be a finite number >= 1, "
                                 f"got {p}")
    lmax = grid[-1]
    vals = _difference_values(F, P, sn, Window(-lmax, lmax)) ** p
    csum = np.concatenate([[0.0], np.cumsum(vals)])

    def symmetric_sum(l: int) -> float:
        return float(csum[lmax + l + 1] - csum[lmax - l])

    values = [(l, symmetric_sum(l) / l) for l in grid]
    top = max(1, ceil(len(grid) / 4))
    limsup = max(v for _, v in values[-top:])
    return BesicovitchReport(p=float(p), values_by_l=values,
                             limsup_estimate=float(limsup),
                             seminorm_label=sn.label)


def omega_c_check(F: BiSequence, omega: int, c: complex,
                  family: SeminormFamily, k_window) -> float:
    """max over k in k_window and kappa of kappa(F(k+omega) - c F(k));
    zero means (omega, c)-periodic on the window."""
    if omega < 1:
        raise InputContractError("omega must be a positive integer")
    if c == 0 or not np.isfinite(c):
        raise InputContractError(f"c must be finite and nonzero, got {c}")
    k_window = as_window(k_window)
    vals = F.window_values(k_window.extended(right=omega))
    n = len(k_window)
    diff = vals[omega:omega + n] - complex(c) * vals[:n]
    return max(sn.max_of_rows(diff) for sn in family)


def fit_trig_poly(F: BiSequence, frequencies, N: int,
                  phases: PhaseTable | None = None) -> TrigPoly:
    """Trig-polynomial approximant on a user-declared frequency list.

    There is no automatic frequency discovery; coefficients are the
    empirical means (2N+1)^{-1} sum_{k=-N}^{N} F(k) e^{-i lam k} at the
    declared frequencies, all from one read of F on [-N, N].  e^{-i lam k}
    is the conjugate of phase_row's e^{i lam k}, a slice of ``phases`` when
    it holds [-N, N]; it differs from np.exp(-1j * lam * k) only in the sign
    of a zero imaginary part (at k = 0, and for lam = 0), which no nonzero
    value of F carries into a coefficient.  A frequency declared twice is
    rejected: each copy would get the full mean at it.
    """
    freqs = [float(l) for l in frequencies]
    if not freqs:
        raise InputContractError("need at least one frequency")
    if N < 1:
        raise InputContractError("N must be >= 1")
    seen = set()
    for lam in freqs:
        if lam in seen:
            raise InputContractError(
                f"frequency {lam} is declared more than once: each copy "
                f"would get the full empirical mean at it")
        seen.add(lam)
    check_phases(freqs, -N, N)
    window = Window(-N, N)
    vals = F.window_values(window)
    return TrigPoly.of([
        (lam, (np.conj(phase_row(lam, window, phases))[:, None] * vals
               ).sum(axis=0) / (2 * N + 1))
        for lam in freqs])
