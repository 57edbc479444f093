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

The Bohr scan costs O(taus * |k_window| * d / 64) plus O(|k_window| * d)
per tau it evaluates exactly: one window evaluation of F, a lower bound for
every candidate tau from every 64th k, then exact defects only for the few
taus whose bounds leave the answer open.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputContractError
from .seq_core import (BiSequence, Record, Seminorm, SeminormFamily,
                       TrigPoly, Vector, Window, as_window)


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
#: argmin copies the windows it reduces, so it takes this many at a time
ARGMIN_BLOCK = 256
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
        out[i] = sn.of_rows(all_vals[a:a + n] - base).max()
    return out


def _window_argmin(x: np.ndarray, width: int) -> np.ndarray:
    """Index into ``x`` of the smallest entry of every length-``width``
    window of ``x``."""
    views = sliding_window_view(x, width)
    local = np.concatenate([views[s:s + ARGMIN_BLOCK].argmin(axis=1)
                            for s in range(0, len(views), ARGMIN_BLOCK)])
    return np.arange(len(views)) + local


def _stencil_scale(sn: Seminorm, dim: int) -> float:
    """Largest |Re| + |Im| row sum of the stencil matrices sn applies to a
    row, 0 when it applies none."""
    if sn.kind == "stencil":
        s = sn.stencil_matrix(dim)
        return float((np.abs(s.real) + np.abs(s.imag)).sum(axis=1).max())
    if sn.kind == "block_sum" and dim % sn.blocks == 0:
        return sn.blocks * _stencil_scale(sn.base, dim // sn.blocks)
    return 0.0


def _bohr_defects(F: BiSequence, sn: Seminorm, epsilon: float,
                  k_window: Window, taus: np.ndarray, L: int) -> np.ndarray:
    """translation_defects of taus where they can change bohr_check's
    answer, +inf elsewhere: each window's minimum stays exact, and so does
    every comparison with a finite epsilon."""
    base0 = min(k_window.start, k_window.start + int(taus[0]))
    vals = F.window_values(Window(base0, max(k_window.end,
                                             k_window.end + int(taus[-1]))))
    scale = _stencil_scale(sn, vals.shape[1])
    zmax = float(max(np.abs(vals.real).max(), np.abs(vals.imag).max()))
    # non-finite values, or a stencil that may overflow to inf - inf, could
    # put a NaN at a k the lower bounds skip
    if not (np.isfinite(zmax)
            and scale * zmax < np.finfo(np.float64).max / 16):
        return translation_defects(F, sn, k_window, taus)
    # the sup over every LB_STRIDE-th k is a lower bound of the defect, up
    # to the rounding slack of a stencil
    lb = np.zeros(len(taus))
    for row in range(k_window.start - base0, k_window.end - base0 + 1,
                     LB_STRIDE):
        a = row + int(taus[0])
        np.maximum(lb, sn.of_rows(vals[a:a + len(taus)] - vals[row]), out=lb)
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
    defects[first] = translation_defects(F, sn, k_window, taus[first])
    # round 2: a tau can lower the minimum of a window only if its bound is
    # below that window's round-1 value; reach[i] is the largest such value
    # over the windows holding taus[i]
    pad = np.full(L, -np.inf)
    reach = sliding_window_view(np.concatenate([pad, defects[argmins], pad]),
                                L + 1).max(axis=1)
    second = (lb < reach) & ~first
    defects[second] = translation_defects(F, sn, k_window, taus[second])
    return defects


def bohr_check(F: BiSequence, sn: Seminorm, epsilon: float, k_window,
               tau_range, L: int) -> APReport:
    """Scan every start t in tau_range for a translation number in [t, t+L].

    The answer is that of an exhaustive scan of every candidate tau in
    [tau_range.start, tau_range.end + L], bit for bit, but only a few taus
    are evaluated exactly by translation_defects.  A lower bound of every
    defect, the sup over every LB_STRIDE-th k, picks them: each window's
    tau with the lowest bound, every tau whose bound is <= a finite
    epsilon, and then every tau whose bound is below the exact value
    picked in some window holding it.  A skipped tau's defect is >= a value
    already seen in each of its windows and > epsilon, so no window minimum
    and no translation number changes.  With epsilon = inf every tau is a
    translation number.  If the values of F on the scanned range are not
    all finite (or a stencil might overflow), every tau is evaluated, so
    NaN and inf propagate as in the exhaustive scan.  Recorded translation
    numbers are all tau with defect <= epsilon.
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
    best_per_t = sliding_window_view(defects, L + 1).min(axis=1)
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
    return sn.of_rows(F.window_values(window) - P.window_values(window))


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
    if c == 0:
        raise InputContractError("c must be nonzero")
    k_window = as_window(k_window)
    vals = F.window_values(k_window.extended(right=omega))
    n = len(k_window)
    diff = vals[omega:omega + n] - complex(c) * vals[:n]
    return float(max(sn.of_rows(diff).max() for sn in family))


def bohr_fourier_coefficient(F: BiSequence, lam: float, N: int) -> Vector:
    """Empirical mean (2N+1)^{-1} sum_{k=-N}^{N} F(k) exp(-i lam k)."""
    if N < 1:
        raise InputContractError("N must be >= 1")
    ks = np.arange(-N, N + 1)
    vals = F.window_values(Window(-N, N))
    phases = np.exp(-1j * float(lam) * ks)
    return (phases[:, None] * vals).sum(axis=0) / (2 * N + 1)


def fit_trig_poly(F: BiSequence, frequencies, N: int) -> TrigPoly:
    """Trig-polynomial approximant on a user-declared frequency list.

    There is no automatic frequency discovery; coefficients are the
    empirical means at the declared frequencies.
    """
    freqs = [float(l) for l in frequencies]
    if not freqs:
        raise InputContractError("need at least one frequency")
    return TrigPoly.of([(lam, bohr_fourier_coefficient(F, lam, N))
                        for lam in freqs])
