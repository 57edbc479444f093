"""Series solver for x(k+1) = A(k) x(k) + f(k) on the integer line, and
for the backward equation x(k) = A(k) x(k+1) + f(k).

The bounded solution of the forward equation is the operator-product series

    x(k) = f(k-1) + sum_{v>=1} A(k-1) A(k-2) ... A(k-v) f(k-1-v),

and that of the backward equation the series

    x(k) = f(k) + sum_{v>=1} A(k) A(k+1) ... A(k+v-1) f(k+v),

which reads A and f to the right of k instead of the left.  Either is well
defined whenever the products of the bound certificates are summable.  The
solver picks per k a certified depth V(k) whose tail bound is below the
requested tolerance for every seminorm, then sums the series in one sweep
in the direction the equation runs: forward from a zero state at
k0 = start - max V - 1 it steps x(k+1) = A(k) x(k) + f(k), so x(k) holds the
first k - k0 terms, at least V(k) of them; backward it steps
x(k) = A(k) x(k+1) + f(k) down from a zero state at end + max V + 1.  Tail
bounds only shrink with depth, so the certified bounds still hold.  The
report gives the measured residual of the returned table rather than
assuming it.

``forward_oracle`` iterates the same recurrence from a caller-chosen seed
and is the brute-force reference for longer run-ins; the tests also check
the sweep against the explicit products of ``op_product_apply``, which
share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf, log

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConvergencePreconditionError, InputContractError,
                     NumericError)
from .operator_model import OperatorSequence
from .seq_core import (BiSequence, Record, SeminormFamily, Window,
                       as_vector, as_window)

TOL_DEFAULT = 1e-10
V_MAX_DEFAULT = 10_000  # cap on the certified truncation depth
#: certificate products held at once by the depth search
_DEPTH_BLOCK_CELLS = 1 << 17


@dataclass
class SolveReport(Record):
    """Everything needed to audit one solve.

    max_residual is measured on the returned solution over the requested
    window.  truncation_V is the certified depth per k: the sweep sums at
    least that many terms there, and tail_bounds are the per-seminorm tail
    bounds at that depth, which also bound the tail of the longer sum.
    sup_probe is the k-range a generator's sups were taken over, None when
    every sup is global; uniqueness is "certified" exactly then.  Every
    k-range is in the caller's k, whichever way the equation runs.  It
    holds the solve's results only: analyses of the solution are reported
    beside it, and to_dict is the fields as held.
    """

    window: tuple[int, int]
    tol: float
    truncation_V: list[tuple[int, int]] = field(default_factory=list)
    tail_bounds: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    max_residual: dict[str, float] = field(default_factory=dict)
    residual_form: str = "first_order"
    f_sup: dict[str, float] = field(default_factory=dict)
    f_probe: tuple[int, int] | None = None
    sup_probe: tuple[int, int] | None = None
    sup_certificates: dict[str, float] = field(default_factory=dict)
    uniqueness: str = "not certified"
    uniqueness_by_label: dict[str, bool] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


def _apply_level(A: OperatorSequence, f_rows: np.ndarray, ks: range,
                 keep: int) -> np.ndarray:
    """The sweep that sums the series.  From a zero state it steps
    x <- A(k) x + f(k) for k in ``ks``, with f_rows[i] = f(ks[i]), and
    returns the last ``keep`` states in sweep order.  With ks rising the
    state after step k is x(k+1), with ks falling it is x(k); either way it
    holds as many terms of the series as steps were taken.  A constant or
    periodic A is read once per distinct matrix.  A state that overflows
    is kept as it comes out, inf or nan, for the caller to reject."""
    p = A.period
    if p is None:
        mats = map(A.matrix, ks)
    else:
        distinct = [A.matrix(r) for r in range(p)]
        mats = [distinct[k % p] for k in ks]
    out = np.empty((keep, A.dim), dtype=np.complex128)
    lead = len(ks) - keep
    x = np.zeros(A.dim, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (m, fk) in enumerate(zip(mats, f_rows)):
            x = m @ x + fk
            if i >= lead:
                out[i - lead] = x
    return out


def _probe_forcing(f: BiSequence, probe: Window, family: SeminormFamily
                   ) -> tuple[np.ndarray, dict[str, float]]:
    vals = f.window_values(probe)
    if not np.isfinite(vals).all():
        raise InputContractError("forcing has non-finite values on the probe "
                                 f"window [{probe.start}, {probe.end}]")
    with np.errstate(over="ignore"):
        sup = {sn.label: float(sn.of_rows(vals).max()) for sn in family}
    bad = [lbl for lbl, s in sup.items() if not np.isfinite(s)]
    if bad:
        raise InputContractError(
            f"forcing has non-finite {bad[0]} sup on the probe window "
            f"[{probe.start}, {probe.end}]")
    return vals, sup


def _geometric_depth(sup_c: float, sup_f: float, tol: float) -> int:
    """Smallest V with sup_c^V * sup_c/(1-sup_c) * sup_f <= tol."""
    if sup_f == 0.0:
        return 0
    head = sup_c / (1.0 - sup_c) * sup_f
    if head == inf:
        raise NumericError(f"tail bound {sup_c:g}/(1-{sup_c:g}) * {sup_f:g} "
                           "of the series overflows")
    if head <= tol:
        return 0
    if sup_c <= 0.0:
        return 1
    return max(0, ceil(log(tol / head) / log(sup_c)))


def _certificate_window(work: Window, margin: int, backward: bool) -> Window:
    """The certificates the depth search multiplies: c(k-1) .. c(k-margin)
    for k in ``work``, or backward c(k) .. c(k+margin-1)."""
    if backward:
        return Window(work.start, work.end + margin - 1)
    return Window(work.start - margin, work.end - 1)


def _truncation_depths(A: OperatorSequence, labels, sups: dict,
                       f_sup: dict, tol: float, work: Window, margin: int,
                       backward: bool = False
                       ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Certified depth V(k) for k in ``work`` and the tail bound it leaves
    per seminorm.  For a seminorm with sup certificate s whose head
    s/(1-s) sup f exceeds tol, V(k) is the smallest v <= margin with
    c(k-1) ... c(k-v) s/(1-s) sup f <= tol (backward c(k) ... c(k+v-1));
    V(k) is the largest over the seminorms.  The products of all k are
    formed at once, row k holding c(k-1), c(k-2), ... (backward c(k),
    c(k+1), ...), in blocks of rows to bound the memory.  The rows of a
    constant or periodic A repeat with its period, so only the first period
    is formed and its depths and tails are tiled over ``work``."""
    size = len(work)
    n = size if A.period is None else min(size, A.period)
    V_arr = np.zeros(n, dtype=int)
    tails: dict[str, np.ndarray] = {}
    failures = []
    block = max(1, _DEPTH_BLOCK_CELLS // margin)
    for order, lbl in enumerate(labels):
        s = sups[lbl]
        head = s / (1.0 - s) * f_sup[lbl]
        if head <= tol:
            tails[lbl] = np.full(n, max(0.0, head))
            continue
        certs = A.certificate_array(lbl, _certificate_window(
            Window(work.start, work.start + n - 1), margin, backward))
        rows = sliding_window_view(certs, margin)
        if not backward:
            rows = rows[:, ::-1]
        tails[lbl] = np.empty(n)
        for a in range(0, n, block):
            bounds = np.cumprod(rows[a:a + block], axis=1)
            bounds *= s / (1.0 - s)
            bounds *= f_sup[lbl]
            ok = bounds <= tol
            reached = ok.any(axis=1)
            if not reached.all():
                failures.append((a + int(np.argmin(reached)), order, lbl))
                break
            V = np.argmax(ok, axis=1) + 1
            np.maximum(V_arr[a:a + block], V, out=V_arr[a:a + block])
            tails[lbl][a:a + block] = bounds[np.arange(len(V)), V - 1]
    if failures:
        i, _, lbl = min(failures)
        raise ConvergencePreconditionError(
            f"certificate products for {lbl!r} at k={work.start + i} do not "
            f"reach tol={tol} within depth {margin}")
    return np.resize(V_arr, size), {lbl: np.resize(t, size)
                                    for lbl, t in tails.items()}


def solve_series(A: OperatorSequence, f: BiSequence, window, tol: float = TOL_DEFAULT,
                 pad_right: int = 1, *, backward: bool = False
                 ) -> tuple[BiSequence, SolveReport]:
    """Truncated series solution on ``window`` (table extends pad_right further).

    Solves x(k+1) = A(k) x(k) + f(k), or with ``backward`` the equation
    x(k) = A(k) x(k+1) + f(k), in the caller's k.  Preconditions: every
    seminorm of A's family has a sup certificate below 1 (otherwise no
    finite prefix certifies the series tail), and the per-k certificate
    products reach the tolerance within V_MAX_DEFAULT terms.  The sup of the
    forcing, and of a certificate with no global sup bound, is taken where
    the sweep and depth search read them (f_probe, sup_probe): left of the
    window forward, right of it backward.  Global sups below 1 make every
    certificate product decay geometrically, so the bounded solution is
    unique: "certified".
    """
    window = as_window(window)
    if not 0 < tol < inf:
        raise InputContractError(f"tol must be a finite number > 0, got {tol}")
    if A.family is None:
        raise InputContractError("operator sequence carries no seminorm family")
    if f.dim != A.dim:
        raise InputContractError(f"forcing dim {f.dim} vs operator dim {A.dim}")
    family = A.family
    # the table always extends one step right so the residual is measurable
    work = window.extended(right=max(1, pad_right))
    far, side = ("+inf", "right") if backward else ("-inf", "left")

    labels = [sn.label for sn in family]
    is_global = {lbl: lbl in A.sup_bounds for lbl in labels}
    exact = all(is_global.values())

    # forcing and certificate probe: iterate the depth estimate to a
    # fixpoint (the probe must cover everything the truncated series and
    # the depth search consume).  For forcings that grow toward the far
    # side the iteration diverges unless the certificates beat the growth,
    # which is exactly the convergence condition.
    margin = 8
    for _ in range(256):
        certs = _certificate_window(work, margin, backward)
        sups = {lbl: A.sup_over(lbl, certs) for lbl in labels}
        bad = [lbl for lbl, s in sups.items() if not s < 1.0]
        if bad:
            raise ConvergencePreconditionError(
                "certificate sup bounds not below 1 for seminorms "
                f"{bad}; the series tail cannot be certified")
        probe = (work.extended(left=1, right=margin) if backward
                 else work.extended(left=margin + 1))
        f_vals, f_sup = _probe_forcing(f, probe, family)
        depth = max(_geometric_depth(sups[sn.label], f_sup[sn.label], tol)
                    for sn in family)
        if depth > V_MAX_DEFAULT:
            raise ConvergencePreconditionError(
                f"certified truncation depth {depth} exceeds "
                f"V_max={V_MAX_DEFAULT}")
        if depth <= margin:
            break
        margin = depth
    else:
        raise ConvergencePreconditionError(
            f"forcing probe did not stabilize: the forcing grows toward {far} "
            "faster than the certificates decay")
    # the probe's rows, farthest from the window first
    rows = f_vals[::-1] if backward else f_vals
    growth_warning = None
    lead = work.start - probe.start
    far_edge = max(sn.of_rows(rows[:8]).max() for sn in family)
    on_window = max(sn.of_rows(f_vals[lead:lead + len(work)]).max()
                    for sn in family)
    if far_edge / 2.0 > on_window and on_window > 0:
        growth_warning = (
            f"forcing grows toward {far} on the probe window; tail bounds "
            f"assume the probed sup extends further {side}")

    V_arr, tails = _truncation_depths(A, labels, sups, f_sup, tol, work,
                                      margin, backward)
    v_need = int(V_arr.max())

    # the sweep starts v_need + 1 steps beyond work on the far side, at
    # row margin - v_need (margin >= v_need), and runs across work
    if backward:
        ks = range(work.end + v_need, work.start - 1, -1)
    else:
        ks = range(work.start - v_need - 1, work.end)
    acc = _apply_level(A, rows[margin - v_need:-1], ks, len(work))
    finite = np.isfinite(acc).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError("the series solution overflows at k="
                           f"{work.end - i if backward else work.start + i}")

    x = BiSequence.from_table(work.start, acc[::-1] if backward else acc)

    report = SolveReport(window=(window.start, window.end), tol=tol)
    report.truncation_V = list(zip(work, V_arr.tolist()))
    report.tail_bounds = {lbl: list(zip(work, tails[lbl].tolist()))
                          for lbl in labels}
    report.f_sup = f_sup
    report.f_probe = (probe.start, probe.end)
    report.sup_probe = None if exact else (certs.start, certs.end)
    report.sup_certificates = sups
    report.uniqueness_by_label = is_global
    report.uniqueness = "certified" if exact else "not certified"
    report.max_residual = residual(A, f, x, window, family, backward)
    if growth_warning:
        report.warnings.append(growth_warning)
    return x, report


def linear_residual(x: BiSequence, coefs: dict, rhs: tuple, window,
                    family: SeminormFamily) -> dict[str, float]:
    """max over k in window and kappa of kappa(sum_j M_j(k) x(k+j) -
    R(k) g(k)).  ``coefs`` maps j >= 0 to the factors of M_j and ``rhs`` is
    (factors of R, g); a factor is a scalar, a constant matrix, or
    (operator sequence, s) for its matrix at k + s, multiplied in the order
    written: (C, (B, 1)) is C B(k+1) and () is the identity."""
    window = as_window(window)
    n = len(window)
    xs = x.window_values(window.extended(right=max(coefs)))
    factors, g = rhs
    rows = -_apply_factors(factors, g.window_values(window), window.start)
    for j, chain in coefs.items():
        rows += _apply_factors(chain, xs[j:j + n], window.start)
    return {sn.label: float(sn.of_rows(rows).max()) for sn in family}


def _apply_factors(factors, rows: np.ndarray, start: int) -> np.ndarray:
    for fac in factors[::-1]:
        if isinstance(fac, tuple):
            seq, shift = fac
            rows = seq.apply_rows(start + shift, rows)
        elif np.ndim(fac):
            rows = rows @ np.asarray(fac).T
        else:
            rows = fac * rows
    return rows


def residual(A: OperatorSequence, f: BiSequence, x: BiSequence, window,
             family: SeminormFamily, backward: bool = False
             ) -> dict[str, float]:
    """max over k in window and kappa of kappa(x(k+1) - A(k) x(k) - f(k)),
    or with ``backward`` of kappa(x(k) - A(k) x(k+1) - f(k))."""
    lhs, rhs = (0, 1) if backward else (1, 0)
    return linear_residual(x, {lhs: (), rhs: (-1.0, (A, 0))}, ((), f),
                           window, family)


def forward_oracle(A: OperatorSequence, f: BiSequence, k0: int, x0,
                   window) -> BiSequence:
    """Exact forward iteration x(k+1) = A(k) x(k) + f(k) from x(k0) = x0.

    No truncation: this is the independent brute-force check of the series.
    """
    window = as_window(window)
    if k0 > window.start:
        raise InputContractError(f"k0={k0} must not exceed window start "
                                 f"{window.start}")
    x = as_vector(x0, A.dim)
    values = np.empty((window.end - k0 + 1, A.dim), dtype=np.complex128)
    values[0] = x
    cur = np.array(x)
    for i, k in enumerate(range(k0, window.end)):
        cur = A.matrix(k) @ cur + f(k)
        values[i + 1] = cur
    return BiSequence.from_table(k0, values)


def weighted_growth_check(x: BiSequence, alpha: float,
                          family: SeminormFamily, window) -> float:
    """max over window and kappa of (1+|k|)^(-alpha) * kappa(x(k)), the
    finite-window proxy for polynomial boundedness."""
    if alpha < 0:
        raise InputContractError("alpha must be >= 0")
    window = as_window(window)
    vals = x.window_values(window)
    weights = (1.0 + np.abs(np.arange(window.start, window.end + 1))) ** (-alpha)
    return float(max((sn.of_rows(vals) * weights).max() for sn in family))
