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
x(k) = A(k) x(k+1) + f(k) down from a zero state at end + max V + 1, a
generator k by k and a constant or periodic A in anchored blocks with a
carry.  Tail bounds only shrink with depth, so the certified bounds still
hold.  The report gives the returned table's measured residual.

``forward_oracle`` iterates the same recurrence from a caller-chosen seed
and is the brute-force reference for longer run-ins; the tests also check
the sweep against the explicit products of the series, which share no
code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import ceil, inf, log

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConvergencePreconditionError, InputContractError,
                     NumericError)
from .operator_model import OperatorSequence, complex_stack
from .seq_core import (BiSequence, PerK, Record, SeminormFamily, Window,
                       as_vector, as_window)

TOL_DEFAULT = 1e-10
V_MAX_DEFAULT = 10_000  # cap on the certified truncation depth
#: certificate products held at once by the depth search
_DEPTH_BLOCK_CELLS = 1 << 17
_SWEEP_BLOCK = 32  # steps per block of a periodic sweep, before rounding up


@dataclass
class SolveReport(Record):
    """Everything needed to audit one solve.

    max_residual is measured on the returned solution over the requested
    window.  truncation_V is the certified depth per k: the sweep sums at
    least that many terms there, and tail_bounds are the per-seminorm tail
    bounds at that depth, which also bound the tail of the longer sum.
    Both are PerK records, one array over the solved k each, which iterate
    and compare as lists of (k, value) pairs and reach report.json through
    PerK.to_json as such lists.  sup_probe is the k-range a generator's
    sups were taken over, None when every sup is global; uniqueness is
    "certified" exactly then.  Every k-range is in the caller's k,
    whichever way the equation runs.  It holds the solve's results only:
    analyses of the solution are reported beside it, and to_dict is the
    fields as plain JSON data, a PerK record as its list of pairs.
    """

    window: tuple[int, int]
    tol: float
    truncation_V: PerK = field(
        default_factory=lambda: PerK(0, np.zeros(0, dtype=int)))
    tail_bounds: dict[str, PerK] = field(default_factory=dict)
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


@np.errstate(over="ignore", invalid="ignore")
def _apply_level(A: OperatorSequence, f_rows: np.ndarray, start: int,
                 keep: int, backward: bool = False) -> np.ndarray:
    """The sweep that sums the series.  f_rows[i] = f(start + i) are the
    forcing rows the sweep reads, in k order.  From a zero state it steps
    x <- A(k) x + f(k) over them, k rising, or with ``backward`` k falling,
    and returns the last ``keep`` states in k order: with k rising the
    state after step k is x(k+1), with k falling it is x(k); either way it
    holds as many terms of the series as steps were taken.

    A is cast to complex128 once per distinct matrix or run, so a real A
    steps with the bits of the same A held complex.  A generator is read
    run by run and stepped k by k.  A constant or periodic A is swept in
    blocks of b steps, _SWEEP_BLOCK rounded up to a whole period, anchored
    at the k the sweep starts from, so no state's bits depend on how far
    the sweep runs: all blocks step in lockstep from zero, their end states
    carry the block starts through the one b-step product, and all blocks
    step again from there.  An overflowing state is kept as it comes out,
    inf or nan, for the caller to reject."""
    n, d, p = len(f_rows), A.dim, A.period
    table = np.empty((keep, d), dtype=np.complex128)
    # the rows, the table and k in the order the sweep steps through them
    step, lead = (-1 if backward else 1), n - keep
    rows, out = f_rows[::step], table[::step]
    # the ufuncs with their outputs passed positionally: each call is most
    # of a step's cost, and keyword parsing a measurable part of it
    matmul, add = np.matmul, np.add
    if p is None:
        x, ax = np.zeros((2, d), dtype=np.complex128)  # the state, A(k) x
        runs = A.runs(Window(start, start + n - 1))[::step]
        mats = (m for _, stack in runs for m in complex_stack(stack)[::step])
        for j, (m, f) in enumerate(zip(mats, rows)):
            matmul(m, x, ax)
            if j >= lead:
                x = out[j - lead]
            add(f, ax, x)
        return table
    # states are rows, stepped by A(k).T; two blocks at least, as numpy
    # multiplies a lone row by gemv, whose bits differ from gemm's
    b = p * -(-_SWEEP_BLOCK // p)
    nb = max(2, -(-n // b))
    anchor = start + n - 1 if backward else start
    distinct = [A.matrix(r).astype(np.complex128).T for r in range(p)]
    mats = [distinct[(anchor + step * i) % p] for i in range(b)]

    def lockstep(x: np.ndarray, write: bool) -> np.ndarray:
        ax = np.empty_like(x)
        for i, m in enumerate(mats[:n]):
            f = rows[i::b]
            c = len(f)
            matmul(x, m, ax)
            add(f, ax[:c], ax[:c])  # blocks past the rows step unforced
            x, ax = ax, x
            if write:
                lo = max(0, -(-(lead - i) // b))
                out[lo * b + i - lead::b] = x[lo:c]
        return x

    starts = np.zeros((nb, d), dtype=np.complex128)
    if n > b:  # else only the first block has rows, and it starts at zero
        ends = lockstep(np.zeros_like(starts), False)
        phi = reduce(matmul, mats)
        for B in range(1, nb):
            starts[B] = ends[B - 1] + starts[B - 1] @ phi
    lockstep(starts, True)
    return table


def _probe_forcing(f: BiSequence, probe: Window, family: SeminormFamily,
                   seen: tuple[Window, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, dict[str, float]]:
    """f on ``probe`` and its sup per seminorm there.  ``seen`` is a
    sub-window of probe and f's values on it, read by an earlier probe:
    only the rows of probe outside it are evaluated, so each k is read
    once however often the probe grows.  The sups are taken over the whole
    table, as one read of probe would give them."""
    def read(w: Window) -> np.ndarray:
        vals = f.window_values(w)
        if not np.isfinite(vals).all():
            raise InputContractError(
                "forcing has non-finite values on the probe window "
                f"[{probe.start}, {probe.end}]")
        return vals

    if seen is None:
        vals = read(probe)
    else:
        known, vals = seen
        parts = [vals]
        if probe.start < known.start:
            parts.insert(0, read(Window(probe.start, known.start - 1)))
        if known.end < probe.end:
            parts.append(read(Window(known.end + 1, probe.end)))
        vals = np.concatenate(parts)
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
    reps = -(-size // n)
    return np.tile(V_arr, reps)[:size], {lbl: np.tile(t, reps)[:size]
                                         for lbl, t in tails.items()}


def solve_series(A: OperatorSequence, f: BiSequence, window,
                 tol: float = TOL_DEFAULT, *, backward: bool = False
                 ) -> tuple[BiSequence, SolveReport]:
    """Truncated series solution on ``window``, tabled one k further right.

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
    x, report, f_rows = _solve_series(A, f, window, tol, 1, backward)
    report.max_residual = residual(A, f_rows, x, window, A.family, backward)
    return x, report


def _solve_series(A: OperatorSequence, f: BiSequence, window, tol: float,
                  extent: int, backward: bool
                  ) -> tuple[BiSequence, SolveReport, np.ndarray]:
    """solve_series without the residual, for callers that report the
    residual of another equation, with the table ``extent`` k longer than
    ``window`` on the right; also returns f's rows on ``window``, which the
    forcing probe read.  A generator A is derived once per probe round
    where its certificates and an inclusion's g = -D f read it."""
    window = as_window(window)
    if not 0 < tol < inf:
        raise InputContractError(f"tol must be a finite number > 0, got {tol}")
    if A.family is None:
        raise InputContractError("operator sequence carries no seminorm family")
    if f.dim != A.dim:
        raise InputContractError(f"forcing dim {f.dim} vs operator dim {A.dim}")
    family = A.family
    work = window.extended(right=extent)
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
    seen = None
    for _ in range(256):
        certs = _certificate_window(work, margin, backward)
        probe = (work.extended(left=1, right=margin) if backward
                 else work.extended(left=margin + 1))
        if A.period is None:
            # the probe's row left of the certificates is read after them,
            # so a failing rule names their first k
            A.runs(Window(certs.start, probe.end))
        sups = {lbl: A.sup_over(lbl, certs) for lbl in labels}
        bad = [lbl for lbl, s in sups.items() if not s < 1.0]
        if bad:
            raise ConvergencePreconditionError(
                "certificate sup bounds not below 1 for seminorms "
                f"{bad}; the series tail cannot be certified")
        f_vals, f_sup = _probe_forcing(f, probe, family, seen)
        seen = probe, f_vals
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

    # the sweep starts v_need + 1 steps beyond work on the far side
    # (margin >= v_need) and runs across work
    if backward:
        start, f_rows = work.start, f_vals[1:len(work) + v_need + 1]
    else:
        start = work.start - v_need - 1
        f_rows = f_vals[margin - v_need:-1]
    acc = _apply_level(A, f_rows, start, len(work), backward)
    bad = np.flatnonzero(~np.isfinite(acc).all(axis=1))
    if bad.size:
        # the first state the sweep reached
        i = int(bad[-1] if backward else bad[0])
        raise NumericError(
            f"the series solution overflows at k={work.start + i}")

    x = BiSequence._adopt_table(work.start, acc)

    report = SolveReport(window=(window.start, window.end), tol=tol)
    report.truncation_V = PerK(work.start, V_arr)
    report.tail_bounds = {lbl: PerK(work.start, tails[lbl]) for lbl in labels}
    report.f_sup = f_sup
    report.f_probe = (probe.start, probe.end)
    report.sup_probe = None if exact else (certs.start, certs.end)
    report.sup_certificates = sups
    report.uniqueness_by_label = is_global
    report.uniqueness = "certified" if exact else "not certified"
    if growth_warning:
        report.warnings.append(growth_warning)
    at = window.start - probe.start
    return x, report, f_vals[at:at + len(window)]


def linear_residual(x: BiSequence, coefs: dict, rhs: tuple, window,
                    family: SeminormFamily) -> dict[str, float]:
    """max over k in window and kappa of kappa(sum_j M_j(k) x(k+j) -
    R(k) g(k)).  ``coefs`` maps j >= 0 to the factors of M_j and ``rhs`` is
    (factors of R, g); a factor is a scalar, a constant matrix, or
    (operator sequence, s) for its matrix at k + s, multiplied in the order
    written: (C, (B, 1)) is C B(k+1) and () is the identity.  g may also
    be given as its rows on the window, as an array."""
    window = as_window(window)
    n = len(window)
    xs = x.window_values(window.extended(right=max(coefs)))
    factors, g = rhs
    if isinstance(g, BiSequence):
        g = g.window_values(window)
    rows = -_apply_factors(factors, g, window.start)
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


def residual(A: OperatorSequence, f: BiSequence | np.ndarray, x: BiSequence,
             window, family: SeminormFamily, backward: bool = False
             ) -> dict[str, float]:
    """max over k in window and kappa of kappa(x(k+1) - A(k) x(k) - f(k)),
    or with ``backward`` of kappa(x(k) - A(k) x(k+1) - f(k)).  f is the
    forcing, or its rows on the window as an array."""
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
    return BiSequence._adopt_table(k0, values)

