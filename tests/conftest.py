import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from apseq import BiSequence, OperatorSequence
from apseq.operator_model import COND_LIMIT, as_matrix, induced_bound
from apseq.seq_core import as_vector

# CLI tests run ``python -m apseq.cli`` in subprocesses, which import the
# package from src/ as the tests do (pyproject's pytest pythonpath)
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def per_k_operator(dim, fn, family=None, sup_bounds=None):
    """The generator of the per-k rule k -> fn(k), as the window rule that
    stacks fn(k) over each window."""
    return OperatorSequence(
        dim, lambda w: np.stack([as_matrix(fn(k), dim) for k in w]),
        family, sup_bounds)


def per_k_sequence(dim, fn):
    """The value sequence of the per-k rule k -> fn(k) as a window rule."""
    return BiSequence(dim, lambda w: np.stack([as_vector(fn(k), dim)
                                               for k in w]))


def axpy(alpha, F, beta, G):
    """Pointwise alpha F + beta G as a window rule over F's and G's."""
    a, b = complex(alpha), complex(beta)
    return BiSequence(F.dim, lambda w: (a * F.window_values(w)
                                        + b * G.window_values(w)))


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def scaled_to_certificate(m, family, target):
    """Rescale a matrix so its worst induced bound over the family equals
    target."""
    worst = max(induced_bound(m, sn) for sn in family)
    return m * (target / worst)


def random_certified_operator(rng, family, target_sup, backend="constant",
                              period=3):
    """Random operator sequence whose auto-certificates stay at or below
    target_sup.  The generator backend declares no global sup bound, so
    solves take its sup over the certificates they read."""
    dim = family.dim
    if backend == "constant":
        m = scaled_to_certificate(random_matrix(rng, dim), family, target_sup)
        return OperatorSequence.constant(m, family=family)
    if backend == "periodic":
        mats = [scaled_to_certificate(random_matrix(rng, dim), family,
                                      target_sup * rng.uniform(0.5, 1.0))
                for _ in range(period)]
        return OperatorSequence.periodic(mats, family=family)
    if backend == "generator":
        base = scaled_to_certificate(random_matrix(rng, dim), family,
                                     target_sup)

        def fn(k, _b=base):
            return _b * (0.55 + 0.45 * np.sin(0.7 * k))

        return per_k_operator(dim, fn, family=family)
    raise ValueError(backend)


def inverse_of(G):
    """The plain sequence k -> G(k)^{-1}: the A(k) whose [A(k)]^{-1} C is
    G(k) when C = I."""
    return OperatorSequence.map(lambda w, g: np.linalg.inv(g), G)


def apply(A, k, x):
    """A(k) x for one vector, as one matrix-vector product: the reference
    for the stacked products the solver forms."""
    x = np.asarray(x, dtype=np.complex128)
    assert x.shape == (A.dim,)
    return A.matrix(k) @ x


def op_product_apply(A, k, v, x):
    """A(k-1) A(k-2) ... A(k-v) x, applied right to left as matrix-vector
    products; the full product matrix is never formed.  The explicit terms
    of the series, which share no code with the solver's sweep."""
    assert v >= 1
    y = np.asarray(x, dtype=np.complex128)
    for i in range(v, 0, -1):
        y = apply(A, k - i, y)
    return y


def reference_sweep(A, f_rows, start, keep, backward=False):
    """The series sweep as it was first written, x = A(k) x + f(k) into a
    fresh array at every step; the reference for the step loop and the
    blocked sweep of first_order._apply_level, with its arguments and
    result."""
    n = len(f_rows)
    if backward:
        ks, rows = range(start + n - 1, start - 1, -1), f_rows[::-1]
    else:
        ks, rows = range(start, start + n), f_rows
    out = np.empty((keep, A.dim), dtype=np.complex128)
    lead = n - keep
    x = np.zeros(A.dim, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (k, fk) in enumerate(zip(ks, rows)):
            x = A.matrix(k) @ x + fk
            if i >= lead:
                out[i - lead] = x
    return out[::-1] if backward else out


def dense_selection(sys_, k):
    """The companion reduction selection at k as the dense triple product
    bold_B(k) [bold_A(k)]^{-1} bold_C, the reference for its blockwise
    assembly."""
    return sys_.bold_B(k) @ np.linalg.solve(sys_.bold_A(k), sys_.bold_C())


def companion_forward_oracle(sys_, f, k0, vec0, window):
    """Forward iteration of a companion system from vec u(k0) = vec0,
    solving boldC boldB(k+1) vec u(k+1) = boldA(k) vec u(k) + boldC vec f(k)
    step by step with dense solves (needs invertible boldC boldB): the
    reference for the order-2 solver, which shares none of its arithmetic.
    Returns vec u on [k0, window[1]]."""
    vec_f = sys_.lift(f)
    bc = sys_.bold_C()
    values = [np.asarray(vec0, dtype=np.complex128)]
    for k in range(k0, window[1]):
        lhs = bc @ sys_.bold_B(k + 1)
        assert np.linalg.cond(lhs) <= COND_LIMIT, f"singular step at k={k}"
        values.append(np.linalg.solve(
            lhs, sys_.bold_A(k) @ values[-1] + bc @ vec_f(k)))
    return BiSequence.from_table(k0, values)


def reference_row_values(sn, rows):
    """Per-row seminorm values with every row reduction taken along axis 1,
    the reference for the reductions Seminorm.of_rows uses."""
    rows = np.asarray(rows, dtype=np.complex128)
    if sn.kind == "sup":
        return np.abs(rows).max(axis=1)
    if sn.kind == "p":
        return (np.abs(rows) ** sn.p).sum(axis=1) ** (1.0 / sn.p)
    if sn.kind == "stencil":
        return np.abs(rows @ sn.stencil_matrix(rows.shape[1]).T).max(axis=1)
    assert sn.kind == "block_sum"
    d = rows.shape[1] // sn.blocks
    out = np.zeros(rows.shape[0])
    for i in range(sn.blocks):
        out += reference_row_values(sn.base, rows[:, i * d:(i + 1) * d])
    return out


def exhaustive_bohr_check(F, sn, epsilon, k_window, tau_range, L):
    """The Bohr scan with an exact defect for every candidate tau, the
    reference for bohr_check's pruned scan."""
    from apseq.ap_analysis import APReport, translation_defects
    from apseq.seq_core import as_window

    k_window, tau_range = as_window(k_window), as_window(tau_range)
    taus = np.arange(tau_range.start, tau_range.end + L + 1)
    defects = translation_defects(F, sn, k_window, taus)
    windows = np.lib.stride_tricks.sliding_window_view(defects, L + 1)
    max_defect = float(windows.min(axis=1).max())
    verdict = bool(max_defect <= epsilon)
    return APReport(epsilon=float(epsilon), seminorm_label=sn.label,
                    verdict=verdict, witness_L=L if verdict else None,
                    translation_numbers=taus[defects <= epsilon].tolist(),
                    max_defect=max_defect,
                    k_window=(k_window.start, k_window.end),
                    tau_range=(tau_range.start, tau_range.end))


def reference_json_text(value, indent: str = "") -> str:
    """report.json's text written list by list: every list through
    json.dumps, a per-k record as the list of its (k, value) pairs.  The
    reference for cli._json_text, which writes per-k records by their
    vector kernel."""
    import json
    if not isinstance(value, dict) or not value:
        return json.dumps(value, sort_keys=True, default=list)
    inner = indent + "  "
    return ("{\n" + ",\n".join(f"{inner}{json.dumps(key)}: "
                                f"{reference_json_text(v, inner)}"
                                for key, v in sorted(value.items()))
            + "\n" + indent + "}")


def _exact(x) -> Fraction:
    """A real config number, plain or an [re, im] pair with im == 0, as
    the exact rational value of the float it is."""
    if isinstance(x, (list, tuple)):
        re, im = x
        assert im == 0, "the exact reference takes real data only"
        x = re
    return Fraction(x)


def _exact_matrix(desc) -> list[list[Fraction]]:
    """A constant operator descriptor, or operators.C's bare matrix."""
    if isinstance(desc, dict):
        assert desc["backend"] == "constant", desc
        desc = desc["matrix"]
    return [[_exact(x) for x in row] for row in desc]


def _exact_vector(desc) -> list[Fraction]:
    assert desc["backend"] == "constant", desc
    return [_exact(x) for x in desc["value"]]


def _mat_mul(a, b):
    return [[sum((a[i][j] * b[j][c] for j in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for i in range(len(a))]


def _mat_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _exact_solve(m, r):
    """m^{-1} r by Gauss-Jordan elimination over Fraction."""
    n = len(m)
    rows = [list(m[i]) + [r[i]] for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


def exact_constant_solution(config: dict) -> list[Fraction]:
    """The constant solution u of a scenario config whose operators and
    forcing are constant and real, from the config's own numbers in exact
    rational arithmetic: each float is taken at its exact binary value and
    u solves M u = r by Gauss-Jordan elimination over Fraction, with

        degenerate_vb   C B(k+1) u(k+1) = A(k) u(k) + C f(k):
                        M = C B - A,             r = C f
        degenerate_vb1  B(k+1) C u(k+1) = A(k) u(k) + C g(k):
                        M = B C - A,             r = C g
        second_order    C A2 u(k+2) + C A1 u(k+1) + A0 u(k) = C f(k):
                        M = C A2 + C A1 + A0,    r = C f

    C is operators.C, else the identity.  When the reduction's selection
    has certificate sups below 1 this is the unique bounded solution.  The
    reference shares no code or arithmetic with apseq: it reads the config
    as plain data and imports nothing of the package."""
    ops, dim = config["operators"], config.get("dim", 1)
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    C = _exact_matrix(ops["C"]) if "C" in ops else eye
    kind = config["kind"]
    if kind == "degenerate_vb":
        m = _mat_add(_mat_mul(C, _exact_matrix(ops["B"])),
                     _exact_matrix(ops["A"]), -1)
        rhs = config["forcing"]
    elif kind == "degenerate_vb1":
        m = _mat_add(_mat_mul(_exact_matrix(ops["B"]), C),
                     _exact_matrix(ops["A"]), -1)
        rhs = config["sequences"]["g"]
    else:
        assert kind == "second_order", kind
        lead = _mat_add(_exact_matrix(ops["A2"]), _exact_matrix(ops["A1"]))
        m = _mat_add(_mat_mul(C, lead), _exact_matrix(ops["A0"]))
        rhs = config["forcing"]
    r = [row[0] for row in _mat_mul(C, [[x] for x in _exact_vector(rhs)])]
    return _exact_solve(m, r)
