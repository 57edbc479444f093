import numpy as np
import pytest

from apseq import (BiSequence, ConvergencePreconditionError,
                   InputContractError, NumericError, OperatorSequence, Seminorm,
                   SeminormFamily, TrigPoly, Window, bohr_check, forward_oracle,
                   omega_c_check, residual, solve_series)
from apseq.first_order import _SWEEP_BLOCK, SolveReport, _apply_level
from apseq.ap_analysis import besicovitch_distance
from conftest import (axpy, op_product_apply, per_k_operator, per_k_sequence,
                      random_certified_operator, reference_sweep)

SUP = Seminorm.sup()
FAM1 = SeminormFamily.sup_only(1)
SUP_L1 = (Seminorm.sup(), Seminorm.p_norm(1))


def half_identity(dim=1):
    return OperatorSequence.constant(0.5 * np.eye(dim),
                                     family=SeminormFamily.sup_only(dim))


def test_geometric_fixed_point():
    # A = I/2, f = 1: x = 1 + sum (1/2)^v = 2
    A = half_identity()
    f = BiSequence.constant([1.0])
    x, rep = solve_series(A, f, (-10, 10), tol=1e-10)
    for k in range(-10, 11):
        assert abs(x(k)[0] - 2.0) <= 1e-10
    assert rep.max_residual["sup"] <= 3e-10 * 1.5
    assert rep.uniqueness == "certified"


def test_forward_oracle_geometric_partial_sum():
    A = half_identity()
    f = BiSequence.constant([1.0])
    orc = forward_oracle(A, f, -60, [0.0], (-10, 10))
    assert orc(0)[0] == pytest.approx(2.0 * (1 - 2.0 ** -60), rel=1e-15)
    # one step from the seed: x(k0+1) = A(k0) x0 + f(k0)
    assert orc(-59)[0] == 1.0


def test_forward_oracle_zero_everything():
    A = half_identity()
    orc = forward_oracle(A, BiSequence.zeros(1), -30, [0.0], (-5, 5))
    for k in range(-5, 6):
        assert orc(k)[0] == 0.0


def test_zero_forcing_gives_zero_series():
    A = half_identity()
    x, rep = solve_series(A, BiSequence.zeros(1), (-5, 5))
    for k in range(-5, 6):
        assert x(k)[0] == 0.0
    assert rep.max_residual["sup"] == 0.0


def test_zero_operator_keeps_leading_term():
    A = OperatorSequence.constant([[0.0]], family=FAM1)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.9, [1.5])]))
    x, _ = solve_series(A, f, (-8, 8))
    for k in range(-8, 9):
        assert np.array_equal(x(k), f(k - 1))


def test_residual_of_homogeneous_halving_solution_is_exactly_zero():
    A = half_identity()
    x = BiSequence.omega_c([[1.0]], 1, 0.5)  # x(k) = 2^{-k}
    res = residual(A, BiSequence.zeros(1), x, (-20, 20), FAM1)
    assert res["sup"] == 0.0


def test_residual_zero_solution_zero_forcing():
    A = half_identity()
    res = residual(A, BiSequence.zeros(1), BiSequence.zeros(1), (-5, 5), FAM1)
    assert res["sup"] == 0.0


@pytest.mark.parametrize("backend", ["constant", "periodic", "generator"])
def test_series_matches_forward_oracle(backend, rng):
    fam = SeminormFamily.sup_only(4)
    A = random_certified_operator(rng, fam, 0.7, backend=backend)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(4)), (1.0, rng.standard_normal(4) * 0.5)]))
    window = (-15, 15)
    x, rep = solve_series(A, f, window, tol=1e-11)
    orc = forward_oracle(A, f, -215, np.zeros(4), window)
    worst = max(np.abs(x(k) - orc(k)).max() for k in range(-15, 16))
    assert worst <= 1e-9
    assert rep.max_residual["sup"] <= 3 * 1e-11 * (1 + rep.sup_certificates["sup"])


def test_oracle_convergence_tight_for_half_certificates(rng):
    # sup c <= 1/2 and a 60-step run-in: the forward oracle agrees with the
    # series to 1e-15 relative, per k on the window
    fam = SeminormFamily.sup_only(3)
    A = random_certified_operator(rng, fam, 0.5, backend="periodic")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.6, rng.standard_normal(3))]))
    window = (-8, 8)
    x, _ = solve_series(A, f, window, tol=1e-15)
    orc = forward_oracle(A, f, window[0] - 60, np.zeros(3), window)
    for k in range(window[0], window[1] + 1):
        scale = max(1.0, SUP(x(k)))
        assert SUP(x(k) - orc(k)) / scale <= 1e-15


def explicit_series(A, f, k, V):
    """f(k-1) + sum_{v<=V} A(k-1) ... A(k-v) f(k-1-v), term by term."""
    total = np.array(f(k - 1), dtype=np.complex128)
    for v in range(1, V + 1):
        total = total + op_product_apply(A, k, v, f(k - 1 - v))
    return total


@pytest.mark.parametrize("backend", ["constant", "periodic", "generator",
                                     "zero", "permutation"])
def test_sweep_matches_explicit_products(backend, rng):
    # the sweep and the explicit products share no code; they differ only
    # by the terms past V(k), which the reported tail bound covers
    fam = SeminormFamily.of(SUP_L1, 3)
    if backend == "zero":
        A = OperatorSequence.constant(np.zeros((3, 3)), family=fam)
    elif backend == "permutation":
        # products keep exactly the certificate product as their norm, so
        # a sweep that sums fewer than V(k) terms misses the tail bound
        eye = np.eye(3)
        A = OperatorSequence.periodic([0.6 * eye[[1, 2, 0]], 0.6 * eye,
                                       0.6 * eye[[2, 0, 1]]], family=fam)
    else:
        A = random_certified_operator(rng, fam, 0.6, backend=backend)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(3)), (0.9, rng.standard_normal(3))]))
    window = (-20, 19)
    x, rep = solve_series(A, f, window, tol=1e-10)
    depth = dict(rep.truncation_V)
    for k in range(window[0], window[1] + 1):
        diff = x(k) - explicit_series(A, f, k, depth[k])
        for sn in fam:
            assert sn(diff) <= dict(rep.tail_bounds[sn.label])[k] + 1e-13


def sweep_operator(rng, backend, dim, real, gain=0.9, with_zero=True):
    """A plain sequence of the backend whose matrices have norm ``gain``
    (within 10% for the generator), real-valued when ``real``.  With
    ``with_zero``, periodic and generator sequences are zero at some k,
    where A(k) x is a zero whose sign depends on how the product is
    formed."""
    def draw():
        m = rng.standard_normal((dim, dim))
        if not real:
            m = m + 1j * rng.standard_normal((dim, dim))
        return gain * m / np.linalg.norm(m, 2)

    zero = np.zeros((dim, dim)) if with_zero else draw()
    if backend == "constant":
        return OperatorSequence.constant(draw())
    if backend == "periodic":
        return OperatorSequence.periodic([draw(), zero, draw()])
    base = [draw(), zero, draw(), draw(), draw()]
    return per_k_operator(
        dim, lambda k: base[k % 5] * (1.0 + 0.1 * np.cos(0.3 * k)))


def sweep_rows(rng, n, dim, real, scale=1.0):
    rows = rng.standard_normal((n, dim))
    if not real:
        rows = rows + 1j * rng.standard_normal((n, dim))
    rows = scale * np.asarray(rows, dtype=np.complex128)
    rows[::5] = 0.0
    rows[2::7] = -0.0
    return rows


def assert_sweep_matches(got, want, backend, rel=1e-15):
    """A generator's sweep has the bits of the reference; a constant or
    periodic sweep runs in blocks with a carry and agrees with it within
    ``rel`` of the largest state."""
    assert got.shape == want.shape
    if backend == "generator":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("dim", [1, 2, 8, 32])
@pytest.mark.parametrize("backend", ["constant", "periodic", "generator"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_in_place_sweep_has_the_bits_of_the_reference(backend, dim,
                                                      backward, real, rng):
    # real data carries signed zeros, which f(k) + A(k) x must give as
    # A(k) x + f(k) does; the table is handed over without a copy, and the
    # caller's rows are left as they were
    A = sweep_operator(rng, backend, dim, real)
    rows = sweep_rows(rng, 40, dim, real)
    before = rows.copy()
    for keep in (25, 40, 1):
        got = _apply_level(A, rows, -13, keep, backward)
        want = reference_sweep(A, rows, -13, keep, backward)
        assert_sweep_matches(got, want, backend)
        assert got.flags.owndata and got.flags.c_contiguous
    assert rows.tobytes() == before.tobytes()


def periodic_operator(rng, period, dim):
    """A plain complex periodic sequence whose matrices have norm 0.9."""
    mats = rng.standard_normal((period, dim, dim)) + 1j * rng.standard_normal(
        (period, dim, dim))
    return OperatorSequence.periodic(
        [0.9 * m / np.linalg.norm(m, 2) for m in mats])


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("dim", [1, 2, 8, 32])
@pytest.mark.parametrize("period", [1, 3, 7, 32, 40])
def test_blocked_sweep_bits_do_not_depend_on_how_far_it_runs(period, dim,
                                                             backward, rng):
    # the blocks are anchored at the k the sweep starts from, so a sweep
    # that runs further gives each k it shares the same bits; the shorter
    # sweeps end below, at and one past a block of b steps
    A = periodic_operator(rng, period, dim)
    b = period * -(-_SWEEP_BLOCK // period)
    rows = sweep_rows(rng, 5 * b + 7, dim, False)
    top = 40

    def sweep(n):
        # the states of the first n steps from k = top, in the sweep's order
        if backward:
            return _apply_level(A, rows[-n:], top - n + 1, n, True)[::-1]
        return _apply_level(A, rows[:n], top, n)

    longest = sweep(len(rows))
    for n in (b // 2, b, b + 1, 2 * b + 3):
        assert sweep(n).tobytes() == longest[:n].tobytes()


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("period", [1, 3, 40])
def test_blocked_sweep_reads_each_matrix_once(period, backward, rng,
                                              monkeypatch):
    # a constant or periodic A is read once per residue, however long the
    # sweep, and never as a stack
    A = periodic_operator(rng, period, 4)
    reads, matrix = [], A.matrix
    monkeypatch.setattr(A, "matrix", lambda k: reads.append(k) or matrix(k))
    monkeypatch.setattr(A, "runs", None)
    _apply_level(A, sweep_rows(rng, 1000, 4, False), -13, 900, backward)
    assert len(reads) <= period


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
def test_sweep_reads_a_generator_run_by_run(backward, rng, monkeypatch):
    # the sweep's window is read once, as the CERT_BLOCK-aligned runs the
    # rule evaluates, with no matrix(k) per step; a real run is cast once
    A = sweep_operator(rng, "generator", 4, True)
    rows = sweep_rows(rng, 150, 4, True)
    want = reference_sweep(A, rows, -70, 100, backward)
    A._mat_cache.clear()
    evaluated, rule = [], A._rule
    monkeypatch.setattr(A, "_rule", lambda w: evaluated.append(w) or rule(w))
    monkeypatch.setattr(A, "matrix", None)
    got = _apply_level(A, rows, -70, 100, backward)
    assert got.tobytes() == want.tobytes()
    assert evaluated == [Window(-70, -65), Window(-64, -1), Window(0, 63),
                         Window(64, 79)]
    assert A.matrices(Window(-70, 79)).dtype == np.float64


@pytest.mark.parametrize("backward", [False, True],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("backend", ["constant", "periodic", "generator"])
def test_in_place_sweep_keeps_an_overflowing_state_as_it_comes(backend,
                                                               backward, rng):
    # states overflow and are kept as inf or nan: grown past the float
    # range by an A of norm 2.5 from forcing of 1e300, or pushed past it
    # by rows of the largest float under an A of norm 0.9.  A generator
    # keeps the reference's bits.  A blocked sweep has inf or nan in the
    # same entries; under the contracting A the states before the push
    # agree within 1e-15 of their largest, while the growing A magnifies
    # the carry's rounding past that bound (1.1e-15 of the largest state),
    # so those values are not compared
    grown = sweep_operator(rng, backend, 3, False, gain=2.5,
                           with_zero=False)
    grown_rows = sweep_rows(rng, 60, 3, False, scale=1e300)
    contracting = sweep_operator(rng, backend, 3, False, with_zero=False)
    # six rows from ten steps before the end, in the third block
    pushed_rows = sweep_rows(rng, 100, 3, False)
    pushed_rows[slice(4, 10) if backward else slice(90, 96)] = np.finfo(
        float).max
    for A, rows, compared in ((grown, grown_rows, False),
                              (contracting, pushed_rows, True)):
        for keep in (50, 60):
            got = _apply_level(A, rows, 4, keep, backward)
            want = reference_sweep(A, rows, 4, keep, backward)
            assert np.isnan(want).any()
            if backend == "generator":
                assert got.tobytes() == want.tobytes()
                continue
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            if compared:
                calm = np.abs(want).max(axis=1) < 1e300
                assert calm.sum() == keep - 10
                assert_sweep_matches(got[calm], want[calm], backend)


def loop_depths(A, rep, tol):
    """The per-k, per-seminorm truncation loop the solver ran before its
    depth search was vectorized, on the solve's own probe and sups."""
    start, end = rep.window[0], rep.window[1] + 1
    margin = start - rep.f_probe[0] - 1
    V_by_k, tails = [], {sn.label: [] for sn in A.family}
    for k in range(start, end + 1):
        V_k = 0
        for sn in A.family:
            lbl = sn.label
            s = rep.sup_certificates[lbl]
            head = s / (1.0 - s) * rep.f_sup[lbl]
            if head <= tol:
                tails[lbl].append((k, max(0.0, head)))
                continue
            seg = np.array([A.certificate(lbl, j)
                            for j in range(k - margin, k)])
            prods = np.cumprod(seg[::-1])
            bounds = prods * (s / (1.0 - s)) * rep.f_sup[lbl]
            ok = bounds <= tol
            if not ok.any():
                raise ConvergencePreconditionError(
                    f"certificate products for {lbl!r} at k={k} do not "
                    f"reach tol={tol} within depth {len(prods)}")
            V = int(np.argmax(ok)) + 1
            V_k = max(V_k, V)
            tails[lbl].append((k, float(bounds[V - 1])))
        V_by_k.append((k, V_k))
    return V_by_k, tails


@pytest.mark.parametrize("case", ["constant", "periodic", "generator",
                                  "zero_certificate", "two_seminorms"])
def test_depth_search_equals_per_k_loop(case, rng):
    fam = SeminormFamily.sup_only(2)
    if case == "zero_certificate":
        # c(k) = 0 at even k: the products vanish after one or two steps
        A = OperatorSequence.periodic([np.zeros((2, 2)), 0.5 * np.eye(2)],
                                      family=fam)
    elif case == "two_seminorms":
        A = random_certified_operator(rng, SeminormFamily.of(SUP_L1, 2),
                                      0.9, backend="generator")
    else:
        A = random_certified_operator(rng, fam, 0.9, backend=case)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(2)), (0.4, rng.standard_normal(2))]))
    tol = 1e-11
    _, rep = solve_series(A, f, (-30, 30), tol=tol)
    V_by_k, tails = loop_depths(A, rep, tol)
    assert rep.truncation_V == V_by_k
    assert rep.tail_bounds == tails


def test_depth_search_error_matches_per_k_loop():
    # certificates above the declared sup left of k = -20: no product
    # within the probed depth reaches tol, and the error names the first k
    A = per_k_operator(
        1, lambda k: [[0.99 if k < -20 else 0.5]], family=FAM1,
        sup_bounds={"sup": 0.5})
    f = BiSequence.constant([1.0])
    with pytest.raises(ConvergencePreconditionError) as got:
        solve_series(A, f, (-10, 10), tol=1e-10)
    # probed depth 34 = ceil(log2(1e10)) left of the window start
    rep = SolveReport(window=(-10, 10), tol=1e-10, f_sup={"sup": 1.0},
                      f_probe=(-45, 11))
    rep.sup_certificates["sup"] = 0.5
    with pytest.raises(ConvergencePreconditionError) as want:
        loop_depths(A, rep, 1e-10)
    assert str(got.value) == str(want.value)


def generator_twin(A):
    """A's matrices served k by k through a generator with A's global sups,
    so a solve forms every row of the depth search and reads A(k) per k."""
    return per_k_operator(A.dim, A.matrix, family=A.family,
                          sup_bounds=dict(A.sup_bounds))


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("period", [1, 3, 40])
def test_periodic_solve_is_bit_identical_to_its_generator_twin(
        period, backward, rng):
    # one depth row and one matrix per residue: the same depths and tails
    # as forming every row and reading every matrix, and the table of the
    # generator's step loop within 1e-15 of its largest state; period 40 is
    # longer than the 13 k of the solve
    fam = SeminormFamily.of(SUP_L1, 3)
    A = random_certified_operator(rng, fam, 0.9, backend="periodic",
                                  period=period)
    if period == 1:
        A = OperatorSequence.constant(A.matrix(0), family=fam)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(3)), (0.9, rng.standard_normal(3))]))
    x, rep = solve_series(A, f, (-6, 5), tol=1e-11, backward=backward)
    x2, rep2 = solve_series(generator_twin(A), f, (-6, 5), tol=1e-11,
                            backward=backward)
    assert rep.truncation_V == rep2.truncation_V
    assert rep.tail_bounds == rep2.tail_bounds
    # distinct matrices give depths that vary with k
    assert (len({V for _, V in rep.truncation_V}) > 1) == (period > 1)
    work = (-6, 6)
    assert_sweep_matches(x.window_values(work), x2.window_values(work),
                         "periodic")


@pytest.mark.parametrize("backward", [False, True])
def test_periodic_depth_failure_matches_its_generator_twin(backward):
    # the third matrix's certificate 0.999 is the exact sup: the depth it
    # certifies exceeds V_max, and the twin fails with the same error
    A = OperatorSequence.periodic([[[0.5]], [[0.5]], [[0.999]]], family=FAM1)
    assert A.sup_bounds == {"sup": 0.999}
    f = BiSequence.constant([1.0])
    with pytest.raises(ConvergencePreconditionError) as got:
        solve_series(A, f, (-10, 10), tol=1e-10, backward=backward)
    with pytest.raises(ConvergencePreconditionError) as want:
        solve_series(generator_twin(A), f, (-10, 10), tol=1e-10,
                     backward=backward)
    assert str(got.value) == str(want.value)
    assert "exceeds V_max" in str(got.value)


def test_periodic_sequence_refuses_a_declared_sup():
    # certificates 0.1 and 0.95 declared at sup 0.5: the solve would report
    # a tail below tol and uniqueness certified on a sup its certificates
    # break, so the sequence is refused; its sup is the exact max
    mats = [np.array([[0.1]]), np.array([[0.95]])]
    for rule in (mats, mats[1:]):
        with pytest.raises(InputContractError, match="no declared sup"):
            OperatorSequence(1, rule, FAM1, {"sup": 0.5})
    A = OperatorSequence.periodic(mats, family=FAM1)
    assert A.sup_bounds == {"sup": 0.95}
    x, rep = solve_series(A, BiSequence.constant([1.0]), (-10, 10), tol=1e-8)
    assert rep.sup_certificates == {"sup": 0.95}
    # x(k) = (1 + a(k-1)) / (1 - a(k-1) a(k-2)) lies within each k's tail
    for k, tail in rep.tail_bounds["sup"]:
        exact = (1 + A.matrix(k - 1)[0, 0]) / (1 - 0.1 * 0.95)
        assert abs(x(k)[0] - exact) <= tail


def test_solver_rejects_unit_certificates():
    A = OperatorSequence.constant([[1.0]], family=FAM1)
    with pytest.raises(ConvergencePreconditionError):
        solve_series(A, BiSequence.constant([1.0]), (-5, 5))


def test_solver_rejects_non_finite_forcing():
    A = half_identity()
    bad = per_k_sequence(1, lambda k: np.array([np.nan]))
    with pytest.raises(InputContractError):
        solve_series(A, bad, (-2, 2))


@pytest.mark.parametrize("backward", [False, True])
def test_solver_rejects_an_overflowing_solution(backward):
    # finite forcing and sups, but x = f + A x is above the float max; the
    # first k the sweep reaches is named, and no RuntimeWarning escapes
    f = BiSequence.constant([1.5e308, 1.5e308])
    with pytest.raises(NumericError, match=f"k={4 if backward else -3}$"):
        solve_series(half_identity(2), f, (-3, 3), backward=backward)


def zero_extended(points: dict) -> BiSequence:
    lo = min(points)
    values = np.zeros((max(points) - lo + 1, 1))
    for k, v in points.items():
        values[k - lo] = v
    return BiSequence.from_table(lo, values, extend="zero")


@pytest.mark.parametrize("backward", [False, True])
def test_growth_warning_compares_the_far_edge_with_the_window(backward):
    # mirrored inputs: f is 1 at the window's edge (the backward series
    # reads f(11), the forward one f(-10)) and 3 near the far probe edge
    side = 1 if backward else -1
    edge = 11 if backward else -10
    f = zero_extended({edge: 1.0, **{side * k: 3.0 for k in range(30, 41)}})
    _, rep = solve_series(half_identity(), f, (-10, 10), backward=backward)
    far = "+inf" if backward else "-inf"
    assert [w.split(";")[0] for w in rep.warnings] == [
        f"forcing grows toward {far} on the probe window"]


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_solver_rejects_tol_that_is_not_finite_positive(tol):
    with pytest.raises(InputContractError, match="tol"):
        solve_series(half_identity(), BiSequence.constant([1.0]), (0, 0),
                     tol=tol)


def backward_products(A, label, k, depth):
    """c(k-1), c(k-1) c(k-2), ..., down to c(k-depth)."""
    return np.cumprod(A.certificate_array(label, Window(k - depth, k - 1))[::-1])


def test_backward_products_examples():
    A = half_identity()
    got = backward_products(A, "sup", 0, 10)
    assert got.tolist() == [2.0 ** -v for v in range(1, 11)]

    ones = OperatorSequence.constant([[1.0]], family=FAM1)
    assert backward_products(ones, "sup", 0, 6).tolist() == [1.0] * 6

    # c(-1) = 1/2, c(-2) = 2, ...: products alternate 1/2, 1 (bounded, no
    # decay)
    alt = OperatorSequence.periodic([[[2.0]], [[0.5]]], family=FAM1)
    got = backward_products(alt, "sup", 0, 6)
    assert got.tolist() == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]


def test_uniqueness_reads_no_certificate_beyond_the_solve():
    # a declared sup below 1 certifies uniqueness by itself: the only
    # certificates derived are the ones the depth search multiplies
    A = per_k_operator(1, lambda k: [[0.1]], family=FAM1,
                       sup_bounds={"sup": 0.1})
    _, rep = solve_series(A, BiSequence.constant([1.0]), (0, 0), tol=1e-10)
    assert rep.uniqueness == "certified" and rep.sup_probe is None
    assert rep.uniqueness_by_label == {"sup": True}
    seen = list(A._cert_cache)
    assert seen and rep.f_probe[0] < min(seen) and max(seen) <= 0
    assert all(c == {"sup": 0.1} for c in A._cert_cache.values())


def test_uniqueness_reporting():
    A = half_identity()
    _, rep = solve_series(A, BiSequence.constant([1.0]), (-3, 3))
    assert rep.uniqueness == "certified"

    alt = OperatorSequence.periodic([[[2.0]], [[0.5]]], family=FAM1)
    # sup bound is 2 >= 1: the solver refuses; the products do not decay
    assert alt.sup_bound("sup") == 2.0
    assert backward_products(alt, "sup", 0, 1000).min() >= 0.5


def test_slow_constant_decay_is_certified():
    # c = 0.999 needs depth ~2300 at tol 0.1, and 0.999^10000 ~ 4.5e-5 is
    # far above 1e-12; uniqueness rests on the exact sup, not on a walk
    A = OperatorSequence.constant([[0.999]], family=FAM1)
    _, rep = solve_series(A, BiSequence.constant([1e-3]), (-5, 5), tol=0.1)
    assert max(V for _, V in rep.truncation_V) > 2000
    assert rep.uniqueness == "certified" and rep.sup_probe is None
    assert rep.to_dict()["sup_probe"] is None


def test_generator_sup_is_probed_where_the_solve_reads(rng):
    fam = SeminormFamily.sup_only(2)
    A = random_certified_operator(rng, fam, 0.7, backend="generator")
    f = BiSequence.constant([1.0, -1.0])
    _, rep = solve_series(A, f, (-10, 10), tol=1e-10)
    assert rep.uniqueness == "not certified"
    assert rep.uniqueness_by_label == {"sup": False}
    # the depth search reads c on [work.start - margin, work.end - 1]
    margin = -10 - rep.f_probe[0] - 1
    assert rep.sup_probe == (-10 - margin, 10)
    assert rep.to_dict()["sup_probe"] == [-10 - margin, 10]
    probed = A.certificate_array("sup", Window(*rep.sup_probe))
    assert rep.sup_certificates["sup"] == probed.max()
    # a declared global sup makes the same operator certified
    B = per_k_operator(2, A.matrix, family=fam,
                       sup_bounds={"sup": 0.7})
    _, rep_b = solve_series(B, f, (-10, 10), tol=1e-10)
    assert rep_b.uniqueness == "certified" and rep_b.sup_probe is None


@pytest.mark.parametrize("omega,c", [(1, 1.0), (1, 0.5), (2, 2.0), (3, 1j),
                                     (2, 0.5)])
def test_omega_c_transfer(omega, c, rng):
    # periodic A with period omega, (omega, c)-periodic f: the solution is
    # (omega, c)-periodic up to roundoff (well below the 2*tol contract)
    fam = SeminormFamily.sup_only(3)
    A = random_certified_operator(rng, fam, 0.6, backend="periodic",
                                  period=omega)
    base = rng.standard_normal((omega, 3)) + 1j * rng.standard_normal((omega, 3))
    f = BiSequence.omega_c(base, omega, c)
    # the check reads x on [-12, 12 + omega]; the table holds one k past
    # the window it solves
    x, rep = solve_series(A, f, (-12, 12 + omega - 1), tol=1e-10)
    defect = omega_c_check(x, omega, c, fam, (-12, 12))
    assert defect <= 2e-10
    assert rep.max_residual["sup"] <= 3e-10 * (1 + rep.sup_certificates["sup"])


def test_non_uniqueness_witness_for_contracting_c():
    # A = I/2, f = 0: both the zero sequence and 2^{-k} x0 solve the
    # equation with residual exactly zero, and both are (1, 1/2)-periodic
    A = half_identity()
    zero_sol, rep = solve_series(A, BiSequence.zeros(1), (-25, 25))
    alt_sol = BiSequence.omega_c([[1.0]], 1, 0.5)
    fam = FAM1
    for sol in (zero_sol, alt_sol):
        assert residual(A, BiSequence.zeros(1), sol, (-20, 20), fam)["sup"] == 0.0
        assert omega_c_check(sol, 1, 0.5, fam, (-20, 20)) == 0.0
    assert np.abs(alt_sol(0)).max() == 1.0  # genuinely different solutions
    assert np.abs(zero_sol(0)).max() == 0.0


def test_bohr_transfer_constant_operator():
    # constant A with certificate 1/2; f a two-frequency trig polynomial.
    # The solution's translation defect at any tau is bounded by the f
    # defect times 1/(1-c) = 2, plus truncation.
    A = half_identity()
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(1.0, [1.0]), (np.sqrt(2.0), [0.8])]))
    window, tau_range, L = (-40, 40), (-150, 150), 40
    probe = bohr_check(f, SUP, np.inf, window, tau_range, L)
    eps = probe.max_defect * (1 + 1e-9)
    assert bohr_check(f, SUP, eps, window, tau_range, L).verdict

    lo = window[0] + tau_range[0]
    hi = window[1] + tau_range[1] + L
    x, _ = solve_series(A, f, (lo, hi), tol=1e-12)
    eps_prime = eps * (1 + sum(0.5 ** v for v in range(1, 60))) * (1 + 1e-6)
    assert bohr_check(x, SUP, eps_prime + 4e-12, window, tau_range, L).verdict


def test_besicovitch_transfer_finite_perturbation(rng):
    # f = P + finitely supported perturbation, constant A: the Cesaro
    # distance between the solutions decreases monotonically along the grid
    A = half_identity()
    P = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0]), (0.0, [0.5])]))
    spikes = axpy(1.0, BiSequence.spike(0, [1.0]), 1.0,
                  BiSequence.spike(5, [-2.0]))
    f = axpy(1.0, P, 1.0, spikes)
    grid = [64, 128, 256, 512]
    xg, _ = solve_series(A, f, (-520, 520), tol=1e-12)
    xp, _ = solve_series(A, P, (-520, 520), tol=1e-12)
    rep = besicovitch_distance(xg, xp, SUP, 1.0, grid)
    vals = [v for _, v in rep.values_by_l]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 6.0 / grid[-1]


def test_thread_determinism(rng):
    # the solver is sequential: a rerun gives the same table bit for bit
    fam = SeminormFamily.sup_only(5)
    A = random_certified_operator(rng, fam, 0.8, backend="periodic")
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.7, rng.standard_normal(5))]))
    x1, _ = solve_series(A, f, (-30, 30))
    x2, _ = solve_series(A, f, (-30, 30))
    assert np.array_equal(x1.table_values, x2.table_values)


def test_report_serialization_roundtrip():
    A = half_identity()
    _, rep = solve_series(A, BiSequence.constant([1.0]), (-3, 3))
    d = rep.to_dict()
    assert d["window"] == [-3, 3]
    assert "sup" in d["max_residual"]
    import json
    json.dumps(d)  # must be JSON-serializable


def test_polynomial_weight_forcing_and_growth(rng):
    # polynomially growing forcing: the adaptive probe converges because
    # geometric certificate decay beats any polynomial growth, and the
    # weighted growth proxy of the solution stays bounded by the input's
    alpha = 1.0
    A = half_identity()
    f = per_k_sequence(
        1, lambda k: np.array([(1.0 + abs(k)) ** alpha * np.cos(0.7 * k)]))
    window = (-30, 30)
    x, rep = solve_series(A, f, window, tol=1e-9)
    assert rep.max_residual["sup"] <= 3e-9 * 1.5
    ks = np.arange(window[0], window[1] + 1)
    weights = (1.0 + np.abs(ks)) ** -alpha
    w_f = (np.abs(f.window_values(window)[:, 0]) * weights).max()
    w_x = (np.abs(x.window_values(window)[:, 0]) * weights).max()
    # x(k) = sum_v 2^{-v} f(k-1-v): the weighted sup transfers with a
    # constant factor sum_v 2^{-v} (1 + (v+1)/(1+|k|))^alpha <= sum 2^{-v}(v+2)
    assert w_x <= w_f * sum(2.0 ** -v * (v + 2) for v in range(200))


def recording(f, reads):
    """f with the window of every read of its window rule appended to
    reads."""
    def rule(w):
        reads.append(w)
        return f.window_values(w)
    return BiSequence(f.dim, rule)


def assert_probe_read_once(reads, rep):
    ks = sorted(k for w in reads for k in w)
    assert ks == list(range(rep.f_probe[0], rep.f_probe[1] + 1))


@pytest.mark.parametrize("backend", ["periodic", "generator"])
@pytest.mark.parametrize("backward", [False, True])
def test_solve_reads_each_k_of_the_forcing_once(backward, backend, rng):
    # the probe grows from margin 8 to the certified depth, and the
    # residual reads the probe's rows: every k of f_probe is read once, and
    # the residual has the bits of one that reads f afresh
    fam = SeminormFamily.of(SUP_L1, 3)
    A = random_certified_operator(rng, fam, 0.9, backend=backend)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(3)), (0.9, rng.standard_normal(3))]))
    reads = []
    window = (-20, 20)
    x, rep = solve_series(A, recording(f, reads), window, tol=1e-11,
                          backward=backward)
    assert_probe_read_once(reads, rep)
    assert len(reads) > 1 and rep.f_probe[1] - rep.f_probe[0] > 60 + 8
    assert rep.max_residual == residual(A, f, x, window, fam, backward)


@pytest.mark.parametrize("backend", ["periodic", "generator"])
def test_solve_inclusion_reads_each_k_of_the_forcing_once(backend, rng):
    # the selection-form residual takes -D f from the probe's rows instead
    # of reading f and applying D again, and keeps the bits of one that does
    from apseq.resolvent import inclusion_residual, solve_inclusion
    fam = SeminormFamily.of(SUP_L1, 3)
    D = random_certified_operator(rng, fam, 0.9, backend=backend)
    f = BiSequence.from_trig_poly(TrigPoly.of(
        [(0.0, rng.standard_normal(3)), (0.9, rng.standard_normal(3))]))
    reads = []
    window = (-20, 20)
    x, rep = solve_inclusion(D, recording(f, reads), window, tol=1e-11)
    assert_probe_read_once(reads, rep)
    assert rep.max_residual == inclusion_residual(D, f, x, window, fam)


@pytest.mark.parametrize("backend", ["periodic", "generator"])
def test_inclusion_probe_reads_each_k_of_the_forcing_once(backend, rng):
    # the backward probe of g = -D f reads f through g's window rule, in
    # pieces as the probe grows; x has the bits of a solve whose g is read
    # over the whole probe at once, also where a piece is shorter than two
    # periods of D, so that one of D's residues has a lone row in it
    from apseq.first_order import _solve_series
    from apseq.resolvent import _solve_reduced
    fam = SeminormFamily.of(SUP_L1, 2)
    D = random_certified_operator(rng, fam, 0.9, backend=backend)
    f = BiSequence.from_trig_poly(TrigPoly.of([(0.8, rng.standard_normal(2))]))
    short = 0
    for tol in np.geomspace(10.0, 1e-8, 80):
        reads = []
        # a residual that reads nothing, so that only the probe reads f
        _, x, rep = _solve_reduced(D, recording(f, reads), (-10, 10), tol,
                                   "none", lambda x, w, *_: {})
        assert_probe_read_once(reads, rep)
        short += any(len(w) < 2 * 3 for w in reads[1:])
        probe = Window(*rep.f_probe)
        g = BiSequence.from_table(probe.start, -D.apply_rows(
            probe.start, f.window_values(probe)))
        want, _, _ = _solve_series(D, g, (-11, 10), tol, 1, backward=True)
        assert x.table_values.tobytes() == want.table_values.tobytes()
    assert short > 0
