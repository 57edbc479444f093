import numpy as np
import pytest

from apseq import (BiSequence, ConvergencePreconditionError,
                   InputContractError, NumericError, OperatorSequence, Seminorm,
                   SeminormFamily, TrigPoly, Window, bohr_check, forward_oracle,
                   omega_c_check, residual, seq_axpy, solve_series,
                   weighted_growth_check)
from apseq.first_order import SolveReport
from apseq.ap_analysis import besicovitch_distance
from apseq.operator_model import op_product_apply
from conftest import random_certified_operator

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
    A = OperatorSequence.from_function(
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
    return OperatorSequence.from_function(A.dim, A.matrix, family=A.family,
                                          sup_bounds=dict(A.sup_bounds))


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("period", [1, 3, 40])
def test_periodic_solve_is_bit_identical_to_its_generator_twin(
        period, backward, rng):
    # one depth row and one matrix per residue: the same depths, tails and
    # table as forming every row and reading every matrix; period 40 is
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
    assert x.window_values(work).tobytes() == x2.window_values(work).tobytes()


@pytest.mark.parametrize("backward", [False, True])
def test_periodic_depth_failure_matches_its_generator_twin(backward):
    # a declared sup below the third matrix's certificate: the products do
    # not reach tol within the depth the sup promises, at the same first k
    A = OperatorSequence.periodic([[[0.5]], [[0.5]], [[0.99]]], family=FAM1,
                                  sup_bounds={"sup": 0.5})
    f = BiSequence.constant([1.0])
    with pytest.raises(ConvergencePreconditionError) as got:
        solve_series(A, f, (-10, 10), tol=1e-10, backward=backward)
    with pytest.raises(ConvergencePreconditionError) as want:
        solve_series(generator_twin(A), f, (-10, 10), tol=1e-10,
                     backward=backward)
    assert str(got.value) == str(want.value)
    assert "do not reach tol" in str(got.value)


def test_solver_rejects_unit_certificates():
    A = OperatorSequence.constant([[1.0]], family=FAM1)
    with pytest.raises(ConvergencePreconditionError):
        solve_series(A, BiSequence.constant([1.0]), (-5, 5))


def test_solver_rejects_non_finite_forcing():
    A = half_identity()
    bad = BiSequence.from_function(1, lambda k: np.array([np.nan]))
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
    A = OperatorSequence.from_function(1, lambda k: [[0.1]], family=FAM1,
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
    B = OperatorSequence.from_function(2, A.matrix, family=fam,
                                       sup_bounds={"sup": 0.7})
    _, rep_b = solve_series(B, f, (-10, 10), tol=1e-10)
    assert rep_b.uniqueness == "certified" and rep_b.sup_probe is None


def test_weighted_growth_examples(rng):
    const = BiSequence.constant([2.5])
    assert weighted_growth_check(const, 0.0, FAM1, (-10, 10)) == 2.5
    ramp = BiSequence.from_function(1, lambda k: np.array([float(k)]))
    got = weighted_growth_check(ramp, 1.0, FAM1, (-10, 10))
    assert got == pytest.approx(10.0 / 11.0, rel=1e-15)
    assert weighted_growth_check(BiSequence.zeros(1), 2.0, FAM1, (-5, 5)) == 0.0


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
    x, rep = solve_series(A, f, (-12, 12), tol=1e-10, pad_right=omega)
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
    spikes = seq_axpy(1.0, BiSequence.spike(0, [1.0]), 1.0,
                      BiSequence.spike(5, [-2.0]))
    f = seq_axpy(1.0, P, 1.0, spikes)
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
    f = BiSequence.from_function(
        1, lambda k: np.array([(1.0 + abs(k)) ** alpha * np.cos(0.7 * k)]))
    window = (-30, 30)
    x, rep = solve_series(A, f, window, tol=1e-9)
    assert rep.max_residual["sup"] <= 3e-9 * 1.5
    w_f = weighted_growth_check(f, alpha, FAM1, window)
    w_x = weighted_growth_check(x, alpha, FAM1, window)
    # x(k) = sum_v 2^{-v} f(k-1-v): the weighted sup transfers with a
    # constant factor sum_v 2^{-v} (1 + (v+1)/(1+|k|))^alpha <= sum 2^{-v}(v+2)
    assert w_x <= w_f * sum(2.0 ** -v * (v + 2) for v in range(200))
