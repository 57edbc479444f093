import contextlib

import numpy as np
import pytest

from apseq import (BiSequence, Seminorm, SeminormFamily, TrigPoly,
                   besicovitch_distance, bohr_check, fit_trig_poly,
                   omega_c_check, weyl_distance)
from apseq import ap_analysis
from apseq.ap_analysis import translation_defects
from apseq.errors import InputContractError
from conftest import (axpy, exhaustive_bohr_check, per_k_sequence,
                      reference_row_values)

SUP = Seminorm.sup()


def test_bohr_constant_sequence_every_tau_works():
    F = BiSequence.constant([2.0, -1.0])
    rep = bohr_check(F, SUP, 0.5, (-10, 10), (-30, 30), 1)
    assert rep.verdict and rep.witness_L == 1
    assert rep.max_defect == 0.0
    # every scanned tau is a translation number
    assert rep.translation_numbers == list(range(-30, 32))


def test_bohr_exact_periodic_with_eps_zero():
    F = BiSequence.omega_c([[1.0], [5.0], [-2.0]], 3, 1.0)
    rep = bohr_check(F, SUP, 0.0, (-12, 12), (-30, 30), 3)
    assert rep.verdict
    # exact periodicity: translation numbers are the multiples of omega
    assert all(t % 3 == 0 for t in rep.translation_numbers)
    assert 0 in rep.translation_numbers and 3 in rep.translation_numbers


def test_bohr_unimodular_exponential_against_scan_oracle():
    # F(k) = e^{ik}: the defect at tau is |e^{i tau} - 1| for every k,
    # so the oracle is a direct scan of that quantity.
    F = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0])]))
    taus = np.arange(-300, 301)
    defects = translation_defects(F, SUP, (-5, 5), taus)
    oracle = np.abs(np.exp(1j * taus) - 1.0)
    assert np.abs(defects - oracle).max() <= 1e-12

    rep = bohr_check(F, SUP, 0.1, (-5, 5), (-300, 300), 50)
    assert rep.verdict
    assert 44 in rep.translation_numbers  # 44 is within 0.1 of a multiple of 2 pi
    oracle_set = {int(t) for t, d in zip(taus, oracle) if d <= 0.1}
    assert oracle_set <= set(rep.translation_numbers)
    # verdict true means every length-L interval of the scanned range holds
    # a recorded translation number
    trans = np.array(rep.translation_numbers)
    for t in range(-300, 301):
        assert ((trans >= t) & (trans <= t + rep.witness_L)).any()


def test_bohr_reports_defect_on_failure():
    F = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0])]))
    rep = bohr_check(F, SUP, 1e-6, (-5, 5), (-50, 50), 3)
    assert not rep.verdict and rep.witness_L is None
    assert rep.max_defect > 1e-6


def test_weyl_distance_zero_for_equal_sequences():
    F = BiSequence.from_trig_poly(TrigPoly.of([(0.7, [1.0, 2.0])]))
    assert weyl_distance(F, F, SUP, 1.0, 8, (-20, 20)) == 0.0


@pytest.mark.parametrize("l", [1, 2, 5, 17])
def test_weyl_distance_constant_difference(l):
    # F - P has constant sup value a: average over l+1 terms divided by l
    a = 0.75
    F = BiSequence.constant([a, 0.0])
    P = BiSequence.constant([0.0, 0.0])
    got = weyl_distance(F, P, SUP, 1.0, l, (-9, 9))
    # oracle: direct summation over each window start
    best = max(sum(a for _ in range(s, s + l + 1)) / l for s in range(-9, 10))
    assert got == pytest.approx(best, rel=1e-14)
    assert got == pytest.approx(a * (l + 1) / l, rel=1e-14)


def test_weyl_distance_alternating_difference_by_summation_oracle():
    # difference alternates 0, a; l = 2
    a = 1.3
    F = per_k_sequence(1, lambda k: np.array([a * (k % 2)]))
    P = BiSequence.zeros(1)
    s_range = (-8, 8)
    got = weyl_distance(F, P, SUP, 1.0, 2, s_range)
    oracle = max(sum(a * (j % 2) for j in range(s, s + 3)) / 2
                 for s in range(-8, 9))
    assert got == pytest.approx(oracle, rel=1e-14)
    assert got == pytest.approx(a, rel=1e-14)  # window [a,0,a] sums to 2a


def test_besicovitch_zero_and_constant_and_spike():
    zero = BiSequence.zeros(1)
    F = BiSequence.constant([1.0])
    rep0 = besicovitch_distance(F, F, SUP, 1.0, [8, 16, 32])
    assert rep0.limsup_estimate == 0.0 and all(v == 0 for _, v in rep0.values_by_l)

    # constant difference a: value (2l+1)/l * a, checked by direct summation
    a = 0.5
    G = BiSequence.constant([a])
    rep = besicovitch_distance(G, zero, SUP, 1.0, [10, 100])
    for l, v in rep.values_by_l:
        direct = sum(a for _ in range(-l, l + 1)) / l
        assert v == pytest.approx(direct, rel=1e-14)
        assert v == pytest.approx(a * (2 * l + 1) / l, rel=1e-14)

    # single unit spike at j=0: value 1/l, vanishing along the grid
    spike = BiSequence.spike(0, [1.0])
    rep2 = besicovitch_distance(spike, zero, SUP, 1.0, [64, 128, 256, 512])
    for l, v in rep2.values_by_l:
        assert v == pytest.approx(1.0 / l, rel=1e-14)
    assert rep2.limsup_estimate == pytest.approx(1.0 / 512, rel=1e-14)
    vals = [v for _, v in rep2.values_by_l]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_besicovitch_limsup_takes_top_quartile():
    F = BiSequence.constant([1.0])
    zero = BiSequence.zeros(1)
    rep = besicovitch_distance(F, zero, SUP, 1.0, [4, 8, 16, 32])
    # top quartile of a 4-element grid is the largest l
    assert rep.limsup_estimate == pytest.approx(65 / 32, rel=1e-14)


def test_omega_c_check_examples():
    fam = SeminormFamily.sup_only(1)
    halving = BiSequence.omega_c([[1.0]], 1, 0.5)
    assert omega_c_check(halving, 1, 0.5, fam, (-20, 20)) == 0.0
    const = BiSequence.constant([1.0])
    assert omega_c_check(const, 1, 1.0, fam, (-20, 20)) == 0.0
    assert omega_c_check(const, 1, 2.0, fam, (-20, 20)) == 1.0


def fourier_mean(F, lam, N):
    """The empirical mean (2N+1)^{-1} sum_{|k|<=N} F(k) exp(-i lam k), as
    fit_trig_poly gives it for one frequency."""
    return fit_trig_poly(F, [lam], N).terms[0][1]


def test_bohr_fourier_exact_recovery_and_leakage():
    y = np.array([2.0, -1.0 + 0.5j])
    lam0 = 1.3
    F = BiSequence.from_trig_poly(TrigPoly.of([(lam0, y)]))
    for N in (1, 5, 50):
        got = fourier_mean(F, lam0, N)
        assert np.abs(got - y).max() <= 1e-13

    # off-frequency mean of an alternating sequence: geometric sum oracle
    G = BiSequence.from_trig_poly(TrigPoly.of([(np.pi, y)]))
    N = 100
    got = fourier_mean(G, 0.0, N)
    ks = np.arange(-N, N + 1)
    oracle = (np.exp(1j * np.pi * ks).sum() / (2 * N + 1)) * y
    assert np.abs(got - oracle).max() <= 1e-13
    assert np.abs(got).max() <= np.abs(y).max() / (2 * N + 1) + 1e-13


def test_bohr_fourier_constant():
    y = np.array([1.0, 2.0, 3.0])
    F = BiSequence.constant(y)
    assert np.abs(fourier_mean(F, 0.0, 5) - y).max() <= 1e-14


def test_fit_trig_poly_recovers_declared_frequencies():
    terms = [(0.0, np.array([1.0])), (1.0, np.array([0.5])),
             (np.sqrt(2), np.array([-0.25]))]
    F = BiSequence.from_trig_poly(TrigPoly.of(terms))
    fitted = fit_trig_poly(F, [0.0, 1.0, np.sqrt(2)], 2000)
    for (lam, y), (lam2, y2) in zip(terms, fitted.terms):
        assert lam == lam2
        assert np.abs(y - y2).max() <= 1e-3  # finite-N leakage only


def test_linear_combination_defect_bound(rng):
    # defect of alpha F + beta G at a common tau is bounded by the
    # weighted sum of the individual defects
    F = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0, 0.5])]))
    G = BiSequence.from_trig_poly(TrigPoly.of([(np.sqrt(3), [0.25, -1.0])]))
    alpha, beta = 2.0 - 1.0j, 0.7
    H = axpy(alpha, F, beta, G)
    taus = rng.integers(-200, 200, size=25)
    dF = translation_defects(F, SUP, (-10, 10), taus)
    dG = translation_defects(G, SUP, (-10, 10), taus)
    dH = translation_defects(H, SUP, (-10, 10), taus)
    assert (dH <= abs(alpha) * dF + abs(beta) * dG + 1e-12).all()


def test_pair_sequence_defect_is_additive(rng):
    # under the product seminorm the pair defect equals the sum, pointwise
    F = BiSequence.from_trig_poly(TrigPoly.of([(1.0, [1.0, -0.5])]))
    G = BiSequence.from_trig_poly(TrigPoly.of([(0.3, [2.0, 1.0])]))
    pair_sn = Seminorm.block_sum(SUP, 2)
    for _ in range(50):
        k = int(rng.integers(-50, 50))
        tau = int(rng.integers(-50, 50))
        dF = F(k + tau) - F(k)
        dG = G(k + tau) - G(k)
        pair = pair_sn(np.concatenate([dF, dG]))
        assert pair == pytest.approx(SUP(dF) + SUP(dG), abs=1e-15)


def test_weyl_bounds_besicovitch_up_to_edge_factor(rng):
    # for bounded defect sequences the symmetric average at l is covered by
    # two one-sided windows: Bes(l) <= 3 * Weyl(l)
    for _ in range(5):
        terms = [(float(rng.uniform(0, 3)), rng.standard_normal(2))
                 for _ in range(3)]
        F = BiSequence.from_trig_poly(TrigPoly.of(terms))
        P = BiSequence.zeros(2)
        for l in (16, 64):
            bes = besicovitch_distance(F, P, SUP, 1.0, [l]).values_by_l[0][1]
            weyl = weyl_distance(F, P, SUP, 1.0, l, (-l, 0))
            assert bes <= 3.0 * weyl + 1e-12


def test_distances_are_zero_iff_pointwise_zero():
    F = BiSequence.spike(3, [1.0])
    zero = BiSequence.zeros(1)
    assert weyl_distance(F, zero, SUP, 1.0, 8, (0, 0)) > 0
    assert besicovitch_distance(F, zero, SUP, 1.0, [8]).limsup_estimate > 0
    assert weyl_distance(zero, zero, SUP, 1.0, 8, (-5, 5)) == 0.0


@pytest.mark.parametrize("sn", [SUP, Seminorm.p_norm(2), Seminorm.p_norm(1.5),
                                Seminorm.first_difference(),
                                Seminorm.block_sum(SUP, 2)],
                         ids=lambda sn: sn.kind + sn.label)
@pytest.mark.parametrize("backend", ["trig", "omega_c"])
def test_translation_defects_match_per_tau_reference_loop(sn, backend):
    rng = np.random.default_rng(11)
    if backend == "trig":
        F = BiSequence.from_trig_poly(TrigPoly.of(
            [(lam, rng.standard_normal(4) + 1j * rng.standard_normal(4))
             for lam in (0.4, -1.3, 2.9)]))
    else:
        F = BiSequence.omega_c(rng.standard_normal((6, 4))
                               + 1j * rng.standard_normal((6, 4)),
                               6, 0.8 + 0.5j)
    ks = range(-15, 12)
    taus = np.arange(-20, 25)
    got = translation_defects(F, sn, (ks.start, ks.stop - 1), taus)
    ref = [reference_row_values(sn, np.stack([F(k + int(t)) - F(k)
                                              for k in ks])).max()
           for t in taus]
    assert got.tobytes() == np.array(ref).tobytes()


def test_translation_defects_of_no_taus_is_empty():
    F = BiSequence.constant([1.0, 2.0])
    got = translation_defects(F, SUP, (-5, 5), np.array([], dtype=np.int64))
    assert got.shape == (0,) and got.dtype == np.float64


@pytest.mark.parametrize("epsilon", [float("nan"), -1e-300])
def test_bohr_rejects_epsilon_that_is_not_a_number_ge_zero(epsilon):
    F = BiSequence.constant([1.0])
    with pytest.raises(InputContractError):
        bohr_check(F, SUP, epsilon, (-5, 5), (0, 10), 2)


#: scales of a random table: squares that are subnormal or zero, and
#: squares that overflow
BOHR_SCALES = {"scaled-1e-160": 1e-160, "scaled-1e-310": 1e-310,
               "scaled-1e150": 1e150, "scaled-3e299": 3e299}


def bohr_target(name: str) -> BiSequence:
    rng = np.random.default_rng(23)
    base = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    if name == "trig":
        return BiSequence.from_trig_poly(TrigPoly.of(
            [(lam, rng.standard_normal(4) + 1j * rng.standard_normal(4))
             for lam in (0.4, -1.3, 2.9)]))
    if name == "omega_c-unimodular":
        return BiSequence.omega_c(base, 6, 1j)
    if name == "omega_c-contracting":
        return BiSequence.omega_c(base, 6, 0.8 + 0.5j)
    table = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
    if name.startswith("scaled-"):
        # a target whose squares underflow or overflow
        return BiSequence.from_table(-40, table * BOHR_SCALES[name],
                                     extend="zero")
    if name == "nan-table":
        table[190, 1] = np.nan
    elif name == "inf-table":
        table[160, 0], table[170, 3] = np.inf, -1j * np.inf
    return BiSequence.from_table(-40, table, extend="zero")


#: (k_window, tau_range, L): a plain scan, L = 1, a k-window shorter than
#: the lower bounds' k-stride, and a negative tau range
BOHR_SHAPES = [((-70, 70), (0, 200), 24), ((-70, 70), (-20, 60), 1),
               ((3, 40), (0, 150), 10), ((-70, 70), (-260, -40), 17)]


@pytest.mark.parametrize("sn", [SUP, Seminorm.p_norm(2), Seminorm.p_norm(1.5),
                                Seminorm.first_difference(),
                                Seminorm.block_sum(Seminorm.first_difference(),
                                                   2)],
                         ids=lambda sn: sn.kind + sn.label)
@pytest.mark.parametrize("target", ["trig", "omega_c-unimodular",
                                    "omega_c-contracting", "zero-table",
                                    "nan-table", "inf-table",
                                    *BOHR_SCALES])
def test_bohr_check_matches_exhaustive_scan(target, sn):
    F = bohr_target(target)
    # a difference stencil over the +-inf entries meets inf - inf, and a p
    # norm of values near 1e300 raises them to a power beyond the floats
    if target == "inf-table" and sn.kind in ("stencil", "block_sum"):
        warns = pytest.warns(RuntimeWarning, match="invalid value")
    elif target == "scaled-3e299" and sn.kind == "p":
        warns = pytest.warns(RuntimeWarning, match="overflow")
    else:
        warns = contextlib.nullcontext()
    with warns:
        for k_window, tau_range, L in BOHR_SHAPES:
            exact = exhaustive_bohr_check(F, sn, np.inf, k_window, tau_range,
                                          L).max_defect
            for epsilon in (0.0, 1e-12, exact, np.inf):
                if np.isnan(epsilon):
                    continue
                got = bohr_check(F, sn, epsilon, k_window, tau_range, L)
                ref = exhaustive_bohr_check(F, sn, epsilon, k_window,
                                            tau_range, L)
                assert repr(got.to_dict()) == repr(ref.to_dict()), \
                    (k_window, tau_range, L, epsilon)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("epsilon", [1.0, np.inf])
def test_bohr_check_keeps_nan_from_stencil_overflow(epsilon):
    # finite values, but F(20) - F(10) overflows to inf and the d1 stencil
    # makes the defect at tau = 10 NaN through k = 10, which the lower
    # bounds skip; their bound 1.5e308 at tau = 10 exceeds every other
    # defect, so a scan pruned on it alone would miss the NaN
    table = np.zeros((31, 2), dtype=complex)
    table[0, 0], table[10, 0], table[20, 0] = 0.5e308, -1e308, 1e308
    F = BiSequence.from_table(0, table, extend="zero")
    args = (F, Seminorm.first_difference(), epsilon, (0, 100), (0, 20), 5)
    got = bohr_check(*args)
    assert np.isnan(got.max_defect) and 10 not in got.translation_numbers
    assert repr(got.to_dict()) == repr(exhaustive_bohr_check(*args).to_dict())


def test_window_reductions_match_every_window_reduced_alone():
    rng = np.random.default_rng(11)
    for trial in range(900):
        n = int(rng.integers(1, 50))
        width = int(rng.integers(1, n + 1))
        # ties, +-inf and plain values, and NaN for the min and max
        x = [rng.integers(0, 3, n).astype(float), rng.standard_normal(n),
             rng.choice([0.0, 1.0, np.inf, -np.inf], n)][trial % 3]
        windows = np.lib.stride_tricks.sliding_window_view(x, width)
        want = np.arange(n - width + 1) + windows.argmin(axis=1)
        assert np.array_equal(ap_analysis._window_argmin(x, width), want), \
            (x, width)
        if trial % 2:
            x[rng.integers(0, n)] = np.nan
            windows = np.lib.stride_tricks.sliding_window_view(x, width)
        for op, want in [(np.minimum, windows.min(axis=1)),
                         (np.maximum, windows.max(axis=1))]:
            got = ap_analysis._window_reduce(x, width, op)
            assert got.tobytes() == want.tobytes(), (x, width)


@pytest.mark.parametrize("epsilon", [0.5, np.inf])
def test_bohr_check_evaluates_few_taus_exactly(monkeypatch, epsilon):
    # a trig target of the benchmark's ap-scan size: 2,001 k and 6,201 taus
    rng = np.random.default_rng(5)
    F = BiSequence.from_trig_poly(TrigPoly.of(
        [(lam, rng.standard_normal(4) + 1j * rng.standard_normal(4))
         for lam in rng.uniform(0.1, 3.0, size=3)]))
    args = (F, SUP, epsilon, (-1000, 1000), (0, 6000), 200)
    evaluated = []

    def spy(F, sn, k_window, taus):
        evaluated.extend(np.asarray(taus).tolist())
        return translation_defects(F, sn, k_window, taus)

    monkeypatch.setattr(ap_analysis, "translation_defects", spy)
    got = bohr_check(*args)
    monkeypatch.undo()
    assert len(evaluated) <= 0.05 * 6201
    assert len(set(evaluated)) == len(evaluated)
    assert repr(got.to_dict()) == repr(exhaustive_bohr_check(*args).to_dict())
