import numpy as np
import pytest

from apseq import (BiSequence, CertificateError,
                   ConvergencePreconditionError, InputContractError,
                   OperatorSequence, Seminorm, SeminormFamily, ShapeError,
                   Window, induced_bound, op_product_apply, solve_series)
from apseq.first_order import _truncation_depths
from apseq.operator_model import CERT_BLOCK, window_blocks
from conftest import random_matrix

SUP_FAM = SeminormFamily.sup_only(1)


def scalar_seq(values_or_value, family=SUP_FAM):
    if np.isscalar(values_or_value):
        return OperatorSequence.constant([[values_or_value]], family=family)
    return OperatorSequence.periodic([[[v]] for v in values_or_value],
                                     family=family)


def test_apply_examples():
    half = OperatorSequence.constant(0.5 * np.eye(2),
                                     family=SeminormFamily.sup_only(2))
    assert np.array_equal(half.apply(3, np.array([2.0, 2.0])),
                          np.array([1.0, 1.0]))
    zero = OperatorSequence.constant(np.zeros((2, 2)),
                                     family=SeminormFamily.sup_only(2))
    assert np.abs(zero.apply(-7, np.array([5.0, 1.0]))).max() == 0.0


def test_apply_periodic_index_arithmetic(rng):
    mats = [random_matrix(rng, 3) for _ in range(2)]
    A = OperatorSequence.periodic(mats, family=SeminormFamily.sup_only(3))
    # oracle: a generator evaluating the same rule directly
    G = OperatorSequence.from_function(3, lambda k: mats[k % 2])
    x = rng.standard_normal(3)
    for k in (-4, -1, 0, 1, 5):
        assert np.array_equal(A.apply(k, x), G.matrix(k) @ x)
    assert np.array_equal(A.matrix(5), mats[1])


def test_op_product_single_factor_is_one_apply():
    A = scalar_seq([0.5, 0.25])
    x = np.array([1.0])
    assert np.array_equal(op_product_apply(A, 3, 1, x), A.apply(2, x))


def test_op_product_constant_power_against_repeated_apply():
    a = 0.7 - 0.1j
    A = scalar_seq(a)
    x = np.array([1.0])
    got = op_product_apply(A, 2, 5, x)
    # oracle: repeated apply right to left
    y = np.array(x)
    for i in range(5, 0, -1):
        y = A.apply(2 - i, y)
    assert np.array_equal(got, y)
    assert got[0] == pytest.approx(a ** 5, rel=1e-14)


def test_op_product_periodic_two_step():
    a0, a1 = 0.3, 0.6
    A = scalar_seq([a0, a1])
    got = op_product_apply(A, 0, 2, np.array([1.0]))
    # A(-1) A(-2) = a1 * a0 since -1 mod 2 = 1, -2 mod 2 = 0
    assert got[0] == pytest.approx(a1 * a0, rel=1e-15)


def partial_sums(A, label, k, depth):
    """Partial sums of the backward products c(k-1) ... c(k-v), v <= depth."""
    certs = A.certificate_array(label, Window(k - depth, k - 1))
    return np.cumsum(np.cumprod(certs[::-1])).tolist()


def depths_at(A, k, tol, margin, f_sup=1.0):
    """The solver's certified depth and tail bound at k for the sup
    seminorm, with forcing sup f_sup."""
    sup = A.sup_over("sup", Window(k - margin, k - 1))
    V, tails = _truncation_depths(A, ["sup"], {"sup": sup},
                                  {"sup": f_sup}, tol, Window(k, k), margin)
    return int(V[0]), float(tails["sup"][0])


def test_rac_constant_half():
    A = scalar_seq(0.5)
    sums = partial_sums(A, "sup", 0, 40)
    assert sums[19] == 1.0 - 2.0 ** -20
    assert depths_at(A, 0, 2.0 ** -20, 20) == (20, 2.0 ** -20)
    with pytest.raises(ConvergencePreconditionError):  # tol=0 is unreachable
        depths_at(A, 0, 0.0, 20)
    depth, tail = depths_at(A, 0, 1e-12, 10_000)
    assert depth == 40 and tail <= 1e-12
    # partial sums are nondecreasing
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_rac_constant_one_diverges():
    A = scalar_seq(1.0)
    sums = partial_sums(A, "sup", 0, 50)
    assert sums == [float(v) for v in range(1, 51)]
    # sup certificate 1: no finite prefix certifies a tail
    with pytest.raises(ConvergencePreconditionError):
        solve_series(A, BiSequence.constant([1.0]), (0, 0))


def test_rac_alternating_products_hand_sum():
    # c(k) = 1/2 for even k, 1/4 for odd k; at k=0 the first four terms are
    # 1/4, 1/4*1/2, 1/4*1/2*1/4, 1/4*1/2*1/4*1/2
    A = scalar_seq([0.5, 0.25])
    sums = partial_sums(A, "sup", 0, 4)
    direct = []
    prod = 1.0
    for v in range(1, 5):  # oracle: direct loop
        prod *= (0.5 if (0 - v) % 2 == 0 else 0.25)
        direct.append(prod)
    expected = np.cumsum(direct)
    assert np.allclose(sums, expected, rtol=0, atol=0)
    assert sums[3] == 0.25 + 0.125 + 0.03125 + 0.015625


def test_rac_representation_invariance(rng):
    mats = [random_matrix(rng, 2) * 0.2 for _ in range(3)]
    fam = SeminormFamily.sup_only(2)
    P = OperatorSequence.periodic(mats, family=fam)
    G = OperatorSequence.from_function(2, lambda k: mats[k % 3], family=fam)
    assert partial_sums(P, "sup", 4, 30) == partial_sums(G, "sup", 4, 30)
    assert P.sup_bound("sup") == G.sup_over("sup", Window(-8, 8)) < 1.0
    assert depths_at(P, 4, 1e-12, 200) == depths_at(G, 4, 1e-12, 200)


FAMILY_KINDS = [
    Seminorm.sup(),
    Seminorm.p_norm(1),
    Seminorm.p_norm(2),
    Seminorm.p_norm(3.0),
    Seminorm.first_difference(),
    Seminorm.second_difference(),
]


@pytest.mark.parametrize("sn", FAMILY_KINDS, ids=lambda s: s.label)
def test_certificate_soundness_randomized(sn, rng):
    dim = 6
    mats = [random_matrix(rng, dim) for _ in range(3)]
    A = OperatorSequence.periodic(mats, family=SeminormFamily.of([sn], dim))
    assert A.sup_bound(sn.label) == max(induced_bound(m, sn) for m in mats)
    for _ in range(1000):
        k = int(rng.integers(-50, 50))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs = sn(A.apply(k, x))
        rhs = A.certificate(sn.label, k) * sn(x)
        assert lhs <= rhs * (1 + 1e-12) + 1e-300


def test_certificate_soundness_block_sum(rng):
    base = Seminorm.sup()
    sn = Seminorm.block_sum(base, 2)
    m = random_matrix(rng, 6)
    c = induced_bound(m, sn)
    for _ in range(500):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert sn(m @ x) <= c * sn(x) * (1 + 1e-12)


def test_product_bound_randomized(rng):
    fam = SeminormFamily.sup_only(3)
    mats = [random_matrix(rng, 3) * 0.4 for _ in range(2)]
    A = OperatorSequence.periodic(mats, family=fam)
    for _ in range(200):
        k = int(rng.integers(-30, 30))
        v = int(rng.integers(1, 21))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prod = 1.0
        for i in range(1, v + 1):
            prod *= A.certificate("sup", k - i)
        lhs = Seminorm.sup()(op_product_apply(A, k, v, x))
        assert lhs <= prod * Seminorm.sup()(x) * (1 + 1e-10) + 1e-300


def test_generator_sup_is_global_only_when_declared(rng):
    fam = SeminormFamily.sup_only(2)
    A = OperatorSequence.from_function(
        2, lambda k: np.eye(2) * (0.5 if k < 0 else 0.25), family=fam)
    assert A.sup_bounds == {}
    with pytest.raises(CertificateError, match="no global sup bound"):
        A.sup_bound("sup")
    assert A.sup_over("sup", Window(-4, 4)) == 0.5
    assert A.sup_over("sup", Window(0, 4)) == 0.25
    D = OperatorSequence.from_function(2, lambda k: np.eye(2) * 0.25,
                                       family=fam, sup_bounds={"sup": 0.5})
    assert D.sup_bound("sup") == D.sup_over("sup", Window(0, 4)) == 0.5
    with pytest.raises(CertificateError):
        D.sup_bound("nope")
    P = OperatorSequence.periodic([np.eye(2) * 0.5, np.eye(2) * 0.25],
                                  family=fam)
    assert P.sup_over("sup", Window(1, 1)) == P.sup_bound("sup") == 0.5


def test_induced_bound_interpolation_is_sound(rng):
    # lp bound via interpolation between l1 and linf
    sn = Seminorm.p_norm(3.0)
    for _ in range(100):
        m = random_matrix(rng, 5)
        c = induced_bound(m, sn)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert sn(m @ x) <= c * sn(x) * (1 + 1e-12)


def test_map_joint_backend_and_period(rng):
    fam = SeminormFamily.sup_only(2)
    P2 = OperatorSequence.periodic([random_matrix(rng, 2) for _ in range(2)],
                                   family=fam)
    P3 = OperatorSequence.periodic([random_matrix(rng, 2) for _ in range(3)],
                                   family=fam)
    K = OperatorSequence.constant(random_matrix(rng, 2), family=fam)
    G = OperatorSequence.from_function(2, lambda k: (1 + 0.1 * k) * np.eye(2))
    prod = OperatorSequence.map(lambda k, a, b: a @ b, P2, P3, shifts=(0, 1),
                                family=fam)
    assert prod.backend == "periodic" and prod.period == 6
    for k in range(-7, 8):
        assert np.array_equal(prod.matrix(k), P2.matrix(k) @ P3.matrix(k + 1))
        # derived certificates are the exact induced bounds
        assert prod.certificate("sup", k) == induced_bound(prod.matrix(k),
                                                           fam.by_label("sup"))
    assert OperatorSequence.map(lambda k, a: 2 * a, K).backend == "constant"
    mixed = OperatorSequence.map(lambda k, a, g: a @ g, K, G)
    assert mixed.backend == "generator"
    assert np.array_equal(mixed.matrix(4), K.matrix(4) @ G.matrix(4))
    # a generator result has no global sup; the solve probes it
    derived = OperatorSequence.map(lambda k, a, g: a @ g, K, G, family=fam)
    assert derived.backend == "generator" and derived.sup_bounds == {}
    w = Window(-3, 3)
    assert derived.sup_over("sup", w) == max(
        induced_bound(K.matrix(k) @ G.matrix(k), fam.by_label("sup"))
        for k in w)


def test_apply_rows_matches_per_row_products(rng):
    fam = SeminormFamily.sup_only(3)
    mats = [random_matrix(rng, 3) for _ in range(3)]
    seqs = [OperatorSequence.constant(mats[0], family=fam),
            OperatorSequence.periodic(mats, family=fam),
            OperatorSequence.from_function(3, lambda k: mats[k % 3] * k)]
    rows = random_matrix(rng, 3)[:2].repeat(4, axis=0)  # 8 rows
    for A in seqs:
        got = A.apply_rows(-5, rows)
        want = np.array([A.matrix(-5 + i) @ rows[i] for i in range(8)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


STENCILS = [
    Seminorm.first_difference(),
    Seminorm.second_difference(),
    # diagonally dominant, so invertible at every dimension
    Seminorm.stencil((-1, 0, 2), (0.5j, 2.0, -1.0), "skew"),
]


@pytest.mark.parametrize("sn", STENCILS, ids=lambda s: s.label)
def test_stencil_bound_matches_solve_conjugation(sn, rng):
    for d in range(2, 33):
        m = random_matrix(rng, d)
        s = sn.stencil_matrix(d)
        # independent route: S A S^{-1} as the X solving X S = S A
        conj = np.linalg.solve(s.T, (s @ m).T).T
        want = np.abs(conj).sum(axis=1).max()
        assert abs(induced_bound(m, sn) - want) <= 1e-12 * want


@pytest.mark.parametrize("sn", FAMILY_KINDS + STENCILS[2:] + [
    Seminorm.block_sum(Seminorm.first_difference(), 2)],
    ids=lambda s: f"{s.kind}-{s.label}")
def test_stacked_bounds_have_per_matrix_bits(sn, rng):
    for d in range(2, 33, 2):
        stack = random_matrix(rng, d)[None] * rng.standard_normal((7, 1, 1))
        stack += 0.1 * random_matrix(rng, d)
        got = induced_bound(stack, sn)
        assert got.shape == (7,)
        assert got.tolist() == [induced_bound(m, sn) for m in stack]
    nested = induced_bound(stack.reshape(7, 1, d, d), sn)
    assert nested.shape == (7, 1)
    assert np.array_equal(nested[:, 0], got)


def test_singular_stencil_raises_certificate_error(rng):
    sn = Seminorm.stencil((0, 1), (0.0, 1.0), "shift")
    for m in (random_matrix(rng, 4), random_matrix(rng, 4)[None].repeat(3, 0)):
        with pytest.raises(CertificateError, match="singular stencil"):
            induced_bound(m, sn)


def test_window_rule_generator_matches_per_k_rule(rng):
    # a per-k user rule adapted by from_function and the same rule given as
    # a window rule derive the same matrices and certificates
    fam = SeminormFamily.of(STENCILS[:2] + [Seminorm.sup()], 5)
    base = [random_matrix(rng, 5) for _ in range(3)]

    def stack(w):
        return np.stack([base[k % 3] * np.cos(k) for k in w])

    per_k = OperatorSequence.from_function(5, lambda k: stack([k])[0],
                                           family=fam)
    blocked = OperatorSequence(5, stack, family=fam)
    assert blocked.backend == per_k.backend == "generator"
    for sn in fam:
        assert (blocked.sup_over(sn.label, Window(-150, 20))
                == per_k.sup_over(sn.label, Window(-150, 20)))
    w = Window(-200, 30)
    for sn in fam:
        assert np.array_equal(blocked.certificate_array(sn.label, w),
                              [induced_bound(per_k.matrix(k), sn) for k in w])
    assert np.array_equal(blocked.matrices(w), per_k.matrices(w))
    # matrix(k) on a miss reads the one-k window
    assert np.array_equal(blocked.matrix(40), stack([40])[0])
    bad = OperatorSequence(5, lambda w: stack(w)[:-1])
    with pytest.raises(ShapeError):
        bad.matrices(w)
    with pytest.raises(ShapeError):
        bad.matrix(0)


def test_window_blocks_are_cut_at_aligned_multiples():
    w = Window(-70, 70)
    blocks = list(window_blocks(w))
    assert [(b.start, b.end) for b in blocks] == [
        (-70, -65), (-64, -1), (0, 63), (64, 70)]
    assert list(window_blocks(Window(5, 9))) == [Window(5, 9)]


def test_certificate_miss_derives_only_the_asked_window(rng):
    fam = SeminormFamily.of([Seminorm.sup(), Seminorm.p_norm(1)], 3)
    base = random_matrix(rng, 3)
    windows = []

    def stack(w):
        windows.append(w)
        return np.stack([base * np.cos(k) for k in w])

    A = OperatorSequence(3, stack, family=fam)
    c = A.certificate("sup", -5)
    assert windows == [Window(-5, -5)]
    assert c == induced_bound(base * np.cos(-5), fam.by_label("sup"))
    # every seminorm of k = -5 is cached: no further evaluation
    assert A.certificate("l1", -5) == induced_bound(base * np.cos(-5),
                                                    fam.by_label("l1"))
    assert windows == [Window(-5, -5)]
    # a window derives the runs it has not cached, cut at the block multiples
    w = Window(-CERT_BLOCK - 6, 3)
    for sn in fam:
        assert np.array_equal(A.certificate_array(sn.label, w),
                              [induced_bound(base * np.cos(k), sn) for k in w])
    assert windows == [Window(-5, -5),
                       Window(-CERT_BLOCK - 6, -CERT_BLOCK - 1),
                       Window(-CERT_BLOCK, -6), Window(-4, -1), Window(0, 3)]
