import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq import (BiSequence, InputContractError, RangeError, Seminorm,
                   SeminormFamily, ShapeError, TrigPoly, Window,
                   product_seminorm, read_csv, seq_axpy, seq_eval, seq_reverse,
                   seq_shift, write_csv)
from apseq.seq_core import FLOAT_FMT


def test_table_eval_is_lookup():
    F = BiSequence.from_table(0, [[1.0], [2.0]])
    assert seq_eval(F, 1)[0] == 2.0
    assert seq_eval(F, 0)[0] == 1.0


def test_table_out_of_window_raises_without_extension():
    F = BiSequence.from_table(0, [[1.0], [2.0]])
    with pytest.raises(RangeError):
        F(2)
    G = BiSequence.from_table(0, [[1.0], [2.0]], extend="zero")
    assert G(100)[0] == 0.0


def test_trig_poly_zero_frequency_is_constant():
    F = BiSequence.from_trig_poly(TrigPoly.of([(0.0, [3.0])]))
    assert seq_eval(F, 17)[0] == 3.0


def test_omega_c_halving_extension():
    # base value 1 at k=0, one-step ratio 1/2: F(3) = 1/8 (exact in binary)
    F = BiSequence.omega_c([[1.0]], 1, 0.5)
    assert F(3)[0] == 0.125
    assert F(-2)[0] == 4.0


@pytest.mark.parametrize("omega,c", [(1, 0.5), (1, 2.0), (2, 1j),
                                     (3, 0.3 + 0.4j), (2, 1.0)])
def test_omega_c_relation_on_window(omega, c, rng):
    base = rng.standard_normal((omega, 2)) + 1j * rng.standard_normal((omega, 2))
    F = BiSequence.omega_c(base, omega, c)
    for k in range(-50, 51):
        lhs = F(k + omega)
        rhs = c * F(k)
        scale = max(1e-30, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / scale <= 1e-13


def test_eval_is_deterministic():
    F = BiSequence.omega_c([[1.0, 2.0]], 1, 0.3 + 0.1j)
    a, b = F(37), F(37)
    assert np.array_equal(a, b)


def test_axpy_identity_and_cancellation(rng):
    vals = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    F = BiSequence.from_table(-3, vals)
    G = BiSequence.from_table(-3, rng.standard_normal((7, 3)))
    ident = seq_axpy(1.0, F, 0.0, G)
    for k in range(-3, 4):
        assert np.array_equal(ident(k), 1.0 * F(k) + 0.0 * G(k))
    zero = seq_axpy(1.0, F, -1.0, F)
    for k in range(-3, 4):
        assert np.abs(zero(k)).max() == 0.0


def test_axpy_constants():
    F = BiSequence.constant([1.0])
    G = BiSequence.constant([1.0])
    H = seq_axpy(2.0, F, 3.0, G)
    assert H(12)[0] == 5.0


def test_axpy_dimension_mismatch():
    with pytest.raises(ShapeError):
        seq_axpy(1.0, BiSequence.constant([1.0]),
                 1.0, BiSequence.constant([1.0, 2.0]))


def test_shift_by_zero_and_omega():
    F = BiSequence.omega_c([[1.0], [2.0]], 2, 0.5 + 0.2j)
    same = seq_shift(F, 0)
    moved = seq_shift(F, 2)
    for k in range(-10, 10):
        assert np.array_equal(same(k), F(k))
        assert np.abs(moved(k) - (0.5 + 0.2j) * F(k)).max() <= 1e-13 * max(
            1.0, np.abs(F(k)).max())


def test_shift_of_trig_poly_matches_rotated_coefficients():
    lam, y = 0.9, np.array([1.0 - 2.0j, 0.5j])
    P = BiSequence.from_trig_poly(TrigPoly.of([(lam, y)]))
    shifted = seq_shift(P, 7)
    rotated = BiSequence.from_trig_poly(TrigPoly.of([(lam, y * np.exp(1j * lam * 7))]))
    for k in range(-5, 5):
        direct = y * np.exp(1j * lam * (k + 7))  # oracle: direct evaluation
        assert np.abs(shifted(k) - direct).max() <= 1e-12
        assert np.abs(rotated(k) - direct).max() <= 1e-12


def test_reverse_is_an_involution_bit_identical(rng):
    F = BiSequence.from_table(-4, rng.standard_normal((9, 2)))
    G = seq_reverse(seq_reverse(F))
    for k in range(-4, 5):
        assert np.array_equal(G(k), F(k))


def test_product_seminorm_examples():
    sup = Seminorm.sup()
    assert product_seminorm([(sup, np.array([3.0, -4.0]))]) == 4.0
    assert product_seminorm([(sup, np.array([1.0])),
                             (sup, np.array([2.0]))]) == 3.0
    assert product_seminorm([(sup, np.zeros(2)), (sup, np.zeros(3))]) == 0.0
    with pytest.raises(InputContractError):
        product_seminorm([])


ALL_SEMINORMS = [
    Seminorm.sup(),
    Seminorm.p_norm(1),
    Seminorm.p_norm(2),
    Seminorm.p_norm(3.5),
    Seminorm.first_difference(),
    Seminorm.second_difference(),
    Seminorm.block_sum(Seminorm.sup(), 2),
]


@pytest.mark.parametrize("sn", ALL_SEMINORMS, ids=lambda s: s.label)
def test_seminorm_axioms_randomized(sn, rng):
    # homogeneity and triangle inequality on 1000 random samples, 1e-12 rel
    dim = 6
    for _ in range(1000):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        scale = max(1.0, sn(x), sn(y))
        assert abs(sn(lam * x) - abs(lam) * sn(x)) <= 1e-12 * scale * (1 + abs(lam))
        assert sn(x + y) <= sn(x) + sn(y) + 1e-12 * scale


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=4, max_size=4),
       st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_seminorm_homogeneity_property(entries, lam):
    sn = Seminorm.p_norm(2)
    x = np.array(entries)
    assert abs(sn(lam * x) - abs(lam) * sn(x)) <= 1e-9 * (1 + abs(lam)) * (1 + sn(x))


def test_family_separating_check():
    SeminormFamily.of([Seminorm.sup()], 3)  # fine
    SeminormFamily.of([Seminorm.first_difference()], 3)  # injective stencil
    with pytest.raises(InputContractError):
        # stencil reaching outside a dim-2 space sees nothing
        SeminormFamily.of([Seminorm.stencil((5,), (1.0,), "far")], 2)
    with pytest.raises(InputContractError):
        SeminormFamily.of([Seminorm.sup(), Seminorm.sup()], 2)  # dup labels


def test_family_lifted_product_space():
    fam = SeminormFamily.sup_only(2).lifted(3)
    assert fam.dim == 6
    x = np.array([1.0, 0.0, 2.0, 0.0, 0.0, -3.0])
    # sum of block sups: 1 + 2 + 3
    assert fam.seminorms[0](x) == 6.0


def csv_writer_reference(path, vals, start):
    """The bytes of csv.writer with every float formatted by FLOAT_FMT."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k"] + [f"{p}_{i}" for i in range(vals.shape[1])
                            for p in ("re", "im")])
        for i, row in enumerate(vals):
            w.writerow([str(start + i)] + [FLOAT_FMT.format(part)
                                           for x in row
                                           for part in (x.real, x.imag)])


def test_csv_roundtrip_exact(tmp_path, rng):
    vals = rng.standard_normal((11, 3)) + 1j * rng.standard_normal((11, 3))
    F = BiSequence.from_table(-5, vals)
    path = tmp_path / "seq.csv"
    write_csv(path, F, (-5, 5))
    G = read_csv(path)
    for k in range(-5, 6):
        assert np.array_equal(F(k), G(k))

    # signed zero, the smallest subnormal, extreme exponents and a repeating
    # fraction: same bytes as csv.writer, and every bit reads back
    edge = np.empty((2, 3), dtype=np.complex128)
    edge.real = [[-0.0, 1e-300, 1 / 3], [1e300, -5e-324, -0.0]]
    edge.imag = [[5e-324, -1e300, -0.0], [1 / 3, 0.0, 1e-300]]
    path = tmp_path / "edge.csv"
    ref = tmp_path / "edge_ref.csv"
    write_csv(path, BiSequence.from_table(-1, edge), (-1, 0))
    csv_writer_reference(ref, edge, -1)
    assert path.read_bytes() == ref.read_bytes()
    back = read_csv(path).window_values((-1, 0))
    assert back.tobytes() == edge.tobytes()


def test_window_validation():
    with pytest.raises(InputContractError):
        Window(3, 1)
    w = Window(-2, 4)
    assert len(w) == 7 and list(w)[0] == -2 and 0 in w
