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
from conftest import reference_row_values


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


def edge_rows(rng, n, d):
    """Random rows with NaN, +-inf and signed zeros planted in them."""
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    specials = [np.nan, complex(np.nan, 1.0), complex(1.0, -np.nan), np.inf,
                complex(0.0, -np.inf), -np.inf, -0.0, complex(-0.0, -0.0)]
    flat = rows.reshape(-1)
    for i, v in zip(rng.choice(flat.size, min(flat.size, 2 * len(specials)),
                               replace=False), specials * 2):
        flat[i] = v
    rows[n // 2] = complex(-0.0, 0.0)  # an all-zero row of signed zeros
    return rows


ROW_SEMINORMS = [Seminorm.sup(), Seminorm.first_difference(),
                 Seminorm.second_difference(),
                 Seminorm.block_sum(Seminorm.sup(), 2),
                 Seminorm.block_sum(Seminorm.first_difference(), 2)]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("sn,n,d", [
    (sn, n, d) for sn in ROW_SEMINORMS
    for n, d in [(40, 4), (9, 2), (30, 1), (0, 4), (3, 64)]
    if sn.kind != "block_sum" or d % sn.blocks == 0])
def test_of_rows_is_bit_identical_to_axis_reduction(sn, n, d, rng):
    rows = edge_rows(rng, n, d) if n else np.zeros((0, d), np.complex128)
    got = sn.of_rows(rows)
    ref = reference_row_values(sn, rows)
    assert got.shape == ref.shape == (n,)
    assert got.tobytes() == ref.tobytes()


def _trig():
    # random coefficients: with short binary fractions the products are
    # exact whatever the operand order
    rng = np.random.default_rng(6)
    ys = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return BiSequence.from_trig_poly(TrigPoly.of(
        zip([0.3, -1.7, np.sqrt(2), 0.0], ys)))


def _omega_c(c):
    rng = np.random.default_rng(7)
    base = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    return BiSequence.omega_c(base, 5, c)


def _table(extend="zero"):
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    vals[3] = complex(-0.0, -0.0)
    return BiSequence.from_table(-4, vals, extend=extend)


#: every backend and view, built fresh per call (the (omega, c) power cache
#: is filled in the order of first use)
WINDOW_CASES = {
    "trig": _trig,
    "omega_c_i": lambda: _omega_c(1j),
    "omega_c_complex": lambda: _omega_c(0.5 + 0.2j),
    "omega_c_2": lambda: _omega_c(2.0),
    "table_zero": _table,
    "constant": lambda: BiSequence.constant([1.0, -0.0, 3j]),
    "zeros": lambda: BiSequence.zeros(3),
    "spike": lambda: BiSequence.spike(2, [1.0, -2.0, 0.5j]),
    "generator": lambda: BiSequence.from_function(
        3, lambda k: [np.sin(k), 1j * k, 0.5]),
    "shift_trig": lambda: seq_shift(_trig(), 3),
    "shift_omega_c": lambda: seq_shift(_omega_c(0.5 + 0.2j), -7),
    "reverse_trig": lambda: seq_reverse(_trig()),
    "reverse_omega_c": lambda: seq_reverse(_omega_c(0.5 + 0.2j)),
    "reverse_table": lambda: seq_reverse(_table()),
    "axpy": lambda: seq_axpy(0.3 + 1.0j, _trig(), -2.0, _omega_c(2.0)),
    "axpy_of_views": lambda: seq_axpy(
        1.5, seq_shift(_table(), 2), 0.5j, seq_reverse(_omega_c(1j))),
}


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
@pytest.mark.parametrize("window", [(-23, 19), (-9, -6), (4, 4), (-1, 11)])
def test_window_values_equal_stacked_values_bit_for_bit(name, window):
    ks = range(window[0], window[1] + 1)
    # window first, then k by k in descending order
    F = WINDOW_CASES[name]()
    got = F.window_values(window)
    per_k = np.stack([F(k) for k in reversed(ks)])[::-1]
    # k by k first, on a fresh instance
    G = WINDOW_CASES[name]()
    ref = np.stack([G(k) for k in ks])
    assert got.shape == (len(ks), F.dim) and got.flags.writeable
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes() == per_k.tobytes()
    assert G.window_values(window).tobytes() == ref.tobytes()


def test_table_window_outside_its_domain_raises_like_per_k():
    F = _table(extend=None)
    for window in [(-6, 0), (5, 9), (-9, 20), (10, 12), (-9, -6)]:
        with pytest.raises(RangeError) as by_window:
            F.window_values(window)
        with pytest.raises(RangeError) as by_k:
            np.stack([F(k) for k in range(window[0], window[1] + 1)])
        assert str(by_window.value) == str(by_k.value)


@pytest.mark.parametrize("parent", ["trig", "omega_c_complex", "table_zero"])
def test_shifted_and_reversed_views_evaluate_windows(parent):
    # views used to copy the parent's backend name but not its data, so a
    # shifted or reversed trig polynomial raised AttributeError here
    F = WINDOW_CASES[parent]()
    shifted = seq_shift(F, 3).window_values((0, 3))
    assert shifted.tobytes() == F.window_values((3, 6)).tobytes()
    reversed_ = seq_reverse(F).window_values((0, 3))
    assert reversed_.tobytes() == np.stack([F(-k) for k in range(4)]).tobytes()
