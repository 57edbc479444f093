import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq import (BiSequence, InputContractError, RangeError, Seminorm,
                   SeminormFamily, TrigPoly, Window, read_csv,
                   write_csv)
from apseq.seq_core import (_CSV_BLOCK_FLOATS, FLOAT_FMT, PerK,
                            _format_floats, write_grid_csv)
from conftest import axpy, per_k_sequence, reference_row_values


def test_table_eval_is_lookup():
    F = BiSequence.from_table(0, [[1.0], [2.0]])
    assert F(1)[0] == 2.0
    assert F(0)[0] == 1.0


def test_table_out_of_window_raises_without_extension():
    F = BiSequence.from_table(0, [[1.0], [2.0]])
    with pytest.raises(RangeError):
        F(2)
    G = BiSequence.from_table(0, [[1.0], [2.0]], extend="zero")
    assert G(100)[0] == 0.0


def test_trig_poly_zero_frequency_is_constant():
    F = BiSequence.from_trig_poly(TrigPoly.of([(0.0, [3.0])]))
    assert F(17)[0] == 3.0


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
    # the window-rule linear combination the tests build (conftest.axpy)
    vals = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    F = BiSequence.from_table(-3, vals)
    G = BiSequence.from_table(-3, rng.standard_normal((7, 3)))
    ident = axpy(1.0, F, 0.0, G)
    for k in range(-3, 4):
        assert np.array_equal(ident(k), 1.0 * F(k) + 0.0 * G(k))
    zero = axpy(1.0, F, -1.0, F)
    for k in range(-3, 4):
        assert np.abs(zero(k)).max() == 0.0


def test_axpy_constants():
    F = BiSequence.constant([1.0])
    G = BiSequence.constant([1.0])
    H = axpy(2.0, F, 3.0, G)
    assert H(12)[0] == 5.0


def test_shift_of_trig_poly_matches_rotated_coefficients():
    lam, y = 0.9, np.array([1.0 - 2.0j, 0.5j])
    P = BiSequence.from_trig_poly(TrigPoly.of([(lam, y)]))
    rotated = BiSequence.from_trig_poly(TrigPoly.of([(lam, y * np.exp(1j * lam * 7))]))
    for k in range(-5, 5):
        direct = y * np.exp(1j * lam * (k + 7))  # oracle: direct evaluation
        assert np.abs(P(k + 7) - direct).max() <= 1e-12
        assert np.abs(rotated(k) - direct).max() <= 1e-12


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


UP = Seminorm.stencil((1,), (1.0,), "up")  # x -> (x_1, ..., x_{d-1}, 0)
DOWN = Seminorm.stencil((-1,), (1.0,), "down")  # x -> (0, x_0, ...)


@pytest.mark.parametrize("seminorms,null", [
    ([UP], 0), ([DOWN], 2), ([UP, Seminorm.p_norm(2), DOWN], None),
    ([UP, DOWN], None), ([DOWN, Seminorm.block_sum(UP, 3)], 2)],
    ids=["up", "down", "with-l2", "up-down", "block"])
def test_family_names_its_first_null_basis_vector(seminorms, null):
    # a basis vector seen by any member is seen: up and down together
    # separate C^3 though each misses one end
    if null is None:
        SeminormFamily.of(seminorms, 3)
        return
    with pytest.raises(InputContractError) as err:
        SeminormFamily.of(seminorms, 3)
    assert str(err.value) == (f"family is not separating: basis vector "
                              f"{null} is null for every seminorm")


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


def test_csv_roundtrip_keeps_the_bits_of_special_values(tmp_path):
    # every pairing of re and im over signed zeros and infinities, nan,
    # subnormals and 1e+-300 reads back bit for bit
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.225073858507201e-308, 1e300, -1e300, 1e-300, -1e-300]
    re, im = np.meshgrid(special, special)
    vals = np.empty((re.size, 1), dtype=np.complex128)
    vals.real[:, 0], vals.imag[:, 0] = re.ravel(), im.ravel()
    path = tmp_path / "special.csv"
    write_csv(path, BiSequence.from_table(-3, vals), (-3, re.size - 4))
    back = read_csv(path)
    assert back.window_values((-3, re.size - 4)).tobytes() == vals.tobytes()
    with pytest.raises(RangeError):
        back(re.size - 3)


def test_read_csv_errors(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("k,re_0,im_0\r\n")
    with pytest.raises(InputContractError) as exc:
        read_csv(path)
    assert str(exc.value) == f"no data rows in {path}"
    path = tmp_path / "gap.csv"
    path.write_text("k,re_0,im_0\r\n0,1.0,2.0\r\n2,3.0,4.0\r\n")
    with pytest.raises(InputContractError) as exc:
        read_csv(path)
    assert str(exc.value) == "CSV rows must cover consecutive k"


def test_grid_csv_edge_values(tmp_path):
    # the long layout shares write_csv's formatter: same fields, one line
    # per (k, component), '\n' line ends
    edge = np.empty((2, 3), dtype=np.complex128)
    edge.real = [[-0.0, 1e-300, 1 / 3], [1e300, -5e-324, -0.0]]
    edge.imag = [[5e-324, -1e300, -0.0], [1 / 3, 0.0, 1e-300]]
    path = tmp_path / "grid.csv"
    write_grid_csv(path, BiSequence.from_table(-1, edge), (-1, 0))
    expected = "k,idx,re,im\n" + "".join(
        f"{k},{j},{FLOAT_FMT.format(x.real)},{FLOAT_FMT.format(x.imag)}\n"
        for k, row in zip((-1, 0), edge) for j, x in enumerate(row))
    assert path.read_bytes() == expected.encode()


def kernel_fields(values) -> list[bytes]:
    """The CSV kernel's bytes for each float, pad bytes and the leading
    ',' dropped."""
    fields = _format_floats(np.asarray(values, dtype=np.float64))
    assert all(f.tobytes()[0:1] == b"," for f in fields)
    return [f.tobytes().replace(b"\0", b"")[1:] for f in fields]


def assert_fields_exact(values):
    x = np.asarray(values, dtype=np.float64)
    expected = [("%.16e" % v).encode() for v in x.tolist()]
    got = kernel_fields(x)
    bad = [(v, e, g) for v, e, g in zip(x.tolist(), expected, got) if e != g]
    assert not bad, bad[:5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_csv_kernel_matches_percent_on_any_bits(bits):
    # every float64 bit pattern: nan payloads, +-inf, subnormals, zeros
    assert_fields_exact(np.array(bits, dtype=np.uint64).view(np.float64))


def test_csv_kernel_adversarial_values():
    values = [0.0, 5e-324, 1e300, 1e-300, 1e-250, 1e250, np.inf, np.nan]
    for p in range(-300, 301):
        v = float(f"1e{p}")
        # a power of ten, its neighbours, and a decade carry below it
        values += [v, np.nextafter(v, 0), np.nextafter(v, np.inf),
                   float(f"9.99999999999999999e{p}"),
                   float(f"9.9999999999999995e{p}")]
    values += [2.0 ** e for e in range(-1074, 1024)]
    # exact ties, which '%' rounds half-even: x.25 and x.75 with 16 integer
    # digits, x.125 etc. with 15
    values += [1e15 + k / 8 for k in range(-4000, 4001)]
    values += [2.0 ** 52 + k / 2 for k in range(-100, 101)]
    x = np.array(values)
    assert_fields_exact(np.concatenate([x, -x]))


def test_csv_kernel_decade_and_carry():
    # 1e-248 lies below 10^-248, so its digits belong to exponent -249:
    # decided on the scaled value, not on its rounded digits
    assert Fraction(1e-248) < Fraction(1, 10 ** 248)
    # 1e-14 and 1e98 lie below their powers of ten too, but round up to
    # them at 17 digits: the carry N = 10^17 moves the exponent back up
    assert Fraction(1e-14) < Fraction(1, 10 ** 14)
    assert Fraction(1e98) < 10 ** 98
    assert kernel_fields([1e-248, 1e-14, 1e98, -0.0, 0.0]) == [
        b"9.9999999999999998e-249", b"1.0000000000000000e-14",
        b"1.0000000000000000e+98", b"-0.0000000000000000e+00",
        b"0.0000000000000000e+00"]


@pytest.mark.parametrize("dim, start, n", [(1, -10000, 20001),
                                           (8, -10000, 20001),
                                           (32, -300, 601)])
def test_csv_multi_block_exact(tmp_path, rng, dim, start, n):
    # longer than two blocks, every %d width and sign (all of them over
    # -10000..10000), and fields formatted by '%' (a tie, out of range,
    # non-finite) mid-block and at block edges
    scale = np.exp(rng.uniform(-30, 30, (n, dim)))
    vals = (rng.standard_normal((n, dim)) * scale
            + 1j * rng.standard_normal((n, dim)))
    step = _CSV_BLOCK_FLOATS // (2 * dim)
    assert n > 4 * step
    specials = [1e15 + 0.25, 1e300, -np.inf, np.nan, -5e-324, -0.0, 0.0]
    flat = vals.view(np.float64)
    for i, r in enumerate([0, step - 1, step, 2 * step - 1, 2 * step,
                           n // 2, n - 1]):
        flat[r, 0] = specials[i]
        flat[r, -1] = specials[-1 - i]
        flat[r, dim] = specials[(i + 3) % len(specials)]
    F = BiSequence.from_table(start, vals)
    window = (start, start + n - 1)
    path, ref = tmp_path / "seq.csv", tmp_path / "ref.csv"
    write_csv(path, F, window)
    csv_writer_reference(ref, vals, start)
    assert path.read_bytes() == ref.read_bytes()

    write_grid_csv(path, F, window)
    expected = "k,idx,re,im\n" + "".join(
        f"{start + i},{j},{FLOAT_FMT.format(x.real)},"
        f"{FLOAT_FMT.format(x.imag)}\n"
        for i, row in enumerate(vals.tolist()) for j, x in enumerate(row))
    assert path.read_bytes() == expected.encode()


def grid_reference(vals, start) -> bytes:
    """The bytes of write_grid_csv with every float formatted by '%'."""
    return ("k,idx,re,im\n" + "".join(
        f"{start + i},{j},{FLOAT_FMT.format(x.real)},"
        f"{FLOAT_FMT.format(x.imag)}\n"
        for i, row in enumerate(vals.tolist())
        for j, x in enumerate(row))).encode()


def edge_values() -> np.ndarray:
    """Floats at the CSV kernel's edges, of each sign: decimal exponents
    +-99, +-100 and +-101 (a power of ten, its neighbours and a value
    mid-decade), 1e+-250 (formatted by '%') and the floats just inside
    them, exact ties (which '%' rounds half-even: 1e15 + 0.75 up, 1e15 +
    0.25 down), zeros and subnormals."""
    vals = [0.0, 5e-324, 2.2250738585072009e-308, 1e-250, 1e250,
            np.nextafter(1e-250, 1.0), np.nextafter(1e250, 0.0),
            1e15 + 0.25, 1e15 + 0.75, 2.0 ** 52 + 0.5, 1e16 + 2.0]
    for p in (99, 100, 101):
        for v in (float(f"1e{p}"), float(f"1e-{p}")):
            vals += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf),
                     3.7 * v]
    return np.array(vals + [-v for v in vals])


def test_csv_kernel_edge_values():
    assert_fields_exact(edge_values())
    # six lanes per field, or seven for every field of a block where one
    # field needs more than 24 bytes with its ',': a three-digit exponent
    # on the vector path, or a long field formatted by '%'
    for value, lanes in [(-1e99, 6), (1e-99, 6), (5e-324, 6), (1e100, 7),
                         (-1e-100, 7), (-1e300, 7)]:
        assert _format_floats(np.array([1.5, value])).shape == (2, lanes)
        assert_fields_exact([1.5, value, -0.0])


@pytest.mark.parametrize("dim", [1, 8, 32])
def test_csv_edge_values_at_row_and_block_edges(tmp_path, rng, dim,
                                                monkeypatch):
    # block i holds edge value i in the first and the last field of its
    # first and its last row, so each block picks its own lane count;
    # blocks of 256 floats (4 rows at dim 32) keep the '%' reference cheap
    from apseq import seq_core
    monkeypatch.setattr(seq_core, "_CSV_BLOCK_FLOATS", 256)
    edges = edge_values()
    step = 256 // (2 * dim)
    n = len(edges) * step
    vals = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    flat = vals.view(np.float64)
    for i, v in enumerate(edges):
        flat[np.ix_([i * step, (i + 1) * step - 1], [0, 2 * dim - 1])] = v
    F = BiSequence.from_table(-n // 2, vals)
    window = (-n // 2, -n // 2 + n - 1)
    path, ref = tmp_path / "seq.csv", tmp_path / "ref.csv"
    write_csv(path, F, window)
    csv_writer_reference(ref, vals, -n // 2)
    assert path.read_bytes() == ref.read_bytes()
    write_grid_csv(tmp_path / "grid.csv", F, window)
    assert (tmp_path / "grid.csv").read_bytes() == grid_reference(vals,
                                                                  -n // 2)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_per_k_json_keys_of_every_width(kind, rng):
    import json
    n = 2 * 10 ** 5 + 1
    values = (np.arange(n) - 3 * 10 ** 5 if kind == "int"
              else rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n))
    got = PerK(-10 ** 5, values).to_json()
    want = json.dumps(list(zip(range(-10 ** 5, 10 ** 5 + 1),
                               values.tolist())))
    if got != want:  # a diff of two whole texts would take minutes
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        assert got == want, (got[at - 40:at + 40], want[at - 40:at + 40])


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
    "generator": lambda: per_k_sequence(
        3, lambda k: [np.sin(k), 1j * k, 0.5]),
    "axpy": lambda: axpy(0.3 + 1.0j, _trig(), -2.0, _omega_c(2.0)),
    "axpy_of_views": lambda: axpy(
        1.5, axpy(1.0, _table(), -0.5, _trig()), 0.5j, _omega_c(1j)),
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


def test_from_table_copies_the_callers_array():
    vals = np.arange(6, dtype=np.complex128).reshape(3, 2)
    F = BiSequence.from_table(-1, vals)
    vals[0, 0] = 99.0
    assert vals.flags.writeable and F.table_values is not vals
    assert F(-1)[0] == 0.0


def test_adopted_table_holds_a_fresh_array_and_copies_a_view():
    # an array its builder hands over is held as is, made read-only
    vals = np.empty((3, 2), dtype=np.complex128)
    vals[:] = np.arange(6).reshape(3, 2)
    F = BiSequence._adopt_table(-1, vals)
    assert F.table_values is vals and not vals.flags.writeable
    # a reversed view (a backward sweep) is copied, in k order, and its
    # base stays the caller's
    sweep = np.arange(6, dtype=np.complex128).reshape(3, 2)
    G = BiSequence._adopt_table(-1, sweep[::-1])
    assert G.table_values.base is None
    assert G.table_values.flags.c_contiguous
    assert sweep.flags.writeable
    assert G.window_values((-1, 1)).tobytes() == sweep[::-1].tobytes()
    sweep[:] = 0
    assert G(-1)[0] == 4.0
    # a non-complex array is converted, once
    H = BiSequence._adopt_table(0, np.array([[1.0], [2.0]]))
    assert H.table_values.dtype == np.complex128 and H(1)[0] == 2.0


ADVERSARIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      0.1, -0.1, 1e-5, 1e-7, 1e16, 1e17, 1e300, -1e300,
                      1.7976931348623157e308, 123456789.0, 2.0 ** 53,
                      float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("start, values", [
    (-3, ADVERSARIAL_FLOATS),
    # k of mixed sign and width, int values with a sign
    (-1005, list(range(-7, 2003))),
    (-2, [-12, 0, 3, 10 ** 12]),
    (1, [7]),
    (5, [0.1]),
    (0, np.array([], dtype=int)),
    (0, np.array([], dtype=float)),
    (-40, [1e-11] * 90),
    (-2000, [1e-11, 2.5e-12, 3e-12] * 1334),
    (-99, list(np.random.default_rng(7).standard_normal(201))),
    (10 ** 9, [0.5, -0.0, 0.0, -0.0]),
])
def test_per_k_json_is_json_dumps_of_its_pairs(start, values):
    import json
    per_k = PerK(start, np.asarray(values))
    pairs = list(zip(range(start, start + len(values)),
                     np.asarray(values).tolist()))
    assert per_k.to_json() == json.dumps(pairs, sort_keys=True)
    assert len(per_k) == len(pairs)
    assert repr(list(per_k)) == repr(pairs)
    if all(v == v for _, v in pairs):
        assert per_k == pairs and pairs == per_k


def test_per_k_compares_as_its_pairs():
    a = PerK(-1, np.array([3, 4]))
    assert a == [(-1, 3), (0, 4)] and a == PerK(-1, np.array([3.0, 4.0]))
    assert a != [(-1, 3)] and a != PerK(0, np.array([3, 4]))
    assert dict(a) == {-1: 3, 0: 4}
    assert type(next(iter(a))[1]) is int
    assert {"sup": [(-1, 3), (0, 4)]} == {"sup": a}
