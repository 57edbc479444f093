"""``apseq analyze`` evaluates its target once, over the hull of the
analysis requests, and every checker reads slices of that table; every
trig phase of the run is computed once, into one phase table over the
same k."""

import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from apseq import (BiSequence, RangeError, TrigPoly, Window, cli, config,
                   fit_trig_poly, seq_core)
from apseq.seq_core import PhaseTable
from conftest import per_k_sequence

ALL_REQUESTS = {
    "omega_c": {"omega": 3, "c": [0.0, 1.0]},
    "bohr": {"k_window": [-40, 40], "tau_range": [-10, 60], "L": 24,
             "epsilon": 0.5, "seminorm": "sup"},
    "weyl": {"l": 16, "s_range": [-30, 30], "frequencies": [0.0, 0.7],
             "p": 1.0},
    "besicovitch": {"l_grid": [16, 32, 64], "frequencies": [0.0, 0.7],
                    "p": 2.0},
}

TRIG = {"backend": "trig_poly", "terms": [
    {"frequency": 0.7, "coefficient": [[0.5, 0.25], [-0.3, 0.0]]},
    {"frequency": 0.0, "coefficient": [[0.1, 0.0], [0.0, 0.2]]}]}
BASE = [[[1.0, 0.0], [0.5, -0.5]], [[0.0, 2.0], [1.0, 0.0]],
        [[-1.0, 0.5], [0.0, -1.0]]]


def omega_c(c):
    return {"backend": "omega_c", "omega": 3, "c": c, "base": BASE}


def analyze_config(target: dict, analysis=ALL_REQUESTS,
                   window=(-40, 40)) -> dict:
    return {"schema_version": 1, "kind": "analyze", "dim": 2,
            "window": list(window), "tol": 1e-10,
            "seminorms": [{"kind": "sup"}, {"kind": "first_difference"}],
            "sequences": {"target": target}, "analysis": analysis}


def counting_rules(monkeypatch) -> list:
    """Record the window of every call of a config-built sequence's rule."""
    windows = []
    build = config.build_sequence

    def built(desc, dim):
        seq = build(desc, dim)
        rule = seq._window_fn

        def counted(w):
            windows.append(w)
            return rule(w)

        seq._window_fn = counted
        return seq

    monkeypatch.setattr(config, "build_sequence", built)
    return windows


def run_analyze(tmp_path, data) -> dict:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert cli.main(["analyze", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


@pytest.mark.parametrize("target", [TRIG, omega_c([0.0, 1.0])],
                         ids=["trig", "omega_c"])
def test_analyze_evaluates_the_target_once(tmp_path, monkeypatch, target):
    windows = counting_rules(monkeypatch)
    report = run_analyze(tmp_path, analyze_config(target))
    assert set(report["analysis"]) == set(ALL_REQUESTS)
    # the hull of the reads: the Weyl fit reads [-256, 256] (fit_N's
    # default), which holds every other request's window
    assert [(w.start, w.end) for w in windows] == [(-256, 256)]


def lazy_and_tabulated(cfg, F):
    """The analyses of F itself and of the target the dispatch hands them."""
    family = cfg.family()
    x, _, _, _ = cli._dispatch(cfg)
    assert hasattr(x, "table_values")
    return (repr(cli._run_analysis(cfg, F, family)),
            repr(cli._run_analysis(cfg, x, family)))


def table_desc(start, n, rng, extend=None):
    vals = rng.standard_normal((n, 2, 2))
    desc = {"backend": "table", "start": start,
            "values": [[list(map(float, z)) for z in row] for row in vals]}
    if extend:
        desc["extend"] = extend
    return desc


@pytest.mark.parametrize("backend", [
    "trig", "omega_c_unit", "omega_c_decay", "table", "zero_table", "spike",
    "function"])
def test_tabulated_target_gives_the_lazy_results(backend, monkeypatch, rng):
    desc = {"trig": TRIG, "omega_c_unit": omega_c([0.6, 0.8]),
            "omega_c_decay": omega_c([0.9, 0.1]),
            "table": table_desc(-256, 513, rng),
            "zero_table": table_desc(-20, 30, rng, "zero"),
            "spike": {"backend": "spike", "k": 7,
                      "value": [[1.0, -2.0], [0.5, 0.0]]},
            "function": TRIG}[backend]
    cfg = config.ScenarioConfig.from_dict(analyze_config(desc))
    if backend == "function":
        poly = TrigPoly.of([(0.7, [0.5 + 0.25j, -0.3]), (0.0, [0.1, 0.2j])])
        rows = BiSequence.from_trig_poly(poly)

        def F():
            return per_k_sequence(2, lambda k: rows(k) * (1 + k % 5))

        monkeypatch.setattr(config, "build_sequence", lambda d, dim: F())
    else:
        def F():
            return config.build_sequence(desc, 2)
    lazy, tabulated = lazy_and_tabulated(cfg, F())
    assert tabulated == lazy


def test_strict_table_target_needs_only_the_windows_read(tmp_path, rng):
    # no request reads the config window, nor a k beyond the Besicovitch
    # range, so a table holding just [-64, 64] is a valid target
    desc = table_desc(-64, 129, rng)
    data = analyze_config(desc, {"besicovitch": ALL_REQUESTS["besicovitch"]},
                          window=(-100, 100))
    report = run_analyze(tmp_path, data)
    cfg = config.ScenarioConfig.from_dict(data)
    lazy = cli._run_analysis(cfg, config.build_sequence(desc, 2),
                             cfg.family())
    assert report["analysis"]["besicovitch"] == json.loads(json.dumps(
        lazy["besicovitch"]))


def test_omega_c_request_reads_its_pad_beyond_the_window(tmp_path):
    data = analyze_config(omega_c([0.0, 1.0]),
                          {"omega_c": {"omega": 5, "c": [0.0, 1.0]}},
                          window=(-10, 10))
    cfg = config.ScenarioConfig.from_dict(data)
    x, _, _, _ = cli._dispatch(cfg)
    # the table is the window and the 5 k the defect reads beyond it
    assert x.window_values((-10, 15)).shape == (26, 2)
    with pytest.raises(RangeError):
        x.window_values((-10, 16))
    report = run_analyze(tmp_path, data)
    lazy = cli._run_analysis(cfg, config.build_sequence(omega_c([0.0, 1.0]),
                                                        2), cfg.family())
    assert report["analysis"]["omega_c"]["defect"] == lazy["omega_c"]["defect"]


def test_far_apart_requests_keep_the_lazy_target(tmp_path, monkeypatch):
    far = 10 ** 7
    analysis = {"bohr": {"k_window": [far, far + 20], "tau_range": [0, 10],
                         "L": 3, "epsilon": 10.0},
                "weyl": {"l": 4, "s_range": [-10, 10], "fit_N": 8}}
    data = analyze_config(TRIG, analysis, window=(-10, 10))
    cfg = config.ScenarioConfig.from_dict(data)
    x, _, _, _ = cli._dispatch(cfg)
    assert not hasattr(x, "table_values")
    windows = counting_rules(monkeypatch)
    report = run_analyze(tmp_path, data)
    assert report["analysis"]["bohr"]["verdict"] is True
    # each read is a request's own window, never the gap between them
    assert windows and max(len(w) for w in windows) <= 34


def spy_phases(monkeypatch) -> list:
    """Record (frequency, k) and a weak reference to the row of every
    trig_phases call."""
    calls = []
    compute = seq_core.trig_phases

    def spied(lam, ks):
        row = compute(lam, ks)
        calls.append((float(lam), ks.tolist(), weakref.ref(row)))
        return row

    monkeypatch.setattr(seq_core, "trig_phases", spied)
    return calls


@pytest.mark.parametrize("target", [TRIG, omega_c([0.0, 1.0])],
                         ids=["trig", "omega_c"])
def test_analyze_computes_each_phase_once(tmp_path, monkeypatch, target):
    calls = spy_phases(monkeypatch)
    exp = np.exp
    complex_exps = []

    def counted_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            complex_exps.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted_exp)
    report = run_analyze(tmp_path, analyze_config(target))
    monkeypatch.setattr(np, "exp", exp)
    # the target's frequencies (trig) and the fits' are 0.0 and 0.7, each
    # computed on the hull [-256, 256] and read in slices from there on
    assert sorted((lam, ks[0], ks[-1]) for lam, ks, _ in calls) == [
        (0.0, -256, 256), (0.7, -256, 256)]
    count = Counter((lam, k) for lam, ks, _ in calls for k in ks)
    assert max(count.values()) == 1
    # and no phase is computed by any other route
    assert sum(complex_exps) == len(count)
    # the phase table belongs to the run: nothing holds a row after it
    gc.collect()
    assert all(ref() is None for _, _, ref in calls)
    cfg = config.ScenarioConfig.from_dict(analyze_config(target))
    lazy = cli._run_analysis(cfg, config.build_sequence(target, 2),
                             cfg.family())
    assert report["analysis"] == json.loads(json.dumps(lazy))


def parent_fit(vals, lam, N):
    """The empirical mean at lam by np.exp(-1j * lam * k)."""
    phases = np.exp(-1j * float(lam) * np.arange(-N, N + 1))
    return (phases[:, None] * vals).sum(axis=0) / (2 * N + 1)


def parent_values(poly, window):
    """P on window by np.exp(1j * lam * k), term by term."""
    ks = np.arange(window[0], window[1] + 1, dtype=np.float64)
    out = np.zeros((len(ks), poly.dim), dtype=np.complex128)
    for lam, y in poly.terms:
        out += np.exp(1j * lam * ks)[:, None] * y[None, :]
    return out


@pytest.mark.parametrize("freqs", [[0.0, -0.9, 1.3], [-0.0, 2.1]])
@pytest.mark.parametrize("table", [None, (-300, 500), (-40, 40), (5, 400)],
                         ids=["no-table", "holds-all", "holds-part",
                              "excludes-0"])
def test_fit_and_approximant_keep_their_bits(rng, freqs, table):
    N = 64
    vals = rng.standard_normal((2 * N + 1, 3)) + 1j * rng.standard_normal(
        (2 * N + 1, 3))
    F = BiSequence.from_table(-N, vals)
    phases = PhaseTable(*table) if table else None
    poly = fit_trig_poly(F, freqs, N, phases)
    for (lam, y), want in zip(poly.terms, freqs):
        assert np.float64(lam).tobytes() == np.float64(want).tobytes()
        assert y.tobytes() == parent_fit(vals, want, N).tobytes()
    P = BiSequence.from_trig_poly(poly, phases)
    for window in [(-N, N), (37, 180), (-250, -3), (-7, 0)]:
        assert (P.window_values(window).tobytes()
                == parent_values(poly, window).tobytes()), window


def test_conjugate_phases_differ_from_exp_minus_only_in_zero_signs():
    k = np.arange(-50, 51)
    for lam in [*np.linspace(-3.0, 3.0, 55), 0.0, -0.0]:
        got = np.conj(seq_core.trig_phases(float(lam), k.astype(np.float64)))
        want = np.exp(-1j * float(lam) * k)
        assert np.array_equal(got, want)
        bits = got.view(np.uint64) != want.view(np.uint64)
        assert not bits[0::2].any()
        flipped = bits[1::2]
        assert (got.imag[flipped] == 0).all()
        assert ((k[flipped] == 0) | (lam == 0)).all()


def test_phase_table_rows_are_computed_once_per_frequency(monkeypatch):
    calls = spy_phases(monkeypatch)
    table = PhaseTable(-10, 20)
    first = table.row(0.3, Window(-10, 20))
    assert table.row(0.3, Window(0, 5)).base is first.base
    assert not first.flags.writeable
    # -0.0 has its own row: its phases differ from 0.0's in zero signs
    plus, minus = table.row(0.0, Window(-3, 3)), table.row(-0.0, Window(-3, 3))
    assert plus.tobytes() != minus.tobytes()
    assert [(lam, ks[0], ks[-1]) for lam, ks, _ in calls] == [
        (0.3, -10, 20), (0.0, -10, 20), (-0.0, -10, 20)]
    # a window the table does not hold, or a frequency whose phase
    # overflows on it, is left to the caller
    assert table.row(0.3, Window(-11, 0)) is None
    assert table.row(1e307, Window(0, 1)) is None
