"""``apseq analyze`` evaluates its target once, over the hull of the
analysis requests, and every checker reads slices of that table."""

import json

import pytest

from apseq import BiSequence, RangeError, TrigPoly, cli, config
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
