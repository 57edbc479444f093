"""The benchmark's tracer wraps apseq functions by name from outside the
package; these tests keep those names, and the solver paths through them,
alive.  bench/tracing.py is only loaded, never changed."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from apseq import cli, first_order, higher_order, resolvent
from apseq.seq_core import as_window

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: traced functions the canned examples, a first-order solve and an
#: inclusion solve must reach
SOLVER_PATHS = ("first_order.residual", "resolvent.inclusion_residual",
                "resolvent.vb_residual", "higher_order.second_order_residual",
                "resolvent.compose_selection",
                "higher_order.companion_D_block", "first_order._apply_level",
                "first_order._probe_forcing", "discretization.heat_problem",
                "discretization.wave_problem")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for layer, names in tracing.TRACED.items():
        owner = tracing._module(layer)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                assert meth in vars(getattr(owner, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(owner, name, None)), f"{layer}.{name}"


def constant(*rows) -> dict:
    """A constant operator descriptor of real matrix rows."""
    return {"backend": "constant",
            "matrix": [[[v, 0.0] for v in row] for row in rows]}


def solve_config(kind: str) -> dict:
    """x(k+1) = x(k)/2 + 1 as a first-order equation, the inclusion
    2 x(k+1) in x(k) + 2 with A = C = 1 and f = 1 (x = -1), or a scalar
    vb, vb1 or order-2 equation or a p = 2 system_bm with f = 1 and
    small coefficients."""
    A = [[[0.5, 0.0]]] if kind == "first_order" else [[[2.0, 0.0]]]
    cfg = {"schema_version": 1, "kind": kind, "dim": 1, "window": [-8, 8],
           "tol": 1e-10, "seminorms": [{"kind": "sup"}],
           "operators": {"A": {"backend": "constant", "matrix": A}},
           "forcing": {"backend": "constant", "value": [[1.0, 0.0]]}}
    if kind in ("degenerate_vb", "degenerate_vb1"):
        cfg["operators"]["B"] = constant([0.4])
    if kind == "degenerate_vb1":
        # g = B f
        cfg["sequences"] = {"g": {"backend": "constant",
                                  "value": [[0.4, 0.0]]}}
    if kind == "system_bm":
        cfg["params"] = {"p": 2}
        cfg["operators"] = {"A": constant([2.0, 0.0], [0.0, 2.0]),
                            "D": constant([0.125, 0.0], [0.0, 0.125])}
        cfg["forcing"]["value"] = [[1.0, 0.0], [2.0, 0.0]]
    if kind == "second_order":
        cfg["operators"] = {"A0": constant([4.0]), "A1": constant([0.1]),
                            "A2": constant([0.1])}
    return cfg


def test_traced_examples_reach_every_solver_path(tmp_path):
    periodic = solve_config("first_order")
    periodic["operators"]["A"] = {"backend": "periodic", "matrices": [
        [[[0.5, 0.1]]], [[[0.3, -0.2]]], [[[-0.4, 0.0]]]]}
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert cli.main(["example", "heat", "--n", "3", "--out",
                         str(tmp_path / "heat")]) == 0
        assert cli.main(["example", "wave", "--n", "3", "--out",
                         str(tmp_path / "wave")]) == 0
        # the examples report their own equations' residuals; the
        # first-order and selection-form residuals are those of these
        sweep, sweeps = tracer.names.index("first_order._apply_level"), []
        for command, name, cfg in (
                ("solve", "first_order", solve_config("first_order")),
                ("solve-inclusion", "inclusion", solve_config("inclusion")),
                ("solve", "periodic", periodic)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            before = tracer.calls[sweep]
            assert cli.main([command, "--config", str(path), "--out",
                             str(tmp_path / name)]) == 0
            sweeps.append(tracer.calls[sweep] - before)
    finally:
        tracer.op = -1
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    assert not [n for n in SOLVER_PATHS if not calls[n]]
    assert not any(tracer.errors)
    # one traced sweep per solve, a periodic A's blocked sweep included,
    # so the sweep's self time stays its own layer
    assert sweeps == [1, 1, 1]
    metrics = tracer.metrics(2, 1.0)
    assert np.isfinite(metrics["operator_model.cert_cache_hit_ratio"][0])
    assert np.isfinite(metrics["operator_model.matrix_cache_hit_ratio"][0])


@pytest.mark.parametrize("argv, form", [
    (["example", "heat", "--n", "3"], "vb_direct"),
    (["example", "wave", "--n", "3"], "second_order_direct"),
    (["solve", "first_order"], "first_order"),
    (["solve-inclusion", "inclusion"], "inclusion_selection"),
    (["solve-degenerate", "degenerate_vb"], "vb_direct"),
    (["solve-degenerate", "degenerate_vb1"], "vb1_direct"),
    (["solve-degenerate", "system_bm"], "vb1_direct"),
    (["solve-p2", "second_order"], "second_order_direct")])
def test_each_cli_solve_measures_one_residual(tmp_path, monkeypatch, argv,
                                             form):
    """A solve measures only the residual its report holds: the series and
    inclusion residuals a reduction discards are not computed."""
    calls = []
    original = first_order.linear_residual

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    for module in (first_order, resolvent, higher_order):
        monkeypatch.setattr(module, "linear_residual", counted)
    if argv[0] != "example":
        command, kind = argv
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(solve_config(kind)))
        argv = [command, "--config", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["solve"]["residual_form"] == form
    assert len(calls) == 1
    window = as_window(calls[0])
    assert [window.start, window.end] == report["solve"]["window"]


#: traced functions a trig and an (omega, c) ``analyze`` run must reach
SCAN_PATHS = ("ap_analysis.bohr_check", "ap_analysis.translation_defects",
              "ap_analysis.weyl_distance", "ap_analysis.besicovitch_distance",
              "ap_analysis.fit_trig_poly", "ap_analysis.omega_c_check",
              "seq_core.BiSequence.window_values", "seq_core.Seminorm.of_rows")


def analyze_config(target: dict, omega_c=None) -> dict:
    """A small version of the benchmark's ap-scan scenarios."""
    analysis = {
        "bohr": {"k_window": [-40, 40], "tau_range": [0, 60], "L": 24,
                 "epsilon": 1e-9, "seminorm": "sup"},
        "weyl": {"l": 16, "s_range": [-30, 30], "frequencies": [0.0, 0.7],
                 "p": 1.0},
        "besicovitch": {"l_grid": [16, 32, 64], "frequencies": [0.0, 0.7],
                        "p": 1.0}}
    if omega_c:
        analysis["omega_c"] = omega_c
    return {"schema_version": 1, "kind": "analyze", "dim": 2,
            "window": [-40, 40], "tol": 1e-10,
            "seminorms": [{"kind": "sup"}],
            "sequences": {"target": target}, "analysis": analysis}


def test_traced_analyze_reaches_every_scan_path(tmp_path):
    trig = analyze_config({"backend": "trig_poly", "terms": [
        {"frequency": 0.7, "coefficient": [[0.5, 0.25], [-0.3, 0.0]]},
        {"frequency": 0.0, "coefficient": [[0.1, 0.0], [0.0, 0.2]]}]})
    omega_c = analyze_config(
        {"backend": "omega_c", "omega": 3, "c": [0.0, 1.0],
         "base": [[[1.0, 0.0], [0.5, -0.5]], [[0.0, 2.0], [1.0, 0.0]],
                  [[-1.0, 0.5], [0.0, -1.0]]]},
        {"omega": 3, "c": [0.0, 1.0]})
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        for name, cfg in (("trig", trig), ("omega_c", omega_c)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main(["analyze", "--config", str(path), "--out",
                             str(tmp_path / name)]) == 0
    finally:
        tracer.op = -1
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    assert not [n for n in SCAN_PATHS if not calls[n]]
    assert not any(tracer.errors)
    report = json.loads((tmp_path / "omega_c" / "report.json").read_text())
    assert report["analysis"]["bohr"]["verdict"] is True
