"""The benchmark's tracer wraps apseq functions by name from outside the
package; these tests keep those names, and the solver paths through them,
alive.  bench/tracing.py is only loaded, never changed."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from apseq import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: traced functions each canned example and a first-order solve must reach
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


def test_traced_examples_reach_every_solver_path(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        assert cli.main(["example", "heat", "--n", "3", "--out",
                         str(tmp_path / "heat")]) == 0
        assert cli.main(["example", "wave", "--n", "3", "--out",
                         str(tmp_path / "wave")]) == 0
    finally:
        tracer.op = -1
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    assert not [n for n in SOLVER_PATHS if not calls[n]]
    assert not any(tracer.errors)
    assert np.isfinite(tracer.metrics(2, 1.0)[
        "operator_model.cert_cache_hit_ratio"][0])


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
