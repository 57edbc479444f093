import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apseq.config import ScenarioConfig

MINIMAL_FIRST_ORDER = {
    "schema_version": 1,
    "kind": "first_order",
    "dim": 1,
    "window": [-20, 20],
    "tol": 1e-10,
    "seminorms": [{"kind": "sup"}],
    "operators": {"A": {"backend": "constant", "matrix": [[[0.5, 0.0]]]}},
    "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
}


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "apseq.cli", *args],
                          capture_output=True, text=True, env=full_env)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def read_solution(out_dir):
    with open(Path(out_dir) / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    ks = [int(r[0]) for r in data]
    vals = np.array([[float(x) for x in r[1:]] for r in data])
    return header, ks, vals


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if "generated_at" not in l)


def test_minimal_first_order_scenario(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    out = tmp_path / "out"
    res = run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, ks, vals = read_solution(out)
    assert header == ["k", "re_0", "im_0"]
    assert ks == list(range(-20, 21))
    assert np.abs(vals[:, 0] - 2.0).max() <= 1e-9  # constant 2 column
    assert np.abs(vals[:, 1]).max() == 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["solve"]["max_residual"]["sup"] <= 4.5e-10


def test_divergent_certificate_exits_3(tmp_path):
    data = dict(MINIMAL_FIRST_ORDER)
    data["operators"] = {"A": {"backend": "constant",
                               "matrix": [[[1.0, 0.0]]]}}
    cfg = write_config(tmp_path, data)
    res = run_cli("solve", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 3
    assert "certificate" in res.stderr


def test_malformed_window_exits_2(tmp_path):
    data = dict(MINIMAL_FIRST_ORDER)
    data["window"] = [5, -5]
    cfg = write_config(tmp_path, data)
    res = run_cli("solve", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2


def test_wrong_kind_for_subcommand_exits_2(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    res = run_cli("solve-p2", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2


def test_singular_second_order_exits_4(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "second_order",
        "dim": 1,
        "window": [-3, 3],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {
            "A0": {"backend": "constant", "matrix": [[[0.0, 0.0]]]},
            "A1": {"backend": "constant", "matrix": [[[0.1, 0.0]]]},
            "A2": {"backend": "constant", "matrix": [[[0.1, 0.0]]]},
        },
        "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
    }
    cfg = write_config(tmp_path, data)
    res = run_cli("solve-p2", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 4


def test_config_roundtrip_identity(tmp_path):
    cfg = ScenarioConfig.from_dict(MINIMAL_FIRST_ORDER)
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()


def test_determinism_across_runs_and_threads(tmp_path):
    data = {
        **MINIMAL_FIRST_ORDER,
        "operators": {"A": {"backend": "periodic",
                            "matrices": [[[[0.5, 0.1]]], [[[0.3, -0.2]]]]}},
        "forcing": {"backend": "trig_poly",
                    "terms": [{"frequency": 1.0, "coefficient": [[1.0, 0.5]]},
                              {"frequency": 0.0, "coefficient": [[0.2, 0.0]]}]},
        "analysis": {"omega_c": {"omega": 2, "c": [1.0, 0.0]}},
    }
    cfg = write_config(tmp_path, data)
    outs = []
    for i, threads in enumerate(("1", "1", "8")):
        out = tmp_path / f"out{i}"
        res = run_cli("solve", "--config", str(cfg), "--out", str(out),
                      "--threads", threads)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    base_csv = (outs[0] / "solution.csv").read_bytes()
    base_rep = strip_timestamp((outs[0] / "report.json").read_text())
    for out in outs[1:]:
        assert (out / "solution.csv").read_bytes() == base_csv
        got = strip_timestamp((out / "report.json").read_text())
        # the threads field differs by design; drop it too
        drop = lambda t: "\n".join(l for l in t.splitlines()
                                   if '"threads"' not in l)
        assert drop(got) == drop(base_rep)


def test_env_var_thread_fallback(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    out = tmp_path / "out"
    res = run_cli("solve", "--config", str(cfg), "--out", str(out),
                  env={"APSEQ_THREADS": "2"})
    assert res.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["threads"] == 2


def test_bad_thread_env_var_is_an_input_error(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    res = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                  env={"APSEQ_THREADS": "abc"})
    assert res.returncode == 2
    assert "apseq: error" in res.stderr and "APSEQ_THREADS" in res.stderr


@pytest.mark.parametrize("patch", [
    {"operators": {"A": {"backend": "constant"}}},
    {"seminorms": [{"kind": "p"}]},
    {"forcing": {"backend": "constant"}},
    {"forcing": {"backend": "spike", "k": "x", "value": [[1.0, 0.0]]}},
    {"seminorms": ["sup"]},
    {"forcing": [[1.0, 0.0]]},
    {"operators": {"A": [1]}},
    {"kind": "inclusion",
     "operators": {**MINIMAL_FIRST_ORDER["operators"],
                   "C": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}},
    {"analysis": ["bohr"]},
    {"analysis": {"bohr": {"epsilon": 0.1, "k_window": [-5, 5],
                           "tau_range": [0, 10]}}},
    {"analysis": {"weyl": {"s_range": [-10, 10]}}},
    {"analysis": {"omega_c": {"omega": "x", "c": [1.0, 0.0]}}},
    {"tol": "x"},
    {"dim": "x"},
    {"window": ["a", 3]},
    {"seminorms": 5},
    {"kind": "heat", "params": {"n": "x"}},
], ids=["operator-matrix", "seminorm-p", "forcing-value", "spike-k",
        "seminorm-not-object", "forcing-not-object", "operator-not-object",
        "ragged-C", "analysis-not-object", "bohr-without-L",
        "weyl-without-l", "omega_c-omega-not-int", "tol-not-number",
        "dim-not-int", "window-not-int", "seminorms-not-list",
        "heat-n-not-int"])
def test_malformed_descriptor_is_an_input_error(tmp_path, patch):
    data = {**MINIMAL_FIRST_ORDER, **patch}
    command = {"inclusion": "solve-inclusion",
               "heat": "solve-degenerate"}.get(data["kind"], "solve")
    cfg = write_config(tmp_path, data)
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "apseq: error" in res.stderr and "descriptor" in res.stderr


@pytest.mark.parametrize("name", ["heat", "wave"])
def test_example_rejects_zero_tol(tmp_path, name):
    res = run_cli("example", name, "--tol", "0", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "apseq: error" in res.stderr


def test_truncation_depth_cap(tmp_path):
    # A = 0.999, f = 1: the geometric depth log(1e-10 / 999) / log(0.999)
    # is past the fixed cap of 10000 terms
    data = {**MINIMAL_FIRST_ORDER,
            "operators": {"A": {"backend": "constant",
                                "matrix": [[[0.999, 0.0]]]}}}
    cfg = write_config(tmp_path, data)
    res = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    assert ("certified truncation depth 29918 exceeds V_max=10000"
            in res.stderr)


def test_window_and_tol_overrides(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    out = tmp_path / "out"
    res = run_cli("solve", "--config", str(cfg), "--out", str(out),
                  "--window=-5:5", "--tol", "1e-8")
    assert res.returncode == 0
    _, ks, _ = read_solution(out)
    assert ks == list(range(-5, 6))


def test_inclusion_scenario_via_cli(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "inclusion",
        "dim": 1,
        "window": [-8, 8],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {"A": {"backend": "constant", "matrix": [[[2.0, 0.0]]]},
                      "C": [[[1.0, 0.0]]]},
        "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("solve-inclusion", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, _, vals = read_solution(out)
    assert np.abs(vals[:, 0] + 1.0).max() <= 1e-9  # x = -1


def test_degenerate_vb_scenario_via_cli(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "degenerate_vb",
        "dim": 1,
        "window": [-6, 6],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {"B": {"backend": "constant", "matrix": [[[0.4, 0.0]]]},
                      "A": {"backend": "constant", "matrix": [[[1.0, 0.0]]]},
                      "C": [[[1.0, 0.0]]]},
        "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("solve-degenerate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, _, vals = read_solution(out)
    assert np.abs(vals[:, 0] - (-1.0 / 0.6)).max() <= 1e-8
    assert (out / "solution_v.csv").exists()


def test_system_bm_scenario_via_cli(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "system_bm",
        "dim": 1,
        "window": [-5, 5],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "params": {"p": 2},
        "operators": {
            "A": {"backend": "constant",
                  "matrix": [[[2.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [2.0, 0.0]]]},
            "D": {"backend": "constant",
                  "matrix": [[[0.125, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [0.125, 0.0]]]},
        },
        "forcing": {"backend": "constant", "value": [[1.0, 0.0], [2.0, 0.0]]},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("solve-degenerate", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    # B = A D = I/4; equation u(k+1)/4 = 2 u(k) + g with g = B f = f/4;
    # constant solution u = -f/7
    _, _, vals = read_solution(out)
    assert np.abs(vals[:, 0] - (-1.0 / 7.0)).max() <= 1e-8
    assert np.abs(vals[:, 2] - (-2.0 / 7.0)).max() <= 1e-8


def test_analyze_scenario(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "analyze",
        "dim": 1,
        "window": [-50, 50],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "sequences": {"target": {"backend": "omega_c", "omega": 2,
                                 "c": [0.5, 0.0],
                                 "base": [[[1.0, 0.0]], [[2.0, 0.0]]]}},
        "analysis": {"omega_c": {"omega": 2, "c": [0.5, 0.0]}},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("analyze", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["omega_c"]["defect"] <= 1e-13
    assert not (out / "solution.csv").exists()


def test_analyze_rejects_nan_epsilon(tmp_path):
    data = {"schema_version": 1, "kind": "analyze", "dim": 1,
            "window": [-10, 10], "sequences": {"target": {
                "backend": "constant", "value": [[1.0, 0.0]]}},
            "analysis": {"bohr": {"k_window": [-5, 5], "tau_range": [0, 10],
                                  "L": 2, "epsilon": float("nan")}}}
    cfg = write_config(tmp_path, data)
    res = run_cli("analyze", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2
    assert "apseq: error" in res.stderr and "epsilon" in res.stderr


def test_reduce_order_emits_reduction(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "second_order",
        "dim": 1,
        "window": [-2, 2],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "params": {"p": 2},
        "operators": {
            "A0": {"backend": "constant", "matrix": [[[2.0, 0.0]]]},
            "A1": {"backend": "constant", "matrix": [[[1.0, 0.0]]]},
            "A2": {"backend": "constant", "matrix": [[[1.0, 0.0]]]},
        },
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("reduce-order", "--config", str(cfg), "--out", str(out),
                  "--k", "0")
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "reduction.json").read_text())
    D = np.array([[c[0] + 1j * c[1] for c in row]
                  for row in payload["selection_D"]])
    assert np.array_equal(D.real, np.array([[-0.5, 1.0], [-0.5, 0.0]]))
    A = np.array([[c[0] for c in row] for row in payload["bold_A"]])
    assert np.array_equal(A, np.array([[-2.0, 0.0], [0.0, 1.0]]))


def test_example_heat_and_wave(tmp_path):
    out = tmp_path / "heat"
    res = run_cli("example", "heat", "--n", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["bohr"]["verdict"] is True
    assert max(report["solve"]["max_residual"].values()) <= 1e-9
    assert (out / "grid_solution.csv").exists()

    out2 = tmp_path / "wave"
    res2 = run_cli("example", "wave", "--n", "4", "--out", str(out2),
                   "--window=-10:10")
    assert res2.returncode == 0, res2.stderr
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["analysis"]["omega_c"]["defect"] <= 2e-10


def test_inclusion_with_explicit_selection_and_weyl_analysis(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "inclusion",
        "dim": 1,
        "window": [-8, 8],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {"D": {"backend": "constant", "matrix": [[[0.5, 0.0]]]},
                      "C": [[[1.0, 0.0]]]},
        "forcing": {"backend": "trig_poly",
                    "terms": [{"frequency": 0.0, "coefficient": [[1.0, 0.0]]},
                              {"frequency": 1.0, "coefficient": [[0.5, 0.0]]}]},
        "analysis": {"weyl": {"p": 1, "l": 16, "s_range": [-40, 40],
                              "frequencies": [0.0, 1.0], "fit_N": 400}},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    res = run_cli("solve-inclusion", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["weyl"]["value"] < 0.2  # fitted approximant
    assert report["solve"]["max_residual"]["sup"] <= 4.5e-10


def test_example_heat_builds_its_problem_once(tmp_path, monkeypatch):
    # the Bohr request is part of the config, so one solve covers its hull
    from apseq import cli, discretization
    calls = []
    original = discretization.heat_problem

    def counting(*args, **kwargs):
        calls.append(kwargs.get("window"))
        return original(*args, **kwargs)

    monkeypatch.setattr(discretization, "heat_problem", counting)
    out = tmp_path / "heat"
    assert cli.main(["example", "heat", "--n", "5", "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["bohr"]["verdict"] is True
    assert report["analysis"]["bohr_forcing_defect"] > 0
    assert report["solve"]["window"] == [-190, 230]  # the Bohr scan's hull
    assert read_solution(out)[1] == list(range(-20, 21))  # config window


def test_example_heat_composes_its_selection_once(tmp_path, monkeypatch):
    # heat_problem validates B(k) [A(k)]^{-1}; the solve reuses that product
    from apseq import cli, discretization, resolvent
    calls = []
    original = resolvent.compose_selection

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(resolvent, "compose_selection", counting)
    monkeypatch.setattr(discretization, "compose_selection", counting)
    out = tmp_path / "heat"
    assert cli.main(["example", "heat", "--n", "5", "--out", str(out)]) == 0
    assert len(calls) == 1


def test_example_wave_evaluates_each_certificate_piece_once(tmp_path,
                                                            monkeypatch):
    from apseq import cli, discretization, higher_order
    calls = []
    problems = []
    bound = higher_order.induced_bound
    build = discretization.wave_problem

    def counting(m, sn):
        calls.append(sn.label)
        return bound(m, sn)

    def capture(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(higher_order, "induced_bound", counting)
    monkeypatch.setattr(discretization, "wave_problem", capture)
    assert cli.main(["example", "wave", "--n", "4", "--out",
                     str(tmp_path / "wave")]) == 0
    (problem,) = problems
    evaluated = problem.selection.D._cert_cache
    # three pieces per evaluated (seminorm, k), plus one amplification
    # bound of C per seminorm
    assert len(evaluated) >= 3 * len(problem.probe)
    assert len(calls) == 3 * len(evaluated) + len(problem.family.labels())


def test_example_heat_exits_4_on_failed_bohr_verdict(tmp_path, monkeypatch):
    from apseq import ap_analysis, cli
    check = ap_analysis.bohr_check

    def failing(x, sn, eps, *args):
        rep = check(x, sn, eps, *args)
        if eps != float("inf"):  # the solution's check, not the forcing probe
            rep.verdict = False
        return rep

    monkeypatch.setattr(ap_analysis, "bohr_check", failing)
    out = tmp_path / "heat"
    assert cli.main(["example", "heat", "--n", "3", "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["bohr"]["verdict"] is False
    assert "bohr_forcing_defect" in report["analysis"]
