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
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "apseq.cli", *args],
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


def assert_json_layout(text: str) -> None:
    """One dict entry per line with keys sorted, and every list or scalar
    on its key's line: each line opens or closes a dict or holds an entry
    whole."""
    open_keys: list[list] = []
    for line in text.splitlines():
        body = line.strip().rstrip(",")
        if body == "{":
            open_keys.append([])
        elif body == "}":
            keys = open_keys.pop()
            assert keys == sorted(keys)
        else:
            # '"key": {' opens a dict; anything else is a whole entry
            closed = body + "}" if body.endswith("{") else body
            (key, _), = json.loads("{" + closed + "}").items()
            open_keys[-1].append(key)
            if body.endswith("{"):
                open_keys.append([])
    assert open_keys == []


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
    for i in range(2):
        out = tmp_path / f"out{i}"
        res = run_cli("solve", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for name in ("solution.csv", "report.json", "summary.txt"):
        assert ((outs[1] / name).read_bytes()
                == (outs[0] / name).read_bytes())


def _solve_outputs(tmp_path, cfg, env):
    out = tmp_path / f"out-{env}"
    res = run_cli("solve", "--config", str(cfg), "--out", str(out),
                  env=env and {"APSEQ_THREADS": env})
    assert res.returncode == 0, res.stderr
    return (res.stdout, res.stderr,
            *((out / name).read_bytes() for name in
              ("solution.csv", "report.json", "summary.txt")))


def test_thread_env_var_is_not_read(tmp_path):
    # the solver is sequential: APSEQ_THREADS changes nothing and --threads
    # is not an option
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    assert (_solve_outputs(tmp_path, cfg, "8")
            == _solve_outputs(tmp_path, cfg, None))
    res = run_cli("solve", "--config", str(cfg), "--out",
                  str(tmp_path / "out"), "--threads", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --threads 2" in res.stderr


def test_bad_thread_env_var_is_not_an_input_error(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_FIRST_ORDER)
    assert (_solve_outputs(tmp_path, cfg, "abc")
            == _solve_outputs(tmp_path, cfg, None))


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


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("name", ["heat", "wave"])
def test_example_rejects_a_grid_without_points(tmp_path, name, n):
    # the check comes before heat's Bohr scan of its forcing, which fails
    # on an empty grid
    res = run_cli("example", name, "--n", str(n), "--out", str(tmp_path))
    assert res.returncode == 2
    assert res.stderr.startswith("apseq: error") and f"n={n}" in res.stderr
    assert "Traceback" not in res.stderr


def test_example_heat_evaluates_its_forcing_once_for_the_bohr_check(
        tmp_path, monkeypatch):
    # the forcing's Bohr scan reads one table over what it reads; its
    # defect has the bits of the scan of the lazy forcing
    from apseq import Seminorm, ap_analysis, cli
    from apseq.seq_core import BiSequence
    calls = []
    build = cli.build_sequence

    def recording(desc, dim):
        seq = build(desc, dim)

        def rule(w):
            calls.append((w.start, w.end))
            return seq.window_values(w)
        return BiSequence(seq.dim, rule)

    monkeypatch.setattr(cli, "build_sequence", recording)
    out = tmp_path / "heat"
    assert cli.main(["example", "heat", "--n", "4", "--out", str(out)]) == 0
    assert calls == [(-190, 230)]
    lazy = build(cli.example_config("heat", 4, 1.0, cli.Window(-20, 20),
                                    1e-10)["forcing"], 4)
    want = ap_analysis.bohr_check(lazy, Seminorm.sup(), float("inf"),
                                  (-40, 40), (-150, 150), 40).max_defect
    report = json.loads((out / "report.json").read_text())
    assert report["analysis"]["bohr_forcing_defect"] == want * (1 + 1e-9)


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


@pytest.mark.parametrize("request_name", ["besicovitch", "weyl"])
@pytest.mark.parametrize("frequencies, repeated",
                         [([0.5, 0.5], "0.5"), ([0.0, 0.5, -0.0], "-0.0")])
def test_analyze_rejects_a_repeated_frequency(tmp_path, request_name,
                                              frequencies, repeated):
    # each copy of a repeated frequency would get the full empirical mean:
    # for the target e^{0.5ik}, [0.5, 0.5] fits 2 e^{0.5ik}
    req = ({"l_grid": [64, 128]} if request_name == "besicovitch"
           else {"l": 16, "s_range": [-20, 20]})
    data = {"schema_version": 1, "kind": "analyze", "dim": 1,
            "window": [-10, 10], "seminorms": [{"kind": "sup"}],
            "sequences": {"target": {"backend": "trig_poly", "terms": [
                {"frequency": 0.5, "coefficient": [[1.0, 0.0]]}]}},
            "analysis": {request_name: {**req,
                                        "frequencies": frequencies}}}
    cfg = write_config(tmp_path, data)
    res = run_cli("analyze", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert f"frequency {repeated} is declared more than once" in res.stderr
    assert not (tmp_path / "out" / "report.json").exists()


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
    text = (out / "reduction.json").read_text()
    payload = json.loads(text)
    D = np.array([[c[0] + 1j * c[1] for c in row]
                  for row in payload["selection_D"]])
    assert np.array_equal(D.real, np.array([[-0.5, 1.0], [-0.5, 0.0]]))
    A = np.array([[c[0] for c in row] for row in payload["bold_A"]])
    assert np.array_equal(A, np.array([[-2.0, 0.0], [0.0, 1.0]]))
    # the payload json.dump(indent=2) wrote, signed zeros included
    assert payload == {
        "bold_A": [[[-2.0, -0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "bold_B_next": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "bold_C": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "k": 0, "kind": "reduce_order", "p": 2, "schema_version": 1,
        "selection_D": [[[-0.5, -0.0], [1.0, 0.0]],
                        [[-0.5, -0.0], [0.0, 0.0]]]}
    assert_json_layout(text)


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


def _run_capturing_json(monkeypatch, argv) -> dict:
    """Run the CLI in-process; return the dicts it wrote as JSON, by file
    name."""
    from apseq import cli
    written = {}
    original = cli._write_json

    def capture(path, value):
        written[Path(path).name] = value
        original(path, value)

    monkeypatch.setattr(cli, "_write_json", capture)
    assert cli.main(argv) == 0
    return written


@pytest.mark.parametrize("command", ["solve", "example heat"])
def test_report_layout(tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", "--config",
                str(write_config(tmp_path, MINIMAL_FIRST_ORDER))]
    else:
        argv = ["example", "heat", "--n", "5"]
    report = _run_capturing_json(
        monkeypatch, argv + ["--out", str(out)])["report.json"]
    text = (out / "report.json").read_text()
    # the data json.dump(indent=2, sort_keys=True) writes, in fewer lines,
    # a per-k record written as its list of pairs
    reference = json.dumps(report, indent=2, sort_keys=True, default=list)
    assert json.loads(text) == json.loads(reference)
    assert len(text.splitlines()) < len(reference.splitlines())
    assert_json_layout(text)
    assert "generated_at" not in report and "threads" not in report
    assert report["schema_version"] == 2
    # what the benchmark's oracle reads: [k, value] pairs over the hull
    solve = json.loads(text)["solve"]
    lo, hi = solve["window"]
    for pairs in [solve["truncation_V"], *solve["tail_bounds"].values()]:
        assert all(len(pair) == 2 for pair in pairs)
        ks = [k for k, _ in pairs]
        assert ks == list(range(ks[0], ks[-1] + 1))
        assert ks[0] <= lo and hi < ks[-1]
        if command == "solve":
            assert ks == list(range(-20, 22))
    assert sorted(solve["tail_bounds"]) == (
        ["sup"] if command == "solve" else ["d1", "d2", "sup"])


TRIG2 = {"backend": "trig_poly", "terms": [
    {"frequency": 0.7, "coefficient": [[0.3, 0.1], [-0.2, 0.4]]},
    {"frequency": 0.0, "coefficient": [[0.1, 0.0], [0.05, 0.0]]}]}
PERIODIC2 = {"backend": "periodic", "matrices": [
    [[[0.3, 0.0], [0.1, 0.1]], [[-0.2, 0.0], [0.25, 0.0]]],
    [[[0.1, 0.0], [0.0, -0.3]], [[0.2, 0.0], [-0.4, 0.0]]],
    [[[0.05, 0.0], [0.2, 0.0]], [[0.0, 0.1], [0.3, 0.0]]]]}
BASE2 = {"schema_version": 1, "dim": 2, "window": [-12, 12], "tol": 1e-10,
         "seminorms": [{"kind": "sup"}, {"kind": "p", "p": 1}],
         "forcing": TRIG2}
REPORT_CASES = {
    "solve": {**BASE2, "kind": "first_order",
              "operators": {"A": PERIODIC2}},
    "solve-inclusion": {**BASE2, "kind": "inclusion",
                        "operators": {"D": PERIODIC2},
                        "analysis": {"omega_c": {"omega": 3,
                                                 "c": [1.0, 0.0]}}},
    "solve-degenerate": {**BASE2, "kind": "degenerate_vb", "operators": {
        "B": PERIODIC2, "A": {"backend": "constant",
                              "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [1.0, 0.0]]]}}},
    "solve-p2": {**BASE2, "kind": "second_order", "dim": 1,
                 "seminorms": [{"kind": "sup"}],
                 "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
                 "operators": {
                     "A0": {"backend": "constant", "matrix": [[[4.0, 0.0]]]},
                     "A1": {"backend": "constant", "matrix": [[[0.1, 0.0]]]},
                     "A2": {"backend": "constant",
                            "matrix": [[[0.1, 0.0]]]}}},
    "analyze": {**BASE2, "kind": "analyze", "sequences": {"target": TRIG2},
                "analysis": {
                    "bohr": {"k_window": [-30, 30], "tau_range": [-5, 40],
                             "L": 10, "epsilon": 0.5},
                    "weyl": {"l": 16, "s_range": [-20, 20],
                             "frequencies": [0.7]},
                    "besicovitch": {"l_grid": [8, 16, 32],
                                    "frequencies": [0.7, 0.0]}}},
}


@pytest.mark.parametrize("case", [*REPORT_CASES, "example heat",
                                  "example wave"])
def test_report_bytes_equal_the_reference_writer(tmp_path, monkeypatch,
                                                 case):
    # the per-k records go through their vector kernel; the whole file is
    # the one the list-by-list writer gives
    from conftest import reference_json_text
    out = tmp_path / "out"
    if case.startswith("example"):
        argv = case.split() + ["--n", "5"]
    else:
        argv = [case, "--config",
                str(write_config(tmp_path, REPORT_CASES[case]))]
    report = _run_capturing_json(
        monkeypatch, argv + ["--out", str(out)])["report.json"]
    assert (out / "report.json").read_text() == (
        reference_json_text(report) + "\n")
    if case != "analyze":
        assert len(report["solve"]["truncation_V"]) > 20


def test_grid_solution_csv_bytes(tmp_path):
    # one line per (k, component), FLOAT_FMT fields and '\n' line ends, as
    # the element-by-element writer this reference keeps
    from apseq.seq_core import FLOAT_FMT
    out = tmp_path / "heat"
    res = run_cli("example", "heat", "--n", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, ks, vals = read_solution(out)
    expected = ["k,idx,re,im\n"]
    for k, row in zip(ks, vals):
        for j in range(5):
            expected.append(f"{k},{j},{FLOAT_FMT.format(row[2 * j])},"
                            f"{FLOAT_FMT.format(row[2 * j + 1])}\n")
    assert (out / "grid_solution.csv").read_bytes() == "".join(
        expected).encode()


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


def _wave_derivations(monkeypatch, argv):
    """Run the CLI on a wave problem; return the problem it built and, per
    seminorm label, how many matrices a lifted-family bound was taken of."""
    from collections import Counter

    from apseq import cli, discretization, operator_model
    counts = Counter()
    problems = []
    bound = operator_model.induced_bound
    build = discretization.wave_problem

    def counting(m, sn):
        if sn.kind == "block_sum":
            counts[sn.label] += 1 if np.ndim(m) == 2 else len(m)
        return bound(m, sn)

    def capture(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(operator_model, "induced_bound", counting)
    monkeypatch.setattr(discretization, "wave_problem", capture)
    assert cli.main(argv) == 0
    (problem,) = problems
    return problem, counts


def test_example_wave_derives_each_certificate_once(tmp_path, monkeypatch):
    problem, counts = _wave_derivations(
        monkeypatch, ["example", "wave", "--n", "4", "--out",
                      str(tmp_path / "wave")])
    evaluated = problem.D._cert_cache
    labels = problem.family.labels()
    # constant data give a constant selection: one certificate per
    # seminorm, derived once from its one matrix
    assert problem.D.backend == "constant"
    assert list(evaluated) == [0] and sorted(evaluated[0]) == sorted(labels)
    assert counts == {lbl: 1 for lbl in labels}


def test_wave_varying_multiplier_derives_each_certificate_once(
        tmp_path, monkeypatch):
    from apseq import cli
    from apseq.seq_core import Window
    data = cli.example_config("wave", 4, 1.0, Window(-20, 20), 1e-10)
    # m1(k) = 0.05 + 0.01 cos k makes the selection a generator
    data["sequences"]["m1"] = {"backend": "trig_poly", "terms": [
        {"frequency": 0.0, "coefficient": [[0.05, 0.0]]},
        {"frequency": 1.0, "coefficient": [[0.005, 0.0]]},
        {"frequency": -1.0, "coefficient": [[0.005, 0.0]]}]}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(data))
    seen = _rule_reads(monkeypatch)
    problem, counts = _wave_derivations(
        monkeypatch, ["solve-p2", "--config", str(path), "--out",
                      str(tmp_path / "wave")])
    evaluated = problem.D._cert_cache
    assert problem.D.backend == "generator"
    # every (seminorm, k) of the gate window [-21, 22] around the window
    # [-20, 20] is derived, and each derived (seminorm, k) exactly once
    assert set(range(-21, 23)) <= set(evaluated)
    assert counts == {lbl: len(evaluated)
                      for lbl in problem.D.labels()}
    # A1 is evaluated once, for the selection's rule, and the residual
    # reads what it cached; each generator's rule sees each k once
    assert set(seen) == {problem.A1, problem.D}
    assert all(max(c.values()) == 1 for c in seen.values())
    assert [sum(seen[s].values()) for s in (problem.A1, problem.D)] == [66, 66]


def _rule_reads(monkeypatch):
    """Per generator, how often its window rule is evaluated at each k."""
    from collections import Counter, defaultdict

    from apseq.operator_model import OperatorSequence
    seen = defaultdict(Counter)
    rule = OperatorSequence._rule

    def counting(seq, w):
        seen[seq].update(w)
        return rule(seq, w)

    monkeypatch.setattr(OperatorSequence, "_rule", counting)
    return seen


def test_example_heat_evaluates_each_generator_once_and_keeps_no_resolvent(
        tmp_path, monkeypatch):
    # each generator's rule sees each k once; Ainv_C = (L - b(k) I)^{-1},
    # which only the rule of D = B Ainv_C reads, caches none of its
    # matrices, while D and A, which the solve reads directly, cache theirs
    from apseq import cli, discretization
    seen = _rule_reads(monkeypatch)
    problems = []
    build = discretization.heat_problem

    def capture(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(discretization, "heat_problem", capture)
    assert cli.main(["example", "heat", "--n", "32", "--out",
                     str(tmp_path / "heat")]) == 0
    (problem,) = problems
    assert set(seen) == {problem.A, problem.Ainv_C, problem.D}
    assert all(max(c.values()) == 1 for c in seen.values())
    assert [sum(seen[s].values()) for s in (problem.A, problem.Ainv_C,
                                            problem.D)] == [442, 442, 442]
    assert problem.Ainv_C._mat_cache == {}
    assert len(problem.A._mat_cache) == 442
    assert len(problem.D._mat_cache) == 442


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


SCALED_CONSTANT = {
    "schema_version": 1,
    "kind": "first_order",
    "dim": 2,
    "window": [-15, 15],
    "tol": 1e-10,
    "seminorms": [{"kind": "sup"}, {"kind": "p", "p": 1}],
    # A(k) = (0.6 + 0.3i e^{1.3ik}) M with |c| summing to 0.9
    "operators": {"A": {"backend": "scaled_constant",
                        "matrix": [[[0.3, 0.0], [0.1, 0.1]],
                                   [[-0.2, 0.0], [0.25, 0.0]]],
                        "scale": [{"frequency": 0.0,
                                   "coefficient": [0.6, 0.0]},
                                  {"frequency": 1.3,
                                   "coefficient": [0.0, 0.3]}]}},
    "forcing": {"backend": "trig_poly", "terms": [
        {"frequency": 0.7, "coefficient": [[1.0, 0.0], [0.0, -0.5]]}]},
}


def _solve_scaled_constant(tmp_path):
    from apseq import cli
    cfg = write_config(tmp_path, SCALED_CONSTANT)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out, json.loads((out / "report.json").read_text())["solve"]


def test_scaled_constant_solves_within_tol(tmp_path):
    _, _, rep = _solve_scaled_constant(tmp_path)
    assert max(rep["max_residual"].values()) <= SCALED_CONSTANT["tol"]


def test_scaled_constant_matches_forward_oracle_within_tail(tmp_path):
    from apseq import forward_oracle, read_csv
    cfg_path, out, rep = _solve_scaled_constant(tmp_path)
    cfg = ScenarioConfig.load(cfg_path)
    A, f = cfg.operator("A"), cfg.sequence(cfg.forcing)
    # run-in of 80 steps: 0.45^80 sup f / (1 - 0.45) is far below 1e-20
    w = (-15, 15)
    oracle = forward_oracle(A, f, -95, np.zeros(2), w).window_values(w)
    x = read_csv(out / "solution.csv").window_values(w)
    err = np.abs(x - oracle).max(axis=1)
    tails = dict((k, b) for k, b in rep["tail_bounds"]["sup"])
    allow = np.array([tails[k] for k in range(-15, 16)]) + 1e-13
    assert (err <= allow).all()


def test_scaled_constant_declares_a_global_sup(tmp_path):
    _, _, rep = _solve_scaled_constant(tmp_path)
    assert rep["uniqueness"] == "certified" and rep["sup_probe"] is None
    # sum |c_j| times the base bound: row sums 0.3 + 0.1414.., column sums
    # 0.5 + 0.1414..
    base = np.array([[0.3, 0.1 + 0.1j], [-0.2, 0.25]])
    assert rep["sup_certificates"]["sup"] == pytest.approx(
        0.9 * np.abs(base).sum(axis=1).max(), rel=1e-15)
    assert rep["sup_certificates"]["l1"] == pytest.approx(
        0.9 * np.abs(base).sum(axis=0).max(), rel=1e-15)


def test_scaled_constant_matrices_are_the_per_k_products_byte_for_byte():
    # the window rule stacks scale(k) * M formed k by k, with each k's
    # scalar np.exp, over a window across CERT_BLOCK runs
    from apseq.config import cmat, cnum
    from apseq.seq_core import Window
    desc = SCALED_CONSTANT["operators"]["A"]
    A = ScenarioConfig.from_dict(SCALED_CONSTANT).operator("A")
    M = cmat(desc["matrix"])

    def scale(k):
        return sum(cnum(t["coefficient"]) * np.exp(1j * t["frequency"] * k)
                   for t in desc["scale"])

    w = Window(-70, 70)
    want = np.stack([scale(k) * M for k in w])
    got = A.matrices(w)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert A.matrix(200).tobytes() == (scale(200) * M).tobytes()


def _omega_c_run(tmp_path, data, subcommand, omega):
    # an (omega, c) check reads the solution omega steps right of the
    # window, which the solve's table must cover
    from apseq import cli
    data = dict(data, analysis={"omega_c": {"omega": omega, "c": [1.0, 0.0]}})
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["analysis"]


def test_heat_config_pads_its_table_for_the_omega_c_check(tmp_path):
    from apseq.cli import example_config
    from apseq.seq_core import Window
    data = example_config("heat", 5, 1.0, Window(-10, 10), 1e-10)
    analysis = _omega_c_run(tmp_path, data, "solve-degenerate", 3)
    assert analysis["omega_c"]["omega"] == 3


def test_wave_config_pads_its_table_for_the_omega_c_check(tmp_path):
    from apseq.cli import example_config
    from apseq.seq_core import Window
    data = example_config("wave", 5, 1.0, Window(-10, 10), 1e-10)
    # constant data: the solution is constant, so any period fits
    analysis = _omega_c_run(tmp_path, data, "solve-p2", 3)
    assert analysis["omega_c"]["defect"] <= 2e-10


def test_second_order_config_pads_its_table_for_the_omega_c_check(tmp_path):
    data = {
        "schema_version": 1,
        "kind": "second_order",
        "dim": 1,
        "window": [-7, 7],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {
            "A0": {"backend": "constant", "matrix": [[[4.0, 0.0]]]},
            "A1": {"backend": "constant", "matrix": [[[0.1, 0.0]]]},
            "A2": {"backend": "constant", "matrix": [[[0.1, 0.0]]]},
        },
        "forcing": {"backend": "constant", "value": [[1.0, 0.0]]},
    }
    analysis = _omega_c_run(tmp_path, data, "solve-p2", 4)
    assert analysis["omega_c"]["defect"] <= 1e-12


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_solve_window_reaches_one_k_short_of_the_omega_c_read(tmp_path,
                                                              omega):
    # the check reads x on [start, end + omega]; the solve covers
    # [start, end + omega - 1] and its table the k past that, which its
    # residual reads, and the written solution is that of the same config
    # without the request
    from apseq import cli
    data = {
        **MINIMAL_FIRST_ORDER,
        "operators": {"A": {"backend": "periodic",
                            "matrices": [[[[0.5, 0.1]]], [[[0.3, -0.2]]]]}},
        "forcing": {"backend": "trig_poly",
                    "terms": [{"frequency": 1.0, "coefficient": [[1.0, 0.5]]},
                              {"frequency": 0.0, "coefficient": [[0.2, 0.0]]}]},
    }
    outs = []
    for name, extra in (("plain", {}), ("checked", {"analysis": {
            "omega_c": {"omega": omega, "c": [1.0, 0.0]}}})):
        cfg = write_config(tmp_path, {**data, **extra}, f"{name}.json")
        outs.append(tmp_path / name)
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(outs[-1])]) == 0
    report = json.loads((outs[1] / "report.json").read_text())
    assert report["solve"]["window"] == [-20, 20 + omega - 1]
    assert ((outs[1] / "solution.csv").read_bytes()
            == (outs[0] / "solution.csv").read_bytes())


def test_inclusion_growth_warning_reaches_the_report(tmp_path):
    # f(k) = 1.5^(k div 5) grows toward +inf, where the backward series
    # reads it
    from apseq import cli
    data = {
        "schema_version": 1,
        "kind": "inclusion",
        "dim": 1,
        "window": [-10, 10],
        "tol": 1e-10,
        "seminorms": [{"kind": "sup"}],
        "operators": {"D": {"backend": "constant", "matrix": [[[0.5, 0.0]]]}},
        "forcing": {"backend": "omega_c", "base": [[[1.0, 0.0]]] * 5,
                    "omega": 5, "c": [1.5, 0.0]},
    }
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["solve-inclusion", "--config", str(cfg), "--out",
                     str(out)]) == 0
    warning = ("forcing grows toward +inf on the probe window; tail bounds "
               "assume the probed sup extends further right")
    report = json.loads((out / "report.json").read_text())
    assert report["solve"]["warnings"] == [warning]
    assert "inner" not in report["solve"]
    assert f"warning: {warning}" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("p", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_p_seminorm_needs_a_finite_exponent(tmp_path, capsys, p):
    # at p = inf every value of (sum_i |x_i|^p)^(1/p) is 1: the solve read
    # a residual of 1 at tol 1e-10 and still certified uniqueness
    from apseq import cli
    cfg = write_config(tmp_path, {**MINIMAL_FIRST_ORDER,
                                  "seminorms": [{"kind": "p", "p": p}]})
    assert cli.main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert "finite p >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["nan", "inf"])
@pytest.mark.parametrize("name", ["heat", "wave"])
def test_grid_spacing_must_be_finite(tmp_path, capsys, name, h):
    # h = inf made an all-zero Laplacian; h = nan failed in the solve
    from apseq import cli
    from apseq.seq_core import Window
    assert cli.main(["example", name, "--h", h, "--out",
                     str(tmp_path / "example")]) == 2
    cfg = write_config(tmp_path, cli.example_config(
        name, 5, float(h), Window(-10, 10), 1e-10))
    command = {"heat": "solve-degenerate", "wave": "solve-p2"}[name]
    assert cli.main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "config")]) == 2
    err = capsys.readouterr().err
    assert err.count("grid spacing must be a finite number > 0") == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name,field,value", [
    (name, "b", b) for name in ("heat", "wave")
    for b in ([NAN, 0.0], [INF, 0.0], [NAN, 1.0], [3.0, INF])] + [
    ("heat", "m", [NAN, 0.0]), ("wave", "m1", [NAN, 0.0]),
    ("wave", "m2", [NAN, 0.0])])
def test_grid_coefficients_must_be_finite(tmp_path, capsys, name, field,
                                          value):
    # heat failed its certificate sups (exit 3; b = inf warned first) or
    # its SVD (m = nan, exit 4), and wave its SVD or its sups
    import warnings
    from apseq import cli
    from apseq.seq_core import Window
    data = cli.example_config(name, 5, 1.0, Window(-10, 10), 1e-10)
    data["sequences"][field] = {"backend": "constant", "value": [value]}
    command = {"heat": "solve-degenerate", "wave": "solve-p2"}[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config",
                         str(write_config(tmp_path, data)), "--out",
                         str(tmp_path / "out")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert f" {field}(0) " in err and "is not finite" in err, err


@pytest.mark.parametrize("h", ["1e-160", "1e200"])
@pytest.mark.parametrize("name", ["heat", "wave"])
def test_grid_spacing_must_keep_the_laplacian_finite_and_nonzero(
        tmp_path, name, h):
    # 1/h^2 overflowed at h = 1e-160 (heat then failed its certificate
    # sups with a RuntimeWarning, wave its SVD) and rounded to zero at
    # h = 1e200, which solved with an all-zero Laplacian
    res = run_cli("example", name, "--n", "3", "--h", h, "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr == (f"apseq: error: grid spacing h = {float(h)} is out "
                          f"of range: the Laplacian's entries 1/h^2 and "
                          f"-2/h^2 must be finite and nonzero\n")


@pytest.mark.parametrize("name,n", [("heat", 8), ("wave", 12)])
def test_grid_examples_read_no_sequence_k_by_k(tmp_path, monkeypatch, name,
                                               n):
    # every solver layer reads its sequences a window at a time
    from apseq import cli
    from apseq.seq_core import BiSequence
    calls = []
    original = BiSequence.__call__
    monkeypatch.setattr(BiSequence, "__call__",
                        lambda self, k: calls.append(k) or original(self, k))
    assert cli.main(["example", name, "--n", str(n), "--out",
                     str(tmp_path / name)]) == 0
    assert calls == []


@pytest.mark.parametrize("operator", [
    {"backend": "constant", "matrix": [[[0.5, 0.0]]]},
    {"backend": "periodic", "matrices": [[[[0.5, 0.0]]], [[[0.25, 0.0]]]]}],
    ids=["constant", "periodic"])
@pytest.mark.parametrize("kind,name", [("first_order", "A"),
                                       ("inclusion", "D")])
def test_operator_dimension_must_match_the_config(tmp_path, capsys, operator,
                                                  kind, name):
    # a 1x1 operator in a dim 2 config solved as a 1-component problem
    from apseq import cli
    cfg = write_config(tmp_path, {
        **MINIMAL_FIRST_ORDER, "kind": kind, "dim": 2,
        "operators": {name: operator}})
    command = {"first_order": "solve", "inclusion": "solve-inclusion"}[kind]
    assert cli.main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert "expected dimension 2, got 1" in capsys.readouterr().err


def test_forcing_sup_overflow_is_an_input_error(tmp_path, capsys):
    # finite values whose l1 sup overflows made log(tol / inf) fail
    from apseq import cli
    cfg = write_config(tmp_path, {
        **MINIMAL_FIRST_ORDER, "dim": 2,
        "seminorms": [{"kind": "sup"}, {"kind": "p", "p": 1}],
        "operators": {"A": {"backend": "constant",
                            "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.5, 0.0]]]}},
        "forcing": {"backend": "constant",
                    "value": [[1.5e308, 0.0], [1.5e308, 0.0]]}})
    assert cli.main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert "forcing has non-finite l1 sup" in capsys.readouterr().err


@pytest.mark.parametrize("p", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("analysis", [
    {"weyl": {"l": 8, "s_range": [-10, 10]}},
    {"besicovitch": {"l_grid": [8, 16]}}], ids=["weyl", "besicovitch"])
def test_ap_distances_need_a_finite_exponent(tmp_path, capsys, analysis, p):
    # NaN gave a NaN distance, and inf a zero Weyl value and an inf limsup
    from apseq import cli
    (name, req), = analysis.items()
    cfg = write_config(tmp_path, {
        "schema_version": 1, "kind": "analyze", "dim": 1,
        "window": [-10, 10], "seminorms": [{"kind": "sup"}],
        "sequences": {"target": {"backend": "constant",
                                 "value": [[1.0, 0.0]]}},
        "analysis": {name: {**req, "p": p}}})
    assert cli.main(["analyze", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert "exponent p must be a finite number >= 1" in capsys.readouterr().err


SINGULAR = {"backend": "scaled_constant",
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "scale": [{"frequency": 0.0, "coefficient": [1.0, 0.0]},
                      {"frequency": 1.3, "coefficient": [0.0, 0.3]}]}
GOOD = {"backend": "constant",
        "matrix": [[[2.0, 0.0], [0.3, 0.0]], [[-0.1, 0.0], [2.5, 0.0]]]}
SMALL = {"backend": "constant",
         "matrix": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]}
TWO_DIM = {**MINIMAL_FIRST_ORDER, "dim": 2, "window": [-5, 5],
           "forcing": {"backend": "constant",
                       "value": [[1.0, 0.0], [-0.5, 0.0]]}}


@pytest.mark.parametrize("command,data,message", [
    ("solve-inclusion", {"kind": "inclusion", "operators": {"A": SINGULAR}},
     "A(-6)"),
    ("solve-inclusion",
     {"kind": "inclusion", "operators": {"A": {
         "backend": "periodic", "matrices": [GOOD["matrix"]] * 2
         + [SINGULAR["matrix"], GOOD["matrix"]]}}}, "A(2)"),
    ("solve-degenerate",
     {"kind": "degenerate_vb1", "operators": {"A": SINGULAR, "B": SMALL},
      "sequences": {"g": {"backend": "constant",
                          "value": [[0.1, 0.0], [-0.05, 0.0]]}}}, "A(-6)"),
    ("solve-p2",
     {"kind": "second_order", "window": [-12, 12],
      "operators": {"A0": SINGULAR, "A1": SMALL, "A2": SMALL}}, "A0(-13)"),
    ("solve-p2",
     {"kind": "second_order",
      "operators": {"A0": {"backend": "periodic",
                           "matrices": [GOOD["matrix"], SINGULAR["matrix"]]},
                    "A1": SMALL, "A2": SMALL}}, "A0(1)")],
    ids=["inclusion-generator", "inclusion-periodic", "vb1-generator",
         "second-order-generator", "second-order-periodic"])
def test_singular_derived_inverse_names_its_first_k(tmp_path, capsys,
                                                    command, data, message):
    # the first k the solve reads, or the residue of a periodic operator
    from apseq import cli
    cfg = write_config(tmp_path, {**TWO_DIM, **data})
    assert cli.main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == (
        f"apseq: error: {message} has condition estimate inf above 1.0e+12; "
        f"refusing the dense solve\n")


BOHR_REQUEST = {"k_window": [-4, 4], "tau_range": [0, 6], "L": 2,
                "epsilon": 0.1}


@pytest.mark.parametrize("request_,message", [
    ({k: v for k, v in BOHR_REQUEST.items() if k != "epsilon"},
     "analysis descriptor is malformed: KeyError('epsilon')"),
    ({**BOHR_REQUEST, "seminorm": "nope"}, "no seminorm labeled 'nope'"),
    ({**BOHR_REQUEST, "L": 2.5}, "bohr L must be an integer, got 2.5"),
    (BOHR_REQUEST, None)],
    ids=["no-epsilon", "unknown-seminorm", "fractional-L", "well-formed"])
def test_malformed_analysis_request_exits_2_before_the_solve(
        tmp_path, capsys, monkeypatch, request_, message):
    from apseq import cli
    calls = []
    solve = cli.solve_series

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_series", counted)
    data = {**MINIMAL_FIRST_ORDER, "window": [-8, 8],
            "analysis": {"bohr": request_}}
    code = cli.main(["solve", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "out")])
    if message is None:
        assert code == 0 and len(calls) == 1
        return
    assert code == 2 and calls == []
    assert capsys.readouterr().err == f"apseq: error: {message}\n"


@pytest.mark.parametrize("tau_range", [[5, 10], [-30, -25]],
                         ids=["right", "left"])
def test_bohr_scan_with_tau_range_excluding_zero(tmp_path, tau_range):
    # the solve's table must cover k_window itself as well as its shifts
    data = {**MINIMAL_FIRST_ORDER, "window": [-5, 5],
            "forcing": {"backend": "trig_poly", "terms": [
                {"frequency": 1.0, "coefficient": [[1.0, 0.5]]},
                {"frequency": 0.0, "coefficient": [[0.2, 0.0]]}]},
            "analysis": {"bohr": {"k_window": [-20, 20],
                                  "tau_range": tau_range, "L": 3,
                                  "epsilon": 10.0}}}
    out = tmp_path / "out"
    res = run_cli("solve", "--config", str(write_config(tmp_path, data)),
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    bohr = json.loads((out / "report.json").read_text())["analysis"]["bohr"]
    assert bohr["tau_range"] == tau_range and bohr["verdict"] is True
    # x is the bounded solution, so its Bohr defects are those of the
    # series on the whole k_window
    from apseq import Seminorm, bohr_check
    from apseq.first_order import solve_series
    cfg = ScenarioConfig.from_dict(data)
    x, _ = solve_series(cfg.operator("A", family=cfg.family()),
                        cfg.sequence(cfg.forcing), (-60, 60))
    ref = bohr_check(x, Seminorm.sup(), 10.0, (-20, 20), tau_range, 3)
    assert abs(bohr["max_defect"] - ref.max_defect) <= 1e-9


OVERFLOW = {**MINIMAL_FIRST_ORDER, "dim": 2,
            "operators": {"A": {"backend": "constant",
                                "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [0.5, 0.0]]]}},
            "forcing": {"backend": "constant",
                        "value": [[1.5e308, 0.0], [1.5e308, 0.0]]}}


def test_overflowing_solution_is_a_numeric_failure(tmp_path, capsys):
    # finite forcing and sups whose solution overflows was reported
    # certified with a solution of nan; in-process, any RuntimeWarning fails
    from apseq import cli
    cfg = write_config(tmp_path, OVERFLOW)
    assert cli.main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == (
        "apseq: error: the series solution overflows at k=-20\n")
    res = run_cli("solve", "--config", str(cfg), "--out",
                  str(tmp_path / "out2"))
    assert res.returncode == 4
    assert res.stderr == "apseq: error: the series solution overflows at k=-20\n"
    assert not (tmp_path / "out2" / "summary.txt").exists()


def test_overflowing_tail_bound_is_a_numeric_failure(tmp_path, capsys):
    # s/(1-s) * sup f above the float max made log(tol / inf) fail
    from apseq import cli
    cfg = write_config(tmp_path, {**OVERFLOW, "operators": {"A": {
        "backend": "constant", "matrix": [[[0.9, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.9, 0.0]]]}}})
    assert cli.main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 4
    assert "tail bound" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    (["example", "heat", "--n", "3"], ["--config", "cfg.json"]),
    (["reduce-order"], ["--tol", "1e-3"]),
    (["reduce-order"], ["--window=-50:50"])],
    ids=["example-config", "reduce-order-tol", "reduce-order-window"])
def test_subcommands_take_only_the_options_they_read(tmp_path, capsys,
                                                     command, extra):
    from apseq import cli
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--out", str(tmp_path / "out"), *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ANALYZE = {"schema_version": 1, "kind": "analyze", "dim": 1,
           "window": [-10, 10], "seminorms": [{"kind": "sup"}],
           "sequences": {"target": {"backend": "constant",
                                    "value": [[1.0, 0.0]]}}}
BOHR = {"epsilon": 0.1, "k_window": [-5, 5], "tau_range": [0, 10], "L": 4}
WEYL = {"l": 8, "s_range": [-10, 10]}


@pytest.mark.parametrize("base,patch,message", [
    ("solve", {"window": [-5.7, 5.2]}, "window start must be an integer, "
                                       "got -5.7"),
    ("solve", {"window": [-5, True]}, "window end must be an integer, "
                                      "got True"),
    ("solve", {"dim": 1.9}, "dim descriptor must be an integer, got 1.9"),
    ("solve", {"dim": True}, "dim descriptor must be an integer, got True"),
    ("heat", {"params": {"n": 4.7}},
     "params descriptor 'n' must be an integer, got 4.7"),
    ("reduce-order", {"params": {"p": 2.5}},
     "params descriptor 'p' must be an integer, got 2.5"),
    ("solve", {"forcing": {"backend": "table", "start": -0.5, "extend": "zero",
                           "values": [[[1.0, 0.0]]]}},
     "table start must be an integer, got -0.5"),
    ("solve", {"forcing": {"backend": "spike", "k": 2.5,
                           "value": [[1.0, 0.0]]}},
     "spike k must be an integer, got 2.5"),
    ("solve", {"forcing": {"backend": "omega_c", "omega": 2.5, "c": [1.0, 0.0],
                           "base": [[[1.0, 0.0]], [[2.0, 0.0]]]}},
     "omega_c omega must be an integer, got 2.5"),
    ("solve", {"analysis": {"omega_c": {"omega": 1.5, "c": [1.0, 0.0]}}},
     "omega_c omega must be an integer, got 1.5"),
    ("analyze", {"bohr": {**BOHR, "L": 4.5}}, "bohr L must be an integer"),
    ("analyze", {"bohr": {**BOHR, "k_window": [-5.5, 5]}},
     "bohr k_window start must be an integer, got -5.5"),
    ("analyze", {"bohr": {**BOHR, "tau_range": [0, 10.5]}},
     "bohr tau_range end must be an integer, got 10.5"),
    ("analyze", {"weyl": {**WEYL, "l": 8.5}}, "weyl l must be an integer"),
    ("analyze", {"weyl": {**WEYL, "s_range": [-10, 10.5]}},
     "weyl s_range end must be an integer, got 10.5"),
    ("analyze", {"weyl": {**WEYL, "fit_N": 32.5}},
     "weyl fit_N must be an integer, got 32.5"),
    ("analyze", {"besicovitch": {"l_grid": [8, 16.5]}},
     "besicovitch l_grid must be an integer, got 16.5")],
    ids=["window-start", "window-end-bool", "dim", "dim-bool", "heat-n",
         "reduce-order-p", "table-start", "spike-k", "omega_c-backend-omega",
         "omega_c-omega", "bohr-L", "bohr-k_window", "bohr-tau_range",
         "weyl-l", "weyl-s_range", "weyl-fit_N", "besicovitch-l_grid"])
def test_integer_fields_reject_non_integral_values(tmp_path, capsys, base,
                                                   patch, message):
    # each of these was truncated by int() and solved: the window
    # [-5.7, 5.2] on [-5, 5], [-5, true] on [-5, 1], dim 1.9 as 1
    from apseq import cli
    from apseq.seq_core import Window
    if base == "heat":
        data = {**cli.example_config("heat", 4, 1.0, Window(-5, 5), 1e-10),
                **patch}
        command = "solve-degenerate"
    elif base == "reduce-order":
        data = {**TWO_DIM, "kind": "second_order", **patch,
                "operators": {"A0": GOOD, "A1": SMALL, "A2": SMALL}}
        command = "reduce-order"
    elif base == "analyze":
        data, command = {**ANALYZE, "analysis": patch}, "analyze"
    else:
        data, command = {**MINIMAL_FIRST_ORDER, **patch}, "solve"
    cfg = write_config(tmp_path, data)
    assert cli.main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def _scaled(frequency, coefficient):
    return {"operators": {"A": {
        "backend": "scaled_constant", "matrix": [[[0.5, 0.0]]],
        "scale": [{"frequency": frequency, "coefficient": coefficient}]}}}


DEGENERATE = {**MINIMAL_FIRST_ORDER, "kind": "degenerate_vb", "operators": {
    "B": {"backend": "constant", "matrix": [[[0.4, 0.0]]]},
    "A": {"backend": "constant", "matrix": [[[1.0, 0.0]]]}}}


@pytest.mark.parametrize("command,data,message", [
    ("solve", {"operators": {"A": {"backend": "constant",
                                   "matrix": [[[NAN, 0.0]]]}}},
     "operators.A descriptor with backend 'constant': matrix has a "
     "non-finite value"),
    ("solve", {"operators": {"A": {"backend": "constant",
                                   "matrix": [[[INF, 0.0]]]}}},
     "operators.A descriptor with backend 'constant': matrix has a "
     "non-finite value"),
    ("solve", {"operators": {"A": {"backend": "periodic", "matrices": [
        [[[0.5, 0.0]]], [[[0.5, INF]]]]}}},
     "operators.A descriptor with backend 'periodic': matrices[1] has a "
     "non-finite value"),
    ("solve-degenerate", {**DEGENERATE, "operators": {
        **DEGENERATE["operators"], "C": [[[NAN, 0.0]]]}},
     "operators.C descriptor has a non-finite value"),
    ("solve", _scaled(NAN, [0.5, 0.0]),
     "operators.A descriptor with backend 'scaled_constant': scale has a "
     "non-finite value"),
    ("solve", _scaled(0.0, [INF, 0.0]),
     "'scaled_constant': scale has a non-finite value"),
    ("analyze", {**ANALYZE, "analysis": {"weyl": {**WEYL,
                                                  "frequencies": [NAN]}}},
     "trig polynomial frequency nan is not finite"),
    ("analyze", {**ANALYZE, "analysis": {"omega_c": {"omega": 2,
                                                     "c": [NAN, 0.0]}}},
     "c must be finite and nonzero, got (nan+0j)"),
    ("analyze", {**ANALYZE, "sequences": {"target": {
        "backend": "trig_poly",
        "terms": [{"frequency": NAN, "coefficient": [[1.0, 0.0]]}]}},
        "analysis": {"bohr": BOHR}},
     "trig polynomial frequency nan is not finite")],
    ids=["constant-nan", "constant-inf", "periodic-inf", "C-nan",
         "scale-frequency-nan", "scale-coefficient-inf", "weyl-frequency",
         "omega_c-c", "trig-target-frequency"])
def test_non_finite_operator_data_and_analysis_parameters_exit_2(
        tmp_path, command, data, message):
    # each exited 3 (operators) or wrote NaN results with exit 0 (analysis)
    base = ANALYZE if command == "analyze" else MINIMAL_FIRST_ORDER
    cfg = write_config(tmp_path, {**base, **data})
    res = run_cli(command, "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert message in res.stderr


HUGE = 1e308
HUGE_TRIG = {"backend": "trig_poly",
             "terms": [{"frequency": HUGE, "coefficient": [[1.0, 0.0]]}]}


@pytest.mark.parametrize("command,data", [
    ("solve", {"forcing": HUGE_TRIG}),
    ("analyze", {**ANALYZE, "sequences": {"target": HUGE_TRIG},
                 "analysis": {"bohr": BOHR}}),
    ("solve", _scaled(HUGE, [0.5, 0.0])),
    ("analyze", {**ANALYZE, "analysis": {"weyl": {**WEYL,
                                                  "frequencies": [HUGE]}}})],
    ids=["forcing", "analyze-target", "scaled_constant", "weyl-frequency"])
def test_overflowing_frequency_exits_2_naming_it(tmp_path, command, data):
    # a finite frequency whose phase frequency * k overflows on the window
    # read: these exited 2 or 3 with a RuntimeWarning, or 1 under
    # -W error::RuntimeWarning, which run_cli sets
    base = ANALYZE if command == "analyze" else MINIMAL_FIRST_ORDER
    cfg = write_config(tmp_path, {**base, **data})
    res = run_cli(command, "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert "trig polynomial frequency 1e+308 overflows at k = " in res.stderr
    assert "Warning" not in res.stderr
