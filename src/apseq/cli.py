"""Command-line front end: scenario dispatch and artifact emission.

Subcommands: solve, solve-inclusion, solve-degenerate, solve-p2,
reduce-order, analyze, example.  Each consumes a JSON scenario config
(see config.py) and writes solution CSV, report JSON and a short text
summary into --out.  Exit codes: 0 success, 2 input-contract error,
3 convergence-precondition failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ap_analysis, discretization
from .config import (ScenarioConfig, _descriptor, build_sequence, cmat, cnum,
                     cpair, finite, mat_out)
from .errors import ApseqError, InputContractError
from .first_order import solve_series
from .higher_order import (build_companion, build_B_from_D,
                           companion_selection, solve_second_order)
from .operator_model import OperatorSequence, as_matrix, checked_solve
from .resolvent import (inverse_selection, solve_degenerate_vb,
                        solve_degenerate_vb1, solve_inclusion)
from .seq_core import (BiSequence, PerK, PhaseTable, Seminorm,
                       SeminormFamily, Window, as_int, as_window, write_csv,
                       write_grid_csv)

SUBCOMMAND_KINDS = {
    "solve": ("first_order",),
    "solve-inclusion": ("inclusion",),
    "solve-degenerate": ("degenerate_vb", "degenerate_vb1", "system_bm",
                         "heat"),
    "solve-p2": ("second_order", "wave"),
    "analyze": ("analyze",),
}


#: fit_N of a Weyl request that declares none
WEYL_FIT_N = 256


def _request_window(req: dict, name: str, key: str) -> Window:
    """req[key] as a Window; an error names its bound "{name} {key} end"."""
    w = req[key]
    return Window(as_int(w[0], f"{name} {key} start"),
                  as_int(w[1], f"{name} {key} end"))


def _requests(cfg: ScenarioConfig, family: SeminormFamily) -> dict:
    """The analysis requests with every field parsed and each seminorm
    label looked up in ``family`` (default its first), so that a malformed
    request fails before any solve.  A Weyl or Besicovitch fit is on
    [-fit_N, fit_N], by default WEYL_FIT_N or the grid's largest l."""
    a, out = cfg.analysis, {}

    def seminorm(req: dict) -> dict:
        return {"sn": family.by_label(req.get("seminorm",
                                              family.labels()[0]))}

    def fit(req: dict, name: str, default: int) -> dict:
        return {**seminorm(req), "p": float(req.get("p", 1.0)),
                "frequencies": [float(v)
                                for v in req.get("frequencies", [0.0])],
                "fit_N": as_int(req.get("fit_N", default), f"{name} fit_N")}

    if "omega_c" in a:
        req = a["omega_c"]
        out["omega_c"] = {"omega": as_int(req["omega"], "omega_c omega"),
                          "c": cnum(req["c"])}
    if "bohr" in a:
        req = a["bohr"]
        out["bohr"] = {**seminorm(req), "epsilon": float(req["epsilon"]),
                       "k_window": _request_window(req, "bohr", "k_window"),
                       "tau_range": _request_window(req, "bohr", "tau_range"),
                       "L": as_int(req["L"], "bohr L")}
    if "besicovitch" in a:
        req = a["besicovitch"]
        grid = [as_int(l, "besicovitch l_grid") for l in req["l_grid"]]
        out["besicovitch"] = {**fit(req, "besicovitch", max(grid)),
                              "l_grid": grid}
    if "weyl" in a:
        req = a["weyl"]
        out["weyl"] = {**fit(req, "weyl", WEYL_FIT_N),
                       "l": as_int(req["l"], "weyl l"),
                       "s_range": _request_window(req, "weyl", "s_range")}
    return out


def _required_window(window: Window, requests: dict
                     ) -> tuple[Window, list[tuple[int, int]]]:
    """The window every solve covers and the (start, end) of each window
    the parsed ``requests`` read: a Bohr scan reads its k_window shifted by
    every tau in [tau_range.start, tau_range.end + L].  The window is the
    hull of the config ``window`` and the reads, but ends at end + omega -
    1 for the omega_c read (start, end + omega): each solve's table holds
    the k past its window."""
    reads = []
    if "bohr" in requests:
        kw, tr, L = (requests["bohr"][key]
                     for key in ("k_window", "tau_range", "L"))
        reads.append((kw.start + min(0, tr.start),
                      kw.end + max(0, tr.end + L)))
    if "besicovitch" in requests:
        r = requests["besicovitch"]
        lmax = max(r["l_grid"])
        reads += [(-lmax, lmax), (-r["fit_N"], r["fit_N"])]
    if "weyl" in requests:
        r = requests["weyl"]
        reads += [(r["s_range"].start, r["s_range"].end + r["l"]),
                  (-r["fit_N"], r["fit_N"])]
    lo = min([window.start] + [start for start, _ in reads])
    hi = max([window.end] + [end for _, end in reads])
    if "omega_c" in requests:
        omega = requests["omega_c"]["omega"]
        reads.append((window.start, window.end + omega))
        hi = max(hi, window.end + omega - 1)
    return Window(lo, hi), reads


def _table_window(reads: list[tuple[int, int]]) -> Window | None:
    """Hull of the (start, end) windows ``reads`` if it holds no more k
    than they do together, else None: a table over the hull of reads far
    apart would hold the gap between them."""
    if not reads:
        return None
    lo = min(start for start, _ in reads)
    hi = max(end for _, end in reads)
    rows = sum(max(0, end - start + 1) for start, end in reads)
    return Window(lo, hi) if 0 < hi - lo + 1 <= rows else None


def _run_analysis(cfg: ScenarioConfig, x: BiSequence,
                  family: SeminormFamily,
                  phases: PhaseTable | None = None) -> dict:
    """The analysis requests' results; each trig fit and approximant reads
    its phases from ``phases`` where it holds their window."""
    out: dict = {}
    requests = _requests(cfg, family)
    if "omega_c" in requests:
        r = requests["omega_c"]
        defect = ap_analysis.omega_c_check(x, r["omega"], r["c"], family,
                                           cfg.window)
        out["omega_c"] = {"omega": r["omega"], "c": cpair(r["c"]),
                          "defect": defect}
    if "bohr" in requests:
        r = requests["bohr"]
        out["bohr"] = ap_analysis.bohr_check(
            x, r["sn"], r["epsilon"], r["k_window"], r["tau_range"],
            r["L"]).to_dict()
    if "besicovitch" in requests:
        r = requests["besicovitch"]
        poly = ap_analysis.fit_trig_poly(x, r["frequencies"], r["fit_N"],
                                         phases)
        rep = ap_analysis.besicovitch_distance(
            x, BiSequence.from_trig_poly(poly, phases), r["sn"], r["p"],
            r["l_grid"])
        out["besicovitch"] = rep.to_dict()
        out["besicovitch"]["frequencies"] = r["frequencies"]
    if "weyl" in requests:
        r = requests["weyl"]
        poly = ap_analysis.fit_trig_poly(x, r["frequencies"], r["fit_N"],
                                         phases)
        val = ap_analysis.weyl_distance(
            x, BiSequence.from_trig_poly(poly, phases), r["sn"], r["p"],
            r["l"], r["s_range"])
        out["weyl"] = {"l": r["l"], "value": val,
                       "seminorm_label": r["sn"].label,
                       "frequencies": r["frequencies"]}
    return out


def _ainv_c(cfg: ScenarioConfig, A: OperatorSequence, C,
            family: SeminormFamily) -> OperatorSequence:
    if "Ainv_C" in cfg.operators:
        return cfg.operator("Ainv_C", family=family)
    return inverse_selection(A, C, family)


def _config_C(cfg: ScenarioConfig, dim: int):
    if "C" in cfg.operators:
        with _descriptor("operators.C descriptor"):
            return as_matrix(finite(cmat(cfg.operators["C"]),
                                    "operators.C descriptor"), dim)
    return np.eye(dim, dtype=np.complex128)


def _dispatch(cfg: ScenarioConfig):
    """Solve per the config kind.  Returns (solution, aux, report, family)."""
    family = cfg.family()
    with _descriptor("analysis descriptor"):
        hull, reads = _required_window(cfg.window, _requests(cfg, family))

    def forcing(dim=None):
        return cfg.sequence(cfg.forcing, dim=dim)

    if cfg.kind == "first_order":
        f = forcing()
        A = cfg.operator("A", family=family)
        x, rep = solve_series(A, f, hull, tol=cfg.tol)
        return x, {}, rep, family

    if cfg.kind == "inclusion":
        f = forcing()
        C = _config_C(cfg, cfg.dim)
        if "D" in cfg.operators:
            D = cfg.operator("D", family=family)
        else:
            D = inverse_selection(cfg.operator("A", plain=True), C, family)
        x, rep = solve_inclusion(D, f, hull, tol=cfg.tol)
        return x, {}, rep, family

    if cfg.kind == "degenerate_vb":
        f = forcing()
        C = _config_C(cfg, cfg.dim)
        B = cfg.operator("B", family=family)
        A = cfg.operator("A", plain=True)
        ainv = _ainv_c(cfg, A, C, family)
        v, u, rep = solve_degenerate_vb(B, ainv, C, f, hull, tol=cfg.tol, A=A)
        return u, {"v": v}, rep, family

    if cfg.kind == "degenerate_vb1":
        f = forcing()
        C = _config_C(cfg, cfg.dim)
        B = cfg.operator("B", plain=True)
        A = cfg.operator("A", plain=True)
        g = cfg.sequence(cfg.sequences.get("g"))
        if "Ainv_BC" in cfg.operators:
            ainv_bc = cfg.operator("Ainv_BC", family=family)
        else:
            ainv_bc = OperatorSequence.map(
                lambda w, a, b_next: checked_solve(a, b_next @ C, "A", w),
                A, B, shifts=(0, 1), family=family)
        u, rep = solve_degenerate_vb1(B, ainv_bc, C, g, f, hull, tol=cfg.tol,
                                      A=A)
        return u, {}, rep, family

    if cfg.kind == "second_order":
        f = forcing()
        C = _config_C(cfg, cfg.dim)
        A0 = cfg.operator("A0", plain=True)
        A1 = cfg.operator("A1", plain=True)
        A2 = cfg.operator("A2", plain=True)
        u, rep = solve_second_order(A0, A1, A2, C, f, hull, tol=cfg.tol,
                                    family=family)
        return u, {}, rep, family

    if cfg.kind == "system_bm":
        p = cfg.param("p", int, 1)
        block_dim = p * cfg.dim
        lifted = family.lifted(p)
        A = cfg.operator("A", dim=block_dim, plain=True)
        D = cfg.operator("D", dim=block_dim, family=lifted)
        B, warnings = build_B_from_D(A, D, p, base_family=family,
                                     window=cfg.window)
        vec_f = forcing(dim=block_dim)
        C = np.eye(block_dim, dtype=np.complex128)
        # g(k) = B(k+1) vec f(k)
        g = BiSequence(block_dim, lambda w: B.apply_rows(
            w.start + 1, vec_f.window_values(w)))
        u, rep = solve_degenerate_vb1(B, D, C, g, vec_f, hull, tol=cfg.tol,
                                      A=A)
        rep.warnings.extend(warnings)
        return u, {}, rep, lifted

    if cfg.kind == "heat":
        n = cfg.param("n", int)
        problem = discretization.heat_problem(
            n, cfg.param("h", float, 1.0),
            cfg.sequence(cfg.sequences.get("m"), dim=1),
            cfg.sequence(cfg.sequences.get("b"), dim=1),
            forcing(dim=n), family=cfg.family(n), window=hull)
        v, u, rep = problem.solve(cfg.tol)
        return u, {"v": v, "grid": True}, rep, problem.family

    if cfg.kind == "wave":
        n = cfg.param("n", int)
        problem = discretization.wave_problem(
            n, cfg.param("h", float, 1.0),
            cfg.sequence(cfg.sequences.get("m1"), dim=1),
            cfg.sequence(cfg.sequences.get("m2"), dim=1),
            cfg.sequence(cfg.sequences.get("b"), dim=1),
            forcing(dim=n), family=cfg.family(n), window=hull)
        u, rep = problem.solve(cfg.tol)
        return u, {"grid": True}, rep, problem.family

    if cfg.kind == "analyze":
        x = cfg.sequence(cfg.sequences.get("target", cfg.forcing))
        # evaluate the target once where the analyses read it, as a strict
        # table, so that each of them reads slices of one evaluation.  The
        # table is a copy: under glibc's malloc, holding the evaluated array
        # itself left the checkers' temporaries about 1,300 more fresh pages
        # to fault in per op on a 16,385 x 4 target, which cost more time
        # than the copy saves.  The run's trig phases are one PhaseTable
        # over the same k: a trig target evaluated on it reads them from
        # it, and so do the analyses' fits and approximants
        table = _table_window(reads)
        if table is None:
            return x, {"analysis_only": True}, None, family
        phases = PhaseTable(table.start, table.end)
        x = BiSequence.from_table(table.start, x.window_values(phases))
        return x, {"analysis_only": True, "phases": phases}, None, family

    raise InputContractError(f"unhandled kind {cfg.kind!r}")


def _json_text(value, indent: str = "") -> str:
    """``value`` as JSON with each dict entry on its own line, keys sorted,
    and every list or scalar on its key's line in the C encoder's compact
    form: the data of json.dumps(indent=2, sort_keys=True) in fewer lines.
    A PerK record is the list of its (k, value) pairs, written by its
    vector kernel in the bytes json.dumps gives that list."""
    if isinstance(value, PerK):
        return value.to_json()
    if not isinstance(value, dict) or not value:
        return json.dumps(value, sort_keys=True)
    inner = indent + "  "
    return ("{\n" + ",\n".join(f"{inner}{json.dumps(key)}: "
                                f"{_json_text(v, inner)}"
                                for key, v in sorted(value.items()))
            + "\n" + indent + "}")


def _write_json(path, value: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(value) + "\n")


def _summary_lines(cfg, rep, analysis) -> list[str]:
    lines = [f"kind: {cfg.kind}",
             f"window: [{cfg.window.start}, {cfg.window.end}]  tol: {cfg.tol:g}"]
    if rep is not None:
        for lbl, r in sorted(rep.max_residual.items()):
            lines.append(f"residual[{lbl}] = {r:.3e}  ({rep.residual_form})")
        lines.append(f"uniqueness: {rep.uniqueness}")
        for w in rep.warnings:
            lines.append(f"warning: {w}")
    for name, payload in sorted(analysis.items()):
        if name == "omega_c":
            lines.append(f"omega_c defect = {payload['defect']:.3e}")
        elif name == "bohr":
            lines.append(f"bohr verdict = {payload['verdict']} "
                         f"(max defect {payload['max_defect']:.3e})")
        elif name == "bohr_forcing_defect":
            lines.append(f"bohr forcing defect = {payload:.3e}")
        elif name == "besicovitch":
            lines.append(f"besicovitch limsup estimate = "
                         f"{payload['limsup_estimate']:.3e}")
        elif name == "weyl":
            lines.append(f"weyl value = {payload['value']:.3e}")
    return lines


def run(cfg: ScenarioConfig, out_dir,
        extra_analysis: dict | None = None) -> dict:
    """Dispatch, write solution CSV + report JSON + summary, and return the
    analysis results (with ``extra_analysis`` merged in).  The report holds
    the config, the solve report and the analysis results, each once, and
    nothing about the run itself, so a rerun writes the same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x, aux, rep, family = _dispatch(cfg)
    with _descriptor("analysis descriptor"):
        analysis = (_run_analysis(cfg, x, family, aux.get("phases"))
                    if cfg.analysis else {})
    analysis.update(extra_analysis or {})

    if not aux.get("analysis_only"):
        write_csv(out / "solution.csv", x, cfg.window)
        if "v" in aux:
            write_csv(out / "solution_v.csv", aux["v"], cfg.window)
        if aux.get("grid"):
            write_grid_csv(out / "grid_solution.csv", x, cfg.window)

    report = {
        "schema_version": 2,
        "kind": cfg.kind,
        "config": cfg.to_dict(),
        "solve": rep._held() if rep is not None else None,
        "analysis": analysis,
    }
    _write_json(out / "report.json", report)
    with open(out / "summary.txt", "w") as fh:
        fh.write("\n".join(_summary_lines(cfg, rep, analysis)) + "\n")
    return analysis


# ---------------------------------------------------------------------------
# canned examples
# ---------------------------------------------------------------------------

def _grid_profile_terms(n: int) -> list:
    profile = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return [{"frequency": 1.0,
             "coefficient": [[x / 2, 0.0] for x in profile]},
            {"frequency": -1.0,
             "coefficient": [[x / 2, 0.0] for x in profile]}]


def example_config(name: str, n: int, h: float, window: Window,
                   tol: float) -> dict:
    """Canned heat/wave scenarios with almost periodic data."""
    sin_terms = [{"frequency": 1.0, "coefficient": [0.0, -0.5]},
                 {"frequency": -1.0, "coefficient": [0.0, 0.5]}]
    b_desc = {"backend": "trig_poly",
              "terms": [{"frequency": 0.0, "coefficient": [[3.0, 0.0]]}]
                       + [{"frequency": t["frequency"],
                           "coefficient": [t["coefficient"]]}
                          for t in sin_terms]}
    f_desc = {"backend": "trig_poly", "terms": _grid_profile_terms(n)}
    base = {
        "schema_version": 1,
        "dim": n,
        "window": [window.start, window.end],
        "tol": tol,
        "seminorms": [{"kind": "sup"}, {"kind": "first_difference"},
                      {"kind": "second_difference"}],
        "params": {"n": n, "h": h},
        "forcing": f_desc,
    }
    if name == "heat":
        base["kind"] = "heat"
        base["sequences"] = {
            "m": {"backend": "constant", "value": [[0.1, 0.0]]},
            "b": b_desc,
        }
    elif name == "wave":
        base["kind"] = "wave"
        base["sequences"] = {
            "m1": {"backend": "constant", "value": [[0.05, 0.0]]},
            "m2": {"backend": "constant", "value": [[0.05, 0.0]]},
            "b": {"backend": "constant", "value": [[3.0, 0.0]]},
        }
        # constant data: the solution is the constant fixed point, so the
        # plain-periodicity defect must vanish
        xs = np.arange(1, n + 1) / (n + 1)
        base["forcing"] = {"backend": "constant",
                           "value": [[x, 0.0] for x in np.sin(np.pi * xs)]}
        base["analysis"] = {"omega_c": {"omega": 1, "c": [1.0, 0.0]}}
    else:
        raise InputContractError(f"unknown example {name!r}")
    return base


def run_example(name: str, n: int, h: float, window: Window, tol: float,
                out_dir) -> int:
    """Run a canned example on an n-point grid (n >= 1); the heat example
    exits 4 when its Bohr transfer check fails."""
    if n < 1:
        raise InputContractError(f"example {name} needs a grid of n >= 1 "
                                 f"points, got n={n}")
    data = example_config(name, n, h, window, tol)
    extra = None
    if name == "heat":
        # Bohr transfer check with epsilon matched to the forcing: measure
        # the forcing's minimax defect, allow the solution twice that.  The
        # request goes into the config, so the one solve covers the hull
        # the scan consumes.  The scan reads the forcing once.
        scan = {"k_window": [-40, 40], "tau_range": [-150, 150], "L": 40}
        eps_f = ap_analysis.bohr_check(
            build_sequence(data["forcing"], n), Seminorm.sup(), float("inf"),
            as_window(scan["k_window"]), as_window(scan["tau_range"]),
            scan["L"]).max_defect * (1 + 1e-9)
        data["analysis"] = {"bohr": {**scan, "epsilon": 2 * eps_f,
                                     "seminorm": "sup"}}
        extra = {"bohr_forcing_defect": eps_f}
    analysis = run(ScenarioConfig.from_dict(data), out_dir,
                   extra_analysis=extra)
    return 0 if analysis.get("bohr", {}).get("verdict", True) else 4


def run_reduce_order(cfg: ScenarioConfig, out_dir, k: int) -> int:
    """Emit the companion matrices and the reduction selection at index k."""
    p = cfg.param("p", int, 2)
    family = cfg.family()
    seqs = [cfg.operator(f"A{j}", plain=True) for j in range(p + 1)]
    C = _config_C(cfg, cfg.dim)
    sys_ = build_companion(p, seqs, C)
    G = inverse_selection(seqs[0], C, name="A0")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": 1,
        "kind": "reduce_order",
        "p": p,
        "k": k,
        "bold_A": mat_out(sys_.bold_A(k)),
        "bold_B_next": mat_out(sys_.bold_B(k + 1)),
        "bold_C": mat_out(sys_.bold_C()),
        "selection_D": mat_out(companion_selection(sys_, G).matrix(k)),
    }
    _write_json(out / "reduction.json", payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

OPTIONS = {
    "--config": dict(type=Path, help="scenario config JSON"),
    "--out": dict(type=Path, default=Path("apseq-out"),
                  help="output directory"),
    "--tol": dict(type=float, default=None, help="override config tolerance"),
    "--window": dict(type=str, default=None,
                     help="override config window as A:B"),
}


def _add_options(sp, *flags):
    for flag in flags:
        sp.add_argument(flag, **OPTIONS[flag])


def _parse_window(text: str) -> Window:
    try:
        a, b = text.split(":")
        return Window(int(a), int(b))
    except (ValueError, TypeError) as exc:
        raise InputContractError(f"bad window {text!r}; expected A:B") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apseq",
        description="series solutions and almost-periodicity analysis for "
                    "nonautonomous linear difference equations on Z")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "solve-inclusion", "solve-degenerate", "solve-p2",
                 "analyze"):
        _add_options(sub.add_parser(name), "--config", "--out", "--tol",
                     "--window")
    rp = sub.add_parser("reduce-order")
    _add_options(rp, "--config", "--out")
    rp.add_argument("--k", type=int, default=0, help="index to assemble at")
    ep = sub.add_parser("example")
    ep.add_argument("name", choices=("heat", "wave"))
    ep.add_argument("--n", type=int, default=5)
    ep.add_argument("--h", type=float, default=1.0)
    _add_options(ep, "--out", "--tol", "--window")
    return ap


def _load_config(path, tol: float | None = None,
                 window: str | None = None) -> ScenarioConfig:
    if path is None:
        raise InputContractError("--config is required for this subcommand")
    cfg = ScenarioConfig.load(path)
    data = cfg.to_dict()
    if tol is not None:
        data["tol"] = tol
    if window is not None:
        w = _parse_window(window)
        data["window"] = [w.start, w.end]
    return ScenarioConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            window = (_parse_window(args.window) if args.window
                      else Window(-20, 20))
            tol = 1e-10 if args.tol is None else args.tol
            return run_example(args.name, args.n, args.h, window, tol,
                               args.out)
        if args.command == "reduce-order":
            return run_reduce_order(_load_config(args.config), args.out,
                                    args.k)
        cfg = _load_config(args.config, args.tol, args.window)
        allowed = SUBCOMMAND_KINDS[args.command]
        if cfg.kind not in allowed:
            raise InputContractError(
                f"subcommand {args.command} expects a config kind in "
                f"{allowed}, got {cfg.kind!r}")
        run(cfg, args.out)
        return 0
    except ApseqError as exc:
        print(f"apseq: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"apseq: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
