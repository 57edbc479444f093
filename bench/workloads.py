"""Workload inputs, ops, correctness checks and known-defect probes.

Each workload is a list of ops, each one in-process ``apseq.cli.main(argv)``
call, plus probes that run once per benchmark run outside the timing.

series   ``apseq solve`` on seeded first_order scenarios (d=8, window of
         4001, sup certificate 0.95, tol 1e-10, two-frequency trig
         forcing; two constant and two period-3 operators).  Level-by-level
         summation dominates; certificates are one cached evaluation.
grid     ``apseq example heat --n 8/16/32`` and ``example wave --n 5/8/12``
         on the CLI's canned inputs.  Certificate derivation, dense resolvent
         solves and condition estimates dominate; summation is a small share.
ap-scan  ``apseq analyze`` (no solve) on two seeded d=4 targets: a
         3-frequency trig polynomial (vectorised evaluation) and an
         (omega=37, c=i) extension (per-k Python evaluation), each scanned
         for Bohr, Weyl and Besicovitch almost-periodicity.  The per-tau
         reductions of ``translation_defects`` dominate.

``write_inputs`` writes the scenario JSONs from the seed using numpy only;
the program sees nothing but those files (grid uses the canned examples).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("series", "grid", "ap-scan")

SERIES_DIM = 8
SERIES_WINDOW = (-2000, 2000)
SERIES_CERT = 0.95
SERIES_SCENARIOS = ("const", "period3", "const", "period3")
TOL = 1e-10
#: rounding allowance, relative to max |x|, on top of the reported tail bound
ROUNDING = 1e-12

GRID_OPS = (("heat", 8), ("heat", 16), ("heat", 32),
            ("wave", 5), ("wave", 8), ("wave", 12))
GRID_PROBES = (("wave", 16), ("wave", 32))
WAVE_DEFECT_MAX = 2e-10

AP_DIM = 4
AP_OMEGA = 37
AP_BOHR = {"k_window": [-1000, 1000], "tau_range": [0, 6000], "L": 200}
AP_WEYL = {"l": 256, "s_range": [-4000, 4000]}
AP_BESICOVITCH = [512, 1024, 2048, 4096, 8192]


@dataclass
class Op:
    """One CLI invocation and the checks its outputs must pass."""

    key: str
    argv: list[str]
    out: Path
    check: Callable[[dict, Path], list[str]] | None = None
    #: probes pass also on this exit code (an honest refusal)
    refusal_exit: int | None = None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _cmatrix(m) -> list:
    return [[_pair(x) for x in row] for row in m]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _series_matrix(rng, d: int) -> np.ndarray:
    """Random complex matrix with max absolute row sum exactly SERIES_CERT."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m * (SERIES_CERT / np.abs(m).sum(axis=1).max())


def _trig_terms(rng, d: int, freqs) -> list[dict]:
    """Trig-poly terms whose coefficient moduli sum to 1 per component, so
    the forcing's sup (and with it the truncation depth) barely depends on
    the seed."""
    coefs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
             for _ in freqs]
    scale = sum(np.abs(c) for c in coefs)
    return [{"frequency": float(lam),
             "coefficient": [_pair(x) for x in c / scale]}
            for lam, c in zip(freqs, coefs)]


def _series_config(rng, kind: str) -> dict:
    d = SERIES_DIM
    if kind == "const":
        op = {"backend": "constant",
              "matrix": _cmatrix(_series_matrix(rng, d))}
    else:
        op = {"backend": "periodic",
              "matrices": [_cmatrix(_series_matrix(rng, d)) for _ in range(3)]}
    freqs = rng.uniform(0.1, 3.0, size=2)
    return {"schema_version": 1, "kind": "first_order", "dim": d,
            "window": list(SERIES_WINDOW), "tol": TOL,
            "seminorms": [{"kind": "sup"}],
            "operators": {"A": op},
            "forcing": {"backend": "trig_poly",
                        "terms": _trig_terms(rng, d, freqs)}}


#: ROADMAP item 3: a forcing spike far left of the solver's forcing probe
SPIKE_PROBE = {"schema_version": 1, "kind": "first_order", "dim": 1,
               "window": [-10, 10], "tol": TOL,
               "seminorms": [{"kind": "sup"}],
               "operators": {"A": {"backend": "constant",
                                   "matrix": [[[0.99, 0.0]]]}},
               "forcing": {"backend": "spike", "k": -6000,
                           "value": [[1e20, 0.0]]}}


def _ap_analysis(freqs, epsilon: float, omega_c=None) -> dict:
    out = {"bohr": {**AP_BOHR, "epsilon": epsilon, "seminorm": "sup"},
           "weyl": {**AP_WEYL, "frequencies": list(freqs), "p": 1.0},
           "besicovitch": {"l_grid": AP_BESICOVITCH,
                           "frequencies": list(freqs), "p": 1.0}}
    if omega_c:
        out["omega_c"] = omega_c
    return out


def _ap_configs(rng) -> dict[str, dict]:
    d = AP_DIM
    base = {"schema_version": 1, "kind": "analyze", "dim": d,
            "window": AP_BOHR["k_window"], "tol": TOL,
            "seminorms": [{"kind": "sup"}]}
    freqs = [float(x) for x in rng.uniform(0.1, 3.0, size=3)]
    trig = {**base,
            "sequences": {"target": {"backend": "trig_poly",
                                     "terms": _trig_terms(rng, d, freqs)}},
            "analysis": _ap_analysis(freqs, 0.5)}
    values = rng.standard_normal((AP_OMEGA, d)) + 1j * rng.standard_normal(
        (AP_OMEGA, d))
    # c = i: F(k + 4*37) = F(k), so every window of length L=200 holds an
    # exact translation number and the Bohr verdict must be true
    omega_c = {**base,
               "sequences": {"target": {
                   "backend": "omega_c", "omega": AP_OMEGA, "c": [0.0, 1.0],
                   "base": [[_pair(x) for x in row] for row in values]}},
               "analysis": _ap_analysis([0.0, 2 * math.pi / (4 * AP_OMEGA)],
                                        1e-9, {"omega": AP_OMEGA,
                                               "c": [0.0, 1.0]})}
    return {"trig": trig, "omega_c": omega_c}


def write_inputs(workload: str, seed: int, input_dir: Path) -> None:
    """Write the workload's scenario configs for ``seed`` to ``input_dir``."""
    if input_dir.exists():
        shutil.rmtree(input_dir)
    input_dir.mkdir(parents=True)
    configs: dict[str, dict] = {}
    if workload == "series":
        rng = _rng(seed, 1)
        for i, kind in enumerate(SERIES_SCENARIOS):
            configs[f"{kind}{i}"] = _series_config(rng, kind)
        configs["probe-spike"] = SPIKE_PROBE
    elif workload == "ap-scan":
        configs = _ap_configs(_rng(seed, 3))
    elif workload != "grid":
        raise ValueError(f"unknown workload {workload!r}")
    for name, cfg in configs.items():
        path = input_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _residual_ratios(node) -> list[float]:
    """max_residual / tol for every (nested) solve report in ``node``."""
    out = []
    if isinstance(node, dict):
        if isinstance(node.get("max_residual"), dict) and "tol" in node:
            out += [float(r) / float(node["tol"])
                    for r in node["max_residual"].values()]
        for v in node.values():
            out += _residual_ratios(v)
    elif isinstance(node, list):
        for v in node:
            out += _residual_ratios(v)
    return out


def fingerprint(out: Path) -> str:
    """Digest of every output file, with report.json's generated_at and
    threads lines stripped (the only fields allowed to differ on a rerun)."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"\n".join(line for line in data.split(b"\n")
                              if b'"generated_at"' not in line
                              and b'"threads"' not in line)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _oracle_check(config_path: Path):
    """Compare solution.csv with forward_oracle started left of the forcing's
    support (or far enough left that the start value has decayed below the
    rounding allowance), within the reported sup tail bound plus rounding."""
    from apseq import forward_oracle, read_csv
    from apseq.config import ScenarioConfig

    def check(report: dict, out: Path) -> list[str]:
        cfg = ScenarioConfig.load(config_path)
        A = cfg.operator("A")
        f = cfg.sequence(cfg.forcing)
        w0, w1 = cfg.window.start, cfg.window.end
        k0 = w0 - 1
        if cfg.forcing["backend"] == "spike":
            k0 = min(k0, int(cfg.forcing["k"]) - 1)
        else:
            # sup-norm decay of the start error: c^(w0-k0) * sup f/(1-c)
            c = A.sup_bound("sup")
            k0 -= int(math.ceil(math.log(ROUNDING * (1 - c)) / math.log(c)))
        oracle = forward_oracle(A, f, k0, np.zeros(cfg.dim), (w0, w1))
        x = read_csv(out / "solution.csv")
        xs = x.window_values((w0, w1))
        os_ = oracle.window_values((w0, w1))
        err = np.abs(xs - os_).max(axis=1)
        tails = dict((k, b) for k, b in report["solve"]["tail_bounds"]["sup"])
        allow = np.array([tails[k] for k in range(w0, w1 + 1)])
        allow += ROUNDING * max(1.0, float(np.abs(os_).max()))
        bad = np.flatnonzero(err > allow)
        if bad.size:
            i = int(bad[np.argmax(err[bad] - allow[bad])])
            return [f"oracle disagreement at k={w0 + i}: |x-oracle|="
                    f"{err[i]:.3e} > tail+rounding {allow[i]:.3e}"]
        return []

    return check


def _heat_check(report: dict, out: Path) -> list[str]:
    bohr = report.get("analysis", {}).get("bohr", {})
    return [] if bohr.get("verdict") is True else ["heat Bohr transfer failed"]


def _wave_check(report: dict, out: Path) -> list[str]:
    defect = report.get("analysis", {}).get("omega_c", {}).get("defect")
    if defect is None or not defect <= WAVE_DEFECT_MAX:
        return [f"wave omega,c defect {defect} > {WAVE_DEFECT_MAX}"]
    return []


def _omega_c_target_check(report: dict, out: Path) -> list[str]:
    a = report.get("analysis", {})
    fails = []
    defect = a.get("omega_c", {}).get("defect")
    if defect is None or not defect <= 1e-12:
        fails.append(f"omega,c defect {defect} is not ~0")
    if a.get("bohr", {}).get("verdict") is not True:
        fails.append("Bohr verdict of the (omega, c) target is not true")
    return fails


def evaluate(op: Op, exit_code: int | None,
             full: bool = True) -> tuple[list[str], float | None]:
    """Failures of one op and its largest max_residual/tol (None if it made
    no solve report).  Exit code and residuals are always checked; the op's
    own output checks run when ``full`` (the first run of an input; repeats
    are compared byte-wise instead)."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"], None
    try:
        report = json.loads((op.out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report.json: {exc}"], None
    failures = []
    ratios = _residual_ratios(report)
    worst = max(ratios) if ratios else None
    if worst is not None and worst > 1.0:
        failures.append(f"max_residual/tol = {worst:.3e}")
    if full and op.check:
        failures += op.check(report, op.out)
    return failures, worst


# ---------------------------------------------------------------------------
# ops and probes
# ---------------------------------------------------------------------------

def make_ops(workload: str, input_dir: Path,
             work_dir: Path) -> tuple[list[Op], list[Op]]:
    """Timed ops (in cycle order) and known-defect probes of a workload."""
    ops: list[Op] = []
    probes: list[Op] = []
    if workload == "series":
        for path in sorted(input_dir.glob("*.json")):
            op = Op(path.stem, ["solve", "--config", str(path), "--out",
                                str(work_dir / path.stem)],
                    work_dir / path.stem, check=_oracle_check(path))
            if path.stem.startswith("probe-"):
                op.refusal_exit = 3
                probes.append(op)
            else:
                ops.append(op)
    elif workload == "grid":
        for name, n in GRID_OPS + GRID_PROBES:
            key = f"{name}{n}"
            op = Op(key, ["example", name, "--n", str(n), "--out",
                          str(work_dir / key)], work_dir / key,
                    check=_heat_check if name == "heat" else _wave_check)
            (probes if (name, n) in GRID_PROBES else ops).append(op)
    elif workload == "ap-scan":
        for stem in ("trig", "omega_c"):
            path = input_dir / f"{stem}.json"
            ops.append(Op(stem, ["analyze", "--config", str(path), "--out",
                                 str(work_dir / stem)], work_dir / stem,
                          check=_omega_c_target_check if stem == "omega_c"
                          else None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, probes


def coldstart_args(workload: str, input_dir: Path) -> list[str]:
    """Arguments for coldstart.py: the configs this workload's user loads."""
    if workload == "grid":
        return ["--example"] + [f"{name}:{n}" for name, n in GRID_OPS]
    return ["--config"] + [str(p) for p in sorted(input_dir.glob("*.json"))]
