"""apseq benchmark: one command for the series, grid and ap-scan workloads.

    python3 bench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  The run

1. writes the workload's scenario configs from ``--seed`` under bench/out/,
2. (untraced runs) times cold starts of the CLI in fresh interpreters:
   ``setup_s`` is the median of several,
3. starts one child process that runs the workload's ops in-process through
   ``apseq.cli.main`` for ``--seconds`` and applies the correctness gate to
   every op; known-defect probes run once, outside the timing,
4. prints every metric by name with its unit and sample count, writes the
   full record to bench/out/<workload>/result-trace<0|1>.json, and ends with
   one JSON line: correct, attempted, failed and the metrics (end-to-end
   metrics untraced, per-layer metrics traced).

Op times are gated as ``op_rel_p50``/``op_rel_mean``: each op's wall time
over the time of a fixed reference kernel run next to it (worker.Reference).
On a shared host the raw times (``op_s_p50``, ``ops_per_s``, printed and
recorded) drift by 10-30% between runs minutes apart, the ratios far less.

The children run with the BLAS thread count pinned to 1 and without
APSEQ_THREADS, so they measure the plain single-threaded program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
#: every run must end within this many seconds
RUN_LIMIT_S = 175
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("APSEQ_THREADS", "PYTHONPATH")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_samples(args: list[str], env: dict, root: Path) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the
    configs; the first, which may compile bytecode, is not kept."""
    cmd = [sys.executable, str(HERE / "coldstart.py")] + args
    out = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=root)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the sample
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cold start exited with {code}")
        if i:
            out.append(elapsed)
    return out


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    root = Path.cwd()
    src = root / "src"
    if not (src / "apseq" / "__init__.py").is_file():
        print(f"bench: no apseq sources under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    work = HERE / "out" / args.workload
    inputs = work / "inputs"
    workloads.write_inputs(args.workload, args.seed, inputs)
    env = _child_env(src)

    setup = []
    if args.trace == 0:
        try:
            setup = _setup_samples(
                workloads.coldstart_args(args.workload, inputs), env, root)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1

    result_path = work / f"result-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--inputs", str(inputs),
           "--work", str(work / "ops"), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(src),
           "--result", str(result_path)]
    budget = RUN_LIMIT_S - (perf_counter() - t_start)
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"bench: workload child exceeded {budget:.0f} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"bench: workload child failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    records = res["records"]
    failed = sum(1 for r in records if r["failures"])
    probes = res["probes"]
    probes_failed = [p["key"] for p in probes if not p["passed"]]
    ratios = [r["residual_over_tol"] for r in records
              if r["residual_over_tol"] is not None]
    timed = [r for r in records if r["phase"] == res["timed_phase"]]
    wall = [r["wall_s"] for r in timed]
    rel = [r["rel"] for r in timed]
    summary = {
        "op_s_p50": (statistics.median(wall), "s",
                     f"median of {len(wall)} timed ops"),
        "ops_per_s": (len(wall) / sum(wall), "1/s", f"{len(wall)} timed ops"),
        "ref_s_p50": (statistics.median(r["ref_s"] for r in timed), "s",
                      f"reference kernel next to {len(wall)} timed ops"),
        "fail_frac": ((failed + len(probes_failed))
                      / (len(records) + len(probes)), "ratio",
                      f"{failed} of {len(records)} ops and "
                      f"{len(probes_failed)} of {len(probes)} probes failed"
                      + (f" ({', '.join(probes_failed)})"
                         if probes_failed else "")),
        "residual_over_tol": ((max(ratios), "ratio",
                               f"max over {len(ratios)} solve ops")
                              if ratios else
                              (None, "ratio", "no solve ops")),
    }
    if args.trace == 0:
        metrics = {
            "op_rel_p50": (statistics.median(rel), "ratio",
                           f"median of {len(rel)} timed ops"),
            "op_rel_mean": (statistics.fmean(rel), "ratio",
                            f"mean of {len(rel)} timed ops"),
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} cold starts"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", "1 workload child"),
        }
    else:
        metrics = {k: (m["value"], m["unit"], "per traced op")
                   for k, m in res["trace"]["metrics"].items()}

    env_record = {
        "python": res["python"], "numpy": res["numpy"],
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _git_commit(root), "blas_env": BLAS_ENV,
    }
    print(f"apseq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit, note) in {**metrics, **summary}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<58} {shown:>12} {unit:<6} {note}")
    if args.trace == 1:
        tr = res["trace"]
        total = tr["op_wall_s"]
        print(f"  share of traced op wall time: {'self':>8} {'under':>8}"
              f"  ({tr['spans']} spans)")
        for layer, s in sorted(tr["layer_self_s"].items(),
                               key=lambda kv: -kv[1]):
            under = tr["layer_inclusive_s"][layer]
            print(f"    {layer:<28} {s / total:8.1%} {under / total:8.1%}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env_record.items()
                                if k != "blas_env")
          + ", BLAS threads=1")

    correct = failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env_record,
              "correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "samples": note}
                          for k, (v, u, note) in {**metrics,
                                                   **summary}.items()},
              "setup_samples_s": setup, "probes": probes, "records": records}
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
