"""Workload child: runs one workload's ops in-process and writes a result JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS thread count pinned to 1.  Every op is one ``apseq.cli.main(argv)`` call
without ``--threads``; one untimed warm-up op runs first so lazy set-up
(imports, BLAS initialisation, lru caches) stays out of the op times.

A fixed reference kernel runs before the first op and after every op; each
op's wall time is also reported relative to the mean of its two neighbouring
reference times, which cancels most of the machine's speed drift.

Untraced mode: warm-up, then timed ops for ``--seconds``.  Traced mode:
warm-up, untraced ops for half the time, then the same ops with the tracer
installed for the other half; their outputs must be byte-identical.  Ops run
in whole rounds of the workload's op list, so mixed op sizes keep a fixed
mix.  Known-defect probes run once at the end, outside the timing and
after peak memory has been read.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads


class Reference:
    """A fixed mix of small numpy calls, 8x8 solves, a batched einsum and
    pure-Python work that runs no apseq code.  On a shared host the speed of
    the machine drifts by 10-30% over minutes; an op's time over the time of
    this kernel, measured next to it, drifts far less."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.v = rng.standard_normal((1500, 8)) + 0j
        self.ms = np.broadcast_to(self.m, (1000, 8, 8)).copy()
        # bound now, so that a traced run's wrapper is not timed here
        self.solve = np.linalg.solve

    def __call__(self) -> float:
        t0 = perf_counter()
        for i in range(1500):
            np.abs(self.m).sum(axis=1).max()
            self.solve(self.m, self.v[i])
        for _ in range(40):
            np.einsum("pij,pj->pi", self.ms, self.v[:1000])
        str({"k": list(range(2000))})
        return perf_counter() - t0


def _run(cli, op, tracer=None,
         op_id: int = -1) -> tuple[int | None, float, str]:
    if op.out.exists():
        shutil.rmtree(op.out)
    op.out.mkdir(parents=True)
    err = io.StringIO()
    code = None
    # each CLI call starts from a fresh process for a user; do not charge an
    # op for collecting the previous op's (or the checks') garbage
    gc.collect()
    with contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.op = op_id
        t0 = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # an uncaught error is a failed op, not a crash
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
    return code, wall, err.getvalue()


class Runner:
    """Runs ops, applies the correctness gate and keeps the records."""

    def __init__(self, cli):
        self.cli = cli
        self.fingerprints: dict[str, str] = {}
        # failures of an input's fully checked first run, which its
        # byte-identical repeats share
        self.first_failures: dict[str, list[str]] = {}
        self.records: list[dict] = []
        self.reference = Reference()

    def op(self, op, phase: str, tracer=None, op_id: int = -1) -> dict:
        code, wall, stderr = _run(self.cli, op, tracer, op_id)
        first = op.key not in self.fingerprints
        # the expensive output checks run on the first occurrence of an
        # input; repeats must then reproduce its outputs byte for byte
        failures, worst = workloads.evaluate(op, code, full=first)
        if code == 0:
            fp = workloads.fingerprint(op.out)
            if first:
                self.fingerprints[op.key] = fp
                self.first_failures[op.key] = list(failures)
            elif fp != self.fingerprints[op.key]:
                failures.append(
                    "outputs differ from an earlier run of the same input")
            else:
                failures += [f for f in self.first_failures[op.key]
                             if f not in failures]
        rec = {"key": op.key, "phase": phase, "exit": code, "wall_s": wall,
               "residual_over_tol": worst, "failures": failures}
        if failures and stderr:
            rec["stderr"] = stderr[-2000:]
        self.records.append(rec)
        return rec

    def loop(self, ops, seconds: float, phase: str, tracer=None) -> list[dict]:
        """Whole rounds of ``ops`` until ``seconds`` have passed (at least
        one round)."""
        out = []
        refs = [self.reference()]
        deadline = perf_counter() + seconds
        i = 0
        while i % len(ops) or perf_counter() < deadline:
            out.append(self.op(ops[i % len(ops)], phase, tracer, op_id=i))
            refs.append(self.reference())
            i += 1
        for rec, before, after in zip(out, refs, refs[1:]):
            rec["ref_s"] = (before + after) / 2
            rec["rel"] = rec["wall_s"] / rec["ref_s"]
        return out


def _probe(cli, op) -> dict:
    code, _, stderr = _run(cli, op)
    failures, _ = workloads.evaluate(op, code)
    passed = not failures or code == op.refusal_exit
    return {"key": op.key, "exit": code, "passed": passed,
            "failures": [] if passed else failures,
            "stderr": stderr[-500:]}


def _p50(recs) -> float:
    return statistics.median(r["wall_s"] for r in recs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import apseq
    import apseq.cli as cli
    src = args.src.resolve()
    if src not in Path(apseq.__file__).resolve().parents:
        print(f"worker: imported apseq from {apseq.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ops, probes = workloads.make_ops(args.workload, args.inputs, args.work)
    runner = Runner(cli)
    result = {"python": platform.python_version(),
              "numpy": np.__version__}
    runner.op(ops[0], "warmup")
    if args.trace == 0:
        phase = "timed"
        timed = runner.loop(ops, args.seconds, phase)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss * 1024 / 1e6)
    else:
        from tracing import Tracer
        plain = runner.loop(ops, args.seconds / 2, "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            phase = "traced"
            timed = runner.loop(ops, args.seconds / 2, phase, tracer)
        finally:
            tracer.uninstall()
        wall = sum(r["wall_s"] for r in timed)
        metrics = tracer.metrics(len(timed), wall)
        metrics["tracing.overhead_s"] = (_p50(timed) - _p50(plain), "s")
        result["trace"] = {
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "layer_self_s": tracer.layer_self_s(),
            "layer_inclusive_s": tracer.layer_inclusive_s(),
            "op_wall_s": wall,
            "spans": len(tracer.s_fid),
        }
        tracer.save(args.work / "spans.npz")
    result["timed_phase"] = phase
    result["probes"] = [_probe(cli, p) for p in probes]
    result["records"] = runner.records
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
