"""In-memory span tracer that wraps apseq's public functions from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces every binding
site of each traced function (the defining module, every module that did
``from .x import f``, the package namespace) with one wrapper, and methods
are wrapped on their class.  ``Tracer.uninstall`` puts the originals back.

A span is (function id, start, end, parent span, op id).  Spans are kept in
compact arrays and written once at the end.  Self time is a span's duration
minus the durations of its direct child spans, accumulated as spans close.
Only calls made while an op is active (``Tracer.op >= 0``) are recorded, so
the benchmark's own correctness checks stay out of the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

#: layer (apseq module, or numpy.linalg) -> traced public entry points.
#: ``Class.method`` names are wrapped on the class.  The comment on each
#: layer names the end-to-end metric and workload it should move.
TRACED = {
    # op_s_p50 on series once summation is gone (report JSON + CSV)
    "cli": ["main", "run", "run_example"],
    # expected flat everywhere
    "config": ["ScenarioConfig.from_dict", "build_operator", "build_sequence",
               "build_family"],
    # op_s_p50 and ops_per_s on grid; flat on series
    "operator_model": ["induced_bound", "OperatorSequence.matrix",
                       "OperatorSequence.certificate",
                       "OperatorSequence.__init__"],
    # op_s_p50 and peak_rss_mb on series; small on grid
    "first_order": ["solve_series", "residual", "_probe_forcing",
                    "_apply_level"],
    # grid (heat)
    "resolvent": ["solve_inclusion", "solve_degenerate_vb",
                  "compose_selection", "inclusion_residual", "vb_residual"],
    # grid (wave)
    "higher_order": ["solve_second_order", "companion_D_block",
                     "second_order_residual"],
    # grid (heat_problem runs twice per heat op: solve, then the Bohr hull)
    "discretization": ["heat_problem", "wave_problem", "laplacian_1d"],
    # op_s_p50 on ap-scan; ~0 on series
    "ap_analysis": ["bohr_check", "translation_defects", "weyl_distance",
                    "besicovitch_distance", "fit_trig_poly", "omega_c_check"],
    # ap-scan (omega,c evaluation, per-tau reductions) and series (CSV)
    "seq_core": ["BiSequence.window_values", "Seminorm.of_rows", "write_csv"],
    # grid (certificate derivation solves per k)
    "numpy.linalg": ["solve", "cond"],
}

#: counters recorded at the layer boundaries, besides calls/self_s/errors
COUNTERS = {
    "operator_model.cert_cache_hit_ratio": "ratio",
    "operator_model.matrix_cache_hit_ratio": "ratio",
    "first_order.depth_max": "count",
    "first_order.depth_mean": "count",
    "ap_analysis.taus_scanned": "count",
    "seq_core.window_values.rows": "count",
    "seq_core.csv_bytes": "B",
    "cli.unattributed_frac": "ratio",
}


def function_names() -> list[str]:
    """Qualified names of every traced function, in TRACED order."""
    return [f"{layer}.{name}" for layer, names in TRACED.items()
            for name in names]


def _module(layer: str):
    return importlib.import_module(
        layer if layer == "numpy.linalg" else f"apseq.{layer}")


class Tracer:
    """Records spans and per-function totals of the ops run while installed."""

    def __init__(self):
        self.names = function_names()
        self.layer = [n.rsplit(".", 1)[0] if n.startswith("numpy.")
                      else n.split(".", 1)[0] for n in self.names]
        nf = len(self.names)
        self.calls = [0] * nf
        self.self_s = [0.0] * nf
        self.errors = [0] * nf
        self.op = -1
        # span columns
        self.s_fid = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # open spans: [span index, fid, start, child time]
        self._stack: list[list] = []
        # op time covered by spans outside the cli layer
        self._attributed_s = 0.0
        self._inclusive: dict[str, float] = {}
        self.counts = {"cert_calls": 0, "cert_hits": 0, "gen_matrix_calls": 0,
                       "gen_matrix_hits": 0, "depth_max": 0, "depth_sum": 0,
                       "depth_n": 0, "taus": 0, "rows": 0, "csv_bytes": 0}
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, fid: int) -> list:
        idx = len(self.s_fid)
        self.s_fid.append(fid)
        self.s_parent.append(self._stack[-1][0] if self._stack else -1)
        self.s_op.append(self.op)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        frame = [idx, fid, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        idx, fid, start, child = frame
        self._stack.pop()
        dur = end - start
        self.s_start[idx] = start
        self.s_end[idx] = end
        self.calls[fid] += 1
        self.self_s[fid] += dur - child
        layer = self.layer[fid]
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_layer = self.layer[parent[1]]
        else:
            parent_layer = None
        if parent_layer != layer:
            self._inclusive[layer] = self._inclusive.get(layer, 0.0) + dur
        if layer != "cli" and parent_layer in ("cli", None):
            self._attributed_s += dur

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fid: int, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            frame = tracer._enter(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[fid] += 1
                raise
            finally:
                tracer._exit(frame)
            if post:
                post(state, args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str):
        c = self.counts

        if name == "operator_model.OperatorSequence.certificate":
            def pre(args, kwargs):
                return len(args[0]._cert_cache)

            def post(before, args, kwargs, result):
                c["cert_calls"] += 1
                c["cert_hits"] += len(args[0]._cert_cache) == before
            return pre, post
        if name == "operator_model.OperatorSequence.matrix":
            def pre(args, kwargs):
                seq = args[0]
                return (len(seq._mat_cache) if seq.backend == "generator"
                        else None)

            def post(before, args, kwargs, result):
                if before is not None:
                    c["gen_matrix_calls"] += 1
                    c["gen_matrix_hits"] += len(args[0]._mat_cache) == before
            return pre, post
        if name == "first_order.solve_series":
            def post(_, args, kwargs, result):
                depths = [v for _, v in result[1].truncation_V]
                if depths:
                    c["depth_max"] = max(c["depth_max"], max(depths))
                    c["depth_sum"] += sum(depths)
                    c["depth_n"] += len(depths)
            return None, post
        if name == "ap_analysis.translation_defects":
            def post(_, args, kwargs, result):
                c["taus"] += len(result)
            return None, post
        if name == "seq_core.BiSequence.window_values":
            def post(_, args, kwargs, result):
                c["rows"] += result.shape[0]
            return None, post
        if name == "seq_core.write_csv":
            def post(_, args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                c["csv_bytes"] += os.path.getsize(path)
            return None, post
        return None, None

    def install(self) -> None:
        """Wrap every traced function at every binding site."""
        modules = [m for n, m in sys.modules.items() if m is not None
                   and (n == "apseq" or n.startswith("apseq."))]
        for fid, qual in enumerate(self.names):
            layer = self.layer[fid]
            attr = qual[len(layer) + 1:]
            owner = _module(layer)
            pre, post = self._hooks(qual)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(
                        self._wrap(fid, raw.__func__, pre, post))
                else:
                    new = self._wrap(fid, raw, pre, post)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(fid, orig, pre, post)
            for mod in [owner] + modules:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, ops: int, op_wall_s: float) -> dict[str, tuple]:
        """Per-layer metrics averaged per op: name -> (value, unit)."""
        out: dict[str, tuple] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[fid] / ops, "count")
            out[f"{name}.self_s"] = (self.self_s[fid] / ops, "s")
            out[f"{name}.errors"] = (self.errors[fid] / ops, "count")
        c = self.counts
        counters = {
            "operator_model.cert_cache_hit_ratio":
                c["cert_hits"] / c["cert_calls"] if c["cert_calls"] else 0.0,
            "operator_model.matrix_cache_hit_ratio":
                c["gen_matrix_hits"] / c["gen_matrix_calls"]
                if c["gen_matrix_calls"] else 0.0,
            "first_order.depth_max": float(c["depth_max"]),
            "first_order.depth_mean":
                c["depth_sum"] / c["depth_n"] if c["depth_n"] else 0.0,
            "ap_analysis.taus_scanned": c["taus"] / ops,
            "seq_core.window_values.rows": c["rows"] / ops,
            "seq_core.csv_bytes": c["csv_bytes"] / ops,
            "cli.unattributed_frac":
                max(0.0, 1.0 - self._attributed_s / op_wall_s)
                if op_wall_s else 0.0,
        }
        out.update({name: (counters[name], unit)
                    for name, unit in COUNTERS.items()})
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Total self time per layer, over every recorded op."""
        totals: dict[str, float] = {}
        for fid, layer in enumerate(self.layer):
            totals[layer] = totals.get(layer, 0.0) + self.self_s[fid]
        return totals

    def layer_inclusive_s(self) -> dict[str, float]:
        """Time spent under each layer's outermost spans (child layers
        included), over every recorded op."""
        return {layer: self._inclusive.get(layer, 0.0)
                for layer in dict.fromkeys(self.layer)}

    def save(self, path) -> None:
        """Write the spans as an uncompressed .npz of parallel columns."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 fid=np.frombuffer(self.s_fid, dtype=np.int32),
                 parent=np.frombuffer(self.s_parent, dtype=np.int32),
                 op=np.frombuffer(self.s_op, dtype=np.int32),
                 start=np.frombuffer(self.s_start, dtype=np.float64),
                 end=np.frombuffer(self.s_end, dtype=np.float64))
