"""The benchmark's tracer wraps apseq functions by name from outside the
package; these tests keep those names, and the solver paths through them,
alive.  bench/tracing.py is only loaded, never changed."""

import importlib.util
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
