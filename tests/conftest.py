import os
from pathlib import Path

import numpy as np
import pytest

from apseq import OperatorSequence
from apseq.operator_model import induced_bound

# CLI tests run ``python -m apseq.cli`` in subprocesses, which import the
# package from src/ as the tests do (pyproject's pytest pythonpath)
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def scaled_to_certificate(m, family, target):
    """Rescale a matrix so its worst induced bound over the family equals
    target."""
    worst = max(induced_bound(m, sn) for sn in family)
    return m * (target / worst)


def random_certified_operator(rng, family, target_sup, backend="constant",
                              period=3, probe=None):
    """Random operator sequence whose auto-certificates stay at target_sup."""
    dim = family.dim
    if backend == "constant":
        m = scaled_to_certificate(random_matrix(rng, dim), family, target_sup)
        return OperatorSequence.constant(m, family=family)
    if backend == "periodic":
        mats = [scaled_to_certificate(random_matrix(rng, dim), family,
                                      target_sup * rng.uniform(0.5, 1.0))
                for _ in range(period)]
        return OperatorSequence.periodic(mats, family=family)
    if backend == "generator":
        base = scaled_to_certificate(random_matrix(rng, dim), family,
                                     target_sup)

        def fn(k, _b=base):
            return _b * (0.55 + 0.45 * np.sin(0.7 * k))

        return OperatorSequence.from_function(dim, fn, family=family,
                                              sup_probe=probe or (-64, 64))
    raise ValueError(backend)


def reference_row_values(sn, rows):
    """Per-row seminorm values with every row reduction taken along axis 1,
    the reference for the reductions Seminorm.of_rows uses."""
    rows = np.asarray(rows, dtype=np.complex128)
    if sn.kind == "sup":
        return np.abs(rows).max(axis=1)
    if sn.kind == "p":
        return (np.abs(rows) ** sn.p).sum(axis=1) ** (1.0 / sn.p)
    if sn.kind == "stencil":
        return np.abs(rows @ sn.stencil_matrix(rows.shape[1]).T).max(axis=1)
    assert sn.kind == "block_sum"
    d = rows.shape[1] // sn.blocks
    out = np.zeros(rows.shape[0])
    for i in range(sn.blocks):
        out += reference_row_values(sn.base, rows[:, i * d:(i + 1) * d])
    return out


def exhaustive_bohr_check(F, sn, epsilon, k_window, tau_range, L):
    """The Bohr scan with an exact defect for every candidate tau, the
    reference for bohr_check's pruned scan."""
    from apseq.ap_analysis import APReport, translation_defects
    from apseq.seq_core import as_window

    k_window, tau_range = as_window(k_window), as_window(tau_range)
    taus = np.arange(tau_range.start, tau_range.end + L + 1)
    defects = translation_defects(F, sn, k_window, taus)
    windows = np.lib.stride_tricks.sliding_window_view(defects, L + 1)
    max_defect = float(windows.min(axis=1).max())
    verdict = bool(max_defect <= epsilon)
    return APReport(epsilon=float(epsilon), seminorm_label=sn.label,
                    verdict=verdict, witness_L=L if verdict else None,
                    translation_numbers=taus[defects <= epsilon].tolist(),
                    max_defect=max_defect,
                    k_window=(k_window.start, k_window.end),
                    tau_range=(tau_range.start, tau_range.end))
