"""Scenario configuration: a JSON format with an explicit schema version.

Complex scalars are [re, im] pairs; vectors are lists of pairs; matrices
are nested lists of pairs.  Parsing and serialization round-trip exactly,
so configs double as reproducible test fixtures.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InputContractError
from .operator_model import OperatorSequence, as_matrix, induced_bound
from .seq_core import (BiSequence, Seminorm, SeminormFamily, TrigPoly, Window,
                       as_int, as_window)

SCHEMA_VERSION = 1

KINDS = ("first_order", "inclusion", "degenerate_vb", "degenerate_vb1",
         "second_order", "system_bm", "heat", "wave", "analyze")


def cnum(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise InputContractError(f"expected a number or [re, im] pair, got {v!r}")


def cvec(v) -> np.ndarray:
    return np.array([cnum(x) for x in v], dtype=np.complex128)


def cmat(rows) -> np.ndarray:
    return np.array([[cnum(x) for x in row] for row in rows],
                    dtype=np.complex128)


def cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def mat_out(m) -> list:
    return [[cpair(complex(x)) for x in row] for row in np.asarray(m)]


@dataclass
class ScenarioConfig:
    """Parsed scenario: problem kind, operator and forcing descriptors,
    seminorm family, window, tolerance, analysis requests."""

    kind: str
    dim: int
    window: Window
    tol: float
    seminorms: list[dict]
    operators: dict[str, Any] = field(default_factory=dict)
    forcing: dict | None = None
    sequences: dict[str, dict] = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise InputContractError("config must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise InputContractError(
                f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
        kind = data.get("kind")
        if kind not in KINDS:
            raise InputContractError(f"unknown problem kind {kind!r}")
        with _descriptor("window descriptor [start, end]"):
            window = as_window(data["window"])
        with _descriptor("dim descriptor"):
            dim = as_int(data.get("dim", 1), "dim descriptor")
        if dim < 1:
            raise InputContractError("dim must be >= 1")
        with _descriptor("tol descriptor"):
            tol = float(data.get("tol", 1e-10))
        if not 0 < tol < 1:
            raise InputContractError(f"tol must be in (0, 1), got {tol}")
        with _descriptor("seminorms descriptor"):
            seminorms = list(data.get("seminorms", [{"kind": "sup"}]))
        sections = {key: _object(data.get(key, {}), f"{key} descriptor")
                    for key in ("operators", "sequences", "analysis", "params")}
        return ScenarioConfig(
            kind=kind, dim=dim, window=window, tol=tol, seminorms=seminorms,
            forcing=data.get("forcing"), **sections)

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            return ScenarioConfig.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InputContractError(f"config is not valid JSON: {exc}") from exc

    @staticmethod
    def load(path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                return ScenarioConfig.from_json(fh.read())
        except OSError as exc:
            raise InputContractError(f"cannot read config {path}: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "dim": self.dim,
            "window": [self.window.start, self.window.end],
            "tol": self.tol,
            "seminorms": self.seminorms,
        }
        if self.operators:
            out["operators"] = self.operators
        if self.forcing is not None:
            out["forcing"] = self.forcing
        if self.sequences:
            out["sequences"] = self.sequences
        if self.analysis:
            out["analysis"] = self.analysis
        if self.params:
            out["params"] = self.params
        return out

    # -- materialization ----------------------------------------------------

    def param(self, name: str, convert, default=None):
        """convert(params[name]), or convert(default) for an absent key when
        a default is given, an int by as_int; a missing or unconvertible
        value is an input error."""
        what = f"params descriptor {name!r}"
        with _descriptor(what):
            value = (self.params[name] if default is None
                     else self.params.get(name, default))
            return as_int(value, what) if convert is int else convert(value)

    def family(self, dim: int | None = None) -> SeminormFamily:
        return build_family(self.seminorms, dim or self.dim)

    def operator(self, name: str, dim: int | None = None,
                 family: SeminormFamily | None = None,
                 plain: bool = False) -> OperatorSequence:
        if name not in self.operators:
            raise InputContractError(f"config lacks operators.{name}")
        return build_operator(self.operators[name], dim or self.dim,
                              None if plain else (family or self.family(dim)),
                              f"operators.{name}")

    def sequence(self, desc: dict | None, dim: int | None = None) -> BiSequence:
        if desc is None:
            raise InputContractError("config lacks a required sequence")
        return build_sequence(desc, dim or self.dim)


def _object(value, what: str) -> dict:
    """A copy of ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise InputContractError(f"{what} must be a JSON object, got {value!r}")
    return dict(value)


@contextmanager
def _descriptor(what: str):
    """A missing key or a failed conversion is an input-contract error."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputContractError(f"{what} is malformed: {exc!r}") from exc


def build_family(descs: list[dict], dim: int) -> SeminormFamily:
    sns = []
    for d in descs:
        kind = _object(d, "seminorm descriptor").get("kind")
        with _descriptor(f"seminorm descriptor {d!r}"):
            if kind == "sup":
                sns.append(Seminorm.sup(d.get("label", "sup")))
            elif kind == "p":
                sns.append(Seminorm.p_norm(float(d["p"]),
                                           d.get("label") or None))
            elif kind == "stencil":
                sns.append(Seminorm.stencil(d["offsets"],
                                            [cnum(w) for w in d["weights"]],
                                            d.get("label", "stencil")))
            elif kind == "first_difference":
                sns.append(Seminorm.first_difference(d.get("label", "d1")))
            elif kind == "second_difference":
                sns.append(Seminorm.second_difference(d.get("label", "d2")))
            else:
                raise InputContractError(f"unknown seminorm kind {kind!r}")
    return SeminormFamily.of(sns, dim)


def build_sequence(desc: dict, dim: int) -> BiSequence:
    backend = _object(desc, "sequence descriptor").get("backend")
    with _descriptor(f"sequence descriptor with backend {backend!r}"):
        if backend == "constant":
            v = cvec(desc["value"])
            seq = BiSequence.constant(v)
        elif backend == "table":
            vals = np.array([cvec(row) for row in desc["values"]])
            start = as_int(desc["start"], "table start")
            seq = BiSequence._adopt_table(start, vals,
                                          extend=desc.get("extend"))
        elif backend == "trig_poly":
            seq = BiSequence.from_trig_poly(TrigPoly.of(
                [(float(t["frequency"]), cvec(t["coefficient"]))
                 for t in desc["terms"]]))
        elif backend == "omega_c":
            base = np.array([cvec(row) for row in desc["base"]])
            omega = as_int(desc["omega"], "omega_c omega")
            seq = BiSequence.omega_c(base, omega, cnum(desc["c"]))
        elif backend == "spike":
            seq = BiSequence.spike(as_int(desc["k"], "spike k"),
                                   cvec(desc["value"]))
        elif backend == "zeros":
            seq = BiSequence.zeros(dim)
        else:
            raise InputContractError(f"unknown sequence backend {backend!r}")
    if seq.dim != dim and seq.dim != 1:
        raise InputContractError(f"sequence dim {seq.dim} does not match {dim}")
    return seq


def finite(value, what: str):
    """``value`` if all its entries are finite, else an error naming what."""
    if not np.isfinite(value).all():
        raise InputContractError(f"{what} has a non-finite value")
    return value


def build_operator(desc: dict, dim: int, family: SeminormFamily | None,
                   name: str) -> OperatorSequence:
    """The operator sequence ``operators.name`` names, certified over
    ``family`` (plain without one).  ``scaled_constant`` (k -> sum_j c_j
    e^(i lam_j k) M) declares the global sup sum_j |c_j| c(M) per seminorm,
    so its sups are exact."""
    backend = _object(desc, f"{name} descriptor").get("backend")
    what = f"{name} descriptor with backend {backend!r}"
    with _descriptor(what):
        if backend == "constant":
            return OperatorSequence.constant(as_matrix(
                finite(cmat(desc["matrix"]), f"{what}: matrix"), dim), family)
        if backend == "periodic":
            return OperatorSequence.periodic(
                [as_matrix(finite(cmat(m), f"{what}: matrices[{i}]"), dim)
                 for i, m in enumerate(desc["matrices"])], family)
        if backend == "scaled_constant":
            base = as_matrix(finite(cmat(desc["matrix"]), f"{what}: matrix"),
                             dim)
            terms = [(float(t["frequency"]), cnum(t["coefficient"]))
                     for t in desc["scale"]]
            finite(np.array(terms), f"{what}: scale")
            scale = TrigPoly.of((lam, [c]) for lam, c in terms)
            sups = None if family is None else {
                sn.label: sum(abs(c) for _, c in terms)
                * induced_bound(base, sn) for sn in family}
            return OperatorSequence(
                dim, lambda w: scale.on_window(w)[:, :, None] * base,
                family, sups)
        raise InputContractError(f"unknown operator backend {backend!r}")
