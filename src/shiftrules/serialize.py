"""JSON file formats for spectra, models, rules, and the CLI config.

Floats are written with Python's shortest round-trip representation, so
a file read back and rewritten is byte-identical.  Non-finite diagnostic
values (an infinite condition number, say) are stored as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .fourier import FourierModel
from .regularization import RegularizationConfig
from .spectrum import Spectrum
from .synthesis import ShiftRule, _normalize_orders
from .variance import OptimizationConfig


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def dump_json(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_sanitize(data), indent=2, sort_keys=True) + "\n")


def dumps_report(data: dict) -> str:
    return json.dumps(_sanitize(data), indent=2, sort_keys=True)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_json(path: str | Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


# -- spectrum ----------------------------------------------------------------

def load_spectrum(path: str | Path) -> tuple[Spectrum, dict]:
    """Read a spectrum file; returns (Spectrum, extra fields like rel_tol)."""
    data = load_json(path)
    if "eigenvalues" not in data:
        raise ValueError(f"{path}: missing 'eigenvalues' field")
    values = data["eigenvalues"]
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ValueError(f"{path}: 'eigenvalues' must be an array of numbers")
    spec = Spectrum(eigenvalues=tuple(float(v) for v in sorted(values)), label=data.get("label"))
    extra = {k: data[k] for k in ("rel_tol",) if k in data}
    if not all(_is_number(v) and 0 < v < math.inf for v in extra.values()):
        raise ValueError(f"{path}: 'rel_tol' must be a finite positive number")
    return spec, extra


def save_spectrum(spec: Spectrum, path: str | Path, rel_tol: float | None = None) -> None:
    data: dict = {"eigenvalues": list(spec.eigenvalues)}
    if spec.label is not None:
        data["label"] = spec.label
    if rel_tol is not None:
        data["rel_tol"] = rel_tol
    dump_json(data, path)


# -- Fourier model -----------------------------------------------------------

def load_fourier_model(path: str | Path) -> FourierModel:
    data = load_json(path)
    if "a0" not in data:
        raise ValueError(f"{path}: missing 'a0' field")
    terms = data.get("terms", [])
    try:
        parsed = tuple(
            (float(t["omega"]), float(t["a"]), float(t["b"])) for t in terms
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed 'terms' entry: {exc}") from exc
    return FourierModel(a0=float(data["a0"]), terms=tuple(sorted(parsed)))


# -- shift rule --------------------------------------------------------------

def save_rule(rule: ShiftRule, path: str | Path) -> None:
    dump_json({
        "phases": [float(p) for p in rule.phases],
        "coefficients": [float(b) for b in rule.coefficients],
        "orders": [{"p": p, "weight": w} for (p, w) in rule.orders],
        "frequencies": [float(w) for w in rule.frequencies],
        "diagnostics": dict(rule.diagnostics),
    }, path)


def _finite_vector(data: dict, key: str, path) -> np.ndarray:
    try:
        values = np.asarray(data.get(key, []), dtype=float)  # JSON null reads as NaN
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: '{key}' must be an array of numbers: {exc}") from exc
    if values.ndim != 1 or not np.isfinite(values).all():
        raise ValueError(f"{path}: '{key}' must be an array of finite numbers")
    return values


def load_rule(path: str | Path) -> ShiftRule:
    """Read a rule file; ValueError for a missing field, an invalid order or a non-finite value."""
    data = load_json(path)
    for key in ("phases", "coefficients", "orders"):
        if key not in data:
            raise ValueError(f"{path}: missing '{key}' field")
    try:
        orders = _normalize_orders((o["p"], o["weight"]) for o in data["orders"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed 'orders' entry: {exc!r}") from exc
    return ShiftRule(
        phases=_finite_vector(data, "phases", path),
        coefficients=_finite_vector(data, "coefficients", path),
        orders=orders,
        frequencies=tuple(_finite_vector(data, "frequencies", path).tolist()),
        diagnostics=dict(data.get("diagnostics", {})),
    )


# -- CLI config --------------------------------------------------------------

def load_config(path: str | Path | None,
                seed: int = 0) -> tuple[RegularizationConfig, OptimizationConfig]:
    """The file's two settings sections as dataclasses; None means the defaults.

    A section's keys are the dataclass fields, except ``seed``, which
    comes from the argument; ``"gamma": "auto"`` means ``gamma=None``.
    An unknown key, a section that is not an object or an invalid value
    raises TypeError or ValueError naming it.
    """
    sections = {"regularization": {}, "optimization": {}}
    for name, section in (load_json(path) if path is not None else {}).items():
        if name not in sections:
            raise ValueError(f"{path}: unknown key {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: {name!r} must be an object")
        sections[name] = section
    regularization = sections["regularization"]
    if regularization.get("gamma") == "auto":
        regularization = dict(regularization, gamma=None)
    return (RegularizationConfig(**regularization),
            OptimizationConfig(**sections["optimization"], seed=seed))
