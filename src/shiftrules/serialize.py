"""JSON file formats for spectra, models, rules, and the CLI config.

Floats are written with Python's shortest round-trip representation, so
a file read back and rewritten is byte-identical.  Non-finite diagnostic
values (an infinite condition number, say) are stored as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # each loader imports its module, numpy included, when it runs
    from .fourier import FourierModel
    from .regularization import RegularizationConfig
    from .rule import ShiftRule
    from .spectrum import Spectrum
    from .variance import OptimizationConfig


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):  # np.float64 included
        v = float(obj)
        return v if math.isfinite(v) else None
    if hasattr(obj, "tolist"):  # any other numpy scalar or array
        return _sanitize(obj.tolist())
    return obj


def dumps_report(data: dict) -> str:
    return json.dumps(_sanitize(data), indent=2, sort_keys=True)


def dump_json(data: dict, path: str | Path) -> None:
    Path(path).write_text(dumps_report(data) + "\n")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_int(text: str) -> int:
    value = int(text)
    float(value)  # OverflowError where no float holds it, as a loader's float() would raise later
    return value


def load_json(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except OverflowError:
            raise ValueError(f"{path}: an integer is too large for a float") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


# -- spectrum ----------------------------------------------------------------

def load_spectrum(path: str | Path) -> tuple[Spectrum, float]:
    """Read a spectrum file; returns (Spectrum, its rel_tol or DEFAULT_REL_TOL)."""
    from .spectrum import DEFAULT_REL_TOL, Spectrum

    data = load_json(path)
    if "eigenvalues" not in data:
        raise ValueError(f"{path}: missing 'eigenvalues' field")
    values = data["eigenvalues"]
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ValueError(f"{path}: 'eigenvalues' must be an array of numbers")
    try:
        spec = Spectrum(eigenvalues=tuple(float(v) for v in sorted(values)), label=data.get("label"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    rel_tol = data.get("rel_tol", DEFAULT_REL_TOL)
    if not (_is_number(rel_tol) and 0 < rel_tol < math.inf):
        raise ValueError(f"{path}: 'rel_tol' must be a finite positive number")
    return spec, float(rel_tol)


# -- Fourier model -----------------------------------------------------------

def load_fourier_model(path: str | Path) -> FourierModel:
    from .fourier import FourierModel

    data = load_json(path)
    if "a0" not in data:
        raise ValueError(f"{path}: missing 'a0' field")
    try:
        parsed = [(t["omega"], t["a"], t["b"]) for t in data.get("terms", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed 'terms' entry: {exc}") from exc
    if not all(_is_number(v) for v in (data["a0"], *(v for term in parsed for v in term))):
        raise ValueError(f"{path}: 'a0' and each term's 'omega', 'a' and 'b' must be numbers")
    terms = tuple(sorted(tuple(float(v) for v in term) for term in parsed))
    try:
        return FourierModel(a0=float(data["a0"]), terms=terms)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# -- shift rule --------------------------------------------------------------

def save_rule(rule: ShiftRule, path: str | Path) -> None:
    dump_json({
        "phases": [float(p) for p in rule.phases],
        "coefficients": [float(b) for b in rule.coefficients],
        "orders": [{"p": p, "weight": w} for (p, w) in rule.orders],
        "frequencies": [float(w) for w in rule.frequencies],
        "diagnostics": dict(rule.diagnostics),
    }, path)


def _finite_vector(data: dict, key: str, path) -> tuple[float, ...]:
    values = data.get(key, [])
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ValueError(f"{path}: '{key}' must be an array of numbers")
    values = tuple(float(v) for v in values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: '{key}' must be an array of finite numbers")
    return values


def read_rule(path: str | Path) -> ShiftRule:
    """Read a rule file without numpy: its phases and coefficients are tuples of floats.

    ValueError, naming the file, for a missing field, no phases, an
    invalid order, a non-finite value, more phases than coefficients or
    fewer, frequencies that are not positive and strictly increasing or
    diagnostics that are not an object.
    """
    from .rule import ShiftRule, _normalize_orders

    data = load_json(path)
    for key in ("phases", "coefficients", "orders"):
        if key not in data:
            raise ValueError(f"{path}: missing '{key}' field")
    try:
        orders = _normalize_orders((o["p"], o["weight"]) for o in data["orders"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed 'orders' entry: {exc!r}") from exc
    frequencies = _finite_vector(data, "frequencies", path)
    if not all(a < b for a, b in zip((0.0, *frequencies), frequencies)):
        raise ValueError(f"{path}: 'frequencies' must be positive and strictly increasing")
    diagnostics = data.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        raise ValueError(f"{path}: 'diagnostics' must be an object")
    phases = _finite_vector(data, "phases", path)
    if not len(phases):
        raise ValueError(f"{path}: 'phases' must not be empty")
    coefficients = _finite_vector(data, "coefficients", path)
    try:
        return ShiftRule(phases, coefficients, orders, frequencies, diagnostics)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_rule(path: str | Path) -> ShiftRule:
    """``read_rule`` with the phases and coefficients as float arrays."""
    import numpy as np

    from .rule import ShiftRule

    rule = read_rule(path)
    return ShiftRule(np.asarray(rule.phases, dtype=float), np.asarray(rule.coefficients, dtype=float),
                     rule.orders, rule.frequencies, rule.diagnostics)


# -- CLI config --------------------------------------------------------------

def load_config(path: str | Path,
                seed: int = 0) -> tuple[RegularizationConfig, OptimizationConfig]:
    """The config file's two settings sections as config records.

    A section's keys are the records' fields, except ``seed``, which
    comes from the argument; ``"gamma": "auto"`` means ``gamma=None``.
    An unknown key (named with its section), a section that is not an
    object or an invalid value raises ValueError naming the file.
    """
    from .regularization import RegularizationConfig
    from .variance import OptimizationConfig

    records = {"regularization": RegularizationConfig, "optimization": OptimizationConfig}
    sections = {name: {} for name in records}
    for name, section in load_json(path).items():
        if name not in sections:
            raise ValueError(f"{path}: unknown key {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: {name!r} must be an object")
        for key in section:
            if key not in records[name]._fields or key == "seed":
                raise ValueError(f"{path}: unknown key {key!r} in {name!r}")
        sections[name] = section
    regularization = sections["regularization"]
    if regularization.get("gamma") == "auto":
        regularization = dict(regularization, gamma=None)
    try:
        return (RegularizationConfig(**regularization),
                OptimizationConfig(**sections["optimization"], seed=seed))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
