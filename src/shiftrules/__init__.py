"""Parameter-shift rule synthesis for arbitrary eigenvalue spectra.

``import shiftrules`` loads no submodule: each exported name imports its
module on first access.  The paper's alternative closed forms (Cramer,
Jacobi, determinant stationarity, ...) are test references and live in
``tests/paper_forms.py``, outside the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "equidistant": ("EquidistantStructure", "closed_form_rule", "optimal_phases"),
    "fourier": ("FourierModel", "NoiseSpec", "analytic_derivative", "evaluate"),
    "perturbation": ("error_bound", "perturbation_matrices"),
    "regularization": ("RegularizationConfig", "regularized_rule", "tikhonov_solve"),
    "rule": ("ShiftRule", "apply_rule", "confidence_interval", "variance_of_estimate"),
    "spectrum": ("FrequencySet", "Spectrum", "StructureKind", "classify_structure",
                 "frequency_differences"),
    "synthesis": ("IllPosedError", "build_system",
                  "compatibility_residual", "condition_number", "solve_direct", "synthesize_rule"),
    "variance": ("OptimizationConfig", "optimize_shifts"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Record:
    """A frozen record: each subclass's ``__init__`` checks its arguments and
    sets the fields named in ``_fields`` once, through ``__dict__``.

    Assigning or deleting an attribute then raises AttributeError; equality,
    hash and repr read the fields in order, as a frozen dataclass's do.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
