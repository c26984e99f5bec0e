"""Package layout: what ``import shiftrules`` loads and exports, and where defaults live."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import shiftrules
from shiftrules import (
    OptimizationConfig,
    RegularizationConfig,
    checks,
    cli,
    equidistant,
    fourier,
    perturbation,
    serialize,
    spectrum,
    synthesis,
    variance,
)
from shiftrules.spectrum import DEFAULT_DEDUP_TOL, classify_structure

SRC = str(Path(shiftrules.__file__).resolve().parents[1])

_IMPORT_PROBE = """
import json, sys
import shiftrules
print(json.dumps(sorted(m for m in sys.modules
                        if m == "shiftrules.checks" or m.split(".")[0] == "scipy")))
"""


def test_import_leaves_checks_and_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_every_exported_name_resolves():
    for name in shiftrules.__all__:
        assert hasattr(shiftrules, name), name


def test_no_cross_check_is_exported():
    cross_checks = {name for name, obj in vars(checks).items()
                    if inspect.isfunction(obj) and obj.__module__ == checks.__name__}
    assert cross_checks
    assert not cross_checks & set(shiftrules.__all__)
    assert all(getattr(shiftrules, name, None) is not getattr(checks, name)
               for name in cross_checks)


def test_public_surface_is_small():
    assert len(shiftrules.__all__) <= 31


def test_unused_tolerances_are_constants():
    removed = [(synthesis.synthesize_rule, "condition_cap"), (synthesis.solve_direct, "condition_cap"),
               (synthesis._capped_solve, "condition_cap"), (variance._evaluate_point, "condition_cap"),
               (variance._evaluate_reduced, "condition_cap"),
               (spectrum.classify_structure, "perturbed_fraction"), (spectrum.gap_generator, "rel_tol"),
               (fourier.from_hamiltonian, "dedup_tol"), (fourier.from_hamiltonian, "coeff_tol"),
               (cli._auto_phases, "tries")]
    for function, name in removed:
        assert name not in inspect.signature(function).parameters, f"{function.__name__}({name})"


def test_cross_checks_live_only_in_checks():
    moved = {variance: ("stationarity_residual", "_fd_stationarity"),
             perturbation: ("linearized_solution",),
             equidistant: ("dirichlet_kernel", "orthogonality_residual")}
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert inspect.isfunction(getattr(checks, name))


def test_config_sections_default_to_the_dataclasses():
    for seed in (0, 7):
        assert serialize.optimization_config({}, seed=seed) == OptimizationConfig(seed=seed)
    assert serialize.regularization_config({}) == RegularizationConfig()
    assert serialize.regularization_config({"gamma": "auto", "grid": {}}) == RegularizationConfig()


def test_cli_defaults_are_the_library_defaults():
    cfg = serialize.load_config(None)
    assert cfg["dedup_tol"] == DEFAULT_DEDUP_TOL
    assert cfg["rel_tol"] == inspect.signature(classify_structure).parameters["rel_tol"].default
