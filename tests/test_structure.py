"""Package layout: what ``import shiftrules`` loads and exports, and where defaults live."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
               (cli._auto_phases, "tries"), (RegularizationConfig, "operator_error"),
               (RegularizationConfig, "grid_min"), (RegularizationConfig, "grid_max"),
               (OptimizationConfig, "max_iters"), (variance._newton, "max_iters")]
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


def test_config_sections_default_to_the_dataclasses(tmp_path):
    for seed in (0, 7):
        assert serialize.load_config(None, seed) == (RegularizationConfig(), OptimizationConfig(seed=seed))
    path = tmp_path / "config.json"
    for text in ({}, {"regularization": {}, "optimization": {}}, {"regularization": {"gamma": "auto"}}):
        path.write_text(json.dumps(text))
        assert serialize.load_config(path, 7) == (RegularizationConfig(), OptimizationConfig(seed=7))


def test_cli_defaults_are_the_library_defaults():
    assert cli.DEFAULT_REL_TOL == inspect.signature(spectrum.classify_structure).parameters["rel_tol"].default
    assert spectrum.DEFAULT_DEDUP_TOL == inspect.signature(spectrum.frequency_differences).parameters["dedup_tol"].default
    bound = next(p for p in cli.validate.params if p.name == "bound")
    assert bound.default == cli.VALIDATION_BOUND


def test_config_file_keys_are_the_dataclass_fields(tmp_path):
    sections = {"regularization": RegularizationConfig(), "optimization": OptimizationConfig()}
    keys = {name: {f.name for f in dataclasses.fields(default)} - {"seed"}
            for name, default in sections.items()}
    assert keys == {"regularization": {"gamma", "data_error"},
                    "optimization": {"tol", "multistarts"}}
    path = tmp_path / "config.json"
    for name, default in sections.items():
        for key in keys[name] | {"seed", "unknown"}:
            path.write_text(json.dumps({name: {key: getattr(default, key, 1)}}))
            if key in keys[name]:
                assert serialize.load_config(path) == tuple(sections.values())
            else:
                with pytest.raises(TypeError, match=key):
                    serialize.load_config(path)
