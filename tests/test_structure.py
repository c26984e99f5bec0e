"""Package layout: what ``import shiftrules`` loads and exports, and where defaults live."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paper_forms as checks
import shiftrules
from shiftrules import (
    OptimizationConfig,
    RegularizationConfig,
    cli,
    equidistant,
    fourier,
    perturbation,
    regularization,
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
                        if m.startswith("shiftrules.") or m.split(".")[0] == "scipy")))
"""

# Runs the CLI as ``python -m shiftrules.cli ARGS`` does, then prints its
# exit code, whether the heap was frozen, whether the collector is still
# enabled, and the package's loaded submodules plus "argparse",
# "dataclasses", "gettext", "inspect", "locale", "numpy" and "numpy.random"
# if they are loaded.  An atexit callback, registered before the run,
# prints "atexit ran" last: the command ends by freezing its heap, not by
# os._exit, so the interpreter's exit still runs.
# The CLI module itself runs as __main__.
_CLI_PROBE = """
import atexit, gc, json, runpy, sys
sys.argv = ["shiftrules", *sys.argv[1:]]
atexit.register(print, "atexit ran")
code = 0
try:
    runpy.run_module("shiftrules.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps([code, gc.get_freeze_count() > 0, gc.isenabled(),
                  sorted(m for m in sys.modules if m.startswith("shiftrules.")
                         or m in ("argparse", "dataclasses", "gettext", "inspect", "locale",
                                  "numpy", "numpy.random"))]))
"""


def _probe(code, *args, cwd=None):
    """The lines a fresh interpreter running ``code`` with ``args`` prints; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_leaves_checks_and_scipy_unloaded():
    """``import shiftrules`` loads no submodule, so neither checks nor scipy."""
    assert json.loads(_probe(_IMPORT_PROBE)[-1]) == []


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    for name, eigenvalues in (("s7", [0.0, 1.0, 2.5]), ("near", [0.0, 1.0, 1.0 + 1e-9]),
                              ("eq", [0.0, 1.0, 2.0]), ("pert", [0.0, 1.02, 1.97, 3.01, 4.0])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"eigenvalues": eigenvalues}))
    (tmp_path / "model.json").write_text(json.dumps({"a0": 0.1, "terms": [{"omega": 1.0, "a": 0.5, "b": -0.2}]}))
    front = {"serialize"}
    analyze = {"serialize", "spectrum"}
    synthesize = {"serialize", "spectrum", "rule", "synthesis"}
    optimize = synthesize | {"variance"}
    oracle = {"serialize", "rule", "fourier"}
    # command -> (arguments, the modules it loads besides the CLI, whether it
    # draws with numpy: the optimizer screen, variance's noise)
    runs = {
        "analyze": (["analyze", "s7.json"], analyze, False),
        "help": (["--help"], front, False),
        **{f"{command} --help": ([command, "--help"], front, False) for command in cli._COMMANDS},
        "usage error": (["synthesize", "s7.json", "--order", "abc"], front, False),
        "synthesize": (["--output", "rule.json", "synthesize", "s7.json", "--method", "direct"],
                       synthesize, False),
        "closed form": (["--output", "eq-rule.json", "synthesize", "eq.json", "--method", "equidistant"],
                        synthesize | {"equidistant"}, False),
        "lattice": (["--output", "eq-rule.json", "synthesize", "eq.json"], synthesize, False),
        "perturbed": (["--output", "pert-rule.json", "synthesize", "pert.json"], synthesize, False),
        "validate": (["validate", "rule.json"], oracle, False),
        "validate model file": (["validate", "rule.json", "--model", "model.json"], oracle, False),
        "validate dense": (["validate", "rule.json", "--t-grid", "-3:3:5000", "--model", "random:4"],
                           oracle, False),
        "variance": (["variance", "rule.json"], oracle, True),
        "tikhonov fallback": (["--output", "near-rule.json", "synthesize", "near.json"],
                              synthesize | {"regularization"}, False),
        "optimize": (["--output", "opt.json", "optimize", "s7.json"], optimize, True),
        "optimize equidistant": (["--output", "opt.json", "optimize", "eq.json"], optimize, True),
    }
    # no numpy in these: cli imports it where it computes with arrays, and
    # validate's oracle work on a small grid is plain Python
    numpy_free = {"analyze", "help", "usage error", "validate", "validate model file",
                  *(f"{command} --help" for command in cli._COMMANDS)}
    for command, (args, modules, draws) in runs.items():
        *_, report, marker = _probe(_CLI_PROBE, "--quiet", *args, cwd=tmp_path)
        code, frozen, enabled, loaded = json.loads(report)
        assert code == (cli.EXIT_INVALID if command == "usage error" else 0), command
        assert frozen and enabled and marker == "atexit ran", command
        # the records are plain classes: no command builds dataclasses, and
        # without numpy nothing imports inspect
        assert "dataclasses" not in loaded, command
        # the command line is parsed from cli's own table: no argparse, nor the
        # gettext and locale modules its messages load
        assert not {"argparse", "gettext", "locale"} & set(loaded), command
        assert command not in numpy_free or "inspect" not in loaded, command
        numpy = [] if command in numpy_free else ["numpy"] + ["numpy.random"] * draws
        loaded = [m for m in loaded if m != "inspect"]  # numpy imports it
        assert loaded == numpy + sorted(f"shiftrules.{m}" for m in modules), command


def test_the_script_and_python_m_run_one_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text())["project"]["scripts"]
    guard = ast.parse(Path(cli.__file__).read_text()).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    entry()"
    assert scripts == {"shiftrules": "shiftrules.cli:entry"}


def test_exports_come_from_one_table_and_resolve_to_their_module():
    names = [name for names in shiftrules._EXPORTS.values() for name in names]
    assert len(set(names)) == len(names) == 29
    assert shiftrules.__all__ == sorted(names)
    assert set(names) <= set(dir(shiftrules))
    star = {}
    exec("from shiftrules import *", star)
    for module, exported in shiftrules._EXPORTS.items():
        owner = importlib.import_module(f"shiftrules.{module}")
        for name in exported:
            assert getattr(shiftrules, name) is getattr(owner, name) is star[name], name
    with pytest.raises(AttributeError, match="no_such_name"):
        shiftrules.no_such_name  # noqa: B018


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


def test_package_holds_only_the_program():
    modules = {path.stem for path in Path(shiftrules.__file__).parent.glob("*.py")}
    assert modules <= {"__init__", "cli", "serialize", *shiftrules._EXPORTS}
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("shiftrules.checks")
    # the Hamiltonian model builder is a test reference, in tests/conftest.py
    for module, name in ((fourier, "HamiltonianModel"), (fourier, "from_hamiltonian"),
                         (spectrum, "_dedup_values")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    with pytest.raises(AttributeError):
        shiftrules.HamiltonianModel  # noqa: B018


def test_public_surface_is_small():
    assert len(shiftrules.__all__) <= 29


def _complex_exponentials() -> list[tuple[str, str]]:
    """(module, innermost function) of every np.exp call in src/ whose argument holds an imaginary literal."""
    found = []
    for path in sorted(Path(shiftrules.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and ast.unparse(call.func) == "np.exp"
                    and any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                            for c in ast.walk(call))):
                inner = max((f for f in functions if f.lineno <= call.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append((path.stem, inner.name if inner else "<module>"))
    return found


def test_one_real_design_system():
    """One builder of the gap-phase exponentials, and no imaginary-part plumbing.

    Every solver works on the real system C b = t that ``build_system``
    makes from one complex exponential; ``perturbation_matrices`` builds
    the perturbation pair (R, r) of the paper's complex system, whose
    norms ``error_bound`` reads, from exponentials of k x tau.
    """
    assert _complex_exponentials() == [("perturbation", "perturbation_matrices")] * 2 + [
        ("synthesis", "build_system")]
    source = "".join(path.read_text() for path in Path(shiftrules.__file__).parent.glob("*.py"))
    for name in ("IMAG_TOL", "max_imag", ".conj()"):
        assert name not in source, name
    assert len(shiftrules.__all__) == 29


def test_unused_tolerances_are_constants():
    removed = [(synthesis.synthesize_rule, "condition_cap"), (synthesis.solve_direct, "condition_cap"),
               (synthesis._capped_solve, "condition_cap"), (variance._evaluate_point, "condition_cap"),
               (variance._evaluate_reduced, "condition_cap"),
               (spectrum.classify_structure, "perturbed_fraction"), (spectrum.gap_generator, "rel_tol"),
               (equidistant.normalized_system, "orders"),
               (synthesis.auto_phases, "tries"), (synthesis.auto_phases, "seed"),
               (synthesis.rule_for, "seed"), (RegularizationConfig, "operator_error"),
               (RegularizationConfig, "grid_min"), (RegularizationConfig, "grid_max"),
               (OptimizationConfig, "max_iters"), (variance._newton, "max_iters")]
    for function, name in removed:
        assert name not in inspect.signature(function).parameters, f"{function.__name__}({name})"


def test_synthesis_keeps_only_the_general_system():
    """One rank test in src/; the symmetric family lives in variance; no re-exported checks.

    The duplicate check sees only the phases, so no gap period decides a rank.
    """
    source = "".join(path.read_text() for path in Path(shiftrules.__file__).parent.glob("*.py"))
    assert source.count("np.finfo(float).eps") == 1
    assert "np.finfo(float).eps" in inspect.getsource(synthesis._singular_value_condition)
    assert "gap_generator" not in inspect.getsource(synthesis)
    assert list(inspect.signature(synthesis.check_phase_distinctness).parameters) == ["phases"]
    for name in ("ReducedSystem", "build_reduced_system", "reduced_parity"):
        assert not hasattr(synthesis, name), name
        assert getattr(variance, name).__module__ == variance.__name__, name
    for name in ("_finite", "_check_non_negative_int"):
        assert not hasattr(synthesis, name), name


def test_every_solver_rule_is_built_by_synthesis_rule():
    """solve_direct, the closed form and the Tikhonov rule end in synthesis._rule."""
    for solver in (synthesis.solve_direct, equidistant.closed_form_rule,
                   regularization.regularized_rule):
        assert "ShiftRule(" not in inspect.getsource(solver), solver.__name__
    assert "ShiftRule(" in inspect.getsource(synthesis._rule)
    assert not hasattr(synthesis, "_extract_real")


def test_cli_holds_no_rule_selection():
    """synthesize hands the choice of method to synthesis.rule_for.

    Only ``--method equidistant`` calls the closed form, in ``_synthesize``.
    """
    source = inspect.getsource(cli)
    for name in ("regularized_rule", "error_bound", "perturbation_matrices",
                 "check_phase_distinctness", "_singular_value_condition"):
        assert name not in source, name
    assert "closed_form_rule" not in source.replace(inspect.getsource(cli._synthesize), "")


def test_one_rank_cut_and_one_inexactness_check():
    """No absolute gamma floor beside the rank cut; synthesize judges every method's rule alike.

    One ``if`` in ``_synthesize`` holds the inexactness warning (so no
    other ``if`` encloses it), and its test names no method.
    """
    source = "".join(path.read_text() for path in Path(shiftrules.__file__).parent.glob("*.py"))
    assert "GAMMA_MIN" not in source
    tree = ast.parse(inspect.getsource(cli._synthesize))
    checks = [node for node in ast.walk(tree) if isinstance(node, ast.If)
              and any(isinstance(n, ast.Constant) and "inexact" in str(n.value) for n in ast.walk(node))]
    assert len(checks) == 1
    named = {n.value for n in ast.walk(checks[0].test) if isinstance(n, ast.Constant)}
    assert not named & {"tikhonov", "equidistant"}, ast.unparse(checks[0].test)


def test_validate_builds_one_grid_and_chooses_its_path_once():
    """One way to make the t-grid, in plain Python, and one comparison with the break-even."""
    tree = ast.parse(inspect.getsource(cli))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "linspace"]  # no np.linspace: the docstrings may name it
    assert list(inspect.signature(cli._t_grid).parameters) == ["text"]
    choices = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
               and "ORACLE_BREAK_EVEN" in ast.unparse(node)]
    assert len(choices) == 1
    assert "ORACLE_EVALUATION" in inspect.getsource(cli._validate)


def test_synthesis_classifies_nothing():
    """The classification decision lives in spectrum and the CLI: synthesis names none of it."""
    tree = ast.parse(inspect.getsource(synthesis))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    for name in ("classify_structure", "StructureKind", "DEFAULT_REL_TOL", "equidistant"):
        assert name not in names, name
    assert "rel_tol" not in inspect.signature(synthesis.rule_for).parameters


def test_cross_checks_live_only_in_checks():
    moved = {variance: ("stationarity_residual", "_fd_stationarity"),
             perturbation: ("linearized_solution",),
             equidistant: ("dirichlet_kernel", "orthogonality_residual")}
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert inspect.isfunction(getattr(checks, name))


def test_config_sections_default_to_the_dataclasses(tmp_path):
    path = tmp_path / "config.json"
    for text in ({}, {"regularization": {}, "optimization": {}}, {"regularization": {"gamma": "auto"}}):
        path.write_text(json.dumps(text))
        assert serialize.load_config(path, 7) == (RegularizationConfig(), OptimizationConfig(seed=7))


def test_cli_defaults_are_the_library_defaults(tmp_path):
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"eigenvalues": [0.0, 1.0]}))
    _, rel_tol = serialize.load_spectrum(path)  # the rel_tol the CLI classifies with
    assert rel_tol == inspect.signature(spectrum.classify_structure).parameters["rel_tol"].default
    assert spectrum.DEFAULT_DEDUP_TOL == inspect.signature(spectrum.frequency_differences).parameters["dedup_tol"].default
    assert cli._parse(["validate", "rule.json"])[1]["bound"] == cli.VALIDATION_BOUND


def test_config_file_keys_are_the_dataclass_fields(tmp_path):
    sections = {"regularization": RegularizationConfig(), "optimization": OptimizationConfig()}
    keys = {name: set(default._fields) - {"seed"}
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
                with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key '{key}' in '{name}'")):
                    serialize.load_config(path)
