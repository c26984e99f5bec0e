import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftrules
from conftest import run_cli, well_posed_phases
from paper_forms import paper_system
from shiftrules import (
    Spectrum,
    analytic_derivative,
    apply_rule,
    cli,
    compatibility_residual,
    evaluate,
    fourier,
    frequency_differences,
    serialize,
    synthesize_rule,
)
from shiftrules.cli import _parse, _random_models
from shiftrules.fourier import evaluate_models
from shiftrules.synthesis import CONDITION_CAP, build_system, condition_number
from test_golden import CASES as GOLDEN_CASES
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_regularization import _gamma_floor

SRC = str(Path(shiftrules.__file__).resolve().parents[1])


def _python(args, cwd=None):
    """Run the interpreter on the package under test in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def eq_spectrum(tmp_path):
    return _write(tmp_path, "eq.json", {"eigenvalues": [0.0, 1.0, 2.0]})


@pytest.fixture
def two_level(tmp_path):
    return _write(tmp_path, "two.json", {"eigenvalues": [0.0, 1.0]})


@pytest.fixture
def unstructured(tmp_path):
    return _write(tmp_path, "free.json", {"eigenvalues": [0.0, 1.0, 2.5]})


@pytest.fixture
def near_degenerate(tmp_path):
    return _write(tmp_path, "near.json", {"eigenvalues": [0.0, 1.0, 1.0 + 1e-9]})


def test_analyze_equidistant(eq_spectrum):
    result = run_cli(["analyze", eq_spectrum])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["kind"] == "equidistant"
    assert report["delta"] == pytest.approx(1.0)
    assert report["m"] == 5


def test_analyze_unstructured(unstructured):
    result = run_cli(["analyze", unstructured])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["kind"] == "unstructured"
    assert report["m"] == 7


def test_analyze_single_eigenvalue_invalid(tmp_path):
    path = _write(tmp_path, "one.json", {"eigenvalues": [0.0]})
    result = run_cli(["analyze", path])
    assert result.exit_code == 3
    assert "at least 2" in result.output


def test_analyze_missing_file():
    result = run_cli(["analyze", "does-not-exist.json"])
    assert result.exit_code == 3


def test_synthesize_equidistant_auto(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", two_level])
    assert result.exit_code == 0
    rule = serialize.load_rule(out)
    np.testing.assert_allclose(
        rule.phases, [-2 * np.pi / 3, -4 * np.pi / 3, -2 * np.pi], atol=1e-12
    )
    report = json.loads(result.output)
    assert report["method"] == "direct" and report["structure"] == "equidistant"
    assert report["attempts"] == [
        {"method": "direct", "left": None, "message": None, "condition_number": None}]


@pytest.mark.parametrize("eigenvalues, options, message", [
    ([0.0, 1.0, 2.5], [], "spectrum is not equidistant; cannot use the closed form"),
    ([0.0, 1.02, 1.97, 3.01, 4.0], [], "spectrum is not equidistant; cannot use the closed form"),
    ([0.0, 1.0, 2.0], ["--phases", "-1,-2,-3,-4,-5"], "the equidistant method fixes its own phases"),
], ids=["closed-form-unstructured", "closed-form-perturbed", "closed-form-with-phases"])
def test_synthesize_closed_form_exits_invalid(tmp_path, eigenvalues, options, message):
    path = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues})
    out = tmp_path / "rule.json"
    result = run_cli(["--output", str(out), "synthesize", path, "--method", "equidistant", *options])
    assert result.exit_code == 3
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("eigenvalues, rel_tol, method", [
    # 8 levels, one 2e-4 off the lattice: equidistant at rel_tol 1e-3, well-posed on its own gaps
    ([0.0, 1.0, 2.0, 3.0002, 4.0, 5.0, 6.0, 7.0], 1e-3, "direct"),
    # 16 levels, the top one 9e-10 high: ill-posed on its own gaps, so a Tikhonov rule, exact as well
    ([*map(float, range(15)), 15 + 9e-10], 1e-9, "regularized"),
], ids=["n8-rel-tol-1e-3", "n16-top-9e-10"])
def test_synthesize_near_lattice_solves_on_its_own_gaps(tmp_path, eigenvalues, rel_tol, method):
    """A spectrum within rel_tol of a lattice gets no closed form of its mean gap."""
    path = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues, "rel_tol": rel_tol})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert (report["structure"], report["method"]) == ("equidistant", method)
    assert not [w for w in report["warnings"] if "inexact" in w]
    freq = frequency_differences(Spectrum(eigenvalues))
    assert compatibility_residual(serialize.load_rule(out), freq) <= 1e-13


@pytest.mark.parametrize("eigenvalues, rel_tol, order, inexact", [
    ([0.0, 1.0, 2.4], 0.5, 1, True),
    ([0.0, 1.0, 2.0, 3.0002, 4.0, 5.0, 6.0, 7.0], 1e-3, 1, True),
    ([*map(float, range(16))], 1e-9, 3, False),
], ids=["n3-rel-tol-0.5", "n8-rel-tol-1e-3", "lattice-n16-p3"])
def test_closed_form_warns_when_inexact_on_the_spectrums_own_gaps(tmp_path, eigenvalues, rel_tol,
                                                                  order, inexact):
    """--method equidistant solves the mean gap's lattice; off it, the rule is written with a warning."""
    path = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues, "rel_tol": rel_tol})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", path, "--method", "equidistant", "-p", str(order)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["method"] == "equidistant"
    residual = compatibility_residual(serialize.load_rule(out), frequency_differences(Spectrum(eigenvalues)))
    assert (residual > cli.VALIDATION_BOUND) is inexact
    if inexact:
        assert report["warnings"] == [
            f"rule is inexact on the spectrum's own gaps: residual {residual:.3g} "
            f"exceeds validation_bound {cli.VALIDATION_BOUND:.3g}"]
    else:
        assert report["warnings"] == []


def test_synthesize_forced_direct_ill_posed(near_degenerate, tmp_path):
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", near_degenerate, "--method", "direct"])
    assert result.exit_code == 2
    assert "condition" in result.output


def test_near_degenerate_auto_rule_is_exact_and_validates_at_every_seed(near_degenerate, tmp_path):
    """The auto rule of (0, 1, 1+1e-9) falls back from the capped direct solve to an
    exact Tikhonov rule: no inexact warning, and validate passes whichever models it draws."""
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", near_degenerate])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    direct = report["attempts"][0]
    assert report["warnings"] == [f"direct synthesis ill-posed ({direct['message']}); "
                                  "falling back to tikhonov"]
    for seed in range(12):
        result = run_cli(["--seed", str(seed), "validate", out])
        assert result.exit_code == 0, (seed, result.output)
    result = run_cli(["--output", str(tmp_path / "direct.json"), "synthesize", near_degenerate,
                      "--method", "direct"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["synthesize"], ["synthesize", "--method", "direct"], ["synthesize", "--method", "tikhonov"],
    ["optimize"],
])
def test_overflowing_derivative_target_exits_ill_posed(tmp_path, args):
    spec = _write(tmp_path, "s7.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    result = _python(["-m", "shiftrules.cli", "--output", "rule.json", *args, spec, "--order", "1000"],
                     cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "overflows" in result.stderr
    assert not (tmp_path / "rule.json").exists()


@pytest.mark.parametrize("args", [["synthesize"], ["synthesize", "--method", "direct"], ["optimize"]])
def test_overflowing_phase_period_exits_ill_posed(tmp_path, args):
    spec = _write(tmp_path, "tiny.json", {"eigenvalues": [0.0, 1e-310]})
    result = _python(["-m", "shiftrules.cli", "--output", "rule.json", *args, spec], cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "overflow" in result.stderr and "1e-310" in result.stderr
    assert not (tmp_path / "rule.json").exists()


def test_validate_fails_on_non_finite_errors(tmp_path):
    result = _python(["-m", "shiftrules.cli", "validate", _overflow_rule_file(tmp_path)])
    assert result.returncode == 1
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["passed"] is False
    assert report["max_scaled_error"] is None and report["mean_abs_error"] is None


@pytest.mark.parametrize("args", [
    ["synthesize", "--order", "1000"], ["synthesize", "--order", "1000", "--method", "direct"],
    ["optimize", "--order", "1000"], ["synthesize", "--order", "1000", "--method", "tikhonov"],
])
def test_overflowing_coefficients_exit_ill_posed(tmp_path, args):
    """(0, 1, 2): the target 2^p is finite, but sum b^2 overflows."""
    spec = _write(tmp_path, "eq.json", {"eigenvalues": [0.0, 1.0, 2.0]})
    command, *options = args
    result = _python(["-m", "shiftrules.cli", "--output", "rule.json", command, spec, *options],
                     cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert not (tmp_path / "rule.json").exists()


def test_optimize_near_overflow_keeps_the_lowest_point_uncertified(tmp_path):
    """(0, 1, 2) at p = 500: sum b^2 ~ 4e300 is finite at the start, but its Hessian
    overflows near it, so the descent stops early and says so."""
    spec = _write(tmp_path, "eq.json", {"eigenvalues": [0.0, 1.0, 2.0]})
    result = _python(["-m", "shiftrules.cli", "--output", "rule.json", "optimize", spec,
                      "--order", "500"], cwd=tmp_path)
    assert result.returncode == 0
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["square_norm_after"] < report["square_norm_before"]
    assert "uncertified" in report["warnings"][0]


@pytest.mark.parametrize("args", [
    ["synthesize", "{spec}", "--order", "abc"], ["synthesize", "{spec}", "--method", "bogus"],
    ["frobnicate", "{spec}"], ["synthesize"], [], ["{spec}", "analyze"],
    ["analyze", "{spec}", "--seed", "1"], ["synthesize", "{spec}", "--ord", "2"],
    ["synthesize", "{spec}", "--order"], ["analyze", "{spec}", "{spec}"], ["--quiet=yes", "analyze", "{spec}"],
])
def test_usage_errors_exit_invalid(tmp_path, args):
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]})
    result = run_cli(["--output", str(tmp_path / "rule.json")] + [a.format(spec=spec) for a in args])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.stderr.splitlines()
    assert lines[-1].startswith("error: ") and sum(line.startswith("error") for line in lines) == 1
    assert result.stdout == ""
    assert not (tmp_path / "rule.json").exists()


def test_an_option_without_its_value_is_a_usage_error(tmp_path):
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]})
    result = run_cli(["--output", str(tmp_path / "rule.json"), "synthesize", spec, "--phases"])
    assert result.exit_code == 3
    assert result.stderr.splitlines()[-1] == "error: argument --phases: expected one argument"
    assert not (tmp_path / "rule.json").exists()


@pytest.mark.parametrize("command", ["analyze", "synthesize", "validate", "optimize", "variance"])
def test_negative_seed_is_a_usage_error(tmp_path, command):
    target = _write(tmp_path, "rule.json", _RULE) if command in ("validate", "variance") \
        else _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    out = tmp_path / "out.json"
    result = run_cli(["--seed", "-1", "--output", str(out), command, target])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.stderr.splitlines()
    assert lines[0].startswith("usage: ") and lines[-1].startswith("error: argument --seed")
    assert sum(line.startswith("error") for line in lines) == 1
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args, name, value", [
    (["synthesize", "s.json", "--phases", "-0.35,-0.9"], "phases", "-0.35,-0.9"),
    (["synthesize", "s.json", "--phases=-0.35,-0.9"], "phases", "-0.35,-0.9"),
    (["optimize", "s.json", "--phases", "-1,-2,-3"], "phases", "-1,-2,-3"),
    (["validate", "r.json", "--t-grid", "-3:3:5000"], "t_grid", "-3:3:5000"),
    (["validate", "r.json", "--model", "-model.json"], "model", "-model.json"),
    (["--output", "-rule.json", "synthesize", "s.json"], "output", "-rule.json"),
    (["synthesize", "s.json", "-p", "-1"], "order", -1),
    (["optimize", "s.json", "-p2"], "order", 2),
    (["analyze", "--", "-spectrum.json"], "spectrum_file", "-spectrum.json"),
    (["synthesize", "s.json", "-p", "2", "--order=3"], "order", 3),
    (["--seed", "4", "--seed=5", "validate", "r.json"], "seed", 5),
])
def test_option_values_may_begin_with_a_dash(args, name, value):
    assert _parse(args)[1][name] == value


@pytest.mark.parametrize("command, defaults", [
    (None, {"--config": None, "--seed": "0", "--output": None, "--quiet": None}),
    ("analyze", {}),
    ("synthesize", {"--order": "1", "--method": "auto", "--phases": "auto"}),
    ("validate", {"--model": "random:3", "--t-grid": "-3.141592653589793:3.141592653589793:100",
                  "--bound": "1e-08"}),
    ("optimize", {"--order": "1", "--phases": "auto"}),
    ("variance", {"--sigma": "1.0", "--shots": "10000", "--eta": "0.1"}),
])
def test_help_lists_each_option_with_its_default(command, defaults):
    """Top-level and COMMAND help; test_structure's import probe checks that they load no numpy."""
    for flag in ("--help", "-h"):
        result = run_cli([command, flag] if command else [flag])
        assert (result.exit_code, result.stderr) == (0, ""), result.stderr
        lines = result.stdout.splitlines()
        assert lines[0].startswith(f"usage: shiftrules [options] {command or 'COMMAND'} [options] ")
        shown = {line.split()[0]: lines[i + 1] for i, line in enumerate(lines)
                 if line.startswith("  --") and line.split()[0] != "--help"}
        assert shown.keys() == defaults.keys()
        for option, default in defaults.items():  # None: an option without a default
            assert ("[default: " in shown[option]) == (default is not None), option
            assert default is None or shown[option].endswith(f"[default: {default}]"), option


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    monkeypatch.setattr(sys, "argv", ["shiftrules", "analyze", spec])
    result = run_cli(None)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["m"] == 7


def test_negative_grid_and_phases_run_end_to_end(tmp_path):
    spec = _write(tmp_path, "s7.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", spec, "--method", "direct",
                      "--phases", "-0.35,-0.9,-1.7,-2.45,-3.3,-4.15,-5.2"])
    assert result.exit_code == 0, result.output
    result = run_cli(["validate", out, "--t-grid", "-3:3:5000"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["grid_points"] == 5000


def test_synthesize_auto_falls_back_to_tikhonov(near_degenerate, tmp_path):
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", near_degenerate])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "regularized"
    assert report["warnings"]
    direct, tikhonov = report["attempts"]
    assert (direct["method"], direct["left"], tikhonov) == (
        "direct", "ill_posed",
        {"method": "tikhonov", "left": None, "message": None, "condition_number": None})
    assert report["warnings"][0] == (f"direct synthesis ill-posed ({direct['message']}); "
                                     "falling back to tikhonov")
    assert direct["condition_number"] > CONDITION_CAP


def test_synthesize_warns_when_regularized_rule_is_inexact(near_degenerate, tmp_path):
    """A data error of 1e-3 makes the discrepancy principle trade exactness for a
    smaller norm: synthesize writes that Tikhonov rule, exits 0 and warns of its
    residual on the spectrum's own gaps, and validate fails it."""
    config = _write(tmp_path, "cfg.json", {"regularization": {"data_error": 1e-3}})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--config", config, "--output", out, "synthesize", near_degenerate])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "regularized"
    residual = compatibility_residual(serialize.load_rule(out),
                                      frequency_differences(Spectrum((0.0, 1.0, 1.0 + 1e-9))))
    assert residual > 1e-8
    inexact = [w for w in report["warnings"] if "inexact" in w]
    assert inexact == [f"rule is inexact on the spectrum's own gaps: residual {residual:.3g} "
                       "exceeds validation_bound 1e-08"]
    result = run_cli(["validate", out])
    assert result.exit_code == 1


_S21 = (0.0, 1.0, 2.5, 4.1, 6.0)
# (name, eigenvalues, command and options): the 13 golden cases, S21 at p = 1-12, and a wider
# spectrum at p = 6 and 12, whose direct rules carry a round-off eps * |b|_1 near or above the bound
_VERDICT_CASES = [
    *((name, *GOLDEN_CASES[name]) for name in sorted(GOLDEN_CASES)),
    *((f"s21-p{p}", _S21, ["synthesize", "-p", str(p)]) for p in range(1, 13)),
    *((f"wide-p{p}", (0.0, 3.0, 7.5, 12.3, 18.0), ["synthesize", "-p", str(p)]) for p in (6, 12)),
]


@pytest.mark.parametrize("name, eigenvalues, args", _VERDICT_CASES, ids=[c[0] for c in _VERDICT_CASES])
def test_synthesize_warns_by_each_gaps_scaled_residual(tmp_path, name, eigenvalues, args):
    """A written rule carries the "inexact" warning exactly when some gap g has
    |r(g)| / (1 + |mu(g)|) above validate's default bound, r = E b - mu as in the
    paper's complex system up to either product's round-off.  A constant model sees
    r(0) alone, at scale 1, so validate fails it only on a warned rule, and likewise
    its random models at --seed 0; on the goldens those fail exactly the warned rule."""
    spectrum = _write(tmp_path, "spec.json", {"eigenvalues": [float(v) for v in eigenvalues]})
    out = str(tmp_path / "rule.json")
    options = ["--seed", "0", "--output", out]
    if name in GOLDEN_CONFIGS:
        options += ["--config", _write(tmp_path, "cfg.json", GOLDEN_CONFIGS[name])]
    command, *rest = args
    result = run_cli([*options, command, spectrum, *rest])
    assert result.exit_code == 0, result.output
    warned = any("inexact" in w for w in json.loads(result.stdout)["warnings"])
    rule = serialize.load_rule(out)
    freq = frequency_differences(Spectrum(tuple(float(v) for v in eigenvalues)))
    paper, b = paper_system(freq, rule.phases, rule.orders), rule.coefficients
    scaled = compatibility_residual(rule, freq, relative=True)
    per_gap = np.abs(paper.matrix @ b - paper.rhs) / (1 + np.abs(paper.rhs))
    assert abs(scaled - per_gap.max()) <= 2.0**-52 * (1 + np.abs(b).sum())
    assert warned is (scaled > cli.VALIDATION_BOUND)
    constant = _write(tmp_path, "const.json", {"a0": 1.0, "terms": []})
    validated = [run_cli(["--seed", "0", "validate", out, *model]).exit_code
                 for model in ([], ["--model", constant])]
    assert set(validated) <= {0, 1}
    assert warned or validated == [0, 0]
    if name in GOLDEN_CASES:
        assert warned is (validated[0] == 1)
        assert warned is (name == "synth_s7_tikhonov_discrepancy")


@pytest.fixture
def imaginary_part_case(tmp_path):
    """A spectrum and phases under the condition cap (cond 6.4e7) where a solve of
    the paper's complex system leaves an imaginary round-off part above 1e-9
    relative; the real system has none to refuse."""
    eigenvalues = (0.0, 0.513114, 1.229844, 2.009326, 3.425672)
    freq = frequency_differences(Spectrum(eigenvalues))
    w = np.asarray(freq.unique_frequencies)
    lo = -2 * np.pi / max(w.min(), np.median(w) / 4)
    rng = np.random.default_rng(2)
    draws = [rng.uniform(lo + 1e-3, -1e-3, freq.m) for _ in range(64)]
    phases = min(draws, key=lambda ph: condition_number(build_system(freq, ph).matrix))
    path = _write(tmp_path, "imag.json", {"eigenvalues": list(eigenvalues)})
    return path, ",".join(repr(float(p)) for p in phases)


def test_synthesize_direct_imaginary_part_case_is_exact(imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", spec, "--method", "direct",
                      "--phases", phases])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["method"] == "direct"
    rule = serialize.load_rule(out)
    freq = frequency_differences(Spectrum(tuple(json.loads(Path(spec).read_text())["eigenvalues"])))
    assert compatibility_residual(rule, freq) <= 1e-12
    assert run_cli(["validate", out]).exit_code == 0


def test_synthesize_auto_imaginary_part_case_solves_directly(imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", spec, "--phases", phases])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "direct"
    assert not any("falling back" in w for w in report["warnings"])


def test_optimize_imaginary_part_case_has_a_before(imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "opt.json")
    result = run_cli(["--output", out, "optimize", spec, "--phases", phases])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert np.isfinite(report["square_norm_before"])
    assert report["square_norm_after"] > 0


@pytest.mark.parametrize("eigenvalues", [
    [0.0, 1.0, 2.5, 4.1, 6.0],        # m = 21, gap resolution 0.1
    [0.0, 0.7, 1.9, 3.2, 3.3, 5.0],   # m = 31, gap resolution 0.1
], ids=["S21", "S31"])
def test_synthesize_auto_phases_resolve_close_gaps(tmp_path, eigenvalues):
    # auto phases spanning one period of the gap resolution keep the
    # system well-conditioned, so the rule is direct and validates
    spec = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--seed", "0", "--output", out, "synthesize", spec])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["method"] == "direct"
    result = run_cli(["--seed", "0", "validate", out, "--model", "random:4"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["passed"] is True


def test_auto_phases_fit_a_narrow_window(tmp_path):
    """(0, 1e4, 2.5e4), S7 in larger units: the phase window [-2*pi/5e3, 0) is one
    period of the gap resolution, and the pick may include its left end."""
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1e4, 2.5e4]})
    out, opt = str(tmp_path / "rule.json"), str(tmp_path / "opt.json")
    result = run_cli(["--output", out, "synthesize", spec])
    assert result.exit_code == 0, result.exception
    assert json.loads(result.output)["method"] == "direct"
    phases = serialize.load_rule(out).phases
    assert ((-2 * np.pi / 5e3 <= phases) & (phases < 0)).all()
    result = run_cli(["validate", out, "--model", "random:4"])
    assert result.exit_code == 0, result.output
    result = run_cli(["--output", opt, "optimize", spec])
    assert result.exit_code == 0, result.exception
    report = json.loads(result.output)
    assert report["square_norm_after"] < report["square_norm_before"]


@pytest.mark.parametrize("eigenvalues, method", [
    ([0.0, 1.0, 2.5], "direct"), ([0.0, 1.0, 1.0 + 1e-9], "regularized"),
], ids=["S7", "near-degenerate"])
def test_synthesize_rule_file_does_not_depend_on_the_seed(tmp_path, eigenvalues, method):
    spec = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues})
    texts = []
    for seed in ("0", "7"):
        out = tmp_path / f"rule-{seed}.json"
        result = run_cli(["--seed", seed, "--output", str(out), "synthesize", spec])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["method"] == method
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_synthesize_duplicate_phases(two_level, tmp_path):
    """Literal duplicates exit 2; duplicates modulo 2*pi (the period of gap 1) go to the rank cut."""
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", two_level, "--phases", "-1.0,-1.0,-2.0"])
    assert result.exit_code == 2
    assert "phi_i != phi_j" in result.output
    modulo = ["--phases", f"-1.0,{-1.0 - 2 * np.pi!r},-2.0"]
    result = run_cli(["--output", out, "synthesize", two_level, *modulo])
    assert result.exit_code == 0, result.output
    fallback, inexact = json.loads(result.stdout)["warnings"]
    assert fallback.startswith("direct synthesis ill-posed (condition number inf exceeds cap")
    assert inexact.startswith("rule is inexact on the spectrum's own gaps")
    assert run_cli(["validate", out]).exit_code == 1
    result = run_cli(["--output", str(tmp_path / "direct.json"), "synthesize", two_level,
                      "--method", "direct", *modulo])
    assert result.exit_code == 2
    assert result.stderr.endswith("condition number inf\n")


@pytest.mark.parametrize("p", [1, 2, 3])
def test_synthesize_spectrum_with_a_level_pair_below_the_period_tolerance(tmp_path, p):
    """A level pair 1.17e-12 apart: auto_phases picks two phases equal modulo the other
    gap's period; the Tikhonov fallback gives an exact rule, and validate passes it."""
    spec = _write(tmp_path, "s3.json", {"eigenvalues": [-0.4817804553308287, -0.48178045532965874,
                                                        0.6179017046085349]})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", spec, "-p", str(p)])
    assert result.exit_code == 0, result.output
    assert not [w for w in json.loads(result.stdout)["warnings"] if "inexact" in w]
    assert run_cli(["validate", out]).exit_code == 0


def test_synthesize_unstructured_direct(unstructured, tmp_path):
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", unstructured])
    assert result.exit_code == 0
    assert json.loads(result.output)["method"] == "direct"


@pytest.mark.parametrize("eigenvalues", [
    [0.0, 1.001, 2.0, 2.999], [0.0, 1.02, 1.97, 3.01, 4.0], [0.0, 1e-300, 2e-300, 3.1e-300],
])
def test_synthesize_perturbed_equidistant_solves_directly(tmp_path, eigenvalues):
    """A perturbed-equidistant spectrum gets the direct rule on its own gaps, not a closed form."""
    path = _write(tmp_path, "pert.json", {"eigenvalues": eigenvalues})
    out = str(tmp_path / "rule.json")
    result = run_cli(["--output", out, "synthesize", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["structure"] == "perturbed_equidistant"
    assert report["method"] == "direct" and report["warnings"] == []
    assert run_cli(["validate", out]).exit_code == 0
    result = run_cli(["--output", str(tmp_path / "eq.json"), "synthesize", path, "--method", "equidistant"])
    assert result.exit_code == 3
    assert "not equidistant" in result.output


def test_validate_good_rule(eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    assert run_cli(["--output", out, "synthesize", eq_spectrum]).exit_code == 0
    result = run_cli(["validate", out, "--model", "random:4"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["passed"] is True
    assert report["max_scaled_error"] <= 1e-8


def test_validate_broken_rule_fails(eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", eq_spectrum])
    data = json.loads(Path(out).read_text())
    idx = int(np.argmax(np.abs(data["coefficients"])))
    data["coefficients"][idx] = 0.0
    broken = str(tmp_path / "broken.json")
    Path(broken).write_text(json.dumps(data))
    result = run_cli(["validate", broken])
    assert result.exit_code == 1


def test_validate_incompatible_model(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    model = _write(tmp_path, "model.json",
                   {"a0": 0.0, "terms": [{"omega": 2.5, "a": 1.0, "b": 0.0}]})
    result = run_cli(["validate", out, "--model", model])
    assert result.exit_code == 3
    assert "outside" in result.output


def test_validate_model_file_in_band(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    model = _write(tmp_path, "model.json",
                   {"a0": 0.3, "terms": [{"omega": 1.0, "a": 0.5, "b": -0.2}]})
    result = run_cli(["validate", out, "--model", model])
    assert result.exit_code == 0


def _scalar_validate(rule, models, grid):
    """Reference for validate: the scalar apply_rule loop, point by point."""
    errs, scaled = [], []
    for fm in models:
        for t in grid:
            target = sum(w * analytic_derivative(fm, t, p) for p, w in rule.orders)
            estimate = apply_rule(rule, lambda x: evaluate(fm, x), float(t))
            errs.append(abs(estimate - target))
            scaled.append(errs[-1] / (1.0 + abs(target)))
    mean = sum(errs) / len(errs) if errs else 0.0
    return max(errs, default=0.0), mean, max(scaled, default=0.0)


def _s7_rule_file(tmp_path):
    spec = _write(tmp_path, "s7.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    out = str(tmp_path / "s7-rule.json")
    assert run_cli(["--output", out, "synthesize", spec]).exit_code == 0
    return out


def _mixed_order_rule_file(tmp_path):
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    phases = well_posed_phases(freq, np.random.default_rng(5))
    rule = synthesize_rule(freq, phases, orders=((0, 0.5), (2, -1.5)))
    out = str(tmp_path / "mixed-rule.json")
    serialize.save_rule(rule, out)
    return out


def _broken_rule_file(tmp_path):
    data = json.loads(Path(_s7_rule_file(tmp_path)).read_text())
    data["coefficients"][0] += 1e-3
    out = str(tmp_path / "broken-rule.json")
    Path(out).write_text(json.dumps(data))
    return out


def _overflow_rule_file(tmp_path):
    return _write(tmp_path, "overflow-rule.json",
                  dict(_RULE, orders=[{"p": 1000, "weight": 1.0}], frequencies=[2.5]))


# (case, t-grid, block): block is cli.ORACLE_BLOCK for the run, None for the
# default (one block here); each small budget splits the grid into at least 3 blocks
_ORACLE_CASES = [
    ("s7", "-2:2:9", None),
    ("mixed", "-3:1:7", None),
    ("model_file", "-1:2:5", None),
    ("broken", "0:3:6", None),
    ("s7", "-2:2:40", 64),
    ("mixed", "-3:1:50", 64),
    ("model_file", "-1:2:23", 20),
    ("broken", "0:3:31", 64),
    ("overflow", "0:3:30", 64),
]


@pytest.mark.parametrize("case, t_grid, block", _ORACLE_CASES, ids=[
    f"{case}-{t_grid}" + (f"-block{block}" if block else "") for case, t_grid, block in _ORACLE_CASES])
def test_validate_matches_scalar_oracle(tmp_path, monkeypatch, case, t_grid, block):
    """Each case on both oracle paths, forced by cli.ORACLE_BREAK_EVEN: the plain
    path calls no evaluate_models, the block path calls it once per block and order."""
    seed = 3
    rule_file = {"mixed": _mixed_order_rule_file, "broken": _broken_rule_file,
                 "overflow": _overflow_rule_file}.get(case, _s7_rule_file)(tmp_path)
    rule = serialize.load_rule(rule_file)
    if case == "model_file":
        terms = [{"omega": w, "a": 0.4 - 0.3 * k, "b": 0.2 * k - 0.5}
                 for k, w in enumerate(rule.frequencies)]
        model_arg = _write(tmp_path, "model.json", {"a0": 0.7, "terms": terms})
        models = [serialize.load_fourier_model(model_arg)]
    else:
        model_arg = "random:3"
        models = _random_models(rule.frequencies, 3, seed)
    lo, hi, count = t_grid.split(":")
    grid = np.linspace(float(lo), float(hi), int(count))
    blocks = 1
    if block is not None:
        monkeypatch.setattr(cli, "ORACLE_BLOCK", block)
        blocks = -(-len(grid) // (block // (len(rule.phases) * len(models))))
        assert blocks > 2
    reference = None if case == "overflow" else _scalar_validate(rule, models, grid)

    for path, break_even in (("plain", 1 << 62), ("block", 0)):
        monkeypatch.setattr(cli, "ORACLE_BREAK_EVEN", break_even)
        calls = []
        monkeypatch.setattr(fourier, "evaluate_models",
                            lambda *args: calls.append(args) or evaluate_models(*args))
        result = run_cli(["--seed", str(seed), "validate", rule_file,
                          "--model", model_arg, "--t-grid", t_grid])
        report = json.loads(result.output)
        assert len(calls) == (0 if path == "plain" else blocks * (1 + len(rule.orders))), path
        assert report["grid_points"] == len(grid)
        if reference is None:  # the target overflows: no finite error, so no pass
            assert report["passed"] is False and result.exit_code == 1, path
            assert report["max_abs_error"] is report["mean_abs_error"] is None, path
            assert report["max_scaled_error"] is None, path
            continue
        max_err, mean_err, max_scaled = reference
        assert report["max_abs_error"] == pytest.approx(max_err, rel=0, abs=1e-14), path
        assert report["mean_abs_error"] == pytest.approx(mean_err, rel=0, abs=1e-14), path
        assert report["max_scaled_error"] == pytest.approx(max_scaled, rel=0, abs=1e-14), path
        assert report["passed"] is (max_scaled <= report["bound"])
        assert result.exit_code == (0 if report["passed"] else 1)
        assert report["passed"] is (case != "broken")


_finite_or_not = st.floats(width=64) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lo=_finite_or_not, hi=_finite_or_not, count=st.integers(0, 40))
@example(lo=0.3, hi=0.3, count=1)
@example(lo=0.3, hi=0.3, count=5)
@example(lo=-1e308, hi=1e308, count=1)
@example(lo=-1e308, hi=1e308, count=3)
@example(lo=0.0, hi=1e-323, count=5)  # the step underflows to 0: numpy scales i / (count - 1)
@example(lo=-3.141592653589793, hi=3.141592653589793, count=100)
@example(lo=-3.0, hi=3.0, count=5000)
@example(lo=-3.0, hi=3.0, count=200_000)
def test_plain_grid_is_numpy_linspace(lo, hi, count):
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, count)
    plain = np.array(cli._linspace(lo, hi, count), dtype=float)
    assert plain.shape == expected.shape
    np.testing.assert_array_equal(np.isnan(plain), np.isnan(expected))
    same = ~np.isnan(expected)
    assert plain[same].tobytes() == expected[same].tobytes()


def test_validate_streams_the_grid_in_blocks_within_budget(tmp_path, monkeypatch):
    """Every oracle evaluation stays within cli.ORACLE_BLOCK shifted
    evaluations, and each target order and the shifted grid are evaluated
    over the whole grid exactly once, in order."""
    rule_file = _mixed_order_rule_file(tmp_path)
    rule = serialize.load_rule(rule_file)
    grid = np.linspace(-3.0, 3.0, 200_000)
    calls = []

    def recording(models, t, p=0):
        calls.append((len(models), p, np.asarray(t)))
        return evaluate_models(models, t, p)

    monkeypatch.setattr(fourier, "evaluate_models", recording)
    args = ["validate", rule_file, "--model", "random:3", "--t-grid", "-3:3:200000"]
    report = json.loads(run_cli(args).output)
    assert report["passed"] is True and report["grid_points"] == len(grid)

    assert calls and all(n == 3 and t.size * n <= cli.ORACLE_BLOCK for n, _, t in calls)
    shifted = [t for _, _, t in calls if t.ndim == 2]
    assert len(shifted) > 2
    np.testing.assert_array_equal(np.concatenate(shifted), grid[:, None] + rule.phases[None, :])
    for order, _ in rule.orders:
        blocks = [t for _, p, t in calls if t.ndim == 1 and p == order]
        np.testing.assert_array_equal(np.concatenate(blocks), grid)
    assert len(calls) == len(shifted) * (1 + len(rule.orders))

    # one block over the whole grid finds the same maxima; only the mean's sum is regrouped
    monkeypatch.setattr(fourier, "evaluate_models", evaluate_models)
    monkeypatch.setattr(cli, "ORACLE_BLOCK", grid.size * len(rule.phases) * 3)
    whole = json.loads(run_cli(args).output)
    for key in ("max_abs_error", "max_scaled_error", "models", "grid_points", "passed"):
        assert whole[key] == report[key], key
    assert whole["mean_abs_error"] == pytest.approx(report["mean_abs_error"], rel=1e-12)


@pytest.mark.parametrize("eigenvalues, points, path", [
    # 611 667 of the oracle's work at the default constants (262 143 counting terms only)
    ((0.0, 1.0, 2.5), 4161, "block"),
    # 335 730 (265 050 counting terms only)
    ((0.0, 0.7, 1.9, 3.2, 3.3, 5.0), 190, "plain"),
], ids=["s7-block", "s31-plain"])
def test_validate_path_follows_the_cost(tmp_path, monkeypatch, eigenvalues, points, path):
    """At the default constants the cost, which charges each evaluation
    cli.ORACLE_EVALUATION frequencies, sends few-frequency work near the
    break-even to the block path and many-frequency work to the plain one,
    where each measured faster."""
    spectrum = _write(tmp_path, "spec.json", {"eigenvalues": list(eigenvalues)})
    rule_file = str(tmp_path / "rule.json")
    assert run_cli(["--output", rule_file, "synthesize", spectrum]).exit_code == 0
    calls = []
    monkeypatch.setattr(fourier, "evaluate_models",
                        lambda *args: calls.append(args) or evaluate_models(*args))
    result = run_cli(["validate", rule_file, "--t-grid", f"-3:3:{points}"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["grid_points"] == points
    assert bool(calls) is (path == "block")


def test_rule_file_round_trip_is_bit_identical(eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", eq_spectrum])
    rule = serialize.load_rule(out)
    rewritten = tmp_path / "rule2.json"
    serialize.save_rule(rule, rewritten)
    assert rewritten.read_bytes() == (tmp_path / "rule.json").read_bytes()


def test_spectrum_file_round_trip(tmp_path):
    spec = Spectrum((0.0, 0.1 + 0.2, 2.7), label="roundtrip")
    path = tmp_path / "spec.json"
    path.write_text('{"eigenvalues": [2.7, 0.30000000000000004, 0.0], "label": "roundtrip", "rel_tol": 1e-8}')
    loaded, rel_tol = serialize.load_spectrum(path)
    assert loaded.eigenvalues == spec.eigenvalues
    assert loaded.label == "roundtrip"
    assert rel_tol == 1e-8


def test_optimize_descends(unstructured, tmp_path):
    out = str(tmp_path / "opt.json")
    result = run_cli(["--seed", "5", "--output", out, "optimize", unstructured])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["square_norm_after"] <= report["square_norm_before"] + 1e-9


def test_optimize_equidistant_start_improves_to_symmetric_minimum(two_level, tmp_path):
    out = str(tmp_path / "opt.json")
    result = run_cli(["--output", out, "optimize", two_level])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["square_norm_before"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["square_norm_after"] == pytest.approx(0.5, abs=1e-6)


def test_optimize_reports_uncertified_winner(two_level, tmp_path):
    # n = 2 certifies with no warning; a tolerance no residual meets forces
    # the uncertified case on (0, 1, 2.6)
    cfg = _write(tmp_path, "cfg.json", {"optimization": {"tol": 1e-300}})
    u16 = _write(tmp_path, "u16.json", {"eigenvalues": [0.0, 1.0, 2.6]})
    runs = {"two": (two_level, []), "u16": (u16, ["--config", cfg])}
    for name, (spec, config) in runs.items():
        out = tmp_path / f"{name}.json"
        result = run_cli(config + ["--output", str(out), "optimize", spec])
        assert result.exit_code == 0
        report = json.loads(result.output)
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["certified"] == (name == "two")
        assert (diag["stationarity"] <= (1e-9 if name == "two" else 1e-300)) == diag["certified"]
        assert len(report["warnings"]) == (0 if diag["certified"] else 1)
        assert all("uncertified" in w for w in report["warnings"])


def test_optimize_infeasible_start_no_multistarts(two_level, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"optimization": {"multistarts": 0}})
    result = run_cli(["--config", cfg, "optimize", two_level, "--phases", "-1.0,-1.0,-1.0"])
    assert result.exit_code == 2


def test_variance_zero_sigma(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    result = run_cli(["variance", out, "--sigma", "0.0", "--shots", "100"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["empirical_variance"] == 0.0
    assert report["analytic_variance"] == 0.0


def test_variance_equidistant_two_level(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    result = run_cli(["--seed", "3", "variance", out, "--sigma", "1.0", "--shots", "10000"])
    report = json.loads(result.output)
    assert report["analytic_variance"] == pytest.approx(2.0 / 3.0)
    assert report["empirical_variance"] == pytest.approx(2.0 / 3.0, rel=0.1)


def test_variance_at_large_sigma_is_finite_and_quiet(eq_spectrum, tmp_path):
    """The sample variance scales unit-sigma draws once, so it overflows no sooner than its value."""
    assert run_cli(["--output", str(tmp_path / "rule.json"), "synthesize", eq_spectrum]).exit_code == 0
    result = _python(["-m", "shiftrules.cli", "variance", "rule.json", "--sigma", "1e153"], cwd=tmp_path)
    assert result.returncode == 0 and result.stderr == ""
    report = json.loads(result.stdout)
    assert report["analytic_variance"] == pytest.approx(2e306)
    assert report["empirical_variance"] == pytest.approx(report["analytic_variance"], rel=0.05)


def test_variance_report_is_deterministic(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    args = ["--seed", "9", "variance", out, "--sigma", "0.5", "--shots", "500"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.output == second.output


def test_variance_uses_the_whole_seed(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    variances = [json.loads(run_cli(["--seed", seed, "variance", out, "--shots", "100"]).output)
                 ["empirical_variance"] for seed in ("0", str(2**64))]
    assert variances[0] != variances[1]


def test_variance_invalid_eta(two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    run_cli(["--output", out, "synthesize", two_level])
    result = run_cli(["variance", out, "--eta", "1.5"])
    assert result.exit_code == 3


_RULE = {"phases": [-2.0943951023931953, -4.1887902047863905, -6.283185307179586],
         "coefficients": [-0.5773502691896258, 0.5773502691896258, 0.0],
         "orders": [{"p": 1, "weight": 1.0}], "frequencies": [1.0]}


@pytest.mark.parametrize("args", [
    ["optimize", "--order", "-1", "{spec}"],
    ["synthesize", "--phases", "nan,-1,-2", "{spec}"],
    ["optimize", "--phases", "nan,-1,-2", "{spec}"],
    ["optimize", "--phases", "-1,-2", "{spec}"],
    ["optimize", "--phases", "-1,-2,-3,-4", "{spec}"],
    ["validate", "{rule_no_p}"],
    ["variance", "{rule_no_weight}"],
    ["analyze", "{spec_bad_rel_tol}"],
    ["synthesize", "{spec_bad_rel_tol}"],
    ["validate", "--model", "random:0", "{rule}"],
    ["validate", "--model", "random:-2", "{rule}"],
    ["--config", "{cfg_section}", "synthesize", "{spec}"],
    ["--config", "{cfg_null_tol}", "optimize", "{spec}"],
    ["validate", "--t-grid", "0:1:0", "{rule}"],
    ["validate", "{rule_null_coeff}"],
    ["validate", "{rule_null_phase}"],
    ["validate", "{rule_nan_weight}"],
    ["validate", "{rule_negative_p}"],
    ["variance", "{rule_null_coeff}"],
    ["variance", "{rule_null_phase}"],
    ["variance", "{rule_nan_weight}"],
    ["validate", "--bound", "nan", "{rule}"],
    ["validate", "--bound", "-1e-8", "{rule}"],
    ["--config", "{cfg_nan_bound}", "validate", "{rule}"],
    ["validate", "--t-grid", "nan:1:5", "{rule}"],
    ["synthesize", "{spec_inf_rel_tol}"],
    ["--config", "{cfg_nan_gamma}", "synthesize", "{spec_near}"],
    ["--config", "{cfg_unknown_section}", "optimize", "{spec}"],
    ["--config", "{cfg_fractional_multistarts}", "optimize", "{spec}"],
    ["--config", "{cfg_list_section}", "optimize", "{spec}"],
    ["validate", "{rule_fractional_p}"],
    ["analyze", "{spec_bool}"],
    ["validate", "{rule_inf_p}"],
    ["--config", "{cfg_bool_gamma}", "synthesize", "--method", "tikhonov", "{spec}"],
    ["--config", "{cfg_bool_data_error}", "synthesize", "--method", "tikhonov", "{spec}"],
    ["--config", "{cfg_bool_tol}", "optimize", "{spec}"],
    ["validate", "--model", "{model_bool}", "{rule}"],
    ["validate", "--model", "{model_string_omega}", "{rule}"],
    ["validate", "{rule_bool_weight}"],
    ["validate", "{rule_string_p}"],
    ["variance", "{rule_string_weight}"],
    ["validate", "{rule_string_phase}"],
    ["variance", "{rule_bool_coeff}"],
    ["validate", "{rule_string_frequency}"],
    ["variance", "--sigma", "nan", "{rule}"],
    ["variance", "--sigma", "inf", "{rule}"],
    ["variance", "--sigma", "1e200", "{rule}"],
    ["variance", "--sigma", "1e154", "{rule}"],
    ["validate", "{rule_diagnostics_number}"],
    ["validate", "{rule_diagnostics_null}"],
    ["validate", "{rule_diagnostics_list}"],
    ["variance", "{rule_diagnostics_number}"],
    ["variance", "{rule_diagnostics_null}"],
    ["variance", "{rule_diagnostics_list}"],
    ["validate", "{rule_empty}"],
    ["variance", "{rule_empty}"],
    ["validate", "--t-grid", "-1e308:1e308:3", "{rule}"],
    ["validate", "--t-grid", f"0:1:{10**18}", "{rule}"],
    ["validate", "--t-grid", f"0:1:{2**63}", "{rule}"],
])
def test_malformed_input_exits_invalid(tmp_path, args):
    files = {
        "spec": _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]}),
        "spec_bad_rel_tol": _write(tmp_path, "bad.json", {"eigenvalues": [0.0, 1.0], "rel_tol": "x"}),
        "spec_inf_rel_tol": _write(tmp_path, "inf.json",
                                   {"eigenvalues": [0.0, 1.0, 2.5], "rel_tol": float("inf")}),
        "rule": _write(tmp_path, "rule.json", _RULE),
        "rule_no_p": _write(tmp_path, "no_p.json", dict(_RULE, orders=[{"weight": 1.0}])),
        "rule_no_weight": _write(tmp_path, "no_w.json", dict(_RULE, orders=[{"p": 1}])),
        "cfg_section": _write(tmp_path, "cfg1.json", {"regularization": 5}),
        "cfg_null_tol": _write(tmp_path, "cfg2.json", {"optimization": {"tol": None}}),
        "rule_null_coeff": _write(tmp_path, "null_b.json",
                                  dict(_RULE, coefficients=[None] + _RULE["coefficients"][1:])),
        "rule_null_phase": _write(tmp_path, "null_phi.json", dict(_RULE, phases=[None] + _RULE["phases"][1:])),
        "rule_nan_weight": _write(tmp_path, "nan_w.json",
                                  dict(_RULE, orders=[{"p": 1, "weight": float("nan")}])),
        "rule_negative_p": _write(tmp_path, "neg_p.json", dict(_RULE, orders=[{"p": -1, "weight": 1.0}])),
        "cfg_nan_bound": _write(tmp_path, "cfg3.json", {"validation_bound": float("nan")}),
        "spec_near": _write(tmp_path, "near.json", {"eigenvalues": [0.0, 1.0, 1.0 + 1e-9]}),
        "cfg_nan_gamma": _write(tmp_path, "cfg4.json", {"regularization": {"gamma": float("nan")}}),
        "cfg_unknown_section": _write(tmp_path, "cfg5.json", {"optimisation": {"multistarts": 2}}),
        "cfg_fractional_multistarts": _write(tmp_path, "cfg6.json",
                                             {"optimization": {"multistarts": 2.9}}),
        "cfg_list_section": _write(tmp_path, "cfg7.json", {"optimization": []}),
        "rule_fractional_p": _write(tmp_path, "frac_p.json",
                                    dict(_RULE, orders=[{"p": 1.5, "weight": 1.0}])),
        "spec_bool": _write(tmp_path, "bool.json",
                            {"eigenvalues": [True, False, 2.5], "rel_tol": True}),
        "rule_inf_p": _write(tmp_path, "inf_p.json",
                             dict(_RULE, orders=[{"p": float("inf"), "weight": 1.0}])),
        "cfg_bool_gamma": _write(tmp_path, "cfg8.json", {"regularization": {"gamma": True}}),
        "cfg_bool_data_error": _write(tmp_path, "cfg9.json", {"regularization": {"data_error": True}}),
        "cfg_bool_tol": _write(tmp_path, "cfg10.json", {"optimization": {"tol": True}}),
        "model_bool": _write(tmp_path, "model_bool.json",
                             {"a0": True, "terms": [{"omega": "1.0", "a": True, "b": 0.5}]}),
        "model_string_omega": _write(tmp_path, "model_str.json",
                                     {"a0": 0.5, "terms": [{"omega": "1.0", "a": 0.2, "b": 0.5}]}),
        "rule_bool_weight": _write(tmp_path, "bool_w.json", dict(_RULE, orders=[{"p": 1, "weight": True}])),
        "rule_string_p": _write(tmp_path, "str_p.json", dict(_RULE, orders=[{"p": "1", "weight": 1.0}])),
        "rule_string_weight": _write(tmp_path, "str_w.json",
                                     dict(_RULE, orders=[{"p": 1, "weight": "1.0"}])),
        "rule_string_phase": _write(tmp_path, "str_phi.json",
                                    dict(_RULE, phases=[str(_RULE["phases"][0])] + _RULE["phases"][1:])),
        "rule_bool_coeff": _write(tmp_path, "bool_b.json",
                                  dict(_RULE, coefficients=_RULE["coefficients"][:2] + [False])),
        "rule_string_frequency": _write(tmp_path, "str_f.json", dict(_RULE, frequencies=["1.0"])),
        "rule_diagnostics_number": _write(tmp_path, "diag_5.json", dict(_RULE, diagnostics=5)),
        "rule_diagnostics_null": _write(tmp_path, "diag_null.json", dict(_RULE, diagnostics=None)),
        "rule_diagnostics_list": _write(tmp_path, "diag_list.json", dict(_RULE, diagnostics=[1, 2])),
        "rule_empty": _write(tmp_path, "empty.json", dict(_RULE, phases=[], coefficients=[])),
    }
    out = str(tmp_path / "out.json")
    result = run_cli(["--output", out] + [a.format(**files) for a in args])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists()


_HUGE = 10**400  # no float holds it


@pytest.mark.parametrize("name, payload, args", [
    ("spectrum", {"eigenvalues": [0.0, 1.0, _HUGE]}, ["synthesize", "{file}"]),
    ("spectrum", {"eigenvalues": [0.0, 1.0, _HUGE]}, ["analyze", "{file}"]),
    ("rule", dict(_RULE, phases=[_HUGE, *_RULE["phases"][1:]]), ["validate", "{file}"]),
    ("rule", dict(_RULE, orders=[{"p": _HUGE, "weight": 1.0}]), ["variance", "{file}"]),
    ("model", {"a0": _HUGE, "terms": []}, ["validate", "--model", "{file}", "{rule}"]),
    ("config", {"regularization": {"data_error": _HUGE}}, ["--config", "{file}", "synthesize", "{spec}"]),
    (None, None, ["synthesize", "{spec}", "--order", str(_HUGE)]),
    (None, None, ["optimize", "{spec}", "--order", str(_HUGE)]),
], ids=["eigenvalue", "eigenvalue-analyze", "rule-phase", "rule-order", "model-a0",
        "config-data-error", "synthesize-order", "optimize-order"])
def test_integers_beyond_float_range_exit_invalid(tmp_path, name, payload, args):
    """An integer no float can hold, in a file or as --order, is invalid input: one error line."""
    files = {"spec": _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]}),
             "rule": _write(tmp_path, "rule.json", _RULE)}
    if name is not None:
        files["file"] = _write(tmp_path, f"{name}-huge.json", payload)
    out = tmp_path / "out.json"
    result = run_cli(["--output", str(out)] + [a.format(**files) for a in args])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 3
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["analyze", "synthesize", "validate", "optimize", "variance"])
def test_unwritable_output_exits_invalid(tmp_path, command):
    target = _write(tmp_path, "rule.json", _RULE) if command in ("validate", "variance") \
        else _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    out = tmp_path / "missing" / "out.json"
    result = run_cli(["--output", str(out), command, target])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert result.stdout == ""


def test_zero_bound_stays_valid(tmp_path):
    rule = _write(tmp_path, "rule.json", _RULE)
    result = run_cli(["validate", rule, "--bound", "0"])
    assert result.exit_code in (0, 1) and json.loads(result.stdout)["bound"] == 0.0


def _run_with_closed_stdout(args, cwd):
    """Run the CLI in a fresh process whose stdout is a pipe with its reading end closed.

    PYTHONUNBUFFERED is dropped, so stdout is buffered as by default and
    the interpreter flushes it once more at exit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "shiftrules.cli", *args], cwd=cwd,
                              env=dict(env, PYTHONPATH=SRC), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # every documented exit code, through the process entry and the interpreter's final flush
    rule = _write(tmp_path, "rule.json", _RULE)
    broken = _write(tmp_path, "broken.json", dict(_RULE, coefficients=[0.0, 0.5773502691896258, 0.0]))
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    near = _write(tmp_path, "near.json", {"eigenvalues": [0.0, 1.0, 1.0 + 1e-9]})
    missing = str(tmp_path / "missing.json")
    ill_posed = (r"error: direct synthesis is ill-posed \(condition number \S+ exceeds cap 1e\+08\); "
                 r"condition number \S+\n")
    for args, code, stderr in ((["validate", rule], 0, ""), (["validate", broken], 1, ""),
                               (["synthesize", spec], 0, ""),
                               (["synthesize", near, "--method", "direct"], 2, ill_posed),
                               (["synthesize", missing], 3,
                                re.escape(f"error: [Errno 2] No such file or directory: '{missing}'\n"))):
        result = _run_with_closed_stdout(args, tmp_path)
        assert result.returncode == code, args
        assert re.fullmatch(stderr, result.stderr), (args, result.stderr)


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # only the process entry freezes the heap; main() is the in-process API
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    before = gc.isenabled(), gc.get_freeze_count()
    for path, code in ((spec, 0), (str(tmp_path / "missing.json"), 3)):
        assert run_cli(["--quiet", "analyze", path]).exit_code == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before, code


@pytest.mark.parametrize("eigenvalues", [[-1e308, 1e308], [-1e308, 0.0, 1e308]])
@pytest.mark.parametrize("command", ["analyze", "synthesize", "optimize"])
def test_infinite_frequencies_exit_invalid(tmp_path, command, eigenvalues):
    # finite eigenvalues whose spread overflows a double give an infinite gap
    spec = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues})
    out = tmp_path / "out.json"
    result = run_cli(["--output", str(out), command, spec])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr == "error: frequencies must be finite\n"
    assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("frequencies", [[-1.0, 1.5, 2.5], [0.0, 1.0], [1.0, 1.0, 2.5], [2.5, 1.0]])
@pytest.mark.parametrize("command", ["validate", "variance"])
def test_rule_frequencies_must_increase_from_zero(tmp_path, command, frequencies):
    rule = _write(tmp_path, "rule.json", dict(_RULE, frequencies=frequencies))
    result = run_cli([command, rule])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr == f"error: {rule}: 'frequencies' must be positive and strictly increasing\n"
    assert result.stdout == ""


@pytest.mark.parametrize("command, name, payload, message", [
    ("validate", "rule.json", dict(_RULE, phases=[0.0, 1.0], coefficients=[1.0]),
     "phases and coefficients must have equal length"),
    ("variance", "rule.json", dict(_RULE, phases=[0.0, 1.0], coefficients=[1.0]),
     "phases and coefficients must have equal length"),
    ("validate", "model.json", {"a0": 0.1, "terms": [{"omega": 1.0, "a": 0.5, "b": 0.0}] * 2},
     "frequencies must be strictly increasing"),
    ("analyze", "spec.json", {"eigenvalues": [0]}, "need at least 2 eigenvalues"),
], ids=["validate-rule", "variance-rule", "validate-model", "analyze-spectrum"])
def test_record_check_errors_name_their_file(tmp_path, command, name, payload, message):
    path = _write(tmp_path, name, payload)
    args = [command, path] if name != "model.json" else \
        [command, _write(tmp_path, "rule.json", _RULE), "--model", path]
    result = run_cli(args)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr == f"error: {path}: {message}\n"
    assert result.stdout == ""


def test_rule_without_frequencies_still_loads(tmp_path):
    rule = _write(tmp_path, "rule.json", dict(_RULE, frequencies=[]))
    assert serialize.load_rule(rule).frequencies == ()
    constant = _write(tmp_path, "model.json", {"a0": 0.5, "terms": []})
    assert run_cli(["validate", rule, "--model", constant]).exit_code == 0


@pytest.mark.parametrize("command", ["analyze", "synthesize", "validate", "optimize", "variance"])
def test_bad_config_exits_invalid_on_every_command(tmp_path, command):
    target = _write(tmp_path, "rule.json", _RULE) if command in ("validate", "variance") \
        else _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]})
    config = _write(tmp_path, "cfg.json", {"regularization": {"unknown": 1.0}})
    result = run_cli(["--config", config, command, target])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: cannot read config") and "'unknown'" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("config, message", [
    ({"regularization": {"gamma": -1}}, "gamma must be a finite positive number, got -1"),
    ({"regularization": {"unknown": 1}}, "unknown key 'unknown' in 'regularization'"),
    ({"optimization": {"seed": 3}}, "unknown key 'seed' in 'optimization'"),
])
def test_config_errors_name_their_file(tmp_path, config, message):
    path = _write(tmp_path, "cfg.json", config)
    spec = _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]})
    result = run_cli(["--config", path, "analyze", spec])
    assert result.exit_code == 3
    assert result.stderr == f"error: cannot read config: {path}: {message}\n"


def test_config_file_reaches_the_tikhonov_path(near_degenerate, tmp_path):
    """Without --config the fallback selects gamma; a config file's gamma replaces it."""
    gammas = []
    for extra in ([], ["--config", _write(tmp_path, "cfg.json", {"regularization": {"gamma": 1e-3}})]):
        out = tmp_path / f"rule{len(gammas)}.json"
        result = run_cli([*extra, "--output", str(out), "synthesize", near_degenerate])
        assert result.exit_code == 0, result.output
        gammas.append(json.loads(out.read_text())["diagnostics"]["gamma"])
    sys = build_system(frequency_differences(Spectrum((0.0, 1.0, 1.0 + 1e-9))),
                       serialize.load_rule(str(tmp_path / "rule0.json")).phases)
    assert gammas == [_gamma_floor(sys), 1e-3]


@pytest.mark.parametrize("config, key", [
    ({"rel_tol": 1e-9}, "rel_tol"),
    ({"dedup_tol": 1e-12}, "dedup_tol"),
    ({"validation_bound": 1e-8}, "validation_bound"),
    ({"regularization": {"operator_error": 0.0}}, "operator_error"),
    ({"regularization": {"grid": {"min": 1e-14, "max": 1e2}}}, "grid"),
    ({"optimization": {"max_iters": 300}}, "max_iters"),
    ({"optimization": {"seed": 3}}, "seed"),
])
def test_config_rejects_removed_and_unknown_keys(near_degenerate, tmp_path, config, key):
    out = tmp_path / "rule.json"
    args = ["--config", _write(tmp_path, "cfg.json", config), "--output", str(out),
            "synthesize", near_degenerate]
    result = run_cli(args)
    assert result.exit_code == 3
    assert result.stderr.startswith("error: ") and f"'{key}'" in result.stderr
    assert "Traceback" not in result.output
    assert not out.exists()


_SCIPY_PROBE = """
import json, sys
import numpy as np
import shiftrules.cli, shiftrules
from shiftrules import Spectrum, frequency_differences, regularized_rule
from shiftrules.variance import OptimizationConfig, optimize_shifts

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

on_import = scipy_modules()
freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
phases, rule = optimize_shifts(freq, -np.linspace(0.5, 5.5, freq.m),
                               OptimizationConfig(multistarts=2, seed=0))
after_optimize = scipy_modules()
near = frequency_differences(Spectrum((0.0, 1.0, 1.0 + 1e-9)))
regularized_rule(near, np.linspace(-6.0, -0.5, near.m))
print(json.dumps({"on_import": on_import, "after_optimize": after_optimize,
                  "after_regularize": scipy_modules(),
                  "square_norm": rule.square_norm, "phases": list(phases)}))
"""


def test_scipy_loads_only_on_the_optimizer_path():
    result = _python(["-c", _SCIPY_PROBE])
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["on_import"] == []
    assert probe["after_optimize"] == []
    assert probe["after_regularize"] == []
    # S7's global optimum, at symmetric phases (0, -x, +x) wrapped into [-4*pi, 0]
    assert probe["square_norm"] == pytest.approx(1.1601179447131866, rel=1e-12)
    np.testing.assert_allclose(probe["phases"], [
        0.0, -5.629325278243164, -0.7535069242650563, -4.274030242051252,
        -6.937045336116008, -11.812863690094115, -8.29234037230792,
    ], rtol=0, atol=1e-9)
