import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import shiftrules
from conftest import well_posed_phases
from shiftrules import (
    Spectrum,
    analytic_derivative,
    apply_rule,
    evaluate,
    frequency_differences,
    serialize,
    synthesize_rule,
)
from shiftrules.cli import _auto_phases, _random_models, cli
from shiftrules.synthesis import build_system, condition_number

SRC = str(Path(shiftrules.__file__).resolve().parents[1])


def _python(args, cwd=None):
    """Run the interpreter on the package under test in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def runner():
    return CliRunner()


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


def test_analyze_equidistant(runner, eq_spectrum):
    result = runner.invoke(cli, ["analyze", eq_spectrum], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["kind"] == "equidistant"
    assert report["delta"] == pytest.approx(1.0)
    assert report["m"] == 5


def test_analyze_unstructured(runner, unstructured):
    result = runner.invoke(cli, ["analyze", unstructured], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["kind"] == "unstructured"
    assert report["m"] == 7


def test_analyze_single_eigenvalue_invalid(runner, tmp_path):
    path = _write(tmp_path, "one.json", {"eigenvalues": [0.0]})
    result = runner.invoke(cli, ["analyze", path], obj={})
    assert result.exit_code == 3
    assert "at least 2" in result.output


def test_analyze_missing_file(runner):
    result = runner.invoke(cli, ["analyze", "does-not-exist.json"], obj={})
    assert result.exit_code == 3


def test_synthesize_equidistant_auto(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    assert result.exit_code == 0
    rule = serialize.load_rule(out)
    np.testing.assert_allclose(
        rule.phases, [-2 * np.pi / 3, -4 * np.pi / 3, -2 * np.pi], atol=1e-12
    )
    report = json.loads(result.output)
    assert report["method"] == "equidistant"


def test_synthesize_forced_direct_ill_posed(runner, near_degenerate, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(
        cli, ["--output", out, "synthesize", near_degenerate, "--method", "direct"], obj={}
    )
    assert result.exit_code == 2
    assert "condition" in result.output


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


def test_validate_fails_on_non_finite_errors(tmp_path):
    rule = _write(tmp_path, "rule.json", dict(_RULE, orders=[{"p": 1000, "weight": 1.0}],
                                              frequencies=[2.5]))
    result = _python(["-m", "shiftrules.cli", "validate", rule])
    assert result.returncode == 1
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["passed"] is False
    assert report["max_scaled_error"] is None and report["mean_abs_error"] is None


def test_synthesize_auto_falls_back_to_tikhonov(runner, near_degenerate, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", near_degenerate], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "regularized"
    assert report["warnings"]


def test_synthesize_warns_when_regularized_rule_is_inexact(runner, near_degenerate, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--seed", "0", "--output", out, "synthesize", near_degenerate],
                           obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    residual = report["diagnostics"]["residual"]
    assert residual > 1e-8
    inexact = [w for w in report["warnings"] if "inexact" in w]
    assert inexact == [f"regularized rule is inexact: residual {residual:.3g} "
                       "exceeds validation_bound 1e-08"]
    result = runner.invoke(cli, ["--seed", "0", "validate", out, "--model", "random:4"], obj={})
    assert result.exit_code == 1


@pytest.fixture
def imaginary_part_case(tmp_path):
    """A spectrum and phases under the condition cap (cond 6.4e7) whose direct
    solution keeps an imaginary part above the 1e-9 relative tolerance."""
    eigenvalues = (0.0, 0.513114, 1.229844, 2.009326, 3.425672)
    freq = frequency_differences(Spectrum(eigenvalues))
    w = np.asarray(freq.unique_frequencies)
    lo = -2 * np.pi / max(w.min(), np.median(w) / 4)
    rng = np.random.default_rng(2)
    draws = [rng.uniform(lo + 1e-3, -1e-3, freq.m) for _ in range(64)]
    phases = min(draws, key=lambda ph: condition_number(build_system(freq, ph).matrix))
    path = _write(tmp_path, "imag.json", {"eigenvalues": list(eigenvalues)})
    return path, ",".join(repr(float(p)) for p in phases)


def test_synthesize_direct_imaginary_part_is_ill_posed(runner, imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", spec, "--method", "direct",
                                 "--phases", phases], obj={})
    assert result.exit_code == 2
    assert "error: direct synthesis is ill-posed" in result.output
    assert "imaginary part" in result.output and "condition number 6375" in result.output


def test_synthesize_auto_imaginary_part_falls_back(runner, imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", spec, "--phases", phases], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "regularized"
    assert any("imaginary part" in w and "falling back to tikhonov" in w
               for w in report["warnings"])


def test_optimize_imaginary_part_start_has_no_before(runner, imaginary_part_case, tmp_path):
    spec, phases = imaginary_part_case
    out = str(tmp_path / "opt.json")
    result = runner.invoke(cli, ["--output", out, "optimize", spec, "--phases", phases], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["square_norm_before"] is None
    assert report["square_norm_after"] > 0


@pytest.mark.parametrize("eigenvalues", [
    [0.0, 1.0, 2.5, 4.1, 6.0],        # m = 21, gap resolution 0.1
    [0.0, 0.7, 1.9, 3.2, 3.3, 5.0],   # m = 31, gap resolution 0.1
], ids=["S21", "S31"])
def test_synthesize_auto_phases_resolve_close_gaps(runner, tmp_path, eigenvalues):
    # auto phases spanning one period of the gap resolution keep the
    # system well-conditioned, so the rule is direct and validates
    spec = _write(tmp_path, "spec.json", {"eigenvalues": eigenvalues})
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--seed", "0", "--output", out, "synthesize", spec], obj={})
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["method"] == "direct"
    result = runner.invoke(cli, ["--seed", "0", "validate", out, "--model", "random:4"], obj={})
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["passed"] is True


@pytest.mark.parametrize("eigenvalues", [
    (0.0, 1.0, 2.5), (0.0, 1.0, 2.6), (0.0, 1.0, 2.5, 4.1), (0.0, 1.0, 2.5, 4.1, 6.0),
    (0.0, 1.0, 1.0 + 1e-9),
])
def test_auto_phases_match_per_draw_loop(eigenvalues):
    # the batched draw returns exactly the first best-conditioned of the
    # same 64 draws taken and conditioned one at a time
    freq = frequency_differences(Spectrum(eigenvalues))
    freqs = np.asarray(freq.unique_frequencies)
    lo = -2 * np.pi / max(np.diff(freqs, prepend=0.0).min(), 1e-2 * freqs[-1])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        best_cond, best = np.inf, None
        for _ in range(64):
            ph = rng.uniform(lo + 1e-3, -1e-3, freq.m)
            c = condition_number(build_system(freq, ph).matrix)
            if best is None or c < best_cond:
                best_cond, best = c, ph
        assert np.array_equal(_auto_phases(freq, seed), best)


def test_synthesize_duplicate_phases(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(
        cli,
        ["--output", out, "synthesize", two_level, "--phases", "-1.0,-1.0,-2.0"],
        obj={},
    )
    assert result.exit_code == 2
    assert "phi_i != phi_j" in result.output


def test_synthesize_unstructured_direct(runner, unstructured, tmp_path):
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", unstructured], obj={})
    assert result.exit_code == 0
    assert json.loads(result.output)["method"] == "direct"


def test_synthesize_perturbed_equidistant_carries_bounds(runner, tmp_path):
    path = _write(tmp_path, "pert.json", {"eigenvalues": [0.0, 1.001, 2.0, 2.999]})
    out = str(tmp_path / "rule.json")
    result = runner.invoke(cli, ["--output", out, "synthesize", path], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["method"] == "equidistant"
    assert report["warnings"]
    diag = report["diagnostics"]
    assert 0 < diag["perturbation_epsilon"] < 0.01
    assert diag["perturbation_absolute_estimate"] > 0
    assert diag["perturbation_loose_bound"] >= diag["perturbation_absolute_estimate"]


def test_validate_good_rule(runner, eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    assert runner.invoke(cli, ["--output", out, "synthesize", eq_spectrum], obj={}).exit_code == 0
    result = runner.invoke(cli, ["validate", out, "--model", "random:4"], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["passed"] is True
    assert report["max_scaled_error"] <= 1e-8


def test_validate_broken_rule_fails(runner, eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", eq_spectrum], obj={})
    data = json.loads(open(out).read())
    idx = int(np.argmax(np.abs(data["coefficients"])))
    data["coefficients"][idx] = 0.0
    broken = str(tmp_path / "broken.json")
    open(broken, "w").write(json.dumps(data))
    result = runner.invoke(cli, ["validate", broken], obj={})
    assert result.exit_code == 1


def test_validate_incompatible_model(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    model = _write(tmp_path, "model.json",
                   {"a0": 0.0, "terms": [{"omega": 2.5, "a": 1.0, "b": 0.0}]})
    result = runner.invoke(cli, ["validate", out, "--model", model], obj={})
    assert result.exit_code == 3
    assert "outside" in result.output


def test_validate_model_file_in_band(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    model = _write(tmp_path, "model.json",
                   {"a0": 0.3, "terms": [{"omega": 1.0, "a": 0.5, "b": -0.2}]})
    result = runner.invoke(cli, ["validate", out, "--model", model], obj={})
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


def _s7_rule_file(runner, tmp_path):
    spec = _write(tmp_path, "s7.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    out = str(tmp_path / "s7-rule.json")
    assert runner.invoke(cli, ["--output", out, "synthesize", spec], obj={}).exit_code == 0
    return out


def _mixed_order_rule_file(tmp_path):
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    phases = well_posed_phases(freq, np.random.default_rng(5))
    rule = synthesize_rule(freq, phases, orders=((0, 0.5), (2, -1.5)))
    out = str(tmp_path / "mixed-rule.json")
    serialize.save_rule(rule, out)
    return out


def _broken_rule_file(runner, tmp_path):
    data = json.loads(open(_s7_rule_file(runner, tmp_path)).read())
    data["coefficients"][0] += 1e-3
    out = str(tmp_path / "broken-rule.json")
    open(out, "w").write(json.dumps(data))
    return out


@pytest.mark.parametrize("case, t_grid", [
    ("s7", "-2:2:9"),
    ("mixed", "-3:1:7"),
    ("model_file", "-1:2:5"),
    ("broken", "0:3:6"),
])
def test_validate_matches_scalar_oracle(runner, tmp_path, case, t_grid):
    seed = 3
    if case == "mixed":
        rule_file = _mixed_order_rule_file(tmp_path)
    elif case == "broken":
        rule_file = _broken_rule_file(runner, tmp_path)
    else:
        rule_file = _s7_rule_file(runner, tmp_path)
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

    result = runner.invoke(cli, ["--seed", str(seed), "validate", rule_file,
                                 "--model", model_arg, "--t-grid", t_grid], obj={})
    report = json.loads(result.output)
    max_err, mean_err, max_scaled = _scalar_validate(rule, models, grid)
    assert report["grid_points"] == len(grid)
    assert report["max_abs_error"] == pytest.approx(max_err, rel=0, abs=1e-14)
    assert report["mean_abs_error"] == pytest.approx(mean_err, rel=0, abs=1e-14)
    assert report["max_scaled_error"] == pytest.approx(max_scaled, rel=0, abs=1e-14)
    assert report["passed"] is (max_scaled <= report["bound"])
    assert result.exit_code == (0 if report["passed"] else 1)
    assert report["passed"] is (case != "broken")


def test_rule_file_round_trip_is_bit_identical(runner, eq_spectrum, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", eq_spectrum], obj={})
    rule = serialize.load_rule(out)
    rewritten = tmp_path / "rule2.json"
    serialize.save_rule(rule, rewritten)
    assert rewritten.read_bytes() == (tmp_path / "rule.json").read_bytes()


def test_spectrum_file_round_trip(tmp_path):
    spec = Spectrum((0.0, 0.1 + 0.2, 2.7), label="roundtrip")
    path = tmp_path / "spec.json"
    serialize.save_spectrum(spec, path, rel_tol=1e-8)
    loaded, rel_tol = serialize.load_spectrum(path)
    assert loaded.eigenvalues == spec.eigenvalues
    assert loaded.label == "roundtrip"
    assert rel_tol == 1e-8


def test_optimize_descends(runner, unstructured, tmp_path):
    out = str(tmp_path / "opt.json")
    result = runner.invoke(
        cli, ["--seed", "5", "--output", out, "optimize", unstructured], obj={}
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["square_norm_after"] <= report["square_norm_before"] + 1e-9


def test_optimize_equidistant_start_improves_to_symmetric_minimum(runner, two_level, tmp_path):
    out = str(tmp_path / "opt.json")
    result = runner.invoke(cli, ["--output", out, "optimize", two_level], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["square_norm_before"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["square_norm_after"] == pytest.approx(0.5, abs=1e-6)


def test_optimize_reports_uncertified_winner(runner, two_level, tmp_path):
    # n = 2 certifies with no warning; a tolerance no residual meets forces
    # the uncertified case on (0, 1, 2.6)
    cfg = _write(tmp_path, "cfg.json", {"optimization": {"tol": 1e-300}})
    u16 = _write(tmp_path, "u16.json", {"eigenvalues": [0.0, 1.0, 2.6]})
    runs = {"two": (two_level, []), "u16": (u16, ["--config", cfg])}
    for name, (spec, config) in runs.items():
        out = tmp_path / f"{name}.json"
        result = runner.invoke(cli, config + ["--output", str(out), "optimize", spec], obj={})
        assert result.exit_code == 0
        report = json.loads(result.output)
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["certified"] == (name == "two")
        assert (diag["stationarity"] <= (1e-9 if name == "two" else 1e-300)) == diag["certified"]
        assert len(report["warnings"]) == (0 if diag["certified"] else 1)
        assert all("uncertified" in w for w in report["warnings"])


def test_optimize_infeasible_start_no_multistarts(runner, two_level, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"optimization": {"multistarts": 0}})
    result = runner.invoke(
        cli,
        ["--config", cfg, "optimize", two_level, "--phases", "-1.0,-1.0,-1.0"],
        obj={},
    )
    assert result.exit_code == 2


def test_variance_zero_sigma(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    result = runner.invoke(cli, ["variance", out, "--sigma", "0.0", "--shots", "100"], obj={})
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["empirical_variance"] == 0.0
    assert report["analytic_variance"] == 0.0


def test_variance_equidistant_two_level(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    result = runner.invoke(
        cli, ["--seed", "3", "variance", out, "--sigma", "1.0", "--shots", "10000"], obj={}
    )
    report = json.loads(result.output)
    assert report["analytic_variance"] == pytest.approx(2.0 / 3.0)
    assert report["empirical_variance"] == pytest.approx(2.0 / 3.0, rel=0.1)


def test_variance_report_is_deterministic(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    args = ["--seed", "9", "variance", out, "--sigma", "0.5", "--shots", "500"]
    first = runner.invoke(cli, args, obj={})
    second = runner.invoke(cli, args, obj={})
    assert first.output == second.output


def test_variance_invalid_eta(runner, two_level, tmp_path):
    out = str(tmp_path / "rule.json")
    runner.invoke(cli, ["--output", out, "synthesize", two_level], obj={})
    result = runner.invoke(cli, ["variance", out, "--eta", "1.5"], obj={})
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
])
def test_malformed_input_exits_invalid(runner, tmp_path, args):
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
    }
    out = str(tmp_path / "out.json")
    result = runner.invoke(cli, ["--output", out] + [a.format(**files) for a in args], obj={})
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 3
    assert "Traceback" not in result.output
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["analyze", "synthesize", "validate", "optimize", "variance"])
def test_bad_config_exits_invalid_on_every_command(runner, tmp_path, command):
    target = _write(tmp_path, "rule.json", _RULE) if command in ("validate", "variance") \
        else _write(tmp_path, "spec.json", {"eigenvalues": [0.0, 1.0]})
    config = _write(tmp_path, "cfg.json", {"regularization": {"unknown": 1.0}})
    result = runner.invoke(cli, ["--config", config, command, target], obj={})
    assert result.exit_code == 3
    assert result.stderr.startswith("error: cannot read config") and "'unknown'" in result.stderr
    assert result.stdout == ""


def test_config_file_reaches_the_tikhonov_path(runner, near_degenerate, tmp_path):
    """Without --config the fallback selects gamma; a config file's gamma replaces it."""
    gammas = []
    for extra in ([], ["--config", _write(tmp_path, "cfg.json", {"regularization": {"gamma": 1e-3}})]):
        out = tmp_path / f"rule{len(gammas)}.json"
        result = runner.invoke(cli, [*extra, "--output", str(out), "synthesize", near_degenerate], obj={})
        assert result.exit_code == 0, result.output
        gammas.append(json.loads(out.read_text())["diagnostics"]["gamma"])
    assert gammas == [1e-14, 1e-3]


@pytest.mark.parametrize("config, key", [
    ({"rel_tol": 1e-9}, "rel_tol"),
    ({"dedup_tol": 1e-12}, "dedup_tol"),
    ({"validation_bound": 1e-8}, "validation_bound"),
    ({"regularization": {"operator_error": 0.0}}, "operator_error"),
    ({"regularization": {"grid": {"min": 1e-14, "max": 1e2}}}, "grid"),
    ({"optimization": {"max_iters": 300}}, "max_iters"),
    ({"optimization": {"seed": 3}}, "seed"),
])
def test_config_rejects_removed_and_unknown_keys(runner, near_degenerate, tmp_path, config, key):
    out = tmp_path / "rule.json"
    args = ["--config", _write(tmp_path, "cfg.json", config), "--output", str(out),
            "synthesize", near_degenerate]
    result = runner.invoke(cli, args, obj={})
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
