import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import shiftrules
from conftest import random_spectrum, well_posed_phases
from shiftrules import (
    EquidistantStructure,
    FourierModel,
    IllPosedError,
    NoiseSpec,
    OptimizationConfig,
    Spectrum,
    analytic_derivative,
    closed_form_rule,
    confidence_interval,
    frequency_differences,
    optimize_shifts,
    synthesize_rule,
    variance,
    variance_of_estimate,
)
from paper_forms import (
    determinant_stationarity_residual,
    regularized_stationarity_residual,
    stationarity_residual,
)
from shiftrules.fourier import evaluate, sample_noisy_batch
from shiftrules.rule import FIRST_DERIVATIVE, apply_rule
from shiftrules.synthesis import auto_phases
from shiftrules.variance import _evaluate_point, _evaluate_reduced, build_reduced_system

SRC = str(Path(shiftrules.__file__).resolve().parents[1])
FREQ01 = frequency_differences(Spectrum((0.0, 1.0)))
EQ_RULE = closed_form_rule(EquidistantStructure(2, 1.0), 1)


def test_variance_equidistant_two_level():
    report = variance_of_estimate(EQ_RULE, 1.0)
    assert report.variance == pytest.approx(2.0 / 3.0)
    assert report.square_norm == pytest.approx(2.0 / 3.0)


def test_variance_zero_noise():
    assert variance_of_estimate(EQ_RULE, 0.0).variance == 0.0


def test_variance_is_linear_in_noise():
    r1 = variance_of_estimate(EQ_RULE, [0.5, 1.0, 2.0])
    r2 = variance_of_estimate(EQ_RULE, [1.0, 2.0, 4.0])
    assert r2.variance == pytest.approx(2 * r1.variance)


def test_variance_refuses_an_overflowing_sum_without_a_warning():
    rule = closed_form_rule(EquidistantStructure(3, 1.0), 1)  # sum b^2 > 1: 1e308 * sum b^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            variance_of_estimate(rule, 1e308)
        with pytest.raises(ValueError, match="overflows"):
            variance_of_estimate(rule, [1e308] * len(rule.coefficients))


def test_variance_rejects_negative():
    with pytest.raises(ValueError):
        variance_of_estimate(EQ_RULE, [-1.0, 0.0, 0.0])


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), -1.0, np.float64("nan"),
                                    [1.0, float("nan"), 1.0], [1.0, 1.0, float("inf")],
                                    np.array([0.5, -np.inf, 1.0])])
def test_variance_rejects_non_finite(sigma2):
    """A NaN or infinite variance, scalar or per point, is refused like a negative one."""
    with pytest.raises(ValueError, match="finite and non-negative"):
        variance_of_estimate(EQ_RULE, sigma2)


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", True), ("seed", 1.5),
                                          ("multistarts", -1), ("multistarts", 2.9)])
def test_optimization_config_rejects_bad_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
        OptimizationConfig(**{field: value})


def test_confidence_interval_closed_form():
    report = variance_of_estimate(EQ_RULE, 1.0)
    assert confidence_interval(report, 0.25) == pytest.approx(np.sqrt(8.0 / 3.0))
    assert confidence_interval(report, 0.999999) == pytest.approx(
        np.sqrt(report.variance), rel=1e-5
    )
    with pytest.raises(ValueError):
        confidence_interval(report, 1.5)


def _estimator_draws(rule, model, t, sigma, seed, trials):
    noise = NoiseSpec(sigma=sigma, seed=seed)
    draws = np.stack([
        sample_noisy_batch(model, float(t + p), noise, trials) for p in rule.phases
    ])
    return np.asarray(rule.coefficients) @ draws


def test_variance_formula_matches_empirical():
    model = FourierModel(a0=0.1, terms=((1.0, 0.4, -0.6),))
    sigma = 0.3
    trials = 10_000
    est = _estimator_draws(EQ_RULE, model, 0.3, sigma, seed=21, trials=trials)
    analytic = variance_of_estimate(EQ_RULE, sigma**2).variance
    empirical = est.var(ddof=1)
    stderr = analytic * np.sqrt(2.0 / (trials - 1))
    assert abs(empirical - analytic) <= 3 * stderr


@pytest.mark.parametrize("eta", [0.1, 0.25])
def test_chebyshev_coverage(eta):
    model = FourierModel(a0=0.0, terms=((1.0, 0.2, 0.9),))
    sigma, trials, t = 0.1, 10_000, 0.3
    est = _estimator_draws(EQ_RULE, model, t, sigma, seed=33, trials=trials)
    nu = confidence_interval(variance_of_estimate(EQ_RULE, sigma**2), eta)
    truth = analytic_derivative(model, t, 1)
    coverage = np.mean(np.abs(est - truth) <= nu)
    assert coverage >= 1 - eta


def test_stationarity_methods_agree():
    rng = np.random.default_rng(1)
    for _ in range(5):
        freq = frequency_differences(random_spectrum(rng, 2))
        phases = well_posed_phases(freq, rng)
        fd = stationarity_residual(freq, phases)
        det = determinant_stationarity_residual(freq, phases)
        scale = 1 + np.abs(fd).max()
        assert np.abs(fd - det).max() / scale <= 1e-5


def test_stationarity_zero_component_at_zero_coefficient():
    # the last closed-form phase carries a zero coefficient, so the
    # square-norm is exactly flat in that phase
    S = stationarity_residual(FREQ01, EQ_RULE.phases)
    assert abs(S[-1]) <= 1e-10


def test_stationarity_determinant_guards():
    rng = np.random.default_rng(2)
    freq = frequency_differences(random_spectrum(rng, 4))  # m = 13
    phases = well_posed_phases(freq, rng)
    with pytest.raises(ValueError, match="m <= 7"):
        determinant_stationarity_residual(freq, phases)


@pytest.mark.parametrize("eigenvalues", [(0.0, 1.0, 2.5), (0.0, 1.0, 2.5, 4.1)], ids=["S7", "N4"])
def test_objective_derivatives_match_central_differences(eigenvalues):
    # the optimizer's exact gradient and Hessian against central
    # differences of sum b^2 and of the gradient; half the gradient is S_y
    freq = frequency_differences(Spectrum(eigenvalues))
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(3):
        phases = well_posed_phases(freq, rng)
        point = _evaluate_point(freq, phases, FIRST_DERIVATIVE)
        steps = [(_evaluate_point(freq, phases + h * e, FIRST_DERIVATIVE),
                  _evaluate_point(freq, phases - h * e, FIRST_DERIVATIVE))
                 for e in np.eye(freq.m)]
        fd_grad = np.array([(up.value - dn.value) / (2 * h) for up, dn in steps])
        fd_hess = np.array([(up.gradient - dn.gradient) / (2 * h) for up, dn in steps])
        g_scale = np.abs(point.gradient).max()
        assert np.abs(fd_grad - point.gradient).max() <= 1e-5 * g_scale
        assert np.abs(fd_hess - point.hessian).max() <= 1e-5 * np.abs(point.hessian).max()
        S = stationarity_residual(freq, phases)
        assert np.abs(S - point.gradient / 2).max() <= 1e-6 * g_scale


@pytest.mark.parametrize("p", [1, 2])
def test_reduced_derivatives_match_central_differences(p):
    # exact gradient and Hessian of sum b^2 over the magnitudes x of the
    # symmetric phases (0, -x, +x), from the real block solve
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5, 4.1)))
    orders = ((p, 1.0),)
    rng = np.random.default_rng(12)
    h = 1e-6
    well_posed = [(x, _evaluate_reduced(freq, x, orders))
                  for x in rng.uniform(0.2, 10.0, (20, len(freq.unique_frequencies)))
                  if build_reduced_system(freq, x, orders).condition_number() <= 1e4][:3]
    assert len(well_posed) == 3
    for x, point in well_posed:
        steps = [(_evaluate_reduced(freq, x + h * e, orders),
                  _evaluate_reduced(freq, x - h * e, orders)) for e in np.eye(len(x))]
        fd_grad = np.array([(up.value - dn.value) / (2 * h) for up, dn in steps])
        fd_hess = np.array([(up.gradient - dn.gradient) / (2 * h) for up, dn in steps])
        assert point.value == pytest.approx(synthesize_rule(freq, np.concatenate([[0.0], -x, x]),
                                                            orders).square_norm, rel=1e-9)
        assert np.abs(fd_grad - point.gradient).max() <= 1e-5 * np.abs(point.gradient).max()
        assert np.abs(fd_hess - point.hessian).max() <= 1e-5 * np.abs(point.hessian).max()


_FRAGILE_PROBE = """
import json
from shiftrules import OptimizationConfig, Spectrum, frequency_differences, optimize_shifts
from shiftrules.synthesis import auto_phases
freq = frequency_differences(Spectrum((0.0, 1.0, 2.6)))
cfg = OptimizationConfig()
_, rule = optimize_shifts(freq, auto_phases(freq), cfg)
print(json.dumps({"square_norm": rule.square_norm, "tol": cfg.tol, **rule.diagnostics}))
"""


def test_optimize_pins_fragile_spectrum():
    # (0, 1, 2.6) from the CLI's --seed 0 start, in a fresh process on one
    # BLAS thread as the benchmark runs it
    threads = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=SRC, **threads)
    result = subprocess.run([sys.executable, "-c", _FRAGILE_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["square_norm"] == pytest.approx(1.129483176141322, rel=1e-12)
    assert probe["certified"] is True
    assert probe["stationarity"] <= probe["tol"]


_THREADS_PROBE = """
import json
from shiftrules import OptimizationConfig, Spectrum, frequency_differences, optimize_shifts
from shiftrules.synthesis import auto_phases
out = {}
for ev in ((0.0, 1.0, 2.9), (0.0, 1.0, 2.5, 4.1)):
    freq = frequency_differences(Spectrum(ev))
    out[str(ev)] = optimize_shifts(freq, auto_phases(freq), OptimizationConfig())[1].square_norm
print(json.dumps(out))
"""


def test_optimize_does_not_depend_on_blas_threads():
    # u1.9 and N4 from the CLI's --seed 0 start on one and on two BLAS threads
    probes = []
    for n in ("1", "2"):
        threads = {v: n for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        result = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                                env=dict(os.environ, PYTHONPATH=SRC, **threads),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        probes.append(json.loads(result.stdout))
    for key, value in probes[0].items():
        assert probes[1][key] == pytest.approx(value, rel=1e-12)


def test_optimize_reaches_global_minimum_from_every_09a_seed():
    # the starts and seeds of acceptance criterion 09a on S7
    rng = np.random.default_rng(2024)
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    for trial in range(10):
        phi0 = well_posed_phases(freq, rng)
        _, rule = optimize_shifts(freq, phi0, OptimizationConfig(multistarts=8, seed=trial))
        assert rule.square_norm == pytest.approx(1.1601179447131866, rel=1e-9)
        assert rule.diagnostics["certified"] is True
        assert rule.diagnostics["winner_start"] == "reduced"


def test_optimize_reports_which_start_won():
    # multistarts=0 and mixed-parity orders search from phi0 alone
    _, rule = optimize_shifts(FREQ01, EQ_RULE.phases, OptimizationConfig(multistarts=0))
    assert rule.diagnostics["winner_start"] == "phi0"
    assert rule.diagnostics["starts"] == 1
    assert rule.diagnostics["newton_steps"] > 0
    mixed = ((1, 1.0), (2, 0.5))
    before = synthesize_rule(FREQ01, EQ_RULE.phases, mixed).square_norm
    _, rule = optimize_shifts(FREQ01, EQ_RULE.phases, OptimizationConfig(), orders=mixed)
    assert (rule.diagnostics["winner_start"], rule.diagnostics["starts"]) == ("phi0", 1)
    assert rule.square_norm <= before + 1e-9
    # the reduced search certifies here, so phi0 is not descended
    _, rule = optimize_shifts(FREQ01, EQ_RULE.phases, OptimizationConfig(multistarts=3))
    assert rule.diagnostics["starts"] == 3
    # no reduced candidate certifies at tol 1e-300: the phi0 fallback runs; it and the
    # reduced candidates all reach sum b^2 = 1/2, so which one wins is a round-off tie
    cfg = OptimizationConfig(tol=1e-300, multistarts=3)
    _, rule = optimize_shifts(FREQ01, EQ_RULE.phases, cfg)
    assert rule.diagnostics["starts"] == 4
    assert rule.square_norm == pytest.approx(0.5, rel=0, abs=1e-12)
    # p = 2: the reduced optima do not certify, so phi0 is descended as well
    _, rule = optimize_shifts(FREQ01, EQ_RULE.phases, OptimizationConfig(), orders=((2, 1.0),))
    assert rule.diagnostics["starts"] == 9
    assert rule.square_norm == pytest.approx(0.375, rel=1e-9)


@pytest.mark.parametrize("eigenvalues, square_norm", [
    ((0.0, 1.0), 0.5),
    ((0.0, 1.0, 2.5), 1.1601179447131866),
    ((0.0, 1.0, 2.4), 0.9714295610481637),
    ((0.0, 1.0, 2.6), 1.129483176141322),
    ((0.0, 1.0, 2.9), 1.4298864362214996),
    ((0.0, 1.0, 2.5, 4.1), 2.100041430600614),
], ids=["n2", "S7", "u1.4", "u1.6", "u1.9", "N4"])
def test_optimize_skips_phi0_descent_when_reduced_certifies(eigenvalues, square_norm):
    # the optimize benchmark spectra from the CLI's --seed 0 start: the
    # symmetric search certifies, so only its eight descents run
    freq = frequency_differences(Spectrum(eigenvalues))
    _, rule = optimize_shifts(freq, auto_phases(freq), OptimizationConfig())
    assert rule.diagnostics["starts"] == 8
    assert rule.diagnostics["winner_start"] == "reduced"
    assert rule.diagnostics["certified"] is True
    assert rule.square_norm == pytest.approx(square_norm, rel=1e-12)


def test_optimize_from_equidistant_start_finds_symmetric_rule():
    # The closed-form equidistant point is not a stationary point of the
    # square-norm: descent reaches the symmetric two-term rule at 1/2.
    cfg = OptimizationConfig(multistarts=4, seed=3)
    phi, rule = optimize_shifts(FREQ01, EQ_RULE.phases, cfg)
    assert rule.square_norm == pytest.approx(0.5, abs=1e-9)
    assert np.abs(stationarity_residual(FREQ01, phi)).max() <= 1e-8


def test_optimize_random_start_reaches_same_minimum():
    rng = np.random.default_rng(4)
    phi0 = well_posed_phases(FREQ01, rng)
    phi, rule = optimize_shifts(FREQ01, phi0, OptimizationConfig(multistarts=4, seed=5))
    assert rule.square_norm == pytest.approx(0.5, abs=1e-6)


def test_optimize_never_increases_objective():
    rng = np.random.default_rng(6)
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    for seed in range(3):
        phi0 = well_posed_phases(freq, rng)
        before = synthesize_rule(freq, phi0).square_norm
        _, rule = optimize_shifts(freq, phi0, OptimizationConfig(multistarts=2, seed=seed))
        assert rule.square_norm <= before + 1e-9


def test_optimize_screen_survives_exactly_singular_point():
    # p = 2 here: one of the 4096 screen points has an exactly singular
    # cos block, which must not fail the batched screen solve
    freq = frequency_differences(Spectrum((0.0, 1.4598697485727319, 2.660772350287959,
                                           3.7165231409500312)))
    phi0, orders = auto_phases(freq), ((2, 1.0),)
    _, rule = optimize_shifts(freq, phi0, OptimizationConfig(), orders=orders)
    assert rule.square_norm < synthesize_rule(freq, phi0, orders).square_norm


def test_screen_keeps_only_finite_points_in_order(monkeypatch):
    """(0, 1, 2) at p = 1000: every screened sum b^2 overflows, so no start is
    screened and only phi0 is descended before the optimizer gives up."""
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert len(variance._screen(freq, ((1000, 1.0),), 2 * np.pi, np.random.default_rng(0))) == 0
    xs = variance._screen(freq, FIRST_DERIVATIVE, 2 * np.pi, np.random.default_rng(0))
    rs = build_reduced_system(freq, xs, FIRST_DERIVATIVE)
    values = [float(u @ u) for u in np.linalg.solve(rs.matrix, rs.rhs)]
    assert len(xs) == variance.SCREEN_SIZE and values == sorted(values)
    starts = []
    newton = variance._newton
    monkeypatch.setattr(variance, "_newton", lambda *args: starts.append(args[-1]) or newton(*args))
    phi0 = closed_form_rule(EquidistantStructure(3, 1.0), 1).phases
    with pytest.raises(IllPosedError, match="ill-posed"):
        optimize_shifts(freq, phi0, orders=((1000, 1.0),))
    assert len(starts) == 1 and np.array_equal(starts[0], phi0)


def test_optimize_all_starts_ill_posed():
    with pytest.raises(IllPosedError, match="ill-posed"):
        optimize_shifts(FREQ01, [-1.0, -1.0, -1.0], OptimizationConfig(multistarts=0))


def test_optimized_rule_still_differentiates():
    model = FourierModel(a0=0.4, terms=((1.0, -0.3, 0.8),))
    phi, rule = optimize_shifts(FREQ01, EQ_RULE.phases, OptimizationConfig(multistarts=2, seed=7))
    t = 0.45
    est = apply_rule(rule, lambda x: evaluate(model, x), t)
    assert est == pytest.approx(analytic_derivative(model, t, 1), abs=1e-8)


def test_scale_covariance_of_coefficients():
    rng = np.random.default_rng(8)
    spec = random_spectrum(rng, 3)
    freq = frequency_differences(spec)
    phases = well_posed_phases(freq, rng)
    rule = synthesize_rule(freq, phases)
    for c in (0.5, 2.0, 7.3):
        scaled_spec = Spectrum(tuple(c * v for v in spec.eigenvalues))
        scaled = synthesize_rule(frequency_differences(scaled_spec), phases / c)
        np.testing.assert_allclose(scaled.coefficients, c * np.asarray(rule.coefficients),
                                   rtol=1e-8, atol=1e-10)


def test_regularized_stationarity_small_gamma_limit():
    rng = np.random.default_rng(9)
    freq = frequency_differences(random_spectrum(rng, 2))
    phases = well_posed_phases(freq, rng)
    S_direct = stationarity_residual(freq, phases)
    S_reg = regularized_stationarity_residual(freq, phases, gamma=1e-10)
    assert np.abs(S_direct - S_reg).max() <= 1e-4 * (1 + np.abs(S_direct).max())


def test_regularized_stationarity_explicit_matches_fd():
    rng = np.random.default_rng(10)
    for _ in range(5):
        freq = frequency_differences(random_spectrum(rng, 2))
        phases = rng.uniform(-2 * np.pi, 0, freq.m)
        gamma = float(rng.uniform(1e-4, 1e-1))
        fd = regularized_stationarity_residual(freq, phases, gamma, method="finite_difference")
        ex = regularized_stationarity_residual(freq, phases, gamma, method="explicit")
        assert np.abs(fd - ex).max() <= 1e-5 * (1 + np.abs(fd).max())


def test_regularized_descent_reaches_stationary_point():
    freq = FREQ01
    gamma = 1e-3
    rng = np.random.default_rng(11)
    phi0 = well_posed_phases(freq, rng)

    def objective(ph):
        S = regularized_stationarity_residual(freq, ph, gamma, method="explicit")
        from shiftrules.regularization import tikhonov_solve
        from shiftrules.synthesis import build_system
        b = tikhonov_solve(build_system(freq, ph), gamma).coefficients
        return float(b @ b), 2 * S

    res = minimize(objective, phi0, jac=True, method="L-BFGS-B",
                   options=dict(maxiter=2000, ftol=1e-18, gtol=1e-12))
    S = regularized_stationarity_residual(freq, res.x, gamma)
    assert np.abs(S).max() <= 1e-6


def test_optimizer_rejects_points_whose_square_norm_overflows():
    """(0, 1, 2): no Newton step is taken from a point whose sum b^2, gradient or
    Hessian overflows, so high orders end in IllPosedError or an uncertified rule."""
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    phi0 = closed_form_rule(EquidistantStructure(3, 1.0), 1).phases
    with warnings.catch_warnings():  # and no overflow warning on the way
        warnings.simplefilter("error")
        with pytest.raises(IllPosedError, match="ill-posed"):
            optimize_shifts(freq, phi0, orders=((700, 1.0),))
        _, rule = optimize_shifts(freq, phi0, orders=((500, 1.0),))
    assert np.isfinite(rule.square_norm) and not rule.diagnostics["certified"]
    assert rule.square_norm < synthesize_rule(freq, phi0, ((500, 1.0),)).square_norm
