"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model_terms, random_spectrum, run_cli, well_posed_phases
from shiftrules import (
    EquidistantStructure,
    FourierModel,
    IllPosedError,
    NoiseSpec,
    OptimizationConfig,
    RegularizationConfig,
    Spectrum,
    analytic_derivative,
    apply_rule,
    build_system,
    closed_form_rule,
    compatibility_residual,
    confidence_interval,
    evaluate,
    frequency_differences,
    optimal_phases,
    optimize_shifts,
    regularized_rule,
    solve_direct,
    synthesize_rule,
    tikhonov_solve,
    variance_of_estimate,
)
from shiftrules import serialize
from paper_forms import (
    cramer_coefficient,
    determinant_stationarity_residual,
    exact_perturbed_solution,
    jacobi_coefficient,
    linearized_solution,
    paper_normalized_system,
    paper_system,
    stationarity_residual,
)
from shiftrules.equidistant import normalized_system
from shiftrules.fourier import sample_noisy_batch
from shiftrules.perturbation import error_bound, perturbation_matrices
from shiftrules.synthesis import LinearSystem


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")


def test_criterion_01_oracle_derivative_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        freq = frequency_differences(random_spectrum(rng, n))
        phases = well_posed_phases(freq, rng)
        p = int(rng.integers(1, 4))
        rule = synthesize_rule(freq, phases, orders=((p, 1.0),))
        model = FourierModel(
            a0=float(rng.uniform(-1, 1)),
            terms=random_model_terms(rng, freq.unique_frequencies),
        )
        t = float(rng.uniform(-np.pi, np.pi))
        target = analytic_derivative(model, t, p)
        est = apply_rule(rule, lambda x: evaluate(model, x), t)
        worst = max(worst, abs(est - target) / (1 + abs(target)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, "oracle derivative equivalence",
            ok, f"worst scaled error {worst:.3g}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_equidistant_closed_form():
    start = time.perf_counter()
    worst_unitary = worst_match = worst_zero = 0.0
    for n in range(2, 9):
        es = EquidistantStructure(n, 1.3)
        E, _ = normalized_system(es)
        worst_unitary = max(
            worst_unitary,
            float(np.linalg.norm(E.conj().T @ E - np.eye(es.m))),
        )
        rule = closed_form_rule(es, 1)
        direct = solve_direct(build_system(es.frequency_set(), optimal_phases(es)))
        worst_match = max(
            worst_match, float(np.abs(rule.coefficients - direct.coefficients).max())
        )
        worst_zero = max(worst_zero, abs(rule.coefficients[-1]))
    elapsed = time.perf_counter() - start
    ok = worst_unitary <= 1e-12 and worst_match <= 1e-10 and worst_zero <= 1e-12 and elapsed < 1.0
    _report(2, "equidistant closed form", ok,
            f"unitarity {worst_unitary:.2g}, match {worst_match:.2g}, "
            f"zero-coeff {worst_zero:.2g}, {elapsed:.2f}s")
    assert worst_unitary <= 1e-12
    assert worst_match <= 1e-10
    assert worst_zero <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_baseline_recovery():
    rng = np.random.default_rng(3)
    # two-term rule for a single-frequency model
    omega, phi1 = 1.3, 0.7
    freq2 = frequency_differences(Spectrum((0.0, omega)))
    rule2 = synthesize_rule(freq2, [phi1, -phi1, -np.pi])
    worst2 = 0.0
    for _ in range(20):
        model = FourierModel(a0=float(rng.uniform(-1, 1)),
                             terms=((omega, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),))
        f = lambda t: evaluate(model, t)
        baseline = omega / (2 * np.sin(omega * phi1)) * (f(phi1) - f(-phi1))
        worst2 = max(worst2, abs(apply_rule(rule2, f, 0.0) - baseline))

    # four-point rule for eigenvalues {-1, 0, 1}
    freq3 = frequency_differences(Spectrum((-1.0, 0.0, 1.0)))
    rule3 = closed_form_rule(EquidistantStructure(3, 1.0), 1)
    p1, p2 = np.pi / 2 - np.pi / 4, np.pi / 2 + np.pi / 4
    y1 = (np.sqrt(2) + 1) / (2 * np.sqrt(2))
    y2 = (np.sqrt(2) - 1) / (2 * np.sqrt(2))
    worst3 = 0.0
    for _ in range(20):
        model = FourierModel(a0=float(rng.uniform(-1, 1)),
                             terms=random_model_terms(rng, (1.0, 2.0)))
        f = lambda t: evaluate(model, t)
        baseline = y1 * (f(p1) - f(-p1)) - y2 * (f(p2) - f(-p2))
        worst3 = max(worst3, abs(apply_rule(rule3, f, 0.0) - baseline))

    ok = worst2 <= 1e-10 and worst3 <= 1e-10
    _report(3, "baseline recovery", ok, f"two-term {worst2:.2g}, four-point {worst3:.2g}")
    assert worst2 <= 1e-10
    assert worst3 <= 1e-10


def test_criterion_04_compatibility_and_realness():
    """The real rule is the real part of the paper's complex solve E b = mu."""
    rng = np.random.default_rng(4)
    worst_resid = worst_paper = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 5))
        freq = frequency_differences(random_spectrum(rng, n))
        phases = well_posed_phases(freq, rng)
        p = int(rng.integers(0, 4))
        orders = ((p, 1.0),) if rng.random() < 0.5 else ((1, 1.0), (2, float(rng.uniform(-1, 1))))
        rule = synthesize_rule(freq, phases, orders=orders)
        worst_resid = max(worst_resid, compatibility_residual(rule, freq))
        paper = paper_system(freq, phases, orders)
        b = np.linalg.solve(paper.matrix, paper.rhs).real
        gap = np.linalg.norm(rule.coefficients - b) / max(float(np.linalg.norm(b)), 1e-300)
        worst_paper = max(worst_paper, gap / rule.diagnostics["condition_number"])
    ok = worst_resid <= 1e-9 and worst_paper <= 1e-12
    _report(4, "compatibility and realness", ok,
            f"residual {worst_resid:.2g}, paper-form gap / cond {worst_paper:.2g}")
    assert worst_resid <= 1e-9
    assert worst_paper <= 1e-12


def test_criterion_05_cramer_jacobi_consistency():
    rng = np.random.default_rng(5)
    worst_cramer = worst_jacobi = 0.0
    cases = [random_spectrum(rng, 2) for _ in range(4)]
    cases += [random_spectrum(rng, 3) for _ in range(4)]
    cases += [Spectrum((0.0, 0.9, 1.8, 2.7))]  # equidistant m = 7
    for spec in cases:
        freq = frequency_differences(spec)
        if freq.m > 7:
            continue
        sys = build_system(freq, well_posed_phases(freq, rng))
        rule = solve_direct(sys)
        for x in range(freq.m):
            worst_cramer = max(
                worst_cramer, abs(cramer_coefficient(sys, x) - rule.coefficients[x])
            )
            worst_jacobi = max(
                worst_jacobi, abs(jacobi_coefficient(sys, x) - rule.coefficients[x])
            )
    ok = worst_cramer <= 1e-9 and worst_jacobi <= 1e-6
    _report(5, "Cramer/Jacobi consistency", ok,
            f"cramer {worst_cramer:.2g}, jacobi {worst_jacobi:.2g}")
    assert worst_cramer <= 1e-9
    assert worst_jacobi <= 1e-6


def test_criterion_06_perturbation_order_and_bound():
    worst_lo, worst_hi = np.inf, 0.0
    for n in (2, 3, 4):
        es = EquidistantStructure(n, 1.0)
        E, mu = paper_normalized_system(es)  # the complex layout perturbation_matrices perturbs
        b0 = np.linalg.solve(E, mu)
        pd = perturbation_matrices(es)
        for eps in (1e-2, 1e-3):
            def gap(e):
                exact = exact_perturbed_solution(E, pd, mu, e)
                return np.linalg.norm(exact - linearized_solution(E, pd, b0, e))
            ratio = gap(eps) / gap(eps / 2)
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    ratios_ok = worst_lo >= 3.5 and worst_hi <= 4.5

    bound_ok = True
    detail_bound = 0.0
    for n in (2, 3, 4):
        es = EquidistantStructure(n, 1.0)
        E, mu = paper_normalized_system(es)
        b0 = np.linalg.solve(E, mu)
        pd = perturbation_matrices(es)
        eps = 1e-4
        measured = float(np.linalg.norm(exact_perturbed_solution(E, pd, mu, eps) - b0))
        estimate = error_bound(es, pd, b0.real, eps).absolute
        detail_bound = max(detail_bound, measured / estimate)
        bound_ok = bound_ok and measured <= 1.5 * estimate
    ok = ratios_ok and bound_ok
    _report(6, "perturbation order and bound", ok,
            f"ratios in [{worst_lo:.2f}, {worst_hi:.2f}], measured/estimate {detail_bound:.2f}")
    assert ratios_ok
    assert bound_ok


def test_criterion_07_regularization():
    rng = np.random.default_rng(7)
    # (a) residual/norm monotonicity across 33 log-spaced gammas on [1e-14, 1e2]
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, well_posed_phases(freq, rng))
    grid = np.geomspace(1e-14, 1e2, 33)
    sols = [tikhonov_solve(sys, g) for g in grid[::-1]]  # decreasing gamma
    mono = all(b.residual <= a.residual + 1e-12 for a, b in zip(sols, sols[1:]))
    mono = mono and all(b.norm >= a.norm - 1e-12 for a, b in zip(sols, sols[1:]))

    # (b) strictly decreasing error with delta -> 0 and gamma = delta
    b_true = solve_direct(sys).coefficients
    direction = rng.standard_normal(freq.m)  # the system C b = t is real
    rng.standard_normal(freq.m)  # the draw a complex direction took, so (c) keeps its phases
    direction /= np.linalg.norm(direction)
    errors = []
    for delta in (1e-2, 1e-4, 1e-6):
        noisy = LinearSystem(matrix=sys.matrix, rhs=sys.rhs + delta * direction,
                             row_gaps=sys.row_gaps, phases=sys.phases, orders=sys.orders)
        errors.append(float(np.linalg.norm(tikhonov_solve(noisy, delta).coefficients - b_true)))
    decreasing = errors[0] > errors[1] > errors[2]

    # (c) near-degenerate spectrum: direct ill-posed, regularized usable
    spec = Spectrum((0.0, 1.0, 1.0 + 1e-9))
    freq_nd = frequency_differences(spec, dedup_tol=1e-12)
    phases_nd = rng.uniform(-2 * np.pi, 0, freq_nd.m)
    direct_ill = False
    try:
        solve_direct(build_system(freq_nd, phases_nd))
    except IllPosedError:
        direct_ill = True
    rule = regularized_rule(freq_nd, phases_nd, cfg=RegularizationConfig())
    finite = bool(np.isfinite(rule.coefficients).all())
    model = FourierModel(a0=0.1, terms=((1.0, 0.4, -0.8),))
    deriv_err = abs(
        apply_rule(rule, lambda t: evaluate(model, t), 0.0)
        - analytic_derivative(model, 0.0, 1)
    )
    ok = mono and decreasing and direct_ill and finite and deriv_err <= 1e-3
    _report(7, "regularization", ok,
            f"monotone {mono}, errors {np.round(errors, 6).tolist()}, "
            f"near-degenerate deriv err {deriv_err:.2g}")
    assert mono
    assert decreasing
    assert direct_ill and finite
    assert deriv_err <= 1e-3


def test_criterion_08_variance_and_chebyshev():
    rule = closed_form_rule(EquidistantStructure(2, 1.0), 1)
    model = FourierModel(a0=0.1, terms=((1.0, 0.4, -0.6),))
    sigma, trials, t = 0.3, 10_000, 0.3
    noise = NoiseSpec(sigma=sigma, seed=88)
    draws = np.stack([
        sample_noisy_batch(model, float(t + p), noise, trials) for p in rule.phases
    ])
    estimates = np.asarray(rule.coefficients) @ draws
    analytic = variance_of_estimate(rule, sigma**2).variance
    empirical = float(estimates.var(ddof=1))
    stderr = analytic * np.sqrt(2.0 / (trials - 1))
    var_ok = abs(empirical - analytic) <= 3 * stderr

    truth = analytic_derivative(model, t, 1)
    coverage_ok = True
    coverages = []
    for eta in (0.1, 0.25):
        nu = confidence_interval(variance_of_estimate(rule, sigma**2), eta)
        cov = float(np.mean(np.abs(estimates - truth) <= nu))
        coverages.append(cov)
        coverage_ok = coverage_ok and cov >= 1 - eta
    ok = var_ok and coverage_ok
    _report(8, "variance and Chebyshev", ok,
            f"analytic {analytic:.4f} vs empirical {empirical:.4f}, coverage {coverages}")
    assert var_ok
    assert coverage_ok


def test_criterion_09a_shift_optimization_random_starts():
    rng = np.random.default_rng(2024)
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    worst_resid = 0.0
    descent_ok = True
    for trial in range(10):
        phi0 = well_posed_phases(freq, rng)
        before = synthesize_rule(freq, phi0).square_norm
        phi, rule = optimize_shifts(
            freq, phi0, OptimizationConfig(multistarts=8, seed=trial)
        )
        descent_ok = descent_ok and rule.square_norm <= before + 1e-9
        resid = float(np.abs(stationarity_residual(freq, phi)).max())
        worst_resid = max(worst_resid, resid)
    ok = descent_ok and worst_resid <= 1e-6
    _report(9, "shift optimization (random starts)", ok,
            f"descent {descent_ok}, worst stationarity residual {worst_resid:.2g}")
    assert descent_ok
    assert worst_resid <= 1e-6


def test_criterion_09b_equidistant_phases_stationarity():
    """Square-norm stationarity at the closed-form equidistant phases, n = 2.

    The phases -2*pi*j/3 maximize |det E| (the scaled matrix is unitary)
    but are not a stationary point of the coefficient square-norm.  With
    b = (-1/sqrt(3), 1/sqrt(3), 0), differentiating the real constraints
    sum b = 0, sum b cos(phi) = 0, sum b sin(phi) = 1 in phi_1 gives
    db/dphi_1 = (0, -1/3, 1/3), so S_1 = -sqrt(3)/9; reflection symmetry
    gives S_2 = +sqrt(3)/9, and S_3 = 0 since b_3 = 0.  Descent from these
    phases reaches the symmetric two-term rule, square-norm 1/2 < 2/3.
    """
    freq = frequency_differences(Spectrum((0.0, 1.0)))
    phases = optimal_phases(EquidistantStructure(2, 1.0))
    m = len(phases)
    expected = np.array([-np.sqrt(3) / 9, np.sqrt(3) / 9, 0.0])
    resid_err = {
        method: float(np.abs(residual(freq, phases) - expected).max())
        for method, residual in (("finite_difference", stationarity_residual),
                                 ("determinant", determinant_stationarity_residual))
    }
    resid_ok = all(err <= 1e-8 for err in resid_err.values())

    det_ratio = abs(np.linalg.det(build_system(freq, phases).matrix)) / m ** (m / 2)
    det_ok = abs(det_ratio - 1.0) <= 1e-12

    phi, rule = optimize_shifts(freq, phases, OptimizationConfig(multistarts=0))
    descent_resid = float(np.abs(stationarity_residual(freq, phi)).max())
    descent_ok = abs(rule.square_norm - 0.5) <= 1e-9 and descent_resid <= 1e-6

    ok = resid_ok and det_ok and descent_ok
    _report(9, "equidistant phases: Hadamard-optimal, not square-norm stationary", ok,
            f"residual error vs (-sqrt(3)/9, sqrt(3)/9, 0) {max(resid_err.values()):.2g}, "
            f"|det E|/3^(3/2) {det_ratio:.15g}, descent square-norm "
            f"{rule.square_norm:.12g} at residual {descent_resid:.2g}")
    for method, err in resid_err.items():
        assert err <= 1e-8, (
            f"{method} stationarity residual at the equidistant phases is off "
            f"(-sqrt(3)/9, sqrt(3)/9, 0) by {err:.3g}"
        )
    assert det_ok, (
        f"|det E| at the equidistant phases is {det_ratio:.15g} of Hadamard's bound 3^(3/2)"
    )
    assert abs(rule.square_norm - 0.5) <= 1e-9, (
        "descent from the equidistant phases should reach the two-term rule's "
        f"square-norm 1/2, got {rule.square_norm:.12g}"
    )
    assert descent_resid <= 1e-6, (
        f"descent end point is not stationary: max residual {descent_resid:.3g}"
    )


def test_criterion_10_integer_phase_collisions_singular():
    worst = 0.0
    for n in (2, 3):
        es = EquidistantStructure(n, 1.0)
        m = es.m
        ts = list(range(1, m)) + [1 + m]  # collides with t = 1 modulo 2n-1
        phases = es.tau / es.delta * np.asarray(ts, dtype=float)
        E = build_system(es.frequency_set(), phases).matrix
        worst = max(worst, abs(np.linalg.det(E)) / m ** (m / 2))
    ok = worst <= 1e-10
    _report(10, "phase collision singularity", ok, f"relative |det| {worst:.2g}")
    assert worst <= 1e-10


def test_criterion_11_cli_contract(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    eq = write("eq.json", {"eigenvalues": [0.0, 1.0]})
    free = write("free.json", {"eigenvalues": [0.0, 1.0, 2.5]})
    near = write("near.json", {"eigenvalues": [0.0, 1.0, 1.0 + 1e-9]})
    bad = write("bad.json", {"eigenvalues": [0.0]})

    checks = []

    out = str(tmp_path / "rule.json")
    checks.append(run_cli(["analyze", eq]).exit_code == 0)
    checks.append(run_cli(["analyze", bad]).exit_code == 3)
    checks.append(
        run_cli(["--output", out, "synthesize", eq]).exit_code == 0
    )
    checks.append(run_cli(["validate", out]).exit_code == 0)
    checks.append(
        run_cli(["--output", str(tmp_path / "r2.json"),
                 "synthesize", free]).exit_code == 0
    )
    checks.append(
        run_cli(["--output", str(tmp_path / "r3.json"), "synthesize", near,
                 "--method", "direct"]).exit_code == 2
    )
    checks.append(
        run_cli(["--output", str(tmp_path / "r4.json"), "synthesize", eq,
                 "--phases", "-1.0,-1.0,-2.0"]).exit_code == 2
    )
    checks.append(run_cli(["synthesize", bad]).exit_code == 3)

    # broken rule fails validation with exit 1
    data = json.loads(Path(out).read_text())
    idx = int(np.argmax(np.abs(data["coefficients"])))
    data["coefficients"][idx] = 0.0
    broken = write("broken.json", data)
    checks.append(run_cli(["validate", broken]).exit_code == 1)

    # incompatible model is invalid input
    model = write("model.json", {"a0": 0.0, "terms": [{"omega": 2.5, "a": 1.0, "b": 0.0}]})
    checks.append(
        run_cli(["validate", out, "--model", model]).exit_code == 3
    )

    # optimize: descent on the unstructured spectrum; infeasible start exits 2
    opt = run_cli(["--seed", "5", "--output", str(tmp_path / "opt.json"), "optimize", free])
    checks.append(opt.exit_code == 0)
    cfg = write("cfg.json", {"optimization": {"multistarts": 0}})
    checks.append(
        run_cli(["--config", cfg, "optimize", eq,
                 "--phases", "-1.0,-1.0,-1.0"]).exit_code == 2
    )

    # variance: success and invalid input
    checks.append(
        run_cli(["variance", out, "--sigma", "0.5", "--shots", "200"]).exit_code == 0
    )
    checks.append(
        run_cli(["variance", out, "--eta", "2.0"]).exit_code == 3
    )

    # rule files round-trip bit-identically
    rule = serialize.load_rule(out)
    second = tmp_path / "roundtrip.json"
    serialize.save_rule(rule, second)
    checks.append(second.read_bytes() == (tmp_path / "rule.json").read_bytes())

    ok = all(checks)
    _report(11, "CLI contract", ok, f"{sum(checks)}/{len(checks)} checks")
    assert ok, checks
