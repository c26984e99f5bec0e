import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spectrum, well_posed_phases
from shiftrules import (
    FourierModel,
    IllPosedError,
    RegularizationConfig,
    Spectrum,
    analytic_derivative,
    apply_rule,
    build_system,
    compatibility_residual,
    condition_number,
    evaluate,
    frequency_differences,
    regularized_rule,
    solve_direct,
    synthesize_rule,
    tikhonov_solve,
)
from shiftrules import synthesis
from shiftrules.regularization import GAMMA_MAX, select_gamma_discrepancy
from shiftrules.variance import OptimizationConfig
from shiftrules.synthesis import LinearSystem, rule_for
from test_bit_identity import _ref_select_gamma_discrepancy


def _gamma_floor(sys):
    """The square of condition_number's rank cut max(M, N) eps s_max, from the cached SVD."""
    return (sys.svd[1].max() * max(sys.matrix.shape) * np.finfo(float).eps) ** 2


def _noisy_system(sys, noise):
    return LinearSystem(
        matrix=sys.matrix, rhs=sys.rhs + noise, row_gaps=sys.row_gaps, phases=sys.phases,
        orders=sys.orders,
    )


def test_vanishing_gamma_matches_direct():
    rng = np.random.default_rng(0)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, well_posed_phases(freq, rng))
    direct = solve_direct(sys)
    sol = tikhonov_solve(sys, 1e-14)
    np.testing.assert_allclose(sol.coefficients, direct.coefficients, atol=1e-6)


def test_huge_gamma_norm_bound():
    rng = np.random.default_rng(1)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, well_posed_phases(freq, rng))
    gamma = 1e12
    sol = tikhonov_solve(sys, gamma)
    bound = np.linalg.norm(sys.matrix.conj().T @ sys.rhs) / gamma
    assert sol.norm <= bound * (1 + 1e-12)


def test_rank_deficient_full_system_recovers_derivative():
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    rng = np.random.default_rng(2)
    phases = rng.uniform(-2 * np.pi, 0, 7)
    sys = build_system(freq, phases)  # rank 5: 5 rows, 7 phases
    sol = tikhonov_solve(sys, 1e-8)
    model = FourierModel(a0=0.2, terms=((1.0, 0.0, 1.0), (2.0, 0.5, 0.0)))
    est = sum(b * evaluate(model, p) for b, p in zip(sol.coefficients, phases))
    assert est == pytest.approx(analytic_derivative(model, 0.0, 1), abs=1e-4)


def test_gamma_rejects_nonpositive():
    rng = np.random.default_rng(3)
    freq = frequency_differences(random_spectrum(rng, 2))
    sys = build_system(freq, well_posed_phases(freq, rng))
    with pytest.raises(ValueError):
        tikhonov_solve(sys, 0.0)


def test_residual_monotone_in_gamma():
    rng = np.random.default_rng(4)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, well_posed_phases(freq, rng))
    residuals = [tikhonov_solve(sys, g).residual for g in np.geomspace(1e-14, 1e2, 33)]
    assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_l_curve_monotonicity():
    rng = np.random.default_rng(5)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, well_posed_phases(freq, rng))
    sols = [tikhonov_solve(sys, g) for g in np.geomspace(1e-12, 1e2, 25)[::-1]]
    # along decreasing gamma: residual non-increasing, norm non-decreasing
    for a, b in zip(sols, sols[1:]):
        assert b.residual <= a.residual + 1e-12
        assert b.norm >= a.norm - 1e-12


def test_discrepancy_noiseless_returns_grid_minimum():
    rng = np.random.default_rng(6)
    freq = frequency_differences(random_spectrum(rng, 2))
    sys = build_system(freq, well_posed_phases(freq, rng))
    sel = select_gamma_discrepancy(sys, RegularizationConfig(data_error=0.0))
    assert sel.gamma == _gamma_floor(sys)
    assert sel.status == "target_below_min"


def test_discrepancy_brackets_noise_level():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(5):
        d = float(rng.uniform(0.5, 2.0))
        freq = frequency_differences(Spectrum((0.0, d, 2 * d)))  # 5x5 reduced system
        sys = build_system(freq, well_posed_phases(freq, rng))
        noise = rng.standard_normal(freq.m)  # on the real target t
        noise *= 1e-3 / np.linalg.norm(noise)
        noisy = _noisy_system(sys, noise)
        sel = select_gamma_discrepancy(noisy, RegularizationConfig(data_error=1e-3))
        if 0.5e-3 <= sel.residual <= 2e-3:
            hits += 1
    assert hits >= 4


def test_regularized_rule_auto_matches_direct_when_well_posed():
    rng = np.random.default_rng(8)
    freq = frequency_differences(random_spectrum(rng, 3))
    phases = well_posed_phases(freq, rng)
    direct = solve_direct(build_system(freq, phases))
    reg = regularized_rule(freq, phases, cfg=RegularizationConfig())
    np.testing.assert_allclose(reg.coefficients, direct.coefficients, atol=1e-5)


def test_regularized_rule_handles_near_coincident_gaps():
    spec = Spectrum((0.0, 1.0, 1.0 + 1e-9))
    freq = frequency_differences(spec, dedup_tol=1e-12)
    assert freq.m == 7
    rng = np.random.default_rng(9)
    phases = rng.uniform(-2 * np.pi, 0, freq.m)
    with pytest.raises(IllPosedError):
        solve_direct(build_system(freq, phases))
    rule = regularized_rule(freq, phases, cfg=RegularizationConfig())
    assert np.linalg.norm(rule.coefficients) <= 1e3
    model = FourierModel(a0=0.1, terms=((1.0, 0.4, -0.8),))
    est = apply_rule(rule, lambda t: evaluate(model, t), 0.0)
    assert est == pytest.approx(analytic_derivative(model, 0.0, 1), abs=1e-3)


def test_discrepancy_gamma_beats_tiny_gamma_under_noise():
    # near-coincident gaps + noisy rhs: the tiny-gamma solve amplifies noise
    spec = Spectrum((0.0, 1.0, 1.0 + 2e-4))
    freq = frequency_differences(spec, dedup_tol=1e-12)
    rng = np.random.default_rng(10)
    phases = rng.uniform(-2 * np.pi, 0, freq.m)  # practical shifts: ill-conditioned
    sys = build_system(freq, phases)
    model = FourierModel(a0=0.0, terms=((1.0, 0.3, 0.7),))
    true = analytic_derivative(model, 0.0, 1)

    def deriv_error(sol):
        est = sum(b * evaluate(model, p) for b, p in zip(sol.coefficients, phases))
        return abs(est - true)

    err_raw, err_disc = [], []
    for _ in range(20):
        noise = rng.standard_normal(freq.m)  # on the real target t
        noise *= 1e-3 / np.linalg.norm(noise)
        noisy = _noisy_system(sys, noise)
        err_raw.append(deriv_error(tikhonov_solve(noisy, 1e-14)))
        sel = select_gamma_discrepancy(noisy, RegularizationConfig(data_error=1e-3))
        err_disc.append(deriv_error(tikhonov_solve(noisy, sel.gamma)))
    assert np.mean(err_disc) < np.mean(err_raw)


def test_convergence_as_noise_vanishes():
    rng = np.random.default_rng(11)
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    phases = well_posed_phases(freq, rng)
    sys = build_system(freq, phases)
    b_true = solve_direct(sys).coefficients
    direction = rng.standard_normal(freq.m)  # on the real target t
    direction /= np.linalg.norm(direction)
    errors = []
    for delta in (1e-2, 1e-4, 1e-6):
        noisy = _noisy_system(sys, delta * direction)
        sol = tikhonov_solve(noisy, delta)  # gamma tied to the noise level
        errors.append(np.linalg.norm(sol.coefficients - b_true))
    assert errors[0] > errors[1] > errors[2]


def test_regularized_compatibility_matches_reported_residual():
    rng = np.random.default_rng(12)
    freq = frequency_differences(random_spectrum(rng, 3))
    rule = regularized_rule(freq, well_posed_phases(freq, rng),
                            cfg=RegularizationConfig(gamma=1e-6))
    assert compatibility_residual(rule, freq) <= rule.diagnostics["residual"] + 1e-12


def test_closed_form_residual_matches_solution_residual():
    # a real tall system: mu has a part outside range(E), the residual floor
    rng = np.random.default_rng(13)
    E, mu = rng.standard_normal((9, 5)), rng.standard_normal(9)
    sys = LinearSystem(matrix=E, rhs=mu, row_gaps=np.arange(9.0), phases=np.arange(5.0),
                       orders=((1, 1.0),))
    floor = np.linalg.norm(mu - E @ np.linalg.lstsq(E, mu, rcond=None)[0])
    for frac in (1e-6, 0.1, 0.5):
        target = floor + frac * (np.linalg.norm(mu) - floor)
        sel = select_gamma_discrepancy(sys, RegularizationConfig(data_error=target))
        assert sel.status == "bracketed"
        assert sel.residual == pytest.approx(target, rel=1e-9)
        assert tikhonov_solve(sys, sel.gamma).residual == pytest.approx(target, rel=1e-9)
    sel = select_gamma_discrepancy(sys, RegularizationConfig(data_error=0.99 * floor))
    assert sel.status == "target_below_min"


def test_regularized_rule_condition_number_matches_condition_number():
    rng = np.random.default_rng(14)
    freq = frequency_differences(random_spectrum(rng, 3))
    phases = well_posed_phases(freq, rng)
    rule = regularized_rule(freq, phases, cfg=RegularizationConfig(gamma=1e-3))
    cond = condition_number(build_system(freq, phases).matrix)
    assert rule.diagnostics["condition_number"] == pytest.approx(cond, rel=1e-9)


def _ill_conditioned_s31():
    # S31 at phases drawn over 2*pi / max(min gap, median gap / 4): that
    # window is too short to resolve the 0.1 gap spacing, cond(E) ~ 4e12
    freq = frequency_differences(Spectrum((0.0, 0.7, 1.9, 3.2, 3.3, 5.0)))
    freqs = freq.unique_frequencies
    width = 2 * np.pi / max(min(freqs), float(np.median(freqs)) / 4.0)
    rng = np.random.default_rng(0)
    draws = [rng.uniform(-width + 1e-3, -1e-3, freq.m) for _ in range(64)]
    return freq, min(draws, key=lambda ph: condition_number(build_system(freq, ph).matrix))


def test_regularized_rule_is_finite_at_grid_floor_of_ill_conditioned_system():
    freq, phases = _ill_conditioned_s31()
    assert condition_number(build_system(freq, phases).matrix) >= 1e12
    rule = regularized_rule(freq, phases)
    assert rule.diagnostics["gamma"] == _gamma_floor(build_system(freq, phases))
    assert rule.diagnostics["gamma_selection"] == "target_below_min"
    assert rule.diagnostics["condition_number"] >= 1e12
    assert np.isfinite(rule.coefficients).all()
    assert compatibility_residual(rule, freq) <= rule.diagnostics["residual"] + 1e-12


def test_regularized_rule_factors_once(monkeypatch):
    freq, phases = _ill_conditioned_s31()
    calls = {"svd": 0, "solve": 0}
    svd, solve = np.linalg.svd, np.linalg.solve

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", solve))
    regularized_rule(freq, phases, cfg=RegularizationConfig(data_error=1e-3))
    regularized_rule(freq, phases, cfg=RegularizationConfig(gamma=1e-6))
    assert calls == {"svd": 1, "solve": 0}


def test_overflowing_coefficients_are_ill_posed():
    """(0, 1, 2) at p = 1000: the target 2^1000 is finite, the Tikhonov sum b^2 is not."""
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    phases = well_posed_phases(freq, np.random.default_rng(4))
    with warnings.catch_warnings():  # and no overflow warning on the way
        warnings.simplefilter("error")
        for cfg in (RegularizationConfig(), RegularizationConfig(gamma=1e-6),
                    RegularizationConfig(data_error=1.0)):
            with pytest.raises(IllPosedError, match="coefficient norm overflows"):
                regularized_rule(freq, phases, ((1000, 1.0),), cfg)
    assert np.isfinite(regularized_rule(freq, phases, ((400, 1.0),)).diagnostics["solution_norm"])


def test_config_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            RegularizationConfig(gamma=bad)
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="data_error"):
            RegularizationConfig(data_error=bad)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            OptimizationConfig(tol=bad)
    for bad in (-1, 2.9, True):
        with pytest.raises(ValueError, match="multistarts"):
            OptimizationConfig(multistarts=bad)


ILL_POSED = Spectrum((0.0, 1.0, 1.0 + 1e-9, 2.6))


def _library_ill_posed():
    # a library-sweep ill-posed request: gaps 1 and 1 + 1e-9 at seeded phases
    freq = frequency_differences(ILL_POSED)
    return freq, -np.random.default_rng(5).uniform(1e-3, 2 * np.pi / 0.01, freq.m)


def test_ill_posed_request_shares_one_system(monkeypatch):
    freq, phases = _library_ill_posed()
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    cfgs = (RegularizationConfig(), RegularizationConfig(data_error=1e-6))
    monkeypatch.setattr(synthesis, "_last_system", None)
    monkeypatch.setattr(np.linalg, "svd", counting)
    with pytest.raises(IllPosedError, match="exceeds cap"):
        synthesize_rule(freq, phases)
    shared = [regularized_rule(freq, phases, cfg=cfg) for cfg in cfgs]
    assert calls == [False, True]  # the cap check's values, then one thin SVD
    fresh = []
    for cfg in cfgs:
        monkeypatch.setattr(synthesis, "_last_system", None)
        fresh.append(regularized_rule(freq, phases, cfg=cfg))
    assert len(calls) == 4
    assert shared[1].diagnostics["gamma_selection"] == "bracketed"
    for a, b in zip(shared, fresh, strict=True):
        assert np.array_equal(a.phases, b.phases) and np.array_equal(a.coefficients, b.coefficients)
        assert (a.orders, a.frequencies, a.diagnostics) == (b.orders, b.frequencies, b.diagnostics)
    # the selection chain the CLI runs takes the same one build and one SVD
    calls.clear()
    monkeypatch.setattr(synthesis, "_last_system", None)
    rule, attempts = rule_for(freq, phases=phases)
    assert calls == [False, True]
    assert [a.method for a in attempts] == ["direct", "tikhonov"]
    assert np.array_equal(rule.coefficients, shared[0].coefficients)
    assert rule.diagnostics == shared[0].diagnostics


def test_build_system_reuses_only_identical_inputs():
    freq, phases = _library_ill_posed()
    first = build_system(freq, phases)
    assert build_system(frequency_differences(Spectrum((0.0, 1.0, 1.0 + 1e-9, 2.6))),
                        list(phases), [(1, 1.0)]) is first
    phases[0] += 0.25  # the caller's array, changed in place
    second = build_system(freq, phases)
    assert second is not first
    assert second.phases[0] == phases[0] != first.phases[0]
    assert not np.array_equal(second.matrix[:, 0], first.matrix[:, 0])
    assert build_system(freq, phases, [(1, -0.0), (1, 1.0)]).orders[0] == (1, -0.0)
    assert np.copysign(1.0, build_system(freq, phases, [(1, 0.0), (1, 1.0)]).orders[0][1]) == 1.0
    assert build_system(freq, phases, ((2, 1.0),)) is not second


def test_build_system_arrays_are_read_only():
    freq, phases = _library_ill_posed()
    sys = build_system(freq, phases)
    for a in (sys.matrix, sys.rhs, sys.row_gaps, sys.phases, *sys.svd):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    phases[:] = 0.0  # the system holds its own copy
    assert (sys.phases != 0.0).all()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(a=st.floats(0.5, 2.0), rel=st.floats(-10.0, -6.0), fourth=st.booleans(),
       seed=st.integers(0, 2**16), level=st.floats(-12.0, 2.0), steps=st.integers(1, 60))
def test_select_gamma_discrepancy_decides_near_ties_exactly(a, rel, fourth, seed, level, steps):
    """The target is the exact residual at one of the bisection's own midpoints.

    There the float form of r^2 and target^2 agree to round-off, so only the
    exact residual can send that step the way the reference does.
    """
    lam = [0.0, a, a + a * 10**rel] + ([2.6 * a] if fourth else [])
    freq = frequency_differences(Spectrum(tuple(lam)))
    phases = -np.random.default_rng(seed).uniform(1e-3, 2 * np.pi / (0.01 * a), freq.m)
    sys = build_system(freq, phases)
    U, s, _ = sys.svd
    beta = U.conj().T @ sys.rhs
    outside = np.linalg.norm(sys.rhs - U @ beta)

    def residual(gamma):  # the reference's residual
        return float(np.hypot(np.linalg.norm(gamma / (s**2 + gamma) * beta), outside))

    lo, hi = np.log(_gamma_floor(sys)), np.log(GAMMA_MAX)
    for _ in range(steps):  # the reference's midpoints on the way to 10**level
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(np.exp(mid)) < 10**level else (lo, mid)
    cfg = RegularizationConfig(data_error=residual(np.exp(mid)))
    assert select_gamma_discrepancy(sys, cfg) == _ref_select_gamma_discrepancy(sys, cfg)
