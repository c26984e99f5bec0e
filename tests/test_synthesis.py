import warnings

import numpy as np
import pytest

from conftest import random_model_terms, random_spectrum, well_posed_phases
from shiftrules import (
    EquidistantStructure,
    FourierModel,
    IllPosedError,
    Spectrum,
    analytic_derivative,
    apply_rule,
    build_system,
    closed_form_rule,
    compatibility_residual,
    evaluate,
    frequency_differences,
    optimal_phases,
    regularized_rule,
    solve_direct,
    synthesize_rule,
)
from paper_forms import build_full_system, cramer_coefficient, jacobi_coefficient, paper_system
from shiftrules import synthesis
from shiftrules.synthesis import (
    CONDITION_CAP,
    Attempt,
    LinearSystem,
    ShiftRule,
    _singular_value_condition,
    auto_phases,
    condition_number,
    rule_for,
)
from shiftrules.variance import OptimizationConfig, build_reduced_system, optimize_shifts

FREQ01 = frequency_differences(Spectrum((0.0, 1.0)))
EQ_PHASES = np.array([-2 * np.pi / 3, -4 * np.pi / 3, -2 * np.pi])


def test_build_system_two_level_matrix():
    """Rows 1, sqrt2 cos(w phi), sqrt2 sin(w phi); target (mu(0), sqrt2 Re mu(w), sqrt2 Im mu(w))."""
    sys = build_system(FREQ01, [0.0, np.pi / 2, np.pi])
    r2 = np.sqrt(2)
    expected = np.array([[1, 1, 1], [r2, 0, -r2], [0, r2, 0]])
    assert sys.matrix.dtype == sys.rhs.dtype == np.float64
    np.testing.assert_allclose(sys.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(sys.rhs, [0.0, 0.0, r2], atol=1e-15)  # mu(1) = i
    np.testing.assert_allclose(sys.row_gaps, [0.0, 1.0, 1.0])


def test_build_system_zero_phases_rank_one():
    rng = np.random.default_rng(0)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, np.zeros(freq.m))
    R = len(freq.unique_frequencies)
    assert np.array_equal(sys.matrix[0], np.ones(freq.m))
    assert np.allclose(sys.matrix[1:R + 1], np.sqrt(2)) and not sys.matrix[R + 1:].any()
    assert np.linalg.matrix_rank(sys.matrix) == 1


def test_build_system_first_row_is_ones_with_zero_rhs():
    rng = np.random.default_rng(1)
    freq = frequency_differences(random_spectrum(rng, 4))
    sys = build_system(freq, well_posed_phases(freq, rng))
    np.testing.assert_allclose(sys.matrix[0], 1.0)
    assert sys.rhs[0] == 0.0


def test_overflowing_derivative_target_is_ill_posed():
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    phases = well_posed_phases(freq, np.random.default_rng(4))
    with pytest.raises(IllPosedError, match="overflows"):
        build_system(freq, phases, ((1000, 1.0),))
    with pytest.raises(IllPosedError, match="overflows"):
        build_reduced_system(freq, [0.5, 1.0, 1.5], ((1000, 1.0),))
    assert np.isfinite(build_system(freq, phases, ((100, 1.0),)).rhs).all()


def test_overflowing_coefficients_are_ill_posed():
    """(0, 1, 2) at p = 1000: the target 2^1000 is finite, sum b^2 is not."""
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    phases = well_posed_phases(freq, np.random.default_rng(4))
    with warnings.catch_warnings():  # and no overflow warning on the way
        warnings.simplefilter("error")
        with pytest.raises(IllPosedError, match="coefficient norm overflows"):
            synthesize_rule(freq, phases, ((1000, 1.0),))
    assert np.isfinite(synthesize_rule(freq, phases, ((400, 1.0),)).square_norm)


def test_solve_direct_equidistant_phases():
    rule = solve_direct(build_system(FREQ01, EQ_PHASES))
    np.testing.assert_allclose(
        rule.coefficients, [-np.sqrt(3) / 3, np.sqrt(3) / 3, 0.0], atol=1e-12
    )
    assert apply_rule(rule, np.sin, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_solve_direct_residual_is_tiny():
    rng = np.random.default_rng(2)
    for _ in range(10):
        freq = frequency_differences(random_spectrum(rng, int(rng.integers(2, 5))))
        sys = build_system(freq, well_posed_phases(freq, rng))
        rule = solve_direct(sys)
        scale = max(np.linalg.norm(sys.rhs), 1.0)
        assert rule.diagnostics["residual"] <= 1e-10 * scale


def test_full_pairwise_system_of_equidistant_spectrum_is_singular():
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)))
    rng = np.random.default_rng(3)
    phases = rng.uniform(-2 * np.pi, 0, 7)
    sys = build_full_system(freq, phases)  # duplicate rows for coincident gaps
    assert sys.matrix.shape == (7, 7)
    with pytest.raises(IllPosedError):
        solve_direct(sys)


@pytest.mark.parametrize("eigenvalues",
                         [(0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.5), (0.0, 0.5, 1.0, 2.5)])
def test_full_pairwise_system_repeats_each_signed_gap_by_multiplicity(eigenvalues):
    freq = frequency_differences(Spectrum(eigenvalues))
    n = len(eigenvalues)
    sys = build_full_system(freq, np.linspace(-1.0, -0.1, 5))
    assert sys.matrix.shape == (n * (n - 1) + 1, 5)
    expected = [0.0]
    for w, count in zip(freq.unique_frequencies, freq.multiplicities):
        expected += [w] * count + [-w] * count
    assert sys.row_gaps.tolist() == expected
    np.testing.assert_array_equal(sys.matrix, np.exp(1j * np.outer(expected, sys.phases)))


def test_first_derivative_coefficients_sum_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        freq = frequency_differences(random_spectrum(rng, 3))
        rule = synthesize_rule(freq, well_posed_phases(freq, rng))
        assert sum(rule.coefficients) == pytest.approx(0.0, abs=1e-10)


def test_cramer_matches_direct_solve():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        freq = frequency_differences(random_spectrum(rng, n))
        sys = build_system(freq, well_posed_phases(freq, rng))
        rule = solve_direct(sys)
        for x in range(freq.m):
            assert cramer_coefficient(sys, x) == pytest.approx(
                rule.coefficients[x], abs=1e-9, rel=1e-9
            )


def test_cramer_equidistant_zero_column():
    sys = build_system(FREQ01, EQ_PHASES)
    assert cramer_coefficient(sys, 2) == pytest.approx(0.0, abs=1e-12)


def test_cramer_degenerate_one_by_one():
    sys = LinearSystem(
        matrix=np.array([[1.0 + 0j]]),
        rhs=np.array([0.0 + 0j]),
        row_gaps=np.array([0.0]),
        phases=np.array([0.3]),
        orders=((1, 1.0),),
    )
    assert cramer_coefficient(sys, 0) == 0.0


def test_cramer_size_guard():
    spec = Spectrum(tuple(np.cumsum([0.0, 0.9, 1.1, 1.35, 1.7])))
    freq = frequency_differences(spec)
    assert freq.m > 9
    sys = build_system(freq, np.linspace(-6, -0.1, freq.m))
    with pytest.raises(ValueError, match="m <= 9"):
        cramer_coefficient(sys, 0)


def test_jacobi_form_matches_cramer():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        freq = frequency_differences(random_spectrum(rng, n))
        sys = build_system(freq, well_posed_phases(freq, rng))
        for x in range(freq.m):
            assert jacobi_coefficient(sys, x) == pytest.approx(
                cramer_coefficient(sys, x), abs=1e-6
            )


def test_derivative_rhs_orders():
    rhs = {p: build_system(FREQ01, EQ_PHASES, ((p, 1.0),)).rhs for p in (0, 1, 2, 3)}
    assert np.array_equal(rhs[1], build_system(FREQ01, EQ_PHASES).rhs)
    r2 = np.sqrt(2)  # rows (mu(0), sqrt2 Re mu(1), sqrt2 Im mu(1)) of mu(g) = (i g)^p
    np.testing.assert_allclose(rhs[0], [1.0, r2, 0.0], atol=1e-15)
    np.testing.assert_allclose(rhs[1], [0.0, 0.0, r2], atol=1e-15)
    np.testing.assert_allclose(rhs[2], [0.0, -r2, 0.0], atol=1e-15)
    np.testing.assert_allclose(rhs[3], [0.0, 0.0, -r2], atol=1e-15)  # (i g)^3 = -i g^3


@pytest.mark.parametrize("p", [1.5, True, float("inf"), "1"])
def test_non_integral_derivative_order_is_rejected(p):
    with pytest.raises(ValueError, match="must be integers"):
        build_system(FREQ01, EQ_PHASES, ((p, 1.0),))


def test_synthesize_single_order_reduces_to_first_derivative():
    rule_a = synthesize_rule(FREQ01, EQ_PHASES, orders=((1, 1.0),))
    rule_b = solve_direct(build_system(FREQ01, EQ_PHASES))
    np.testing.assert_allclose(rule_a.coefficients, rule_b.coefficients, atol=1e-14)


def test_synthesize_identity_order_reconstructs_function():
    rng = np.random.default_rng(7)
    freq = frequency_differences(random_spectrum(rng, 3))
    phases = well_posed_phases(freq, rng)
    rule = synthesize_rule(freq, phases, orders=((0, 1.0),))
    model = FourierModel(a0=0.3, terms=random_model_terms(rng, freq.unique_frequencies))
    for t in (0.0, 0.4, -1.1):
        assert apply_rule(rule, lambda x: evaluate(model, x), t) == pytest.approx(
            evaluate(model, t), abs=1e-9
        )


def test_synthesize_mixed_orders_sine():
    rule = synthesize_rule(FREQ01, EQ_PHASES, orders=((1, 1.0), (2, 0.5)))
    # target at 0 for f = sin: cos(0) + 0.5 * (-sin(0)) = 1
    assert apply_rule(rule, np.sin, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_apply_rule_zero_coefficients():
    rule = ShiftRule(
        phases=np.array([0.1, 0.2]),
        coefficients=np.zeros(2),
        orders=((1, 1.0),),
        frequencies=(1.0,),
    )
    assert apply_rule(rule, np.sin, 0.7) == 0.0


def test_apply_rule_is_t_uniform():
    rule = solve_direct(build_system(FREQ01, EQ_PHASES))
    for t in (0.0, 0.7, -2.4):
        assert apply_rule(rule, np.sin, t) == pytest.approx(np.cos(t), abs=1e-10)


def test_compatibility_residual_solved_system():
    rule = solve_direct(build_system(FREQ01, EQ_PHASES))
    assert compatibility_residual(rule, FREQ01) <= 1e-10


def test_compatibility_residual_detects_perturbation():
    rng = np.random.default_rng(8)
    for _ in range(5):
        freq = frequency_differences(random_spectrum(rng, 3))
        rule = synthesize_rule(freq, well_posed_phases(freq, rng))
        broken = np.array(rule.coefficients)
        broken[1] += 1e-3
        bad = ShiftRule(
            phases=rule.phases, coefficients=broken, orders=rule.orders,
            frequencies=rule.frequencies,
        )
        assert compatibility_residual(bad, freq) >= 1e-4


def test_compatibility_residual_zero_rule():
    zero = ShiftRule(
        phases=np.asarray(EQ_PHASES),
        coefficients=np.zeros(3),
        orders=((1, 1.0),),
        frequencies=(1.0,),
    )
    assert compatibility_residual(zero, FREQ01) == pytest.approx(1.0)  # max |gap|


def test_solutions_are_real():
    """The real solve is the paper's complex solve, whose imaginary part is round-off."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        freq = frequency_differences(random_spectrum(rng, int(rng.integers(2, 5))))
        rule = synthesize_rule(freq, well_posed_phases(freq, rng))
        assert rule.coefficients.dtype == np.float64
        paper = paper_system(freq, rule.phases)
        b = np.linalg.solve(paper.matrix, paper.rhs)
        scale = max(np.linalg.norm(rule.coefficients), 1e-300)
        assert np.abs(b.imag).max() <= 1e-9 * scale
        np.testing.assert_allclose(rule.coefficients, b.real, rtol=0, atol=1e-9 * scale)


def test_duplicate_phases_rejected():
    with pytest.raises(IllPosedError, match="phi_i != phi_j"):
        synthesize_rule(FREQ01, [-1.0, -1.0, -2.0])
    # duplicates modulo the column period 2*pi/g give equal columns: the rank cut refuses them
    with pytest.raises(IllPosedError, match="^condition number inf exceeds cap") as exc:
        synthesize_rule(FREQ01, [-1.0, -1.0 - 2 * np.pi, -2.0])
    assert exc.value.condition_number == np.inf


def test_symmetric_two_term_phases_are_allowed():
    # phi and -phi give conjugate (not equal) columns; the system stays solvable
    phi1 = 0.7
    rule = synthesize_rule(FREQ01, [phi1, -phi1, -np.pi])
    assert compatibility_residual(rule, FREQ01) <= 1e-10


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        freq = frequency_differences(random_spectrum(rng, n))
        phases = well_posed_phases(freq, rng)
        p = int(rng.integers(1, 4))
        rule = synthesize_rule(freq, phases, orders=((p, 1.0),))
        model = FourierModel(a0=float(rng.uniform(-1, 1)),
                             terms=random_model_terms(rng, freq.unique_frequencies))
        t = float(rng.uniform(-np.pi, np.pi))
        target = analytic_derivative(model, t, p)
        est = apply_rule(rule, lambda x: evaluate(model, x), t)
        assert abs(est - target) <= 1e-8 * (1 + abs(target))


def test_two_term_baseline_recovery():
    # classical symmetric two-term estimate for a single-frequency model
    rng = np.random.default_rng(12)
    omega = 1.3
    freq = frequency_differences(Spectrum((0.0, omega)))
    rule = synthesize_rule(freq, [0.7, -0.7, -np.pi])
    for _ in range(10):
        model = FourierModel(a0=float(rng.uniform(-1, 1)),
                             terms=((omega, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),))
        f = lambda t: evaluate(model, t)
        baseline = omega / (2 * np.sin(omega * 0.7)) * (f(0.7) - f(-0.7))
        assert apply_rule(rule, f, 0.0) == pytest.approx(baseline, abs=1e-10)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lifted_reduced_rule_is_a_full_rule(p):
    # the real block solve at x, lifted to (0, -x, +x), against the full
    # complex system: same coefficients, exact, same condition number
    rng = np.random.default_rng(20 + p)
    for _ in range(5):
        freq = frequency_differences(random_spectrum(rng, int(rng.integers(2, 5))))
        R = len(freq.unique_frequencies)
        xs = rng.uniform(0.1, np.pi / freq.unique_frequencies[0], (256, R))
        x = xs[np.argmin(build_reduced_system(freq, xs).condition_number())]
        reduced = build_reduced_system(freq, x, ((p, 1.0),))
        u = np.linalg.solve(reduced.matrix, reduced.rhs)
        rule = synthesize_rule(freq, np.concatenate([[0.0], -x, x]), ((p, 1.0),))
        assert compatibility_residual(rule, freq) <= 1e-8
        b = np.asarray(rule.coefficients)
        scale = np.abs(b).max()
        if p % 2:
            assert abs(b[0]) <= 1e-10
            np.testing.assert_allclose(b[R + 1:], u / np.sqrt(2), rtol=0, atol=1e-9 * scale)
            np.testing.assert_allclose(b[1:R + 1], -b[R + 1:], rtol=0, atol=1e-9 * scale)
        else:
            np.testing.assert_allclose(b[[0, *range(R + 1, 2 * R + 1)]], u / [1, *[np.sqrt(2)] * R],
                                       rtol=0, atol=1e-9 * scale)
            np.testing.assert_allclose(b[1:R + 1], b[R + 1:], rtol=0, atol=1e-9 * scale)
        assert reduced.condition_number() == pytest.approx(
            condition_number(build_system(freq, rule.phases).matrix), rel=1e-8)


def test_reduced_system_rejects_mixed_parity():
    with pytest.raises(ValueError, match="mixed parity"):
        build_reduced_system(FREQ01, [1.0], ((1, 1.0), (2, 1.0)))


def _per_row_condition(s, size):
    """The former scalar rank test: s[0] / s[-1] from one row of descending singular values."""
    rank_tol = s[0] * size * np.finfo(float).eps
    if s[-1] <= rank_tol or not np.isfinite(s[-1]):
        return float("inf")
    return float(s[0] / s[-1])


def test_batched_rank_test_equals_the_per_row_test():
    rng = np.random.default_rng(3)
    k = 5
    full = rng.normal(size=(40, k, k))
    deficient = full[:20, :, :2] @ rng.normal(size=(20, 2, k))  # rank 2
    near = full[:20] * np.logspace(0, -17, k)  # columns scaled down to round-off
    s = np.concatenate([np.linalg.svd(m, compute_uv=False) for m in (full, deficient, near)])
    special = [[0.0] * k, [np.inf] * k, [np.inf, 2.0, 1.0, 0.5, 0.1], [np.inf, np.inf, 1.0, 1.0, 0.0],
               [1e300, 1e200, 1e100, 1.0, 1e-300], [np.nan] * k, [1.0] * k]
    s = np.concatenate([s, special])
    expected = [_per_row_condition(row, k) for row in s]
    assert np.isinf(expected).sum() > 20 and np.isfinite(expected).sum() > 40
    assert _singular_value_condition(s, k).tolist() == expected
    assert [float(_singular_value_condition(row, k)) for row in s] == expected


S7 = (0.0, 1.0, 2.5)
S7_PHASES = [-0.9, -1.7, -2.6, -3.8, -4.4, -5.3, -6.1]
NEAR = (0.0, 1.0, 1.0 + 1e-9)
PERTURBED = (0.0, 1.02, 1.97, 3.01, 4.0)


@pytest.mark.parametrize("eigenvalues", [
    S7, (0.0, 1.0, 2.5, 4.1, 6.0), (0.0, 0.7, 1.9, 3.2, 3.3, 5.0), (0.0, 1.0, 2.5, 4.1),
], ids=["S7", "S21", "S31", "N4"])
def test_auto_phases_scale_with_the_spectrum_bit_for_bit(eigenvalues):
    phases = auto_phases(frequency_differences(Spectrum(eigenvalues)))
    for k in range(-30, 31):
        scaled = frequency_differences(Spectrum(tuple(2.0**k * v for v in eigenvalues)))
        assert np.array_equal(auto_phases(scaled), phases * 2.0**-k), k


def test_auto_phase_picks_do_not_depend_on_the_grid_spelling():
    """Two spellings of the candidate grid that differ in the last bits pick the same columns."""
    rng = np.random.default_rng(31)
    spectra = [Spectrum(S7), Spectrum((0.0, 1.0, 2.5, 4.1, 6.0)), Spectrum((0.0, 0.7, 1.9, 3.2, 3.3, 5.0))]
    spectra += [random_spectrum(rng, int(rng.integers(2, 7))) for _ in range(200)]
    for spec in spectra:
        freq = frequency_differences(spec)
        freqs = np.asarray(freq.unique_frequencies)
        lo = -2 * np.pi / max(np.diff(freqs, prepend=0.0).min(), 1e-2 * freqs[-1])  # as auto_phases
        N = synthesis.GRID_FACTOR * freq.m
        picks = [synthesis._greedy_columns(build_system(freq, grid).matrix, freq.m)
                 for grid in (lo * (1 - np.arange(N) / N), lo * np.linspace(1, 0, N, endpoint=False))]
        assert picks[0] == picks[1], spec.eigenvalues


@pytest.mark.parametrize("n", range(2, 9))
def test_auto_phases_of_equidistant_spectra_are_the_optimal_phases(n):
    for delta in (1e-3, 0.37, 1.0, 2.9, 1e3):
        freq = frequency_differences(Spectrum(tuple(k * delta for k in range(n))))
        np.testing.assert_allclose(auto_phases(freq), optimal_phases(EquidistantStructure(n, delta)),
                                   rtol=1e-14, atol=0)


def test_auto_phases_are_well_conditioned_on_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(50):
        freq = frequency_differences(random_spectrum(rng, int(rng.integers(2, 7))))
        assert condition_number(build_system(freq, auto_phases(freq)).matrix) <= 10


def test_every_solver_records_its_frequencies_as_floats():
    freq = frequency_differences(Spectrum(S7))
    phases = auto_phases(freq)
    rules = {"direct": synthesize_rule(freq, phases),
             "equidistant": closed_form_rule(EquidistantStructure(4, 0.7)),
             "tikhonov": regularized_rule(freq, phases),
             "optimized": optimize_shifts(freq, phases, OptimizationConfig(multistarts=1))[1]}
    for name, rule in rules.items():
        assert rule.frequencies and all(type(w) is float for w in rule.frequencies), name
    for name in ("direct", "tikhonov", "optimized"):
        assert rules[name].frequencies == freq.unique_frequencies, name


@pytest.mark.parametrize("eigenvalues, kwargs, expected", [
    ((0.0, 1.0, 2.0), {}, ["direct"]),
    (PERTURBED, {}, ["direct"]),
    (S7, {}, ["direct"]),
    (NEAR, {}, ["direct ill_posed", "tikhonov"]),
    (S7, {"method": "tikhonov"}, ["tikhonov"]),
    (S7, {"method": "equidistant"}, (ValueError, "^unknown method 'equidistant': need auto, direct")),
    (S7, {"phases": [-1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]},
     (IllPosedError, "^duplicate shift phases: phi_0 and phi_1 coincide")),
    (S7, {"method": "direct", "phases": [-1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]},
     (IllPosedError, "^duplicate shift phases: phi_0 and phi_1 coincide")),
    (S7, {"method": "tikhonov", "phases": [-1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0]},
     (IllPosedError, "^duplicate shift phases: phi_0 and phi_1 coincide")),
    (NEAR, {"method": "direct"}, (IllPosedError, "^direct synthesis is ill-posed .*; condition number")),
], ids=["lattice", "perturbed-closed-form", "direct", "auto-fallback", "forced-tikhonov",
        "unknown-method", "duplicate-phases", "duplicate-phases-direct", "duplicate-phases-tikhonov",
        "direct-ill-posed"])
def test_rule_for_paths(eigenvalues, kwargs, expected):
    freq = frequency_differences(Spectrum(eigenvalues))
    if isinstance(expected, tuple):
        with pytest.raises(expected[0], match=expected[1]):
            rule_for(freq, **kwargs)
        return
    rule, attempts = rule_for(freq, **kwargs)
    assert [" ".join(filter(None, a[:2])) for a in attempts] == expected
    for left in attempts[:-1]:
        assert left.condition_number > CONDITION_CAP and "exceeds cap" in left.message
    method = attempts[-1].method
    assert attempts[-1] == Attempt(method) and rule.diagnostics["method"] == method
    assert not [k for k in rule.diagnostics if k.startswith("perturbation_")]
    # the rule the library functions give on the same path
    if method == "direct":
        reference = synthesize_rule(freq, auto_phases(freq))
    else:
        reference = regularized_rule(freq, auto_phases(freq))
    assert np.array_equal(rule.phases, reference.phases)
    assert np.array_equal(rule.coefficients, reference.coefficients)


@pytest.mark.parametrize("eigenvalues, kwargs", [
    (S7, {}), (S7, {"phases": S7_PHASES}), (S7, {"method": "direct", "phases": S7_PHASES}),
    (S7, {"method": "tikhonov", "phases": S7_PHASES}), (NEAR, {"phases": [-1.0, -2.5, -4.0, -5.5, -7.0]}),
], ids=["auto-phases", "explicit", "explicit-direct", "explicit-tikhonov", "explicit-fallback"])
def test_rule_for_checks_phases_once(monkeypatch, eigenvalues, kwargs):
    """Each path checks the phases for duplicates exactly once, explicit or auto."""
    calls = []
    check = synthesis.check_phase_distinctness
    monkeypatch.setattr(synthesis, "check_phase_distinctness",
                        lambda *args: calls.append(args) or check(*args))
    rule_for(frequency_differences(Spectrum(eigenvalues)), **kwargs)
    assert len(calls) == 1
