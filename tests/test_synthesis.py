import numpy as np
import pytest

from conftest import random_model_terms, random_spectrum, well_posed_phases
from shiftrules import (
    FourierModel,
    IllPosedError,
    Spectrum,
    analytic_derivative,
    apply_rule,
    build_system,
    compatibility_residual,
    evaluate,
    frequency_differences,
    solve_direct,
    synthesize_rule,
)
from shiftrules.checks import build_full_system, cramer_coefficient, jacobi_coefficient
from shiftrules.synthesis import LinearSystem, ShiftRule, build_reduced_system, condition_number

FREQ01 = frequency_differences(Spectrum((0.0, 1.0)))
EQ_PHASES = np.array([-2 * np.pi / 3, -4 * np.pi / 3, -2 * np.pi])


def test_build_system_two_level_matrix():
    sys = build_system(FREQ01, [0.0, np.pi / 2, np.pi])
    expected = np.array(
        [[1, 1, 1], [1, 1j, -1], [1, -1j, -1]], dtype=complex
    )
    np.testing.assert_allclose(sys.matrix, expected, atol=1e-15)
    np.testing.assert_allclose(sys.rhs, [0.0, 1j, -1j], atol=1e-15)
    np.testing.assert_allclose(sys.row_gaps, [0.0, 1.0, -1.0])


def test_build_system_zero_phases_rank_one():
    rng = np.random.default_rng(0)
    freq = frequency_differences(random_spectrum(rng, 3))
    sys = build_system(freq, np.zeros(freq.m))
    assert np.allclose(sys.matrix, 1.0)
    assert np.linalg.matrix_rank(sys.matrix) == 1


def test_build_system_first_row_is_ones_with_zero_rhs():
    rng = np.random.default_rng(1)
    freq = frequency_differences(random_spectrum(rng, 4))
    sys = build_system(freq, well_posed_phases(freq, rng))
    np.testing.assert_allclose(sys.matrix[0], 1.0)
    assert sys.rhs[0] == 0.0


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
    rhs = {p: build_system(FREQ01, EQ_PHASES, ((p, 1.0),)).rhs for p in (1, 2, 3)}
    assert np.allclose(rhs[1], build_system(FREQ01, EQ_PHASES).rhs)
    np.testing.assert_allclose(rhs[2], [0.0, -1.0, -1.0], atol=1e-15)
    assert rhs[3][1] == pytest.approx(-1j)  # (i*g)^3 = -i g^3 at g = 1
    assert rhs[3][2] == pytest.approx(1j)


@pytest.mark.parametrize("p", [1.5, True, float("inf")])
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
    rng = np.random.default_rng(9)
    for _ in range(20):
        freq = frequency_differences(random_spectrum(rng, int(rng.integers(2, 5))))
        rule = synthesize_rule(freq, well_posed_phases(freq, rng))
        scale = max(np.linalg.norm(rule.coefficients), 1e-300)
        assert rule.diagnostics["max_imag_discarded"] <= 1e-9 * scale


def test_duplicate_phases_rejected():
    with pytest.raises(IllPosedError, match="phi_i != phi_j"):
        synthesize_rule(FREQ01, [-1.0, -1.0, -2.0])
    # duplicates modulo the column period 2*pi/g are equally singular
    with pytest.raises(IllPosedError, match="phi_i != phi_j"):
        synthesize_rule(FREQ01, [-1.0, -1.0 - 2 * np.pi, -2.0])


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
