import numpy as np
import pytest

from shiftrules import (
    EquidistantStructure,
    Spectrum,
    apply_rule,
    closed_form_rule,
    frequency_differences,
    optimal_phases,
    solve_direct,
)
from shiftrules.checks import _dirichlet_kernel_ratio, dirichlet_kernel, orthogonality_residual
from shiftrules.equidistant import normalized_system
from shiftrules.synthesis import build_system


def test_optimal_phases_n2():
    np.testing.assert_allclose(
        optimal_phases(EquidistantStructure(2, 1.0)),
        [-2 * np.pi / 3, -4 * np.pi / 3, -2 * np.pi],
    )


def test_optimal_phases_n3_delta2():
    np.testing.assert_allclose(
        optimal_phases(EquidistantStructure(3, 2.0)),
        [-np.pi / 5, -2 * np.pi / 5, -3 * np.pi / 5, -4 * np.pi / 5, -np.pi],
    )


@pytest.mark.parametrize("n,delta", [(2, 1.0), (4, 0.5), (6, 2.5)])
def test_optimal_phases_constant_spacing(n, delta):
    ph = optimal_phases(EquidistantStructure(n, delta))
    np.testing.assert_allclose(np.diff(ph), -2 * np.pi / ((2 * n - 1) * delta))


def test_dirichlet_zeros_and_peak():
    assert dirichlet_kernel(1, 2 * np.pi / 3) == pytest.approx(0.0, abs=1e-14)
    assert dirichlet_kernel(2, 2 * np.pi / 5) == pytest.approx(0.0, abs=1e-14)
    for k in (0, 1, 2, 5):
        assert dirichlet_kernel(k, 0.0) == 2 * k + 1


def test_dirichlet_sum_matches_ratio_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        x = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        if abs(np.sin(x / 2)) < 1e-3:
            continue
        assert dirichlet_kernel(k, x) == pytest.approx(
            _dirichlet_kernel_ratio(k, x), abs=1e-10
        )


def test_orthogonality_at_optimal_phases():
    es = EquidistantStructure(2, 1.0)
    resid = orthogonality_residual(es.frequency_set(), optimal_phases(es))
    assert resid <= 1e-12


def test_orthogonality_fails_for_random_phases():
    es = EquidistantStructure(3, 1.0)
    freq = es.frequency_set()
    rng = np.random.default_rng(2)
    for _ in range(50):
        phases = rng.uniform(-2 * np.pi, 0, freq.m)
        assert orthogonality_residual(freq, phases) > 0.1


def test_orthogonality_unreachable_for_equidistant_except_one():
    # one outlier eigenvalue: no constant-difference phase family is orthogonal
    freq = frequency_differences(Spectrum((0.0, 0.37, 1.37, 2.37)))
    floor = min(
        orthogonality_residual(freq, -s * np.arange(1, freq.m + 1))
        for s in np.linspace(0.01, 2 * np.pi, 800)
    )
    assert floor > 0.05


@pytest.mark.parametrize("n", range(2, 9))
def test_normalized_matrix_is_unitary(n):
    E, _ = normalized_system(EquidistantStructure(n, 1.3))
    gram = E.conj().T @ E
    assert np.linalg.norm(gram - np.eye(2 * n - 1)) <= 1e-12


def test_reduced_system_layout_at_optimal_phases():
    # row for gap +-k*delta, column j: exp(-+ i*k*j*tau); the last column
    # (phase -2*pi/delta) is a full period of every row, hence all ones
    es = EquidistantStructure(3, 1.0)
    sys = build_system(es.frequency_set(), optimal_phases(es))
    np.testing.assert_allclose(sys.row_gaps, [0.0, 1.0, -1.0, 2.0, -2.0])
    j = np.arange(1, 6)
    for r, k in enumerate([0, 1, -1, 2, -2]):
        np.testing.assert_allclose(sys.matrix[r], np.exp(-1j * k * j * es.tau), atol=1e-14)
    np.testing.assert_allclose(sys.matrix[:, -1], 1.0, atol=1e-14)
    np.testing.assert_allclose(sys.rhs, 1j * np.array([0.0, 1.0, -1.0, 2.0, -2.0]))


def test_closed_form_n2_coefficients():
    rule = closed_form_rule(EquidistantStructure(2, 1.0), 1)
    np.testing.assert_allclose(
        rule.coefficients, [-np.sqrt(3) / 3, np.sqrt(3) / 3, 0.0], atol=1e-14
    )


def test_closed_form_n2_sine_shape():
    delta = 1.7
    rule = closed_form_rule(EquidistantStructure(2, delta), 1)
    expected = 2 * delta / 3 * np.sin(delta * np.asarray(rule.phases))
    np.testing.assert_allclose(rule.coefficients, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_closed_form_differentiates_sine(n):
    delta = 0.8
    rule = closed_form_rule(EquidistantStructure(n, delta), 1)
    est = apply_rule(rule, lambda t: np.sin(delta * t), 0.0)
    assert est == pytest.approx(delta, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_direct_solve(n):
    es = EquidistantStructure(n, 1.1)
    rule = closed_form_rule(es, 1)
    direct = solve_direct(build_system(es.frequency_set(), optimal_phases(es)))
    np.testing.assert_allclose(rule.coefficients, direct.coefficients, atol=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_first_derivative_coefficient_vanishes_at_full_period(n):
    es = EquidistantStructure(n, 0.75)
    rule = closed_form_rule(es, 1)
    # last phase is -2*pi/delta, a full period of every design column
    assert rule.phases[-1] == pytest.approx(-2 * np.pi / es.delta)
    assert abs(rule.coefficients[-1]) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_colliding_integer_phases_are_singular(n):
    es = EquidistantStructure(n, 1.0)
    m = es.m
    ts = list(range(1, m)) + [1 + m]  # last multiplier collides with the first mod 2n-1
    phases = es.tau / es.delta * np.asarray(ts, dtype=float)
    E = build_system(es.frequency_set(), phases).matrix
    unitary_scale_det = m ** (m / 2)
    assert abs(np.linalg.det(E)) <= 1e-10 * unitary_scale_det
