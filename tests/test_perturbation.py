import warnings

import numpy as np
import pytest

from shiftrules import (
    EquidistantStructure,
    Spectrum,
    classify_structure,
    closed_form_rule,
    condition_number,
    error_bound,
    perturbation_matrices,
)
from paper_forms import exact_perturbed_solution, linearized_solution, paper_normalized_system


def _unperturbed(n, delta=1.0):
    es = EquidistantStructure(n, delta)
    E, mu = paper_normalized_system(es)  # the complex layout perturbation_matrices perturbs
    b0 = np.linalg.solve(E, mu)
    return es, E, mu, b0


def test_perturbation_matrix_first_nonzero_row():
    es = EquidistantStructure(2, 1.0)
    pd = perturbation_matrices(es)
    tau = es.tau
    expected = (1j * tau / 1.0) * np.array(
        [np.exp(-1j * tau), 2 * np.exp(-2j * tau), 3.0]
    ) / np.sqrt(3)
    np.testing.assert_allclose(pd.matrix[1], expected, atol=1e-14)


def test_perturbation_matrix_zero_first_row():
    for n in (2, 3, 5):
        pd = perturbation_matrices(EquidistantStructure(n, 0.7))
        assert np.abs(pd.matrix[0]).max() == 0.0


def test_perturbation_vector_is_unit_norm():
    for n in (2, 3, 4, 6):
        pd = perturbation_matrices(EquidistantStructure(n, 1.3))
        assert np.linalg.norm(pd.vector) == pytest.approx(1.0)


def test_linearized_solution_at_zero_eps():
    es, E, mu, b0 = _unperturbed(3)
    pd = perturbation_matrices(es)
    np.testing.assert_allclose(linearized_solution(E, pd, b0, 0.0), b0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_linearization_error_is_second_order(n, eps):
    es, E, mu, b0 = _unperturbed(n)
    pd = perturbation_matrices(es)

    def gap(e):
        exact = exact_perturbed_solution(E, pd, mu, e)
        return np.linalg.norm(exact - linearized_solution(E, pd, b0, e))

    ratio = gap(eps) / gap(eps / 2)
    assert 3.5 <= ratio <= 4.5


def test_linearized_matches_exact_at_tiny_eps():
    es, E, mu, b0 = _unperturbed(3)
    pd = perturbation_matrices(es)
    exact = exact_perturbed_solution(E, pd, mu, 1e-8)
    lin = linearized_solution(E, pd, b0, 1e-8)
    assert np.linalg.norm(exact - lin) <= 1e-12


def test_condition_number_of_unitary_and_identity():
    es, E, _, _ = _unperturbed(4)
    assert condition_number(E) == pytest.approx(1.0, abs=1e-10)
    assert condition_number(np.eye(5)) == pytest.approx(1.0)


def test_condition_number_singular_sentinel():
    assert condition_number(np.ones((4, 4))) == np.inf


def test_error_bound_zero_eps():
    es, E, mu, b0 = _unperturbed(2)
    pd = perturbation_matrices(es)
    bound = error_bound(es, pd, b0.real, 0.0)
    assert bound.relative == 0.0
    assert bound.absolute == 0.0
    assert bound.loose == 0.0


def test_error_bound_refuses_an_underflowing_target_norm():
    spec = Spectrum((0.0, 1e-300, 2e-300, 3.1e-300))  # perturbed equidistant, |mu|^2 underflows
    cls = classify_structure(spec)
    es = EquidistantStructure(spec.n, cls.delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b0 = closed_form_rule(es).coefficients
        with pytest.raises(ValueError, match="target norm"):
            error_bound(es, perturbation_matrices(es), b0, cls.epsilon)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_measured_deviation_within_absolute_estimate(n):
    eps = 1e-4
    es, E, mu, b0 = _unperturbed(n)
    pd = perturbation_matrices(es)
    measured = np.linalg.norm(exact_perturbed_solution(E, pd, mu, eps) - b0)
    bound = error_bound(es, pd, b0.real, eps)
    assert measured <= 1.5 * bound.absolute


@pytest.mark.parametrize("n", [2, 3, 4])
def test_loose_bound_dominates_estimate(n):
    eps = 1e-4
    es, E, mu, b0 = _unperturbed(n)
    pd = perturbation_matrices(es)
    bound = error_bound(es, pd, b0.real, eps)
    assert bound.loose >= bound.absolute


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relative_deviation_within_condition_bound(n):
    eps = 1e-4
    es, E, mu, b0 = _unperturbed(n)
    pd = perturbation_matrices(es)
    measured = np.linalg.norm(
        exact_perturbed_solution(E, pd, mu, eps) - b0
    ) / np.linalg.norm(b0)
    bound = error_bound(es, pd, b0.real, eps)
    assert measured <= 1.5 * bound.relative
