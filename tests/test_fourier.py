import numpy as np
import pytest
import scipy.linalg

from conftest import HamiltonianModel, from_hamiltonian, random_model_terms
from shiftrules import FourierModel, NoiseSpec, analytic_derivative, evaluate
from paper_forms import vandermonde_expansion_coeffs
from shiftrules.fourier import sample_noisy_batch


def test_evaluate_single_sine():
    model = FourierModel(a0=0.0, terms=((1.0, 0.0, 1.0),))
    assert evaluate(model, np.pi / 2) == pytest.approx(1.0)


def test_evaluate_constant():
    model = FourierModel(a0=2.0)
    for t in (-3.0, 0.0, 17.2):
        assert evaluate(model, t) == 2.0


def test_evaluate_cosines_at_zero():
    model = FourierModel(a0=0.0, terms=((1.0, 1.0, 0.0), (2.0, 0.5, 0.0)))
    assert evaluate(model, 0.0) == pytest.approx(1.5)


def test_derivative_examples():
    sine = FourierModel(a0=0.0, terms=((1.0, 0.0, 1.0),))
    assert analytic_derivative(sine, 0.0, 1) == pytest.approx(1.0)
    cos2 = FourierModel(a0=0.0, terms=((2.0, 1.0, 0.0),))
    assert analytic_derivative(cos2, 0.0, 2) == pytest.approx(-4.0)
    const = FourierModel(a0=5.0)
    for p in (1, 2, 3):
        assert analytic_derivative(const, 1.3, p) == 0.0


def test_derivative_order_zero_is_evaluate():
    model = FourierModel(a0=0.3, terms=((1.5, 0.2, -0.7),))
    assert analytic_derivative(model, 0.9, 0) == evaluate(model, 0.9)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        terms = random_model_terms(rng, sorted(rng.uniform(0.3, 3.0, 3)))
        model = FourierModel(a0=float(rng.uniform(-1, 1)), terms=terms)
        t = float(rng.uniform(-np.pi, np.pi))
        h = 1e-5
        fd = (evaluate(model, t + h) - evaluate(model, t - h)) / (2 * h)
        assert analytic_derivative(model, t, 1) == pytest.approx(fd, abs=1e-7)


def test_periodicity_for_commensurate_frequencies():
    model = FourierModel(a0=0.4, terms=((0.5, 1.0, -0.3), (1.5, 0.2, 0.1)))
    period = 2 * np.pi / 0.5
    ts = np.linspace(-2.0, 2.0, 17)
    np.testing.assert_allclose(evaluate(model, ts), evaluate(model, ts + period), atol=1e-12)


def _pauli_x_model():
    return HamiltonianModel(
        eigenvalues=(0.0, 1.0),
        observable=np.array([[0.0, 1.0], [1.0, 0.0]]),
        state=np.array([1.0, 1.0]) / np.sqrt(2),
    )


def test_from_hamiltonian_two_level_cosine():
    model = from_hamiltonian(_pauli_x_model())
    assert model.a0 == pytest.approx(0.0, abs=1e-14)
    assert model.terms == ((1.0, pytest.approx(1.0), pytest.approx(0.0, abs=1e-14)),)
    ts = np.linspace(-3, 3, 25)
    np.testing.assert_allclose(evaluate(model, ts), np.cos(ts), atol=1e-12)


def test_from_hamiltonian_identity_observable_constant():
    hm = HamiltonianModel(
        eigenvalues=(0.3, 1.1, 2.4),
        observable=np.eye(3),
        state=np.array([0.5, 0.5, np.sqrt(0.5)]),
    )
    model = from_hamiltonian(hm)
    assert model.terms == ()
    assert model.a0 == pytest.approx(1.0)


def test_from_hamiltonian_eigenstate_gives_diagonal_constant():
    C = np.diag([0.7, -1.2, 3.0])
    hm = HamiltonianModel(
        eigenvalues=(0.0, 1.0, 2.5), observable=C, state=np.array([1.0, 0.0, 0.0])
    )
    model = from_hamiltonian(hm)
    assert model.terms == ()
    assert model.a0 == pytest.approx(0.7)


def test_from_hamiltonian_matches_matrix_exponential():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        lam = np.sort(rng.uniform(-2, 2, n))
        lam += np.linspace(0, 1e-3 * n, n)  # keep levels distinct
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C = 0.5 * (A + A.conj().T)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        hm = HamiltonianModel(eigenvalues=tuple(lam), observable=C, state=psi)
        model = from_hamiltonian(hm)
        H = np.diag(lam)
        for t in np.linspace(-np.pi, np.pi, 100):
            U = scipy.linalg.expm(1j * H * t)
            direct = (psi.conj() @ U.conj().T @ C @ U @ psi).real
            assert evaluate(model, float(t)) == pytest.approx(direct, abs=1e-10)


def test_hamiltonian_model_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianModel((0.0, 1.0), np.array([[0, 1], [0, 0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="unit norm"):
        HamiltonianModel((0.0, 1.0), np.eye(2), np.array([1.0, 1.0]))


def test_vandermonde_two_levels_closed_form():
    for t in (0.0, 0.7, -2.3):
        c = vandermonde_expansion_coeffs([0.0, 1.0], t)
        assert c[0] == pytest.approx(1.0)
        assert c[1] == pytest.approx(np.exp(1j * t) - 1.0)


def test_vandermonde_at_zero_time():
    c = vandermonde_expansion_coeffs([0.0, 1.0, 2.0], 0.0)
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0], atol=1e-14)


def test_vandermonde_interpolation_property():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        lam = np.sort(rng.uniform(-3, 3, n))
        if np.diff(lam).min() < 1e-2:
            continue
        t = float(rng.uniform(-2, 2))
        c = vandermonde_expansion_coeffs(lam, t)
        recon = np.vander(lam, increasing=True).astype(complex) @ c
        assert np.abs(recon - np.exp(1j * lam * t)).max() <= 1e-10


def test_vandermonde_symmetric_closed_form_agrees():
    rng = np.random.default_rng(29)
    for _ in range(10):
        lam = np.sort(rng.uniform(-2, 2, 4))
        if np.diff(lam).min() < 5e-2:
            continue
        t = float(rng.uniform(-2, 2))
        a = vandermonde_expansion_coeffs(lam, t, method="solve")
        b = vandermonde_expansion_coeffs(lam, t, method="symmetric")
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_vandermonde_rejects_repeated_eigenvalues():
    with pytest.raises(ValueError, match="distinct"):
        vandermonde_expansion_coeffs([0.0, 0.0, 1.0], 0.5)


def test_noise_zero_sigma_is_exact():
    model = FourierModel(a0=0.5, terms=((1.0, 1.0, 0.0),))
    noise = NoiseSpec(sigma=0.0, seed=42)
    assert sample_noisy_batch(model, 0.3, noise, 1)[0] == evaluate(model, 0.3)


def test_noise_deterministic_sequences():
    model = FourierModel(a0=0.0, terms=((1.0, 0.3, 0.4),))
    noise = NoiseSpec(sigma=1.0, seed=7)
    seq1 = [sample_noisy_batch(model, t, noise, k + 1)[k] for t in (0.1, 0.2) for k in range(3)]
    seq2 = [sample_noisy_batch(model, t, noise, k + 1)[k] for t in (0.1, 0.2) for k in range(3)]
    assert seq1 == seq2
    first, second = sample_noisy_batch(model, 0.1, noise, 2)
    assert first != second
    # different seeds decorrelate
    other = NoiseSpec(sigma=1.0, seed=8)
    assert first != sample_noisy_batch(model, 0.1, other, 1)[0]


def test_noise_batch_matches_scalar_stream():
    model = FourierModel(a0=1.0)
    noise = NoiseSpec(sigma=0.5, seed=11)
    batch = sample_noisy_batch(model, 0.0, noise, 5)
    singles = [sample_noisy_batch(model, 0.0, noise, k + 1)[k] for k in range(5)]
    np.testing.assert_allclose(batch, singles)


def test_noise_sample_mean_near_exact():
    model = FourierModel(a0=0.25, terms=((2.0, -0.3, 0.8),))
    noise = NoiseSpec(sigma=1.0, seed=13)
    t = 0.6
    draws = sample_noisy_batch(model, t, noise, 100_000)
    assert abs(draws.mean() - evaluate(model, t)) < 0.02  # 5 sigma / sqrt(N)


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1, seed=0)


@pytest.mark.parametrize("seed", [-1, -(2**64) + 1, True, 1.5, 2.0, "3", None])
def test_noise_spec_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        NoiseSpec(sigma=1.0, seed=seed)


def test_noise_spec_accepts_integer_seeds_with_unchanged_draws():
    model = FourierModel(a0=0.0)
    t_bits = int(np.float64(-0.3).view(np.uint64))
    for seed in (0, np.int64(7), 2**63, 2**64 - 1):  # the earlier stream, keyed by seed % 2**64
        want = np.random.default_rng([int(seed) % 2**64, t_bits]).standard_normal(3)
        assert np.array_equal(sample_noisy_batch(model, -0.3, NoiseSpec(1.0, seed), 3), want)


def test_noise_seeds_from_2_64_up_do_not_alias():
    model = FourierModel(a0=0.0)
    seeds = (0, 1, 2**64, 2**64 + 1, 2**70)
    draws = {sample_noisy_batch(model, 0.3, NoiseSpec(1.0, seed), 3).tobytes() for seed in seeds}
    assert len(draws) == len(seeds)
