"""Exact trigonometric expectation functions and their derivatives.

This is the validation oracle: every synthesized shift rule is checked
against models whose derivatives we can evaluate in closed form.  Models
come either directly as a finite cosine/sine series or from a
(eigenvalues, observable, state) triple via the finite-power expansion of
the evolution operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import DEFAULT_DEDUP_TOL


@dataclass(frozen=True)
class FourierModel:
    """Finite trigonometric series a0 + sum_l a_l cos(w_l t) + b_l sin(w_l t)."""

    a0: float
    terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        terms = tuple((float(w), float(a), float(b)) for (w, a, b) in self.terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "a0", float(self.a0))
        freqs = [w for w, _, _ in terms]
        if any(w <= 0 for w in freqs):
            raise ValueError("frequencies must be positive")
        if any(x >= y for x, y in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        flat = [self.a0] + [x for term in terms for x in term]
        if not np.isfinite(flat).all():
            raise ValueError("model coefficients must be finite")

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(w for w, _, _ in self.terms)


@dataclass(frozen=True)
class HamiltonianModel:
    """Eigenvalues, observable (in the eigenbasis), and a unit-norm state."""

    eigenvalues: tuple[float, ...]
    observable: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        lam = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lam)
        C = np.asarray(self.observable, dtype=complex)
        psi = np.asarray(self.state, dtype=complex)
        n = len(lam)
        if C.shape != (n, n):
            raise ValueError("observable must be n x n")
        if psi.shape != (n,):
            raise ValueError("state must be an n-vector")
        scale = max(1.0, float(np.abs(C).max()))
        if not np.allclose(C, C.conj().T, rtol=0, atol=1e-12 * scale):
            raise ValueError("observable must be Hermitian")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValueError("state must have unit norm")
        object.__setattr__(self, "observable", C)
        object.__setattr__(self, "state", psi)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise with a deterministic seed."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def evaluate(model: FourierModel, t):
    """Evaluate the series at t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, model.a0, dtype=float)
    for w, a, b in model.terms:
        out = out + a * np.cos(w * t) + b * np.sin(w * t)
    return float(out) if out.ndim == 0 else out


def analytic_derivative(model: FourierModel, t, p: int = 1):
    """Exact p-th derivative of the series at t; p=0 is plain evaluation.

    Each differentiation maps the pair (a, b) of a term with frequency w
    to (w*b, -w*a), so no finite differencing is involved.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    if p == 0:
        return evaluate(model, t)
    terms = []
    for w, a, b in model.terms:
        for _ in range(p):
            a, b = w * b, -w * a
        terms.append((w, a, b))
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t, dtype=float)
    for w, a, b in terms:
        out = out + a * np.cos(w * t) + b * np.sin(w * t)
    return float(out) if out.ndim == 0 else out


def from_hamiltonian(
    hm: HamiltonianModel,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    coeff_tol: float = 1e-13,
) -> FourierModel:
    """Expand <psi| U(t)^dag C U(t) |psi> into a FourierModel.

    Works entirely in the eigenbasis: the weight of each signed gap
    g = lam_l - lam_k is w_kl = conj(psi_k) C_kl psi_l, and conjugate
    gap pairs combine into real cosine/sine terms.  Gap values closer
    than ``dedup_tol * max|lam|`` share one frequency.  Terms whose
    combined amplitude falls below ``coeff_tol`` (relative) are dropped.
    """
    lam = np.asarray(hm.eigenvalues, dtype=float)
    C = hm.observable
    psi = hm.state
    n = len(lam)
    weights = np.conj(psi)[:, None] * C * psi[None, :]

    scale = max(float(np.abs(lam).max()), 1e-300)
    tol = dedup_tol * scale

    a0 = 0.0 + 0.0j
    gap_weights: dict[int, complex] = {}
    gap_values: list[list[float]] = []
    for k in range(n):
        for l in range(n):
            g = lam[l] - lam[k]
            if abs(g) <= tol:
                a0 += weights[k, l]
            elif g > 0:
                for gi, group in enumerate(gap_values):
                    if abs(g - group[0]) <= tol:
                        group.append(g)
                        gap_weights[gi] += weights[k, l]
                        break
                else:
                    gap_values.append([g])
                    gap_weights[len(gap_values) - 1] = weights[k, l]

    if abs(a0.imag) > 1e-10 * max(1.0, abs(a0)):
        raise ValueError("constant term came out non-real; observable not Hermitian?")

    terms = []
    for gi, group in enumerate(gap_values):
        z = gap_weights[gi]
        terms.append((float(np.mean(group)), 2.0 * z.real, -2.0 * z.imag))
    amp_scale = max(1.0, max((abs(a) + abs(b) for _, a, b in terms), default=0.0))
    terms = [
        (w, a, b) for (w, a, b) in terms if abs(a) + abs(b) > coeff_tol * amp_scale
    ]
    terms.sort(key=lambda term: term[0])
    return FourierModel(a0=float(a0.real), terms=tuple(terms))


def _elementary_symmetric(roots: np.ndarray) -> np.ndarray:
    """[S_0, S_1, ..., S_d] for the given roots (S_0 = 1)."""
    coeffs = np.poly(roots)  # x^d + c1 x^{d-1} + ... with c_k = (-1)^k S_k
    signs = (-1.0) ** np.arange(len(coeffs))
    return signs * coeffs


def vandermonde_expansion_coeffs(
    eigenvalues,
    t: float,
    method: str = "solve",
    distinct_tol: float = 1e-9,
) -> np.ndarray:
    """Coefficients c_p with exp(i*lam_j*t) = sum_p c_p lam_j^p for all j.

    ``method="solve"`` solves the Vandermonde system directly;
    ``method="symmetric"`` uses the closed form built from elementary
    symmetric polynomials of the complementary eigenvalues.  Both agree
    to round-off; the closed form exists as an independent check.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = len(lam)
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    scale = max(1.0, float(np.abs(lam).max()))
    if n > 1:
        gaps = np.abs(lam[:, None] - lam[None, :])[~np.eye(n, dtype=bool)]
        if gaps.min() <= distinct_tol * scale:
            raise ValueError("eigenvalues must be pairwise distinct")
    values = np.exp(1j * lam * t)

    if method == "solve":
        V = np.vander(lam, increasing=True).astype(complex)
        return np.linalg.solve(V, values)
    if method == "symmetric":
        c = np.zeros(n, dtype=complex)
        for j in range(n):
            others = np.delete(lam, j)
            denom = np.prod(others - lam[j]) if n > 1 else 1.0
            S = _elementary_symmetric(others)  # S_0..S_{n-1}
            for i in range(n):
                c[i] += (-1.0) ** i * S[n - 1 - i] / denom * values[j]
        return c
    raise ValueError(f"unknown method {method!r}")


def _stream(noise: NoiseSpec, t: float) -> np.random.Generator:
    # Keyed by (seed, bit pattern of t): reproducible and order-independent.
    t_bits = int(np.float64(t).view(np.uint64))
    return np.random.default_rng([noise.seed & 0xFFFFFFFFFFFFFFFF, t_bits])


def sample_noisy(model: FourierModel, t: float, noise: NoiseSpec, draw: int = 0) -> float:
    """One noisy evaluation: exact value plus deterministic Gaussian noise.

    ``draw`` indexes independent samples at the same t; the underlying
    stream depends only on (seed, t), so parallel sampling is
    reproducible regardless of call order.
    """
    exact = evaluate(model, t)
    if noise.sigma == 0.0:
        return exact
    g = _stream(noise, t).standard_normal(draw + 1)[-1]
    return exact + noise.sigma * g


def sample_noisy_batch(model: FourierModel, t: float, noise: NoiseSpec, shots: int) -> np.ndarray:
    """The first ``shots`` noisy draws at t (vectorized sample_noisy)."""
    exact = evaluate(model, t)
    if noise.sigma == 0.0:
        return np.full(shots, exact)
    return exact + noise.sigma * _stream(noise, t).standard_normal(shots)
