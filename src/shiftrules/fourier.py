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

from .spectrum import DEFAULT_DEDUP_TOL, _dedup_values
from .synthesis import _check_non_negative_int


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
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and non-negative")
        _check_non_negative_int("seed", self.seed)


def evaluate(model: FourierModel, t):
    """Evaluate the series at t (scalar or array)."""
    return evaluate_models([model], t)[0]


def evaluate_models(models, t) -> list:
    """The series of each model at t: an array of t's shape, a float for scalar t.

    The frequencies run in the outer loop, so cos(w t) and sin(w t) are
    computed once per frequency for all the models that share it.  Each
    model still adds a*cos then b*s per term, in its own increasing
    frequency order, and in place, so only two scratch arrays of t's
    shape exist besides the results.
    """
    return _sum_series([(m.a0, m.terms) for m in models], t)


def _sum_series(series, t) -> list:
    """``evaluate_models`` on (a0, terms) pairs, which need not form a valid model."""
    t = np.asarray(t, dtype=float)
    outs = [np.full_like(t, a0) for a0, _ in series]
    coeffs = [{w: (a, b) for w, a, b in terms} for _, terms in series]
    table, term = np.empty_like(t), np.empty_like(t)
    for w in sorted({w for terms in coeffs for w in terms}):
        users = [(out, terms[w]) for out, terms in zip(outs, coeffs) if w in terms]
        for trig, i in ((np.cos, 0), (np.sin, 1)):
            trig(np.multiply(w, t, out=table), out=table)
            for out, ab in users:
                out += np.multiply(ab[i], table, out=term)
    return [float(out) if out.ndim == 0 else out for out in outs]


def analytic_derivative(model: FourierModel, t, p: int = 1):
    """Exact p-th derivative of the series at t; p=0 is plain evaluation.

    Each differentiation maps the pair (a, b) of a term with frequency w
    to (w*b, -w*a): no finite differencing, and an overflow gives inf or NaN.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    terms = []
    for w, a, b in model.terms:
        for _ in range(p):
            a, b = w * b, -w * a
        terms.append((w, a, b))
    return _sum_series([(model.a0 if p == 0 else 0.0, terms)], t)[0]


def from_hamiltonian(hm: HamiltonianModel) -> FourierModel:
    """Expand <psi| U(t)^dag C U(t) |psi> into a FourierModel.

    Works entirely in the eigenbasis: the weight of each signed gap
    g = lam_l - lam_k is w_kl = conj(psi_k) C_kl psi_l, and conjugate
    gap pairs combine into real cosine/sine terms.  Gap values are merged
    into frequencies by the single-linkage grouping of
    ``frequency_differences`` at ``DEFAULT_DEDUP_TOL * max|lam|``.  Terms
    whose combined amplitude falls below 1e-13 (relative) are dropped.
    """
    lam = np.asarray(hm.eigenvalues, dtype=float)
    weights = np.conj(hm.state)[:, None] * hm.observable * hm.state[None, :]
    gaps = lam[None, :] - lam[:, None]  # gaps[k, l] = lam_l - lam_k

    tol = DEFAULT_DEDUP_TOL * max(float(np.abs(lam).max()), 1e-300)
    # weights are summed in (k, l) order, the order of the expansion,
    # so each group's members are taken in index order
    a0 = sum(weights[np.abs(gaps) <= tol], 0j)
    positive = gaps > tol
    pos_gaps, pos_weights = gaps[positive], weights[positive]
    groups = [sorted(g) for g in _dedup_values(pos_gaps, tol)]

    if abs(a0.imag) > 1e-10 * max(1.0, abs(a0)):
        raise ValueError("constant term came out non-real; observable not Hermitian?")

    terms = []
    for g in groups:
        z = sum(pos_weights[g], 0j)
        terms.append((float(np.mean(pos_gaps[g])), 2.0 * z.real, -2.0 * z.imag))
    amp_scale = max(1.0, max((abs(a) + abs(b) for _, a, b in terms), default=0.0))
    terms = [(w, a, b) for (w, a, b) in terms if abs(a) + abs(b) > 1e-13 * amp_scale]
    return FourierModel(a0=float(a0.real), terms=tuple(terms))


def _stream(noise: NoiseSpec, t: float) -> np.random.Generator:
    # Keyed by (seed, bit pattern of t): reproducible and order-independent.
    t_bits = int(np.float64(t).view(np.uint64))
    # int(): a numpy integer seed & the 64-bit mask overflows
    return np.random.default_rng([int(noise.seed) & 0xFFFFFFFFFFFFFFFF, t_bits])


def sample_noisy_batch(model: FourierModel, t: float, noise: NoiseSpec, shots: int) -> np.ndarray:
    """The first ``shots`` noisy draws at t: exact value plus seeded Gaussian noise.

    Draw k is the same whatever ``shots`` is, and the stream depends only
    on (seed, t), so sampling is reproducible regardless of call order.
    """
    exact = evaluate(model, t)
    if noise.sigma == 0.0:
        return np.full(shots, exact)
    return exact + noise.sigma * _stream(noise, t).standard_normal(shots)
