"""Exact trigonometric expectation functions and their derivatives.

This is the validation oracle: every synthesized shift rule is checked
against models whose derivatives we can evaluate in closed form: finite
cosine/sine series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rule import _check_non_negative_int


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


def evaluate_models(models, t, p: int = 0) -> list:
    """The p-th derivative of each model's series at t; p=0 is plain evaluation.

    Returns an array of t's shape per model, a float for scalar t.  Each
    differentiation maps the pair (a, b) of a term with frequency w to
    (w*b, -w*a): no finite differencing, and an overflow gives inf or NaN.

    The frequencies run in the outer loop, so cos(w t) and sin(w t) are
    computed once per frequency for all the models that share it.  Each
    model still adds a*cos then b*s per term, in its own increasing
    frequency order, and in place, so only two scratch arrays of t's
    shape exist besides the results.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    t = np.asarray(t, dtype=float)
    outs = [np.full_like(t, m.a0 if p == 0 else 0.0) for m in models]
    coeffs = []
    for m in models:
        terms = {}
        for w, a, b in m.terms:
            for _ in range(p):
                a, b = w * b, -w * a
            terms[w] = (a, b)
        coeffs.append(terms)
    table, term = np.empty_like(t), np.empty_like(t)
    for w in sorted({w for terms in coeffs for w in terms}):
        users = [(out, terms[w]) for out, terms in zip(outs, coeffs) if w in terms]
        for trig, i in ((np.cos, 0), (np.sin, 1)):
            trig(np.multiply(w, t, out=table), out=table)
            for out, ab in users:
                out += np.multiply(ab[i], table, out=term)
    return [float(out) if out.ndim == 0 else out for out in outs]


def analytic_derivative(model: FourierModel, t, p: int = 1):
    """Exact p-th derivative of the series at t; p=0 is plain evaluation."""
    return evaluate_models([model], t, p)[0]


def _stream(noise: NoiseSpec, t: float) -> np.random.Generator:
    # Keyed by (seed, bit pattern of t): reproducible and order-independent.
    t_bits = int(np.float64(t).view(np.uint64))
    return np.random.default_rng([noise.seed, t_bits])  # every non-negative seed, used whole


def sample_noisy_batch(model: FourierModel, t: float, noise: NoiseSpec, shots: int) -> np.ndarray:
    """The first ``shots`` noisy draws at t: exact value plus seeded Gaussian noise.

    Draw k is the same whatever ``shots`` is, and the stream depends only
    on (seed, t), so sampling is reproducible regardless of call order.
    """
    exact = evaluate(model, t)
    if noise.sigma == 0.0:
        return np.full(shots, exact)
    return exact + noise.sigma * _stream(noise, t).standard_normal(shots)
