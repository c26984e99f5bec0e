"""First-order behavior of equidistant rules under gap perturbations.

Small shifts of the eigenvalues away from exact equidistance perturb the
unitary-normalized design system (E + eps*R) b(eps) = mu + eps*r.  This
module builds the canonical (R, r) pair for the equidistant phases,
propagates the first-order solution, and evaluates the condition-number
error bounds.

A library-only analysis: no CLI command loads it.  ``synthesize`` gives a
perturbed-equidistant spectrum the direct solve on its own gaps, not the
closed form of its mean gap, so these bounds describe no rule it writes.
"""

from __future__ import annotations

import numpy as np

from . import _Record
from .equidistant import EquidistantStructure, normalized_system
from .synthesis import _norm, _singular_value_condition


class PerturbationData(_Record):
    """Unit-scale perturbation pair (R, r) for the normalized system.

    The gap-0 row of R is identically zero (the diagonal gap never
    moves); the remaining rows follow the sign of their gap.
    """

    _fields = ("matrix", "vector")

    def __init__(self, matrix: np.ndarray, vector: np.ndarray):
        if np.abs(matrix[0]).max() != 0.0:
            raise ValueError("the gap-0 row of the perturbation matrix must be zero")
        self.__dict__.update(matrix=matrix, vector=vector)


def perturbation_matrices(es: EquidistantStructure) -> PerturbationData:
    """Canonical unit-epsilon perturbation of the normalized system.

    Row for gap +-k*delta, column x (x = 1..2n-1):
    +-(i*tau/delta) * x * exp(-+ i*k*x*tau), divided by sqrt(2n-1);
    the right-hand side perturbation is i * ones / sqrt(2n-1).
    """
    n, d, tau, m = es.n, es.delta, es.tau, es.m
    R = np.zeros((m, m), dtype=complex)
    x = np.arange(1, m + 1)
    kx = np.arange(1, n)[:, None] * x  # k * x for k = 1..n-1, exact integers
    R[1::2] = (1j * tau / d) * x * np.exp(-1j * kx * tau)  # the rows 2k - 1
    R[2::2] = -(1j * tau / d) * x * np.exp(1j * kx * tau)  # the rows 2k
    R /= np.sqrt(m)
    r = 1j * np.ones(m) / np.sqrt(m)
    return PerturbationData(matrix=R, vector=r)


class PerturbationBound(_Record):
    """First-order error bounds on the coefficient deviation.

    ``relative``: k(E) * (eps*|r|/|mu| + eps*|R|/|E|), bounding the
    relative deviation |b(eps)-b(0)| / |b(0)|.
    ``absolute``: eps * (|r| + |R|) * |b0|, the unitary-system estimate.
    ``loose``: the closed-form upper bound
    4*eps*delta*(1 + sqrt(2n-1)*R_max) * (n-1)*(2^n-1)^2 / sqrt(2n-1),
    with R_max the largest entry magnitude of the unnormalized R.
    """

    _fields = ("relative", "absolute", "loose")

    def __init__(self, relative: float, absolute: float, loose: float):
        self.__dict__.update(relative=relative, absolute=absolute, loose=loose)


def error_bound(
    es: EquidistantStructure,
    pd: PerturbationData,
    b0: np.ndarray,
    eps: float,
) -> PerturbationBound:
    """The perturbation bounds for the unitary equidistant system; ValueError where |mu| underflows."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    E, mu = normalized_system(es)  # the real rotation: E's norms and cond(E)
    b0 = np.asarray(b0, dtype=float)
    s_E = np.linalg.svd(E, compute_uv=False)  # np.linalg.norm(X, 2) is the largest s of X
    kE = float(_singular_value_condition(s_E, max(E.shape)))
    norm_E = float(s_E.max())
    norm_R = float(np.linalg.svd(pd.matrix, compute_uv=False).max())
    norm_r, norm_mu = float(np.linalg.norm(pd.vector)), _norm(mu)
    if norm_mu == 0.0:  # mu(k delta) = i k delta / sqrt(m) is not zero: its square sum underflowed
        raise ValueError(f"the target norm |mu| underflows to 0 at delta={es.delta!r}")
    relative = kE * (eps * norm_r / norm_mu + eps * norm_R / norm_E)
    absolute = eps * (norm_r + norm_R) * _norm(b0)
    n, m, d = es.n, es.m, es.delta
    sqrt_m = np.sqrt(m)
    r_max = float(np.abs(pd.matrix).max()) * sqrt_m
    loose = 4 * eps * d * (1 + sqrt_m * r_max) * (n - 1) * (2**n - 1) ** 2 / sqrt_m
    return PerturbationBound(relative=relative, absolute=absolute, loose=loose)
