"""Closed-form shift rules for equidistant spectra.

When the eigenvalues form an arithmetic progression with gap delta, the
distinct gap values collapse to 2n-1 and the design matrix at the
equidistant phases -2*pi*j/((2n-1)*delta) has orthogonal columns: scaled
by 1/sqrt(2n-1) it is unitary, so the coefficients come from a single
conjugate-transpose product instead of a solve.

These phases are "optimal" for the design matrix only: the condition
number is 1 and |det E| reaches Hadamard's bound (2n-1)^((2n-1)/2).  They
are not a stationary point of the coefficient square-norm ||b||^2: for
n = 2 the closed form has ||b||^2 = 2/3, while the symmetric two-term rule
at +-pi/(2*delta) has 1/2 (see ``variance.optimize_shifts``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import FrequencySet
from .synthesis import (
    FIRST_DERIVATIVE,
    Orders,
    ShiftRule,
    _extract_real,
    build_system,
)


@dataclass(frozen=True)
class EquidistantStructure:
    """n equidistant eigenvalues with base gap delta."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not (self.delta > 0 and np.isfinite(self.delta)):
            raise ValueError("delta must be positive and finite")

    @property
    def m(self) -> int:
        return 2 * self.n - 1

    @property
    def tau(self) -> float:
        return 2 * np.pi / (2 * self.n - 1)

    def frequency_set(self) -> FrequencySet:
        """The reduced frequency set {k*delta : k = 1..n-1}, k*delta shared by n-k pairs."""
        n, d = self.n, self.delta
        return FrequencySet(
            unique_frequencies=tuple(k * d for k in range(1, n)),
            multiplicities=tuple(n - k for k in range(1, n)),
        )


def optimal_phases(es: EquidistantStructure) -> np.ndarray:
    """The 2n-1 equidistant phases -2*pi*j/((2n-1)*delta), j = 1..2n-1.

    Optimal in the sense of the design matrix: scaled by 1/sqrt(2n-1) it is
    unitary, its condition number is 1 and |det E| reaches Hadamard's bound
    (2n-1)^((2n-1)/2).  Not optimal for the shot budget: they are not a
    stationary point of the coefficient square-norm (n = 2: the closed form
    gives 2/3, the two-term rule at +-pi/(2*delta) gives 1/2).
    """
    m = es.m
    j = np.arange(1, m + 1)
    return -2 * np.pi * j / (m * es.delta)


def normalized_system(es: EquidistantStructure, orders: Orders = FIRST_DERIVATIVE):
    """(E_tilde, rhs_tilde): the reduced system scaled by 1/sqrt(2n-1).

    E_tilde is unitary at the equidistant phases, so its inverse is the
    conjugate transpose and its condition number is exactly one.
    """
    sys = build_system(es.frequency_set(), optimal_phases(es), orders)
    scale = 1.0 / np.sqrt(es.m)
    return sys.matrix * scale, sys.rhs * scale


def closed_form_rule(es: EquidistantStructure, p: int = 1) -> ShiftRule:
    """Order-p rule at the equidistant phases via the unitary inverse.

    Coefficients are (1/(2n-1)) * E^dagger * rhs.  For p = 1 the
    coefficient at phase -2*pi/delta vanishes, so the rule costs 2n-2
    active evaluations.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    orders: Orders = ((p, 1.0),)
    freq = es.frequency_set()
    phases = optimal_phases(es)
    sys = build_system(freq, phases, orders)
    b = sys.matrix.conj().T @ sys.rhs / es.m
    coeffs, max_imag = _extract_real(b, "closed_form_rule")
    residual = float(np.linalg.norm(sys.matrix @ b - sys.rhs))
    return ShiftRule(
        phases=phases,
        coefficients=coeffs,
        orders=orders,
        frequencies=freq.unique_frequencies,
        diagnostics={
            "method": "equidistant",
            "condition_number": 1.0,
            "residual": residual,
            "max_imag_discarded": max_imag,
        },
    )
