"""Closed-form shift rules for equidistant spectra.

When the eigenvalues form an arithmetic progression with gap delta, the
distinct gap values collapse to 2n-1 and the real design matrix C at the
equidistant phases -2*pi*j/((2n-1)*delta) has orthogonal columns: scaled
by 1/sqrt(2n-1) it is an orthogonal matrix, so the coefficients come from
a single transpose product instead of a solve.

These phases are "optimal" for the design matrix only: the condition
number is 1 and |det C| reaches Hadamard's bound (2n-1)^((2n-1)/2).  They
are not a stationary point of the coefficient square-norm ||b||^2: for
n = 2 the closed form has ||b||^2 = 2/3, while the symmetric two-term rule
at +-pi/(2*delta) has 1/2 (see ``variance.optimize_shifts``).
"""

from __future__ import annotations

import math

import numpy as np

from . import _Record
from .rule import ShiftRule
from .spectrum import FrequencySet
from .synthesis import IllPosedError, _exact_rule, build_system


class EquidistantStructure(_Record):
    """n equidistant eigenvalues with base gap delta."""

    _fields = ("n", "delta")

    def __init__(self, n: int, delta: float):
        if n < 2:
            raise ValueError("need n >= 2")
        if not (delta > 0 and np.isfinite(delta)):
            raise ValueError("delta must be positive and finite")
        self.__dict__.update(n=n, delta=delta)

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
    orthogonal, its condition number is 1 and |det C| reaches Hadamard's bound
    (2n-1)^((2n-1)/2).  Not optimal for the shot budget: they are not a
    stationary point of the coefficient square-norm (n = 2: the closed form
    gives 2/3, the two-term rule at +-pi/(2*delta) gives 1/2).  Raises
    IllPosedError where 2*pi/delta overflows.
    """
    m = es.m
    if -2 * math.pi * m / (m * es.delta) == -math.inf:  # the j = m phase below, in Python floats
        raise IllPosedError(f"phase period 2*pi/{es.delta!r} overflows: the gap spacing is too small")
    j = np.arange(1, m + 1)
    return -2 * np.pi * j / (m * es.delta)


def normalized_system(es: EquidistantStructure):
    """(C_tilde, t_tilde): the real design system scaled by 1/sqrt(2n-1).

    C_tilde is orthogonal at the equidistant phases, so its inverse is the
    transpose and its condition number is exactly one.
    """
    sys = build_system(es.frequency_set(), optimal_phases(es))
    scale = 1.0 / np.sqrt(es.m)
    return sys.matrix * scale, sys.rhs * scale


def closed_form_rule(es: EquidistantStructure, p: int = 1) -> ShiftRule:
    """Order-p rule at the equidistant phases via the orthogonal inverse.

    Coefficients are (1/(2n-1)) * C^T t.  For p = 1 the
    coefficient at phase -2*pi/delta vanishes, so the rule costs 2n-2
    active evaluations.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    sys = build_system(es.frequency_set(), optimal_phases(es), ((p, 1.0),))
    b = sys.matrix.T @ sys.rhs / es.m
    return _exact_rule(sys, b, "equidistant", 1.0, "closed_form_rule")
