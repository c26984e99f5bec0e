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

from .spectrum import ClusterSet, FrequencySet
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


def dirichlet_kernel(order: int, x) -> float | np.ndarray:
    """D_k(x) = 1 + 2*sum_{j=1..k} cos(j*x), computed by the sum form."""
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for j in range(1, order + 1):
        out = out + 2 * np.cos(j * x)
    return float(out) if out.ndim == 0 else out


def orthogonality_residual(freq: FrequencySet, phases) -> float:
    """Max normalized off-diagonal column overlap |v(phi_j)^* v(phi_i)| / m.

    Zero exactly when the (reduced) design columns are orthogonal, which
    happens only for equidistant spectra at the equidistant phases.
    """
    sys = build_system(freq, phases)
    G = sys.matrix.conj().T @ sys.matrix
    off = G - np.diag(np.diag(G))
    return float(np.abs(off).max() / sys.matrix.shape[0])


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


def cluster_rule_estimates(
    cs: ClusterSet,
    p: int = 1,
    median_gap_tol: float = 0.1,
) -> tuple[list[ShiftRule], ShiftRule]:
    """Per-realization equidistant rules plus the median-gap combination.

    Each realization l gets a rule at its fitted gap (the least-squares
    common gap, i.e. the mean adjacent gap of that realization's
    eigenvalues ordered by cluster).  The combined rule uses the mean
    adjacent gap of the cluster medians; its diagnostics report the
    spread of the per-realization coefficient vectors and the additive
    first-order recombination for comparison.
    """
    if cs.median_gap_deviation > median_gap_tol:
        raise ValueError(
            f"cluster medians are not equidistant within {median_gap_tol:.3g} "
            f"(relative deviation {cs.median_gap_deviation:.3g})"
        )
    n = cs.n
    if n < 2:
        raise ValueError("need at least 2 clusters")
    delta = cs.median_gap
    combined = closed_form_rule(EquidistantStructure(n=n, delta=delta), p)

    fitted_gaps = np.diff(cs.values, axis=1).mean(axis=1)
    # First-order additive recombination: subtract the net offset drift.
    offsets = cs.values - np.asarray(cs.medians)
    additive_gaps = fitted_gaps - (offsets[:, -1] - offsets[:, 0]) / (n - 1)
    rules = [closed_form_rule(EquidistantStructure(n=n, delta=float(g)), p) for g in fitted_gaps]

    b0 = combined.coefficients
    spread = max(float(np.abs(r.coefficients - b0).max()) for r in rules)
    # At the equidistant phases the coefficient vector scales as gap**p.
    additive_dev = max(
        float(np.abs((g / delta) ** p * b0 - b0).max()) for g in additive_gaps.tolist()
    )
    combined.diagnostics.update(
        method="equidistant_cluster",
        coefficient_spread=spread,
        per_realization_gaps=fitted_gaps.tolist(),
        additive_gap_estimates=additive_gaps.tolist(),
        additive_deviation=additive_dev,
        median_gap=delta,
        median_gap_deviation=cs.median_gap_deviation,
    )
    return rules, combined
