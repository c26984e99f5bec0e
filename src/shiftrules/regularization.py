"""Tikhonov-regularized shift rules for ill-posed spectra.

Coincident or nearly coincident gaps make the design system singular or
hopelessly ill-conditioned, so the plain inverse is replaced by the
minimizer of |E b - mu|^2 + gamma |b|^2, trading a controlled bias for
stability.  With the thin SVD E = U diag(s) V^dag it is
b = V diag(s / (s^2 + gamma)) U^dag mu (filter factors; Hansen, SIAM
Review 34, 1992): one factorization serves every gamma, and the normal
equations, which square cond(E), are never formed.  The residual
r(gamma)^2 = sum (gamma / (s^2 + gamma))^2 |U^dag mu|^2 + |mu - U U^dag mu|^2
is non-decreasing in gamma; gamma is either supplied or picked by the
discrepancy principle, where r(gamma) meets the known error level.  The
bisection for it decides each step in Python floats from |U^dag mu|_i and
s_i^2, taken once, and falls back to the numpy residual only when the
float value is within round-off of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rule import FIRST_DERIVATIVE, ShiftRule, _finite
from .spectrum import FrequencySet
from .synthesis import LinearSystem, _coefficient_norm, _norm, _rule, _singular_value_condition, build_system

GAMMA_MIN = 1e-14  # the interval on which the discrepancy principle bisects gamma
GAMMA_MAX = 1e2


@dataclass(frozen=True)
class RegularizationConfig:
    """Regularization strength and the error level of the data.

    ``gamma=None`` means automatic selection by the discrepancy
    principle with target ``data_error``, searched on [GAMMA_MIN, GAMMA_MAX].
    """

    gamma: float | None = None
    data_error: float = 0.0

    def __post_init__(self):
        if self.gamma is not None and not (_finite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be a finite positive number, got {self.gamma!r}")
        if not (_finite(self.data_error) and self.data_error >= 0):
            raise ValueError(f"data_error must be finite and non-negative, got {self.data_error!r}")


@dataclass(frozen=True)
class RegularizedSolution:
    """Tikhonov output with the residual/norm pair that locates it on the L-curve."""

    coefficients: np.ndarray
    gamma: float
    residual: float
    norm: float
    max_imag_discarded: float


@dataclass(frozen=True)
class GammaSelection:
    """Result of the discrepancy search: chosen gamma plus diagnostics."""

    gamma: float
    residual: float
    target: float
    status: str  # "bracketed" | "target_below_min" | "target_above_max"


def tikhonov_solve(sys: LinearSystem, gamma: float) -> RegularizedSolution:
    """Minimize |E b - mu|^2 + gamma |b|^2 with the filter factors s / (s^2 + gamma).

    Works for singular and non-square systems (rows = distinct gaps,
    columns = phases).  The minimizer for a conjugate-row-paired system
    is real up to round-off; the real part is returned, and ``residual``
    is |E b - mu| for those real coefficients, the ones a rule stores.
    Raises IllPosedError when their sum b^2 overflows.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    U, s, Vh = sys.svd
    b = Vh.conj().T @ (s / (s**2 + gamma) * (U.conj().T @ sys.rhs))
    coeffs = b.real.copy()
    norm = _coefficient_norm(coeffs, "tikhonov_solve")
    return RegularizedSolution(
        coefficients=coeffs,
        gamma=float(gamma),
        residual=_norm(sys.matrix @ coeffs - sys.rhs),
        norm=norm,
        max_imag_discarded=float(np.abs(b.imag).max()),
    )


@np.errstate(over="ignore")  # an overflowing residual is inf; tikhonov_solve refuses its rule
def select_gamma_discrepancy(sys: LinearSystem, cfg: RegularizationConfig) -> GammaSelection:
    """Pick gamma so the residual matches the error target (discrepancy principle).

    The closed-form residual r(gamma) is non-decreasing, so up to 60
    bisection steps in log-gamma on [GAMMA_MIN, GAMMA_MAX] locate the
    target; the bisection stops early once the interval reaches float
    resolution, where its midpoint, and so gamma, can no longer move.
    When r(GAMMA_MIN) already reaches the target, GAMMA_MIN is returned
    with status "target_below_min"; when r(GAMMA_MAX) stays at or below
    it, GAMMA_MAX with status "target_above_max".

    Each bisection step compares the float sum
    |mu - U U^dag mu|^2 + sum_i (|U^dag mu|_i gamma / (s_i^2 + gamma))^2 with
    target^2.  When the two lie within max(1e-13, 8 m eps) (relative) of
    each other, the numpy ``residual`` decides instead.  Both forms
    agree far closer than that, so every step goes the way the numpy
    form alone would send it, and gamma is the same float.
    """
    target = float(cfg.data_error)
    U, s, _ = sys.svd
    beta = U.conj().T @ sys.rhs
    outside = _norm(sys.rhs - U @ beta)  # the part of mu outside range(E)
    s2 = s**2

    def residual(gamma):
        x = gamma / (s2 + gamma) * beta
        # np.linalg.norm(x) spelled out: the same dot products, without its dispatch
        return float(np.hypot(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)), outside))

    r_min = residual(GAMMA_MIN)
    if r_min >= target:
        return GammaSelection(GAMMA_MIN, r_min, target, "target_below_min")
    r_max = residual(GAMMA_MAX)
    if r_max <= target:
        return GammaSelection(GAMMA_MAX, r_max, target, "target_above_max")
    # The float form of r(gamma)^2 below and residual()^2 are sums of at most 2m + 1
    # non-negative terms, so each lies within about (2m + 30) ulp of the true value
    # (5 eps apart at most, measured up to m = 133): a float form further than
    # `margin` from target^2 decides as residual() would.  For a target inside
    # (1e-140, 1e140) no square that matters underflows or overflows.
    floats = 1e-140 < target < 1e140
    target2, margin = target * target, max(1e-13, 8 * len(s) * math.ulp(1.0))
    pairs = list(zip(np.abs(beta).tolist(), s2.tolist()))
    outside2 = outside**2

    def below(mid):
        """residual(exp(mid)) < target, from the float form unless it is too close to call."""
        if floats:
            g, r2 = math.exp(mid), outside2
            for a, t in pairs:
                c = a * (g / (t + g))
                r2 += c * c
            if abs(r2 - target2) > margin * target2:
                return r2 < target2
        return residual(np.exp(mid)) < target

    lo, hi = float(np.log(GAMMA_MIN)), float(np.log(GAMMA_MAX))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # every further step keeps 0.5 * (lo + hi) == mid
        if below(mid):
            lo = mid
        else:
            hi = mid
    gamma = float(np.exp(0.5 * (lo + hi)))
    return GammaSelection(gamma, residual(gamma), target, "bracketed")


def regularized_rule(
    freq: FrequencySet,
    phases,
    orders=FIRST_DERIVATIVE,
    cfg: RegularizationConfig | None = None,
) -> ShiftRule:
    """Shift rule through the Tikhonov path (no condition-number cap).

    Builds the possibly rank-deficient system, factors it once, selects
    gamma (given or by discrepancy), and stamps gamma, the residual of
    the real coefficients, and the solution norm into the diagnostics.
    Solution quality is expressed by the diagnostics, not by an error.
    """
    cfg = cfg or RegularizationConfig()
    sys = build_system(freq, phases, orders)

    selection = select_gamma_discrepancy(sys, cfg) if cfg.gamma is None else None
    sol = tikhonov_solve(sys, cfg.gamma if selection is None else selection.gamma)
    extra = {"gamma": sol.gamma, "solution_norm": sol.norm}
    if selection is not None:
        extra.update(gamma_selection=selection.status, discrepancy_target=selection.target)
    return _rule(sys, sol.coefficients, "tikhonov",
                 float(_singular_value_condition(sys.svd[1], max(sys.matrix.shape))),
                 sol.residual, sol.max_imag_discarded, **extra)
