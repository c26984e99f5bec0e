"""Tikhonov-regularized shift rules for ill-posed spectra.

Coincident or nearly coincident gaps make the design system singular or
hopelessly ill-conditioned, so the plain inverse is replaced by the
regularized one (gamma*I + E^dag E)^{-1} E^dag, trading a controlled bias
for stability.  The regularization strength is either supplied or picked
by the discrepancy principle: choose gamma so the residual matches the
known data-error level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import FrequencySet
from .synthesis import (
    FIRST_DERIVATIVE,
    IllPosedError,
    LinearSystem,
    ShiftRule,
    _normalize_orders,
    build_system,
    condition_number,
)


@dataclass(frozen=True)
class RegularizationConfig:
    """Regularization strength, error levels, and the gamma search grid.

    ``gamma=None`` means automatic selection by the discrepancy
    principle with target ``data_error + operator_error``.
    """

    gamma: float | None = None
    data_error: float = 0.0
    operator_error: float = 0.0
    grid_min: float = 1e-14
    grid_max: float = 1e2
    grid_points: int = 33

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.data_error < 0 or self.operator_error < 0:
            raise ValueError("error levels must be non-negative")
        if not (0 < self.grid_min < self.grid_max):
            raise ValueError("grid must satisfy 0 < min < max")
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.grid_min, self.grid_max, self.grid_points)


@dataclass(frozen=True)
class RegularizedSolution:
    """Tikhonov output with the residual/norm pair that locates it on the L-curve."""

    coefficients: np.ndarray
    gamma: float
    residual: float
    norm: float
    max_imag_discarded: float
    target: float | None = None


@dataclass(frozen=True)
class GammaSelection:
    """Result of the discrepancy search: chosen gamma plus diagnostics."""

    gamma: float
    residual: float
    target: float
    status: str  # "bracketed" | "target_below_min" | "target_above_max"


def _regularized_coefficients(sys: LinearSystem, gamma: float) -> np.ndarray:
    import scipy.linalg  # lazily: only the Tikhonov path needs scipy

    E = sys.matrix
    cols = E.shape[1]
    A = gamma * np.eye(cols) + E.conj().T @ E
    rhs = E.conj().T @ sys.rhs
    try:
        return scipy.linalg.solve(A, rhs, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        # the normal equations square cond(E); at a tiny gamma the
        # Cholesky factorization can meet a non-positive pivot
        raise IllPosedError(
            f"Tikhonov normal equations are numerically singular at gamma = {gamma:.3g} ({exc})"
        ) from exc


def tikhonov_solve(sys: LinearSystem, gamma: float) -> RegularizedSolution:
    """Solve min |E b - mu|^2 + gamma |b|^2 via the normal equations.

    Works for singular and non-square systems (rows = distinct gaps,
    columns = phases); gamma > 0 keeps the symmetric solve positive
    definite in exact arithmetic.  The solution of a conjugate-row-paired
    system is real up to round-off; the real part is returned.  Raises
    IllPosedError when the solve is numerically singular at this gamma.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    b = _regularized_coefficients(sys, gamma)
    coeffs = b.real.copy()
    return RegularizedSolution(
        coefficients=coeffs,
        gamma=float(gamma),
        residual=float(np.linalg.norm(sys.matrix @ b - sys.rhs)),
        norm=float(np.linalg.norm(coeffs)),
        max_imag_discarded=float(np.abs(b.imag).max()),
    )


def select_gamma_discrepancy(sys: LinearSystem, cfg: RegularizationConfig) -> GammaSelection:
    """Pick gamma so the residual matches the error target (mismatch rule).

    The residual is non-decreasing in gamma, so the grid point pair that
    brackets the target is refined by bisection in log-gamma.  When even
    the smallest grid gamma already overshoots the target, the grid
    minimum is returned with status "target_below_min".
    """
    target = cfg.data_error + cfg.operator_error
    grid = cfg.grid()
    residuals = np.array([tikhonov_solve(sys, g).residual for g in grid])

    if residuals[0] >= target:
        return GammaSelection(
            gamma=float(grid[0]),
            residual=float(residuals[0]),
            target=target,
            status="target_below_min",
        )
    if residuals[-1] <= target:
        return GammaSelection(
            gamma=float(grid[-1]),
            residual=float(residuals[-1]),
            target=target,
            status="target_above_max",
        )
    i = int(np.searchsorted(residuals, target, side="left"))
    lo, hi = np.log(grid[i - 1]), np.log(grid[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tikhonov_solve(sys, float(np.exp(mid))).residual < target:
            lo = mid
        else:
            hi = mid
    gamma = float(np.exp(0.5 * (lo + hi)))
    return GammaSelection(
        gamma=gamma,
        residual=tikhonov_solve(sys, gamma).residual,
        target=target,
        status="bracketed",
    )


def regularized_rule(
    freq: FrequencySet,
    phases,
    orders=FIRST_DERIVATIVE,
    cfg: RegularizationConfig | None = None,
) -> ShiftRule:
    """Shift rule through the Tikhonov path (no condition-number cap).

    Builds the possibly rank-deficient system, selects gamma (given or
    by discrepancy), and stamps gamma, residual, and solution norm into
    the diagnostics.  Solution quality is expressed by the diagnostics;
    the only failure is an IllPosedError when the normal equations are
    numerically singular at the selected gamma.
    """
    cfg = cfg or RegularizationConfig()
    orders = _normalize_orders(orders)
    sys = build_system(freq, phases, orders)

    selection: GammaSelection | None = None
    if cfg.gamma is not None:
        gamma = cfg.gamma
    else:
        selection = select_gamma_discrepancy(sys, cfg)
        gamma = selection.gamma

    sol = tikhonov_solve(sys, gamma)
    diagnostics = {
        "method": "tikhonov",
        "condition_number": condition_number(sys.matrix),
        "residual": sol.residual,
        "max_imag_discarded": sol.max_imag_discarded,
        "gamma": sol.gamma,
        "solution_norm": sol.norm,
    }
    if selection is not None:
        diagnostics["gamma_selection"] = selection.status
        diagnostics["discrepancy_target"] = selection.target
    return ShiftRule(
        phases=sys.phases.copy(),
        coefficients=sol.coefficients,
        orders=orders,
        frequencies=tuple(freq.unique_frequencies),
        diagnostics=diagnostics,
    )
