"""Estimator variance, Chebyshev intervals, and phase optimization.

Under independent noise on each shifted evaluation, the derivative
estimator's variance is sum_x b_x^2 sigma_x^2.  With equal per-point
variances the natural objective for choosing phases is the coefficient
square-norm sum_x b_x^2; this module evaluates its stationarity
residual by finite differences and minimizes it numerically with a
multistart local search on its exact gradient and Hessian (one LU
factorization of the design matrix per phase vector).  The determinant
form of the stationarity conditions is a cross-check in
``shiftrules.checks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectrum import FrequencySet, gap_generator
from .synthesis import (
    FIRST_DERIVATIVE,
    IllPosedError,
    Orders,
    ShiftRule,
    _capped_solve,
    _normalize_orders,
    build_system,
    condition_number,
    synthesize_rule,
)


@dataclass(frozen=True)
class VarianceReport:
    """Variance of the shift-rule estimator plus the square-norm objective."""

    variance: float
    per_point: tuple[float, ...]
    square_norm: float
    eta: float | None = None
    nu: float | None = None


@dataclass(frozen=True)
class OptimizationConfig:
    """Settings for the square-norm phase search.

    The default box spans one period of the objective: 2*pi over the
    common generator of the gap values when one exists, else 2*pi over
    the smallest frequency.  ``tol`` is the stationarity certification
    tolerance, measured with the finite-difference residual.
    """

    max_iters: int = 300
    tol: float = 1e-9
    multistarts: int = 8
    seed: int = 0
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1 or self.multistarts < 0:
            raise ValueError("max_iters >= 1 and multistarts >= 0 required")


def variance_of_estimate(rule: ShiftRule, per_point_variance) -> VarianceReport:
    """Sum of b_x^2 * sigma_x^2, plus the equal-variance square-norm."""
    b = np.asarray(rule.coefficients, dtype=float)
    sig2 = np.asarray(per_point_variance, dtype=float)
    if sig2.ndim == 0:
        sig2 = np.full(len(b), float(sig2))
    if len(sig2) != len(b):
        raise ValueError("per-point variances must match the number of phases")
    if (sig2 < 0).any():
        raise ValueError("variances must be non-negative")
    return VarianceReport(
        variance=float(b**2 @ sig2),
        per_point=tuple(float(s) for s in sig2),
        square_norm=float(b @ b),
    )


def confidence_interval(report: VarianceReport, eta: float) -> float:
    """Chebyshev half-width nu = sqrt(variance / eta) at miss probability eta.

    The interval [estimate - nu, estimate + nu] covers the true value
    with probability at least 1 - eta; for Gaussian noise the actual
    coverage is higher (Chebyshev is distribution-free and conservative).
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    return float(np.sqrt(report.variance / eta))


def _fd_stationarity(solve, phases: np.ndarray, step: float) -> np.ndarray:
    # S_y = b . db/dphi_y with each derivative a central difference of re-solves
    b = solve(phases)
    out = np.zeros(len(phases))
    for y in range(len(phases)):
        h = step * max(1.0, abs(phases[y]))
        up, dn = phases.copy(), phases.copy()
        up[y] += h
        dn[y] -= h
        out[y] = float(b @ ((solve(up) - solve(dn)) / (2 * h)))
    return out


def stationarity_residual(
    freq: FrequencySet,
    phases,
    orders: Orders = FIRST_DERIVATIVE,
    step: float = 1e-6,
) -> np.ndarray:
    """The gradient-type residual S_y = sum_x b_x * d b_x / d phi_y.

    All components vanish exactly at a stationary point of the
    square-norm objective.  The derivatives are central differences of
    condition-capped re-solves; the realness assertion is skipped, as
    round-off imaginaries grow with conditioning.
    """
    orders = _normalize_orders(orders)

    def solve(ph):
        sys = build_system(freq, ph, orders)
        return _capped_solve(sys.matrix, sys.rhs)[0].real

    return _fd_stationarity(solve, np.asarray(phases, dtype=float), step)


class _PhasePoint:
    """The square-norm objective at one phase vector, from one LU of E.

    ``_evaluate_point`` builds E, rejects it (returns None) when its
    condition number exceeds the cap, and factors it once with LAPACK
    getrf; ``solve`` applies that LU (getrs).  b and ``value`` = sum b^2
    are eager; ``gradient`` and ``hessian`` are lazy: the first access to
    ``gradient`` solves E A = U for the phase-derivative columns u_y
    (db/dphi_y = -b_y E^{-1} u_y), the first access to ``hessian``
    solves for du_y/dphi_y and differentiates once more; both reuse the
    factorization and are computed at most once.
    """

    def __init__(self, sys, solve):
        self._sys, self._solve = sys, solve
        self.b = solve(sys.rhs).real
        self.value = float(self.b @ self.b)

    @cached_property
    def _derivatives(self):
        sys = self._sys
        A = self._solve((1j * sys.row_gaps)[:, None] * sys.matrix)   # A[:, y] = E^{-1} u_y
        D = -self.b[None, :] * A                                     # D[:, y] = db/dphi_y
        return A, D

    @cached_property
    def gradient(self) -> np.ndarray:
        return 2.0 * (self.b @ self._derivatives[1].real)

    @cached_property
    def hessian(self) -> np.ndarray:
        sys, b = self._sys, self.b
        A, D = self._derivatives
        Bw = self._solve(((1j * sys.row_gaps) ** 2)[:, None] * sys.matrix)  # E^{-1} du_y/dphi_y
        m = len(b)
        H = np.empty((m, m))
        Dr = D.real
        for y in range(m):
            for z in range(m):
                if y == z:
                    h2 = -D[y, y] * A[:, y] + b[y] * A[y, y] * A[:, y] - b[y] * Bw[:, y]
                else:
                    h2 = -D[y, z] * A[:, y] + b[y] * A[z, y] * A[:, z]
                H[y, z] = 2.0 * float(Dr[:, y] @ Dr[:, z] + b @ h2.real)
        return 0.5 * (H + H.T)


def _evaluate_point(freq, phases, orders, condition_cap=1e8) -> _PhasePoint | None:
    """The objective at ``phases`` (see _PhasePoint); None when ill-posed."""
    from scipy.linalg import get_lapack_funcs  # lazily: keeps scipy off the CLI import path

    sys = build_system(freq, phases, orders)
    cond = condition_number(sys.matrix)
    if not np.isfinite(cond) or cond > condition_cap:
        return None
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (sys.matrix,))
    lu, piv, _ = getrf(sys.matrix)
    return _PhasePoint(sys, lambda rhs: getrs(lu, piv, rhs)[0])


def _newton_polish(freq, phases, orders, lo, hi, max_iters=80):
    """Damped Newton with the exact Hessian to sharpen stationarity.

    The Hessian is built only at points a step is taken from: the start
    and each accepted trial that does not end the polish.
    """
    ph = np.asarray(phases, dtype=float).copy()
    cur = _evaluate_point(freq, ph, orders)
    if cur is None:
        return ph
    m = len(ph)
    lam = 1e-10
    for _ in range(max_iters):
        g = cur.gradient
        if np.abs(g).max() < 1e-12:
            break
        H = cur.hessian
        moved = False
        for _ in range(50):
            try:
                step = np.linalg.solve(H + lam * np.eye(m), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = ph + step
            if cand.min() < lo or cand.max() > hi:
                lam *= 10
                continue
            nxt = _evaluate_point(freq, cand, orders)
            if nxt is not None and (
                np.abs(nxt.gradient).max() < np.abs(g).max() or nxt.value < cur.value - 1e-14
            ):
                ph, cur = cand, nxt
                lam = max(lam * 0.25, 1e-12)
                moved = True
                break
            lam *= 10
        if not moved:
            break
    return ph


def _paired_start(rng, m, width):
    # Symmetric shift pairs (-a, +a modulo the box width) tend to lie in
    # gentle basins of the square-norm; one leftover phase sits mid-box.
    ph = []
    for _ in range((m - 1) // 2):
        a = float(rng.uniform(0.05, 0.95)) * width / 2
        ph.extend([-a, a - width])
    ph.append(-width / 2 * float(rng.uniform(0.8, 1.2)))
    return np.asarray(ph)


def _pairs_to_phases(mags, width):
    ph = []
    for a in mags:
        ph.extend([-a, a - width])
    ph.append(-width / 2)
    return np.asarray(ph)


def _symmetric_start(freq, orders, width, rng):
    """Minimize over the negation-symmetric phase family (pairs +-a).

    The family {(-a_1, a_1 - T, ..., -T/2)} is the fixed-point set of the
    phase-negation symmetry of the objective, so a minimum over the
    magnitudes is a stationary point of the full problem -- and these
    symmetric basins are numerically gentle, unlike the ridge-hugging
    asymmetric minima.
    """
    from scipy.optimize import minimize

    m = freq.m
    k = (m - 1) // 2
    if k < 1:
        return None

    def objective(mags):
        if np.any(mags <= 1e-3) or np.any(mags >= width / 2 - 1e-3):
            return 1e12
        if len(mags) > 1 and np.min(np.diff(np.sort(mags))) < 1e-6:
            return 1e12
        point = _evaluate_point(freq, _pairs_to_phases(mags, width), orders)
        return 1e12 if point is None else point.value

    seeds = [width / 2 * (np.arange(1, k + 1) / (k + 1))]
    seeds += [np.sort(rng.uniform(0.05, 0.95, k)) * width / 2 for _ in range(3)]
    best_val, best = np.inf, None
    for s0 in seeds:
        res = minimize(objective, s0, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14, maxiter=2000))
        if res.fun < best_val:
            best_val, best = res.fun, res.x
    if best is None or best_val >= 1e12:
        return None
    return _pairs_to_phases(best, width)


def optimize_shifts(
    freq: FrequencySet,
    phi0,
    cfg: OptimizationConfig | None = None,
    orders: Orders = FIRST_DERIVATIVE,
) -> tuple[np.ndarray, ShiftRule]:
    """Minimize the coefficient square-norm over phases in a box.

    Runs a gradient local search (exact analytic gradient of the solve)
    from phi0 plus ``multistarts`` random and symmetric-pair starts,
    polishes each candidate with exact-Hessian damped Newton steps, and
    certifies candidates by the finite-difference stationarity residual.
    Among certified candidates the lowest objective wins; the returned
    objective never exceeds the one at phi0 (plus tolerance).  When no
    candidate certifies, the lowest objective among all of them wins.
    The rule's diagnostics say which: ``certified`` (bool) and
    ``stationarity``, the winner's max residual |S_y|.

    Raises IllPosedError when phi0 and every start are ill-posed.
    """
    from scipy.optimize import minimize

    cfg = cfg or OptimizationConfig()
    orders = _normalize_orders(orders)
    phi0 = np.asarray(phi0, dtype=float)
    m = len(phi0)

    generator = gap_generator(freq.unique_frequencies)
    period = 2 * np.pi / generator if generator is not None else None
    if cfg.bounds is not None:
        lo, hi = cfg.bounds
        wrap = None  # custom box: keep the polish inside it
    else:
        width = period if period is not None else 2 * np.pi / min(freq.unique_frequencies)
        lo, hi = -width, 0.0
        # with a generator the objective is exactly periodic over the box,
        # so the polish may run unconstrained and wrap back afterwards
        wrap = period
    bounds = [(lo, hi)] * m
    rng = np.random.default_rng(cfg.seed)

    def scipy_objective(ph):
        point = _evaluate_point(freq, ph, orders)
        if point is None:
            return 1e12, np.zeros(m)
        return point.value, point.gradient

    def polish(ph):
        if wrap is None:
            return _newton_polish(freq, ph, orders, lo, hi)
        ph = _newton_polish(freq, ph, orders, -np.inf, np.inf)
        return -np.mod(-ph, wrap)

    # the symmetric-descent start counts against the multistart budget
    starts = [phi0]
    extra = cfg.multistarts
    if extra > 0:
        sym = _symmetric_start(freq, orders, hi - lo, rng)
        if sym is not None:
            starts.append(sym)
            extra -= 1
    n_paired = extra // 2
    starts += [_paired_start(rng, m, hi - lo) for _ in range(n_paired)]
    starts += [
        rng.uniform(lo + 1e-3, hi - 1e-3, m)
        for _ in range(extra - n_paired)
    ]
    points = [_evaluate_point(freq, st, orders) for st in starts]
    feasible = [st for st, pt in zip(starts, points) if pt is not None]
    if not feasible:
        raise IllPosedError("all optimization starts are ill-posed")
    f0 = np.inf if points[0] is None else points[0].value

    def try_rule(ph):
        try:
            return synthesize_rule(freq, ph, orders)
        except (IllPosedError, ValueError):
            return None

    def certify(ph):
        try:
            return float(np.abs(stationarity_residual(freq, ph, orders=orders)).max())
        except IllPosedError:
            return np.inf

    candidates: list[tuple[float, float, np.ndarray, ShiftRule]] = []
    if np.isfinite(f0):
        rule0 = try_rule(phi0)
        if rule0 is not None:
            candidates.append((f0, certify(phi0), phi0, rule0))
    for st in feasible:
        ph = st
        for _ in range(3):  # descent + polish rounds
            res = minimize(
                scipy_objective,
                ph,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options=dict(maxiter=cfg.max_iters * 10, ftol=1e-18, gtol=1e-12, maxls=80),
            )
            ph = polish(res.x)
            point = _evaluate_point(freq, ph, orders)
            if point is not None and np.abs(point.gradient).max() < 1e-10:
                break
        if point is None:
            continue
        rule = try_rule(ph)
        if rule is None:
            continue
        candidates.append((point.value, certify(ph), ph, rule))

    if not candidates:
        raise IllPosedError("no solvable candidate found")
    certified = [c for c in candidates if c[1] <= cfg.tol and c[0] <= f0 + cfg.tol]
    pool = certified if certified else candidates
    _, stationarity, best_ph, best_rule = min(pool, key=lambda c: c[0])
    best_rule.diagnostics.update(certified=bool(certified), stationarity=stationarity)
    return np.asarray(best_ph), best_rule
