"""Estimator variance, Chebyshev intervals, and phase optimization.

Under independent noise on each shifted evaluation, the derivative
estimator's variance is sum_x b_x^2 sigma_x^2.  With equal per-point
variances the natural objective for choosing phases is the coefficient
square-norm sum_x b_x^2; this module evaluates its stationarity
conditions (finite-difference and determinant forms) and minimizes it
numerically with a multistart local search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularization import tikhonov_solve
from .spectrum import FrequencySet, gap_generator
from .synthesis import (
    CONDITION_CAP,
    FIRST_DERIVATIVE,
    IllPosedError,
    Orders,
    ShiftRule,
    _normalize_orders,
    build_system,
    condition_number,
    solve_direct,
)

DETERMINANT_SIZE_CAP = 7


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
    tol: float = 1e-7
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


def _solve_coefficients(freq: FrequencySet, phases, orders: Orders) -> np.ndarray:
    # Lenient solve for derivative probing: condition-capped but without
    # the realness assertion (round-off imaginaries grow with conditioning).
    sys = build_system(freq, phases, orders)
    cond = condition_number(sys.matrix)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise IllPosedError(f"ill-posed at these phases (condition {cond:.3g})",
                            condition_number=cond)
    return np.linalg.solve(sys.matrix, sys.rhs).real


def stationarity_residual(
    freq: FrequencySet,
    phases,
    method: str = "finite_difference",
    orders: Orders = FIRST_DERIVATIVE,
    step: float = 1e-6,
) -> np.ndarray:
    """The gradient-type residual S_y = sum_x b_x * d b_x / d phi_y.

    All components vanish exactly at a stationary point of the
    square-norm objective.  ``finite_difference`` re-solves the system at
    shifted phases; ``determinant`` evaluates the equivalent determinant
    identity (first-derivative target only, m <= 7) and returns the
    normalized side difference of that identity.
    """
    phases = np.asarray(phases, dtype=float)
    m = len(phases)
    orders = _normalize_orders(orders)

    if method == "finite_difference":
        b = _solve_coefficients(freq, phases, orders)
        out = np.zeros(m)
        for y in range(m):
            h = step * max(1.0, abs(phases[y]))
            up, dn = phases.copy(), phases.copy()
            up[y] += h
            dn[y] -= h
            db = (_solve_coefficients(freq, up, orders) - _solve_coefficients(freq, dn, orders)) / (2 * h)
            out[y] = float(b @ db)
        return out

    if method == "determinant":
        if orders != FIRST_DERIVATIVE:
            raise ValueError("determinant form is defined for the first-derivative target")
        if m > DETERMINANT_SIZE_CAP:
            raise ValueError(f"determinant form limited to m <= {DETERMINANT_SIZE_CAP}")
        sys = build_system(freq, phases, orders)
        E, mu, gaps = sys.matrix, sys.rhs, sys.row_gaps
        D = np.linalg.det(E)
        if D == 0:
            raise IllPosedError("singular system in determinant stationarity form")
        Dx = np.empty(m, dtype=complex)
        for x in range(m):
            M = E.copy()
            M[:, x] = mu
            Dx[x] = np.linalg.det(M)
        out = np.zeros(m)
        for y in range(m):
            uy = 1j * gaps * np.exp(1j * gaps * phases[y])
            Ey = E.copy()
            Ey[:, y] = uy
            lhs = 0j
            for x in range(m):
                if x == y:
                    continue  # the x = y cross determinant vanishes identically
                M = E.copy()
                M[:, y] = uy
                M[:, x] = mu
                lhs += Dx[x] * np.linalg.det(M)
            rhs = np.linalg.det(Ey) / D * np.sum(Dx**2)
            out[y] = ((lhs - rhs) / D**2).real
        return out

    raise ValueError(f"unknown method {method!r}")


def _objective_state(freq, phases, orders, condition_cap=1e8, with_hessian=False):
    """(sum b^2, exact gradient, exact Hessian or None); None when ill-posed.

    One LU factorization per call; the gradient uses db/dphi_y =
    -b_y E^{-1} u_y with u_y the phase-derivative of column y, and the
    Hessian differentiates that expression once more.
    """
    import scipy.linalg  # lazily: keeps scipy off the CLI import path

    sys = build_system(freq, phases, orders)
    E = sys.matrix
    s = np.linalg.svd(E, compute_uv=False)
    if s[-1] <= 0 or not np.isfinite(s[0]) or s[0] / s[-1] > condition_cap:
        return None
    lu = scipy.linalg.lu_factor(E)
    b = scipy.linalg.lu_solve(lu, sys.rhs).real
    U = (1j * sys.row_gaps)[:, None] * E
    A = scipy.linalg.lu_solve(lu, U)       # A[:, y] = E^{-1} u_y
    D = -b[None, :] * A                    # D[:, y] = db/dphi_y
    f = float(b @ b)
    grad = 2.0 * (b @ D.real)
    if not with_hessian:
        return f, grad, None
    W = ((1j * sys.row_gaps) ** 2)[:, None] * E
    Bw = scipy.linalg.lu_solve(lu, W)      # Bw[:, y] = E^{-1} du_y/dphi_y
    m = len(phases)
    H = np.empty((m, m))
    Dr = D.real
    for y in range(m):
        for z in range(m):
            if y == z:
                h2 = -D[y, y] * A[:, y] + b[y] * A[y, y] * A[:, y] - b[y] * Bw[:, y]
            else:
                h2 = -D[y, z] * A[:, y] + b[y] * A[z, y] * A[:, z]
            H[y, z] = 2.0 * float(Dr[:, y] @ Dr[:, z] + b @ h2.real)
    return f, grad, 0.5 * (H + H.T)


def _newton_polish(freq, phases, orders, lo, hi, max_iters=80):
    """Damped Newton with the exact Hessian to sharpen stationarity."""
    ph = np.asarray(phases, dtype=float).copy()
    state = _objective_state(freq, ph, orders, with_hessian=True)
    if state is None:
        return ph
    f, g, H = state
    m = len(ph)
    lam = 1e-10
    for _ in range(max_iters):
        if np.abs(g).max() < 1e-12:
            break
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
            nxt = _objective_state(freq, cand, orders, with_hessian=True)
            if nxt is not None and (
                np.abs(nxt[1]).max() < np.abs(g).max() or nxt[0] < f - 1e-14
            ):
                ph, (f, g, H) = cand, nxt
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
        state = _objective_state(freq, _pairs_to_phases(mags, width), orders)
        return 1e12 if state is None else state[0]

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
    objective never exceeds the one at phi0 (plus tolerance).

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
        state = _objective_state(freq, ph, orders)
        if state is None:
            return 1e12, np.zeros(m)
        return state[0], state[1]

    def polish(ph):
        if wrap is None:
            return _newton_polish(freq, ph, orders, lo, hi)
        ph = _newton_polish(freq, ph, orders, -np.inf, np.inf)
        return -np.mod(-ph, wrap)

    def objective(ph):
        state = _objective_state(freq, ph, orders)
        return None if state is None else state[0]

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
    feasible = [st for st in starts if objective(st) is not None]
    if not feasible:
        raise IllPosedError("all optimization starts are ill-posed")
    f0 = objective(phi0)
    if f0 is None:
        f0 = np.inf

    def try_rule(ph):
        try:
            return solve_direct(build_system(freq, ph, orders), orders=orders)
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
            state = _objective_state(freq, ph, orders)
            if state is not None and np.abs(state[1]).max() < 1e-10:
                break
        f = objective(ph)
        if f is None:
            continue
        rule = try_rule(ph)
        if rule is None:
            continue
        candidates.append((f, certify(ph), ph, rule))

    if not candidates:
        raise IllPosedError("no solvable candidate found")
    certified = [c for c in candidates if c[1] <= cfg.tol and c[0] <= f0 + cfg.tol]
    pool = certified if certified else candidates
    _, _, best_ph, best_rule = min(pool, key=lambda c: c[0])
    return np.asarray(best_ph), best_rule


def regularized_stationarity_residual(
    freq: FrequencySet,
    phases,
    gamma: float,
    method: str = "finite_difference",
    orders: Orders = FIRST_DERIVATIVE,
    step: float = 1e-6,
) -> np.ndarray:
    """Stationarity residual of the Tikhonov coefficients' square-norm.

    ``finite_difference`` differentiates the regularized solve itself;
    ``explicit`` expands the derivative with the matrix identity
    d(Y^{-1}) = -Y^{-1} dY Y^{-1} (m <= 7) as an independent cross-check.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    phases = np.asarray(phases, dtype=float)
    m = len(phases)
    orders = _normalize_orders(orders)

    def coeffs(ph):
        return tikhonov_solve(build_system(freq, ph, orders), gamma).coefficients

    if method == "finite_difference":
        b = coeffs(phases)
        out = np.zeros(m)
        for y in range(m):
            h = step * max(1.0, abs(phases[y]))
            up, dn = phases.copy(), phases.copy()
            up[y] += h
            dn[y] -= h
            out[y] = float(b @ ((coeffs(up) - coeffs(dn)) / (2 * h)))
        return out

    if method == "explicit":
        if m > DETERMINANT_SIZE_CAP:
            raise ValueError(f"explicit form limited to m <= {DETERMINANT_SIZE_CAP}")
        sys = build_system(freq, phases, orders)
        E, mu, gaps = sys.matrix, sys.rhs, sys.row_gaps
        M = gamma * np.eye(m) + E.conj().T @ E
        b = np.linalg.solve(M, E.conj().T @ mu)
        out = np.zeros(m)
        for y in range(m):
            uy = 1j * gaps * np.exp(1j * gaps * phases[y])
            e_y = np.zeros(m)
            e_y[y] = 1.0
            dEdag_mu = e_y * (uy.conj() @ mu)
            dM = np.outer(e_y, uy.conj() @ E) + np.outer(E.conj().T @ uy, e_y)
            db = np.linalg.solve(M, dEdag_mu - dM @ b)
            out[y] = float(b.real @ db.real)
        return out

    raise ValueError(f"unknown method {method!r}")
