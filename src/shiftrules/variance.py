"""Estimator variance, Chebyshev intervals, and phase optimization.

Under independent noise on each shifted evaluation, the derivative
estimator's variance is sum_x b_x^2 sigma_x^2.  With equal per-point
variances the natural objective for choosing phases is the coefficient
square-norm sum_x b_x^2.  The optimizer uses the exact gradient and
Hessian of the solve, on the negation-symmetric phases (0, -x, +x)
first: by symmetric criticality (Palais, Comm. Math. Phys. 69, 1979) a
critical point there is one of the full problem.  The finite-difference
and determinant forms of the stationarity conditions are cross-checks
in ``tests/paper_forms.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .spectrum import FrequencySet, gap_generator
from .synthesis import (
    CONDITION_CAP,
    FIRST_DERIVATIVE,
    IllPosedError,
    Orders,
    ShiftRule,
    _check_non_negative_int,
    _finite,
    _normalize_orders,
    build_reduced_system,
    build_system,
    condition_number,
    reduced_parity,
    synthesize_rule,
)

SCREEN_SIZE = 4096  # seeded points of the symmetric family ranked before any Newton step
MAX_NEWTON_STEPS = 300  # cap on the Newton steps of one descent


@dataclass(frozen=True)
class VarianceReport:
    """Variance of the shift-rule estimator plus the square-norm objective."""

    variance: float
    square_norm: float


@dataclass(frozen=True)
class OptimizationConfig:
    """Settings for the square-norm phase search.

    ``multistarts`` is the number of Newton starts taken from the best
    points of the seeded screen of the symmetric family (0 searches from
    phi0 alone).  A candidate is certified when half its analytic
    gradient, max_y |S_y|, is at most ``tol``.
    """

    tol: float = 1e-9
    multistarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (_finite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")
        for name in ("multistarts", "seed"):
            _check_non_negative_int(name, getattr(self, name))


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
    return VarianceReport(variance=float(b**2 @ sig2), square_norm=rule.square_norm)


def confidence_interval(report: VarianceReport, eta: float) -> float:
    """Chebyshev half-width nu = sqrt(variance / eta) at miss probability eta.

    The interval [estimate - nu, estimate + nu] covers the true value
    with probability at least 1 - eta; for Gaussian noise the actual
    coverage is higher (Chebyshev is distribution-free and conservative).
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    return float(np.sqrt(report.variance / eta))


class _Point:
    """sum u^2 for u = Re(M^{-1} t), with its exact gradient and Hessian.

    Variable k moves only column ``cols[k]`` of M; ``dM`` and ``ddM`` hold
    the first and second derivatives of those columns.  One solve of
    [t | dM | ddM] gives u, A = M^{-1} dM and B = M^{-1} ddM, so
    du/dv_k = -u[cols[k]] A[:, k] (column k of D) and, differentiating
    once more, d2u/dv_k dv_l = -A[:, l] D[cols[l], k] - A[:, k] D[cols[k], l]
    - [k = l] u[cols[k]] B[:, k].
    """

    def __init__(self, M, t, dM, ddM, cols):
        k = len(cols)
        sol = np.linalg.solve(M, np.column_stack([t, dM, ddM]))
        self.u = sol[:, 0].real
        self.value = float(self.u @ self.u)
        self._A, self._B, self._cols = sol[:, 1:k + 1], sol[:, k + 1:], cols
        self._D = -self.u[cols] * self._A
        self.gradient = 2.0 * (self.u @ self._D.real)

    @cached_property
    def hessian(self) -> np.ndarray:
        u, D, cols = self.u, self._D, self._cols
        aP = (u @ self._A)[:, None] * D[cols]
        H = D.real.T @ D.real - (aP + aP.T).real - np.diag(u[cols] * (u @ self._B).real)
        return 2.0 * H

    @property
    def finite(self) -> bool:
        """Value, gradient and Hessian are finite: huge coefficients overflow them."""
        return bool(np.isfinite(self.value) and np.isfinite(self.gradient).all()
                    and np.isfinite(self.hessian).all())


def _evaluate_point(freq, phases, orders) -> _Point | None:
    """Sum b^2 at ``phases`` (u = b, one variable per phase); None past CONDITION_CAP."""
    sys = build_system(freq, phases, orders)
    if not condition_number(sys.matrix) <= CONDITION_CAP:
        return None
    ig = (1j * sys.row_gaps)[:, None]
    U = ig * sys.matrix  # dE[:, y]/dphi_y
    return _Point(sys.matrix, sys.rhs, U, ig * U, np.arange(len(sys.phases)))


def _evaluate_reduced(freq, x, orders) -> _Point | None:
    """Sum b^2 at the lifted phases (0, -x, +x) from the real block; None past CONDITION_CAP on cond(E).

    d/dx_k 2 sin(w x_k) = w * 2 cos(w x_k), an entry of the cos block, and
    d/dx_k 2 cos(w x_k) = -w * 2 sin(w x_k); second derivatives are -w^2 times the block.
    """
    rs = build_reduced_system(freq, x, orders)
    if not rs.condition_number() <= CONDITION_CAP:
        return None
    w = np.asarray(freq.unique_frequencies)
    if rs.odd:
        rows, cols, dM = w, np.arange(len(w)), w[:, None] * rs.cos[1:, 1:]
    else:  # the constant first row and column do not move
        rows, cols = np.concatenate([[0.0], w]), np.arange(1, len(w) + 1)
        dM = -rows[:, None] * np.vstack([np.zeros(len(w)), rs.sin])
    return _Point(rs.matrix, rs.rhs, dM, -(rows**2)[:, None] * rs.matrix[:, cols], cols)


def _screen(freq, orders, width, rng) -> np.ndarray:
    """The SCREEN_SIZE seeded x in (0, width/2)^R whose sum b^2 is finite, ascending.

    Sum b^2 comes from one batched solve, without the cap.  An exactly
    singular point fails that solve; then each point is solved alone.
    Singular points and points whose sum b^2 overflows are left out.
    """
    xs = rng.uniform(0.0, width / 2, (SCREEN_SIZE, len(freq.unique_frequencies)))
    rs = build_reduced_system(freq, xs, orders)
    try:
        u = np.linalg.solve(rs.matrix, np.broadcast_to(rs.rhs[:, None], rs.matrix.shape[:-1] + (1,)))
    except np.linalg.LinAlgError:
        values = np.array([_square_norm_or_inf(M, rs.rhs) for M in rs.matrix])
    else:
        values = np.einsum("ij,ij->i", u[..., 0], u[..., 0])
    order = np.argsort(values, kind="stable")
    return xs[order[np.isfinite(values[order])]]


def _square_norm_or_inf(M, t) -> float:
    try:
        u = np.linalg.solve(M, t)
    except np.linalg.LinAlgError:
        return np.inf
    return float(u @ u)


def _newton(evaluate, freq, orders, v):
    """Damped exact Newton from v: (v, point, accepted steps, evaluations); None if v is ill-posed.

    lam grows until H + lam*I gives an accepted trial: one that lowers the
    objective, or keeps it within round-off and lowers max |gradient|
    (the quadratic end game), so the descent never climbs to a saddle.
    A point whose sum b^2, gradient or Hessian overflows is ill-posed as
    a start and rejected as a trial, like a point past the cap.
    ``evaluations`` counts every call of ``evaluate``, rejected trials included.
    """
    if (cur := evaluate(freq, v, orders)) is None or not cur.finite:
        return None
    lam, steps, evaluations = 1e-10, 0, 1
    for _ in range(MAX_NEWTON_STEPS):
        g = np.abs(cur.gradient).max()
        if g < 1e-12:
            break
        slack = 1e-14 * max(cur.value, 1.0)
        for _ in range(50):
            try:
                step = np.linalg.solve(cur.hessian + lam * np.eye(len(v)), -cur.gradient)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            nxt = evaluate(freq, v + step, orders)
            evaluations += 1
            lower = nxt is not None and (nxt.value < cur.value - slack or (
                nxt.value <= cur.value + slack and np.abs(nxt.gradient).max() < g))
            if lower and nxt.finite:  # finite builds the Hessian, which the next step needs anyway
                v, cur, lam, steps = v + step, nxt, max(lam * 0.25, 1e-12), steps + 1
                break
            lam *= 10
        else:
            break
    return v, cur, steps, evaluations


def _candidates(freq, orders, period, descents) -> list:
    """(sum b^2, max |S_y|, phases, rule, start kind) per descent end that solves."""
    out = []
    for kind, (ph, point, *_) in descents:
        if period is not None:  # the objective is periodic in each phase
            ph = -np.mod(-ph, period)
            point = _evaluate_point(freq, ph, orders)
        try:
            rule = synthesize_rule(freq, ph, orders)
        except IllPosedError:  # every ph past the cap, where _evaluate_point gives None
            continue
        out.append((rule.square_norm, np.abs(point.gradient).max() / 2, ph, rule, kind))
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflowing points are rejected, see _newton
def optimize_shifts(
    freq: FrequencySet,
    phi0,
    cfg: OptimizationConfig | None = None,
    orders: Orders = FIRST_DERIVATIVE,
) -> tuple[np.ndarray, ShiftRule]:
    """Minimize the coefficient square-norm over the shift phases.

    Screens the negation-symmetric phases (0, -x, +x), x in (0, T/2)^R,
    runs damped exact Newton in R dimensions from the ``multistarts``
    lowest points under the condition cap, and polishes each optimum
    once with full-space Newton.  Phases are wrapped into [-T, 0] when
    the gaps share a generator g (T = 2*pi / g).  Candidates whose half
    analytic gradient is at most ``cfg.tol`` are certified when their
    square-norm is no higher than phi0's (plus tol).  phi0 gets the same
    full-space descent only when no symmetric candidate is certified:
    always for mixed-parity ``orders`` or ``multistarts=0``, where it is
    the only search.  The lowest certified candidate wins, else the
    lowest of all.  The rule's diagnostics add ``certified``,
    ``stationarity`` (the winner's max |S_y|), ``winner_start`` ("phi0"
    or "reduced"), ``starts`` (Newton descents run, counting phi0's only
    when it ran), ``newton_steps`` (accepted steps in all) and
    ``evaluations`` (objective evaluations in all, rejected trials included).

    Raises IllPosedError when phi0 and every start are ill-posed.
    """
    cfg = cfg or OptimizationConfig()
    orders = _normalize_orders(orders)
    phi0 = np.asarray(phi0, dtype=float)
    if len(phi0) != freq.m:
        raise ValueError(f"need {freq.m} starting phases, got {len(phi0)}")
    generator = gap_generator(freq.unique_frequencies)
    period = 2 * np.pi / generator if generator is not None else None
    width = period if period is not None else 2 * np.pi / min(freq.unique_frequencies)

    f0 = np.inf if (start := _evaluate_point(freq, phi0, orders)) is None else start.value

    def certify(candidates):
        return [c for c in candidates if c[1] <= cfg.tol and c[0] <= f0 + cfg.tol]

    descents = []
    if cfg.multistarts > 0 and reduced_parity(orders) is not None:
        screened = _screen(freq, orders, width, np.random.default_rng(cfg.seed))
        runs = (_newton(_evaluate_reduced, freq, orders, x) for x in screened)
        for x, _, steps, evals in islice(filter(None, runs), cfg.multistarts):  # None: over the cap
            lifted = _newton(_evaluate_point, freq, orders, np.concatenate([[0.0], -x, x]))
            if lifted is not None:
                ph, point, more_steps, more_evals = lifted
                descents.append(("reduced", (ph, point, steps + more_steps, evals + more_evals)))
    candidates = _candidates(freq, orders, period, descents)
    certified = certify(candidates)
    # phi0 is descended only when the symmetric search certified nothing
    if not certified and (run := _newton(_evaluate_point, freq, orders, phi0)):
        descents.insert(0, ("phi0", run))
        candidates = _candidates(freq, orders, period, descents[:1]) + candidates
        certified = certify(candidates)
    if not descents:
        raise IllPosedError("all optimization starts are ill-posed")
    if not candidates:
        raise IllPosedError("no solvable candidate found")
    _, stationarity, best_ph, best_rule, kind = min(certified or candidates, key=lambda c: c[0])
    best_rule.diagnostics.update(
        certified=bool(certified), stationarity=float(stationarity), winner_start=kind,
        starts=len(descents), newton_steps=sum(run[2] for _, run in descents),
        evaluations=sum(run[3] for _, run in descents),
    )
    return np.asarray(best_ph), best_rule
