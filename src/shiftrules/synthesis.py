"""Design-matrix construction and well-posed shift-rule solving.

A shift rule expresses a target combination of derivatives of the
expectation function as a weighted sum of shifted evaluations.  In the
paper its coefficients solve E b = mu: row g in (0, +-w_1, ..., +-w_R),
column x holds exp(i g phi_x), and mu(g) = sum_p w_p (i g) ** p.  The rows
+-w are conjugates, so the unitary rotation (r_+ + r_-) / sqrt2,
(r_+ - r_-) / (i sqrt2) of each pair turns E b = mu into the real system
C = [1; sqrt2 cos(w_j phi_x); sqrt2 sin(w_j phi_x)], t = [mu(0);
sqrt2 Re mu(w_j); sqrt2 Im mu(w_j)], with E's singular values and, for
every real b, |C b - t| = |E b - mu|.  Every solver works on C.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import sub
from typing import NamedTuple

import numpy as np

from . import _Record
from .rule import FIRST_DERIVATIVE, Orders, ShiftRule, _normalize_orders
from .spectrum import FrequencySet

CONDITION_CAP = 1e8
GRID_FACTOR = 16  # auto_phases' candidates per phase
SQRT2 = math.sqrt(2.0)


class IllPosedError(RuntimeError):
    """The shift-rule system cannot be solved stably at these phases."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LinearSystem(_Record):
    """The real design system C b = t for a fixed gap set, phase vector and target."""

    _fields = ("matrix", "rhs", "row_gaps", "phases", "orders")

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray, row_gaps: np.ndarray, phases: np.ndarray,
                 orders: Orders):
        self.__dict__.update(
            matrix=matrix,      # (2R+1, cols): rows 1, sqrt2 cos(w_j phi_x), sqrt2 sin(w_j phi_x)
            rhs=rhs,            # (2R+1,): mu(0), sqrt2 Re mu(w_j), sqrt2 Im mu(w_j)
            row_gaps=row_gaps,  # gap value per row: (0, w_1..w_R, w_1..w_R)
            phases=phases,      # phase per column
            orders=orders,      # the target sum_p w_p f^(p) that rhs encodes
        )

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    @property
    def gaps(self) -> np.ndarray:
        """The positive gaps w_1..w_R of the cos rows (and of the sin rows)."""
        return self.row_gaps[1:len(self.row_gaps) // 2 + 1]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (U, s, Vh) of C, computed once per system; read-only, like the system."""
        usv = np.linalg.svd(self.matrix, full_matrices=False)
        for a in usv:
            _read_only(a)
        return usv


def _target(w: np.ndarray, orders: Orders) -> np.ndarray:
    """t = (mu(0), sqrt2 Re mu(w_j), sqrt2 Im mu(w_j)) at the ascending gaps w; IllPosedError on overflow."""
    R = len(w)
    t = np.zeros(2 * R + 1)
    if orders == FIRST_DERIVATIVE and (R == 0 or w[-1] < 1e308):  # mu(g) = i g: sqrt2 g is finite
        np.multiply(w, SQRT2, out=t[R + 1:])
        return t
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing target is refused below
        for p, weight in orders:  # (i g)^p is g^p times 1, i, -1, -i for p = 0, 1, 2, 3 mod 4
            t[0] += weight * (p == 0)
            part = t[R + 1:] if p % 2 else t[1:R + 1]
            part += (weight if p % 4 < 2 else -weight) * w**p
        t[1:] *= SQRT2
    if not np.isfinite(t).all():
        raise IllPosedError(f"derivative target (i g)^p overflows for orders {list(orders)}")
    return t


# The last system build_system made, as (key, LinearSystem); see build_system.
_last_system: tuple | None = None


def build_system(freq: FrequencySet, phases, orders=FIRST_DERIVATIVE) -> LinearSystem:
    """Build the real design system C b = t (see the module docstring).

    Rows: the ones row (target 0 for pure derivatives), the R cos rows,
    the R sin rows.  The number of phases may differ from freq.m; only
    the direct solver insists on a square system.

    The system's arrays are read-only, and a call with the same
    frequencies, phase values and orders as the previous call returns
    the previous system, so its cached ``svd`` serves both: the cap
    check and the Tikhonov fallback of one request share one build.
    """
    global _last_system
    phases = np.array(phases, dtype=float)  # a copy: the caller may change its array later
    if phases.ndim != 1 or len(phases) == 0:
        raise ValueError("phases must be a non-empty 1-d sequence")
    if not np.isfinite(phases).all():
        raise ValueError("phases must be finite")
    orders = _normalize_orders(orders)
    # repr tells a -0.0 weight from 0.0, which the rules' orders labels keep
    key = (freq, phases.tobytes(), repr(orders))
    last = _last_system
    if last is not None and last[0] == key:
        return last[1]
    w = np.array(freq.unique_frequencies, dtype=float)
    z = np.exp(1j * (w[:, None] * phases))  # the paper's rows +w; the rows -w are their conjugates
    C = np.concatenate((np.ones((1, len(phases))), z.real, z.imag))
    C[1:] *= SQRT2
    sys = LinearSystem(matrix=_read_only(C), rhs=_read_only(_target(w, orders)),
                       row_gaps=_read_only(np.concatenate(([0.0], w, w))),
                       phases=_read_only(phases), orders=orders)
    _last_system = (key, sys)
    return sys


def check_phase_distinctness(phases) -> None:
    """Reject literal duplicates: |phi_i - phi_j| < 1e-12 * max(1, max |phi|).

    Phases equal modulo a period of the gaps, and nearly equal columns of
    any kind, are left to the one rank test, ``_singular_value_condition``:
    the direct solve refuses them at ``CONDITION_CAP``, the Tikhonov rule
    solves them at the rank cut.  Sorted neighbours decide; the error
    names the first offending pair (i, j) in input order.
    """
    phases = np.asarray(phases, dtype=float).tolist()
    tol = 1e-12 * max(1.0, max(map(abs, phases)))
    ordered = sorted(phases)
    if all(map(tol.__le__, map(sub, ordered[1:], ordered))):  # every b - a >= tol
        return
    for i, a in enumerate(phases):
        for j in range(i + 1, len(phases)):
            if abs(a - phases[j]) < tol:
                raise IllPosedError(
                    f"duplicate shift phases: phi_{i} and phi_{j} coincide "
                    "(phi_i != phi_j violated)"
                )


def condition_number(matrix: np.ndarray) -> float:
    """Spectral (l2) condition number; +inf for (numerically) singular matrices."""
    return float(_singular_value_condition(np.linalg.svd(matrix, compute_uv=False), max(matrix.shape)))


def _singular_value_condition(s: np.ndarray, size: int):
    """max / min of the singular values on the last axis, for one row or a batch.

    +inf where the smallest is at most the largest times ``size * eps``
    (the rank tolerance) or is not finite.  One row gives a float, a
    batch an array; both come from the same comparison and quotient.
    """
    eps = np.finfo(float).eps
    if s.ndim == 1:  # Python floats round as numpy's float64 does, without its dispatch
        smax, smin = float(s.max()), float(s.min())
        return smax / smin if smin > smax * size * eps else math.inf
    smax, smin = s.max(axis=-1), s.min(axis=-1)
    regular = smin > smax * size * eps  # False for NaN; an inf smin has an inf smax
    return np.divide(smax, smin, out=np.full(smin.shape, np.inf), where=regular)


def _capped_solve(C: np.ndarray, rhs: np.ndarray):
    """(np.linalg.solve(C, rhs), cond(C)); IllPosedError when cond(C) exceeds CONDITION_CAP."""
    cond = condition_number(C)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise IllPosedError(f"condition number {cond:.3g} exceeds cap {CONDITION_CAP:.3g}", cond)
    return np.linalg.solve(C, rhs), cond


def _norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) for a 1-d float array: its dot product, without its dispatch."""
    x = x.ravel(order="K")  # as norm does: a strided x would take another BLAS summation order
    return math.sqrt(x.dot(x))


def _coefficient_norm(b: np.ndarray, context: str, condition_number=None) -> float:
    """|b|; IllPosedError when sum b^2 overflows, so no finite square-norm or variance."""
    with np.errstate(over="ignore"):  # the dot products warn where they overflow
        norm = _norm(b)
    if not math.isfinite(norm):
        raise IllPosedError(f"{context}: coefficient norm overflows", condition_number=condition_number)
    return norm


def _rule(sys: LinearSystem, coefficients: np.ndarray, method: str, condition_number: float,
          residual: float, **extra) -> ShiftRule:
    """A solver's rule: the system's phases, orders and positive gaps, and its diagnostics.

    The positive gaps are stored as Python floats; ``extra`` adds
    diagnostics after the three every rule carries.
    """
    return ShiftRule(phases=sys.phases.copy(), coefficients=coefficients, orders=sys.orders,
                     frequencies=tuple(sys.gaps.tolist()),
                     diagnostics={"method": method, "condition_number": condition_number,
                                  "residual": residual, **extra})


def _exact_rule(sys: LinearSystem, b: np.ndarray, method: str, condition_number: float,
                context: str) -> ShiftRule:
    """The rule of a solution b of C b = t, with its residual |C b - t|.

    Raises IllPosedError, naming ``context``, when |b| overflows.
    """
    _coefficient_norm(b, context, condition_number)
    return _rule(sys, b, method, condition_number, _norm(sys.matrix @ b - sys.rhs))


def solve_direct(sys: LinearSystem) -> ShiftRule:
    """Solve the square system C b = t for the rule's coefficients.

    The rule is labelled with the orders the system was built for.
    Raises IllPosedError when the phases hold literal duplicates, the
    system is not square or has a condition number above ``CONDITION_CAP``
    (inf for phases equal modulo a period of the gaps; ill-posed spectra
    must go through the regularized path instead).
    """
    check_phase_distinctness(sys.phases)
    return _solve_distinct(sys)


def _solve_distinct(sys: LinearSystem) -> ShiftRule:
    """``solve_direct`` at phases already checked for duplicates."""
    C = sys.matrix
    if not sys.is_square:
        raise IllPosedError(
            f"system is not square ({C.shape[0]} gap rows, {C.shape[1]} phases); "
            "the direct solver needs exactly one phase per distinct gap"
        )
    b, cond = _capped_solve(C, sys.rhs)
    return _exact_rule(sys, b, "direct", cond, "solve_direct")


def synthesize_rule(freq: FrequencySet, phases, orders=FIRST_DERIVATIVE) -> ShiftRule:
    """Build and solve the system for any combination of derivative orders.

    The resulting rule satisfies sum_p w_p f^(p)(t) = sum_x b_x f(t+phi_x)
    for every model whose frequencies lie in ``freq``, at every t.
    Raises IllPosedError as ``solve_direct`` does, e.g. above ``CONDITION_CAP``.
    """
    return solve_direct(build_system(freq, phases, orders))


def compatibility_residual(rule: ShiftRule, freq: FrequencySet, relative: bool = False) -> float:
    """Defining residual max over gaps g of |r(g)| = |sum_x b_x e^{i g phi_x} - mu(g)|.

    Independent of any test function: a rule is exact for every in-band
    model precisely when this vanishes.  From r = C b - t: r(0) is its
    first entry and |r(w_j)| = hypot(cos row, sin row) / sqrt2, and |mu(g)|
    likewise from t.  ``relative`` divides each gap's |r(g)| by 1 + |mu(g)|,
    the scale ``validate`` gives an error against its target, so round-off
    of a large high-order target counts no more than it would there.
    """
    sys = build_system(freq, rule.phases, rule.orders)
    R = len(sys.gaps)
    r, mu = (np.append(abs(v[0]), np.hypot(v[1:R + 1], v[R + 1:]) / SQRT2)
             for v in (sys.matrix @ rule.coefficients - sys.rhs, sys.rhs))
    return float((r / (1.0 + mu) if relative else r).max())


def auto_phases(freq: FrequencySet) -> np.ndarray:
    """freq.m phases, a greedy D-optimal pick out of ``GRID_FACTOR * freq.m`` candidates.

    The candidates are equispaced on [-2*pi / resolution, 0): one period of
    the smallest spacing of (0, w_1, ..., w_R), floored at 1e-2 times the
    largest gap (IllPosedError where that period overflows).  Each step
    keeps the candidate column of C with the largest norm orthogonal to
    those kept (pivoted Gram-Schmidt: approximate Fekete points); norms
    within m * eps (relative) of the largest tie, and the first of them
    wins.  On an equidistant spectrum the picks are ``optimal_phases``, in
    their order.
    """
    freqs = np.asarray(freq.unique_frequencies)
    spacing = float(max(np.diff(freqs, prepend=0.0).min(), 1e-2 * freqs[-1]))
    lo = -2 * np.pi / spacing  # a Python float: inf, not a numpy warning, where it overflows
    if lo == -math.inf:
        raise IllPosedError(f"phase period 2*pi/{spacing!r} overflows: the gap spacing is too small")
    grid = lo * np.linspace(1, 0, GRID_FACTOR * freq.m, endpoint=False)  # lo first, 0 left out
    return grid[sorted(_greedy_columns(build_system(freq, grid).matrix, freq.m), reverse=True)]


def _greedy_columns(candidates: np.ndarray, k: int) -> list[int]:
    """k column indices by pivoted Gram-Schmidt with downdated column norms; see ``auto_phases``."""
    A = candidates.copy()
    norm2 = np.full(A.shape[1], float(len(A)))  # 1 + 2 (cos^2 + sin^2) per gap in every column
    exact = norm2.copy()  # each column's last exactly computed norm2
    eps = math.ulp(1.0)
    picks = []
    for _ in range(k):
        j = int(np.argmax(norm2 >= norm2.max() * (1.0 - len(A) * eps)))  # the first near-largest
        picks.append(j)
        q = A[:, j] / _norm(A[:, j])
        c = q @ A
        A -= np.outer(q, c)
        norm2 -= c * c
        lost = norm2 <= math.sqrt(eps) * exact  # the downdate cancelled: recompute, as LAPACK's xGEQP3
        norm2[lost] = exact[lost] = (A[:, lost] ** 2).sum(axis=0)
        norm2[picks] = -np.inf
    return picks


class Attempt(NamedTuple):
    method: str  # "direct" or "tikhonov"; the CLI adds "equidistant" for its closed form
    left: str | None = None  # why rule_for left it: "ill_posed", or None when it gave the rule
    message: str | None = None  # the IllPosedError's message
    condition_number: float | None = None  # and its condition number


def rule_for(freq: FrequencySet, order: int = 1, method: str = "auto", phases=None, config=None):
    """The order-``order`` rule on the gaps ``freq``, solved on those gaps for every spectrum.

    ``method`` is "direct", "tikhonov" (the regularized rule under
    ``config``) or "auto": the direct solve, capped at ``CONDITION_CAP``,
    falling back to the Tikhonov rule when it is ill-posed.  No structure
    is classified: on an exact lattice the direct solve at ``auto_phases``
    is the closed form of ``equidistant.closed_form_rule``, at condition
    number 1.  Without ``phases`` both solvers run at ``auto_phases(freq)``.

    Returns (rule, attempts): one ``Attempt`` per method tried, in order;
    each but the last, which gave the rule, was left as ill-posed.
    Raises ValueError for an unknown method, and IllPosedError for
    literal duplicate phases, for phases that overflow, for an ill-posed
    solve under method="direct" (phases equal modulo a period of the gaps
    included) and wherever the path taken raises it.
    """
    if method not in ("auto", "direct", "tikhonov"):
        raise ValueError(f"unknown method {method!r}: need auto, direct or tikhonov")
    phases = auto_phases(freq) if phases is None else phases
    check_phase_distinctness(phases)
    orders, attempts = ((order, 1.0),), []
    if method != "tikhonov":
        try:
            return _solve_distinct(build_system(freq, phases, orders)), [Attempt("direct")]
        except IllPosedError as exc:
            cond = exc.condition_number
            if method == "direct":
                raise IllPosedError(f"direct synthesis is ill-posed ({exc}); condition number "
                                    f"{cond if cond is not None else 'n/a'}", cond) from exc
            attempts.append(Attempt("direct", "ill_posed", str(exc), cond))
    from .regularization import regularized_rule

    return regularized_rule(freq, phases, orders, config), [*attempts, Attempt("tikhonov")]
