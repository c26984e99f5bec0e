"""Design-matrix construction and well-posed shift-rule solving.

A shift rule expresses a target combination of derivatives of the
expectation function as a weighted sum of shifted evaluations.  The
coefficients solve a linear system whose rows are indexed by the distinct
eigenvalue gaps and whose columns are the shift phases: row mu, column x
holds exp(i * mu * phi_x), and the right-hand side for derivative order p
is (i * mu) ** p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import sub
from typing import Callable, NamedTuple

import numpy as np

from .rule import FIRST_DERIVATIVE, Orders, ShiftRule, _normalize_orders
from .spectrum import (DEFAULT_REL_TOL, FrequencySet, StructureKind, classify_structure,
                       frequency_differences, gap_generator)

CONDITION_CAP = 1e8
GRID_FACTOR = 16  # auto_phases' candidates per phase
IMAG_TOL = 1e-9


class IllPosedError(RuntimeError):
    """The shift-rule system cannot be solved stably at these phases."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearSystem:
    """The design system E b = mu for a fixed gap set, phase vector and target."""

    matrix: np.ndarray          # (rows, cols) complex, E[r, x] = exp(i g_r phi_x)
    rhs: np.ndarray             # (rows,) complex
    row_gaps: np.ndarray        # gap value per row
    phases: np.ndarray          # phase per column
    orders: Orders              # the target sum_p w_p f^(p) that rhs encodes

    @property
    def is_square(self) -> bool:
        return self.matrix.shape[0] == self.matrix.shape[1]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD (U, s, Vh) of E, computed once per system; read-only, like the system."""
        usv = np.linalg.svd(self.matrix, full_matrices=False)
        for a in usv:
            _read_only(a)
        return usv


def _gap_rhs(gaps: np.ndarray, orders: Orders) -> np.ndarray:
    """Target sum_p w_p (i * g) ** p per gap value g (p = 0 gives 1); IllPosedError on overflow."""
    if orders == FIRST_DERIVATIVE:
        # the general sum's bits: 0 + 1.0 * (i g) ** 1 leaves the real part +0 and the
        # imaginary part g, and a finite g cannot overflow
        return 1j * gaps + 0.0
    rhs = np.zeros(len(gaps), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, w in orders:
            rhs += w * (1j * gaps) ** p
    if not np.isfinite(rhs).all():
        raise IllPosedError(f"derivative target (i g)^p overflows for orders {list(orders)}")
    return rhs


# The last system build_system made, as (key, LinearSystem); see build_system.
_last_system: tuple | None = None


def build_system(freq: FrequencySet, phases, orders=FIRST_DERIVATIVE) -> LinearSystem:
    """Build the design system with one row per distinct gap value.

    The row order is (0, +w1, -w1, +w2, -w2, ...), so the first row is
    the all-ones row with right-hand side 0 for pure derivative targets,
    and rows come in conjugate pairs.  The number of phases may differ
    from freq.m; only the direct solver insists on a square system.

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
    gaps = _read_only(freq.distinct_gaps)
    # gaps[:, None] * phases are np.outer's products, without its dispatch
    sys = LinearSystem(matrix=_read_only(np.exp(1j * (gaps[:, None] * phases))),
                       rhs=_read_only(_gap_rhs(gaps, orders)), row_gaps=gaps,
                       phases=_read_only(phases), orders=orders)
    _last_system = (key, sys)
    return sys


def check_phase_distinctness(phases, frequencies) -> None:
    """Reject duplicate phases (equal modulo the column period).

    When the positive gaps share a generator g, every matrix column is
    periodic in its phase with period 2*pi/g, so phases equal modulo that
    period produce identical columns; the constraint is
    phi_i != phi_j + 2*pi*c / g for every integer c.  When the phases
    span less than half a period, sorted neighbours decide; the error
    names the first offending pair (i, j) in input order.
    """
    phases = np.asarray(phases, dtype=float).tolist()
    g = gap_generator(frequencies)
    tol = 1e-12 * max(1.0, max(map(abs, phases)))
    period = None if g is None else 2 * np.pi / g
    ordered = sorted(phases)
    if period is None or ordered[-1] - ordered[0] < 0.5 * period:
        # every distance below is then |phi_i - phi_j|, and sorted neighbours hold the smallest
        if all(map(tol.__le__, map(sub, ordered[1:], ordered))):  # every b - a >= tol
            return
    # plain floats: Python's % equals np.remainder for these non-negative operands
    for i, a in enumerate(phases):
        for j in range(i + 1, len(phases)):
            d = abs(a - phases[j])
            if period is not None:
                d %= period
                if period - d < d:
                    d = period - d
            if d < tol:
                raise IllPosedError(
                    f"duplicate shift phases: phi_{i} and phi_{j} coincide "
                    "(phi_i != phi_j + 2*pi*c violated)"
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


def _capped_solve(E: np.ndarray, rhs: np.ndarray):
    """(np.linalg.solve(E, rhs), cond(E)); IllPosedError when cond(E) exceeds CONDITION_CAP."""
    cond = condition_number(E)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise IllPosedError(
            f"condition number {cond:.3g} exceeds cap {CONDITION_CAP:.3g}",
            condition_number=cond,
        )
    return np.linalg.solve(E, rhs), cond


def _norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) for a 1-d float or complex array: its dot products, without its dispatch."""
    x = x.ravel(order="K")  # as norm does: a strided x would take another BLAS summation order
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _coefficient_norm(b: np.ndarray, context: str, condition_number=None) -> float:
    """|b|; IllPosedError when sum b^2 overflows, so no finite square-norm or variance."""
    with np.errstate(over="ignore"):  # the dot products warn where they overflow
        norm = _norm(b)
    if not math.isfinite(norm):
        raise IllPosedError(f"{context}: coefficient norm overflows", condition_number=condition_number)
    return norm


def _rule(sys: LinearSystem, coefficients: np.ndarray, method: str, condition_number: float,
          residual: float, max_imag: float, **extra) -> ShiftRule:
    """A solver's rule: the system's phases, orders and positive gaps, and its diagnostics.

    The positive gaps are the rows +w_1, +w_2, ... of ``build_system``'s
    row order, as Python floats; ``extra`` adds diagnostics after the
    four every rule carries.
    """
    return ShiftRule(
        phases=sys.phases.copy(),
        coefficients=coefficients,
        orders=sys.orders,
        frequencies=tuple(sys.row_gaps[1::2].tolist()),
        diagnostics={
            "method": method,
            "condition_number": condition_number,
            "residual": residual,
            "max_imag_discarded": max_imag,
            **extra,
        },
    )


def _exact_rule(sys: LinearSystem, b: np.ndarray, method: str, condition_number: float,
                context: str) -> ShiftRule:
    """The rule of a solution b of E b = rhs: its real part, with the residual of b itself.

    Raises IllPosedError, naming ``context``, when |b| overflows or the
    imaginary part of b exceeds ``IMAG_TOL`` times |b|.
    """
    scale = max(_coefficient_norm(b, context, condition_number), 1e-300)
    max_imag = float(np.abs(b.imag).max())
    if max_imag > IMAG_TOL * scale:
        raise IllPosedError(
            f"{context}: solution has non-negligible imaginary part "
            f"({max_imag:.3g} vs norm {scale:.3g})",
            condition_number=condition_number,
        )
    return _rule(sys, b.real.copy(), method, condition_number, _norm(sys.matrix @ b - sys.rhs), max_imag)


def solve_direct(sys: LinearSystem) -> ShiftRule:
    """Solve the square system E b = rhs and return the real coefficients.

    The rule is labelled with the orders the system was built for.
    Raises IllPosedError when the phases hold duplicates, the system is
    not square, has a condition number above ``CONDITION_CAP`` or
    a solution with a non-negligible imaginary part (ill-posed spectra
    must go through the equidistant or regularized paths instead).
    """
    check_phase_distinctness(sys.phases, sys.row_gaps[1::2].tolist())
    return _solve_distinct(sys)


def _solve_distinct(sys: LinearSystem) -> ShiftRule:
    """``solve_direct`` at phases already checked for duplicates."""
    E = sys.matrix
    if not sys.is_square:
        raise IllPosedError(
            f"system is not square ({E.shape[0]} gap rows, {E.shape[1]} phases); "
            "the direct solver needs exactly one phase per distinct gap"
        )
    b, cond = _capped_solve(E, sys.rhs)
    return _exact_rule(sys, b, "direct", cond, "solve_direct")


def synthesize_rule(freq: FrequencySet, phases, orders=FIRST_DERIVATIVE) -> ShiftRule:
    """Build and solve the system for any combination of derivative orders.

    The resulting rule satisfies sum_p w_p f^(p)(t) = sum_x b_x f(t+phi_x)
    for every model whose frequencies lie in ``freq``, at every t.
    Raises IllPosedError as ``solve_direct`` does, e.g. above ``CONDITION_CAP``.
    """
    return solve_direct(build_system(freq, phases, orders))


def apply_rule(rule: ShiftRule, f: Callable[[float], float], t: float) -> float:
    """Evaluate sum_x b_x f(t + phi_x)."""
    return float(
        sum(b * f(t + p) for b, p in zip(rule.coefficients, rule.phases))
    )


def compatibility_residual(rule: ShiftRule, freq: FrequencySet) -> float:
    """Defining residual max over gaps |sum_x b_x e^{i mu phi_x} - target(mu)|.

    Independent of any test function: a rule is exact for every in-band
    model precisely when this vanishes.
    """
    sys = build_system(freq, rule.phases, rule.orders)
    return float(np.abs(sys.matrix @ rule.coefficients - sys.rhs).max())


def auto_phases(freq: FrequencySet) -> np.ndarray:
    """freq.m phases, a greedy D-optimal pick out of ``GRID_FACTOR * freq.m`` candidates.

    The candidates are equispaced on [-2*pi / resolution, 0): one period of
    the smallest spacing of (0, w_1, ..., w_R), floored at 1e-2 times the
    largest gap (IllPosedError where that period overflows).  Each step
    keeps the candidate column of E with the largest norm orthogonal to
    those kept (pivoted Gram-Schmidt: approximate Fekete points), the first
    on a tie.  On an equidistant spectrum the picks are ``optimal_phases``,
    in their order.
    """
    freqs = np.asarray(freq.unique_frequencies)
    spacing = float(max(np.diff(freqs, prepend=0.0).min(), 1e-2 * freqs[-1]))
    lo = -2 * np.pi / spacing  # a Python float: inf, not a numpy warning, where it overflows
    if lo == -math.inf:
        raise IllPosedError(f"phase period 2*pi/{spacing!r} overflows: the gap spacing is too small")
    grid = lo * np.linspace(1, 0, GRID_FACTOR * freq.m, endpoint=False)  # lo first, 0 left out
    R = np.exp(1j * np.outer(freq.distinct_gaps, grid))
    norm2 = np.full(len(grid), float(freq.m))  # every column has unit-modulus entries
    picks = []
    for _ in range(freq.m):
        j = int(np.argmax(norm2))
        picks.append(j)
        q = R[:, j] / np.linalg.norm(R[:, j])
        R -= np.outer(q, q.conj() @ R)
        norm2 = (R.real**2 + R.imag**2).sum(axis=0)
        norm2[picks] = -1.0
    return grid[sorted(picks, reverse=True)]


class Attempt(NamedTuple):
    method: str  # "equidistant" (the closed form), "direct" or "tikhonov"
    left: str | None = None  # why rule_for left it: "ill_posed", or None when it gave the rule
    message: str | None = None  # the IllPosedError's message
    condition_number: float | None = None  # and its condition number


def rule_for(spectrum, order: int = 1, method: str = "auto", phases=None, config=None,
             rel_tol: float = DEFAULT_REL_TOL):
    """The order-``order`` rule for a spectrum, by the method its structure calls for.

    ``method`` is "equidistant" (the closed form), "direct", "tikhonov"
    (the regularized rule under ``config``) or "auto": the closed form
    for an equidistant spectrum when no ``phases`` are given, else a
    direct solve that falls back to the Tikhonov rule when it is
    ill-posed.  A perturbed-equidistant spectrum takes the direct solve,
    which is exact on its own gaps.  Without ``phases`` the direct and
    Tikhonov paths run at ``auto_phases(freq)``.

    Returns (rule, structure class, attempts): one ``Attempt`` per method
    tried, in order; each but the last, which gave the rule, was left as
    ill-posed.  Raises ValueError for the closed form on a non-equidistant
    spectrum or with explicit phases, and IllPosedError for duplicate
    phases, for phases that overflow, for an ill-posed solve under
    method="direct" and wherever the path taken raises it.
    """
    cls = classify_structure(spectrum, rel_tol=rel_tol)
    freq = frequency_differences(spectrum)
    if method == "equidistant" or (method == "auto" and phases is None
                                   and cls.kind is StructureKind.EQUIDISTANT):
        if phases is not None:
            raise ValueError("the equidistant method fixes its own phases")
        if cls.kind is not StructureKind.EQUIDISTANT:
            raise ValueError("spectrum is not equidistant; cannot use the closed form")
        from .equidistant import EquidistantStructure, closed_form_rule

        rule = closed_form_rule(EquidistantStructure(n=spectrum.n, delta=cls.delta), order)
        return rule, cls, [Attempt("equidistant")]

    phases = auto_phases(freq) if phases is None else phases
    check_phase_distinctness(phases, freq.unique_frequencies)
    orders, attempts = ((order, 1.0),), []
    if method != "tikhonov":
        try:
            return _solve_distinct(build_system(freq, phases, orders)), cls, [Attempt("direct")]
        except IllPosedError as exc:
            cond = exc.condition_number
            if method == "direct":
                raise IllPosedError(f"direct synthesis is ill-posed ({exc}); condition number "
                                    f"{cond if cond is not None else 'n/a'}", cond) from exc
            attempts.append(Attempt("direct", "ill_posed", str(exc), cond))
    from .regularization import regularized_rule

    return regularized_rule(freq, phases, orders, config), cls, [*attempts, Attempt("tikhonov")]
