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
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .spectrum import FrequencySet, gap_generator

CONDITION_CAP = 1e8
IMAG_TOL = 1e-9

Orders = tuple[tuple[int, float], ...]


class _NormalizedOrders(tuple):
    """Orders that ``_normalize_orders`` built; it returns them as they are.

    ``build_system`` normalizes once and stores the tuple on the
    ``LinearSystem``, which labels every rule solved from it.
    """


FIRST_DERIVATIVE: Orders = _NormalizedOrders(((1, 1.0),))


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


@dataclass(frozen=True)
class ShiftRule:
    """Phases, real coefficients, target orders, and solve diagnostics.

    ``orders`` lists (derivative order p, weight) pairs defining the
    target sum_p w_p f^(p).  ``frequencies`` records the positive gap
    values the rule is valid for.  ``diagnostics`` carries at least
    condition_number, residual, and max_imag_discarded.
    """

    phases: np.ndarray
    coefficients: np.ndarray
    orders: Orders
    frequencies: tuple[float, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.phases) != len(self.coefficients):
            raise ValueError("phases and coefficients must have equal length")

    @property
    def square_norm(self) -> float:
        b = np.asarray(self.coefficients)
        return float(b @ b)


def _finite(x) -> bool:
    """A finite real number; a bool or a numeric string is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _check_non_negative_int(name: str, n) -> None:
    """ValueError unless n is a non-negative integer; a bool or a float is not one."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")


def _integer_order(p) -> int:
    if not _finite(p) or not float(p).is_integer():
        raise ValueError(f"derivative orders must be integers, got {p!r}")
    return int(p)


def _normalize_orders(orders) -> Orders:
    if type(orders) is _NormalizedOrders:
        return orders
    pairs = tuple(orders)
    if not all(_finite(w) for _, w in pairs):
        raise ValueError("order weights must be finite real numbers")
    out = tuple((_integer_order(p), float(w)) for p, w in pairs)
    if not out:
        raise ValueError("need at least one derivative order")
    if any(p < 0 for p, _ in out):
        raise ValueError("derivative orders must be non-negative")
    return _NormalizedOrders(out)


def _gap_rhs(gaps: np.ndarray, orders: Orders) -> np.ndarray:
    """Target sum_p w_p (i * g) ** p per gap value g (p = 0 gives 1); IllPosedError on overflow."""
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
    sys = LinearSystem(matrix=_read_only(np.exp(1j * np.outer(gaps, phases))),
                       rhs=_read_only(_gap_rhs(gaps, orders)), row_gaps=gaps,
                       phases=_read_only(phases), orders=orders)
    _last_system = (key, sys)
    return sys


@dataclass(frozen=True)
class ReducedSystem:
    """The design system at the negation-symmetric phases (0, -x_1..-x_R, +x_1..+x_R).

    Unitary row and column rotations (rows 1, sqrt2*cos(w .), sqrt2*sin(w .);
    columns e_0, (e_+x +- e_-x)/sqrt2) split E into two real blocks, so E's
    singular values are those of ``cos`` and ``sin`` together:

      cos = [[1, sqrt2 * 1^T], [sqrt2 * 1, 2 cos(w_j x_k)]]   (R+1, R+1)
      sin = 2 sin(w_j x_k)                                     (R, R)

    A target of one parity excites one block: ``matrix`` u = ``rhs`` with
    ``matrix`` = sin for odd orders and cos for even ones.  u holds
    sqrt2 * c_k per pair (the coefficients are -c_k, +c_k for odd orders
    and b_0 = u_0, c_k, c_k for even ones), so sum b^2 = |u|^2.  x may
    carry leading batch axes, which both blocks keep.
    """

    cos: np.ndarray
    sin: np.ndarray
    rhs: np.ndarray
    odd: bool

    @property
    def matrix(self) -> np.ndarray:
        return self.sin if self.odd else self.cos

    def condition_number(self) -> np.ndarray:
        """cond(E) at the lifted phases per batch entry; +inf where singular."""
        s = np.concatenate([np.linalg.svd(self.cos, compute_uv=False),
                            np.linalg.svd(self.sin, compute_uv=False)], axis=-1)
        smax, smin = s.max(axis=-1), s.min(axis=-1)
        regular = smin > smax * s.shape[-1] * np.finfo(float).eps  # False for NaN too
        return np.where(regular, smax / np.where(regular, smin, 1.0), np.inf)


def reduced_parity(orders) -> bool | None:
    """True when every order is odd, False when every order is even, None when mixed."""
    parities = {p % 2 for p, _ in _normalize_orders(orders)}
    return None if len(parities) > 1 else parities.pop() == 1


def build_reduced_system(freq: FrequencySet, x, orders=FIRST_DERIVATIVE) -> ReducedSystem:
    """The real block system at phases (0, -x, +x); see ``ReducedSystem``.

    ``x`` has R = len(freq.unique_frequencies) magnitudes on its last
    axis.  Mixed-parity orders excite both blocks and raise ValueError.
    """
    odd = reduced_parity(orders)
    if odd is None:
        raise ValueError("orders of mixed parity have no negation-symmetric rule")
    w = np.asarray(freq.unique_frequencies, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != w.shape:
        raise ValueError(f"need {len(w)} magnitudes on the last axis, got shape {x.shape}")
    wx = w[:, None] * x[..., None, :]
    cos = np.empty(x.shape[:-1] + (len(w) + 1, len(w) + 1))
    cos[..., 0, 0] = 1.0
    cos[..., 0, 1:] = cos[..., 1:, 0] = np.sqrt(2.0)
    cos[..., 1:, 1:] = 2.0 * np.cos(wx)
    t = _gap_rhs(np.concatenate([[0.0], w]), _normalize_orders(orders))
    t[1:] *= np.sqrt(2.0)
    rhs = t[1:].imag if odd else t.real
    return ReducedSystem(cos=cos, sin=2.0 * np.sin(wx), rhs=rhs, odd=odd)


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
        if all(b - a >= tol for a, b in zip(ordered, ordered[1:])):
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
    return _singular_value_condition(np.linalg.svd(matrix, compute_uv=False), max(matrix.shape))


def _singular_value_condition(s: np.ndarray, size: int) -> float:
    """s[0] / s[-1] from descending singular values; +inf below the rank tolerance."""
    rank_tol = s[0] * size * np.finfo(float).eps
    if s[-1] <= rank_tol or not np.isfinite(s[-1]):
        return float("inf")
    return float(s[0] / s[-1])


def _capped_solve(E: np.ndarray, rhs: np.ndarray):
    """(np.linalg.solve(E, rhs), cond(E)); IllPosedError when cond(E) exceeds CONDITION_CAP."""
    cond = condition_number(E)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise IllPosedError(
            f"condition number {cond:.3g} exceeds cap {CONDITION_CAP:.3g}",
            condition_number=cond,
        )
    return np.linalg.solve(E, rhs), cond


def _coefficient_norm(b: np.ndarray, context: str, condition_number=None) -> float:
    """|b|; IllPosedError when sum b^2 overflows, so no finite square-norm or variance."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b))
    if not np.isfinite(norm):
        raise IllPosedError(f"{context}: coefficient norm overflows", condition_number=condition_number)
    return norm


def _extract_real(b: np.ndarray, context: str, condition_number=None) -> tuple[np.ndarray, float]:
    scale = max(_coefficient_norm(b, context, condition_number), 1e-300)
    max_imag = float(np.abs(b.imag).max())
    if max_imag > IMAG_TOL * scale:
        raise IllPosedError(
            f"{context}: solution has non-negligible imaginary part "
            f"({max_imag:.3g} vs norm {scale:.3g})",
            condition_number=condition_number,
        )
    return b.real.copy(), max_imag


def solve_direct(sys: LinearSystem) -> ShiftRule:
    """Solve the square system E b = rhs and return the real coefficients.

    The rule is labelled with the orders the system was built for.
    Raises IllPosedError when the system is not square, contains
    duplicate phases, has a condition number above ``CONDITION_CAP`` or
    a solution with a non-negligible imaginary part (ill-posed spectra
    must go through the equidistant or regularized paths instead).
    """
    E = sys.matrix
    if not sys.is_square:
        raise IllPosedError(
            f"system is not square ({E.shape[0]} gap rows, {E.shape[1]} phases); "
            "the direct solver needs exactly one phase per distinct gap"
        )
    pos = sys.row_gaps[sys.row_gaps > 0]
    check_phase_distinctness(sys.phases, pos)
    b, cond = _capped_solve(E, sys.rhs)
    coeffs, max_imag = _extract_real(b, "solve_direct", cond)
    residual = float(np.linalg.norm(E @ b - sys.rhs))
    return ShiftRule(
        phases=sys.phases.copy(),
        coefficients=coeffs,
        orders=sys.orders,
        frequencies=tuple(sorted(pos)),
        diagnostics={
            "method": "direct",
            "condition_number": cond,
            "residual": residual,
            "max_imag_discarded": max_imag,
        },
    )


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
