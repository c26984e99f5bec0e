"""The shift-rule record, the checks of its derivative orders, its scalar
application and its variance.

Kept apart from ``synthesis``, so that reading and checking a rule file
(``validate``) or reporting its variance (``variance``) loads neither the
gap analysis nor the solver.  numpy is imported only inside
``square_norm`` and ``variance_of_estimate``, so a rule read as floats and
applied by ``apply_rule`` (``validate`` on a small grid) loads none.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

from . import _Record

if TYPE_CHECKING:
    from typing import Callable

    import numpy as np

Orders = tuple[tuple[int, float], ...]


class _NormalizedOrders(tuple):
    """Orders that ``_normalize_orders`` built; it returns them as they are.

    ``build_system`` normalizes once and stores the tuple on the
    ``LinearSystem``, which labels every rule solved from it.
    """


FIRST_DERIVATIVE: Orders = _NormalizedOrders(((1, 1.0),))


class ShiftRule(_Record):
    """Phases, real coefficients, target orders, and solve diagnostics.

    ``orders`` lists (derivative order p, weight) pairs defining the
    target sum_p w_p f^(p).  ``frequencies`` records the positive gap
    values the rule is valid for.  ``diagnostics`` carries at least
    method, condition_number and residual.  ``serialize.read_rule``
    gives phases and coefficients as tuples of floats, every other
    builder as arrays.
    """

    _fields = ("phases", "coefficients", "orders", "frequencies", "diagnostics")

    def __init__(self, phases: np.ndarray, coefficients: np.ndarray, orders: Orders,
                 frequencies: tuple[float, ...], diagnostics: dict | None = None):
        if len(phases) != len(coefficients):
            raise ValueError("phases and coefficients must have equal length")
        self.__dict__.update(phases=phases, coefficients=coefficients, orders=orders, frequencies=frequencies,
                             diagnostics={} if diagnostics is None else diagnostics)

    @property
    def square_norm(self) -> float:
        import numpy as np

        b = np.asarray(self.coefficients)
        return float(b @ b)


def apply_rule(rule: ShiftRule, f: Callable[[float], float], t: float) -> float:
    """Evaluate sum_x b_x f(t + phi_x)."""
    return float(
        sum(b * f(t + p) for b, p in zip(rule.coefficients, rule.phases))
    )


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


class VarianceReport(_Record):
    """Variance of the shift-rule estimator plus the square-norm objective."""

    _fields = ("variance", "square_norm")

    def __init__(self, variance: float, square_norm: float):
        self.__dict__.update(variance=variance, square_norm=square_norm)


def variance_of_estimate(rule: ShiftRule, per_point_variance) -> VarianceReport:
    """Sum of b_x^2 * sigma_x^2, plus the equal-variance square-norm.

    ``per_point_variance`` is one variance for every phase or one per phase;
    each, and the sum, must be finite and non-negative (else ValueError).
    """
    import numpy as np

    b = np.asarray(rule.coefficients, dtype=float)
    sig2 = np.asarray(per_point_variance, dtype=float)
    if sig2.ndim == 0:
        s = float(sig2)
        if not 0 <= s < math.inf:
            raise ValueError(f"variances must be finite and non-negative, got {s!r}")
        sig2 = np.empty(len(b))
        sig2.fill(s)
    elif len(sig2) != len(b):
        raise ValueError("per-point variances must match the number of phases")
    elif not (np.isfinite(sig2) & (sig2 >= 0)).all():
        raise ValueError("variances must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        variance = float(b**2 @ sig2)
    if not variance < math.inf:
        raise ValueError(f"the variance sum_x b_x^2 sigma_x^2 overflows ({variance!r})")
    return VarianceReport(variance=variance, square_norm=rule.square_norm)


def confidence_interval(report: VarianceReport, eta: float) -> float:
    """Chebyshev half-width nu = sqrt(variance / eta) at miss probability eta.

    The interval [estimate - nu, estimate + nu] covers the true value
    with probability at least 1 - eta; for Gaussian noise the actual
    coverage is higher (Chebyshev is distribution-free and conservative).
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    return math.sqrt(report.variance / eta)
