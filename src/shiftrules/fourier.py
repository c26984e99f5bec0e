"""Exact trigonometric expectation functions and their derivatives.

This is the validation oracle: every synthesized shift rule is checked
against models whose derivatives we can evaluate in closed form: finite
cosine/sine series.

``evaluate`` and ``analytic_derivative`` run ``evaluate_models``, the
one numpy form of the series.  ``rule_errors``, the scalar oracle that
``validate`` runs where its work is small, sums each model's series in
plain Python, term by term in ``evaluate_models``' order, and so loads
no numpy; ``rule_errors_blocked`` is its numpy form for large work.
numpy is imported only inside the array functions.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

from . import _Record
from .rule import _check_non_negative_int, apply_rule

if TYPE_CHECKING:
    import numpy as np

    from .rule import ShiftRule


class FourierModel(_Record):
    """Finite trigonometric series a0 + sum_l a_l cos(w_l t) + b_l sin(w_l t)."""

    _fields = ("a0", "terms")

    def __init__(self, a0: float, terms: tuple[tuple[float, float, float], ...] = ()):
        terms = tuple((float(w), float(a), float(b)) for (w, a, b) in terms)
        a0 = float(a0)
        freqs = [w for w, _, _ in terms]
        if any(w <= 0 for w in freqs):
            raise ValueError("frequencies must be positive")
        if any(x >= y for x, y in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        flat = [a0] + [x for term in terms for x in term]
        if not all(map(math.isfinite, flat)):
            raise ValueError("model coefficients must be finite")
        self.__dict__.update(a0=a0, terms=terms)

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(w for w, _, _ in self.terms)


class NoiseSpec(_Record):
    """Additive Gaussian noise with a deterministic seed."""

    _fields = ("sigma", "seed")

    def __init__(self, sigma: float, seed: int = 0):
        if not 0 <= sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")
        _check_non_negative_int("seed", seed)
        self.__dict__.update(sigma=sigma, seed=seed)


def _derived(terms, p: int) -> list:
    """The (w, a, b) terms of the p-th derivative: each differentiation maps (a, b) to (w*b, -w*a)."""
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    out = []
    for w, a, b in terms:
        for _ in range(p):
            a, b = w * b, -w * a
        out.append((w, a, b))
    return out


def _series(a0: float, terms, t: float) -> float:
    """a0 + sum a*cos(w t) + b*sin(w t) at a float t, added as ``evaluate_models`` adds them."""
    out = a0
    for w, a, b in terms:
        x = w * t
        try:
            c, s = math.cos(x), math.sin(x)
        except ValueError:  # x is infinite: math refuses it where np.cos gives NaN
            c = s = math.nan
        out += a * c
        out += b * s
    return out


def evaluate(model: FourierModel, t):
    """Evaluate the series at t (scalar or array)."""
    return evaluate_models([model], t)[0]


def evaluate_models(models, t, p: int = 0) -> list:
    """The p-th derivative of each model's series at t; p=0 is plain evaluation.

    Returns an array of t's shape per model, a float for scalar t.  Each
    differentiation maps the pair (a, b) of a term with frequency w to
    (w*b, -w*a): no finite differencing, and an overflow gives inf or NaN.

    The frequencies run in the outer loop, so cos(w t) and sin(w t) are
    computed once per frequency for all the models that share it.  Each
    model still adds a*cos then b*s per term, in its own increasing
    frequency order, and in place, so only two scratch arrays of t's
    shape exist besides the results.
    """
    import numpy as np

    coeffs = [{w: (a, b) for w, a, b in _derived(m.terms, p)} for m in models]
    t = np.asarray(t, dtype=float)
    outs = [np.full_like(t, m.a0 if p == 0 else 0.0) for m in models]
    table, term = np.empty_like(t), np.empty_like(t)
    for w in sorted({w for terms in coeffs for w in terms}):
        users = [(out, terms[w]) for out, terms in zip(outs, coeffs) if w in terms]
        for trig, i in ((np.cos, 0), (np.sin, 1)):
            trig(np.multiply(w, t, out=table), out=table)
            for out, ab in users:
                out += np.multiply(ab[i], table, out=term)
    return [float(out) if out.ndim == 0 else out for out in outs]


def analytic_derivative(model: FourierModel, t, p: int = 1):
    """Exact p-th derivative of the series at t; p=0 is plain evaluation."""
    return evaluate_models([model], t, p)[0]


def rule_errors(rule: ShiftRule, models, grid) -> tuple[float, float, float]:
    """(max |error|, sum of |error|, max scaled error) of the rule over models x grid.

    The error at t is apply_rule's estimate of the model's series minus
    the target sum_p w_p (p-th derivative); scaled, it is divided by
    1 + |target|.  Plain Python on float points: each model's series and
    its derivatives' terms are bound once, and each value is summed as
    ``evaluate_models`` sums it.  NaN is carried by hand, since max()
    drops it.
    """
    errs, scaled = [], []
    for fm in models:
        f = partial(_series, fm.a0, fm.terms)
        targets = [(w, 0.0 if p else fm.a0, _derived(fm.terms, p)) for p, w in rule.orders]
        for t in grid:
            target = sum(w * _series(a0, terms, t) for w, a0, terms in targets)
            errs.append(abs(apply_rule(rule, f, t) - target))
            scaled.append(errs[-1] / (1.0 + abs(target)))
    max_err, max_scaled = (math.nan if any(map(math.isnan, v)) else max(v) for v in (errs, scaled))
    return max_err, sum(errs), max_scaled


def rule_errors_blocked(rule: ShiftRule, models, grid, block: int) -> tuple[float, float, float]:
    """``rule_errors`` with numpy, over blocks of at most ``block`` shifted evaluations.

    The blocks hold points x phases x models (one point at least), so the
    scratch memory does not grow with the grid; the grid array itself
    does.  Per block: one (points x phases) evaluation of all models, and
    one evaluation of all models per target order.  The columns are summed
    in apply_rule's order, so each error equals ``rule_errors``' wherever
    np.cos and np.sin equal math.cos and math.sin; only the grouping of
    the sum differs.
    """
    import numpy as np

    grid = np.asarray(grid, dtype=float)
    phases = np.asarray(rule.phases, dtype=float)
    step = max(1, block // max(1, len(phases) * len(models)))
    maxima, err_sum = [], 0.0  # (max |error|, max scaled error) per block and model
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing target gives NaN errors
        for start in range(0, len(grid), step):
            points = grid[start:start + step]
            derivatives = [(w, evaluate_models(models, points, p)) for p, w in rule.orders]
            shifted = points[:, None] + phases[None, :]
            for k, values in enumerate(evaluate_models(models, shifted)):
                estimate = sum(b * column for b, column in zip(rule.coefficients, values.T))
                target = sum(w * per_model[k] for w, per_model in derivatives)
                err = np.abs(estimate - target)
                maxima.append((err.max(), (err / (1.0 + np.abs(target))).max()))
                err_sum += float(err.sum())
    max_err, max_scaled = np.max(maxima, axis=0).tolist()  # NaN propagates, unlike max()
    return max_err, err_sum, max_scaled


def _stream(noise: NoiseSpec, t: float) -> np.random.Generator:
    import numpy as np

    # Keyed by (seed, bit pattern of t): reproducible and order-independent.
    t_bits = int(np.float64(t).view(np.uint64))
    return np.random.default_rng([noise.seed, t_bits])  # every non-negative seed, used whole


def sample_noisy_batch(model: FourierModel, t: float, noise: NoiseSpec, shots: int) -> np.ndarray:
    """The first ``shots`` noisy draws at t: exact value plus seeded Gaussian noise.

    Draw k is the same whatever ``shots`` is, and the stream depends only
    on (seed, t), so sampling is reproducible regardless of call order.
    """
    import numpy as np

    exact = evaluate(model, t)
    if noise.sigma == 0.0:
        return np.full(shots, exact)
    return exact + noise.sigma * _stream(noise, t).standard_normal(shots)
