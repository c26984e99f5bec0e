"""The trimmed hot-path functions against their earlier numpy-per-scalar forms.

Each ``_ref_*`` below is the previous implementation, kept here as the
reference.  The current code must reproduce it exactly: the same floats
(compared with ``==`` / ``np.array_equal``), the same records and
the same error message for the same first offending pair.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _dedup_values
from shiftrules import (
    EquidistantStructure,
    FourierModel,
    IllPosedError,
    RegularizationConfig,
    Spectrum,
    analytic_derivative,
    classify_structure,
    closed_form_rule,
    error_bound,
    evaluate,
    frequency_differences,
    perturbation_matrices,
    regularized_rule,
    synthesize_rule,
)
from shiftrules import synthesis
from shiftrules.equidistant import normalized_system, optimal_phases
from shiftrules.fourier import evaluate_models
from shiftrules.perturbation import PerturbationBound, PerturbationData
from shiftrules.regularization import (GAMMA_MAX, GammaSelection, RegularizedSolution,
                                       select_gamma_discrepancy, tikhonov_solve)
from shiftrules.rule import ShiftRule, VarianceReport, variance_of_estimate
from shiftrules.spectrum import DEFAULT_DEDUP_TOL, FrequencySet, gap_generator
from shiftrules.synthesis import (CONDITION_CAP, build_system, check_phase_distinctness,
                                  condition_number, solve_direct)

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


# -- the earlier implementations ---------------------------------------------

def _ref_frequency_differences(spectrum, dedup_tol=DEFAULT_DEDUP_TOL):
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    scale = max(float(np.abs(lam).max()), 1e-300)
    tol = dedup_tol * scale
    levels = np.asarray([float(np.mean(lam[g])) for g in _dedup_values(lam, tol)])
    n = len(levels)
    if n < 2:
        raise ValueError("need at least 2 distinct eigenvalues after merging")
    positive = (levels[:, None] - levels)[np.tri(n, k=-1, dtype=bool)]
    groups = _dedup_values(positive, tol)
    return FrequencySet(
        unique_frequencies=tuple(float(np.mean(positive[g])) for g in groups),
        multiplicities=tuple(len(g) for g in groups),
    )


def _ref_series(a0, terms, t):
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, a0, dtype=float)
    for w, a, b in terms:
        out = out + a * np.cos(w * t) + b * np.sin(w * t)
    return float(out) if out.ndim == 0 else out


def _ref_analytic_derivative(model, t, p):
    terms = []
    for w, a, b in model.terms:
        for _ in range(p):
            a, b = w * b, -w * a
        terms.append((w, a, b))
    return _ref_series(model.a0 if p == 0 else 0.0, terms, t)


def _ref_check_phase_distinctness(phases):
    phases = np.asarray(phases, dtype=float)
    tol = 1e-12 * max(1.0, float(np.abs(phases).max()))
    for i in range(len(phases)):
        for j in range(i + 1, len(phases)):
            if abs(phases[i] - phases[j]) < tol:
                raise IllPosedError(
                    f"duplicate shift phases: phi_{i} and phi_{j} coincide "
                    "(phi_i != phi_j violated)"
                )


def _ref_error_bound(es, pd, b0, eps):
    E, mu = normalized_system(es)
    b0 = np.asarray(b0, dtype=float)
    kE = condition_number(E)
    norm_E = float(np.linalg.norm(E, 2))
    norm_R = float(np.linalg.norm(pd.matrix, 2))
    norm_r = float(np.linalg.norm(pd.vector))
    norm_mu = float(np.linalg.norm(mu))
    relative = kE * (eps * norm_r / norm_mu + eps * norm_R / norm_E)
    absolute = eps * (norm_r + norm_R) * float(np.linalg.norm(b0))
    n, m, d = es.n, es.m, es.delta
    r_max = float(np.abs(pd.matrix).max()) * np.sqrt(m)
    loose = 4 * eps * d * (1 + np.sqrt(m) * r_max) * (n - 1) * (2**n - 1) ** 2 / np.sqrt(m)
    return PerturbationBound(relative=relative, absolute=absolute, loose=loose)


def _ref_select_gamma_discrepancy(sys, cfg):
    # the code's lower end, which data_error 0 returns: this pins the bisection, not the floor
    gamma_min = select_gamma_discrepancy(sys, RegularizationConfig()).gamma
    target = cfg.data_error
    U, s, _ = sys.svd
    beta = U.T @ sys.rhs
    outside = np.linalg.norm(sys.rhs - U @ beta)

    def residual(gamma):
        return float(np.hypot(np.linalg.norm(gamma / (s**2 + gamma) * beta), outside))

    r_min = residual(gamma_min)
    if r_min >= target:
        return GammaSelection(float(gamma_min), r_min, target, "target_below_min")
    r_max = residual(GAMMA_MAX)
    if r_max <= target:
        return GammaSelection(float(GAMMA_MAX), r_max, target, "target_above_max")
    lo, hi = np.log(gamma_min), np.log(GAMMA_MAX)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if residual(np.exp(mid)) < target:
            lo = mid
        else:
            hi = mid
    gamma = float(np.exp(0.5 * (lo + hi)))
    return GammaSelection(gamma, residual(gamma), target, "bracketed")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, IllPosedError) as exc:
        return type(exc), str(exc)


# -- spectra -----------------------------------------------------------------

scales = st.floats(0.3, 30.0)


@st.composite
def repeated(draw):
    """Integer levels with repeats, some repeats jittered below the merge tolerance."""
    levels = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=9)))
    delta, base = draw(scales), draw(st.floats(-5.0, 5.0))
    jitter = draw(st.lists(st.integers(0, 3), min_size=len(levels), max_size=len(levels)))
    lam = [base + k * delta for k in levels]
    lam = [v + j * 1e-14 * max(abs(lam[0]), abs(lam[-1])) for v, j in zip(lam, jitter)]
    return Spectrum(tuple(sorted(lam)))


@st.composite
def equidistant(draw):
    """k * delta + base for n up to 10: the base gap merges n - 1 >= 8 rounded pairs."""
    n = draw(st.integers(2, 10))
    delta, base = draw(scales), draw(st.floats(-10.0, 10.0))
    return Spectrum(tuple(base + k * delta for k in range(n)))


@st.composite
def near_coincident(draw):
    """(0, a, 2a + s, b): the gaps a and a + s lie within or a few merge tolerances apart."""
    a = draw(st.floats(0.5, 2.0))
    b = draw(st.floats(2.2, 3.0)) * a
    tol = 1e-12 * b
    step = draw(st.sampled_from([0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 10.0])) * tol
    return Spectrum((0.0, a, a + a + step, b))


spectra = st.one_of(repeated(), equidistant(), near_coincident())


@SETTINGS
@given(spec=spectra, tol=st.sampled_from([DEFAULT_DEDUP_TOL, 1e-9, 1e-6]))
def test_frequency_differences_is_bit_identical(spec, tol):
    got = _outcome(frequency_differences, spec, tol)
    want = _outcome(_ref_frequency_differences, spec, tol)
    assert got == want
    if isinstance(got, FrequencySet):
        assert all(type(w) is float for w in got.unique_frequencies)


def test_frequency_differences_covers_pairwise_mean():
    # n = 10 equidistant: the base gap merges 9 pairs, where np.mean sums pairwise
    spec = Spectrum(tuple(0.1 + k * 0.37 for k in range(10)))
    freq = frequency_differences(spec)
    assert freq.multiplicities[0] == 9
    assert freq == _ref_frequency_differences(spec)


def test_frequency_differences_rejects_single_level_like_before():
    spec = Spectrum((1.0, 1.0 + 1e-15, 1.0 + 2e-15))
    assert _outcome(frequency_differences, spec) == _outcome(_ref_frequency_differences, spec)


# -- phase distinctness ------------------------------------------------------

@st.composite
def phase_sets(draw):
    """Phases with exact duplicates, near misses and pairs 2*pi apart (not duplicates)."""
    m = draw(st.integers(2, 21))
    phases = draw(st.lists(st.floats(-30.0, 30.0), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        shift = draw(st.sampled_from([0.0, 0.0, 2 * np.pi]))
        nudge = draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-11]))
        phases[j] = phases[i] + shift + nudge * max(1.0, abs(phases[i]))
    return phases


@SETTINGS
@given(phases=phase_sets())
def test_check_phase_distinctness_is_bit_identical(phases):
    assert _outcome(check_phase_distinctness, phases) == _outcome(
        _ref_check_phase_distinctness, phases)


@pytest.mark.parametrize("phases, pair", [
    ([0.3, -1.2, 0.3, -1.2], (0, 2)),
    ([1.0, 2.0, 3.0, 2.0, 1.0], (0, 4)),
])
def test_check_phase_distinctness_names_the_first_pair(phases, pair):
    with pytest.raises(IllPosedError, match=rf"phi_{pair[0]} and phi_{pair[1]} coincide"):
        check_phase_distinctness(phases)
    with pytest.raises(IllPosedError, match=rf"phi_{pair[0]} and phi_{pair[1]} coincide"):
        _ref_check_phase_distinctness(phases)


# -- perturbation bound ------------------------------------------------------

@SETTINGS
@given(n=st.integers(2, 8), delta=scales, frac=st.floats(0.0, 0.1), seed=st.integers(0, 2**16))
def test_error_bound_is_bit_identical(n, delta, frac, seed):
    rng = np.random.default_rng(seed)
    lam = tuple(k * delta + rng.uniform(-frac, frac) * delta for k in range(n))
    spec = Spectrum(tuple(sorted(lam)))
    cls = classify_structure(spec)
    if cls.delta is None:
        cls_delta, eps = delta, frac * delta
    else:
        cls_delta, eps = cls.delta, cls.epsilon or 0.0
    es = EquidistantStructure(spec.n, cls_delta)
    pd = perturbation_matrices(es)
    b0 = closed_form_rule(es).coefficients
    assert error_bound(es, pd, b0, eps) == _ref_error_bound(es, pd, b0, eps)


# -- discrepancy gamma -------------------------------------------------------

@SETTINGS
@given(a=st.floats(0.5, 2.0), rel=st.floats(-10.0, -6.0), fourth=st.booleans(),
       seed=st.integers(0, 2**16), level=st.floats(-16.0, 4.0))
def test_select_gamma_discrepancy_is_bit_identical(a, rel, fourth, seed, level):
    lam = [0.0, a, a + a * 10**rel] + ([2.6 * a] if fourth else [])
    freq = frequency_differences(Spectrum(tuple(lam)))
    phases = -np.random.default_rng(seed).uniform(1e-3, 2 * np.pi / (0.01 * a), freq.m)
    sys = build_system(freq, phases)
    cfg = RegularizationConfig(data_error=10**level)
    assert select_gamma_discrepancy(sys, cfg) == _ref_select_gamma_discrepancy(sys, cfg)


def test_select_gamma_discrepancy_covers_every_status():
    freq = frequency_differences(Spectrum((0.0, 1.0, 1.0 + 1e-9, 2.6)))
    phases = -np.random.default_rng(5).uniform(1e-3, 2 * np.pi / 0.01, freq.m)
    sys = build_system(freq, phases)
    seen = set()
    for level in (0.0, 1e-9, 1e-7, 1e-5, 1e-3, 1e6):
        cfg = RegularizationConfig(data_error=level)
        got = select_gamma_discrepancy(sys, cfg)
        assert got == _ref_select_gamma_discrepancy(sys, cfg)
        seen.add(got.status)
    assert seen == {"target_below_min", "bracketed", "target_above_max"}


# -- normalized orders -------------------------------------------------------

@pytest.mark.parametrize("orders", [[(1, 1)], ((np.int64(2), np.float32(0.5)), (1, 2.0)), [[0, 3]]])
def test_synthesize_rule_orders_are_normalized_once_and_equal(orders):
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)))
    phases = [-0.9, -1.7, -2.6, -3.8, -4.4, -5.3, -6.1]
    rule = synthesize_rule(freq, phases, orders)
    want = tuple((int(p), float(w)) for p, w in orders)
    assert rule.orders == want
    assert [type(x) for pair in rule.orders for x in pair] == [int, float] * len(want)
    again = synthesize_rule(freq, phases, rule.orders)
    assert again.orders == want
    assert np.array_equal(again.coefficients, rule.coefficients)


@pytest.mark.parametrize("orders, message", [
    ([], "at least one derivative order"),
    ([(-1, 1.0)], "non-negative"),
    ([(1, float("nan"))], "must be finite"),
    ([(1, float("inf"))], "must be finite"),
    ([(1, True)], "must be finite"),
    ([(1, "1.0")], "must be finite"),
    ([(1, None)], "must be finite"),
])
def test_invalid_orders_still_rejected(orders, message):
    freq = frequency_differences(Spectrum((0.0, 1.0)))
    with pytest.raises(ValueError, match=message):
        synthesize_rule(freq, [-1.0, -2.0, -3.0], orders)


# -- validate's multi-model evaluation ---------------------------------------

@SETTINGS
@given(seed=st.integers(0, 2**16), k=st.integers(1, 5), shared=st.booleans())
def test_evaluate_models_matches_per_model_evaluate(seed, k, shared):
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.uniform(0.1, 6.0, 8))
    models = []
    for _ in range(k):
        freqs = pool if shared else np.sort(rng.choice(pool, rng.integers(0, 9), replace=False))
        terms = tuple((float(w), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                      for w in freqs)
        models.append(FourierModel(a0=float(rng.uniform(-1, 1)), terms=terms))
    t = rng.uniform(-5, 5, (7, 13))
    for i, (got, fm) in enumerate(zip(evaluate_models(models, t), models, strict=True)):
        assert np.array_equal(got, _ref_series(fm.a0, fm.terms, t))
        for x in (t, float(t[0, 0])):
            assert np.array_equal(evaluate(fm, x), _ref_series(fm.a0, fm.terms, x))
            for p in range(4):
                ref = _ref_analytic_derivative(fm, x, p)
                assert np.array_equal(analytic_derivative(fm, x, p), ref)
                assert np.array_equal(evaluate_models(models, x, p)[i], ref)
    scalar = float(t[0, 0])
    assert all(type(f(fm, scalar)) is float for fm in models for f in (evaluate, analytic_derivative))


# -- the direct solve, closed form, Tikhonov rule and variance ----------------
#
# The references below are the numpy-dispatch forms the solvers had before
# their hot path was trimmed, in the real arithmetic of the system C b = t
# they now solve; like the discrepancy reference, each takes the system
# ``build_system`` made.  (The paper's complex system is checked against the
# real one in test_properties.py.)  A solver output counts as equal when
# every array has the same dtype, shape and bytes (so -0.0 differs from 0.0)
# and every diagnostic the same type and value.


def _ref_gap_rhs(gaps, orders):
    """The former complex target mu(g), whose overflow error the real target keeps."""
    rhs = np.zeros(len(gaps), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, w in orders:
            rhs += w * (1j * gaps) ** p
    if not np.isfinite(rhs).all():
        raise IllPosedError(f"derivative target (i g)^p overflows for orders {list(orders)}")
    return rhs


def _ref_singular_value_condition(s, size):
    smax, smin = s.max(axis=-1), s.min(axis=-1)
    regular = smin > smax * size * np.finfo(float).eps
    return np.divide(smax, smin, out=np.full(smin.shape, np.inf), where=regular)


def _ref_coefficient_norm(b, context, condition_number=None):
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(b))
    if not np.isfinite(norm):
        raise IllPosedError(f"{context}: coefficient norm overflows", condition_number=condition_number)
    return norm


def _positive_gaps(sys):
    return sys.row_gaps[1:(len(sys.row_gaps) + 1) // 2]  # the cos rows' gaps


def _ref_rule(sys, coefficients, method, condition_number, residual, **extra):
    return ShiftRule(phases=sys.phases.copy(), coefficients=coefficients, orders=sys.orders,
                     frequencies=tuple(_positive_gaps(sys).tolist()),
                     diagnostics={"method": method, "condition_number": condition_number,
                                  "residual": residual, **extra})


def _ref_exact_rule(sys, b, method, condition_number, context):
    _ref_coefficient_norm(b, context, condition_number)
    residual = float(np.linalg.norm(sys.matrix @ b - sys.rhs))
    return _ref_rule(sys, b, method, condition_number, residual)


def _ref_solve_direct(sys):
    E = sys.matrix
    if not sys.is_square:
        raise IllPosedError(
            f"system is not square ({E.shape[0]} gap rows, {E.shape[1]} phases); "
            "the direct solver needs exactly one phase per distinct gap"
        )
    _ref_check_phase_distinctness(sys.phases)
    cond = float(_ref_singular_value_condition(np.linalg.svd(E, compute_uv=False), max(E.shape)))
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise IllPosedError(f"condition number {cond:.3g} exceeds cap {CONDITION_CAP:.3g}",
                            condition_number=cond)
    return _ref_exact_rule(sys, np.linalg.solve(E, sys.rhs), "direct", cond, "solve_direct")


def _ref_closed_form_rule(es, p=1):
    sys = build_system(es.frequency_set(), optimal_phases(es), ((p, 1.0),))
    b = sys.matrix.T @ sys.rhs / es.m
    return _ref_exact_rule(sys, b, "equidistant", 1.0, "closed_form_rule")


def _ref_tikhonov_solve(sys, gamma):
    U, s, Vh = np.linalg.svd(sys.matrix, full_matrices=False)
    b = Vh.T @ (s / (s**2 + gamma) * (U.T @ sys.rhs))
    norm = _ref_coefficient_norm(b, "tikhonov_solve")
    return RegularizedSolution(coefficients=b, gamma=float(gamma),
                               residual=float(np.linalg.norm(sys.matrix @ b - sys.rhs)), norm=norm)


def _ref_perturbation_matrices(es):
    n, d, tau, m = es.n, es.delta, es.tau, es.m
    R = np.zeros((m, m), dtype=complex)
    x = np.arange(1, m + 1)
    for k in range(1, n):
        R[2 * k - 1] = (1j * tau / d) * x * np.exp(-1j * k * x * tau)
        R[2 * k] = -(1j * tau / d) * x * np.exp(1j * k * x * tau)
    R /= np.sqrt(m)
    return PerturbationData(matrix=R, vector=1j * np.ones(m) / np.sqrt(m))


def _ref_variance_of_estimate(rule, per_point_variance):
    b = np.asarray(rule.coefficients, dtype=float)
    sig2 = np.asarray(per_point_variance, dtype=float)
    if sig2.ndim == 0:
        sig2 = np.full(len(b), float(sig2))
    if len(sig2) != len(b):
        raise ValueError("per-point variances must match the number of phases")
    if (sig2 < 0).any():
        raise ValueError("variances must be non-negative")
    return VarianceReport(variance=float(b**2 @ sig2), square_norm=rule.square_norm)


def _ref_frequency_set_checks(freqs, multiplicities):
    if not all(map(math.isfinite, freqs)):
        raise ValueError("frequencies must be finite")
    if len(multiplicities) != len(freqs):
        raise ValueError("need one multiplicity per frequency")
    if any(f <= 0 for f in freqs):
        raise ValueError("frequencies must be positive")
    if any(a >= b for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be strictly increasing")


def _ref_dedup_values(values, tol):
    vals = [float(v) for v in values]
    groups = []
    for i in sorted(range(len(vals)), key=vals.__getitem__):
        if groups and vals[i] - vals[groups[-1][-1]] < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _ref_gap_generator(values):
    vals = sorted(float(v) for v in values if v > 0)
    if not vals:
        return None
    tol = 1e-9 * vals[-1]
    g = vals[0]
    for v in vals[1:]:
        a, b = v, g
        while b > tol:
            a, b = b, a % b
        g = a
    if g <= 100 * tol:
        return None
    if any(abs(v / g - round(v / g)) * g > tol for v in vals):
        return None
    return g


def _bits(x):
    """Everything == would compare, plus the dtype, the bytes and the sign of zero."""
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return type(x), x.hex()
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return type(x), tuple(_bits(v) for v in x)
    if hasattr(x, "_fields"):
        return type(x), tuple(_bits(getattr(x, k)) for k in x._fields)
    if isinstance(x, Exception):
        return type(x), str(x), _bits(getattr(x, "condition_number", None))
    return type(x), x


def _outcome_bits(fn, *args):
    try:
        return _bits(fn(*args))
    except (ValueError, IllPosedError) as exc:
        return _bits(exc)


orders_lists = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1.0, -0.0, 0.5, -2.0, 3e-3])),
                        min_size=1, max_size=3)


@st.composite
def systems(draw):
    """Spectra of 2-6 levels (some nearly degenerate) and m phases, some duplicated or huge."""
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1))
    if n > 2 and draw(st.booleans()):  # a near-coincident gap pair: the cap
        steps[-1] = steps[0] * (1 + draw(st.sampled_from([1e-4, 1e-7, 1e-10])))
    lam = np.cumsum([draw(st.floats(-5.0, 5.0)), *steps])
    freq = frequency_differences(Spectrum(tuple(lam.tolist())))
    width = draw(st.sampled_from([2 * np.pi, 20.0, 1e3]))
    phases = draw(st.lists(st.floats(-width, 0.0), min_size=freq.m, max_size=freq.m))
    if draw(st.booleans()):
        phases[-1] = phases[0]
    orders = draw(st.sampled_from([((1, 1.0),), [(1, 1)], ((2, 1.0),)]) | orders_lists)
    return freq, phases, orders


@SETTINGS
@given(case=systems())
def test_solve_direct_is_bit_identical(case):
    freq, phases, orders = case
    got = _outcome_bits(lambda: solve_direct(build_system(freq, phases, orders)))
    assert got == _outcome_bits(lambda: _ref_solve_direct(build_system(freq, phases, orders)))


@SETTINGS
@given(case=systems(), gamma=st.sampled_from([1e-14, 1e-9, 1e-6, 1e-3, 1.0, 1e2]))
def test_tikhonov_solve_is_bit_identical(case, gamma):
    freq, phases, orders = case
    got = _outcome_bits(lambda: tikhonov_solve(build_system(freq, phases, orders), gamma))
    assert got == _outcome_bits(lambda: _ref_tikhonov_solve(build_system(freq, phases, orders), gamma))


@SETTINGS
@given(n=st.integers(2, 10), delta=scales, p=st.integers(0, 4))
def test_closed_form_and_perturbation_matrices_are_bit_identical(n, delta, p):
    es = EquidistantStructure(n, delta)
    assert _bits(closed_form_rule(es, p)) == _bits(_ref_closed_form_rule(es, p))
    assert _bits(perturbation_matrices(es)) == _bits(_ref_perturbation_matrices(es))


def test_gap_rhs_overflow_is_reported_like_before():
    """The real target refuses an overflowing (i g)^p with the complex target's error."""
    for orders in (((2, 1.0),), ((3, 1.0), (1, 1.0))):
        with pytest.raises(IllPosedError, match="overflows for orders"):
            synthesis._target(np.array([1e200]), orders)
        assert _outcome_bits(synthesis._target, np.array([1e200]), orders) == _outcome_bits(
            _ref_gap_rhs, np.array([0.0, 1e200, -1e200]), orders)


singular_values = st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324, 1e-300, 1.0, np.inf, np.nan])


@SETTINGS
@given(rows=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(singular_values, min_size=k, max_size=k), min_size=1, max_size=6)),
    size=st.integers(1, 40))
def test_singular_value_condition_is_bit_identical(rows, size):
    s = np.array(rows)
    assert _bits(synthesis._singular_value_condition(s, size)) == _bits(
        _ref_singular_value_condition(s, size))
    for row in s:
        got = synthesis._singular_value_condition(row, size)
        assert type(got) is float and _bits(got) == _bits(float(_ref_singular_value_condition(row, size)))


@SETTINGS
@given(case=systems(), scalar=st.floats(0.0, 1e100) | st.sampled_from([0.0, -0.0, 1e-300, 1.0]),
       seed=st.integers(0, 2**16))
def test_variance_of_estimate_is_bit_identical(case, scalar, seed):
    """Equal to the former code wherever that accepted the variances, ``-0.0`` included."""
    freq, phases, _ = case
    rule = regularized_rule(freq, phases, cfg=RegularizationConfig(gamma=1e-6))
    per_point = np.random.default_rng(seed).uniform(0, 3, len(rule.coefficients))
    for arg in (scalar, int(min(scalar, 1e6)), np.float64(scalar), per_point, per_point.tolist(),
                per_point[:-1], -per_point):
        want = _outcome_bits(_ref_variance_of_estimate, rule, arg)
        if want == _bits(ValueError("variances must be non-negative")):  # now named with finiteness
            want = _bits(ValueError("variances must be finite and non-negative"))
        assert _outcome_bits(variance_of_estimate, rule, arg) == want


values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, 1 + 2**-52, np.nan, np.inf, -np.inf])


@SETTINGS
@given(freqs=st.lists(values | st.integers(-3, 9), max_size=6), ordered=st.booleans(),
       extra=st.sampled_from([0, 0, -1, 1]))
def test_frequency_set_checks_are_unchanged(freqs, ordered, extra):
    """FrequencySet accepts and rejects the inputs it did, with the same message, ints included."""
    freqs = tuple(sorted(set(freqs), key=float) if ordered else freqs)
    mults = (1,) * max(len(freqs) + extra, 0)
    want = _outcome(_ref_frequency_set_checks, freqs, mults)
    got = _outcome(FrequencySet, freqs, mults)
    assert isinstance(got, FrequencySet) if want is None else got == want


@SETTINGS
@given(vals=st.lists(values, max_size=12), tol=st.sampled_from([1e-12, 1e-3, 0.5, 10.0]))
def test_dedup_values_and_gap_generator_are_unchanged(vals, tol):
    assert _dedup_values(vals, tol) == _ref_dedup_values(vals, tol)
    finite = [v for v in vals if math.isfinite(v)]
    commensurate = [abs(v) // 0.25 * 0.25 for v in finite]
    for cands in (finite, commensurate):
        got, want = gap_generator(cands), _ref_gap_generator(cands)
        assert got == want and type(got) is type(want)
