"""The trimmed hot-path functions against their earlier numpy-per-scalar forms.

Each ``_ref_*`` below is the previous implementation, kept here as the
reference.  The current code must reproduce it exactly: the same floats
(compared with ``==`` / ``np.array_equal``), the same dataclasses and
the same error message for the same first offending pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrules import (
    EquidistantStructure,
    FourierModel,
    IllPosedError,
    RegularizationConfig,
    Spectrum,
    classify_structure,
    closed_form_rule,
    error_bound,
    evaluate,
    frequency_differences,
    perturbation_matrices,
    synthesize_rule,
)
from shiftrules.equidistant import normalized_system
from shiftrules.fourier import evaluate_models
from shiftrules.perturbation import PerturbationBound
from shiftrules.regularization import GAMMA_MAX, GAMMA_MIN, GammaSelection, select_gamma_discrepancy
from shiftrules.spectrum import DEFAULT_DEDUP_TOL, FrequencySet, _dedup_values, gap_generator
from shiftrules.synthesis import build_system, check_phase_distinctness, condition_number

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


# -- the earlier implementations ---------------------------------------------

def _ref_frequency_differences(spectrum, dedup_tol=DEFAULT_DEDUP_TOL):
    lam = spectrum.as_array()
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


def _ref_check_phase_distinctness(phases, frequencies):
    phases = np.asarray(phases, dtype=float)
    g = gap_generator(frequencies)
    tol = 1e-12 * max(1.0, float(np.abs(phases).max()))
    for i in range(len(phases)):
        for j in range(i + 1, len(phases)):
            d = abs(phases[i] - phases[j])
            if g is not None:
                period = 2 * np.pi / g
                d = min(d % period, period - d % period)
            if d < tol:
                raise IllPosedError(
                    f"duplicate shift phases: phi_{i} and phi_{j} coincide "
                    "(phi_i != phi_j + 2*pi*c violated)"
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
    target = cfg.data_error
    U, s, _ = sys.svd
    beta = U.conj().T @ sys.rhs
    outside = np.linalg.norm(sys.rhs - U @ beta)

    def residual(gamma):
        return float(np.hypot(np.linalg.norm(gamma / (s**2 + gamma) * beta), outside))

    r_min = residual(GAMMA_MIN)
    if r_min >= target:
        return GammaSelection(float(GAMMA_MIN), r_min, target, "target_below_min")
    r_max = residual(GAMMA_MAX)
    if r_max <= target:
        return GammaSelection(float(GAMMA_MAX), r_max, target, "target_above_max")
    lo, hi = np.log(GAMMA_MIN), np.log(GAMMA_MAX)
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
    """Phases with exact duplicates, duplicates modulo 2*pi/g and near misses."""
    g = draw(st.sampled_from([None, 0.5, 1.0, 0.37]))
    freqs = (0.7, 1.3, 2.9) if g is None else tuple(k * g for k in (1, 2, 3, 5))
    m = draw(st.integers(2, 21))
    phases = draw(st.lists(st.floats(-30.0, 30.0), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        shift = 0.0 if g is None else draw(st.integers(-4, 4)) * 2 * np.pi / g
        nudge = draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-11]))
        phases[j] = phases[i] + shift + nudge * max(1.0, abs(phases[i]))
    return phases, freqs


@SETTINGS
@given(case=phase_sets())
def test_check_phase_distinctness_is_bit_identical(case):
    phases, freqs = case
    assert _outcome(check_phase_distinctness, phases, freqs) == _outcome(
        _ref_check_phase_distinctness, phases, freqs)


@pytest.mark.parametrize("phases, freqs, pair", [
    ([0.3, -1.2, 0.3, -1.2], (1.0, 2.0), (0, 2)),
    ([0.3, -1.2, 0.7, -1.2 + 2 * np.pi], (1.0, 2.0), (1, 3)),
    ([0.5, 0.5 + 4 * np.pi / 0.5, 2.0], (0.5, 1.5), (0, 1)),
    ([1.0, 2.0, 3.0, 2.0, 1.0], (0.7, 1.9), (0, 4)),
])
def test_check_phase_distinctness_names_the_first_pair(phases, freqs, pair):
    with pytest.raises(IllPosedError, match=rf"phi_{pair[0]} and phi_{pair[1]} coincide"):
        check_phase_distinctness(phases, freqs)
    with pytest.raises(IllPosedError, match=rf"phi_{pair[0]} and phi_{pair[1]} coincide"):
        _ref_check_phase_distinctness(phases, freqs)


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
    for got, fm in zip(evaluate_models(models, t), models, strict=True):
        assert np.array_equal(got, evaluate(fm, t))
