"""Property tests over random spectra: one gap grouping, exact synthesized rules, numpy-equal statistics."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import HamiltonianModel, from_hamiltonian
from paper_forms import paper_system, true_gap_residual
from shiftrules import (
    EquidistantStructure,
    Spectrum,
    StructureKind,
    classify_structure,
    closed_form_rule,
    compatibility_residual,
    condition_number,
    frequency_differences,
    optimal_phases,
    solve_direct,
    synthesize_rule,
    tikhonov_solve,
)
from shiftrules.cli import VALIDATION_BOUND
from shiftrules.serialize import dumps_report
from shiftrules.spectrum import DEFAULT_REL_TOL, PERTURBED_FRACTION, StructureClass, _mean
from shiftrules.synthesis import auto_phases, build_system, rule_for

MIN_SEPARATION = 1e-3


@st.composite
def spectra(draw):
    """Sorted spectra, n <= 6, whose distinct gap values are >= 1e-3 apart."""
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    lam = np.concatenate([[draw(st.floats(-2.0, 2.0))], steps]).cumsum()
    gaps = np.sort(np.abs(lam[:, None] - lam[None, :]).ravel())
    distinct = gaps[np.diff(gaps, prepend=-1.0) > 1e-9]  # zero and the positive gap values
    assume(np.diff(distinct).min() >= MIN_SEPARATION)
    return Spectrum(tuple(lam))


def _hamiltonian(spec, seed):
    # a generic Hermitian observable and state: every gap carries weight
    rng = np.random.default_rng(seed)
    n = spec.n
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return HamiltonianModel(spec.eigenvalues, A + A.conj().T, psi / np.linalg.norm(psi))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=spectra(), seed=st.integers(0, 2**32 - 1))
def test_oracle_frequencies_are_gap_frequencies(spec, seed):
    unique = np.asarray(frequency_differences(spec).unique_frequencies)
    model = from_hamiltonian(_hamiltonian(spec, seed))
    assert model.frequencies
    for w in model.frequencies:
        assert np.abs(unique - w).min() <= 1e-12 * w


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=spectra(), seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3))
def test_synthesized_rule_is_compatible(spec, seed, p):
    freq = frequency_differences(spec)
    rng = np.random.default_rng(seed)
    width = 2 * np.pi / min(freq.unique_frequencies)
    draws = [rng.uniform(-width, 0.0, freq.m) for _ in range(16)]
    phases = min(draws, key=lambda ph: condition_number(build_system(freq, ph).matrix))
    assume(condition_number(build_system(freq, phases).matrix) <= 1e6)
    rule = synthesize_rule(freq, phases)
    assert compatibility_residual(rule, freq) <= 1e-8
    # a hand-built order-p system labels its rule with order p, not the default
    rule = solve_direct(build_system(freq, phases, ((p, 1.0),)))
    assert rule.orders == ((p, 1.0),)
    assert compatibility_residual(rule, freq) <= 1e-8


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=spectra())
def test_auto_phases_give_exact_direct_rule(spec):
    # the CLI's auto phases resolve every gap separation >= 1e-3 here
    freq = frequency_differences(spec)
    rule = synthesize_rule(freq, auto_phases(freq))
    assert compatibility_residual(rule, freq) <= 1e-8


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(2, 8), mantissa=st.floats(1.0, 10.0), decade=st.integers(-4, 4))
def test_auto_phases_on_an_equidistant_spectrum_are_its_optimal_phases(n, mantissa, decade):
    delta = mantissa * 10.0**decade
    freq = frequency_differences(Spectrum(tuple(k * delta for k in range(n))))
    phases = auto_phases(freq)
    optimal = optimal_phases(EquidistantStructure(n, delta))
    np.testing.assert_allclose(phases, optimal, rtol=1e-12, atol=0)
    assert condition_number(build_system(freq, phases).matrix) <= 1 + 1e-12


@st.composite
def paper_spectra(draw):
    """Random, near-degenerate (two gaps 1e-12 to 1e-4 apart, relative) and equidistant, n <= 6."""
    n, kind = draw(st.integers(2, 6)), draw(st.sampled_from(["random", "near", "equidistant"]))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    if kind == "equidistant":
        steps = [steps[0]] * (n - 1)
    elif kind == "near" and n > 2:
        steps[-1] = steps[0] * (1 + draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-4])))
    return Spectrum(tuple(np.concatenate([[0.0], np.cumsum(steps)]).tolist()))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(spec=paper_spectra(), p=st.integers(1, 3))
def test_real_system_is_the_paper_system_rotated(spec, p):
    """C b = t against the paper's complex E b = mu at the rule's phases: the same
    residual norm, condition number, per-gap residual and Tikhonov rule."""
    rule, _ = rule_for(frequency_differences(spec), p)
    freq, b = frequency_differences(spec), rule.coefficients
    real, paper = build_system(freq, rule.phases, rule.orders), paper_system(freq, rule.phases, rule.orders)
    scale = 1 + np.linalg.norm(b)
    r = np.linalg.norm(real.matrix @ b - real.rhs)
    assert abs(r - np.linalg.norm(paper.matrix @ b - paper.rhs)) <= 1e-14 * scale
    cond = condition_number(paper.matrix)
    if cond < 1e6:  # each factorization moves s_min by about m * eps * s_max
        assert abs(condition_number(real.matrix) / cond - 1) <= 1e-12 + freq.m * 2.0**-52 * cond
    per_gap = np.abs(paper.matrix @ b - paper.rhs).max()
    assert abs(compatibility_residual(rule, freq) - per_gap) <= 1e-14 * scale
    gamma = 1e-6
    U, s, Vh = np.linalg.svd(paper.matrix, full_matrices=False)
    filtered = (Vh.conj().T @ (s / (s**2 + gamma) * (U.conj().T @ paper.rhs))).real
    tikhonov = tikhonov_solve(real, gamma).coefficients
    assert np.linalg.norm(tikhonov - filtered) <= 1e-12 * np.linalg.norm(filtered)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n=st.integers(3, 6), delta=st.floats(0.2, 5.0), offset=st.floats(-5.0, 5.0),
       jitter=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6), p=st.integers(1, 2))
def test_perturbed_spectra_get_a_rule_exact_on_their_own_gaps(n, delta, offset, jitter, p):
    """Auto synthesis gives a perturbed spectrum no closed form of its mean gap."""
    exact = Spectrum(tuple(offset + k * delta for k in range(n)))
    assert [a.method for a in rule_for(frequency_differences(exact), p)[1]] == ["direct"]
    spec = Spectrum(tuple(offset + (k + jitter[k]) * delta for k in range(n)))
    assume(classify_structure(spec).kind is StructureKind.PERTURBED_EQUIDISTANT)
    rule, attempts = rule_for(frequency_differences(spec), p)
    assert "equidistant" not in [a.method for a in attempts]
    if attempts[-1].method == "direct":
        assert compatibility_residual(rule, frequency_differences(spec)) <= VALIDATION_BOUND
    else:
        assert [(a.method, a.left) for a in attempts] == [("direct", "ill_posed"), ("tikhonov", None)]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(3, 8), delta=st.floats(0.2, 5.0), offset=st.floats(-5.0, 5.0),
       decade=st.floats(-10.0, -3.0), jitter=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       p=st.integers(1, 3))
def test_spectra_near_a_lattice_are_solved_on_their_own_gaps(n, delta, offset, decade, jitter, p):
    """A spectrum within rel_tol of a lattice gets no closed form of its mean gap.

    Each level moves by up to 10**decade (relative to delta), so the
    spectrum classifies as equidistant at rel_tol = 4 * 10**decade; auto
    synthesis still solves on the spectrum's own gaps, exactly or through
    a Tikhonov fallback that follows an ill-posed direct solve.
    """
    size = 10.0**decade
    spec = Spectrum(tuple(offset + (k + size * jitter[k]) * delta for k in range(n)))
    assert classify_structure(spec, rel_tol=4 * size).kind is StructureKind.EQUIDISTANT
    freq = frequency_differences(spec)
    rule, attempts = rule_for(freq, p)
    assert "equidistant" not in [a.method for a in attempts]
    if attempts[-1].method == "direct":
        assert compatibility_residual(rule, freq) <= VALIDATION_BOUND
    else:
        assert [(a.method, a.left) for a in attempts] == [("direct", "ill_posed"), ("tikhonov", None)]


@st.composite
def near_degenerate_spectra(draw):
    """n = 3-6 levels with one or two close level or gap pairs at relative separation 1e-12 to 1e-4."""
    n = draw(st.integers(3, 6))
    steps = draw(st.lists(st.floats(0.3, 2.0), min_size=n - 1, max_size=n - 1))
    close = draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=2, unique=True))
    for i in close:
        separation = 10.0 ** draw(st.floats(-12.0, -4.0))
        others = [j for j in range(n - 1) if j not in close]
        if others and draw(st.booleans()):  # a close gap pair: step i next to another step
            steps[i] = steps[draw(st.sampled_from(others))] * (1.0 + separation)
        else:  # a close level pair
            steps[i] *= separation
    return Spectrum(tuple(np.concatenate([[draw(st.floats(-2.0, 2.0))], steps]).cumsum().tolist()))


# A level pair 1.17e-12 apart: auto_phases picks two phases equal modulo the
# other gap's period, which only the rank cut, not the duplicate check, judges.
TWIN_PHASES_MODULO_PERIOD = Spectrum((-0.4817804553308287, -0.48178045532965874, 0.6179017046085349))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(spec=near_degenerate_spectra(), p=st.integers(1, 3))
@example(spec=TWIN_PHASES_MODULO_PERIOD, p=1)
@example(spec=TWIN_PHASES_MODULO_PERIOD, p=2)
@example(spec=TWIN_PHASES_MODULO_PERIOD, p=3)
def test_near_degenerate_spectra_get_an_exact_auto_rule(spec, p):
    """The auto rule of a near-degenerate spectrum is exact on its gaps, ill-posed direct solve or not.

    The direct solve refuses most of these at the condition cap; the
    Tikhonov fallback at the squared rank cut is then exact as well.
    """
    freq = frequency_differences(spec)
    rule, _ = rule_for(freq, p)
    assert compatibility_residual(rule, freq) <= VALIDATION_BOUND
    # Where frequency_differences merged distinct true gaps, the rule is exact
    # only on the merged value; that merge is ROADMAP item 3, not this solve's.
    with mpmath.workdps(40):
        lam = [mpmath.mpf(v) for v in spec.eigenvalues]
        true_gaps = {a - c for a in lam for c in lam if a > c}
    assume(len(true_gaps) == len(freq.unique_frequencies))
    assert true_gap_residual(rule, spec.eigenvalues) <= VALIDATION_BOUND


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
def test_auto_rule_on_an_exact_lattice_is_the_closed_form(n):
    """On an exact lattice the direct solve at auto_phases reproduces closed_form_rule."""
    for delta in (0.37, 1.0, 2.9):
        for p in (1, 2, 3):
            lattice = Spectrum(tuple(k * delta for k in range(n)))
            rule, attempts = rule_for(frequency_differences(lattice), p)
            closed = closed_form_rule(EquidistantStructure(n, delta), p).coefficients
            assert [a.method for a in attempts] == ["direct"], (n, delta, p)
            assert np.linalg.norm(rule.coefficients - closed) <= 1e-12 * np.linalg.norm(closed), (n, delta, p)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.3, 1.0]))
def test_mean_is_numpy_mean_bit_for_bit(n, seed, zeros):
    # lengths 1-300 reach the sequential (< 8), 8-way (8-128) and split (> 128) sums;
    # magnitudes span 60 decades, and a share of the values is -0.0
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
    values = np.where(rng.random(n) < zeros, -0.0, values).tolist()
    assert _mean(values).hex() == float(np.mean(values)).hex()


@st.composite
def near_equidistant_spectra(draw):
    """Sorted spectra, n <= 140: steps delta * (1 + u), u uniform within a drawn spread."""
    n, seed = draw(st.integers(2, 140)), draw(st.integers(0, 2**32 - 1))
    delta, start = draw(st.floats(1e-3, 1e3)), draw(st.floats(-1e3, 1e3))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.04, 0.5]))
    u = np.random.default_rng(seed).uniform(-spread, spread, n - 1)
    lam = [start]
    for step in (delta * (1.0 + u)).tolist():
        lam.append(lam[-1] + step)
    return Spectrum(tuple(lam))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=near_equidistant_spectra())
def test_classification_uses_numpy_gap_statistics_bit_for_bit(spec):
    gaps = np.diff(np.asarray(spec.eigenvalues, dtype=float))
    delta = float(gaps.mean())
    eps = float(np.abs(gaps - delta).max())
    if delta <= 0 or eps > PERTURBED_FRACTION * delta:
        expected = StructureClass(StructureKind.UNSTRUCTURED)
    elif eps <= DEFAULT_REL_TOL * delta:
        expected = StructureClass(StructureKind.EQUIDISTANT, delta=delta)
    else:
        expected = StructureClass(StructureKind.PERTURBED_EQUIDISTANT, delta=delta, epsilon=eps)
    assert classify_structure(spec) == expected  # positive floats: == is bit equality


def test_report_sanitizes_numpy_values_as_before():
    data = {"f32": np.float32(0.1), "i64": np.int64(-7), "f64": np.float64(1 / 3),
            "values": np.array([1.5, np.nan, np.inf, -np.inf]), "grid": np.arange(4.0).reshape(2, 2),
            "nested": [np.float32(np.inf), (np.int64(2), np.float64(-0.0)), {"n": np.float64(np.nan)}],
            "plain": [2.5, 3, None, "text", True, float("inf")]}
    expected = {"f32": 0.10000000149011612, "i64": -7, "f64": 0.3333333333333333,
                "values": [1.5, None, None, None], "grid": [[0.0, 1.0], [2.0, 3.0]],
                "nested": [None, [2, -0.0], {"n": None}], "plain": [2.5, 3, None, "text", True, None]}
    assert dumps_report(data) == json.dumps(expected, indent=2, sort_keys=True)
