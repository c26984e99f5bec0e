"""Property tests over random spectra: one gap grouping, exact synthesized rules."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftrules import (
    HamiltonianModel,
    Spectrum,
    compatibility_residual,
    condition_number,
    frequency_differences,
    from_hamiltonian,
    solve_direct,
    synthesize_rule,
)
from shiftrules.cli import _auto_phases
from shiftrules.synthesis import build_system

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
@given(spec=spectra(), seed=st.integers(0, 2**32 - 1))
def test_auto_phases_give_exact_direct_rule(spec, seed):
    # the CLI's auto phases resolve every gap separation >= 1e-3 here
    freq = frequency_differences(spec)
    rule = synthesize_rule(freq, _auto_phases(freq, seed))
    assert compatibility_residual(rule, freq) <= 1e-8
