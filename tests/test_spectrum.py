import numpy as np
import pytest

from conftest import _dedup_values, random_spectrum
from shiftrules import (
    Spectrum,
    StructureKind,
    classify_structure,
    frequency_differences,
)
from shiftrules.spectrum import FrequencySet, gap_generator


def test_spectrum_rejects_short_unsorted_and_nonfinite():
    with pytest.raises(ValueError, match="at least 2"):
        Spectrum((0.0,))
    with pytest.raises(ValueError, match="sorted"):
        Spectrum((1.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        Spectrum((0.0, float("nan")))


@pytest.mark.parametrize("eigenvalues", [(-1e308, 1e308), (-1e308, 0.0, 1e308)])
def test_gaps_that_overflow_are_rejected(eigenvalues):
    # finite eigenvalues, infinite gap: checked before monotonicity, which
    # (inf, inf) from the second spectrum would fail first
    with pytest.raises(ValueError, match="^frequencies must be finite$"):
        frequency_differences(Spectrum(eigenvalues))
    with pytest.raises(ValueError, match="^frequencies must be finite$"):
        FrequencySet((1.0, float("nan")), (1, 1))


def test_single_pair_gaps():
    freq = frequency_differences(Spectrum((0.0, 1.0)), dedup_tol=1e-12)
    assert freq.m == 3
    assert freq.unique_frequencies == (1.0,)
    assert sorted(freq.signed_gaps) == [-1.0, 0.0, 1.0]


def test_equidistant_gap_count_reduces():
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.0)), dedup_tol=1e-12)
    assert freq.m == 5  # 2n - 1
    assert freq.unique_frequencies == (1.0, 2.0)
    assert freq.multiplicities == (2, 1)
    np.testing.assert_allclose(freq.signed_gaps, [0.0, 1.0, -1.0, 2.0, -2.0])


def test_all_distinct_gaps_full_count():
    freq = frequency_differences(Spectrum((0.0, 1.0, 2.5)), dedup_tol=1e-12)
    assert freq.m == 7  # n(n-1) + 1
    assert freq.unique_frequencies == (1.0, 1.5, 2.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equidistant_yields_2n_minus_1(n):
    spec = Spectrum(tuple(float(j) * 0.7 for j in range(n)))
    freq = frequency_differences(spec)
    assert freq.m == 2 * n - 1
    np.testing.assert_allclose(
        sorted(set(np.abs(freq.signed_gaps))), [0.7 * k for k in range(n)]
    )


def test_signed_gaps_closed_under_negation_zero_once():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_spectrum(rng, int(rng.integers(2, 6)))
        freq = frequency_differences(spec)
        gaps = np.array(freq.signed_gaps)
        assert np.count_nonzero(gaps == 0.0) == 1
        nonzero = sorted(gaps[gaps != 0.0])
        np.testing.assert_allclose(nonzero, sorted(-g for g in nonzero))


def test_dedup_tolerance_merges_near_gaps():
    spec = Spectrum((0.0, 1.0, 1.0 + 1e-9))
    assert frequency_differences(spec, dedup_tol=1e-12).m == 7
    # at a loose tolerance the 1e-9 gap merges with zero and 1+1e-9 with 1
    assert frequency_differences(spec, dedup_tol=1e-6).m == 3


def test_repeated_eigenvalues_merge_before_gaps():
    freq = frequency_differences(Spectrum((0.0, 0.0, 1.0)))
    assert freq.m == 3
    with pytest.raises(ValueError, match="distinct"):
        frequency_differences(Spectrum((1.0, 1.0)))


def test_frequencies_match_pair_loop_reference():
    # gaps of the merged levels for pairs k > l in k-major order, grouped as in
    # frequency_differences: the frequencies must agree bit for bit
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        lam = np.sort(np.round(rng.uniform(0, 4, n), 1) + rng.normal(0, 1e-13, n))
        if np.ptp(lam) < 0.05:
            continue
        tol = 1e-12 * np.abs(lam).max()
        levels = [float(np.mean(lam[g])) for g in _dedup_values(lam, tol)]
        gaps = [levels[k] - levels[l] for k in range(len(levels)) for l in range(k)]
        groups = _dedup_values(gaps, tol)
        freq = frequency_differences(Spectrum(tuple(lam)))
        means = tuple(float(np.mean([gaps[i] for i in g])) for g in groups)
        assert freq.unique_frequencies == means
        assert freq.multiplicities == tuple(len(g) for g in groups)


def test_classify_exact_equidistant():
    cls = classify_structure(Spectrum((0.0, 1.0, 2.0, 3.0)), rel_tol=1e-9)
    assert cls.kind is StructureKind.EQUIDISTANT
    assert cls.delta == pytest.approx(1.0)
    assert cls.epsilon is None


def test_classify_perturbed():
    cls = classify_structure(Spectrum((0.0, 1.001, 2.0, 2.999)))
    assert cls.kind is StructureKind.PERTURBED_EQUIDISTANT
    assert cls.delta == pytest.approx(1.0, abs=5e-3)
    assert cls.epsilon == pytest.approx(0.001, abs=5e-4)


def test_classify_unstructured():
    cls = classify_structure(Spectrum((0.0, 1.0, 2.5)))
    assert cls.kind is StructureKind.UNSTRUCTURED
    assert cls.delta is None and cls.epsilon is None


def test_classify_scale_covariant():
    rng = np.random.default_rng(11)
    base = Spectrum((0.0, 1.003, 1.998, 3.001))
    ref = classify_structure(base)
    for _ in range(10):
        c = float(rng.uniform(0.1, 50.0))
        scaled = classify_structure(Spectrum(tuple(c * v for v in base.eigenvalues)))
        assert scaled.kind is ref.kind
        assert scaled.delta == pytest.approx(c * ref.delta, rel=1e-12)
        assert scaled.epsilon == pytest.approx(c * ref.epsilon, rel=1e-9)


def test_gap_generator():
    assert gap_generator([1.0, 2.0]) == pytest.approx(1.0)
    assert gap_generator([1.0, 1.5, 2.5]) == pytest.approx(0.5)
    assert gap_generator([1.0, np.sqrt(2.0)]) is None
