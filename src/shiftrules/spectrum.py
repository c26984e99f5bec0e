"""Eigenvalue spectra and their pairwise gap structure.

A spectrum is an ordered list of Hamiltonian eigenvalues.  A
``FrequencySet`` keeps its deduplicated positive pairwise differences (the
frequencies of the expectation function) with their multiplicities; the
signed gaps and the design-system size derive from them.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import add, gt, lt

from . import _Record

DEFAULT_DEDUP_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
PERTURBED_FRACTION = 0.1


class StructureKind(Enum):
    EQUIDISTANT = "equidistant"
    PERTURBED_EQUIDISTANT = "perturbed_equidistant"
    UNSTRUCTURED = "unstructured"


class Spectrum(_Record):
    """Ordered eigenvalues of a Hamiltonian plus an optional label."""

    _fields = ("eigenvalues", "label")

    def __init__(self, eigenvalues: tuple[float, ...], label: str | None = None):
        vals = tuple(map(float, eigenvalues))
        if len(vals) < 2:
            raise ValueError("need at least 2 eigenvalues")
        if not all(map(math.isfinite, vals)):
            raise ValueError("eigenvalues must be finite")
        if any(map(gt, vals, vals[1:])):
            raise ValueError("eigenvalues must be sorted non-decreasing")
        self.__dict__.update(eigenvalues=vals, label=label)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


class FrequencySet(_Record):
    """The distinct positive gaps of a spectrum and how many pairs share each.

    ``unique_frequencies`` are strictly increasing; ``multiplicities[j]``
    counts the eigenvalue pairs k > l whose gap merged into frequency j.
    The signed gaps and the system size ``m`` derive from the frequencies.
    """

    _fields = ("unique_frequencies", "multiplicities")

    def __init__(self, unique_frequencies: tuple[float, ...], multiplicities: tuple[int, ...]):
        freqs = unique_frequencies
        if not all(map(math.isfinite, freqs)):
            raise ValueError("frequencies must be finite")
        if len(multiplicities) != len(freqs):
            raise ValueError("need one multiplicity per frequency")
        if not all(map(lt, (0, *freqs), freqs)):  # 0 < w_1 < w_2 < ... fails: say which part
            if any(f <= 0 for f in freqs):
                raise ValueError("frequencies must be positive")
            raise ValueError("frequencies must be strictly increasing")
        self.__dict__.update(unique_frequencies=freqs, multiplicities=multiplicities)

    @property
    def m(self) -> int:
        return 2 * len(self.unique_frequencies) + 1

    @property
    def signed_gaps(self) -> tuple[float, ...]:
        """Distinct gap values ordered (0, +w1, -w1, +w2, -w2, ...)."""
        gaps = [0.0] * self.m
        gaps[1::2] = self.unique_frequencies
        gaps[2::2] = [-w for w in self.unique_frequencies]
        return tuple(gaps)


class StructureClass(_Record):
    """Structural classification of a spectrum."""

    _fields = ("kind", "delta", "epsilon")

    def __init__(self, kind: StructureKind, delta: float | None = None, epsilon: float | None = None):
        needs_delta = kind is not StructureKind.UNSTRUCTURED
        if needs_delta and (delta is None or delta <= 0):
            raise ValueError(f"{kind} requires a positive base gap")
        if not needs_delta and delta is not None:
            raise ValueError(f"{kind} must not carry a base gap")
        if epsilon is not None and kind is not StructureKind.PERTURBED_EQUIDISTANT:
            raise ValueError("epsilon is only meaningful for perturbed-equidistant spectra")
        self.__dict__.update(kind=kind, delta=delta, epsilon=epsilon)


def _runs(ordered, tol: float) -> list[tuple[int, int]]:
    """(start, stop) of each single-linkage group of ascending values at threshold tol.

    A value joins the group of the value before it when it lies less
    than tol above it (a NaN difference opens a new group).
    """
    if not ordered:
        return []
    cuts = [i for i in range(1, len(ordered)) if not ordered[i] - ordered[i - 1] < tol]
    return list(zip([0, *cuts], [*cuts, len(ordered)]))


def frequency_differences(spectrum: Spectrum, dedup_tol: float = DEFAULT_DEDUP_TOL) -> FrequencySet:
    """Compute the positive pairwise gaps and deduplicate them into frequencies.

    Gap values that differ by less than ``dedup_tol * max|eigenvalue|``
    are merged into one frequency whose multiplicity counts the merged
    pairs.  Repeated eigenvalues are merged at the same tolerance before
    the gaps are formed, since they contribute no new frequency.
    """
    if dedup_tol <= 0:
        raise ValueError("dedup_tol must be positive")
    lam = spectrum.eigenvalues  # sorted, so max|eigenvalue| sits at an end
    tol = dedup_tol * max(abs(lam[0]), abs(lam[-1]), 1e-300)

    levels = _group_means(lam, _runs(lam, tol))
    n = len(levels)
    if n < 2:
        raise ValueError("need at least 2 distinct eigenvalues after merging")

    # levels[k] - levels[l] for the pairs k > l, sorted ascending as _runs groups them
    positive = sorted([levels[k] - levels[l] for k in range(1, n) for l in range(k)])
    runs = _runs(positive, tol)
    return FrequencySet(
        unique_frequencies=_group_means(positive, runs),
        multiplicities=tuple(b - a for a, b in runs),
    )


def _group_means(ordered, runs) -> tuple[float, ...]:
    """The mean of each run of ascending values; a run of one keeps its value as it is."""
    return tuple(ordered[a] if b - a == 1 else _mean(ordered[a:b]) for a, b in runs)


def _mean(values) -> float:
    """float(np.mean(values)) bit for bit."""
    return _pairwise_sum(values) / len(values)


def _pairwise_sum(v) -> float:
    """numpy's pairwise float64 summation.

    Below 8 values the sum runs in order; up to 128 values it runs 8
    interleaved sums, adds them pairwise and then the remainder; above
    128 it splits at n // 2 rounded down to a multiple of 8.  Every sum
    starts at +0.0, as numpy's does (np.mean([-0.0, -0.0]) is +0.0).
    """
    n = len(v)
    if n < 8:
        return reduce(add, v, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, v[j:tail:8], 0.0) for j in range(8)]
        return reduce(add, v[tail:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def classify_structure(spectrum: Spectrum, rel_tol: float = DEFAULT_REL_TOL) -> StructureClass:
    """Classify a spectrum as equidistant, perturbed-equidistant, or unstructured.

    Equidistant when every adjacent gap equals the mean gap within
    ``rel_tol`` (relative); perturbed-equidistant when the maximum
    deviation stays below ``PERTURBED_FRACTION`` of the mean gap.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    lam = spectrum.eigenvalues
    gaps = [b - a for a, b in zip(lam, lam[1:])]
    delta = _mean(gaps)
    if delta <= 0:
        return StructureClass(StructureKind.UNSTRUCTURED)
    eps = max(abs(g - delta) for g in gaps)
    if eps <= rel_tol * delta:
        return StructureClass(StructureKind.EQUIDISTANT, delta=delta)
    if eps <= PERTURBED_FRACTION * delta:
        return StructureClass(StructureKind.PERTURBED_EQUIDISTANT, delta=delta, epsilon=eps)
    return StructureClass(StructureKind.UNSTRUCTURED)


def gap_generator(values) -> float | None:
    """Approximate common generator of a set of positive gap values.

    Returns g such that every value is an integer multiple of g within
    1e-9 times the largest value, or None when the values are
    incommensurate at that tolerance.
    """
    vals = sorted(float(v) for v in values if v > 0)
    if not vals:
        return None
    tol = 1e-9 * vals[-1]
    g = vals[0]
    for v in vals[1:]:
        if tol < g <= 100 * tol:
            break  # above tol, g only shrinks: the test below rejects it already
        a, b = v, g
        while b > tol:
            a, b = b, a % b
        g = a
    if g <= 100 * tol:
        return None
    if any(abs(v / g - round(v / g)) * g > tol for v in vals):
        return None
    return g
