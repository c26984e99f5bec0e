"""Eigenvalue spectra and their pairwise gap structure.

A spectrum is an ordered list of Hamiltonian eigenvalues.  A
``FrequencySet`` keeps its deduplicated positive pairwise differences (the
frequencies of the expectation function) with their multiplicities; the
signed gaps and the design-system size derive from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_DEDUP_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
PERTURBED_FRACTION = 0.1


class StructureKind(Enum):
    EQUIDISTANT = "equidistant"
    PERTURBED_EQUIDISTANT = "perturbed_equidistant"
    UNSTRUCTURED = "unstructured"


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalues of a Hamiltonian plus an optional label."""

    eigenvalues: tuple[float, ...]
    label: str | None = None

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", vals)
        if len(vals) < 2:
            raise ValueError("need at least 2 eigenvalues")
        if not all(map(math.isfinite, vals)):
            raise ValueError("eigenvalues must be finite")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be sorted non-decreasing")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.eigenvalues, dtype=float)


@dataclass(frozen=True)
class FrequencySet:
    """The distinct positive gaps of a spectrum and how many pairs share each.

    ``unique_frequencies`` are strictly increasing; ``multiplicities[j]``
    counts the eigenvalue pairs k > l whose gap merged into frequency j.
    ``distinct_gaps`` and the system size ``m`` derive from the frequencies.
    """

    unique_frequencies: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        freqs = self.unique_frequencies
        if len(self.multiplicities) != len(freqs):
            raise ValueError("need one multiplicity per frequency")
        if any(f <= 0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if any(a >= b for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")

    @property
    def m(self) -> int:
        return 2 * len(self.unique_frequencies) + 1

    @property
    def distinct_gaps(self) -> np.ndarray:
        """Distinct gap values ordered (0, +w1, -w1, +w2, -w2, ...)."""
        w = np.asarray(self.unique_frequencies, dtype=float)
        out = np.empty(self.m)
        out[0], out[1::2], out[2::2] = 0.0, w, -w
        return out


@dataclass(frozen=True)
class StructureClass:
    """Structural classification of a spectrum."""

    kind: StructureKind
    delta: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        needs_delta = self.kind is not StructureKind.UNSTRUCTURED
        if needs_delta and (self.delta is None or self.delta <= 0):
            raise ValueError(f"{self.kind} requires a positive base gap")
        if not needs_delta and self.delta is not None:
            raise ValueError(f"{self.kind} must not carry a base gap")
        if self.epsilon is not None and self.kind is not StructureKind.PERTURBED_EQUIDISTANT:
            raise ValueError("epsilon is only meaningful for perturbed-equidistant spectra")


def _dedup_values(values, tol: float) -> list[list[int]]:
    """Single-linkage grouping of values with link threshold tol.

    Returns the indices into ``values`` of each group, groups in increasing
    value order and members in ascending value order: two sorted neighbours
    share a group when they differ by less than tol.
    """
    vals = np.asarray(values, dtype=float).tolist()
    groups: list[list[int]] = []
    for i in sorted(range(len(vals)), key=vals.__getitem__):
        if groups and vals[i] - vals[groups[-1][-1]] < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


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

    levels = _group_means(lam, _dedup_values(lam, tol))
    n = len(levels)
    if n < 2:
        raise ValueError("need at least 2 distinct eigenvalues after merging")

    # levels[k] - levels[l] for the pairs k > l, k-major
    positive = [levels[k] - levels[l] for k in range(1, n) for l in range(k)]
    groups = _dedup_values(positive, tol)
    return FrequencySet(
        unique_frequencies=_group_means(positive, groups),
        multiplicities=tuple(len(g) for g in groups),
    )


def _group_means(values, groups) -> tuple[float, ...]:
    """np.mean of each group of values; a group of one keeps its value as it is."""
    return tuple(
        values[g[0]] if len(g) == 1 else float(np.mean([values[i] for i in g]))
        for g in groups
    )


def classify_structure(spectrum: Spectrum, rel_tol: float = DEFAULT_REL_TOL) -> StructureClass:
    """Classify a spectrum as equidistant, perturbed-equidistant, or unstructured.

    Equidistant when every adjacent gap equals the mean gap within
    ``rel_tol`` (relative); perturbed-equidistant when the maximum
    deviation stays below ``PERTURBED_FRACTION`` of the mean gap.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    gaps = np.diff(spectrum.as_array())
    delta = float(gaps.mean())
    if delta <= 0:
        return StructureClass(StructureKind.UNSTRUCTURED)
    eps = float(np.abs(gaps - delta).max())
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
        a, b = v, g
        while b > tol:
            a, b = b, a % b
        g = a
    if g <= 100 * tol:
        return None
    if any(abs(v / g - round(v / g)) * g > tol for v in vals):
        return None
    return g
