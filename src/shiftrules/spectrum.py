"""Eigenvalue spectra, pairwise gap structure, and cluster grouping.

A spectrum is an ordered list of Hamiltonian eigenvalues.  Everything the
shift-rule machinery needs is derived from the signed pairwise differences
(the "gaps"): the deduplicated positive gap values are the frequencies of
the expectation function, and the number of distinct gap values (zero
included) fixes the size of the design system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_DEDUP_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
PERTURBED_FRACTION = 0.1


class StructureKind(Enum):
    EQUIDISTANT = "equidistant"
    PERTURBED_EQUIDISTANT = "perturbed_equidistant"
    CLUSTERED_SETS = "clustered_sets"
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
        if not all(np.isfinite(vals)):
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
    """Signed pairwise gaps and the deduplicated positive frequencies.

    ``signed_gaps`` keeps one entry per ordered index pair (k, l) with
    k != l, plus a single zero entry for the diagonal, so the list is
    closed under negation.  ``unique_frequencies`` are the distinct
    positive gap values (strictly increasing) with their multiplicities,
    and ``m = 2 * len(unique_frequencies) + 1`` is the system size.
    """

    signed_gaps: tuple[tuple[tuple[int, int], float], ...]
    unique_frequencies: tuple[float, ...]
    multiplicities: tuple[int, ...]
    m: int

    def __post_init__(self):
        freqs = self.unique_frequencies
        if any(f <= 0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if any(a >= b for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if self.m != 2 * len(freqs) + 1:
            raise ValueError("m must equal 2 * len(unique_frequencies) + 1")

    @property
    def distinct_gaps(self) -> np.ndarray:
        """Distinct gap values ordered (0, +w1, -w1, +w2, -w2, ...)."""
        out = [0.0]
        for w in self.unique_frequencies:
            out.extend((w, -w))
        return np.asarray(out, dtype=float)

    def pairwise_gaps(self) -> np.ndarray:
        """All signed gap values in storage order (zero entry first)."""
        return np.asarray([g for _, g in self.signed_gaps], dtype=float)


@dataclass(frozen=True)
class StructureClass:
    """Structural classification of a spectrum."""

    kind: StructureKind
    delta: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        needs_delta = self.kind in (
            StructureKind.EQUIDISTANT,
            StructureKind.PERTURBED_EQUIDISTANT,
            StructureKind.CLUSTERED_SETS,
        )
        if needs_delta and (self.delta is None or self.delta <= 0):
            raise ValueError(f"{self.kind} requires a positive base gap")
        if not needs_delta and self.delta is not None:
            raise ValueError(f"{self.kind} must not carry a base gap")
        if self.epsilon is not None and self.kind is not StructureKind.PERTURBED_EQUIDISTANT:
            raise ValueError("epsilon is only meaningful for perturbed-equidistant spectra")


@dataclass(frozen=True)
class ClusterSet:
    """Eigenvalues from several spectrum realizations grouped into sets.

    ``members[i]`` lists ``(realization, value, offset)`` for cluster i,
    where offset is the distance to the cluster median.  ``widths[i]`` is
    the maximum absolute offset in cluster i.
    """

    medians: tuple[float, ...]
    members: tuple[tuple[tuple[int, float, float], ...], ...]
    widths: tuple[float, ...]
    n_realizations: int
    median_gap_deviation: float

    @property
    def n(self) -> int:
        return len(self.medians)

    @property
    def median_gap(self) -> float:
        gaps = np.diff(self.medians)
        return float(gaps.mean())

    def realization_values(self, l: int) -> np.ndarray:
        """Eigenvalues of realization ``l`` ordered by cluster index."""
        out = []
        for cluster in self.members:
            vals = [v for (r, v, _) in cluster if r == l]
            if len(vals) != 1:
                raise ValueError(f"realization {l} missing from a cluster")
            out.append(vals[0])
        return np.asarray(out, dtype=float)


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
    """Compute all signed pairwise gaps and the deduplicated frequencies.

    Gap values that differ by less than ``dedup_tol * max|eigenvalue|``
    are merged into one frequency whose multiplicity counts the merged
    pairs.  Repeated eigenvalues are merged at the same tolerance before
    the gaps are formed, since they contribute no new frequency.
    """
    if dedup_tol <= 0:
        raise ValueError("dedup_tol must be positive")
    lam = spectrum.as_array()
    scale = max(float(np.abs(lam).max()), 1e-300)
    tol = dedup_tol * scale

    levels = np.asarray([float(np.mean(lam[g])) for g in _dedup_values(lam, tol)])
    n = len(levels)
    if n < 2:
        raise ValueError("need at least 2 distinct eigenvalues after merging")

    signed: list[tuple[tuple[int, int], float]] = [((0, 0), 0.0)]
    positive: list[float] = []
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            signed.append(((k, l), float(levels[k] - levels[l])))
            if k > l:
                positive.append(float(levels[k] - levels[l]))

    positive = np.asarray(positive)
    groups = _dedup_values(positive, tol)
    freqs = tuple(float(np.mean(positive[g])) for g in groups)
    mult = tuple(len(g) for g in groups)
    return FrequencySet(
        signed_gaps=tuple(signed),
        unique_frequencies=freqs,
        multiplicities=mult,
        m=2 * len(freqs) + 1,
    )


def classify_structure(
    spectrum: Spectrum,
    rel_tol: float = DEFAULT_REL_TOL,
    perturbed_fraction: float = PERTURBED_FRACTION,
) -> StructureClass:
    """Classify a spectrum as equidistant, perturbed-equidistant, or unstructured.

    Equidistant when every adjacent gap equals the mean gap within
    ``rel_tol`` (relative); perturbed-equidistant when the maximum
    deviation stays below ``perturbed_fraction`` of the mean gap.
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
    if eps <= perturbed_fraction * delta:
        return StructureClass(StructureKind.PERTURBED_EQUIDISTANT, delta=delta, epsilon=eps)
    return StructureClass(StructureKind.UNSTRUCTURED)


def cluster_realizations(realizations: list[Spectrum], gap_factor: float) -> ClusterSet:
    """Sort eigenvalues from k spectrum realizations into n clusters.

    Pools all k*n eigenvalues and applies single-linkage grouping: two
    adjacent sorted values link when their gap is at most ``gap_factor``
    times the mean adjacent gap of the pooled values.  Exactly n clusters
    of size k (one member per realization) must emerge, and every cluster
    width must stay below the minimum gap between adjacent medians.
    """
    if gap_factor <= 0:
        raise ValueError("gap_factor must be positive")
    if not realizations:
        raise ValueError("need at least one realization")
    n = realizations[0].n
    if any(s.n != n for s in realizations):
        raise ValueError("all realizations must have the same number of eigenvalues")
    k = len(realizations)

    pooled = [(float(v), l) for l, spec in enumerate(realizations) for v in spec.eigenvalues]
    values = np.asarray([v for v, _ in pooled])
    span = values.max() - values.min()
    if span <= 0:
        raise ValueError("pooled eigenvalues are all identical; cannot form clusters")
    mean_gap = span / (len(values) - 1)
    threshold = gap_factor * mean_gap
    # neighbours link at a gap of at most threshold: the next float up is the strict bound
    groups = _dedup_values(values, np.nextafter(threshold, np.inf))
    clusters = [[pooled[i] for i in g] for g in groups]

    if len(clusters) != n:
        raise ValueError(
            f"grouping produced {len(clusters)} clusters, expected {n} "
            f"(link threshold {threshold:.3g})"
        )
    for i, cluster in enumerate(clusters):
        reals = sorted(r for _, r in cluster)
        if reals != list(range(k)):
            raise ValueError(
                f"cluster {i} does not contain exactly one eigenvalue per realization"
            )

    medians = tuple(float(np.median([v for v, _ in c])) for c in clusters)
    members = tuple(
        tuple((r, v, v - med) for v, r in c) for c, med in zip(clusters, medians)
    )
    widths = tuple(
        float(max(abs(off) for _, _, off in cluster)) for cluster in members
    )

    med_gaps = np.diff(medians)
    min_gap = float(med_gaps.min())
    if any(w >= min_gap for w in widths):
        raise ValueError("a cluster width reaches the minimum inter-median gap")
    mean_med_gap = float(med_gaps.mean())
    deviation = float(np.abs(med_gaps - mean_med_gap).max() / mean_med_gap)

    return ClusterSet(
        medians=medians,
        members=members,
        widths=widths,
        n_realizations=k,
        median_gap_deviation=deviation,
    )


def gap_generator(values, rel_tol: float = 1e-9) -> float | None:
    """Approximate common generator of a set of positive gap values.

    Returns g such that every value is an integer multiple of g within
    ``rel_tol`` (relative to the largest value), or None when the values
    are incommensurate at that tolerance.
    """
    vals = sorted(float(v) for v in values if v > 0)
    if not vals:
        return None
    tol = rel_tol * vals[-1]
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
