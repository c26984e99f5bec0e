"""Seeded inputs for the benchmark workloads.

Pure Python (``random.Random``), so generating inputs imports nothing the
measured program imports and the same seed gives the same bytes on any
platform.  Spectrum classes are defined by properties of the input
(gap separation, deviation from equidistance), never by how the program
happens to behave on them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Spectra named in the ROADMAP; S21 and S31 carry known defects at --seed 0.
S7 = (0.0, 1.0, 2.5)
S21 = (0.0, 1.0, 2.5, 4.1, 6.0)
S31 = (0.0, 0.7, 1.9, 3.2, 3.3, 5.0)
NEAR_DEGENERATE = (0.0, 1.0, 1.0 + 1e-9)
N4 = (0.0, 1.0, 2.5, 4.1)  # m = 13
EQUIDISTANT_N2 = (0.0, 1.0)  # optimum square-norm 0.5

DEDUP_TOL = 1e-12  # the package's default gap-merging tolerance


def frequencies(eigenvalues, rel_tol: float = DEDUP_TOL) -> list[float]:
    """Distinct positive gaps, merged by single linkage at rel_tol * max|lambda|."""
    lam = sorted(eigenvalues)
    tol = rel_tol * max(max(abs(v) for v in lam), 1e-300)
    pos = sorted(b - a for i, a in enumerate(lam) for b in lam[i + 1:] if b - a >= tol)
    groups: list[list[float]] = []
    for v in pos:
        if groups and v - groups[-1][-1] < tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [sum(g) / len(g) for g in groups]


def system_size(eigenvalues) -> int:
    return 2 * len(frequencies(eigenvalues)) + 1


def resolution(eigenvalues) -> float:
    """Smallest distance between two distinct gap values, zero included."""
    vals = [0.0] + frequencies(eigenvalues)
    return min(b - a for a, b in zip(vals, vals[1:]))


def equidistant(rng: random.Random, n: int) -> tuple[float, ...]:
    delta = round(rng.uniform(0.5, 2.0), 6)
    return tuple(k * delta for k in range(n))


def perturbed(rng: random.Random, n: int) -> tuple[float, ...]:
    """Equidistant up to shifts of at most 3 % of the gap (classified perturbed)."""
    delta = round(rng.uniform(0.5, 2.0), 6)
    return tuple(round(k * delta + rng.uniform(-0.03, 0.03) * delta, 9) for k in range(n))


def unstructured(rng: random.Random, n: int, min_sep: float = 0.05) -> tuple[float, ...]:
    """Adjacent gaps in [0.5, 1.5], far from equidistant, gap values well separated.

    Well separated means every two distinct gap values differ by at least
    ``min_sep`` times the smallest gap, as in the test suite's random spectra.
    """
    while True:
        steps = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
        lam = tuple(round(sum(steps[:k]), 6) for k in range(n))
        adj = [b - a for a, b in zip(lam, lam[1:])]
        mean = sum(adj) / len(adj)
        if max(abs(g - mean) for g in adj) <= 0.15 * mean:
            continue
        pos = sorted({round(b - a, 9) for i, a in enumerate(lam) for b in lam[i + 1:]})
        if all(q - p >= min_sep * pos[0] for p, q in zip(pos, pos[1:])):
            return lam


def ill_posed(rng: random.Random) -> tuple[float, ...]:
    """Two gap values 1e-10..1e-9 apart (relative): resolvable by the
    de-duplication, far below what any practical phase set can separate."""
    a = round(rng.uniform(0.5, 2.0), 6)
    delta = a * 10 ** rng.uniform(-10, -9)
    lam = [0.0, a, a + delta]
    if rng.random() < 0.5:
        lam.append(round(a * rng.uniform(2.2, 3.0), 6))
    return tuple(lam)


def phases(rng: random.Random, eigenvalues, floor: float = 1e-2) -> list[float]:
    """m phases drawn uniformly from one period of the finest gap spacing.

    The window is 2*pi / resolution, with the resolution floored at
    ``floor`` times the largest gap so that unresolvable spectra keep a
    practical window and stay ill-posed.
    """
    freqs = frequencies(eigenvalues)
    width = 2 * math.pi / max(resolution(eigenvalues), floor * freqs[-1])
    return [-rng.uniform(1e-3, width) for _ in range(2 * len(freqs) + 1)]


def derived_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- per-workload plans ------------------------------------------------------

def cli_pipeline(seed: int) -> list[dict]:
    """One pass of spectra for analyze -> synthesize -> validate -> variance.

    The ROADMAP spectra run at --seed 0, as their known behaviour is stated
    there; the seeded ones get a derived CLI seed.  Seeded unstructured
    spectra stop at n = 4: at n = 5 the auto-phase defect (ROADMAP item 3)
    strikes a seed-dependent share of them, which S21 already records at a
    fixed share.
    """
    rng = random.Random(seed)
    mix = [
        {"name": "S7", "eigenvalues": S7, "cli_seed": 0},
        {"name": "S21", "eigenvalues": S21, "cli_seed": 0},
        {"name": "S31", "eigenvalues": S31, "cli_seed": 0},
        {"name": "near-degenerate", "eigenvalues": NEAR_DEGENERATE, "cli_seed": 0},
    ]
    n = rng.randint(2, 8)
    mix.append({"name": f"equidistant-n{n}", "eigenvalues": equidistant(rng, n)})
    n = rng.randint(3, 6)
    mix.append({"name": f"perturbed-n{n}", "eigenvalues": perturbed(rng, n)})
    n = rng.randint(3, 4)
    mix.append({"name": f"unstructured-n{n}", "eigenvalues": unstructured(rng, n)})
    for item in mix:
        item.setdefault("cli_seed", derived_seed(rng))
    rng.shuffle(mix)
    return mix


def validate_dense(seed: int) -> dict:
    """Rules for m = 7 (S7), 15 (equidistant n = 8) and 21 (S21), the model
    seed, and the seeded order of one pass, in which the m = 15 rule runs twice.

    S7 and S21 get explicit phases: the best-conditioned of 16 seeded draws
    over one period of the finest gap spacing, so every rule is exact and
    validate exercises its passing path.  The m = 15 op is the median op;
    it runs for seconds and the host's speed drifts within it, so the
    median averages two samples of it instead of resting on one.
    """
    import numpy as np

    rng = random.Random(seed)
    rules = []
    for name, ev in (("S7", S7), ("equidistant-n8", tuple(float(k) for k in range(8))), ("S21", S21)):
        item = {"name": name, "eigenvalues": ev, "phases": None}
        if name != "equidistant-n8":
            mu = np.asarray([0.0] + [s * w for w in frequencies(ev) for s in (1, -1)])
            draws = [phases(rng, ev) for _ in range(16)]
            item["phases"] = min(draws, key=lambda ph: np.linalg.cond(np.exp(1j * np.outer(mu, ph))))
        rules.append(item)
    order = [item["name"] for item in rules] + ["equidistant-n8"]
    rng.shuffle(order)
    return {"rules": rules, "model_seed": derived_seed(rng), "order": order}


def optimize(seed: int) -> list[dict]:
    """n = 2 (known optimum), S7, three n = 3 spectra and N4 (m = 13), in seeded order.

    The spectra and the optimizer's multistart seed (0) are fixed: the
    baseline optimizer's time and square-norm jump between nearby spectra
    and between multistart seeds, so seeded spectra left the figures
    unsteady from seed to seed.  The seed only orders the runs.
    """
    mix = [{"name": "equidistant-n2", "eigenvalues": EQUIDISTANT_N2},
           {"name": "S7", "eigenvalues": S7}]
    for u in (1.4, 1.6, 1.9):
        mix.append({"name": f"n3-u{u}", "eigenvalues": (0.0, 1.0, 1.0 + u)})
    mix.append({"name": "N4", "eigenvalues": N4})
    for item in mix:
        item["cli_seed"] = 0
    random.Random(seed).shuffle(mix)
    return mix


LIBRARY_COUNTS = {"equidistant": 60, "perturbed": 60, "unstructured": 120, "ill_posed": 60}


def library_sweep(seed: int) -> list[dict]:
    """One pass of library requests: a fixed count of each spectrum class."""
    rng = random.Random(seed)
    mix = []
    for _ in range(LIBRARY_COUNTS["equidistant"]):
        mix.append({"kind": "equidistant", "eigenvalues": equidistant(rng, rng.randint(2, 8))})
    for _ in range(LIBRARY_COUNTS["perturbed"]):
        mix.append({"kind": "perturbed", "eigenvalues": perturbed(rng, rng.randint(3, 6))})
    for _ in range(LIBRARY_COUNTS["unstructured"]):
        mix.append({"kind": "unstructured", "eigenvalues": unstructured(rng, rng.randint(3, 5))})
    for _ in range(LIBRARY_COUNTS["ill_posed"]):
        mix.append({"kind": "ill_posed", "eigenvalues": ill_posed(rng)})
    for item in mix:
        if item["kind"] in ("unstructured", "ill_posed"):
            item["phases"] = phases(rng, item["eigenvalues"])
        item["data_error"] = 10 ** rng.uniform(-7, -5)
    rng.shuffle(mix)
    return mix


PLANS = {
    "cli-pipeline": cli_pipeline,
    "validate-dense": validate_dense,
    "optimize": optimize,
    "library-sweep": library_sweep,
}


def write_spectrum(path: Path, eigenvalues) -> None:
    path.write_text(json.dumps({"eigenvalues": list(eigenvalues)}) + "\n")


def plan_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's inputs (for the determinism check)."""
    return json.dumps(PLANS[workload](seed), sort_keys=True).encode()
