"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from shiftrules import FourierModel, Spectrum, cli
from shiftrules.spectrum import DEFAULT_DEDUP_TOL, _runs
from shiftrules.synthesis import build_system, condition_number


def random_spectrum(rng: np.random.Generator, n: int, min_sep: float = 0.05) -> Spectrum:
    """Spectrum with well-separated pairwise gaps (all gap values distinct)."""
    while True:
        lam = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, n - 1))])
        pos = sorted({b - a for i, a in enumerate(lam) for b in lam[i + 1 :]})
        if all(q - p > min_sep for p, q in zip(pos, pos[1:])) and pos[0] > min_sep:
            return Spectrum(tuple(lam))


def well_posed_phases(freq, rng: np.random.Generator, cap: float = 1e8, tries: int = 64):
    """Random phases in a practical window, kept below the condition cap."""
    freqs = freq.unique_frequencies
    g_ref = max(min(freqs), float(np.median(freqs)) / 4.0)
    lo = -2 * np.pi / g_ref
    best_cond, best = np.inf, None
    for _ in range(tries):
        ph = rng.uniform(lo + 1e-3, -1e-3, freq.m)
        c = condition_number(build_system(freq, ph).matrix)
        if c < best_cond:
            best_cond, best = c, ph
        if best_cond < cap / 100:
            break
    assert best_cond < cap, f"no well-posed phases found (best {best_cond:.3g})"
    return best


def random_model_terms(rng: np.random.Generator, frequencies):
    return tuple(
        (float(w), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        for w in sorted(frequencies)
    )


# -- the physical reference: <psi| U(t)^dag C U(t) |psi> as a Fourier series --

@dataclass(frozen=True)
class HamiltonianModel:
    """Eigenvalues, observable (in the eigenbasis), and a unit-norm state."""

    eigenvalues: tuple[float, ...]
    observable: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        lam = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lam)
        C = np.asarray(self.observable, dtype=complex)
        psi = np.asarray(self.state, dtype=complex)
        n = len(lam)
        if C.shape != (n, n):
            raise ValueError("observable must be n x n")
        if psi.shape != (n,):
            raise ValueError("state must be an n-vector")
        scale = max(1.0, float(np.abs(C).max()))
        if not np.allclose(C, C.conj().T, rtol=0, atol=1e-12 * scale):
            raise ValueError("observable must be Hermitian")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValueError("state must have unit norm")
        object.__setattr__(self, "observable", C)
        object.__setattr__(self, "state", psi)


def from_hamiltonian(hm: HamiltonianModel) -> FourierModel:
    """Expand <psi| U(t)^dag C U(t) |psi> into a FourierModel.

    Works entirely in the eigenbasis: the weight of each signed gap
    g = lam_l - lam_k is w_kl = conj(psi_k) C_kl psi_l, and conjugate
    gap pairs combine into real cosine/sine terms.  Gap values are merged
    into frequencies by the single-linkage grouping of
    ``frequency_differences`` at ``DEFAULT_DEDUP_TOL * max|lam|``.  Terms
    whose combined amplitude falls below 1e-13 (relative) are dropped.
    """
    lam = np.asarray(hm.eigenvalues, dtype=float)
    weights = np.conj(hm.state)[:, None] * hm.observable * hm.state[None, :]
    gaps = lam[None, :] - lam[:, None]  # gaps[k, l] = lam_l - lam_k

    tol = DEFAULT_DEDUP_TOL * max(float(np.abs(lam).max()), 1e-300)
    # weights are summed in (k, l) order, the order of the expansion,
    # so each group's members are taken in index order
    a0 = sum(weights[np.abs(gaps) <= tol], 0j)
    positive = gaps > tol
    pos_gaps, pos_weights = gaps[positive], weights[positive]
    groups = [sorted(g) for g in _dedup_values(pos_gaps, tol)]

    if abs(a0.imag) > 1e-10 * max(1.0, abs(a0)):
        raise ValueError("constant term came out non-real; observable not Hermitian?")

    terms = []
    for g in groups:
        z = sum(pos_weights[g], 0j)
        terms.append((float(np.mean(pos_gaps[g])), 2.0 * z.real, -2.0 * z.imag))
    amp_scale = max(1.0, max((abs(a) + abs(b) for _, a, b in terms), default=0.0))
    terms = [(w, a, b) for (w, a, b) in terms if abs(a) + abs(b) > 1e-13 * amp_scale]
    return FourierModel(a0=float(a0.real), terms=tuple(terms))


def _dedup_values(values, tol: float) -> list[list[int]]:
    """Single-linkage grouping of values with link threshold tol.

    Returns the indices into ``values`` of each group, groups in increasing
    value order and members in ascending value order: two sorted neighbours
    share a group when they differ by less than tol.
    """
    vals = [float(v) for v in values]
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [order[a:b] for a, b in _runs([vals[i] for i in order], tol)]


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a non-zero exit, or what was raised

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args) -> CliResult:
    """Run ``shiftrules ARGS`` in this process, capturing stdout, stderr and the exit.

    An exception other than SystemExit is kept, with exit code 1, as the
    interpreter would exit on it.
    """
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args)
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:  # noqa: BLE001 - reported through the result
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
