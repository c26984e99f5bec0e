"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from shiftrules import Spectrum, cli
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
