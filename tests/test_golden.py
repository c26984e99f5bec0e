"""Rule files on fixed spectra stay byte-identical to the committed goldens.

Each case runs one CLI command in-process and compares the rule file it
writes with ``tests/golden/<name>.json`` character for character.  After
an intended change of the rules, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from shiftrules.cli import cli

GOLDEN = Path(__file__).with_name("golden")

S7_PHASES = "-0.35,-0.9,-1.7,-2.45,-3.3,-4.15,-5.2"

# name -> (eigenvalues, CLI arguments after the spectrum-free global options)
CASES = {
    "synth_s7_p1": ((0, 1, 2.5), ["synthesize", "-p", "1"]),
    "synth_s7_p2": ((0, 1, 2.5), ["synthesize", "-p", "2"]),
    "synth_s21": ((0, 1, 2.5, 4.1, 6.0), ["synthesize"]),
    "synth_near_degenerate": ((0, 1, 1 + 1e-9), ["synthesize"]),
    "synth_equidistant_n3": ((0, 1, 2), ["synthesize"]),
    "synth_equidistant_n8": (tuple(range(8)), ["synthesize"]),
    "synth_perturbed": ((0, 1.02, 1.97, 3.01, 4.0), ["synthesize"]),
    "synth_s7_direct_phases": ((0, 1, 2.5), ["synthesize", "--method", "direct",
                                             "--phases", S7_PHASES]),
    "opt_n2": ((0, 1), ["optimize"]),
    "opt_u1.6": ((0, 1, 2.6), ["optimize"]),
    "opt_n4": ((0, 1, 2.5, 4.1), ["optimize"]),
}


def _run(name: str, workdir: Path) -> str:
    """Run case ``name`` in ``workdir`` and return the rule file's text."""
    eigenvalues, args = CASES[name]
    spectrum = workdir / f"{name}.spectrum.json"
    spectrum.write_text(json.dumps({"eigenvalues": [float(v) for v in eigenvalues]}))
    out = workdir / f"{name}.rule.json"
    command, *options = args
    result = CliRunner().invoke(
        cli, ["--seed", "0", "--output", str(out), command, str(spectrum), *options], obj={})
    assert result.exit_code == 0, result.output
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_file_matches_golden(name, tmp_path):
    assert _run(name, tmp_path) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(_run(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
