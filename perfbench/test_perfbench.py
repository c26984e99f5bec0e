"""Self-tests of the benchmark: inputs, percentile rule, span self time, oracle.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.PLANS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    assert inputs.plan_bytes(workload, 7) == inputs.plan_bytes(workload, 7)
    assert inputs.plan_bytes(workload, 7) != inputs.plan_bytes(workload, 8)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        for i, item in enumerate(inputs.cli_pipeline(7)):
            inputs.write_spectrum(tmp_path / sub / f"s{i}.json", item["eigenvalues"])
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_seeded_spectra_have_their_class():
    import shiftrules as sr

    kinds = {"equidistant": sr.StructureKind.EQUIDISTANT,
             "perturbed": sr.StructureKind.PERTURBED_EQUIDISTANT,
             "unstructured": sr.StructureKind.UNSTRUCTURED,
             "ill_posed": sr.StructureKind.UNSTRUCTURED}
    for item in inputs.library_sweep(3):
        spec = sr.Spectrum(item["eigenvalues"])
        assert sr.classify_structure(spec).kind is kinds[item["kind"]]
        assert sr.frequency_differences(spec).m == inputs.system_size(item["eigenvalues"])
        if "phases" in item:
            assert len(item["phases"]) == inputs.system_size(item["eigenvalues"])


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(11, 400):
        q = run.tail_percentile(n)
        samples = list(range(n))
        assert sum(s > run.percentile(samples, q) for s in samples) >= 10, n
        if q < 99:  # the next whole percentile would leave fewer than 10 beyond
            assert sum(s > run.percentile(samples, q + 1) for s in samples) < 10, n


def test_tail_percentile_of_the_workloads():
    assert run.tail_percentile(26) == 61
    assert run.tail_percentile(300) == 96
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_self_time_subtracts_direct_children():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]; a second root [11, 12]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_traced_calls_nest_and_self_times_add_up():
    import shiftrules as sr
    import shiftrules.synthesis as synthesis

    original = sr.synthesize_rule
    tr = tracer.Tracer()
    tr.install()
    try:
        freq = sr.frequency_differences(sr.Spectrum(inputs.S7))
        sr.synthesize_rule(freq, [-0.9, -1.7, -2.6, -3.8, -4.4, -5.3, -6.1])
    finally:
        tr.uninstall()
    assert sr.synthesize_rule is original and not hasattr(synthesis.build_system, "__wrapped__")
    a = tr.arrays()
    names = [tr.names[i] for i in a["name"]]
    assert names[:2] == ["spectrum.frequency_differences", "synthesis.synthesize_rule"]
    root = names.index("synthesis.synthesize_rule")
    children = {names[i] for i in np.flatnonzero(a["parent"] == root)}
    assert {"synthesis.build_system", "synthesis.solve_direct"} <= children
    st = tracer.self_times(a["parent"], a["start"], a["end"])
    in_root = [root] + [i for i in range(len(names)) if _has_ancestor(a["parent"], i, root)]
    assert math.isclose(st[in_root].sum(), a["end"][root] - a["start"][root], rel_tol=1e-9)


def _has_ancestor(parent, i, anc):
    while parent[i] >= 0:
        i = parent[i]
        if i == anc:
            return True
    return False


def test_vanished_function_is_reported_missing(monkeypatch, tmp_path):
    import shiftrules.fourier as fourier

    monkeypatch.delattr(fourier, "sample_noisy_batch")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    ctx = run.Context("library-sweep", 0, 1.0, True, tmp_path)
    ctx.layers.add(tr.names, tr.modules, tr.arrays(), 1.0)
    ctx.passes["seconds"], ctx.traced_wall = [1.0], [1.1]
    values, missing = run.layer_metrics(ctx, ["fourier.sample_noisy_batch.self_s",
                                              "fourier.evaluate.calls"])
    assert missing == ["fourier.sample_noisy_batch"]
    assert values == {"fourier.sample_noisy_batch.self_s": 0.0, "fourier.evaluate.calls": 0.0}


def test_first_call_cost_counts_in_library_setup(monkeypatch, tmp_path):
    # a lazy import that loads on the first request must land in setup_s
    import shiftrules as sr

    original, delay = sr.variance_of_estimate, 0.5

    def lazy(*args, **kwargs):
        if not lazy.loaded:
            time.sleep(delay)
            lazy.loaded = True
        return original(*args, **kwargs)

    lazy.loaded = False
    monkeypatch.setattr(sr, "variance_of_estimate", lazy)
    ctx = run.Context("library-sweep", 1, 0.01, False, tmp_path)
    run.library_sweep(ctx)
    raw = run.time_metrics(ctx, "raw")
    assert raw["setup_s"] >= delay
    assert max(o.raw for o in ctx.ops) < delay
    assert not ctx.problems and len(ctx.ops) == len(inputs.library_sweep(1))
    outcome = run.outcome_metrics(ctx)
    assert outcome["ok_op_frac"] == 1.0 and 0 < outcome["exact_rule_frac"] < 1


def test_every_end_to_end_metric_is_reported_and_nonzero(tmp_path):
    # time_metrics and outcome_metrics serve every workload; each workload adds peak_rss_mb
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ctx = run.Context("cli-pipeline", 0, 1.0, False, tmp_path)
    ctx.ops = [run.Op("analyze", 0.5, seconds=0.5), run.Op("synthesize", 0.7, 1, failed=True, seconds=0.7)]
    ctx.passes["seconds"], ctx.setup_s["seconds"] = [1.2], 0.3
    ctx.rules_written, ctx.rules_invalid = 3, 1
    values = {**run.time_metrics(ctx, "seconds"), **run.outcome_metrics(ctx), "peak_rss_mb": 80.0}
    assert all(values[m["name"]] > 0 for m in bench["end_to_end"])
    assert values["ok_op_frac"] == 0.5 and values["exact_rule_frac"] == 2 / 3


def test_known_defect_signature_holds_only_for_s31_at_seed_0(tmp_path):
    ctx = run.Context("cli-pipeline", 0, 1.0, False, tmp_path)
    stderr = "Traceback (most recent call last):\n  ...\nnumpy.linalg.LinAlgError: Singular matrix\n"
    op = run.Op("synthesize", 0.5, 1, "", stderr, failed=True)
    ctx.known_failure(op, "S31", 0)
    assert sum(ctx.known.values()) == 1 and not ctx.problems
    ctx.known_failure(op, "S21", 0)
    ctx.known_failure(op, "S31", 5)
    ctx.known_failure(run.Op("validate", 0.5, 1, "", stderr, failed=True), "S31", 0)
    assert sum(ctx.known.values()) == 1 and len(ctx.problems) == 3


def _rule_dict(rule):
    return {"phases": list(rule.phases), "coefficients": list(rule.coefficients),
            "orders": [{"p": p, "weight": w} for p, w in rule.orders],
            "frequencies": list(rule.frequencies)}


def test_oracle_passes_closed_form_and_flags_a_perturbed_coefficient():
    import shiftrules as sr

    rule = _rule_dict(sr.closed_form_rule(sr.EquidistantStructure(3, 1.0)))
    assert oracle.rule_error(rule, (0.0, 1.0, 2.0)) <= oracle.EXACT_BOUND
    assert oracle.rule_error_on_own_frequencies(rule) <= oracle.EXACT_BOUND
    for x in range(len(rule["coefficients"])):
        bad = dict(rule, coefficients=list(rule["coefficients"]))
        bad["coefficients"][x] += 1e-6
        assert oracle.rule_error(bad, (0.0, 1.0, 2.0)) > oracle.EXACT_BOUND


def test_oracle_stationarity_at_the_two_term_optimum():
    # f'(t) = [f(t + pi/2) - f(t - pi/2)] / 2: square-norm 1/2, stationary
    rule = {"phases": [0.0, -math.pi / 2, -3 * math.pi / 2], "coefficients": [0.0, -0.5, 0.5],
            "orders": [{"p": 1, "weight": 1.0}], "frequencies": [1.0]}
    assert oracle.rule_error(rule, inputs.EQUIDISTANT_N2) <= oracle.EXACT_BOUND
    assert oracle.square_norm(rule) == oracle.N2_OPTIMUM
    assert oracle.stationarity_residual(rule) < 1e-12


def test_scipy_share_is_read_from_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |     scipy._lib\n"
              "import time:        80 |        200 |   scipy.linalg\n"
              "import time:       500 |        500 | numpy\n"
              "Traceback (most recent call last):\n")
    assert math.isclose(run.scipy_import_s(stderr), 200e-6)
