"""The shiftrules benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steadiness [--workload NAME ...]

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, from
a traced pass.  Metric names and units come from
BENCHMARK.json.  The package is run from ./src as checked out; nothing is
installed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Matrices here are at most 31 x 31, where BLAS threads add only noise;
# one thread is within nproc on any machine.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 120
SETUP_REPEATS = 3
WARMUP_REQUESTS = 10
STEADINESS_RUNS = 10
DOCUMENTED_EXITS = {0, 1, 2, 3}
# validate's verdict is compared with the oracle only where the oracle is
# clear of the bound by this factor; near the bound the two scalings differ.
VERDICT_MARGIN = 100.0
CERTIFY_TOL = 1e-9  # the CLI's default stationarity tolerance
# Host-speed normalization.  On a shared host the speed of a core drifts
# by a third or more over minutes.  A bare interpreter start slows down
# with the host, so each measured interval is scaled by
# REF_S / (geometric mean of the probes just before and just after it);
# REF_S is the bare start of the host the baseline was recorded on.  The
# probe runs no repository code, so the program cannot move it.  The raw
# times are kept beside the normalized ones; --steadiness prints both
# spreads, and the README records them.
REF_S = 0.045
PROBE_RUNS = 2
COMMANDS = ("analyze", "synthesize", "validate", "variance", "optimize")

def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least 10 of one pass's samples beyond it.

    Fixed per workload from the op count of one pass, so it does not move
    when a faster program fits more passes into a run.
    """
    if ops_per_pass < 11:
        raise ValueError("a tail needs at least 11 samples")
    return math.floor(100 * (1 - 10 / ops_per_pass))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def oracle():
    import oracle as module  # numpy: loaded only after any timed import

    return module


def load_rule(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


@dataclass
class Op:
    kind: str
    raw: float  # wall time as measured
    code: int | None = 0
    stdout: str = ""
    stderr: str = ""
    failed: bool = False
    seconds: float = 0.0  # host-speed normalized

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr

    def report(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


@dataclass
class Layers:
    """Per-layer totals from the spans of one traced pass."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    raised: Counter = field(default_factory=Counter)
    probed: Counter = field(default_factory=Counter)
    wrapped: set = field(default_factory=set)
    loaded: set = field(default_factory=set)
    cli: dict = field(default_factory=lambda: defaultdict(list))

    def add(self, names, modules, arrays, scale: float) -> None:
        """Accumulate spans; ``scale`` is the host-speed factor of the interval they cover."""
        import numpy as np

        self.wrapped.update(names)
        self.loaded.update(modules)
        st = scale * tracer.self_times(arrays["parent"], arrays["start"], arrays["end"])
        ids, flags, k = arrays["name"], arrays["flag"], len(names)
        per = {
            "calls": np.bincount(ids, minlength=k),
            "self_s": np.bincount(ids, weights=st, minlength=k),
            "raised": np.bincount(ids[flags == tracer.RAISED], minlength=k),
            "probed": np.bincount(ids[flags == tracer.PROBED], minlength=k),
        }
        for i, name in enumerate(names):
            for key, counts in per.items():
                getattr(self, key)[name] += counts[i].item()

    def add_cli(self, spans: Path, spawned: float, stderr: str, scale: float) -> bool:
        if not spans.exists():
            return False
        meta, arrays = tracer.load(str(spans))
        spans.unlink()
        before = self.self_s["cli.main"]
        self.add(meta["names"], meta["modules"], arrays, scale)
        self.cli["interpreter_s"].append(scale * (meta["t_start"] - spawned))
        self.cli["import_s"].append(scale * meta["import_s"])
        self.cli["import_scipy_s"].append(scale * scipy_import_s(stderr))
        self.cli["self_s"].append(self.self_s["cli.main"] - before)
        return True


def scipy_import_s(stderr: str) -> float:
    """Sum of the self times -X importtime reports for scipy modules."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip().startswith("scipy") and parts[0].strip().isdigit():
                total_us += int(parts[0])
    return total_us * 1e-6


class Context:
    """State of one benchmark run: its ops, checks and (when traced) layers."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.ops: list[Op] = []
        self.ops_per_pass: int | None = None  # for op_tail_s; None: no tail metric
        # pass times and set-up time, raw and host-speed normalized
        self.passes: dict = {"raw": [], "seconds": []}
        self.setup_s: dict = {"raw": 0.0, "seconds": 0.0}
        self.traced_wall: list[float] = []
        self.problems: list[str] = []
        self.known: Counter = Counter()
        self.rules_written = 0
        self.rules_invalid = 0
        self.layers = Layers()
        self.extra: dict = {}
        self.probes: list[float] = []
        self.last_probe: float | None = None
        self.probe_time = 0.0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    def problem(self, text: str) -> None:
        self.problems.append(text)

    # -- host-speed probe -----------------------------------------------

    def probe(self) -> float:
        """Fastest of PROBE_RUNS bare interpreter starts: the host's speed right now."""
        t_start = perf_counter()
        times = []
        for _ in range(PROBE_RUNS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, capture_output=True,
                           timeout=OP_TIMEOUT_S)
            times.append(perf_counter() - t0)
        self.last_probe = min(times)
        self.probes.append(self.last_probe)
        self.probe_time += perf_counter() - t_start
        return self.last_probe

    def factor(self, before: float) -> float:
        """REF_S over the host speed across an interval that began at probe ``before``."""
        return REF_S / math.sqrt(before * self.probe())

    # -- CLI operations -------------------------------------------------

    def cli(self, kind: str, args: list[str], traced: bool = False, record: bool = True) -> Op:
        """Run one CLI command as a child process, timed from spawn to exit."""
        op_id = len(self.ops)
        spans = self.workdir / f"spans-{op_id}.npz"
        if traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                   str(spans), str(op_id), *args]
        else:
            cmd = [sys.executable, "-m", "shiftrules.cli", *args]
        before = self.last_probe or self.probe()
        t0 = perf_counter()
        try:
            p = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                               text=True, timeout=OP_TIMEOUT_S)
            op = Op(kind, perf_counter() - t0, p.returncode, p.stdout, p.stderr)
        except subprocess.TimeoutExpired:
            op = Op(kind, perf_counter() - t0, None, "", f"timed out after {OP_TIMEOUT_S} s")
        scale = self.factor(before)
        op.seconds = op.raw * scale
        op.failed = op.code not in DOCUMENTED_EXITS or op.traceback
        if traced and not self.layers.add_cli(spans, t0, op.stderr, scale):
            self.problem(f"{kind}: traced child wrote no spans")
        if record:
            self.ops.append(op)
        elif op.code != 0:
            self.problem(f"set-up {kind} {args} exited {op.code}: {op.stderr[-300:]}")
        return op

    def known_failure(self, op: Op, what: str, cli_seed: int | None = None) -> None:
        """Count a failed op; only the known defect's signature keeps the run correct.

        That is S31 at --seed 0, whose synthesize ends in a LinAlgError
        traceback; a failure on any other spectrum or seed is a problem.
        """
        last = op.stderr.strip().splitlines()[-1] if op.stderr.strip() else ""
        if (what, cli_seed, op.kind) == ("S31", 0, "synthesize") and op.traceback \
                and "LinAlgError" in last:
            self.known["synthesize raises LinAlgError (ROADMAP S31)"] += 1
        else:
            self.problem(f"{what}: {op.kind} failed with exit {op.code}: {last}")

    def check_validate(self, op: Op, rule: dict, what: str) -> None:
        own = oracle().rule_error_on_own_frequencies(rule)
        bound = oracle().EXACT_BOUND
        expect = 0 if own <= bound / VERDICT_MARGIN else 1 if own >= bound * VERDICT_MARGIN else None
        if op.code not in (0, 1) or (expect is not None and op.code != expect):
            op.failed = True
            self.problem(f"{what}: validate exited {op.code}, oracle error {own:.3g}")

    # -- timed phase ----------------------------------------------------

    def timed(self, one_pass, after=lambda: None) -> None:
        """Untraced: whole passes while the next one still fits in --seconds
        (at least one).  Traced: one untraced pass, then one traced pass.

        A pass's time is the sum of its ops' normalized latencies, which
        leaves out the probes and the output checks; ``after`` runs the
        checks between passes."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self._pass(one_pass, False, after)
            if self.trace:
                self._pass(one_pass, True, after)
                return
            now = perf_counter()
            if (now - start) + (now - t0) > self.seconds:
                return

    def _pass(self, one_pass, traced: bool, after) -> None:
        first = len(self.ops)
        one_pass(traced)
        ops = self.ops[first:]
        if traced:
            self.traced_wall.append(sum(o.seconds for o in ops))
        else:
            for attr, times in self.passes.items():
                times.append(sum(getattr(o, attr) for o in ops))
        after()

    def setup(self, step, repeats: int = SETUP_REPEATS) -> None:
        """Add to setup_s the median time of ``step`` run ``repeats`` times (once when tracing).

        Probing is not counted; the normalized figure scales each run by
        the host-speed factor across it.
        """
        runs = []
        for _ in range(1 if self.trace else repeats):
            before, probing = self.probe(), self.probe_time
            t0 = perf_counter()
            step()
            runs.append((perf_counter() - t0 - (self.probe_time - probing), self.factor(before)))
        self.setup_s["raw"] += statistics.median(raw for raw, _ in runs)
        self.setup_s["seconds"] += statistics.median(raw * scale for raw, scale in runs)


# -- workloads ------------------------------------------------------------

def cli_pipeline(ctx: Context) -> dict:
    ora = oracle()
    state = {}

    def setup():
        state["mix"] = inputs.cli_pipeline(ctx.seed)
        for i, item in enumerate(state["mix"]):
            inputs.write_spectrum(ctx.workdir / f"spectrum-{i}.json", item["eigenvalues"])
        ctx.cli("warm-up", ["--help"], record=False)

    def one_pass(traced):
        for i, item in enumerate(state["mix"]):
            what, ev, seed = item["name"], item["eigenvalues"], str(item["cli_seed"])
            spec, rule_path = f"spectrum-{i}.json", ctx.workdir / f"rule-{i}.json"
            op = ctx.cli("analyze", ["--seed", seed, "analyze", spec], traced)
            rep = op.report()
            if op.failed or op.code != 0 or rep is None:
                ctx.known_failure(op, what, item["cli_seed"])
            elif rep["m"] != inputs.system_size(ev):
                ctx.problem(f"{what}: analyze reports m = {rep['m']}, expected {inputs.system_size(ev)}")
            rule_path.unlink(missing_ok=True)
            op = ctx.cli("synthesize", ["--seed", seed, "--output", rule_path.name, "synthesize", spec], traced)
            if op.failed:
                ctx.known_failure(op, what, item["cli_seed"])
                continue
            if op.code == 2:  # documented: ill-posed, no rule written
                continue
            rule = load_rule(rule_path)
            if op.code != 0 or rule is None:
                ctx.problem(f"{what}: synthesize exited {op.code} without a readable rule")
                continue
            ctx.rules_written += 1
            if ora.rule_error(rule, ev) > ora.EXACT_BOUND:
                ctx.rules_invalid += 1
                method = rule.get("diagnostics", {}).get("method")
                if method == "tikhonov":
                    ctx.known["inexact Tikhonov-fallback rule written with exit 0 (ROADMAP item 3)"] += 1
                elif "perturbation_epsilon" in rule.get("diagnostics", {}):
                    ctx.known["perturbed-equidistant closed form (approximate by design, warned)"] += 1
                else:
                    ctx.problem(f"{what}: {method} rule is inexact")
            op = ctx.cli("validate", ["--seed", seed, "validate", rule_path.name], traced)
            ctx.check_validate(op, rule, what)
            op = ctx.cli("variance", ["--seed", seed, "variance", rule_path.name, "--shots", "10000"], traced)
            rep = op.report()
            if op.failed or op.code != 0 or rep is None:
                ctx.known_failure(op, what, item["cli_seed"])
            elif not math.isclose(rep["square_norm"], ora.square_norm(rule), rel_tol=1e-9):
                ctx.problem(f"{what}: variance reports square_norm {rep['square_norm']}")

    ctx.setup(setup)
    ctx.timed(one_pass)
    # S31 stops after synthesize at the baseline; the tail percentile is
    # fixed from that count so it stays put when the defect is fixed.
    ctx.ops_per_pass = 4 * len(state["mix"]) - 2
    return {"peak_rss_mb": children_rss_mb()}


def validate_dense(ctx: Context) -> dict:
    ora = oracle()
    state = {}

    def setup():
        plan = state["plan"] = inputs.validate_dense(ctx.seed)
        for item in plan["rules"]:
            name = item["name"]
            inputs.write_spectrum(ctx.workdir / f"spectrum-{name}.json", item["eigenvalues"])
            args = ["--output", f"rule-{name}.json", "synthesize", f"spectrum-{name}.json"]
            if item["phases"] is None:
                args += ["--method", "equidistant"]
            else:
                args += ["--method", "direct", "--phases=" + ",".join(repr(p) for p in item["phases"])]
            ctx.cli("synthesize", args, record=False)
            rule = load_rule(ctx.workdir / f"rule-{name}.json")
            ctx.rules_written += 1
            if rule is None or ora.rule_error(rule, item["eigenvalues"]) > ora.EXACT_BOUND:
                ctx.rules_invalid += 1
                ctx.problem(f"set-up rule {name} is missing or inexact")
            state[name] = rule

    def one_pass(traced):
        # a traced run validates each rule once per pass, to keep its two passes short
        plan = state["plan"]
        for name in [r["name"] for r in plan["rules"]] if ctx.trace else plan["order"]:
            op = ctx.cli("validate", ["--seed", str(plan["model_seed"]), "validate",
                                      f"rule-{name}.json", "--model", "random:4",
                                      "--t-grid", "-3:3:5000"], traced)
            if op.failed:
                ctx.known_failure(op, name)
            elif state[name] is not None:
                ctx.check_validate(op, state[name], name)

    ctx.setup(setup)
    ctx.timed(one_pass)
    return {"peak_rss_mb": children_rss_mb()}


def optimize(ctx: Context) -> dict:
    ora = oracle()
    state = {}
    squares, certified = [], []

    def setup():
        state["mix"] = inputs.optimize(ctx.seed)
        for i, item in enumerate(state["mix"]):
            inputs.write_spectrum(ctx.workdir / f"spectrum-{i}.json", item["eigenvalues"])
        ctx.cli("warm-up", ["--help"], record=False)

    def one_pass(traced):
        for i, item in enumerate(state["mix"]):
            what, out = item["name"], ctx.workdir / f"optimized-{i}.json"
            out.unlink(missing_ok=True)
            op = ctx.cli("optimize", ["--seed", str(item["cli_seed"]), "--output", out.name,
                                      "optimize", f"spectrum-{i}.json"], traced)
            rep, rule = op.report(), load_rule(out)
            if op.failed or op.code != 0 or rep is None or rule is None:
                ctx.known_failure(op, what)
                continue
            sq = ora.square_norm(rule)
            if not math.isclose(sq, rep["square_norm_after"], rel_tol=1e-12):
                ctx.problem(f"{what}: reported square_norm_after {rep['square_norm_after']} != {sq}")
            ctx.rules_written += 1
            if ora.rule_error(rule, item["eigenvalues"]) > ora.EXACT_BOUND:
                ctx.rules_invalid += 1
                ctx.problem(f"{what}: optimized rule is inexact")
            if item["eigenvalues"] == inputs.EQUIDISTANT_N2 and abs(sq - ora.N2_OPTIMUM) > 1e-9:
                ctx.problem(f"{what}: square-norm {sq} misses the known optimum 0.5")
            squares.append(sq)
            certified.append(ora.stationarity_residual(rule) <= CERTIFY_TOL)

    ctx.setup(setup)
    ctx.timed(one_pass)
    ctx.extra["variance.certified_frac"] = sum(certified) / len(certified)
    ctx.extra["variance.square_norm_geomean"] = math.exp(statistics.fmean(math.log(s) for s in squares))
    ctx.extra["square_norms"] = {it["name"]: s for it, s in zip(state["mix"], squares)}
    return {"peak_rss_mb": children_rss_mb()}


def library_sweep(ctx: Context) -> dict:
    state = {}
    sys.path.insert(0, str(SRC))

    def request(item):
        spec = sr.Spectrum(item["eigenvalues"])
        freq = sr.frequency_differences(spec)
        cls = sr.classify_structure(spec)
        if cls.kind in (sr.StructureKind.EQUIDISTANT, sr.StructureKind.PERTURBED_EQUIDISTANT):
            es = sr.EquidistantStructure(spec.n, cls.delta)
            rules = [sr.closed_form_rule(es)]
            if cls.kind is sr.StructureKind.PERTURBED_EQUIDISTANT:
                sr.error_bound(es, sr.perturbation_matrices(es), rules[0].coefficients, cls.epsilon)
        else:
            try:
                rules = [sr.synthesize_rule(freq, item["phases"])]
            except sr.IllPosedError:
                rules = [sr.regularized_rule(freq, item["phases"]),
                         sr.regularized_rule(freq, item["phases"],
                                             cfg=sr.RegularizationConfig(data_error=item["data_error"]))]
        report = sr.variance_of_estimate(rules[0], 1.0)
        return cls, rules, report, sr.confidence_interval(report, 0.1)

    def check(item, cls, rules, report, nu):
        ora = oracle()
        what = f"library {item['kind']}"
        for rule in rules:
            rd = {"phases": list(rule.phases), "coefficients": list(rule.coefficients),
                  "orders": [{"p": p, "weight": w} for p, w in rule.orders]}
            method = rule.diagnostics.get("method")
            ctx.rules_written += 1
            if not all(math.isfinite(b) for b in rd["coefficients"]):
                ctx.problem(f"{what} {method} rule has non-finite coefficients")
            if ora.rule_error(rd, item["eigenvalues"]) <= ora.EXACT_BOUND:
                continue
            ctx.rules_invalid += 1
            if method == "tikhonov":
                ctx.known["inexact Tikhonov rule for an ill-posed spectrum (regularized by design)"] += 1
            elif item["kind"] == "perturbed" and method == "equidistant" and ora.rule_error(
                    rd, [k * cls.delta for k in range(len(item["eigenvalues"]))]) <= ora.EXACT_BOUND:
                ctx.known["perturbed-equidistant closed form (approximate by design)"] += 1
            else:
                ctx.problem(f"{what} {method} rule is inexact")
        if not math.isclose(report.square_norm, ora.square_norm({"coefficients": rules[0].coefficients}),
                            rel_tol=1e-9) or not math.isclose(nu, math.sqrt(report.variance / 0.1),
                                                              rel_tol=1e-12):
            ctx.problem("library variance report disagrees with its rule")
        if item["kind"] == "ill_posed" and rules[0].diagnostics.get("method") != "tikhonov":
            ctx.problem("ill-posed spectrum did not take the regularized path")

    pending = []

    def one_pass(traced, mix=None):
        before, first = ctx.last_probe or ctx.probe(), len(ctx.ops)
        tr = None
        if traced:
            tr = tracer.Tracer()
            tr.install()
        try:
            for i, item in enumerate(mix or state["mix"]):
                if tr is not None:
                    tr.op = i
                t = perf_counter()
                try:
                    out = request(item)
                except Exception:  # the sweep continues; the op counts as failed
                    ctx.ops.append(Op("request", perf_counter() - t, failed=True))
                    ctx.problem(f"library request {item['kind']} raised: {traceback.format_exc(limit=3)}")
                    continue
                ctx.ops.append(Op("request", perf_counter() - t))
                pending.append((item, *out))
        finally:
            if tr is not None:
                tr.uninstall()
        scale = ctx.factor(before)
        for op in ctx.ops[first:]:
            op.seconds = op.raw * scale
        if tr is not None:
            ctx.layers.add(tr.names, tr.modules, tr.arrays(), scale)

    def check_pending():
        for res in pending:
            check(*res)
        pending.clear()

    def generate():
        state["mix"] = inputs.library_sweep(ctx.seed)

    def first_use():
        nonlocal sr
        import shiftrules as sr

        one_pass(False, state["mix"][:WARMUP_REQUESTS])

    # Input generation is repeated and its median taken.  The first use of
    # the package, its import and a warm-up over the first requests, happens
    # once per process and is timed once, so first-call costs such as lazy
    # imports count in full.
    sr = None
    ctx.setup(generate)
    ctx.setup(first_use, repeats=1)
    del ctx.ops[:]
    pending.clear()
    ctx.timed(one_pass, after=check_pending)
    ctx.ops_per_pass = len(state["mix"])
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


WORKLOADS = {
    "cli-pipeline": cli_pipeline,
    "validate-dense": validate_dense,
    "optimize": optimize,
    "library-sweep": library_sweep,
}


def time_metrics(ctx: Context, attr: str) -> dict:
    """setup_s, wall_s, op_p50_s, op_tail_s (when a pass has a tail) and the
    median per CLI command, from "raw" or host-speed normalized ("seconds") times.

    Only the first three are end-to-end metrics, which every workload must
    report; the tail and the per-command medians go to the detail file.
    """
    times = [getattr(o, attr) for o in ctx.ops]
    out = {"setup_s": ctx.setup_s[attr], "wall_s": statistics.median(ctx.passes[attr]),
           "op_p50_s": statistics.median(times)}
    if ctx.ops_per_pass is not None:
        out["op_tail_s"] = percentile(times, tail_percentile(ctx.ops_per_pass))
    for kind in COMMANDS:
        per_kind = [getattr(o, attr) for o in ctx.ops if o.kind == kind]
        if per_kind:
            out[f"{kind}_p50_s"] = statistics.median(per_kind)
    return out


def outcome_metrics(ctx: Context) -> dict:
    """Shares of ops that ended as documented and of rules that are exact.

    Higher is better, so that a fixed defect raises them and no workload
    reports 0: a failed op is one with an undocumented exit code, a
    traceback, a timeout or a validate verdict the oracle contradicts; a
    rule is inexact when it was written with exit 0 (or returned, in the
    library) and fails the oracle at 1e-8 on the spectrum's own gaps.
    """
    written = ctx.rules_written
    return {"ok_op_frac": 1 - sum(o.failed for o in ctx.ops) / len(ctx.ops),
            "exact_rule_frac": (written - ctx.rules_invalid) / written if written else 0.0}


def samples(ctx: Context) -> dict:
    """How many samples lie behind each median and percentile."""
    out = {"op_p50_s": len(ctx.ops), "wall_s": len(ctx.passes["seconds"])}
    if ctx.ops_per_pass is not None:
        q, n = tail_percentile(ctx.ops_per_pass), len(ctx.ops)
        out["op_tail_s"] = {"percentile": q, "samples": n, "beyond": n - math.ceil(q / 100 * n)}
    return out


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def layer_metrics(ctx: Context, names: list[str]) -> tuple[dict, list[str]]:
    """Every per-layer metric of BENCHMARK.json from the traced pass; 0 where a layer did no work."""
    lay = ctx.layers
    derived = {
        "cli.interpreter_s": lambda: median_or_zero(lay.cli["interpreter_s"]),
        "cli.import_s": lambda: median_or_zero(lay.cli["import_s"]),
        "cli.import_scipy_s": lambda: median_or_zero(lay.cli["import_scipy_s"]),
        "cli.self_s": lambda: median_or_zero(lay.cli["self_s"]),
        "variance.certified_frac": lambda: ctx.extra.get("variance.certified_frac", 0.0),
        "variance.square_norm_geomean": lambda: ctx.extra.get("variance.square_norm_geomean", 0.0),
        "synthesis.direct_fallback_frac":
            lambda: share(lay.raised["synthesis.solve_direct"], lay.calls["synthesis.solve_direct"]),
        "regularization.gamma_floor_frac":
            lambda: share(lay.probed["regularization.select_gamma_discrepancy"],
                          lay.calls["regularization.select_gamma_discrepancy"]),
        "trace.overhead_s": lambda: ctx.traced_wall[0] - ctx.passes["seconds"][0],
    }
    values, missing = {}, []
    for name in names:
        if name in derived:
            values[name] = float(derived[name]())
            continue
        func, _, stat = name.rpartition(".")
        if func.split(".")[0] in lay.loaded and func not in lay.wrapped:
            missing.append(func)
        values[name] = float(lay.calls[func] if stat == "calls" else lay.self_s[func])
    return values, sorted(set(missing))


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def metadata(ctx: Context) -> dict:
    import numpy as np

    sha = "unknown"  # a checkout without .git; git must not look above it
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "shiftrules").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "samples": samples(ctx),
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(args) -> int:
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        other = WORKLOADS[args.workload](ctx)
        e2e = {**time_metrics(ctx, "seconds"), **outcome_metrics(ctx), **other}
        meta = metadata(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing: list[str] = []
    if ctx.trace:
        values, missing = layer_metrics(ctx, [m["name"] for m in bench["per_layer"]])
    else:
        values = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    detail_only = {k: v for k, v in e2e.items() if k not in units}
    result = {
        "correct": not ctx.problems,
        "attempted": len(ctx.ops),
        "failed": sum(o.failed for o in ctx.ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    detail = {**result, "metadata": meta, "detail_metrics": detail_only,
              "known_defects": dict(ctx.known),
              "problems": ctx.problems, "missing_functions": missing,
              "raw_metrics": time_metrics(ctx, "raw"),
              "passes_s": ctx.passes, "traced_passes_s": ctx.traced_wall,
              "probe_s": ctx.probes,
              "ops": [[o.kind, o.raw, o.seconds, o.code] for o in ctx.ops] if len(ctx.ops) <= 200 else None,
              "extra": {k: v for k, v in ctx.extra.items() if k != "samples"}}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"metadata": meta}))
    for name, value in values.items():
        print(f"{args.workload:15s} {name:45s} {value:14.6g} {units[name]}")
    if not ctx.trace:
        for name, value in detail_only.items():
            print(f"{args.workload:15s} {name:45s} {value:14.6g} s (detail only)")
    for text, count in ctx.known.items():
        print(f"known defect x{count}: {text}")
    for text in ctx.problems:
        print(f"PROBLEM: {text}")
    if missing:
        print(f"missing functions (reported as 0): {', '.join(missing)}")
    print(json.dumps(result))
    return 0


def steadiness(args) -> int:
    """Run each workload on seeds 1..STEADINESS_RUNS; print median, quartiles and spread per metric.

    Spread is (Q3 - Q1) / median.  For each time metric the spread of the
    raw, unnormalized times of the same runs is printed beside it.
    """
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    WORK.mkdir(exist_ok=True)
    for workload in args.workload or list(WORKLOADS):
        values, raw = defaultdict(list), defaultdict(list)
        for seed in range(1, STEADINESS_RUNS + 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = perf_counter()
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            took = perf_counter() - t0
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                return 1
            res = json.loads(last)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} in {took:.1f} s", flush=True)
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
            detail = json.loads((WORK / f"{workload}-seed{seed}-trace0.json").read_text())
            for name, v in detail["raw_metrics"].items():
                raw[name].append(v)
        report = {}
        for name, vals in values.items():
            med, q1, q3, spread = quartiles(vals)
            bound = bounds[name]
            raw_note = ""
            if name in raw:
                raw_spread = quartiles(raw[name])[3]
                raw_note = f" raw spread {raw_spread:6.3f}"
            verdict = ("steady" if spread <= bound / 3 else "within bound" if spread <= bound
                       else "UNSTEADY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bound, "values": vals, "raw_values": raw.get(name)}
            print(f"{workload:15s} {name:22s} median {med:11.5g} q1 {q1:11.5g} q3 {q3:11.5g} "
                  f"spread {spread:6.3f}{raw_note} bound {bound:5.2f} {verdict}", flush=True)
        (WORK / f"steadiness-{workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


def quartiles(values) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and the spread (Q3 - Q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat each workload over seeds and report spreads against the bounds")
    args = ap.parse_args(argv)
    if not (SRC / "shiftrules" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from a shiftrules checkout root (needs src/shiftrules and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        ap.error("a single --workload and --seconds are required")
    args.workload = args.workload[0]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
