"""Command-line front end: analyze, synthesize, validate, optimize, variance.

Exit codes: 0 success, 1 validation failure, 2 ill-posed or infeasible
problem, 3 invalid input.  Reports are JSON on stdout (or --output).
"""

from __future__ import annotations

import sys
import time

import click
import numpy as np

from . import serialize
from .equidistant import EquidistantStructure, closed_form_rule
from .fourier import (
    FourierModel,
    NoiseSpec,
    analytic_derivative,
    evaluate_models,
    sample_noisy_batch,
)
from .perturbation import error_bound, perturbation_matrices
from .regularization import regularized_rule
from .spectrum import (
    DEFAULT_REL_TOL,
    PERTURBED_FRACTION,
    StructureKind,
    classify_structure,
    frequency_differences,
)
from .synthesis import (
    IllPosedError,
    _singular_value_condition,
    check_phase_distinctness,
    synthesize_rule,
)
from .variance import confidence_interval, optimize_shifts, variance_of_estimate

EXIT_VALIDATION = 1
EXIT_ILL_POSED = 2
EXIT_INVALID = 3
VALIDATION_BOUND = 1e-8  # validate's default --bound; synthesize warns above it


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(ctx_obj: dict, data: dict, to_file: bool = False) -> None:
    output = ctx_obj.get("output")
    if to_file and output:
        serialize.dump_json(data, output)
    elif not ctx_obj.get("quiet"):
        click.echo(serialize.dumps_report(data))


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file (regularization and optimization settings).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for every randomized choice.")
@click.option("--output", type=click.Path(), default=None,
              help="Destination file (rule file for synthesize/optimize, report otherwise).")
@click.option("--quiet", is_flag=True, help="Suppress stdout reports.")
@click.pass_context
def cli(ctx, config_path, seed, output, quiet):
    """Synthesize and validate parameter-shift rules from eigenvalue spectra."""
    ctx.ensure_object(dict)
    try:
        ctx.obj["regularization"], ctx.obj["optimization"] = serialize.load_config(config_path, seed)
    except (OSError, TypeError, ValueError) as exc:
        _fail(EXIT_INVALID, f"cannot read config: {exc}")
    ctx.obj["seed"] = seed
    ctx.obj["output"] = output
    ctx.obj["quiet"] = quiet


def _load_spectrum(path):
    """(spectrum, rel_tol, structure class, frequency set); exit 3 when malformed."""
    try:
        spec, extra = serialize.load_spectrum(path)
        rel_tol = float(extra.get("rel_tol", DEFAULT_REL_TOL))
        cls = classify_structure(spec, rel_tol=rel_tol)
        return spec, rel_tol, cls, frequency_differences(spec)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))


def _auto_phases(freq, seed):
    """Best-conditioned random phase set out of 64 seeded draws.

    The window is one period, 2*pi / resolution, of the frequency
    resolution: the smallest spacing of (0, w_1, ..., w_R), floored at
    1e-2 times the largest gap.  Gap values closer than the floor are
    unresolvable at practical shifts and surface as ill-posed downstream.
    """
    freqs = np.asarray(freq.unique_frequencies)
    resolution = np.diff(freqs, prepend=0.0).min()
    lo = -2 * np.pi / max(resolution, 1e-2 * freqs[-1])
    draws = np.random.default_rng(seed).uniform(lo + 1e-3, -1e-3, (64, freq.m))
    E = np.exp(1j * freq.distinct_gaps[:, None] * draws[:, None, :])  # one design matrix per draw
    s = np.linalg.svd(E, compute_uv=False)
    return draws[np.argmin([_singular_value_condition(row, freq.m) for row in s])]


def _parse_phases(text):
    try:
        phases = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        _fail(EXIT_INVALID, f"cannot parse phases {text!r}: {exc}")
    if not np.isfinite(phases).all():
        _fail(EXIT_INVALID, f"phases must be finite, got {text!r}")
    return phases


@cli.command()
@click.argument("spectrum_file", type=click.Path())
@click.pass_context
def analyze(ctx, spectrum_file):
    """Classify a spectrum and report its gap structure."""
    spec, rel_tol, cls, freq = _load_spectrum(spectrum_file)
    _emit(ctx.obj, {
        "kind": cls.kind.value,
        "delta": cls.delta,
        "epsilon": cls.epsilon,
        "m": freq.m,
        "distinct_gaps": [float(g) for g in freq.distinct_gaps],
        "unique_frequencies": list(freq.unique_frequencies),
        "multiplicities": list(freq.multiplicities),
        "label": spec.label,
        # classification thresholds are engineering knobs, so they are
        # reported alongside the verdict they produced
        "thresholds": {"rel_tol": rel_tol, "perturbed_fraction": PERTURBED_FRACTION},
    }, to_file=True)


@cli.command()
@click.argument("spectrum_file", type=click.Path())
@click.option("--order", "-p", type=int, default=1, show_default=True,
              help="Derivative order of the rule.")
@click.option("--method", type=click.Choice(["auto", "direct", "equidistant", "tikhonov"]),
              default="auto", show_default=True)
@click.option("--phases", default="auto", show_default=True,
              help="'auto' or comma-separated shift phases.")
@click.pass_context
def synthesize(ctx, spectrum_file, order, method, phases):
    """Synthesize a shift rule for a spectrum and write it to a rule file."""
    t0 = time.perf_counter()
    spec, _, cls, freq = _load_spectrum(spectrum_file)
    if order < 0:
        _fail(EXIT_INVALID, "order must be non-negative")
    orders = ((order, 1.0),)
    warnings: list[str] = []

    explicit = None
    if phases != "auto":
        explicit = _parse_phases(phases)
        if method == "equidistant":
            _fail(EXIT_INVALID, "the equidistant method fixes its own phases")
        try:
            check_phase_distinctness(explicit, freq.unique_frequencies)
        except IllPosedError as exc:
            _fail(EXIT_ILL_POSED, str(exc))

    rule = None
    method_used = method
    try:
        if method == "equidistant" or (
            method == "auto" and explicit is None and cls.kind in (
                StructureKind.EQUIDISTANT, StructureKind.PERTURBED_EQUIDISTANT)
        ):
            if cls.delta is None:
                _fail(EXIT_INVALID, "spectrum is not equidistant; cannot use the closed form")
            es = EquidistantStructure(n=spec.n, delta=cls.delta)
            rule = closed_form_rule(es, order)
            method_used = "equidistant"
            if cls.kind is StructureKind.PERTURBED_EQUIDISTANT:
                pd = perturbation_matrices(es)
                bound = error_bound(es, pd, rule.coefficients, cls.epsilon)
                rule.diagnostics.update(
                    perturbation_epsilon=cls.epsilon,
                    perturbation_relative_bound=bound.relative,
                    perturbation_absolute_estimate=bound.absolute,
                    perturbation_loose_bound=bound.loose,
                )
                warnings.append(
                    "spectrum is perturbed-equidistant; closed-form rule carries "
                    "a first-order coefficient error bound in its diagnostics"
                )
        else:  # direct, tikhonov, or auto without equidistant structure
            ph = explicit if explicit is not None else _auto_phases(freq, ctx.obj["seed"])
            if method != "tikhonov":
                try:
                    rule = synthesize_rule(freq, ph, orders)
                    method_used = "direct"
                except IllPosedError as exc:
                    if method == "direct":
                        cond = exc.condition_number
                        _fail(EXIT_ILL_POSED,
                              f"direct synthesis is ill-posed ({exc}); "
                              f"condition number {cond if cond is not None else 'n/a'}")
                    warnings.append(f"direct synthesis ill-posed ({exc}); falling back to tikhonov")
            if rule is None:
                rule = regularized_rule(freq, ph, orders, ctx.obj["regularization"])
                method_used = "regularized"
                residual = rule.diagnostics["residual"]
                if residual > VALIDATION_BOUND:
                    warnings.append(f"regularized rule is inexact: residual {residual:.3g} "
                                    f"exceeds validation_bound {VALIDATION_BOUND:.3g}")
    except IllPosedError as exc:
        _fail(EXIT_ILL_POSED, str(exc))

    out_path = ctx.obj.get("output") or "rule.json"
    serialize.save_rule(rule, out_path)
    _emit(ctx.obj, {
        "method": method_used,
        "rule_file": str(out_path),
        "structure": cls.kind.value,
        "diagnostics": dict(rule.diagnostics),
        "warnings": warnings,
        "elapsed_s": time.perf_counter() - t0,
    })


def _random_models(frequencies, count, seed):
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        terms = tuple(
            (w, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            for w in sorted(frequencies)
        )
        models.append(FourierModel(a0=float(rng.uniform(-1, 1)), terms=terms))
    return models


@cli.command()
@click.argument("rule_file", type=click.Path())
@click.option("--model", default="random:3", show_default=True,
              help="'random:K' for K random in-band models, or a model file path.")
@click.option("--t-grid", "t_grid", default="-3.141592653589793:3.141592653589793:100",
              show_default=True, help="Evaluation grid as start:stop:count.")
@click.option("--bound", type=float, default=VALIDATION_BOUND, show_default=True,
              help="Scaled error bound for exit status.")
@click.pass_context
def validate(ctx, rule_file, model, t_grid, bound):
    """Check a rule against the exact analytic oracle on a t-grid."""
    t0 = time.perf_counter()
    if not np.isfinite(bound):
        _fail(EXIT_INVALID, f"bound must be finite, got {bound}")
    try:
        rule = serialize.load_rule(rule_file)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))
    try:
        lo, hi, count = t_grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        _fail(EXIT_INVALID, f"cannot parse t-grid {t_grid!r}: {exc}")
    if len(grid) == 0 or not np.isfinite(grid).all():
        _fail(EXIT_INVALID, f"t-grid {t_grid!r} needs finite ends and at least one point")

    if model.startswith("random:"):
        try:
            count_models = int(model.split(":", 1)[1])
        except ValueError as exc:
            _fail(EXIT_INVALID, f"cannot parse model spec {model!r}: {exc}")
        if count_models < 1:
            _fail(EXIT_INVALID, f"model spec {model!r} asks for no models")
        if not rule.frequencies:
            _fail(EXIT_INVALID, "rule file carries no frequency set; supply a model file")
        models = _random_models(rule.frequencies, count_models, ctx.obj["seed"])
    else:
        try:
            loaded = serialize.load_fourier_model(model)
        except (OSError, ValueError) as exc:
            _fail(EXIT_INVALID, str(exc))
        for w in loaded.frequencies:
            if not any(abs(w - f) <= 1e-9 * max(1.0, abs(w)) for f in rule.frequencies):
                _fail(EXIT_INVALID,
                      f"model frequency {w} is outside the rule's frequency set")
        models = [loaded]

    # One (grid x phases) evaluation of all models.  The columns are summed
    # in apply_rule's order, so each estimate equals the scalar rule bit for bit.
    shifted = grid[:, None] + np.asarray(rule.phases, dtype=float)[None, :]
    max_err = max_scaled = err_sum = 0.0
    for fm, values in zip(models, evaluate_models(models, shifted)):
        estimate = sum(b * column for b, column in zip(rule.coefficients, values.T))
        target = sum(w * analytic_derivative(fm, grid, p) for p, w in rule.orders)
        err = np.abs(estimate - target)
        max_err = max(max_err, float(err.max()))
        max_scaled = max(max_scaled, float((err / (1.0 + np.abs(target))).max()))
        err_sum += float(err.sum())
    mean_err = err_sum / (len(models) * len(grid))

    passed = bool(max_scaled <= bound)
    _emit(ctx.obj, {
        "models": len(models),
        "grid_points": len(grid),
        "max_abs_error": max_err,
        "mean_abs_error": mean_err,
        "max_scaled_error": max_scaled,
        "bound": bound,
        "passed": passed,
        "elapsed_s": time.perf_counter() - t0,
    }, to_file=True)
    if not passed:
        sys.exit(EXIT_VALIDATION)


@cli.command()
@click.argument("spectrum_file", type=click.Path())
@click.option("--order", "-p", type=int, default=1, show_default=True)
@click.option("--phases", default="auto", show_default=True,
              help="'auto' or comma-separated starting phases.")
@click.pass_context
def optimize(ctx, spectrum_file, order, phases):
    """Minimize the coefficient square-norm over shift phases."""
    t0 = time.perf_counter()
    spec, _, cls, freq = _load_spectrum(spectrum_file)
    if order < 0:
        _fail(EXIT_INVALID, "order must be non-negative")
    orders = ((order, 1.0),)

    if phases == "auto":
        if cls.kind is StructureKind.EQUIDISTANT:
            phi0 = closed_form_rule(EquidistantStructure(spec.n, cls.delta), order).phases
        else:
            phi0 = _auto_phases(freq, ctx.obj["seed"])
    else:
        phi0 = _parse_phases(phases)
        if len(phi0) != freq.m:
            _fail(EXIT_INVALID, f"need {freq.m} starting phases (one per distinct gap), got {len(phi0)}")

    before = None
    try:
        before = synthesize_rule(freq, phi0, orders).square_norm
    except IllPosedError:
        pass
    try:
        phi_star, rule = optimize_shifts(freq, phi0, ctx.obj["optimization"], orders=orders)
    except IllPosedError as exc:
        _fail(EXIT_ILL_POSED, str(exc))

    warnings = []
    if not rule.diagnostics["certified"]:
        warnings.append(
            f"no optimizer candidate is stationary within tol "
            f"{ctx.obj['optimization'].tol:.3g}; the lowest square-norm found is returned "
            f"uncertified (max stationarity residual {rule.diagnostics['stationarity']:.3g})"
        )
    out_path = ctx.obj.get("output") or "optimized_rule.json"
    serialize.save_rule(rule, out_path)
    _emit(ctx.obj, {
        "rule_file": str(out_path),
        "square_norm_before": before,
        "square_norm_after": rule.square_norm,
        "phases": [float(p) for p in phi_star],
        "elapsed_s": time.perf_counter() - t0,
        "warnings": warnings,
    })


@cli.command()
@click.argument("rule_file", type=click.Path())
@click.option("--sigma", type=float, default=1.0, show_default=True,
              help="Per-evaluation noise standard deviation.")
@click.option("--shots", type=int, default=10000, show_default=True)
@click.option("--eta", type=float, default=0.1, show_default=True,
              help="Chebyshev miss probability in (0, 1).")
@click.pass_context
def variance(ctx, rule_file, sigma, shots, eta):
    """Analytic vs empirical estimator variance and the Chebyshev interval."""
    try:
        rule = serialize.load_rule(rule_file)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))
    if sigma < 0 or shots < 1 or not 0 < eta < 1:
        _fail(EXIT_INVALID, "need sigma >= 0, shots >= 1, eta in (0, 1)")

    report = variance_of_estimate(rule, sigma**2)
    nu = confidence_interval(report, eta)

    zero = FourierModel(a0=0.0)
    noise = NoiseSpec(sigma=sigma, seed=ctx.obj["seed"])
    draws = np.stack([
        sample_noisy_batch(zero, float(p), noise, shots) for p in rule.phases
    ])
    estimates = np.asarray(rule.coefficients) @ draws
    empirical = float(np.var(estimates, ddof=1)) if shots > 1 else 0.0

    _emit(ctx.obj, {
        "analytic_variance": report.variance,
        "empirical_variance": empirical,
        "square_norm": report.square_norm,
        "sigma": sigma,
        "shots": shots,
        "eta": eta,
        "nu": nu,
        "seed": ctx.obj["seed"],
    }, to_file=True)


def main():
    cli(obj={})


if __name__ == "__main__":
    main()
