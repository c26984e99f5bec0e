"""Command-line front end: analyze, synthesize, validate, optimize, variance.

Exit codes: 0 success, 1 validation failure, 2 ill-posed or infeasible
problem, 3 invalid input, usage errors included.  Reports are JSON on
stdout (or --output).

The command line comes from one table, ``_GLOBAL`` and ``_COMMANDS``:
``_parse`` walks argv once against it, and ``--help`` and the usage
line are written from it, so no command loads argparse, gettext or
locale.

Each command imports the modules it runs, numpy included, inside its
body, so a process loads only those: ``--help`` and usage errors load no
numpy and no module but ``serialize``, ``analyze`` adds ``spectrum``, and
``validate`` and ``variance`` load ``rule`` and ``fourier`` but neither
``spectrum`` nor the solver.  ``validate`` builds one t-grid, in plain
Python, and chooses its oracle path once, in ``_validate``, from a cost
that counts evaluations and frequencies: numpy loads only where that
work reaches ``ORACLE_BREAK_EVEN``, and below it the scalar rule runs in
plain Python.  Only the commands that draw with numpy
(the optimizer screen, ``variance``'s noise) load ``numpy.random``;
``synthesize`` draws nothing and ignores ``--seed``.
"""

from __future__ import annotations

import gc
import math
import os
import random
import sys
import time

from . import serialize

EXIT_VALIDATION = 1
EXIT_ILL_POSED = 2
EXIT_INVALID = 3
VALIDATION_BOUND = 1e-8  # validate's default --bound; synthesize warns where a gap's |r| / (1 + |mu|) exceeds it
ORACLE_BLOCK = 1 << 16  # validate's shifted evaluations (points x phases x models) per grid block
# validate's oracle work: points x phases x the sum over models of ORACLE_EVALUATION plus
# the model's frequencies.  Below ORACLE_BREAK_EVEN the oracle runs in plain Python and
# loads no numpy.  Measured on 2 cores (Python 3.11.7, numpy 2.4.6, 3 models): the plain
# path takes 0.61 us per evaluation plus 0.14 per frequency, so an evaluation costs about
# 4 frequencies; medians of 9 subprocess runs per path put the crossover at 3500 points
# for S7 (3 frequencies), 1350 for (0,1,2.5,4.1) (6), 600 for S21 (10) and 300 for S31
# (15), each at 515k-530k of this work.
ORACLE_EVALUATION = 4
ORACLE_BREAK_EVEN = 1 << 19


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _file(call, *args):
    """call(*args), which reads or writes a file; exit 3 if it is missing, malformed or unwritable."""
    try:
        return call(*args)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))


def _emit(obj: dict, data: dict, to_file: bool = False) -> None:
    output = obj["output"]
    if to_file and output:
        _file(serialize.dump_json, data, output)
    elif not obj["quiet"]:
        try:
            print(serialize.dumps_report(data), flush=True)
        except BrokenPipeError:  # closed stdout: point it at devnull, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load_spectrum(path):
    """(spectrum, rel_tol, structure class, frequency set); exit 3 when malformed."""
    from .spectrum import classify_structure, frequency_differences

    try:
        spec, rel_tol = serialize.load_spectrum(path)
        cls = classify_structure(spec, rel_tol=rel_tol)
        return spec, rel_tol, cls, frequency_differences(spec)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INVALID, str(exc))


def _parse_phases(text):
    import numpy as np

    try:
        phases = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        _fail(EXIT_INVALID, f"cannot parse phases {text!r}: {exc}")
    if not np.isfinite(phases).all():
        _fail(EXIT_INVALID, f"phases must be finite, got {text!r}")
    return phases


def _analyze(obj, spectrum_file):
    """Classify a spectrum and report its gap structure."""
    from .spectrum import PERTURBED_FRACTION

    spec, rel_tol, cls, freq = _load_spectrum(spectrum_file)
    _emit(obj, {
        "kind": cls.kind.value,
        "delta": cls.delta,
        "epsilon": cls.epsilon,
        "m": freq.m,
        "distinct_gaps": list(freq.signed_gaps),
        "unique_frequencies": list(freq.unique_frequencies),
        "multiplicities": list(freq.multiplicities),
        "label": spec.label,
        # classification thresholds are engineering knobs, so they are
        # reported alongside the verdict they produced
        "thresholds": {"rel_tol": rel_tol, "perturbed_fraction": PERTURBED_FRACTION},
    }, to_file=True)


def _synthesize(obj, spectrum_file, order, method, phases):
    """Synthesize a shift rule for a spectrum and write it to a rule file."""
    from .synthesis import Attempt, IllPosedError, compatibility_residual, rule_for

    t0 = time.perf_counter()
    spec, _, cls, freq = _load_spectrum(spectrum_file)
    explicit = None if phases == "auto" else _parse_phases(phases)
    try:
        if method == "equidistant":  # the closed form of the mean gap, on request only
            if explicit is not None:
                _fail(EXIT_INVALID, "the equidistant method fixes its own phases")
            if cls.kind.value != "equidistant":
                _fail(EXIT_INVALID, "spectrum is not equidistant; cannot use the closed form")
            from .equidistant import EquidistantStructure, closed_form_rule

            es = EquidistantStructure(spec.n, cls.delta)
            rule, attempts = closed_form_rule(es, order), [Attempt("equidistant")]
        else:
            rule, attempts = rule_for(freq, order, method, explicit, obj["config"][0])
    except IllPosedError as exc:
        _fail(EXIT_ILL_POSED, str(exc))

    warnings = [f"direct synthesis ill-posed ({a.message}); falling back to tikhonov"
                for a in attempts if a.left == "ill_posed"]
    method_used = attempts[-1].method
    if compatibility_residual(rule, freq, relative=True) > VALIDATION_BOUND:  # each gap, any method
        residual = compatibility_residual(rule, freq)
        warnings.append(f"rule is inexact on the spectrum's own gaps: residual {residual:.3g} "
                        f"exceeds validation_bound {VALIDATION_BOUND:.3g}")
    out_path = obj["output"] or "rule.json"
    _file(serialize.save_rule, rule, out_path)
    _emit(obj, {
        "method": "regularized" if method_used == "tikhonov" else method_used,
        "rule_file": str(out_path),
        "structure": cls.kind.value,
        "diagnostics": dict(rule.diagnostics),
        "attempts": [a._asdict() for a in attempts],
        "warnings": warnings,
        "elapsed_s": time.perf_counter() - t0,
    })


def _random_models(frequencies, count, seed):
    """``count`` in-band models, every coefficient uniform in [-1, 1].

    Drawn by the interpreter's own ``random.Random(seed)``, so validate
    loads no ``numpy.random``: per model the (a, b) pair of each
    frequency in increasing order, then a0.
    """
    from .fourier import FourierModel

    rng = random.Random(seed)
    models = []
    for _ in range(count):
        terms = tuple((w, rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in sorted(frequencies))
        models.append(FourierModel(a0=rng.uniform(-1, 1), terms=terms))
    return models


def _linspace(lo: float, hi: float, count: int):
    """np.linspace(lo, hi, count) as an array('d'), 8 bytes a point, bit for bit.

    numpy's formula: point i is i * step + lo with step = (hi - lo) / (count - 1),
    or (i / (count - 1)) * (hi - lo) + lo where step underflows to 0; the last
    point is hi, and a single point is 0 * (hi - lo) + lo.  The array is
    allocated before it is filled, so a count no memory holds fails at once.
    """
    from array import array

    if count < 0:
        raise ValueError(f"Number of samples, {count}, must be non-negative.")
    div, delta = count - 1, hi - lo
    if div <= 0:
        return array("d", [0.0 * delta + lo]) * count
    points, step = array("d", [hi]) * count, delta / div
    for i in range(div):
        points[i] = i * step + lo if step else i / div * delta + lo
    return points


def _t_grid(text: str):
    """The --t-grid points lo:hi:count, as np.linspace makes them; exit 3 if malformed."""
    try:
        lo, hi, count = text.split(":")
        grid = _linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        _fail(EXIT_INVALID, f"cannot parse t-grid {text!r}: {exc}")
    except (MemoryError, OverflowError):
        _fail(EXIT_INVALID, f"cannot allocate t-grid {text!r} at 8 bytes a point")
    if len(grid) == 0 or not all(map(math.isfinite, grid)):
        _fail(EXIT_INVALID, f"t-grid {text!r} needs finite ends and at least one point")
    return grid


def _validate(obj, rule_file, model, t_grid, bound):
    """Check a rule against the exact analytic oracle on a t-grid."""
    t0 = time.perf_counter()
    if not 0 <= bound < math.inf:
        _fail(EXIT_INVALID, f"bound must be finite and non-negative, got {bound}")
    rule = _file(serialize.read_rule, rule_file)
    grid = _t_grid(t_grid)

    if model.startswith("random:"):
        try:
            count_models = int(model.split(":", 1)[1])
        except ValueError as exc:
            _fail(EXIT_INVALID, f"cannot parse model spec {model!r}: {exc}")
        if count_models < 1:
            _fail(EXIT_INVALID, f"model spec {model!r} asks for no models")
        if not rule.frequencies:
            _fail(EXIT_INVALID, "rule file carries no frequency set; supply a model file")
        models = _random_models(rule.frequencies, count_models, obj["seed"])
    else:
        loaded = _file(serialize.load_fourier_model, model)
        for w in loaded.frequencies:
            if not any(abs(w - f) <= 1e-9 * max(1.0, abs(w)) for f in rule.frequencies):
                _fail(EXIT_INVALID,
                      f"model frequency {w} is outside the rule's frequency set")
        models = [loaded]

    from .fourier import rule_errors, rule_errors_blocked

    work = len(grid) * len(rule.phases) * sum(ORACLE_EVALUATION + len(m.terms) for m in models)
    if work < ORACLE_BREAK_EVEN:
        max_err, err_sum, max_scaled = rule_errors(rule, models, grid)
    else:
        max_err, err_sum, max_scaled = rule_errors_blocked(rule, models, grid, ORACLE_BLOCK)
    mean_err = err_sum / (len(models) * len(grid))

    passed = bool(max_scaled <= bound)
    _emit(obj, {
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


def _optimize(obj, spectrum_file, order, phases):
    """Minimize the coefficient square-norm over shift phases."""
    from .synthesis import IllPosedError, auto_phases, synthesize_rule
    from .variance import OptimizationConfig, optimize_shifts

    t0 = time.perf_counter()
    *_, freq = _load_spectrum(spectrum_file)
    orders = ((order, 1.0),)

    try:
        phi0 = auto_phases(freq) if phases == "auto" else _parse_phases(phases)
    except IllPosedError as exc:
        _fail(EXIT_ILL_POSED, str(exc))
    if len(phi0) != freq.m:
        _fail(EXIT_INVALID, f"need {freq.m} starting phases (one per distinct gap), got {len(phi0)}")

    before = None
    try:
        before = synthesize_rule(freq, phi0, orders).square_norm
    except IllPosedError:
        pass
    config = obj["config"][1] or OptimizationConfig(seed=obj["seed"])
    try:
        phi_star, rule = optimize_shifts(freq, phi0, config, orders=orders)
    except IllPosedError as exc:
        _fail(EXIT_ILL_POSED, str(exc))

    warnings = []
    if not rule.diagnostics["certified"]:
        warnings.append(
            f"no optimizer candidate is stationary within tol "
            f"{config.tol:.3g}; the lowest square-norm found is returned "
            f"uncertified (max stationarity residual {rule.diagnostics['stationarity']:.3g})"
        )
    out_path = obj["output"] or "optimized_rule.json"
    _file(serialize.save_rule, rule, out_path)
    _emit(obj, {
        "rule_file": str(out_path),
        "square_norm_before": before,
        "square_norm_after": rule.square_norm,
        "phases": [float(p) for p in phi_star],
        "elapsed_s": time.perf_counter() - t0,
        "warnings": warnings,
    })


def _variance(obj, rule_file, sigma, shots, eta):
    """Analytic vs empirical estimator variance and the Chebyshev interval."""
    import numpy as np

    from .fourier import FourierModel, NoiseSpec, sample_noisy_batch
    from .rule import confidence_interval, variance_of_estimate

    rule = _file(serialize.read_rule, rule_file)
    # sigma * sigma, unlike sigma**2, gives inf where the square overflows
    if not (0 <= sigma and sigma * sigma < np.inf) or shots < 1 or not 0 < eta < 1:
        _fail(EXIT_INVALID, "need sigma >= 0 with a finite square, shots >= 1, eta in (0, 1)")

    try:  # sum b^2 sigma^2 may overflow (ValueError), or nu = sqrt(variance / eta)
        report = variance_of_estimate(rule, sigma * sigma)
        nu = confidence_interval(report, eta)
    except ValueError:
        nu = np.inf
    if nu == np.inf:
        _fail(EXIT_INVALID, f"--sigma {sigma:g} is too large: the estimator's variance "
                            f"or its Chebyshev half-width overflows")

    # unit-sigma draws, their variance scaled once by sigma^2: nothing overflows before the result
    zero = FourierModel(a0=0.0)
    noise = NoiseSpec(sigma=1.0, seed=obj["seed"])
    draws = np.stack([
        sample_noisy_batch(zero, float(p), noise, shots) for p in rule.phases
    ])
    estimates = np.asarray(rule.coefficients) @ draws
    empirical = float(np.var(estimates, ddof=1)) * (sigma * sigma) if shots > 1 else 0.0

    _emit(obj, {
        "analytic_variance": report.variance,
        "empirical_variance": empirical,
        "square_norm": report.square_norm,
        "sigma": sigma,
        "shots": shots,
        "eta": eta,
        "nu": nu,
        "seed": obj["seed"],
    }, to_file=True)


def _seed(text: str) -> int:
    """--seed's type: a non-negative integer, on every command.

    validate draws its models with ``random.Random(seed)``; numpy's
    generators, which take only non-negative integers, take ``--seed`` in
    ``optimize`` and ``variance``.  ``synthesize`` draws nothing and
    ignores it.
    """
    if not text.isdecimal():
        raise ValueError(f"need a non-negative integer, got {text!r}")
    return int(text)


# The command line, one table.  An option is (flags, type, default, help), stored under
# its first flag's name (--t-grid: t_grid); type None marks a flag that takes no value,
# and a tuple of strings lists the choices.  A command is (handler, its positional file,
# its options), and its help line is the handler's docstring.
_GLOBAL = (
    (("--config",), str, None, "JSON config file (regularization and optimization settings)."),
    (("--seed",), _seed, 0, "Seed for every randomized choice."),
    (("--output",), str, None, "Destination file (rule file for synthesize/optimize, report otherwise)."),
    (("--quiet",), None, False, "Suppress stdout reports."),
)
_ORDER = (("--order", "-p"), int, 1, "Derivative order of the rule.")
_COMMANDS = {
    "analyze": (_analyze, "spectrum_file", ()),
    "synthesize": (_synthesize, "spectrum_file", (
        _ORDER,
        (("--method",), ("auto", "direct", "equidistant", "tikhonov"), "auto", "Synthesis method."),
        (("--phases",), str, "auto", "'auto' or comma-separated shift phases."),
    )),
    "validate": (_validate, "rule_file", (
        (("--model",), str, "random:3",
         "'random:K' for K random in-band models, or a model file path."),
        (("--t-grid",), str, "-3.141592653589793:3.141592653589793:100",
         "Evaluation grid as start:stop:count."),
        (("--bound",), float, VALIDATION_BOUND, "Scaled error bound for exit status."),
    )),
    "optimize": (_optimize, "spectrum_file", (
        _ORDER,
        (("--phases",), str, "auto", "'auto' or comma-separated starting phases."),
    )),
    "variance": (_variance, "rule_file", (
        (("--sigma",), float, 1.0, "Per-evaluation noise standard deviation."),
        (("--shots",), int, 10000, "Noisy evaluations per phase."),
        (("--eta",), float, 0.1, "Chebyshev miss probability in (0, 1)."),
    )),
}


def _name(flags) -> str:
    return flags[0][2:].replace("-", "_")


def _usage(command) -> str:
    """The usage line of the top level (command None) or of one command."""
    if command is None:
        return "usage: shiftrules [options] COMMAND [options] FILE"
    return f"usage: shiftrules [options] {command} [options] {_COMMANDS[command][1].upper()}"


def _help(command) -> str:
    """The usage line, the commands or the command's summary, and each option with its default."""
    lines = [_usage(command), ""]
    if command:
        run, _, options = _COMMANDS[command]
        lines.append(run.__doc__)
    else:
        lines.append("Synthesize and validate parameter-shift rules from eigenvalue spectra.\n\ncommands:")
        lines += [f"  {name:<11} {run.__doc__}" for name, (run, *_) in _COMMANDS.items()]
        options = _GLOBAL
    lines.append("\noptions:\n  -h, --help\n      Show this help and exit.")
    for flags, kind, default, text in options:
        value = "" if kind is None else " {%s}" % ",".join(kind) if type(kind) is tuple \
            else " " + _name(flags).upper()
        shown = "" if default is None or default is False else f" [default: {default}]"
        lines += ["  " + ", ".join(flag + value for flag in flags), f"      {text}{shown}"]
    return "\n".join(lines)


def _choose(text: str, choices):
    if text not in choices:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(choices)})")
    return text


def _parse(argv) -> tuple:
    """(handler, its keyword arguments) for argv, global options included, defaults filled.

    One walk: options before the command are global, those after it the
    command's; ``--opt value``, ``--opt=value``, ``-p VALUE`` and ``-pVALUE``
    all work, a value may begin with '-', the last of a repeated option wins
    and ``--`` ends the options.  ``-h``/``--help`` prints the help of its
    level and exits 0; a usage error prints the level's usage line and one
    ``error:`` line, and exits 3.
    """
    # file: the positional argument still wanted, the command's file once it is named
    command, file, options, ended, values = None, "COMMAND", _GLOBAL, False, {}
    rest = iter(argv)
    try:
        for arg in rest:
            where = ""  # the argument a ValueError is about
            if not ended and arg == "--":
                ended = True
            elif ended or arg[:1] != "-" or arg == "-":
                if command is None:
                    where = "argument COMMAND: "
                    command, (_, file, options) = arg, _COMMANDS[_choose(arg, _COMMANDS)]
                elif file in values:
                    raise ValueError(f"unrecognized arguments: {arg}")
                else:
                    values[file] = arg
            elif arg in ("-h", "--help"):  # one write: print's own newline fails where `| head` closed stdout
                sys.stdout.write(_help(command) + "\n")
                sys.exit(0)
            else:
                if arg[:2] == "--":
                    flag, eq, text = arg.partition("=")
                else:  # -pVALUE and -p=VALUE
                    flag, eq, text = arg[:2], arg[2:], arg[2:].removeprefix("=")
                option = next((o for o in options if flag in o[0]), None)
                if option is None:
                    raise ValueError(f"unrecognized arguments: {arg}")
                flags, kind = option[:2]
                where = f"argument {'/'.join(flags)}: "
                if kind is None and eq:
                    raise ValueError(f"ignored explicit argument {text!r}")
                if kind is not None and not eq and (text := next(rest, None)) is None:
                    raise ValueError("expected one argument")
                values[_name(flags)] = True if kind is None else _choose(text, kind) if type(kind) is tuple \
                    else kind(text)
        where = ""
        if file not in values:
            raise ValueError(f"the following arguments are required: {file.upper()}")
    except ValueError as exc:
        print(_usage(command), file=sys.stderr)
        _fail(EXIT_INVALID, where + str(exc))
    defaults = {_name(flags): default for flags, _, default, _ in _GLOBAL + options}
    return _COMMANDS[command][0], defaults | values


def main(argv=None) -> None:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``."""
    run, args = _parse(sys.argv[1:] if argv is None else argv)
    config_path = args.pop("config")
    if not 0 <= args.get("order", 0) <= sys.float_info.max:  # synthesize's and optimize's --order
        _fail(EXIT_INVALID, "order must be non-negative and within float range")
    obj = {name: args.pop(name) for name in ("seed", "output", "quiet")}
    obj["config"] = (None, None)  # None: the config records' own defaults
    if config_path is not None:  # read up front, so a bad file exits 3 on every command
        try:
            obj["config"] = serialize.load_config(config_path, obj["seed"])
        except (OSError, ValueError) as exc:
            _fail(EXIT_INVALID, f"cannot read config: {exc}")
    run(obj, **args)


def entry() -> None:
    """``main()`` for ``python -m shiftrules.cli`` and the ``shiftrules`` script.

    It freezes the heap when the command ends, so shutdown's collections skip it.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
