"""Command-line front end: argument parsing, config files, and
deterministic CSV/JSON emission.  The batch algorithms live in
`ptbath.drivers`; they are re-exported here.

Exit codes: 0 success, 2 invalid arguments, 3 quadrature non-convergence,
4 oracle validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from .continuum import OhmicSpectrum, QuadratureSpec, QuadratureError, gamma_continuum_batch
from .core import load_bath_csv, gamma_discrete
from .drivers import (  # noqa: F401  (golden_section_min: re-exported)
    FIGURE_PRESETS,
    crossover,
    golden_section_min,
    optimize,
    run_figure,
    run_sweep,
)
from .entanglement import concurrence, dephased_bell, eof_from_concurrence
from . import oracle as oracle_mod

PI = math.pi

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_QUADRATURE = 3
EXIT_ORACLE = 4


def _fmt(x: float) -> str:
    # 12 significant digits, scientific; reproducible across platforms
    return f"{x:.11e}"


def _number(kind, text: str):
    """kind(text), failing as argparse's own float or int type does."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _finite(text: str) -> float:
    """argparse type of the shared float flags: a finite float."""
    x = _number(float, text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _parse_range(text: str) -> np.ndarray:
    """argparse type of a scalar or start:stop:count."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
        start, stop = _number(float, parts[0]), _number(float, parts[1])
        count = _number(int, parts[2])
        if count < 1:
            raise argparse.ArgumentTypeError(f"count must be >= 1, got {text!r}")
        try:  # a non-finite start, stop or stop - start is rejected below, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.linspace(start, stop, count)
        except MemoryError:
            raise argparse.ArgumentTypeError(f"count too large, got {text!r}") from None
        if not np.isfinite(values).all():
            raise argparse.ArgumentTypeError(f"values must be finite, got {text!r}")
        return values
    return np.array([_finite(text)])


def _sweep_axis(text: str) -> tuple[str, np.ndarray]:
    """argparse type of --sweep: name=start:stop:count."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected name=start:stop:count, got {text!r}")
    name, rng = text.split("=", 1)
    return name, _parse_range(rng)


def _bounds(text: str) -> tuple[float, float]:
    """argparse type of the LO:HI search bounds."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return _number(float, parts[0]), _number(float, parts[1])


def _quad_from_args(args) -> QuadratureSpec:
    given = {"rel_tol": args.rel_tol, "abs_tol": args.abs_tol,
             "max_subdivisions": args.max_subdivisions}
    return QuadratureSpec(**{k: v for k, v in given.items() if v is not None})


def _emit(text: str, out) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _write_table(columns, rows, out, fmt):
    """Rows of floats, serialized with 12 significant digits."""
    if fmt == "json":
        _emit_json({"columns": list(columns),
                    "rows": [[float(_fmt(v)) for v in row] for row in rows]}, out)
    else:
        # one % over the whole table: "%.11e" % x is the text of _fmt(x)
        row = ",".join(["%.11e"] * len(columns)) + "\n"
        body = (row * len(rows)) % tuple(itertools.chain.from_iterable(rows))
        _emit(",".join(columns) + "\n" + body, out)


# ---------------------------------------------------------------------------
# subcommands


def _given_or_default(args, flags, unused, why: str) -> dict:
    """Each of `flags` as given, or else its _FLAGS default; each is None
    in args unless given (see build_parser).  A given flag among `unused`
    raises ValueError, naming it with `why`."""
    values = {}
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and flag in unused:
            raise ValueError(f"--{flag} {why}")
        values[flag] = _FLAGS[flag].get("default") if value is None else value
    return values


def _cmd_gamma(args) -> int:
    times = [float(t) for t in args.t]
    ohmic = _given_or_default(args, _OHMIC_ONLY, _OHMIC_ONLY if args.modes_file else (),
                              "applies to the Ohmic continuum, not to --modes-file")
    if args.modes_file:
        bath = load_bath_csv(args.modes_file, temperature=args.temp, tau=args.tau)
        gammas = [gamma_discrete(bath, t) for t in times]
    else:
        spec = OhmicSpectrum(ohmic["A"], ohmic["cutoff"], ohmic["theta"], args.temp, args.tau)
        quad = _quad_from_args(args)
        taus = [spec.tau] * len(times)
        gammas = gamma_continuum_batch(spec, taus, times, [spec.theta], quad)[:, 0]
    rows = [[t, g, math.exp(-g)] for t, g in zip(times, gammas)]
    _write_table(["t", "gamma", "coherence"], rows, args.out, args.format)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    fixed = _given_or_default(args, ("tau", "theta", "t"), [name for name, _ in args.sweep],
                              "would be ignored: --sweep varies it")
    fixed.update(amplitude=args.A, cutoff=args.cutoff, temp=args.temp)
    columns, rows = run_sweep(fixed, args.sweep, _quad_from_args(args), jobs=args.jobs)
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def _cmd_figure(args) -> int:
    preset = FIGURE_PRESETS[args.id]
    axis_name, axis = preset.axis
    if args.t is not None and axis_name != "t":
        raise ValueError(f"--t: {args.id} runs over {axis_name}, not t; use --points")
    axis_values = args.t
    if args.points is not None:  # --points and --t exclude each other
        axis_values = np.linspace(axis[0], axis[-1], args.points)
    columns, rows = run_figure(preset, _quad_from_args(args), jobs=args.jobs,
                               axis_values=axis_values)
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    at = _given_or_default(args, ("tau", "theta"), args.free,
                           "would be ignored: --free scans its parameter")
    fixed_bounds = [f"{name}-bounds" for name in ("tau", "theta") if name not in args.free]
    bounds = _given_or_default(args, ("tau-bounds", "theta-bounds"), fixed_bounds,
                               "would be ignored: its parameter is not --free")
    fixed = OhmicSpectrum(args.A, args.cutoff, at["theta"], args.temp, at["tau"])
    argmin, g_min = optimize(fixed, list(args.free), args.t,
                             {name: bounds[f"{name}-bounds"] for name in args.free},
                             _quad_from_args(args), grid_points=args.grid_points)
    _emit_json({"argmin": {k: float(_fmt(v)) for k, v in argmin.items()},
                "gamma_min": float(_fmt(g_min))}, args.out)
    return EXIT_OK


def _cmd_crossover(args) -> int:
    # crossover scans tau itself, so the spectrum keeps its default tau
    fixed = OhmicSpectrum(args.A, args.cutoff, args.theta, args.temp)
    tau_star = crossover(fixed, args.t, _quad_from_args(args), tau_max=args.tau_max)
    if tau_star is None:
        payload = {"crossover_tau": None, "message": "no crossover in interval"}
    else:
        payload = {"crossover_tau": float(_fmt(tau_star))}
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_concurrence(args) -> int:
    if not args.gamma >= 0:
        raise ValueError(f"--gamma must be >= 0, got {args.gamma}")
    c = concurrence(dephased_bell(args.gamma)).concurrence
    ef = eof_from_concurrence(c)
    rows = [[args.gamma, c, ef]]
    _write_table(["gamma", "concurrence", "eof"], rows, args.out, args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = oracle_mod.certify(
        omega=args.omega, tau=args.tau, theta=args.theta, g_abs=args.g_abs,
        temperature=args.temp, t_max=args.t_max, num_times=args.num_times,
        fock_dim=args.fock_dim, dim_budget=args.dim_budget,
    )
    _emit_json(asdict(report), args.out)
    if report.converged and report.dephasing_max_error <= 1e-6:
        return EXIT_OK
    budget = f"--fock-dim {args.fock_dim} within --dim-budget {args.dim_budget}"
    if report.dephasing_max_error is None:  # the one report made without exact evolution
        print(f"error: the thermal state at temperature {args.temp:g} needs Fock dimension "
              f"{oracle_mod.thermal_fock_dim(args.omega, args.temp)}; the ratios are checked at "
              f"a doubling of {budget} that holds it, and there is none", file=sys.stderr)
    elif not report.converged:
        print(f"error: the exact coherence ratios did not converge: Fock dimension "
              f"{report.fock_dim_used} is the last doubling of {budget}, and no doubling up to "
              f"it moved them by less than {oracle_mod.DOUBLING_TOL:g}", file=sys.stderr)
    return EXIT_ORACLE


# ---------------------------------------------------------------------------
# parser / config plumbing


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an int, or an integral float such as 1e+70, the
    form in which an error message prints a count past 1e15."""
    try:
        n = int(text)
    except ValueError:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not x.is_integer():  # nor nan or inf
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        n = int(x)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


# The shared flags, and those a handler checks for being given
# (_given_or_default), with their built-in defaults.  Each subcommand
# declares only the flags its handler reads.
_FLAGS = {
    "tau": dict(type=_finite, default=0.0),
    "theta": dict(type=_finite, default=0.0),
    "A": dict(type=_finite, default=1.0, help="Ohmic amplitude"),
    "cutoff": dict(type=_finite, default=0.1),
    "temp": dict(type=_finite, default=300.0),
    "t": dict(type=_finite, default=1.0),  # gamma and figure take a t axis instead
    "rel-tol": dict(type=_finite),
    "abs-tol": dict(type=_finite),
    "max-subdivisions": dict(type=_positive_int),
    "format": dict(choices=("csv", "json"), default="csv"),
    "jobs": dict(type=_positive_int, default=1),
    "tau-bounds": dict(type=_bounds, default=(0.0, 20.0), metavar="LO:HI"),
    "theta-bounds": dict(type=_bounds, default=(0.0, PI), metavar="LO:HI"),
}
_SPECTRUM = ("tau", "theta", "A", "cutoff", "temp")
_QUAD = ("rel-tol", "abs-tol", "max-subdivisions")
# the gamma flags that a discrete bath (--modes-file) has no use for
_OHMIC_ONLY = ("A", "cutoff", "theta") + _QUAD
_COMMANDS = ("gamma", "sweep", "figure", "optimize", "crossover", "concurrence", "oracle")


def _subcommand(sub, command, name, func, flags, help, **defaults):
    """Register subcommand `name`.  Unless `command` is another subcommand,
    return its parser with the named shared flags plus --out and --config,
    `defaults` overriding the built-in defaults; else None."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    if command != name and command in _COMMANDS:
        return None
    # -1e-3 and -1:1 are values, as in later CPython (gh-123945); no flag looks like a number
    p._negative_number_matcher = re.compile(r"-\.?\d")
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str, help="JSON config file")
    p.set_defaults(func=func, **defaults)
    return p


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ptbath parser.  Every subcommand is registered, so that usage,
    choices and errors do not depend on `command`, but when `command` names
    one, only that one gets its flags: all that parsing its argv needs."""
    parser = argparse.ArgumentParser(
        prog="ptbath",
        description="Qubit dephasing under a PT-symmetric non-Hermitian bosonic bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # gamma, sweep and optimize default to None the flags that an input could
    # leave unused (gamma --modes-file, the swept or free parameters); their
    # handlers fill in the built-in defaults, to tell a given flag from these
    if p := _subcommand(sub, command, "gamma", _cmd_gamma, _SPECTRUM + _QUAD + ("format",),
                        "decoherence exponent Gamma(t)", A=None, cutoff=None, theta=None):
        p.add_argument("--t", type=_parse_range, default="1", help="scalar or start:stop:count")
        p.add_argument("--modes-file", type=str, default=None,
                       help="CSV of discrete modes (omega,g_abs,theta)")

    if p := _subcommand(sub, command, "sweep", _cmd_sweep,
                        _SPECTRUM + _QUAD + ("t", "format", "jobs"),
                        "Cartesian parameter sweep", tau=None, theta=None, t=None):
        p.add_argument("--sweep", type=_sweep_axis, action="append", required=True,
                       metavar="PARAM=START:STOP:COUNT")

    # a preset fixes its spectrum; without --t or --points it keeps its own axis
    if p := _subcommand(sub, command, "figure", _cmd_figure, _QUAD + ("format", "jobs"),
                        "figure-preset data generation"):
        p.add_argument("id", choices=sorted(FIGURE_PRESETS))
        axis = p.add_mutually_exclusive_group()
        axis.add_argument("--t", type=_parse_range,
                          help="scalar or start:stop:count; fig1a, fig2 only")
        axis.add_argument("--points", type=_positive_int,
                          help="override the preset axis sample count")

    if p := _subcommand(sub, command, "optimize", _cmd_optimize,
                        _SPECTRUM + _QUAD + ("t", "tau-bounds", "theta-bounds"),
                        "minimize Gamma over tau and/or theta",
                        tau=None, theta=None, tau_bounds=None, theta_bounds=None):
        p.add_argument("--free", action="append", choices=("tau", "theta"), required=True)
        p.add_argument("--grid-points", type=_positive_int, default=64)

    if p := _subcommand(sub, command, "crossover", _cmd_crossover,
                        _SPECTRUM[1:] + _QUAD + ("t",), "tau* with Gamma(tau*) = Gamma(0)"):
        p.add_argument("--tau-max", type=float, default=4.0)

    if p := _subcommand(sub, command, "concurrence", _cmd_concurrence, ("format",),
                        "concurrence and EoF from gamma"):
        p.add_argument("--gamma", type=float, required=True)

    # a high-temperature continuum default would need astronomically large
    # Fock truncations, so the validation command has its own defaults
    if p := _subcommand(sub, command, "oracle", _cmd_oracle, ("tau", "theta", "temp"),
                        "exact truncated-Fock validation report",
                        tau=0.2, theta=PI / 2, temp=1.0):
        p.add_argument("--omega", type=_finite, default=1.0)
        p.add_argument("--g-abs", type=_finite, default=0.1)
        p.add_argument("--t-max", type=_finite, default=20.0)
        p.add_argument("--num-times", type=_positive_int, default=101)
        p.add_argument("--fock-dim", type=int, default=40)
        p.add_argument("--dim-budget", type=int, default=6400)

    return parser


def _subparser(parser, name: str):
    """The parser of subcommand `name`, or None."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices.get(name)
    return None


def _with_config(parser, argv: list[str]) -> list[str]:
    """argv with the --config file's entries as flags.  Precedence: flags >
    config file > built-in defaults.

    Each entry becomes a `--key=value` flag placed before the command
    line's own flags, so it goes through the flag's type and choices and a
    later explicit flag overrides it.  The file is read before argparse
    checks required flags, so it may give them.  A repeatable flag takes a
    list, one flag per item, and is dropped when the command line gives
    that flag itself.
    """
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv)[0].config
    sub = None if path is None else _subparser(parser, argv[0])
    if sub is None:
        return argv  # no config, or argparse reports what is wrong
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    options = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = []
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not an option of {argv[0]!r}")
        flag = action.option_strings[0]
        if isinstance(action, argparse._AppendAction):
            if any(arg == flag or arg.startswith(flag + "=") for arg in argv):
                continue
            values = value if isinstance(value, list) else [value]
        else:
            values = [value]
        for v in values:  # anything else would reach the flag as its Python text
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise ValueError(f"config key {key!r} ({flag}) needs a string or a number, "
                                 f"got {json.dumps(v)}")
        flags.extend(f"{flag}={v}" for v in values)
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc} (params: {exc.params})", file=sys.stderr)
        return EXIT_QUADRATURE
    except (ValueError, OSError, KeyError, MemoryError) as exc:  # MemoryError: a huge count
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
