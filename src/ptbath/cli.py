"""Command-line front end: argument parsing, config files, and
deterministic CSV/JSON emission.  The batch algorithms live in
`ptbath.drivers`; they are re-exported here.

Exit codes: 0 success, 2 invalid arguments, 3 quadrature non-convergence,
4 oracle validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .continuum import OhmicSpectrum, QuadratureSpec, QuadratureError, gamma_continuum_nh
from .core import load_bath_csv, gamma_discrete
from .drivers import (  # noqa: F401  (re-exported)
    FIGURE_PRESETS,
    FigurePreset,
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


def _parse_range(text: str) -> np.ndarray:
    """argparse type of a scalar or start:stop:count."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise argparse.ArgumentTypeError(f"count must be >= 1, got {text!r}")
        return np.linspace(start, stop, count)
    return np.array([float(text)])


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
    return float(parts[0]), float(parts[1])


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
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gamma(args) -> int:
    times = [float(t) for t in args.t]
    if args.modes_file:
        bath = load_bath_csv(args.modes_file, temperature=args.temp, tau=args.tau)
        gammas = [gamma_discrete(bath, t) for t in times]
    else:
        spec = OhmicSpectrum(args.A, args.cutoff, args.theta, args.temp, args.tau)
        quad = _quad_from_args(args)
        gammas = [gamma_continuum_nh(spec, t, quad) for t in times]
    rows = [[t, g, math.exp(-g)] for t, g in zip(times, gammas)]
    _write_table(["t", "gamma", "coherence"], rows, args.out, args.format)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    fixed = {
        "amplitude": args.A, "cutoff": args.cutoff, "theta": args.theta,
        "temp": args.temp, "tau": args.tau, "t": args.t,
    }
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
    fixed = OhmicSpectrum(args.A, args.cutoff, args.theta, args.temp, args.tau)
    bounds = {name: getattr(args, f"{name}_bounds") for name in args.free}
    argmin, g_min = optimize(fixed, list(args.free), args.t, bounds, _quad_from_args(args),
                             grid_points=args.grid_points)
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
    _emit(report.to_json() + "\n", args.out)
    if report.converged and report.dephasing_max_error <= 1e-6:
        return EXIT_OK
    needed = oracle_mod.unreachable_fock_dim(
        oracle_mod.TruncatedMode(args.omega, args.tau, args.fock_dim), args.temp, args.dim_budget)
    if needed is not None:
        print(f"error: the thermal state at temperature {args.temp:g} needs Fock dimension "
              f"{needed}; doubling --fock-dim {args.fock_dim} within --dim-budget "
              f"{args.dim_budget} cannot reach it", file=sys.stderr)
    return EXIT_ORACLE


# ---------------------------------------------------------------------------
# parser / config plumbing


def _positive_int(text: str) -> int:
    """argparse type of the count flags."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


# The flags that several subcommands share, with their built-in defaults.
# Each subcommand declares only the flags its handler reads.
_FLAGS = {
    "tau": dict(type=float, default=0.0),
    "theta": dict(type=float, default=0.0),
    "A": dict(type=float, default=1.0, help="Ohmic amplitude"),
    "cutoff": dict(type=float, default=0.1),
    "temp": dict(type=float, default=300.0),
    "t": dict(type=float, default=1.0),  # gamma and figure take a t axis instead
    "rel-tol": dict(type=float),
    "abs-tol": dict(type=float),
    "max-subdivisions": dict(type=int),
    "format": dict(choices=("csv", "json"), default="csv"),
    "jobs": dict(type=_positive_int, default=1),
}
_SPECTRUM = ("tau", "theta", "A", "cutoff", "temp")
_QUAD = ("rel-tol", "abs-tol", "max-subdivisions")


def _subcommand(sub, name, func, flags, help, **defaults):
    """A subparser with the named shared flags plus --out and --config;
    `defaults` override the built-in defaults."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str, help="JSON config file")
    p.set_defaults(func=func, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptbath",
        description="Qubit dephasing under a PT-symmetric non-Hermitian bosonic bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gamma", _cmd_gamma, _SPECTRUM + _QUAD + ("format",),
                    "decoherence exponent Gamma(t)")
    p.add_argument("--t", type=_parse_range, default="1", help="scalar or start:stop:count")
    p.add_argument("--modes-file", type=str, default=None,
                   help="CSV of discrete modes (omega,g_abs,theta)")

    p = _subcommand(sub, "sweep", _cmd_sweep, _SPECTRUM + _QUAD + ("t", "format", "jobs"),
                    "Cartesian parameter sweep")
    p.add_argument("--sweep", type=_sweep_axis, action="append", required=True,
                   metavar="PARAM=START:STOP:COUNT")

    # a preset fixes its spectrum; without --t or --points it keeps its own axis
    p = _subcommand(sub, "figure", _cmd_figure, _QUAD + ("format", "jobs"),
                    "figure-preset data generation")
    p.add_argument("id", choices=sorted(FIGURE_PRESETS))
    axis = p.add_mutually_exclusive_group()
    axis.add_argument("--t", type=_parse_range,
                      help="scalar or start:stop:count; fig1a, fig2 only")
    axis.add_argument("--points", type=_positive_int,
                      help="override the preset axis sample count")

    p = _subcommand(sub, "optimize", _cmd_optimize, _SPECTRUM + _QUAD + ("t",),
                    "minimize Gamma over tau and/or theta")
    p.add_argument("--free", action="append", choices=("tau", "theta"), required=True)
    p.add_argument("--tau-bounds", type=_bounds, default="0:20", metavar="LO:HI")
    p.add_argument("--theta-bounds", type=_bounds, default=f"0:{PI}", metavar="LO:HI")
    p.add_argument("--grid-points", type=_positive_int, default=64)

    p = _subcommand(sub, "crossover", _cmd_crossover, _SPECTRUM[1:] + _QUAD + ("t",),
                    "tau* with Gamma(tau*) = Gamma(0)")
    p.add_argument("--tau-max", type=float, default=4.0)

    p = _subcommand(sub, "concurrence", _cmd_concurrence, ("format",),
                    "concurrence and EoF from gamma")
    p.add_argument("--gamma", type=float, required=True)

    # a high-temperature continuum default would need astronomically large
    # Fock truncations, so the validation command has its own defaults
    p = _subcommand(sub, "oracle", _cmd_oracle, ("tau", "theta", "temp"),
                    "exact truncated-Fock validation report",
                    tau=0.2, theta=PI / 2, temp=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--g-abs", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=20.0)
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
        flags.extend(f"{flag}={v}" for v in values)
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc} (params: {exc.params})", file=sys.stderr)
        return EXIT_QUADRATURE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
