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
    """Scalar or start:stop:count."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("count must be >= 1")
        return np.linspace(start, stop, count)
    return np.array([float(text)])


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


def _spectrum_from_args(args) -> OhmicSpectrum:
    return OhmicSpectrum(
        amplitude=args.A, cutoff=args.cutoff, theta=args.theta,
        temperature=args.temp, tau=args.tau,
    )


def _cmd_gamma(args) -> int:
    times = [float(t) for t in _parse_range(args.t)]
    if args.modes_file:
        bath = load_bath_csv(args.modes_file, temperature=args.temp, tau=args.tau)
        gammas = [gamma_discrete(bath, t) for t in times]
    else:
        spec, quad = _spectrum_from_args(args), _quad_from_args(args)
        gammas = [gamma_continuum_nh(spec, t, quad) for t in times]
    rows = [[t, g, math.exp(-g)] for t, g in zip(times, gammas)]
    _write_table(["t", "gamma", "coherence"], rows, args.out, args.format)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    quad = _quad_from_args(args)
    grids = []
    for spec_text in args.sweep:
        if "=" not in spec_text:
            raise ValueError(f"expected name=start:stop:count, got {spec_text!r}")
        name, rng = spec_text.split("=", 1)
        grids.append((name, _parse_range(rng)))
    fixed = {
        "amplitude": args.A, "cutoff": args.cutoff, "theta": args.theta,
        "temp": args.temp, "tau": args.tau, "t": float(_parse_range(args.t)[0]),
    }
    columns, rows = run_sweep(fixed, grids, quad, jobs=args.jobs)
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def _cmd_figure(args) -> int:
    preset = FIGURE_PRESETS[args.id]
    quad = _quad_from_args(args)
    axis_values = None
    axis_name = preset.axis[0]
    if args.t is not None and axis_name == "t":
        axis_values = _parse_range(args.t)
    elif args.points is not None:
        lo, hi = preset.axis[1][0], preset.axis[1][-1]
        axis_values = np.linspace(lo, hi, args.points)
    columns, rows = run_figure(preset, quad, jobs=args.jobs, axis_values=axis_values)
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    quad = _quad_from_args(args)
    fixed = _spectrum_from_args(args)
    bounds = {}
    if "tau" in args.free:
        bounds["tau"] = tuple(float(v) for v in args.tau_bounds.split(":"))
    if "theta" in args.free:
        bounds["theta"] = tuple(float(v) for v in args.theta_bounds.split(":"))
    t = float(_parse_range(args.t)[0])
    argmin, g_min = optimize(fixed, list(args.free), t, bounds, quad,
                             grid_points=args.grid_points)
    _emit_json({"argmin": {k: float(_fmt(v)) for k, v in argmin.items()},
                "gamma_min": float(_fmt(g_min))}, args.out)
    return EXIT_OK


def _cmd_crossover(args) -> int:
    quad = _quad_from_args(args)
    fixed = _spectrum_from_args(args)
    t = float(_parse_range(args.t)[0])
    tau_star = crossover(fixed, t, quad, tau_max=args.tau_max)
    if tau_star is None:
        payload = {"crossover_tau": None, "message": "no crossover in interval"}
    else:
        payload = {"crossover_tau": float(_fmt(tau_star))}
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_concurrence(args) -> int:
    if args.gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {args.gamma}")
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
    return EXIT_ORACLE


# ---------------------------------------------------------------------------
# parser / config plumbing


_COMMON_DEFAULTS = {
    "tau": 0.0, "theta": 0.0, "A": 1.0, "cutoff": 0.1, "temp": 300.0,
    "t": "1", "format": "csv", "jobs": 1,
}

# a high-temperature continuum default would need astronomically large Fock
# truncations, so the validation command carries its own defaults
_ORACLE_DEFAULTS = {"tau": 0.2, "theta": PI / 2, "temp": 1.0}


def _add_common(parser, **defaults):
    """The common flags, with the built-in defaults overridden by `defaults`."""
    parser.add_argument("--tau", type=float)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--A", type=float, help="Ohmic amplitude")
    parser.add_argument("--cutoff", type=float)
    parser.add_argument("--temp", type=float)
    parser.add_argument("--t", type=str, help="scalar or start:stop:count")
    parser.add_argument("--rel-tol", type=float)
    parser.add_argument("--abs-tol", type=float)
    parser.add_argument("--max-subdivisions", type=int)
    parser.add_argument("--out", type=str)
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--config", type=str, help="JSON config file")
    parser.add_argument("--jobs", type=int)
    parser.set_defaults(**{**_COMMON_DEFAULTS, **defaults})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptbath",
        description="Qubit dephasing under a PT-symmetric non-Hermitian bosonic bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="decoherence exponent Gamma(t)")
    _add_common(p)
    p.add_argument("--modes-file", type=str, default=None,
                   help="CSV of discrete modes (omega,g_abs,theta)")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep")
    _add_common(p)
    p.add_argument("--sweep", action="append", required=True,
                   metavar="PARAM=START:STOP:COUNT")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="figure-preset data generation")
    _add_common(p, t=None)  # without --t a preset keeps its own t axis or t
    p.add_argument("id", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--points", type=int, default=None,
                   help="override the preset axis sample count")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("optimize", help="minimize Gamma over tau and/or theta")
    _add_common(p)
    p.add_argument("--free", action="append", choices=("tau", "theta"), required=True)
    p.add_argument("--tau-bounds", type=str, default="0:20", metavar="LO:HI")
    p.add_argument("--theta-bounds", type=str, default=f"0:{PI}", metavar="LO:HI")
    p.add_argument("--grid-points", type=int, default=64)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("crossover", help="tau* with Gamma(tau*) = Gamma(0)")
    _add_common(p)
    p.add_argument("--tau-max", type=float, default=4.0)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("concurrence", help="concurrence and EoF from gamma")
    _add_common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_concurrence)

    p = sub.add_parser("oracle", help="exact truncated-Fock validation report")
    _add_common(p, **_ORACLE_DEFAULTS)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--g-abs", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--num-times", type=int, default=101)
    p.add_argument("--fock-dim", type=int, default=40)
    p.add_argument("--dim-budget", type=int, default=6400)
    p.set_defaults(func=_cmd_oracle)

    return parser


# namespace entries that are not options a config file may set
_NOT_CONFIG_KEYS = {"command", "func", "config", "id"}


def _apply_config(parser, argv: list[str], args) -> argparse.Namespace:
    """Precedence: flags > config file > built-in defaults.

    Each config entry becomes a `--key=value` flag placed before the
    command line's own flags, so it goes through the flag's type and
    choices and a later explicit flag overrides it.
    """
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    flags = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest in _NOT_CONFIG_KEYS or dest not in vars(args):
            raise ValueError(f"config key {key!r} is not an option of {args.command!r}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    i = argv.index(args.command) + 1
    return parser.parse_args(argv[:i] + flags + argv[i:])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, argv, args)
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc} (params: {exc.params})", file=sys.stderr)
        return EXIT_QUADRATURE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
