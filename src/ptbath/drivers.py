"""Batch drivers over the continuum exponent: figure presets, Cartesian
parameter sweeps, the (tau, theta) optimizer and the crossover finder.

A figure or a sweep fixes one amplitude, cutoff and temperature and reduces
to one gamma_continuum_batch call over the grid of its distinct (tau, t) by
its distinct theta, which batches the integrals and maps the batches over
up to `jobs` worker processes.  The optimizer's grid is one call too, and
the crossover finder's scan is a chunk of taus per call; the golden
refinement and the bisection call gamma_continuum_nh per tau.  Rows come
back in a fixed order whatever the number of worker processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .continuum import OhmicSpectrum, QuadratureSpec, gamma_continuum_batch, gamma_continuum_nh
from .core import check_tau, check_time

PI = math.pi

# optimize's golden-section width; crossover's tau scan, its taus per engine
# pass (few integrals past an early crossing, few passes without one) and
# bisection width
_GOLDEN_TOL = 1e-4
_CROSSOVER_SCAN_POINTS = 41
_CROSSOVER_CHUNK = 8
_CROSSOVER_TOL = 1e-3


def _gamma_rows(spec: OhmicSpectrum, inputs: dict[str, list], columns: list[str],
                quad: QuadratureSpec, jobs: int):
    """Gamma of the spectrum's amplitude, cutoff and temperature at every
    point of the input columns (inputs' lists of floats tau, theta and t),
    in input order.  Returns (columns, rows), each row the point's
    `columns` of the inputs, Gamma and exp(-Gamma).

    One gamma_continuum_batch call, with jobs, over their distinct (tau, t)
    by their distinct theta, each in order of first appearance."""
    integrals: dict[tuple, int] = {}  # grid rows by (tau, t)
    phases: dict[float, int] = {}  # grid columns by theta
    rows = [integrals.setdefault(key, len(integrals)) for key in zip(inputs["tau"], inputs["t"])]
    cols = [phases.setdefault(theta, len(phases)) for theta in inputs["theta"]]
    grid = gamma_continuum_batch(spec, [tau for tau, _ in integrals], [t for _, t in integrals],
                                 list(phases), quad, jobs)
    gammas = grid[rows, cols].tolist()
    # math.exp, not np.exp, which may differ in the last place
    coherences = [math.exp(-g) for g in gammas]
    printed = [inputs[c] for c in columns]
    return columns + ["gamma", "coherence"], list(map(list, zip(*printed, gammas, coherences)))


# ---------------------------------------------------------------------------
# figure presets


@dataclass(frozen=True)
class FigurePreset:
    id: str
    fixed: dict            # amplitude, cutoff, temp (+ theta/tau/t if common)
    axis: tuple            # (name, values)
    curves: tuple          # per-curve overrides, dicts over {tau, theta, t}


def _figure_presets() -> dict[str, FigurePreset]:
    common = {"amplitude": 1.0, "cutoff": 0.1, "temp": 300.0}
    t_grid = np.linspace(0.0, 20.0, 401)
    theta_grid = np.linspace(0.0, 2.0 * PI, 721)
    tau_grid = np.linspace(0.0, 4.0, 201)
    tau_grid_wide = np.linspace(0.0, 20.0, 201)
    presets = [
        FigurePreset(
            "fig1a", dict(common), ("t", t_grid),
            tuple(
                [{"tau": 2.0, "theta": th} for th in (0.0, PI / 4, PI / 2, 3 * PI / 4, PI)]
                + [{"tau": 0.0, "theta": 0.0}]  # Hermitian reference
            ),
        ),
        FigurePreset(
            "fig1b", {**common, "amplitude": 0.1, "t": 20.0}, ("theta", theta_grid),
            tuple({"tau": tv} for tv in (0.5, 1.0, 2.0, 4.0)),
        ),
        FigurePreset(
            "fig2", {**common, "theta": PI / 2}, ("t", t_grid),
            tuple({"tau": tv} for tv in (0.0, 1.0, 2.0, 4.0)),
        ),
        FigurePreset(
            "fig3a", {**common, "t": 120.0}, ("tau", tau_grid),
            tuple({"theta": th} for th in (0.0, PI / 4, PI / 2, 2 * PI / 3, PI)),
        ),
        FigurePreset(
            "fig3b", {**common, "t": 2.0}, ("tau", tau_grid),
            tuple({"theta": th} for th in (0.0, PI / 4, PI / 2, 2 * PI / 3, PI)),
        ),
        FigurePreset(
            "fig4", {**common, "theta": PI / 2}, ("tau", tau_grid_wide),
            tuple({"t": tv} for tv in (2.0, 120.0)),
        ),
    ]
    return {p.id: p for p in presets}


FIGURE_PRESETS = _figure_presets()


def run_figure(preset: FigurePreset, quad: QuadratureSpec, jobs: int = 1,
               axis_values=None):
    """Evaluate every curve of a preset; returns (columns, rows)."""
    axis_name, values = preset.axis
    values = np.asarray(values if axis_values is None else axis_values, dtype=float).tolist()
    inputs = {"tau": [], "theta": [], "t": []}
    for curve in preset.curves:
        at = {"tau": 0.0, "theta": 0.0, **preset.fixed, **curve}
        for name, column in inputs.items():
            column.extend(values if name == axis_name else [at[name]] * len(values))
    f = preset.fixed
    spec = OhmicSpectrum(f["amplitude"], f["cutoff"], 0.0, f["temp"])
    return _gamma_rows(spec, inputs, ["tau", "theta", "t"], quad, jobs)


# ---------------------------------------------------------------------------
# sweep


def run_sweep(fixed: dict, grids: list[tuple[str, np.ndarray]], quad: QuadratureSpec,
              jobs: int = 1):
    """Cartesian product over the declared grids, rows in lexicographic
    grid order; byte-deterministic regardless of worker count."""
    names = [n for n, _ in grids]
    if len(set(names)) != len(names):
        raise ValueError("sweep grids must cover distinct parameters")
    for name, values in grids:
        if name not in ("tau", "theta", "t"):
            raise ValueError(f"cannot sweep parameter {name!r}")
        values = np.asarray(values)
        if values.size == 0 or np.any(np.diff(values) <= 0) and values.size > 1:
            raise ValueError(f"grid for {name!r} must be nonempty and strictly increasing")
        if name == "tau":
            check_tau(max(values.tolist(), key=abs), "--sweep tau=")
        if name == "t":
            check_time(float(values[0]), "--sweep t=")
    # the grids' Cartesian product in lexicographic order, with a one-value
    # axis for each parameter that is not swept
    at = {"tau": 0.0, "theta": 0.0, **fixed}
    axes = {name: np.asarray(v, dtype=float) for name, v in grids}
    axes.update((name, [at[name]]) for name in ("tau", "theta", "t") if name not in axes)
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    inputs = {name: axis.ravel().tolist() for name, axis in zip(axes, mesh)}
    spec = OhmicSpectrum(fixed["amplitude"], fixed["cutoff"], 0.0, fixed["temp"])
    return _gamma_rows(spec, inputs, names, quad, jobs)


# ---------------------------------------------------------------------------
# optimizer and crossover


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimization on [lo, hi] to absolute tol in the
    argument; returns (x, f(x), evaluation log)."""
    log = []

    def probe(x):
        v = f(x)
        log.append((x, v))
        return v

    if hi < lo:
        raise ValueError("bounds must satisfy lo <= hi")
    if hi == lo:
        return lo, probe(lo), log
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = probe(d)
    x_best, f_best = min(log, key=lambda p: p[1])
    return x_best, f_best, log


def optimize(fixed: OhmicSpectrum, free: list[str], t: float, bounds: dict,
             quad: QuadratureSpec, grid_points: int = 64):
    """Coarse grid scan then golden-section refinement per free axis.

    Returns (argmin dict, gamma at the argmin).  The result is never worse
    than the best point in the evaluation log.
    """
    if not free:
        raise ValueError("free parameter set must be nonempty")
    if len(set(free)) != len(free):
        raise ValueError(f"free parameters must be distinct, got {free}")
    if grid_points < 2:
        raise ValueError(f"grid_points (--grid-points) must be >= 2, got {grid_points}")
    for name in free:
        if name not in ("tau", "theta"):
            raise ValueError(f"cannot optimize over {name!r}")
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"bad bounds for {name!r} (--{name}-bounds): {bounds[name]}; "
                             "expected finite LO <= HI")
        if name == "tau":
            check_tau(max(lo, hi, key=abs), "--tau-bounds")

    log = []

    def evaluate(p):
        g = gamma_continuum_nh(replace(fixed, **p), t, quad)
        log.append((dict(p), g))
        return g

    # joint coarse scan: one gamma_continuum_batch call, one integral per tau
    # serving the theta axis; the points are logged in the order of the free axes
    axes = {name: np.linspace(bounds[name][0], bounds[name][1],
                              grid_points if bounds[name][0] != bounds[name][1] else 1)
            for name in free}
    scan = {"tau": [fixed.tau], "theta": [fixed.theta]}
    scan.update({name: [float(v) for v in axes[name]] for name in free})
    grid = gamma_continuum_batch(fixed, scan["tau"], [t] * len(scan["tau"]), scan["theta"], quad)
    for combo in itertools.product(*(range(len(scan[n])) for n in free)):
        at = {"tau": 0, "theta": 0, **dict(zip(free, combo))}
        p = {n: scan[n][at[n]] for n in ("tau", "theta")}
        log.append((p, float(grid[at["tau"], at["theta"]])))
    best_p = min(log, key=lambda e: e[1])[0]

    # per-axis golden refinement around the best grid point
    for name in free:
        values = axes[name]
        if len(values) == 1:
            continue
        i = int(np.argmin(np.abs(values - best_p[name])))
        lo = values[max(i - 1, 0)]
        hi = values[min(i + 1, len(values) - 1)]

        def f1(x, _name=name):
            return evaluate({**best_p, _name: x})

        x, _, _ = golden_section_min(f1, float(lo), float(hi), _GOLDEN_TOL)
        best_p = {**best_p, name: x}

    log_best_p, log_best_g = min(log, key=lambda e: e[1])
    return {n: log_best_p[n] for n in free}, log_best_g


def crossover(fixed: OhmicSpectrum, t: float, quad: QuadratureSpec,
              tau_max: float = 4.0):
    """Smallest tau* > 0 with Gamma(tau*) = Gamma(0), by scan + bisection;
    None when Gamma(tau) - Gamma(0) never changes sign on (0, tau_max]."""
    if not 0.0 < tau_max < math.inf:
        raise ValueError(f"tau_max (--tau-max) must be finite and > 0, got {tau_max}")
    check_tau(tau_max, "--tau-max")

    def g(tau):
        return gamma_continuum_nh(replace(fixed, tau=tau), t, quad)

    g0 = g(0.0)
    taus = np.linspace(0.0, tau_max, _CROSSOVER_SCAN_POINTS)[1:].tolist()
    f_prev, tau_prev = None, None
    for start in range(0, len(taus), _CROSSOVER_CHUNK):
        chunk = taus[start:start + _CROSSOVER_CHUNK]
        gammas = gamma_continuum_batch(fixed, chunk, [t] * len(chunk), [fixed.theta], quad)
        for tau, g_tau in zip(chunk, gammas[:, 0].tolist()):
            f = g_tau - g0
            if f_prev is not None and f_prev * f < 0:
                a, b, fa = tau_prev, tau, f_prev
                while b - a > _CROSSOVER_TOL:
                    m = 0.5 * (a + b)
                    fm = g(m) - g0
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                return 0.5 * (a + b)
            f_prev, tau_prev = f, tau
    return None
