"""Batch drivers over the continuum exponent: figure presets, Cartesian
parameter sweeps, the (tau, theta) optimizer and the crossover finder.

Every driver reduces to calls of gamma_continuum_nh with an OhmicSpectrum,
a time and a QuadratureSpec; rows come back in a fixed order whatever the
number of worker processes.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .continuum import OhmicSpectrum, QuadratureSpec, gamma_continuum_nh

PI = math.pi


def _gamma_rows(points: list[dict], columns: list[str], quad: QuadratureSpec, jobs: int):
    """Gamma for every parameter dict (keys amplitude, cutoff, temp, t and
    optionally tau, theta; both default to 0), in input order.  Returns
    (columns, rows), each row the point's `columns`, Gamma and exp(-Gamma)."""
    points = [{"tau": 0.0, "theta": 0.0, **p} for p in points]
    specs = [OhmicSpectrum(p["amplitude"], p["cutoff"], p["theta"], p["temp"], p["tau"])
             for p in points]
    times = [p["t"] for p in points]
    quads = [quad] * len(points)
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            gammas = list(pool.map(gamma_continuum_nh, specs, times, quads, chunksize=8))
    else:
        gammas = list(map(gamma_continuum_nh, specs, times, quads))
    rows = [[p[c] for c in columns] + [g, math.exp(-g)] for p, g in zip(points, gammas)]
    return columns + ["gamma", "coherence"], rows


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
    if axis_values is not None:
        values = np.asarray(axis_values, dtype=float)
    points = [{**preset.fixed, **curve, axis_name: float(v)}
              for curve in preset.curves for v in values]
    return _gamma_rows(points, ["tau", "theta", "t"], quad, jobs)


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
    mesh = [np.asarray(v, dtype=float) for _, v in grids]
    points = [{**fixed, **{n: float(v) for n, v in zip(names, combo)}}
              for combo in itertools.product(*mesh)]
    return _gamma_rows(points, names, quad, jobs)


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
             quad: QuadratureSpec, grid_points: int = 64, tol: float = 1e-4):
    """Coarse grid scan then golden-section refinement per free axis.

    Returns (argmin dict, gamma at the argmin).  The result is never worse
    than the best point in the evaluation log.
    """
    if not free:
        raise ValueError("free parameter set must be nonempty")
    for name in free:
        if name not in ("tau", "theta"):
            raise ValueError(f"cannot optimize over {name!r}")
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"bad bounds for {name!r}: {bounds[name]}")

    log = []

    def evaluate(p):
        g = gamma_continuum_nh(replace(fixed, **p), t, quad)
        log.append((dict(p), g))
        return g

    # joint coarse scan
    axes = {name: np.linspace(bounds[name][0], bounds[name][1],
                              max(grid_points, 2) if bounds[name][0] != bounds[name][1] else 1)
            for name in free}
    best_p, best_g = None, math.inf
    for combo in itertools.product(*(axes[n] for n in free)):
        p = {"tau": fixed.tau, "theta": fixed.theta, **{n: float(v) for n, v in zip(free, combo)}}
        g = evaluate(p)
        if g < best_g:
            best_p, best_g = p, g

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

        x, _, _ = golden_section_min(f1, float(lo), float(hi), tol)
        best_p = {**best_p, name: x}

    log_best_p, log_best_g = min(log, key=lambda e: e[1])
    return {n: log_best_p[n] for n in free}, log_best_g


def crossover(fixed: OhmicSpectrum, t: float, quad: QuadratureSpec,
              tau_max: float = 4.0, scan_points: int = 41, tol: float = 1e-3):
    """Smallest tau* > 0 with Gamma(tau*) = Gamma(0), by scan + bisection;
    None when Gamma(tau) - Gamma(0) never changes sign on (0, tau_max]."""

    def g(tau):
        return gamma_continuum_nh(replace(fixed, tau=tau), t, quad)

    g0 = g(0.0)
    taus = np.linspace(0.0, tau_max, scan_points)[1:]
    f_prev, tau_prev = None, None
    for tau in taus:
        f = g(float(tau)) - g0
        if f_prev is not None and f_prev * f < 0:
            a, b, fa = tau_prev, float(tau), f_prev
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = g(m) - g0
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            return 0.5 * (a + b)
        f_prev, tau_prev = f, float(tau)
    return None
