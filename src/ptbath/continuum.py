"""Ohmic-continuum decoherence factors.

The bath is described by the spectral density J(w) = A w exp(-w/cutoff)
with a coupling phase theta and non-Hermiticity tau.  Gamma(t) is an
oscillatory frequency integral; the nested Gauss-Kronrod G7/K15 engine
lays down panels narrow enough to resolve the oscillation at rate
t*sqrt(1+4 tau^2) and bisects adaptively from there.  Failure to
converge raises, never returns a best-effort number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import check_time, coth, dephasing_bound, dephasing_terms, require_finite

# QUADPACK QK15 (Piessens et al., QUADPACK, Springer 1983): the 15-point
# Kronrod abscissae xgk on [0, 1) with weights wgk; xgk[1::2] are the
# 7-point Gauss nodes, with Gauss weights wg.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

# the 15 nodes on [-1, 1] in ascending order, and the K15 and G7 weights
# over them (G7 is zero at the Kronrod-only nodes)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_G7_ON_K15 = [0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3]]
_WEIGHTS = np.array([_WGK[:-1] + _WGK[::-1],
                     _G7_ON_K15[:-1] + _G7_ON_K15[::-1]]).T  # (15, 2): K15, G7
# the same weights as columns over the node axis; the G7 ones over the
# 7 Gauss nodes _NODES[1::2] only
_K15_COL = _WEIGHTS[:, :1]
_G7_COL = _WEIGHTS[1::2, 1:]

# Nodes x outputs of one integrand call.  A round evaluates its panels in
# blocks of at most this many values, so the working set stays bounded
# whatever the number of panels and of outputs.
_BLOCK_VALUES = 1 << 16
# Panels x phases of one grouped integral, as counted on its start grid:
# larger groups of phases are split into several integrals.
_RECORD_VALUES = 1 << 21

# The start grid ends at this multiple of the cutoff, in panels no wider
# than 1/_PANELS_PER_OSCILLATION of the integrand's fastest period.
_OMEGA_MAX_CUTOFFS = 60.0
_PANELS_PER_OSCILLATION = 4

# The kernel divides by w^2, which underflows below w ~ 1e-154; under
# this multiple of the cutoff the integrands take their analytic w -> 0
# limit instead.  No quadrature node comes near it; w = 0 is the case it
# serves.  The limit's relative error grows like tau^2 t w, so a switch at
# a resolvable frequency would put a jump into the integrand.
_LIMIT_BELOW = 1e-60


@dataclass(frozen=True)
class OhmicSpectrum:
    amplitude: float
    cutoff: float
    theta: float = 0.0
    temperature: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        require_finite(amplitude=self.amplitude, cutoff=self.cutoff, theta=self.theta,
                       temperature=self.temperature, tau=self.tau)
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the frequency integral.

    abs_tol is applied per unit frequency so panel acceptance is purely
    local: a longer start grid leaves the shared panels untouched.  The
    start grid ends at 60 x cutoff (_OMEGA_MAX_CUTOFFS); start panels
    beyond the Ohmic tail's cut-off, where a bound of the integrand
    (core.dephasing_bound) is at most abs_tol/2, are accepted as 0
    without being evaluated.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2_000_000

    def __post_init__(self):
        require_finite(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")


class QuadratureError(RuntimeError):
    """Raised when adaptive bisection exhausts its subdivision budget."""

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params


def spectral_density(omega, amplitude: float, cutoff: float):
    """Ohmic spectral density A w exp(-w/cutoff); accepts arrays."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega must be >= 0")
    out = amplitude * w * np.exp(-w / cutoff)
    return out if out.ndim else float(out)


def _omega_coth(w, temperature):
    """w * coth(w/2T), finite and smooth through w = 0 (-> 2T)."""
    w = np.asarray(w, dtype=float)
    if temperature == 0.0:
        return w.copy()
    x = w / (2.0 * temperature)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    series = 2.0 * temperature + w * (x / 3.0 - x**3 / 45.0)
    return np.where(small, series, w / np.tanh(xs))


def _phase_columns(thetas) -> tuple[np.ndarray, np.ndarray]:
    # (sin cos, cos^2) of each phase as a column, from scalar math sines so
    # that a phase gets the same two numbers alone or inside any group
    cos = np.array([math.cos(th) for th in thetas]).reshape(-1, 1)
    sin = np.array([math.sin(th) for th in thetas]).reshape(-1, 1)
    return sin * cos, cos * cos


def gamma_integrand_nh(omega, spec: OhmicSpectrum, t: float, thetas=None):
    """Integrand of the non-Hermitian continuum decoherence factor:
    J(w) times the dephasing kernel 2 |xi_w(t)|^2 coth(w/2T) of a
    unit-magnitude coupling of phase theta.

    The theta-free terms of core.dephasing_terms are computed once per
    node and combined per phase elementwise.  With a sequence of phases
    the result has shape (len(thetas),) + omega.shape, one row per phase
    (spec.theta is then ignored); without thetas it is the row of
    [spec.theta], with the shape of omega.  The removable 0*inf form at
    w -> 0 is replaced on every row by its analytic limit
    2 A t^2 * w coth(w/2T) only where the kernel's w^2 would underflow, so
    the two never meet at a resolvable frequency.
    """
    check_time(t)
    w = np.asarray(omega, dtype=float)
    shape = w.shape
    w = w.reshape(-1)
    A, lam, T = spec.amplitude, spec.cutoff, spec.temperature
    small = w < _LIMIT_BELOW * lam
    any_small = small.any()
    ws = np.where(small, lam, w) if any_small else w  # placeholder, overwritten below
    t0, t1, t2 = dephasing_terms(ws, spectral_density(ws, A, lam), spec.tau, t, T)
    sc, c2 = _phase_columns([spec.theta] if thetas is None else thetas)
    out = t0 + sc * t1 + c2 * t2
    if any_small:
        wl = w[small]
        out[:, small] = 2.0 * A * t * t * _omega_coth(wl, T) * np.exp(-wl / lam)
    rows = out.reshape(out.shape[:1] + shape)
    if thetas is not None:
        return rows
    return float(rows[0]) if not shape else rows[0]


def gamma_integrand_hermitian(omega, amplitude: float, cutoff: float, temperature: float, t: float):
    """Integrand of the ordinary (tau = 0) spin-boson decoherence factor:
    4 A exp(-w/cutoff) (1 - cos w t) coth(w/2T) / w, with the same w -> 0
    limit and switch as gamma_integrand_nh."""
    check_time(t)
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    small = w < _LIMIT_BELOW * cutoff
    any_small = small.any()
    ws = np.where(small, cutoff, w) if any_small else w
    cth = coth(ws / (2.0 * temperature)) if temperature > 0 else 1.0
    # 1 - cos(wt) = 2 sin^2(wt/2), immune to cancellation
    out = 8.0 * amplitude * np.exp(-ws / cutoff) * np.sin(0.5 * ws * t) ** 2 * cth / ws
    if any_small:
        wl = w[small]
        out[small] = 2.0 * amplitude * t * t * _omega_coth(wl, temperature) * np.exp(-wl / cutoff)
    return float(out[0]) if scalar else out


def _initial_edges(lo: float, hi: float, width: float) -> np.ndarray:
    # edges anchored at lo in steps of width, clamped to hi: extending hi
    # never moves the shared edges
    n = int(math.floor((hi - lo) / width))
    edges = lo + width * np.arange(n + 1)
    if edges[-1] < hi - 1e-12 * width:
        edges = np.append(edges, hi)
    else:
        edges[-1] = hi
    return edges


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of (outputs, nodes, panels) terms over the node axis, node after
    node for every panel whatever the array's shape.  numpy adds along a
    non-contiguous axis in order, but sums a lone contiguous column
    pairwise, so a single panel is reduced as two copies of itself."""
    if terms.shape[2] == 1:
        return np.add.reduce(np.concatenate([terms, terms], axis=2), axis=1)[:, :1]
    return np.add.reduce(terms, axis=1)


def integrate_adaptive(f, lo: float, hi: float, quad: QuadratureSpec, panel_width: float,
                       params=None, outputs: int | None = None, bound=None):
    """Globally adaptive nested Gauss-Kronrod G7/K15 quadrature of one
    integrand, or of several over one shared subdivision.

    f maps a 1-D array of n nodes to n values, and the result is a float.
    With outputs=k it maps them to a (k, n) array, k integrands at the same
    nodes, and the result is an array of the k integrals.

    Panels of panel_width anchored at lo.  Each round evaluates the 15
    Kronrod nodes of every open panel, in integrand calls of at most
    _BLOCK_VALUES nodes x outputs; the 7-point Gauss estimate reuses 7 of
    them.  A panel is accepted for an output when |K15 - G7| <= rel_tol
    |K15| + abs_tol * width and contributes K15 to it; it is bisected for
    the outputs it failed for only.  Each output's accepted values are
    summed in order of left edge as one array.  A panel's K15 and G7 are
    elementwise functions of its own nodes, so an output's integral is
    bit for bit the same alone, in any group and at any block size.

    bound, if given, maps the left edges of the n start panels to an
    (outputs, n) array (n values without outputs) that bounds |f| over
    each panel.  A start panel whose bound is <= abs_tol/2 is accepted for
    that output with value 0 without being evaluated: its K15 and G7 lie
    within abs_tol * width / 2 of 0, so it would pass the test above, and
    the value left out is below abs_tol * width / 2.  A panel no output
    needs is never evaluated; a NaN bound keeps the panel open.  The
    bound is per output, so grouped and single integrals still agree bit
    for bit.
    Raises QuadratureError, before allocating anything, when the start grid
    alone needs more than max_subdivisions panels, and when bisection for
    any one output exceeds max_subdivisions.
    """
    n_panels = (hi - lo) / panel_width if panel_width > 0.0 else math.inf
    if n_panels > quad.max_subdivisions:
        needed = math.ceil(n_panels) if math.isfinite(n_panels) else n_panels
        raise QuadratureError(
            f"the start grid needs {needed} panels, more than the "
            f"{quad.max_subdivisions} subdivisions allowed",
            params=params,
        )
    k = 1 if outputs is None else outputs
    block = max(1, _BLOCK_VALUES // (_NODES.size * k))
    edges = _initial_edges(lo, hi, panel_width)
    a, b = edges[:-1], edges[1:]
    open_ = np.ones((k, a.size), dtype=bool)  # the outputs each panel is open for
    if bound is not None:
        # a NaN bound compares False and keeps its panel open
        open_ = ~(np.reshape(bound(a), (k, a.size)) <= 0.5 * quad.abs_tol)
        needed = open_.any(axis=0)
        a, b, open_ = a[needed], b[needed], open_[:, needed]
    kept_left, kept_val, kept_ok = [np.empty(0)], [np.empty((k, 0))], [np.zeros((k, 0), bool)]
    n_subdiv = np.zeros(k, dtype=np.int64)
    while a.size:
        split_a, split_b, split_open = [], [], []
        for s in range(0, a.size, block):
            pa, pb = a[s:s + block], b[s:s + block]
            mid = 0.5 * (pa + pb)
            half = 0.5 * (pb - pa)
            fx = f((mid + half * _NODES[:, None]).ravel()).reshape(k, _NODES.size, -1)
            g7 = _node_sum(fx[:, 1::2] * _G7_COL) * half
            k15 = _node_sum(fx * _K15_COL) * half
            ok = np.abs(k15 - g7) <= quad.rel_tol * np.abs(k15) + quad.abs_tol * 2.0 * half
            failed = open_[:, s:s + block] & ~ok
            ok &= open_[:, s:s + block]
            kept_left.append(pa)
            kept_val.append(k15)
            kept_ok.append(ok)
            split = failed.any(axis=0)
            if split.any():
                n_subdiv += failed.sum(axis=1)
                if n_subdiv.max() > quad.max_subdivisions:
                    raise QuadratureError(
                        f"quadrature did not converge within {quad.max_subdivisions} "
                        "subdivisions",
                        params=params,
                    )
                split_a.append(pa[split])
                split_b.append(pb[split])
                split_open.append(failed[:, split])
        if not split_a:
            break
        sa, sb = np.concatenate(split_a), np.concatenate(split_b)
        so = np.concatenate(split_open, axis=1)
        m = 0.5 * (sa + sb)
        a, b = np.concatenate([sa, m]), np.concatenate([m, sb])
        open_ = np.concatenate([so, so], axis=1)
    order = np.argsort(np.concatenate(kept_left), kind="stable")
    vals = np.concatenate(kept_val, axis=1)[:, order]
    kept = np.concatenate(kept_ok, axis=1)[:, order]
    totals = [float(row[mask].sum()) for row, mask in zip(vals, kept)]
    return totals[0] if outputs is None else np.array(totals)


def _panel_width(cutoff: float, t: float, tau: float) -> float:
    rate = max(t, 1.0) * math.sqrt(1.0 + 4.0 * tau * tau)
    return min(cutoff / 2.0, 2.0 * math.pi / (_PANELS_PER_OSCILLATION * rate))


def _tail_bound(spec: OhmicSpectrum, thetas):
    """The engine's bound for gamma_integrand_nh at each phase in thetas:
    core.dephasing_bound against J(w), one row per phase.  J(w)/w^2 =
    A e^{-w/cutoff}/w falls with w, so its value at a panel's left edge
    bounds the panel.  At w = 0 it is NaN or inf, which keeps the first
    panel open."""
    sc, c2 = _phase_columns(thetas)

    def bound(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return dephasing_bound(a, spectral_density(a, spec.amplitude, spec.cutoff),
                                   spec.tau, spec.temperature, sc, c2)

    return bound


def gamma_continuum_thetas(spec: OhmicSpectrum, t: float, thetas,
                           quad: QuadratureSpec | None = None) -> np.ndarray:
    """Gamma(t) at every coupling phase in thetas (spec.theta is ignored),
    as one adaptive integral over a shared subdivision (a group too large
    for _RECORD_VALUES as several).  Each phase keeps its own acceptance
    and bisection, so its value does not depend on the group."""
    thetas = [float(th) for th in thetas]
    check_time(t)
    if t == 0.0 or spec.amplitude == 0.0 or not thetas:
        return np.zeros(len(thetas))
    quad = quad or QuadratureSpec()
    hi = _OMEGA_MAX_CUTOFFS * spec.cutoff
    width = _panel_width(spec.cutoff, t, spec.tau)
    # Gamma is linear in the amplitude A: the integral runs at A = 1 with
    # abs_tol / A, the same acceptance tests scaled by 1/A, so that a large
    # A cannot overflow the kernel; the result is scaled back
    amp = spec.amplitude
    unit = replace(spec, amplitude=1.0)
    unit_quad = replace(quad, abs_tol=min(quad.abs_tol / amp, sys.float_info.max))
    # the engine keeps a value per panel and phase until its final sum, so
    # a large group is split to keep those bounded too
    step = max(1, int(_RECORD_VALUES * width / hi))
    parts = []
    for i in range(0, len(thetas), step):
        part = thetas[i:i + step]
        parts.append(integrate_adaptive(
            lambda w: gamma_integrand_nh(w, unit, t, part), 0.0, hi, unit_quad, width,
            params={"spec": spec, "t": t, "thetas": part}, outputs=len(part),
            bound=_tail_bound(unit, part)))
    with np.errstate(over="ignore"):
        totals = amp * np.maximum(np.concatenate(parts), 0.0)
    if not np.isfinite(totals).all():
        raise ValueError(f"amplitude {amp:g} (--A) makes Gamma({t:g}) overflow a float")
    return totals


def gamma_continuum_nh(spec: OhmicSpectrum, t: float, quad: QuadratureSpec | None = None) -> float:
    """Gamma(t) for the non-Hermitian Ohmic continuum: the group of the one
    phase spec.theta."""
    return float(gamma_continuum_thetas(spec, t, [spec.theta], quad)[0])


def gamma_hermitian(amplitude: float, cutoff: float, temperature: float, t: float,
                    quad: QuadratureSpec | None = None) -> float:
    """Gamma(t) for the ordinary spin-boson model (tau = 0, theta-free)."""
    check_time(t)
    if t == 0.0 or amplitude == 0.0:
        return 0.0
    quad = quad or QuadratureSpec()
    hi = _OMEGA_MAX_CUTOFFS * cutoff
    width = _panel_width(cutoff, t, 0.0)
    total = integrate_adaptive(
        lambda w: gamma_integrand_hermitian(w, amplitude, cutoff, temperature, t),
        0.0, hi, quad, width,
        params={"amplitude": amplitude, "cutoff": cutoff, "temperature": temperature, "t": t},
    )
    return max(total, 0.0)
