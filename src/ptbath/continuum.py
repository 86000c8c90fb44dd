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
from dataclasses import dataclass

import numpy as np

from .core import check_time, coth, dephasing_kernel, require_finite

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

# The kernel divides by Omega^4, which underflows below w ~ 1e-77; under
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
    local; extending omega_max leaves the shared panels untouched.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    omega_max: float | None = None  # default 60 * cutoff
    min_panels_per_oscillation: int = 4
    max_subdivisions: int = 2_000_000

    def __post_init__(self):
        require_finite(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        if self.omega_max is not None:
            require_finite(omega_max=self.omega_max)
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.min_panels_per_oscillation < 4:
            raise ValueError("min_panels_per_oscillation must be >= 4")


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


def gamma_integrand_nh(omega, spec: OhmicSpectrum, t: float):
    """Integrand of the non-Hermitian continuum decoherence factor:
    J(w) times the dephasing kernel 2 |xi_w(t)|^2 coth(w/2T) of a
    unit-magnitude coupling of phase theta.  The removable 0*inf form at
    w -> 0 is replaced by its analytic limit 2 A t^2 * w coth(w/2T)
    only where the kernel's w^4 would underflow, so the two never meet at
    a resolvable frequency.
    """
    check_time(t)
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    A, lam, T = spec.amplitude, spec.cutoff, spec.temperature
    small = w < _LIMIT_BELOW * lam
    any_small = small.any()
    ws = np.where(small, lam, w) if any_small else w  # placeholder, overwritten below
    out = dephasing_kernel(ws, spectral_density(ws, A, lam), spec.theta, spec.tau, t, T)
    if any_small:
        wl = w[small]
        out[small] = 2.0 * A * t * t * _omega_coth(wl, T) * np.exp(-wl / lam)
    return float(out[0]) if scalar else out


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


def integrate_adaptive(f, lo: float, hi: float, quad: QuadratureSpec, panel_width: float,
                       params=None) -> float:
    """Globally adaptive nested Gauss-Kronrod G7/K15 quadrature.

    Panels of panel_width anchored at lo.  Each round calls f once, at the
    15 Kronrod nodes of every open panel; the 7-point Gauss estimate reuses
    7 of them.  A panel is accepted when |K15 - G7| <= rel_tol |K15| +
    abs_tol * width and contributes K15; the others are bisected for the
    next round.  The accepted values are summed in order of left edge, so
    the result does not depend on the round a panel was accepted in.
    Raises QuadratureError, before allocating anything, when the start grid
    alone needs more than max_subdivisions panels, and when bisection
    exceeds max_subdivisions.
    """
    n_panels = (hi - lo) / panel_width if panel_width > 0.0 else math.inf
    if n_panels > quad.max_subdivisions:
        needed = math.ceil(n_panels) if math.isfinite(n_panels) else n_panels
        raise QuadratureError(
            f"the start grid needs {needed} panels, more than the "
            f"{quad.max_subdivisions} subdivisions allowed",
            params=params,
        )
    edges = _initial_edges(lo, hi, panel_width)
    work = np.stack([edges[:-1], edges[1:]], axis=1)
    kept_left = []
    kept_val = []
    n_subdiv = 0
    while work.shape[0]:
        mid = 0.5 * (work[:, 0] + work[:, 1])
        half = 0.5 * (work[:, 1] - work[:, 0])
        x = mid[:, None] + half[:, None] * _NODES
        kg = (f(x.ravel()).reshape(x.shape) @ _WEIGHTS) * half[:, None]
        k15 = kg[:, 0]
        ok = np.abs(k15 - kg[:, 1]) <= quad.rel_tol * np.abs(k15) + quad.abs_tol * 2.0 * half
        kept_left.append(work[ok, 0])
        kept_val.append(k15[ok])
        bad = work[~ok]
        n_subdiv += bad.shape[0]
        if n_subdiv > quad.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {quad.max_subdivisions} subdivisions",
                params=params,
            )
        m = 0.5 * (bad[:, 0] + bad[:, 1])
        work = np.concatenate(
            [np.stack([bad[:, 0], m], axis=1), np.stack([m, bad[:, 1]], axis=1)]
        )
    lefts = np.concatenate(kept_left)
    vals = np.concatenate(kept_val)
    order = np.argsort(lefts, kind="stable")
    return float(vals[order].sum())


def _panel_width(cutoff: float, t: float, tau: float, quad: QuadratureSpec) -> float:
    rate = max(t, 1.0) * math.sqrt(1.0 + 4.0 * tau * tau)
    return min(cutoff / 2.0, 2.0 * math.pi / (quad.min_panels_per_oscillation * rate))


def gamma_continuum_nh(spec: OhmicSpectrum, t: float, quad: QuadratureSpec | None = None) -> float:
    """Gamma(t) for the non-Hermitian Ohmic continuum."""
    check_time(t)
    if t == 0.0 or spec.amplitude == 0.0:
        return 0.0
    quad = quad or QuadratureSpec()
    hi = quad.omega_max if quad.omega_max is not None else 60.0 * spec.cutoff
    width = _panel_width(spec.cutoff, t, spec.tau, quad)
    total = integrate_adaptive(
        lambda w: gamma_integrand_nh(w, spec, t), 0.0, hi, quad, width,
        params={"spec": spec, "t": t},
    )
    return max(total, 0.0)


def gamma_hermitian(amplitude: float, cutoff: float, temperature: float, t: float,
                    quad: QuadratureSpec | None = None) -> float:
    """Gamma(t) for the ordinary spin-boson model (tau = 0, theta-free)."""
    check_time(t)
    if t == 0.0 or amplitude == 0.0:
        return 0.0
    quad = quad or QuadratureSpec()
    hi = quad.omega_max if quad.omega_max is not None else 60.0 * cutoff
    width = _panel_width(cutoff, t, 0.0, quad)
    total = integrate_adaptive(
        lambda w: gamma_integrand_hermitian(w, amplitude, cutoff, temperature, t),
        0.0, hi, quad, width,
        params={"amplitude": amplitude, "cutoff": cutoff, "temperature": temperature, "t": t},
    )
    return max(total, 0.0)
