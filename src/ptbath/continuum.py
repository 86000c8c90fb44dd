"""Ohmic-continuum decoherence factors.

The bath is described by the spectral density J(w) = A w exp(-w/cutoff)
with a coupling phase theta and non-Hermiticity tau.  Gamma(t) is an
oscillatory frequency integral; the nested Gauss-Kronrod G15/K31 engine
lays down panels of two periods of the oscillation at rate
t*sqrt(1+4 tau^2) and bisects adaptively from there.  Failure to
converge raises, never returns a best-effort number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import check_tau, check_time, coth, dephasing_bound, dephasing_kernel, require_finite

# QUADPACK QK31 (Piessens et al., QUADPACK, Springer 1983): the 31-point
# Kronrod abscissae xgk on [0, 1) with weights wgk; xgk[1::2] are the
# 15-point Gauss nodes, with Gauss weights wg.
_XGK = (0.998002298693397060285172840152271, 0.987992518020485428489565718586613,
        0.967739075679139134257347978784337, 0.937273392400705904307758947710209,
        0.897264532344081900882509656454496, 0.848206583410427216200648320774217,
        0.790418501442465932967649294817947, 0.724417731360170047416186054613938,
        0.650996741297416970533735895313275, 0.570972172608538847537226737253911,
        0.485081863640239680693655740232351, 0.394151347077563369897207370981045,
        0.299180007153168812166780024266389, 0.201194093997434522300628303394596,
        0.101142066918717499027074231447392, 0.000000000000000000000000000000000)
_WGK = (0.005377479872923348987792051430128, 0.015007947329316122538374763075807,
        0.025460847326715320186874001019653, 0.035346360791375846222037948478360,
        0.044589751324764876608227299373280, 0.053481524690928087265343147239430,
        0.062009567800670640285139230960803, 0.069854121318728258709520077099147,
        0.076849680757720378894432777482659, 0.083080502823133021038289247286104,
        0.088564443056211770647275443693774, 0.093126598170825321225486872747346,
        0.096642726983623678505179907627589, 0.099173598721791959332393173484603,
        0.100769845523875595044946662617570, 0.101330007014791549017374792767493)
_WG = (0.030753241996117268354628393577204, 0.070366047488108124709267416450667,
       0.107159220467171935011869546685869, 0.139570677926154314447804794511028,
       0.166269205816993933553200860481209, 0.186161000015562211026800561866423,
       0.198431485327111576456118326443839, 0.202578241925561272880620199967519)

# the 31 nodes on [-1, 1] in ascending order, and the K31 and G15 weights
# over them (G15 is zero at the Kronrod-only nodes)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_G15_ON_K31 = [w for wg in _WG for w in (0.0, wg)]
_WEIGHTS = np.array([_WGK[:-1] + _WGK[::-1],
                     _G15_ON_K31[:-1] + _G15_ON_K31[::-1]]).T  # (31, 2): K31, G15

# A round evaluates its panels in blocks of at most _BLOCK_VALUES /
# max(3, integrand rows, outputs) nodes, so the working set stays bounded
# whatever the number of panels and of outputs: the integrand's temporaries
# grow with the nodes (at most a third of _BLOCK_VALUES), its rows and their
# sums with nodes x rows or outputs.
_BLOCK_VALUES = 3 << 16
# Panels x phases of one grouped integral, as counted on its start grid: larger
# groups are split, to bound the engine's open flags, one per panel and phase.
_RECORD_VALUES = 1 << 21

# The start grid ends at this multiple of the cutoff, in panels of two of the
# fastest periods (four lobes of sin(r w max(t, 1))), at most 2 x cutoff wide.
_OMEGA_MAX_CUTOFFS = 60.0
_PANELS_PER_OSCILLATION = 0.5

# Start panels per worker above which a run pays for the process pool, whose
# start and cold workers cost 15-20 ms.  Wall ms at jobs=1 -> jobs=2 with a pool
# (2 vCPU, means of two medians of 7): fig4 (237k start panels) 196 -> 132,
# fig2 (54k) 61 -> 68, fig3a (48k) 55 -> 60, fig1a (25k) 36 -> 46, fig3b (6k)
# 14 -> 29, the README sweep (1.8k) 12 -> 25, fig1b (0.2k) 13 -> 26.
_POOL_PANELS = 50_000


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
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude} (--A)")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff} (--cutoff)")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature} (--temp)")


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
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


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


def _require_nodes(w: np.ndarray) -> None:
    """Raise ValueError unless every node w > 0 has a normal float w^2 (not
    w = 0 or NaN), the rule of core.BathMode: the kernel divides by w^2."""
    low = float(np.min(w, initial=math.inf))  # NaN propagates
    if not low * low >= sys.float_info.min:
        raise ValueError(f"a quadrature node at w = {low:.3g}, where w^2 is not a normal float")


def _phase_columns(thetas) -> tuple[np.ndarray, np.ndarray]:
    # (sin cos, cos^2) of each phase as a column, from scalar math sines so
    # that a phase gets the same two numbers alone or inside any group
    cos = np.array([math.cos(th) for th in thetas]).reshape(-1, 1)
    sin = np.array([math.sin(th) for th in thetas]).reshape(-1, 1)
    return sin * cos, cos * cos


def gamma_integrand_nh(omega, spec: OhmicSpectrum, t, tau=None):
    """Integrand of the non-Hermitian continuum decoherence factor, as J(w)
    times the phase-free terms T0, T1, T2 of the dephasing kernel
    2 |xi_w(t)|^2 coth(w/2T) of a unit-magnitude coupling: a new array of
    shape (3,) + omega.shape.  A coupling of phase theta has the integrand
    T0 + sin(theta) cos(theta) T1 + cos^2(theta) T2 (core.dephasing_kernel),
    which the engine forms per panel for every phase from one integral of
    the terms; spec.theta is not used.  t and tau (default spec.tau) may
    be arrays broadcasting against omega.  Every node w > 0 must have a
    normal float w^2, which the kernel divides by; a node that does not
    (w = 0 and NaN included) raises ValueError.  The quadrature's nodes lie
    inside their panels, so none is 0.
    """
    if not isinstance(t, np.ndarray):
        check_time(t)
    w = np.asarray(omega, dtype=float)
    _require_nodes(w)
    A, lam, T, tau = spec.amplitude, spec.cutoff, spec.temperature, spec.tau if tau is None else tau
    out = np.empty((3,) + w.shape)
    # J(w) = (A w) e^{-w/cutoff} as spectral_density rounds it, in the row
    # that the kernel divides in place (a 0-d view for a scalar w)
    weight = np.exp(np.divide(w, -lam, out=out[2, ...]), out=out[2, ...])
    weight *= w if A == 1.0 else A * w
    return dephasing_kernel(w, weight, tau, t, T, out=out)


def gamma_integrand_hermitian(omega, amplitude: float, cutoff: float, temperature: float, t: float):
    """Integrand of the ordinary (tau = 0) spin-boson decoherence factor:
    4 A exp(-w/cutoff) (1 - cos w t) coth(w/2T) / w, on the nodes of
    gamma_integrand_nh: w^2 a normal float, else ValueError."""
    check_time(t)
    w = np.asarray(omega, dtype=float)
    _require_nodes(w)
    cth = coth(w / (2.0 * temperature)) if temperature > 0 else 1.0
    # 1 - cos(wt) = 2 sin^2(wt/2), immune to cancellation
    return 8.0 * amplitude * np.exp(-w / cutoff) * np.sin(0.5 * w * t) ** 2 * cth / w


def _count(n: float) -> str:
    """A panel count: an integer up to 1e15, three digits beyond."""
    return f"{math.ceil(n)}" if n <= 1e15 else f"{n:.3g}"


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


def integrate_adaptive(f, lo: float, hi: float, quad: QuadratureSpec, panel_width, params,
                       mix, bound=None):
    """Globally adaptive nested Gauss-Kronrod G15/K31 quadrature of a batch
    of integrals, each of several outputs over one shared subdivision.

    The batch has one panel width and one params entry per integral.
    f(x, ids) maps the (31, m) nodes of m panels, with their integrals'
    indices ids, to r rows of values at those nodes, and the (k, r) array
    mix makes k outputs of them: output j's K31 and G15 on a panel are
    mix[j, 0] K(row 0) + mix[j, 1] K(row 1) + ....  f's rows are scaled in
    place once used, so f must return a writable float array that it does
    not keep.  The result is an (integrals, k) array.

    Panels of panel_width anchored at lo.  Each round evaluates the 31
    Kronrod nodes of every open panel, in blocks of at most
    _BLOCK_VALUES / max(3, r, k) nodes; the 15-point Gauss estimate
    reuses 15 of them.  A panel is accepted for an output when
    |K31 - G15| <= rel_tol |K31| + abs_tol * width and contributes K31 to
    it; it is bisected for the outputs it failed for only.  An output's
    total adds its accepted values one by one in evaluation order.  A
    panel's K31 and G15 are elementwise functions of its own nodes and an
    integral's panels keep their order among others', so an output's
    integral is bit for bit the same alone, in any group or batch and at
    any block size.

    bound, if given, maps the left edges a of the start panels, with their
    integrals' indices, to a (k, a.size) array that bounds |output| over
    each panel.  A start panel whose bound is <= abs_tol/2 is accepted for
    that output with value 0 without being evaluated: its K31 and G15 lie
    within abs_tol * width / 2 of 0, so it would pass the test above, and
    the value left out is below abs_tol * width / 2.  A panel no output
    needs is never evaluated; a NaN bound keeps the panel open.  The
    bound is per output, so grouped and single integrals still agree bit
    for bit.
    Raises QuadratureError with the integral's params, before allocating
    anything, when its start grid alone needs more than max_subdivisions
    panels; when its start grid cannot be allocated; and when bisection
    for any one of its outputs exceeds them.
    """
    grids = []
    for i, width in enumerate(panel_width):
        n_panels = (hi - lo) / width if width > 0.0 else math.inf
        if n_panels > quad.max_subdivisions:
            raise QuadratureError(f"the start grid needs {_count(n_panels)} panels, more than "
                                  f"the {_count(quad.max_subdivisions)} subdivisions allowed",
                                  params[i])
        try:  # numpy refuses an array past its index range with a ValueError
            grids.append(_initial_edges(lo, hi, width))
        except (MemoryError, ValueError):
            raise QuadratureError(f"the start grid needs {_count(n_panels)} panels, more than "
                                  "fit in memory under --max-subdivisions "
                                  f"{_count(quad.max_subdivisions)}", params[i]) from None
    mix = np.asarray(mix, dtype=float)
    (k, rows), n = mix.shape, len(panel_width)
    block = max(1, _BLOCK_VALUES // max(3, rows, k) // _NODES.size)
    a, b = np.concatenate([e[:-1] for e in grids]), np.concatenate([e[1:] for e in grids])
    ids = np.arange(n).repeat([e.size - 1 for e in grids])  # each panel's integral
    if bound is None:
        open_ = np.ones((k, a.size), dtype=bool)  # the outputs each panel is open for
    else:  # a NaN bound compares False and keeps its panel open
        open_ = ~(np.reshape(bound(a, ids), (k, a.size)) <= 0.5 * quad.abs_tol)
        needed = open_.any(axis=0)
        a, b, ids, open_ = a[needed], b[needed], ids[needed], open_[:, needed]
    totals, outs = np.zeros(n * k), np.arange(k)[:, None]  # output j of integral i at i k + j
    n_subdiv = np.zeros((n, k), dtype=np.int64)
    while a.size:
        splits = []
        for s in range(0, a.size, block):
            pa, pb, pi = a[s:s + block], b[s:s + block], ids[s:s + block]
            mid = 0.5 * (pa + pb)
            half = 0.5 * (pb - pa)
            fx = f(mid + half * _NODES[:, None], pi).reshape(rows, _NODES.size, -1)
            rule = np.empty((2, rows, pa.size))  # each row's K31 and G15
            rule[1] = _node_sum(fx[:, 1::2] * _WEIGHTS[1::2, 1:])
            rule[0] = _node_sum(np.multiply(fx, _WEIGHTS[:, :1], out=fx))
            rule, terms = rule[:, :1] * mix[:, :1], rule
            for i in range(1, rows):
                rule += terms[:, i:i + 1] * mix[:, i:i + 1]
            k31, g15 = rule * half
            ok = np.abs(k31 - g15) <= quad.rel_tol * np.abs(k31) + quad.abs_tol * 2.0 * half
            ok &= open_[:, s:s + block]
            failed = open_[:, s:s + block] ^ ok  # open and not accepted
            # unbuffered: each total adds its accepted values one by one, in panel order
            np.add.at(totals, (pi * k + outs).ravel(), np.where(ok, k31, 0.0).ravel())
            if failed.any():
                split = failed.any(axis=0)
                splits.append((pa[split], pb[split], pi[split], failed[:, split]))
        if not splits:
            break
        sa, sb, si, so = (np.concatenate(x, axis=-1) for x in zip(*splits))
        np.add.at(n_subdiv, si, so.T)
        worst = n_subdiv.max(axis=1)
        if worst.max() > quad.max_subdivisions:
            raise QuadratureError(f"quadrature did not converge within {quad.max_subdivisions} "
                                  "subdivisions", params[worst.argmax()])
        m = 0.5 * (sa + sb)
        a, b = np.concatenate([sa, m]), np.concatenate([m, sb])
        ids, open_ = np.concatenate([si, si]), np.concatenate([so, so], axis=1)
    return totals.reshape(n, k)


def _panel_width(cutoff: float, t: float, tau: float) -> float:
    rate = max(t, 1.0) * math.sqrt(1.0 + 4.0 * tau * tau)
    return min(2.0 * cutoff, 2.0 * math.pi / (_PANELS_PER_OSCILLATION * rate))


def _tail_bound(spec: OhmicSpectrum, thetas, taus: np.ndarray):
    """The engine's bound for gamma_integrand_nh at each phase in thetas:
    core.dephasing_bound against J(w), one row per phase, at the tau
    taus[ids] of each panel's integral.  J(w)/w^2 = A e^{-w/cutoff}/w falls
    with w, so its value at a panel's left edge bounds the panel.  At
    w = 0 it is NaN or inf, which keeps the first panel open."""
    sc, c2 = _phase_columns(thetas)

    def bound(a, ids):
        with np.errstate(divide="ignore", invalid="ignore"):
            return dephasing_bound(a, spec.amplitude * a * np.exp(a / -spec.cutoff),
                                   taus[ids], spec.temperature, sc, c2)

    return bound


def _check_range(spec: OhmicSpectrum, width: float, tau: float, t: float) -> None:
    """Raise ValueError, naming --temp or what set the width (--cutoff, or
    --t and --tau through the oscillation rate of _panel_width), when the
    kernel cannot be evaluated at the smallest node of the first start panel
    [0, width] of the integral at (tau, t) (every integral evaluates its
    first panel): w^2 must be a normal float and J(w) coth(w/2T) / w^2 at
    unit amplitude a finite one, as for a discrete mode (core.BathMode,
    core.DiscreteBath) and as the integrands require of every node."""
    w = float(0.5 * width + 0.5 * width * _NODES[0])  # as integrate_adaptive places it
    by = (f"cutoff {spec.cutoff:g} (--cutoff)" if width >= 2.0 * spec.cutoff
          else f"t {t:g} (--t) with tau {tau:g} (--tau)")
    if w * w < sys.float_info.min:
        raise ValueError(f"{by} puts quadrature nodes at w = {w:.3g}, where w^2 is not a "
                         "normal float")
    x = w / spec.temperature if spec.temperature else math.inf
    cth = 2.0 / math.expm1(x) + 1.0 if x < 709.0 else 1.0  # 1 + 2/expm1(x) rounds to 1 above
    weight = w * math.exp(w / -spec.cutoff) / (w * w) * cth
    if not math.isfinite(weight):
        raise ValueError(f"temperature {spec.temperature:g} (--temp) at {by} makes "
                         f"J(w) coth(w/2T)/w^2 overflow at w = {w:.3g}")


def batches(cutoff: float, taus, times, n_phases: int) -> list[tuple[slice, list[float]]]:
    """The (tau, t) slices that gamma_continuum_batch integrates in one engine
    pass each, with their start-panel widths (one panel at t = 0, where the
    integrand is 0).  A batch closes once its start panels would exceed
    _BLOCK_VALUES // 93 (its start grid is one block of 31 nodes x 3 terms a
    panel) or _BLOCK_VALUES / n_phases (its open flags and sums per phase)."""
    hi = _OMEGA_MAX_CUTOFFS * cutoff
    widths = [_panel_width(cutoff, t, tau) if t > 0.0 else hi for tau, t in zip(taus, times)]
    cuts, panels = [], math.inf
    for i, width in enumerate(widths):
        size = hi / width if width > 0.0 else math.inf
        if (panels + size > _BLOCK_VALUES // (3 * _NODES.size)
                or (panels + size) * n_phases > _BLOCK_VALUES):
            cuts.append(i)
            panels = 0.0
        panels += size
    return [(slice(s, e), widths[s:e]) for s, e in zip(cuts, cuts[1:] + [len(widths)])]


def gamma_continuum_batch(spec: OhmicSpectrum, taus, times, thetas,
                          quad: QuadratureSpec | None = None, jobs: int = 1) -> np.ndarray:
    """Gamma at each (tau, t) of zip(taus, times) and each coupling phase in
    thetas, as a (len(taus), len(thetas)) array (spec.tau and spec.theta
    are ignored).  The phases of one (tau, t) share one integral (split in
    several when too large for _RECORD_VALUES), and the integrals run in
    batches (see batches), one integrate_adaptive pass each.  Every value
    is bit for bit the one gamma_continuum_nh gives alone.

    jobs is an upper bound: min(jobs, batches) worker processes map the
    batches only when their start panels pass jobs x _POOL_PANELS; the
    array is the same whatever the number of workers."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    thetas = [float(th) for th in thetas]
    for name, values in (("tau", taus), ("theta", thetas)):
        if not all(map(math.isfinite, values)):
            require_finite(**{name: next(x for x in values if not math.isfinite(x))})
    check_tau(max(taus, key=abs, default=0.0))
    for t in times:
        check_time(t)
    gammas = np.zeros((len(taus), len(thetas)))
    if not (spec.amplitude and thetas):
        return gammas
    quad, hi, amp = quad or QuadratureSpec(), _OMEGA_MAX_CUTOFFS * spec.cutoff, spec.amplitude
    # Gamma is linear in the amplitude A: the integral runs at A = 1 with
    # abs_tol / A, the same acceptance tests scaled by 1/A, so that a large
    # A cannot overflow the kernel; the result is scaled back
    unit_quad = QuadratureSpec(quad.rel_tol, min(quad.abs_tol / amp, sys.float_info.max),
                               quad.max_subdivisions)
    cuts = batches(spec.cutoff, taus, times, len(thetas))
    # before any integral runs, at the narrowest start grid that fits the budget:
    # the engine refuses the others first, a zero width among them
    widths = [w for _, ws in cuts for w in ws]
    fits = [i for i, w in enumerate(widths) if 0.0 < w and hi / w <= quad.max_subdivisions]
    if fits:
        i = min(fits, key=widths.__getitem__)
        _check_range(spec, widths[i], taus[i], times[i])
    # a zero width is an integral that integrate_adaptive rejects
    if jobs > 1 and sum(hi / w for _, ws in cuts for w in ws if w > 0.0) > jobs * _POOL_PANELS:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool runs
        workers = min(jobs, len(cuts))
        # about eight chunks per worker, so that no worker idles long at the end;
        # a batch's slice is one batch again, one engine pass in its worker
        tasks = [(spec, taus[cut], times[cut], thetas, quad) for cut, _ in cuts]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(gamma_continuum_batch, *zip(*tasks),
                                                chunksize=max(1, len(tasks) // (8 * workers)))))
    unit = OhmicSpectrum(1.0, spec.cutoff, 0.0, spec.temperature)  # A = 1; tau per integral
    for cut, widths in cuts:
        us, ts = np.array(taus[cut], dtype=float), np.array(times[cut], dtype=float)
        f = lambda w, ids: gamma_integrand_nh(w, unit, ts[ids], tau=us[ids])  # noqa: E731
        step = max(1, int(_RECORD_VALUES * min(widths) / hi))
        for i in range(0, len(thetas), step):
            part = thetas[i:i + step]
            # a failing integral's params, as printed: over three phases as count and range
            phases = (part if len(part) <= 3
                      else f"{len(part)} phases in [{min(part):g}, {max(part):g}]")
            gammas[cut, i:i + step] = integrate_adaptive(
                f, 0.0, hi, unit_quad, widths,
                [{"A": amp, "cutoff": spec.cutoff, "temp": spec.temperature, "tau": tau, "t": t,
                  "thetas": phases} for tau, t in zip(taus[cut], times[cut])],
                np.hstack([np.ones((len(part), 1)), *_phase_columns(part)]),
                _tail_bound(unit, part, us))
    with np.errstate(over="ignore"):
        gammas = amp * np.maximum(gammas, 0.0)
    if not np.isfinite(gammas).all():
        t = times[np.flatnonzero(~np.isfinite(gammas).all(axis=1))[0]]
        raise ValueError(f"amplitude {amp:g} (--A) makes Gamma({t:g}) overflow a float")
    return gammas


def gamma_continuum_nh(spec: OhmicSpectrum, t: float, quad: QuadratureSpec | None = None) -> float:
    """Gamma(t) for the non-Hermitian Ohmic continuum: the group of the one
    phase spec.theta."""
    return float(gamma_continuum_batch(spec, [spec.tau], [t], [spec.theta], quad)[0, 0])


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
        lambda w, ids: gamma_integrand_hermitian(w, amplitude, cutoff, temperature, t),
        0.0, hi, quad, [width],
        [{"A": amplitude, "cutoff": cutoff, "temp": temperature, "tau": 0.0, "t": t}],
        [[1.0]])[0, 0]
    return max(float(total), 0.0)
