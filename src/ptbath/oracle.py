"""Exact truncated-Fock-space checks for the non-Hermitian bath, one mode at a time.

Builds a mode's Hermitian equivalent h = eta H eta^-1 of the PT-symmetric bath Hamiltonian
H from its ladder bands, and runs its exact dephasing by evolving the two spin-conditioned
branches, parity images of each other, with one Hermitian eigendecomposition.  Unit
convention m = hbar = 1, so the spring constant is omega^2 and the non-Hermiticity scale is
tau/omega.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (BathMode, Coupling, DiscreteBath, dephasing_bound, gamma_discrete,
                   require_finite)


@dataclass(frozen=True)
class TruncatedMode:
    omega: float
    tau: float = 0.0
    fock_dim: int = 40

    def __post_init__(self):
        require_finite(omega=self.omega, tau=self.tau)
        if not self.omega >= math.sqrt(sys.float_info.min):
            raise ValueError(f"omega must be >= {math.sqrt(sys.float_info.min):.3g} (omega^2 a "
                             f"normal float), got {self.omega} (--omega)")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim (--fock-dim) must be >= 2, got {self.fock_dim}")


# thermal weight beyond the truncation that still counts as converged
TAIL_TOL = 1e-10
# exact_dephasing_converged stops doubling once no ratio moves by this much
DOUBLING_TOL = 1e-8


@dataclass
class OracleReport:
    """dephasing_max_error is None when certify ran no exact evolution, having
    no two Fock dimensions to compare.  The oracle command exits 0 where converged
    and dephasing_max_error <= 1e-6."""

    dephasing_max_error: float | None
    fock_dim_used: int
    converged: bool


def _ladder_bands(dim: int):
    """Bands of the truncated ladder products over the levels n = 0..dim-1:
    n (the diagonal of a'a), sqrt(n+1) (the superdiagonal of a),
    sqrt((n+1)(n+2)) (the second superdiagonal of a^2), and the diagonal of
    (a - a')^2, which is -(2n+1) except -(dim-1) in the last row, where the
    truncation cuts a a' short."""
    n = np.arange(dim, dtype=float)
    s1 = np.sqrt(n[1:])
    q2 = -(2.0 * n + 1.0)
    q2[-1] = 1.0 - dim
    return n, s1, s1[:-1] * s1[1:], q2


def _assemble(dim: int, bands, dtype=complex) -> np.ndarray:
    """Dense dim x dim matrix of the (k, k-th diagonal) pairs `bands` yields (np.diag's
    convention).  It allocates before it iterates, so a dimension that does not fit in
    memory fails before lazy `bands` build any O(dim) vector."""
    try:
        h = np.zeros((dim, dim), dtype)
    except MemoryError:
        raise ValueError(f"a dense matrix of Fock dimension {dim} does not fit in memory; "
                         "lower --fock-dim or --dim-budget") from None
    for k, band in bands:
        rows = np.arange(len(band)) - min(k, 0)
        h[rows, rows + k] += band
    return h


def _hermitian_bands(mode: TruncatedMode, g: complex = 0j, squeeze: float = 1.0):
    """Bands of w [a'a + 1/2 + tau - tau^2 (a - a')^2] + g a' + conj(g) a,
    its a^2 and a'^2 terms times a real `squeeze`, built once iterated."""
    n, s1, s2, q2 = _ladder_bands(mode.fock_dim)
    w, tau = mode.omega, mode.tau
    sq = -w * tau**2 * squeeze * s2
    bands = {0: w * (n + (0.5 + tau) - tau**2 * q2), 2: sq, -2: sq, 1: np.conj(g) * s1, -1: g * s1}
    yield from bands.items()


def _thermal_populations(mode: TruncatedMode, temperature: float) -> np.ndarray:
    """Level populations of the bare oscillator's thermal state, renormalized
    on the truncated space; T = 0 puts all weight on the Fock vacuum."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return np.eye(1, mode.fock_dim)[0]
    p = math.exp(-mode.omega / temperature) ** np.arange(mode.fock_dim)
    return p / p.sum()


def thermal_fock_dim(omega: float, temperature: float) -> int | float:
    """Fock dimension n whose truncation holds the thermal state: the
    weight exp(-omega n / T) beyond it is at most TAIL_TOL.  0 at T = 0,
    about 23 T / omega above, inf where that passes the float range."""
    n = math.log(1.0 / TAIL_TOL) * temperature / omega
    return math.ceil(n) if n < math.inf else n


def exact_dephasing(mode: TruncatedMode, g: Coupling, temperature: float,
                    times: Sequence[float]) -> np.ndarray:
    """Exact coherence ratio |rho01(t)| / |rho01(0)| of a spin coupled to one mode.  The modes
    of a bath are independent (H and V are sums over them, rho_B is their product), so the
    ratio of a bath is the product of its modes' ratios.

    The ratio is |Tr(exp(-i H_minus t) rho_B exp(+i H_plus t))| for the spin-conditioned
    branches H_plus/minus = H +/- V (the free spin splitting drops out of the modulus).  H is
    even in the ladder operators and V odd, so H_minus = P H_plus P for the parity P, exactly
    in the truncated space, and one eigendecomposition H_plus = U diag(e) U' serves both:
    with rho_B = diag(p) the ratio is |exp(-i e t) C exp(i e t)| for
    C = (U' diag(P p) U) o conj(U' P U).

    In the gauge D = diag(exp(i n phi)) of the coupling phase phi, D'H_plus D has coupling
    |g| and exp(+/-2i phi) on a^2 (a'^2); D commutes with P and rho_B, so D'U gives the same
    C.  Where tau = 0 or theta is a multiple of pi/2 it is real, float64; else complex128.
    """
    times = np.asarray(times, dtype=float)
    # checked before any Fock work: NaN ratios would keep
    # exact_dephasing_converged doubling the Fock dimension to its budget
    require_finite(temperature=temperature, times=float(np.max(np.abs(times), initial=0.0)))
    # exp(2i phi) is cos(2 phi) = +/-1 exactly where 2 phi is a float multiple of pi
    real = mode.tau == 0.0 or math.remainder(2 * g.phase, math.pi) == 0.0
    bands = (_hermitian_bands(mode, g.magnitude, math.cos(2 * g.phase)) if real
             else _hermitian_bands(mode, g.as_complex))
    e, u = np.linalg.eigh(_assemble(mode.fock_dim, bands, float if real else complex))
    pop = _thermal_populations(mode, temperature)
    parity = (-1.0) ** np.arange(mode.fock_dim)
    pu = parity[:, None] * u.conj()  # P conj(U): a new array, also when u.conj() is u
    c = u.T @ (pu * pop[:, None])  # conj(U' diag(P p) U)
    np.conjugate(c, out=c)
    c *= u.T @ pu  # conj(U' P U)
    del u  # not held through the time stage
    # exp(-i e t) C exp(i e t) from products with C, real ones when C is real
    x = np.multiply.outer(times, e)
    cos, sin = np.cos(x), np.sin(x)
    return np.abs(np.sum((cos @ c - 1j * (sin @ c)) * (cos + 1j * sin), axis=1))


def exact_dephasing_converged(omega: float, tau: float, g: Coupling, temperature: float,
                              times: Sequence[float], dims: Sequence[int]):
    """exact_dephasing of one mode at each of certify's Fock dimensions `dims` until one
    moves the ratios by less than DOUBLING_TOL; returns (ratios, fock_dim_used, converged)."""
    prev = None
    for dim in dims:
        ratios = exact_dephasing(TruncatedMode(omega, tau, dim), g, temperature, times)
        if prev is not None and np.max(np.abs(ratios - prev)) < DOUBLING_TOL:
            return ratios, dim, True
        prev = ratios
    return ratios, dim, False


def _check_phases(bath: DiscreteBath, level: int, t_max: float) -> None:
    """Raise ValueError, naming --t-max, where rounding the float phases e t_max of the
    levels 0..`level` that hold the thermal state may move a ratio by more than
    DOUBLING_TOL, so that no doubling could tell converged ratios from rounding: the float
    spacing at the phase of the top one (of energy Omega (level + 1/2) + omega tau), or 2
    past it (|exp(i x) - 1| <= 2), times the most the coupling lowers a ratio,
    1 - exp(-Gamma) for Gamma of core.dephasing_bound.  An infinite phase is refused."""
    omega, weight, sin_cos, cos2 = bath._mode_arrays
    tau = bath.tau
    with np.errstate(over="ignore"):
        energy = omega * math.sqrt(1.0 + 4.0 * tau * tau) * (level + 0.5) + omega * tau
        phase = float(np.max(np.abs(energy))) * t_max
        gamma = float(np.sum(dephasing_bound(omega, weight, tau, bath.temperature, sin_cos,
                                             cos2)))
    moved = -math.expm1(-gamma)
    if phase < math.inf and min(math.ulp(phase), 2.0) * moved <= DOUBLING_TOL:
        return
    where = ("past the float range" if phase == math.inf else
             f"to {phase:.3g}, where floats are {math.ulp(phase):.3g} apart: too coarse for "
             f"ratios that move by up to {moved:.3g} to settle within the doubling "
             f"tolerance {DOUBLING_TOL:g}")
    raise ValueError(f"t_max {t_max:g} (--t-max) takes the phases e t of the thermal state's "
                     f"levels {where}")


def certify(
    omega: float = 1.0,
    tau: float = 0.2,
    theta: float = math.pi / 2,
    g_abs: float = 0.1,
    temperature: float = 1.0,
    t_max: float = 20.0,
    num_times: int = 101,
    fock_dim: int = 40,
    dim_budget: int = 6400,
) -> OracleReport:
    """Exact-vs-closed-form dephasing for a single mode by exact_dephasing_converged on the
    doublings within dim_budget of max(fock_dim, ceil(thermal_fock_dim / 2)); with no two
    doublings to compare, no exact evolution runs."""
    # checked before any work: a non-finite time or coupling would keep
    # exact_dephasing_converged doubling the Fock dimension to its budget
    require_finite(omega=omega, tau=tau, theta=theta, g_abs=g_abs, temperature=temperature,
                   t_max=t_max)
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature} (--temp)")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max} (--t-max)")
    if g_abs < 0:
        raise ValueError(f"coupling magnitude must be >= 0, got {g_abs} (--g-abs)")
    if num_times < 1:
        raise ValueError(f"num_times must be >= 1, got {num_times}")

    TruncatedMode(omega, tau, fock_dim)  # before BathMode: names --omega and --fock-dim
    # the closed form's bath too: a mode it rejects (|g|^2/omega^2 beyond a
    # float) fails here, not after the Fock work
    g = Coupling(g_abs, theta)
    bath = DiscreteBath((BathMode(omega, g),), temperature=temperature, tau=tau)
    if fock_dim > dim_budget:
        raise ValueError(f"Fock dimension {fock_dim} (--fock-dim) exceeds budget {dim_budget} "
                         "(--dim-budget)")
    # the doublings within dim_budget of the least dimension >= fock_dim whose doubling
    # holds the thermal state: the first comparison is half the held dimension against it
    needed = thermal_fock_dim(omega, temperature)
    dim = max(fock_dim, -(-needed // 2)) if needed < math.inf else needed
    dims = []
    while dim <= dim_budget:
        dims.append(dim)
        dim *= 2
    if len(dims) < 2:
        return OracleReport(None, fock_dim, False)
    _check_phases(bath, needed, t_max)
    # Gershgorin: no level of H + V at Fock dimension D, nor its bands, passes D times this
    # over max(t_max, 1), nor a phase e t_max D times this; D, an int, compares exactly
    scale = (omega * (1.0 + abs(tau) + 4.0 * tau * tau) + 2.0 * g_abs) * max(t_max, 1.0)
    if dims[-1] > sys.float_info.max / scale:
        raise ValueError(f"omega {omega:g} (--omega), tau {tau:g} (--tau) and g_abs "
                         f"{g_abs:g} (--g-abs) may take the levels of H + V at Fock "
                         f"dimension {dims[-1]} (--dim-budget {dim_budget}), or their "
                         f"phases at t_max {t_max:g} (--t-max), past the float range")
    times = np.linspace(0.0, t_max, num_times)
    # refused where the coupling displaces the state to a'a >= D, the ladder's top, at one of
    # the times, as no state on the levels 0..D-1 does.  With s = sqrt(1 + 4 tau^2), H + V =
    # s^2 p^2/2 + omega^2 x^2/2 + |g| sqrt(2 omega) (x cos theta + p sin theta / omega) + const
    # turns (omega <x>, s <p>) from the thermal state's 0 about its rest point at omega s: at t
    # it is 2 |sin(omega s t / 2)| times the rest point's distance from 0, and a'a >= |<a>|^2 >=
    # (omega^2 <x>^2 + s^2 <p>^2) / (2 omega s^2) = reach^2.  Gershgorin keeps omega s t finite.
    s = math.hypot(1.0, 2.0 * tau)
    swing = float(np.max(np.abs(np.sin(0.5 * omega * s * times))))
    reach = 2.0 * swing * g_abs * math.hypot(math.cos(theta), math.sin(theta) / s) / (omega * s)
    if reach >= math.sqrt(dims[-1]):
        raise ValueError(f"g_abs {g_abs:g} (--g-abs) displaces the state to a mean occupation "
                         f"of at least {reach * reach:.3g}, which no Fock dimension up to "
                         f"{dims[-1]} (--dim-budget {dim_budget}) holds")
    ratios, dim, converged = exact_dephasing_converged(omega, tau, g, temperature, times, dims)
    closed = np.exp(-np.array([gamma_discrete(bath, t) for t in times]))
    max_err = float(np.max(np.abs(ratios - closed)))
    return OracleReport(max_err, dim, converged)
