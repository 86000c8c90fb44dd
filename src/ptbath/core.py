"""Closed-form dephasing of a qubit coupled to a bath of (possibly
non-Hermitian) harmonic modes.

Everything here is exact algebra: the displacement amplitude xi per mode,
the decoherence exponent Gamma(t) for a discrete bath, and the induced map
on the qubit density matrix.  Units: hbar = k_B = 1, temperatures share
frequency units.
"""

from __future__ import annotations

import cmath
import csv
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


def require_finite(**values) -> None:
    """Raise ValueError naming the first value that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_time(t: float) -> None:
    """Raise ValueError unless t is finite and >= 0."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")


def coth(x):
    """Stable coth for x > 0, elementwise (series below 1e-4 to avoid
    cancellation); a scalar argument gives a float."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    if not small.any():
        out = 1.0 / np.tanh(x)
        return out if out.ndim else float(out)
    out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0 - x**3 / 45.0,
                   1.0 / np.tanh(np.where(small, 1.0, x)))
    return out if out.ndim else float(out)


def thermal_coth(omega: float, temperature: float) -> float:
    """coth(omega / 2T); temperature 0 gives the zero-T limit, exactly 1."""
    if temperature == 0.0:
        return 1.0
    return coth(omega / (2.0 * temperature))


@dataclass(frozen=True)
class Coupling:
    """Complex system-bath coupling stored in polar form.

    The polar form is the source of truth: the phase is a first-class
    control parameter.  Cartesian parts are derived.
    """

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        require_finite(magnitude=self.magnitude, phase=self.phase)
        if self.magnitude < 0:
            raise ValueError(f"coupling magnitude must be >= 0, got {self.magnitude}")
        object.__setattr__(self, "phase", self.phase % TWO_PI)

    @property
    def real(self) -> float:
        return self.magnitude * math.cos(self.phase)

    @property
    def imag(self) -> float:
        return self.magnitude * math.sin(self.phase)

    @property
    def as_complex(self) -> complex:
        return complex(self.real, self.imag)


@dataclass(frozen=True)
class BathMode:
    omega: float
    coupling: Coupling

    def __post_init__(self):
        require_finite(omega=self.omega)
        if self.omega <= 0:
            raise ValueError(f"mode frequency must be > 0, got {self.omega}")
        # the dephasing kernel's weight |g|^2 / omega^2, as dephasing_terms
        # rounds it: a subnormal omega^2 or an overflowing quotient would
        # turn Gamma into nan
        w2 = self.omega * self.omega
        if w2 < sys.float_info.min:
            raise ValueError(f"mode frequency omega must be >= {math.sqrt(sys.float_info.min):.3g}"
                             f" (omega^2 a normal float), got {self.omega}")
        g2 = self.coupling.magnitude * self.coupling.magnitude
        if not math.isfinite(g2 / w2):
            raise ValueError(f"coupling g_abs {self.coupling.magnitude:g} at omega {self.omega:g}"
                             " makes |g|^2/omega^2 overflow a float")


@dataclass(frozen=True)
class DiscreteBath:
    """Ordered set of oscillator modes with a temperature and a
    non-Hermiticity strength tau (dimensionless, any sign)."""

    modes: tuple[BathMode, ...]
    temperature: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("bath needs at least one mode")
        require_finite(temperature=self.temperature, tau=self.tau)
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    @cached_property
    def _mode_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (omega, |g|^2, phase) per mode, built once per bath
        return (
            np.array([m.omega for m in self.modes]),
            np.array([m.coupling.magnitude**2 for m in self.modes]),
            np.array([m.coupling.phase for m in self.modes]),
        )


@dataclass(frozen=True)
class QubitSystem:
    """Free qubit splitting omega0.  It drops out of the dephasing exponent
    (interaction picture) but is kept for completeness."""

    omega0: float

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


def density_matrix(rho, dim: int, eig_tol: float) -> np.ndarray:
    """rho as a complex dim x dim array, checked to be Hermitian with unit
    trace (both to 1e-12) and no eigenvalue below -eig_tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


class QubitState:
    """2x2 density matrix, validated on construction."""

    def __init__(self, rho):
        self.rho = density_matrix(rho, 2, eig_tol=1e-12)

    def __repr__(self):
        return f"QubitState({self.rho!r})"


def big_omega(omega: float, tau: float) -> float:
    """Shifted mode frequency omega * sqrt(1 + 4 tau^2)."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    return omega * math.sqrt(1.0 + 4.0 * tau * tau)


def xi_hermitian(g: Coupling, omega: float, t: float) -> complex:
    """Displacement amplitude of the ordinary (tau = 0) spin-boson model:
    (g/omega) * (1 - exp(i omega t))."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    check_time(t)
    return g.as_complex / omega * (1.0 - cmath.exp(1j * omega * t))


def xi_non_hermitian(g: Coupling, omega: float, tau: float, t: float) -> complex:
    """Displacement amplitude with non-Hermiticity tau.

    xi = [8 omega sin^2(Omega t/2)/Omega^2] (g/4 + tau^2 Re g)
         - i g sin(Omega t)/Omega,   Omega = omega sqrt(1+4 tau^2).

    Reduces to xi_hermitian at tau = 0 and vanishes at t = 0.
    """
    check_time(t)
    Om = big_omega(omega, tau)
    gz = g.as_complex
    s2 = math.sin(0.5 * Om * t) ** 2
    return (8.0 * omega * s2 / Om**2) * (0.25 * gz + tau * tau * g.real) - 1j * gz * math.sin(Om * t) / Om


def dephasing_terms(w, weight, tau: float, t: float, temperature: float):
    """The dephasing kernel split by its coupling phase phi: three arrays
    (T0, T1, T2), elementwise over w > 0, with

        kernel = T0 + sin(phi) cos(phi) T1 + cos^2(phi) T2.

    With r = sqrt(1+4 tau^2), x = r w t and p = 2 weight coth(w/2T) / (r^4 w^2):
    T0 = p [r^2 sin^2 x + 4 sin^4(x/2)], T1 = 16 tau^2 r p sin x sin^2(x/2)
    and T2 = 32 tau^2 (1 + 2 tau^2) p sin^4(x/2).  The phase enters only
    through the two scalar coefficients, so one evaluation serves every phase.

    Both sines come from one tangent u = tan(x/4): sin(x/2) = 2u/(1+u^2),
    cos(x/2) = (1-u)(1+u)/(1+u^2) and sin x = 2 sin(x/2) cos(x/2).  NumPy's
    float64 tan is vectorized and its sin is not, so one tan costs a
    fraction of one sin.  Since 2|u| <= 1 + u^2, every sine is still at most
    1 in magnitude and dephasing_bound holds.  coth(w/2T) is
    1 + 2/expm1(w/T), exactly 1 once expm1 overflows (w/T > 709.78).
    """
    tau2 = tau * tau
    r2 = 1.0 + 4.0 * tau2
    r = math.sqrt(r2)
    # x = (w r) t, the rounding of Omega t in xi_non_hermitian; x/4 is exact
    u = np.tan(w * r * t * 0.25)
    den = u * u
    den += 1.0
    sc = 1.0 - u
    sc *= 1.0 + u
    sc /= den  # cos(x/2)
    u += u
    u /= den  # sin(x/2)
    del den
    sc *= u  # sin(x)/2
    u *= u  # sin^2(x/2)
    # v = weight coth / w^2 is p without its factor 2/r^4, which k carries
    v = weight / (w * w)
    if temperature > 0:
        with np.errstate(over="ignore"):
            cth = np.expm1(w / temperature)
        cth = 2.0 / cth
        cth += 1.0
        v *= cth
        del cth
    k = 2.0 / (r2 * r2)
    t1 = v * sc
    t0 = t1 * sc
    t1 *= u
    t1 *= 32.0 * tau2 * r * k
    v *= u
    v *= u  # v sin^4(x/2)
    t0 *= r2
    t0 += v
    t0 *= 4.0 * k
    t2 = v * (32.0 * tau2 * (1.0 + 2.0 * tau2) * k)
    return t0, t1, t2


def dephasing_bound(w, weight, tau: float, temperature: float, sin_cos, cos2):
    """An upper bound of the dephasing kernel at phase coefficients
    sin_cos = sin(phi) cos(phi) and cos2 = cos^2(phi), elementwise over
    w > 0 and broadcast over the coefficients.

    Every sine in dephasing_terms is at most 1 in magnitude, so with p as
    there T0 <= p (r^2 + 4), |T1| <= 16 tau^2 r p and 0 <= T2 <= 32 tau^2
    (1 + 2 tau^2) p, and the kernel is at most p K with
    K = r^2 + 4 + |sin_cos| 16 tau^2 r + cos2 32 tau^2 (1 + 2 tau^2).
    Since e^{2y} - 1 >= 2y, coth y <= 1 + 1/y, so the bound is
    2 K weight (1 + 2T/w) / (r^4 w^2); T = 0 gives coth = 1 exactly.
    """
    tau2 = tau * tau
    r2 = 1.0 + 4.0 * tau2
    k = (r2 + 4.0 + np.abs(sin_cos) * (16.0 * tau2 * math.sqrt(r2))
         + cos2 * (32.0 * tau2 * (1.0 + 2.0 * tau2)))
    return k * ((2.0 / (r2 * r2)) * weight * (1.0 + 2.0 * temperature / w) / (w * w))


def dephasing_kernel(w, weight, phase, tau: float, t: float, temperature: float):
    """weight * 2 |xi_w(t)|^2 coth(w/2T) for a unit coupling of phase
    `phase`, elementwise over w > 0 (and over array weights and phases).

    The one dephasing formula: weight is |g_k|^2 for a discrete mode and
    J(w) for the continuum.  It is the phase combination of
    dephasing_terms, which the continuum evaluates once for many phases.
    With Omega = w sqrt(1+4 tau^2),
    |xi|^2 = [Omega^2 sin^2(Omega t) + 16 tau^2 w Omega sin(phase) cos(phase)
    sin(Omega t) sin^2(Omega t/2) + 4 w^2 sin^4(Omega t/2)
    (1 + 8 tau^2 (1 + 2 tau^2) cos^2(phase))] / Omega^4.
    """
    t0, t1, t2 = dephasing_terms(w, weight, tau, t, temperature)
    sin_p, cos_p = np.sin(phase), np.cos(phase)
    return t0 + sin_p * cos_p * t1 + cos_p * cos_p * t2


def gamma_discrete(bath: DiscreteBath, t: float) -> float:
    """Decoherence exponent Gamma(t) for a discrete bath: the dephasing
    kernel summed over the modes with weights |g_k|^2 (fast path)."""
    check_time(t)
    omega, weight, phase = bath._mode_arrays
    return float(dephasing_kernel(omega, weight, phase, bath.tau, t, bath.temperature).sum())


def gamma_discrete_amplitude(bath: DiscreteBath, t: float) -> float:
    """Same exponent via the amplitude route, 2 sum_k |xi_k|^2 coth(w_k/2T).

    Kept as an independent cross-check of gamma_discrete; the two agree to
    machine precision (algebraic identity).
    """
    check_time(t)
    total = 0.0
    for mode in bath.modes:
        xi = xi_non_hermitian(mode.coupling, mode.omega, bath.tau, t)
        total += 2.0 * abs(xi) ** 2 * thermal_coth(mode.omega, bath.temperature)
    return total


def coherence_factor(bath: DiscreteBath, t: float) -> float:
    """exp(-Gamma(t)); 1 at t = 0, underflows to 0 for huge exponents."""
    return math.exp(-gamma_discrete(bath, t))


def evolve_qubit(initial: QubitState, gamma: float) -> QubitState:
    """Pure-dephasing map: populations fixed, coherences scaled by e^-gamma."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    d = math.exp(-gamma)
    rho = initial.rho.copy()
    rho[0, 1] *= d
    rho[1, 0] *= d
    return QubitState(rho)


def load_bath_csv(
    path: str | Path, temperature: float = 0.0, tau: float = 0.0
) -> DiscreteBath:
    """Read a discrete bath from CSV with header ``omega,g_abs,theta``."""
    modes = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"omega", "g_abs", "theta"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(
                f"modes file needs columns {sorted(expected)}, got {reader.fieldnames}"
            )
        for row in reader:
            modes.append(
                BathMode(
                    omega=float(row["omega"]),
                    coupling=Coupling(float(row["g_abs"]), float(row["theta"])),
                )
            )
    return DiscreteBath(tuple(modes), temperature=temperature, tau=tau)
