"""Closed-form dephasing of a qubit coupled to a bath of (possibly
non-Hermitian) harmonic modes.

Everything here is exact algebra: the displacement amplitude xi per mode,
the decoherence exponent Gamma(t) for a discrete bath, and the checks of a
density matrix.  Units: hbar = k_B = 1, temperatures share frequency units.
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


def check_time(t: float, flag: str = "--t") -> None:
    """Raise ValueError, naming the flag that gave t, unless 0 <= t < inf."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t} ({flag})")


def coth(x):
    """coth for x > 0, elementwise; a scalar argument gives a float."""
    out = 1.0 / np.tanh(np.asarray(x, dtype=float))
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
        # the dephasing kernel's weight |g|^2 / omega^2, as dephasing_kernel
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
            raise ValueError(f"temperature must be >= 0, got {self.temperature} (--temp)")
        check_tau(self.tau)
        # |g|^2 coth(w/2T) / w^2 as dephasing_kernel rounds it: past the float range, Gamma is nan
        omega, weight, *_ = self._mode_arrays
        # 0 x inf (|g| = 0, omega / T underflowing) is nan: out of range too
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bad = ~np.isfinite(weight / (omega * omega)
                               * (2.0 / np.expm1(omega / self.temperature) + 1.0))
        if bad.any():
            raise ValueError(f"mode omega {omega[bad][0]:g} at --temp {self.temperature:g} "
                             "makes |g|^2 coth(omega/2T)/omega^2 overflow")

    @cached_property
    def _mode_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # (omega, |g|^2, sin cos, cos^2) per mode, built once per bath: the
        # kernel's phase coefficients
        phase = np.array([m.coupling.phase for m in self.modes])
        sin_p, cos_p = np.sin(phase), np.cos(phase)
        return (
            np.array([m.omega for m in self.modes]),
            np.array([m.coupling.magnitude**2 for m in self.modes]),
            sin_p * cos_p,
            cos_p * cos_p,
        )


def density_matrix(rho, dim: int, eig_tol: float) -> np.ndarray:
    """rho as a complex dim x dim array, checked to be finite and Hermitian
    with unit trace (both to 1e-12) and no eigenvalue below -eig_tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # nan compares False in every test below
        raise ValueError("density matrix has a non-finite entry")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


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


def _kernel_constants(tau):
    """(r, r^2, 2/r^4, 32 tau^2 r 2/r^4, 32 tau^2 (1 + 2 tau^2) 2/r^4) with
    r = sqrt(1 + 4 tau^2): the factors of dephasing_kernel, as it rounds them."""
    tau2 = tau * tau
    r2 = 1.0 + 4.0 * tau2
    r = np.sqrt(r2)
    k = 2.0 / (r2 * r2)
    return r, r2, k, 32.0 * tau2 * r * k, 32.0 * tau2 * (1.0 + 2.0 * tau2) * k


def check_tau(tau: float, flag: str = "--tau") -> None:
    """Raise ValueError, naming the flag that gave tau, past |tau| ~ 4.09e76,
    where the kernel constants leave the float range and Gamma is nan or
    loses its tau-free term.  Near tau = 0 the tau^2 constants may be
    subnormal: they pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, k, k1, k2 = _kernel_constants(tau)
    if not (k >= sys.float_info.min and math.isfinite(k1) and math.isfinite(k2)):
        raise ValueError(f"tau {tau:g} ({flag}) puts the kernel constants 2/r^4, 32 tau^2 "
                         "r 2/r^4 or 32 tau^2 (1 + 2 tau^2) 2/r^4 outside the float range")


def dephasing_kernel(w, weight, tau, t, temperature: float, sin_cos=None, cos2=None,
                     out=None):
    """weight * 2 |xi_w(t)|^2 coth(w/2T) for a unit coupling of phase phi,
    given as sin_cos = sin(phi) cos(phi) and cos2 = cos^2(phi), elementwise
    over w > 0.  tau, t and the coefficients may be arrays that broadcast
    against w, so one call serves one phase per mode (gamma_discrete).
    Without them it returns the terms T0, T1, T2 below on a new leading
    axis, in out if given (continuum.gamma_integrand_nh); with them, out
    (if given) holds the terms it combines.

    The one dephasing formula: weight is |g_k|^2 for a discrete mode and
    J(w) for the continuum.  With r = sqrt(1+4 tau^2), x = r w t and
    p = 2 weight coth(w/2T) / (r^4 w^2), the kernel is
    T0 + sin_cos T1 + cos2 T2 with T0 = p [r^2 sin^2 x + 4 sin^4(x/2)],
    T1 = 16 tau^2 r p sin x sin^2(x/2) and T2 = 32 tau^2 (1 + 2 tau^2) p
    sin^4(x/2): the phase enters only through the two coefficients.

    Both sines come from one tangent u = tan(x/4): sin(x/2) = 2u/(1+u^2),
    cos(x/2) = (1-u)(1+u)/(1+u^2) and sin x = 2 sin(x/2) cos(x/2).  NumPy's
    float64 tan is vectorized and its sin is not, so one tan costs a
    fraction of one sin.  Since 2|u| <= 1 + u^2, every sine is still at most
    1 in magnitude and dephasing_bound holds.  coth(w/2T) is
    1 + 2/expm1(w/T), exactly 1 once expm1 overflows (w/T > 709.78).
    """
    r, r2, k, k1, k2 = _kernel_constants(tau)
    out = np.empty((3,) + np.broadcast(w, weight, r, t).shape) if out is None else out
    # views, 0-d for a scalar w; the sines are formed in them, beside u
    t0, t1, v = out[0, ...], out[1, ...], out[2, ...]
    # x = (w r) t, the rounding of Omega t in xi_non_hermitian; x/4 is exact
    u = np.multiply(w, r, out=np.empty_like(t0))
    u *= t * 0.25
    np.tan(u, out=u)
    np.subtract(1.0, u, out=t0)
    t0 *= np.add(1.0, u, out=t1)
    den = np.add(np.multiply(u, u, out=t1), 1.0, out=t1)
    t0 /= den  # cos(x/2)
    u += u
    u /= den  # sin(x/2)
    t0 *= u  # sin(x)/2
    u *= u  # sin^2(x/2)
    # v = weight coth / w^2 is p without its factor 2/r^4, which k carries;
    # weight may be the row v itself
    np.divide(weight, np.multiply(w, w, out=t1), out=v)
    if temperature > 0:
        with np.errstate(over="ignore"):
            cth = np.expm1(np.divide(w, temperature, out=t1), out=t1)
        v *= np.add(np.divide(2.0, cth, out=cth), 1.0, out=cth)
    np.multiply(v, t0, out=t1)
    t0 *= t1  # (v sin(x)/2) sin(x)/2
    t1 *= u
    t1 *= k1
    v *= u
    v *= u  # v sin^4(x/2)
    del u  # freed before the phase combination
    t0 *= r2
    t0 += v
    t0 *= 4.0 * k
    v *= k2  # T2
    if sin_cos is None:
        return out
    kernel = t0 + sin_cos * t1
    kernel += cos2 * v  # in place: one output-sized array fewer at the peak
    return kernel


def dephasing_bound(w, weight, tau, temperature: float, sin_cos, cos2):
    """An upper bound of the dephasing kernel at phase coefficients
    sin_cos = sin(phi) cos(phi) and cos2 = cos^2(phi), elementwise over
    w > 0 (and an array tau) and broadcast over the coefficients.

    Every sine in dephasing_kernel is at most 1 in magnitude, so with p
    and the terms as there T0 <= p (r^2 + 4), |T1| <= 16 tau^2 r p and
    0 <= T2 <= 32 tau^2 (1 + 2 tau^2) p, and the kernel is at most p K with
    K = r^2 + 4 + |sin_cos| 16 tau^2 r + cos2 32 tau^2 (1 + 2 tau^2).
    Since e^{2y} - 1 >= 2y, coth y <= 1 + 1/y, so the bound is
    2 K weight (1 + 2T/w) / (r^4 w^2), factors as in _kernel_constants; T = 0 gives coth = 1.
    """
    _, r2, k, k1, k2 = _kernel_constants(tau)
    bound = (r2 + 4.0) * k + np.abs(sin_cos) * (0.5 * k1) + cos2 * k2
    return bound * (weight * (1.0 + 2.0 * temperature / w) / (w * w))


def gamma_discrete(bath: DiscreteBath, t: float) -> float:
    """Decoherence exponent Gamma(t) for a discrete bath: the dephasing
    kernel summed over the modes with weights |g_k|^2 (fast path).

    The kernel is linear in the weight, but dephasing_kernel can overflow
    in a product (|g|^2/w^2 times r^2) whose end value is finite.  A mode
    whose kernel is not finite is evaluated again with its weight scaled
    by an exact power of two, and its kernel scaled back; every other mode
    keeps its bits.  Raises ValueError when Gamma itself overflows."""
    check_time(t)
    omega, weight, sin_cos, cos2 = bath._mode_arrays
    args = (bath.tau, t, bath.temperature)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = dephasing_kernel(omega, weight, *args, sin_cos, cos2)
    bad = ~np.isfinite(kernel)
    with np.errstate(over="ignore"):
        if bad.any():
            w = omega[bad]
            _, e = np.frexp(weight[bad] / (w * w))  # |g|^2/w^2 scaled into [1/2, 1)
            kernel[bad] = np.ldexp(dephasing_kernel(w, np.ldexp(weight[bad], -e), *args,
                                                    sin_cos[bad], cos2[bad]), e)
        total = float(kernel.sum())
    if math.isinf(total):
        raise ValueError(f"the couplings (--modes-file) make Gamma({t:g}) overflow a float")
    return total


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
            try:  # the row's numbers, then the mode they make
                try:  # a missing field is None
                    omega, g_abs, theta = (float(row[k]) for k in ("omega", "g_abs", "theta"))
                except (TypeError, ValueError):
                    raise ValueError(f"omega, g_abs and theta must be numbers, got {row['omega']!r}"
                                     f", {row['g_abs']!r}, {row['theta']!r}") from None
                modes.append(BathMode(omega, Coupling(g_abs, theta)))
            except ValueError as exc:
                raise ValueError(f"modes file {path} line {reader.line_num}: {exc}") from None
    return DiscreteBath(tuple(modes), temperature=temperature, tau=tau)
