"""Recompute the numbers behind the two known-red acceptance criteria.

    PYTHONPATH=src python docs/known_red.py

Prints, in order: the exact truncated-Fock check of the single-mode closed
form the continuum is built from (`oracle.certify`); the crossings
Gamma(tau*) = Gamma(0) that criterion 8 asserts do not exist where it
expects them (`drivers.crossover`, theta = 2 pi/3); the ratio
Gamma(tau=20)/Gamma(0) that criterion 9 bounds by 0.05 (theta = pi/2); and
the same two criteria under another reading of the conventions, tau in
frequency units (tau/w per mode), which is ruled out.
See docs/known_red.md for how to read them.  Takes a few seconds.
"""

from __future__ import annotations

import math

import numpy as np

from ptbath.continuum import (
    OhmicSpectrum,
    QuadratureSpec,
    gamma_continuum_batch,
    gamma_hermitian,
    integrate_adaptive,
    spectral_density,
)
from ptbath.core import coth, dephasing_kernel
from ptbath.drivers import crossover
from ptbath.oracle import certify

PI = math.pi
FIG = dict(amplitude=1.0, cutoff=0.1, temperature=300.0)


def oracle_section() -> None:
    print("closed form vs exact truncated-Fock evolution (one mode, omega=1, T=1, |g|=0.1)")
    for tau in (0.0, 0.2, 0.4):
        for theta in (PI / 2, 2 * PI / 3):
            r = certify(tau=tau, theta=theta)
            print(f"  tau={tau:.1f} theta={theta:.4f}: max |exact - exp(-Gamma)| = "
                  f"{r.dephasing_max_error:.2e}, Fock dim {r.fock_dim_used}, "
                  f"converged {r.converged}")


def criterion_8(quad: QuadratureSpec) -> None:
    print("criterion 8: crossover tau* with Gamma(tau*) = Gamma(0), theta = 2 pi/3")
    print("  expected by the test: tau* in [1.0, 1.6] at t=120, no crossing at t=2")
    fixed = OhmicSpectrum(theta=2 * PI / 3, tau=0.0, **FIG)
    for t in (120.0, 2.0):
        tau_star = crossover(fixed, t, quad, tau_max=4.0)
        taus = np.linspace(0.0, 4.0, 161)
        gammas = gamma_continuum_batch(fixed, taus.tolist(), [t] * taus.size, [fixed.theta],
                                       quad)[:, 0]
        i = int(np.argmin(gammas))
        print(f"  t={t:g}: tau* = {tau_star:.4f}; Gamma(tau) on [0, 4] is smallest at "
              f"tau = {taus[i]:.3f}, {gammas[i] / gammas[0]:.4f} x Gamma(0)")


def criterion_9(quad: QuadratureSpec) -> None:
    print("criterion 9: Gamma(tau=20) / Gamma(0) at theta = pi/2 (the test asks <= 0.05)")
    for t in (2.0, 120.0):
        g0 = gamma_hermitian(1.0, 0.1, 300.0, t, quad)
        taus = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0]
        gammas = gamma_continuum_batch(OhmicSpectrum(**FIG), taus, [t] * len(taus), [PI / 2],
                                       quad)[:, 0]
        line = [f"tau={tau:g}: {g / g0:.4f}" for tau, g in zip(taus, gammas)]
        print(f"  t={t:g}: " + ", ".join(line))


def kernel_tau_over_omega(w, theta, tau, t, temperature):
    """core.dephasing_kernel with weight 1 and tau read in frequency units,
    tau/w for the mode at w, written out with Omega = w sqrt(1 + 4 (tau/w)^2)
    so that it takes a different tau at every node."""
    te = tau / w
    om = w * np.sqrt(1.0 + 4.0 * te * te)
    s, s2 = np.sin(om * t), np.sin(0.5 * om * t) ** 2
    sc, c2 = math.sin(theta) * math.cos(theta), math.cos(theta) ** 2
    xi2 = (om * om * s * s + 16.0 * te * te * w * om * sc * s * s2
           + 4.0 * w * w * s2 * s2 * (1.0 + 8.0 * te * te * (1.0 + 2.0 * te * te) * c2)) / om**4
    return 2.0 * xi2 * coth(w / (2.0 * temperature))


def gamma_tau_over_omega(theta, tau, t, eps, quad):
    """The Ohmic integral from eps to 60 cutoff of that kernel, over u = ln w."""
    lam, T = FIG["cutoff"], FIG["temperature"]

    def f(u, ids):
        w = np.exp(u)
        return w * spectral_density(w, FIG["amplitude"], lam) * kernel_tau_over_omega(
            w, theta, tau, t, T)

    # the phase t sqrt(w^2 + 4 tau^2) turns at most t * 60 cutoff per unit u
    width = 2.0 * math.pi / (8.0 * max(t, 1.0) * 60.0 * lam)
    return integrate_adaptive(f, math.log(eps), math.log(60.0 * lam), quad, [width], [None],
                              [[1.0]])[0, 0]


def tau_over_omega(quad: QuadratureSpec) -> None:
    print("ruled out: tau in frequency units, tau_eff = tau/w for the mode at w")
    w = np.array([1e-3, 0.05, 0.7])
    sc, c2 = math.sin(2 * PI / 3) * math.cos(2 * PI / 3), math.cos(2 * PI / 3) ** 2
    ref = dephasing_kernel(w, 1.0, 1.0 / w, 120.0, 300.0, sc, c2)
    diff = np.max(np.abs(kernel_tau_over_omega(w, 2 * PI / 3, 1.0, 120.0, 300.0) / ref - 1))
    print(f"  the kernel above equals core.dephasing_kernel at tau/w to {diff:.1e}")
    line = [f"eps={eps:g}: {gamma_tau_over_omega(2 * PI / 3, 1.0, 120.0, eps, quad):.3g}"
            for eps in (1e-3, 1e-5, 1e-7)]
    print("  theta = 2 pi/3, tau=1, t=120, integral from eps to 60 cutoff: " + ", ".join(line))
    print("  (grows like 1/eps: Gamma is infinite for every tau != 0, so criterion 8's")
    print("  finite crossing cannot exist)")
    for t in (2.0, 120.0):
        g0 = gamma_hermitian(1.0, 0.1, 300.0, t, quad)
        g = gamma_tau_over_omega(PI / 2, 20.0, t, 1e-7, quad)
        print(f"  theta = pi/2, t={t:g}: Gamma(tau=20)/Gamma(0) = {g / g0:.2e}")


def main() -> None:
    quad = QuadratureSpec()
    oracle_section()
    criterion_8(quad)
    criterion_9(quad)
    tau_over_omega(quad)


if __name__ == "__main__":
    main()
