"""Recompute the numbers behind the two known-red acceptance criteria.

    PYTHONPATH=src python docs/known_red.py

Prints, in order: the exact truncated-Fock check of the single-mode closed
form the continuum is built from (`oracle.certify`); the crossings
Gamma(tau*) = Gamma(0) that criterion 8 asserts do not exist where it
expects them (`drivers.crossover`, theta = 2 pi/3); and the ratio
Gamma(tau=20)/Gamma(0) that criterion 9 bounds by 0.05 (theta = pi/2).
See docs/known_red.md for how to read them.  Takes a few seconds.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ptbath.continuum import (
    OhmicSpectrum,
    QuadratureSpec,
    gamma_continuum_nh,
    gamma_hermitian,
)
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
        gammas = [gamma_continuum_nh(replace(fixed, tau=float(tau)), t, quad) for tau in taus]
        i = int(np.argmin(gammas))
        print(f"  t={t:g}: tau* = {tau_star:.4f}; Gamma(tau) on [0, 4] is smallest at "
              f"tau = {taus[i]:.3f}, {gammas[i] / gammas[0]:.4f} x Gamma(0)")


def criterion_9(quad: QuadratureSpec) -> None:
    print("criterion 9: Gamma(tau=20) / Gamma(0) at theta = pi/2 (the test asks <= 0.05)")
    for t in (2.0, 120.0):
        g0 = gamma_hermitian(1.0, 0.1, 300.0, t, quad)
        line = []
        for tau in (5.0, 10.0, 20.0, 40.0, 80.0, 160.0):
            g = gamma_continuum_nh(OhmicSpectrum(theta=PI / 2, tau=tau, **FIG), t, quad)
            line.append(f"tau={tau:g}: {g / g0:.4f}")
        print(f"  t={t:g}: " + ", ".join(line))


def main() -> None:
    quad = QuadratureSpec()
    oracle_section()
    criterion_8(quad)
    criterion_9(quad)


if __name__ == "__main__":
    main()
