"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them live).
"""

import math

import numpy as np

from ptbath.cli import crossover
from ptbath.continuum import OhmicSpectrum, QuadratureSpec, gamma_continuum_nh, gamma_hermitian
from ptbath.core import (
    BathMode,
    Coupling,
    DiscreteBath,
    gamma_discrete,
    gamma_discrete_amplitude,
)
from ptbath.entanglement import TwoQubitState, concurrence, dephased_bell, eof_from_concurrence
from ptbath.oracle import TruncatedMode, certify, similarity_residual, spectrum_residuals

from riemann_oracle import riemann_gamma_nh
from test_entanglement import haar_unitary

FIG = dict(amplitude=1.0, cutoff=0.1, temperature=300.0)
PI = math.pi


def report(number, ok, detail=""):
    print(f"\n[acceptance {number:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_criterion_01_reduction_identity():
    """tau = 0 continuum reduces to the ordinary spin-boson factor."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        A = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.05, 0.3)
        T = float(rng.choice([0.0, 1.0, 10.0, 300.0]))
        t = rng.uniform(0.5, 30.0)
        theta = rng.uniform(0.0, 2 * PI)
        a = gamma_continuum_nh(OhmicSpectrum(A, lam, theta, T, 0.0), t)
        b = gamma_hermitian(A, lam, T, t)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    report(1, worst <= 1e-8, f"max rel diff {worst:.3e} (tol 1e-8)")


def test_criterion_02_closed_form_amplitude_identity():
    """Three-term Gamma equals 2 sum |xi|^2 coth for random discrete baths."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        modes = tuple(
            BathMode(rng.uniform(0.2, 3.0),
                     Coupling(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * PI)))
            for _ in range(rng.integers(1, 4))
        )
        bath = DiscreteBath(modes, float(rng.choice([0.0, 0.5, 5.0, 300.0])),
                            rng.uniform(-3.0, 3.0))
        t = rng.uniform(0.0, 30.0)
        a = gamma_discrete(bath, t)
        b = gamma_discrete_amplitude(bath, t)
        if b > 0:
            worst = max(worst, abs(a - b) / b)
    report(2, worst <= 1e-12, f"max rel diff {worst:.3e} (tol 1e-12)")


def test_criterion_03_oracle_certification():
    """Exact truncated-Fock evolution matches exp(-Gamma) pointwise."""
    worst = 0.0
    all_converged = True
    for tau in (0.0, 0.2, 0.4):
        for theta in (0.0, PI / 4, PI / 2):
            # omega = 1, |g| = 0.1, T = 1, 101 times on [0, 20], doubling from 40
            r = certify(omega=1.0, tau=tau, theta=theta, g_abs=0.1, temperature=1.0,
                        t_max=20.0, num_times=101, fock_dim=40)
            all_converged &= r.converged
            worst = max(worst, r.dephasing_max_error)
    ok = all_converged and worst <= 1e-6
    report(3, ok, f"max |exact - closed| {worst:.3e} (tol 1e-6), converged={all_converged}")


def test_criterion_04_non_hermitian_spectrum():
    """Truncated non-Hermitian spectrum is the shifted real ladder."""
    mode = TruncatedMode(1.0, 0.3, 80)
    residuals, max_imag = spectrum_residuals(mode)
    sim = similarity_residual(mode, 20)
    ok = max(residuals) <= 1e-6 and max_imag <= 1e-8 and sim <= 1e-8
    report(4, ok, f"spectrum {max(residuals):.3e}, imag {max_imag:.3e}, similarity {sim:.3e}")


def test_criterion_05_fig1a_ordering():
    """At t=20, tau=2: theta=pi/2 beats Hermitian beats theta=pi.

    Gamma here is of order 1e4, so exp(-Gamma) underflows; the coherence
    ordering is asserted through the (monotone) exponents.
    """
    g_best = gamma_continuum_nh(OhmicSpectrum(theta=PI / 2, tau=2.0, **FIG), 20.0)
    g_h = gamma_hermitian(1.0, 0.1, 300.0, 20.0)
    g_worst = gamma_continuum_nh(OhmicSpectrum(theta=PI, tau=2.0, **FIG), 20.0)
    ok = g_best < g_h < g_worst
    report(5, ok, f"Gamma: pi/2 {g_best:.1f} < H {g_h:.1f} < pi {g_worst:.1f}")


def test_criterion_06_theta_periodicity():
    """Gamma is pi-periodic in theta on a 72-point grid."""
    worst = 0.0
    for theta in np.linspace(0.0, PI, 72, endpoint=False):
        a = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, float(theta), 300.0, 2.0), 20.0)
        b = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, float(theta) + PI, 300.0, 2.0), 20.0)
        worst = max(worst, abs(a - b) / max(a, b))
    report(6, worst <= 1e-10, f"max rel asymmetry {worst:.3e} (tol 1e-10)")


def test_criterion_07_fig2_trend():
    """Gamma strictly decreasing across tau in {0,1,2,4} at theta=pi/2, t=20."""
    gs = [gamma_continuum_nh(OhmicSpectrum(theta=PI / 2, tau=tau, **FIG), 20.0)
          for tau in (0.0, 1.0, 2.0, 4.0)]
    ok = all(a > b for a, b in zip(gs, gs[1:]))
    report(7, ok, "Gamma(tau): " + ", ".join(f"{g:.1f}" for g in gs))


def test_criterion_08_fig3_crossover():
    """Crossover tau* with Gamma(tau*) = Gamma(0) at theta=2pi/3.

    Known red: the implementation is certified against the exact Fock
    oracle, and under it Gamma(tau)=Gamma(0) crosses at tau ~ 3.93 for
    t=120 (Gamma has its interior minimum near tau ~ 1.25) and a crossing
    exists at tau ~ 2.66 for t=2.
    """
    fixed = OhmicSpectrum(theta=2 * PI / 3, tau=0.0, **FIG)
    tau_star = crossover(fixed, 120.0, QuadratureSpec(), tau_max=4.0)
    in_window = tau_star is not None and 1.0 <= tau_star <= 1.6
    none_small_t = crossover(fixed, 2.0, QuadratureSpec(), tau_max=4.0) is None
    ok = in_window and none_small_t
    report(8, ok, f"tau*(t=120)={tau_star}, no-crossover(t=2)={none_small_t}")


def test_criterion_09_fig4_asymptote():
    """Gamma(tau=20) <= 0.05 Gamma(0) at t=2 and t=120, monotone over
    tau in {5,10,20}.

    Known red at t=2: the exact ratio there is ~0.17 (the 1/tau
    suppression needs tau ~ 80 to reach 5% at this short time); t=120
    passes comfortably.
    """
    ok = True
    details = []
    for t in (2.0, 120.0):
        g0 = gamma_hermitian(1.0, 0.1, 300.0, t)
        gs = [gamma_continuum_nh(OhmicSpectrum(theta=PI / 2, tau=tau, **FIG), t)
              for tau in (5.0, 10.0, 20.0)]
        ratio = gs[-1] / g0
        monotone = gs[0] > gs[1] > gs[2]
        ok &= ratio <= 0.05 and monotone
        details.append(f"t={t}: ratio {ratio:.4f}, monotone {monotone}")
    report(9, ok, "; ".join(details))


def test_criterion_10_entanglement_layer():
    ok = True
    for gamma in (0.0, 0.5, 2.0, 10.0):
        c = concurrence(dephased_bell(gamma)).concurrence
        ok &= abs(c - math.exp(-gamma)) <= 1e-12
    rng = np.random.default_rng(110)
    rho = dephased_bell(0.9).rho
    c0 = concurrence(TwoQubitState(rho)).concurrence
    for _ in range(100):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        ok &= abs(concurrence(TwoQubitState(u @ rho @ u.conj().T)).concurrence - c0) <= 1e-10
    ok &= eof_from_concurrence(0.0) == 0.0
    ok &= abs(eof_from_concurrence(1.0) - 1.0) <= 1e-15
    report(10, ok, "concurrence/eof identities")


def test_criterion_11_quadrature_vs_riemann_grid():
    """Adaptive quadrature vs the uniform-grid midpoint oracle."""
    worst = 0.0
    for tau in (0.0, 0.5, 1.0, 2.0, 4.0):
        for theta in (0.0, PI / 4, PI / 2, 2 * PI / 3, PI):
            for t in (2.0, 10.0, 20.0):
                spec = OhmicSpectrum(theta=theta, tau=tau, **FIG)
                a = gamma_continuum_nh(spec, t)
                b = riemann_gamma_nh(spec, t, n=2_000_000)
                worst = max(worst, abs(a - b) / b)
    report(11, worst <= 1e-6, f"max rel diff {worst:.3e} (tol 1e-6)")
