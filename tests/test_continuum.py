import math

import numpy as np
import pytest

from ptbath.continuum import (
    OhmicSpectrum,
    QuadratureError,
    QuadratureSpec,
    gamma_continuum_nh,
    gamma_hermitian,
    gamma_integrand_hermitian,
    gamma_integrand_nh,
    spectral_density,
)
from ptbath.core import Coupling, thermal_coth, xi_non_hermitian

from riemann_oracle import riemann_gamma_hermitian, riemann_gamma_nh

FIG_SETTINGS = dict(amplitude=1.0, cutoff=0.1, temperature=300.0)

# midpoint-rule oracle, 1e7 points over [0, 60*cutoff], Richardson-stable
# to ~2e-12 relative (checked by doubling to 2e7 points)
RIEMANN_NH_TAU2 = 369.42515216568825      # tau=2, theta=pi/2, t=2
RIEMANN_HERMITIAN_T20 = 33829.88368261289  # t=20


class TestSpectralDensity:
    def test_vanishes_at_zero(self):
        assert spectral_density(0.0, 1.3, 0.2) == 0.0

    def test_value_at_cutoff(self):
        assert spectral_density(0.1, 2.0, 0.1) == pytest.approx(2.0 * 0.1 / math.e, rel=1e-14)

    def test_argmax_at_cutoff(self):
        w = np.linspace(0.0, 2.0, 20001)
        j = spectral_density(w, 1.0, 0.3)
        assert w[np.argmax(j)] == pytest.approx(0.3, abs=1e-4)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            spectral_density(-0.1, 1.0, 0.1)


class TestIntegrand:
    def test_vanishes_at_zero_time(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.4, 300.0, 2.0)
        w = np.linspace(1e-4, 5.0, 100)
        assert np.all(gamma_integrand_nh(w, spec, 0.0) == 0.0)

    def test_pointwise_identity_with_amplitude_route(self):
        # 2 J(w) |xi|^2 coth with a unit-magnitude coupling of phase theta
        rng = np.random.default_rng(20)
        for _ in range(1000):
            w = rng.uniform(1e-3, 2.0)
            spec = OhmicSpectrum(rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.5),
                                 rng.uniform(0, 2 * math.pi),
                                 float(rng.choice([0.0, 1.0, 300.0])),
                                 rng.uniform(-3, 3))
            t = rng.uniform(0.1, 40.0)
            xi = xi_non_hermitian(Coupling(1.0, spec.theta), w, spec.tau, t)
            ref = (2.0 * spectral_density(w, spec.amplitude, spec.cutoff)
                   * abs(xi) ** 2 * thermal_coth(w, spec.temperature))
            val = gamma_integrand_nh(w, spec, t)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_tau_zero_reduces_to_hermitian_integrand(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = rng.uniform(1e-3, 2.0)
            A, lam, T = rng.uniform(0.1, 2), rng.uniform(0.05, 0.3), 300.0
            t = rng.uniform(0.1, 30.0)
            spec = OhmicSpectrum(A, lam, rng.uniform(0, 2 * math.pi), T, 0.0)
            assert gamma_integrand_nh(w, spec, t) == pytest.approx(
                gamma_integrand_hermitian(w, A, lam, T, t), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        spec = OhmicSpectrum(1.0, 0.1, 1.1, 300.0, 2.5)
        w = rng.uniform(1e-8, 6.0, size=5000)
        assert np.all(gamma_integrand_nh(w, spec, 17.3) >= 0.0)

    def test_small_frequency_limit_is_finite_and_smooth(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.7, 300.0, 1.0)
        t = 5.0
        below = gamma_integrand_nh(0.99e-7, spec, t)
        above = gamma_integrand_nh(1.01e-7, spec, t)
        assert math.isfinite(below)
        assert below == pytest.approx(above, rel=1e-4)
        # leading order 4 A T t^2 at w -> 0
        assert gamma_integrand_nh(1e-12, spec, t) == pytest.approx(
            4.0 * spec.amplitude * spec.temperature * t * t, rel=1e-4)


class TestGammaContinuum:
    def test_zero_time(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.3, 300.0, 2.0)
        assert gamma_continuum_nh(spec, 0.0) == 0.0
        assert gamma_hermitian(1.0, 0.1, 300.0, 0.0) == 0.0

    def test_tau_zero_matches_hermitian(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            A = rng.uniform(0.1, 2.0)
            lam = rng.uniform(0.05, 0.3)
            T = float(rng.choice([0.0, 1.0, 300.0]))
            t = rng.uniform(0.5, 30.0)
            spec = OhmicSpectrum(A, lam, rng.uniform(0, 2 * math.pi), T, 0.0)
            a = gamma_continuum_nh(spec, t)
            b = gamma_hermitian(A, lam, T, t)
            assert a == pytest.approx(b, rel=1e-8)

    def test_non_hermitian_against_riemann_value(self):
        spec = OhmicSpectrum(theta=math.pi / 2, tau=2.0, **FIG_SETTINGS)
        assert gamma_continuum_nh(spec, 2.0) == pytest.approx(RIEMANN_NH_TAU2, rel=1e-6)

    def test_hermitian_against_riemann_value(self):
        g = gamma_hermitian(1.0, 0.1, 300.0, 20.0)
        assert g == pytest.approx(RIEMANN_HERMITIAN_T20, rel=1e-6)

    def test_live_riemann_agreement(self):
        spec = OhmicSpectrum(theta=2.2, tau=1.3, **FIG_SETTINGS)
        ref = riemann_gamma_nh(spec, 7.0)
        assert gamma_continuum_nh(spec, 7.0) == pytest.approx(ref, rel=1e-6)

    def test_theta_periodicity(self):
        for theta in np.linspace(0.0, math.pi, 7):
            a = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, float(theta), 300.0, 2.0), 20.0)
            b = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, float(theta) + math.pi, 300.0, 2.0), 20.0)
            assert a == pytest.approx(b, rel=1e-12)

    def test_tau_evenness(self):
        for tau in (0.5, 1.7, 3.0):
            a = gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, 0.9, 300.0, tau), 5.0)
            b = gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, 0.9, 300.0, -tau), 5.0)
            assert a == pytest.approx(b, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            spec = OhmicSpectrum(rng.uniform(0.1, 2), rng.uniform(0.05, 0.3),
                                 rng.uniform(0, 2 * math.pi), 300.0, rng.uniform(-4, 4))
            assert gamma_continuum_nh(spec, rng.uniform(0, 30)) >= 0.0

    def test_tail_truncation_negligible(self):
        # doubling omega_max leaves the result unchanged at the abs_tol scale
        rng = np.random.default_rng(25)
        for _ in range(10):
            spec = OhmicSpectrum(1.0, 0.1, rng.uniform(0, 2 * math.pi), 300.0,
                                 rng.uniform(0, 3))
            t = rng.uniform(0.5, 20.0)
            a = gamma_continuum_nh(spec, t, QuadratureSpec())
            b = gamma_continuum_nh(spec, t, QuadratureSpec(omega_max=12.0))
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_convergence_failure_raises(self):
        spec = OhmicSpectrum(theta=0.3, tau=2.0, **FIG_SETTINGS)
        with pytest.raises(QuadratureError):
            gamma_continuum_nh(spec, 20.0,
                               QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300,
                                              max_subdivisions=10))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), t)
        with pytest.raises(ValueError, match="finite"):
            gamma_hermitian(1.0, 0.1, 0.0, t)


class TestQuadratureSpec:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(min_panels_per_oscillation=2)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            OhmicSpectrum(-1.0, 0.1)
        with pytest.raises(ValueError):
            OhmicSpectrum(1.0, 0.0)
        with pytest.raises(ValueError):
            OhmicSpectrum(1.0, 0.1, temperature=-1.0)

    @pytest.mark.parametrize("field", ["amplitude", "cutoff", "theta", "temperature", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spectrum_rejects_non_finite(self, field, value):
        kwargs = {"amplitude": 1.0, "cutoff": 0.1, field: value}
        with pytest.raises(ValueError, match=field):
            OhmicSpectrum(**kwargs)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "omega_max"])
    def test_quadrature_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: math.nan})
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: math.inf})
