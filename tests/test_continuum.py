import concurrent.futures
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ptbath import continuum
from ptbath.continuum import (
    _NODES,
    _WEIGHTS,
    _node_sum,
    _panel_width,
    _tail_bound,
    OhmicSpectrum,
    QuadratureError,
    QuadratureSpec,
    batches,
    gamma_continuum_batch,
    gamma_continuum_nh,
    gamma_hermitian,
    gamma_integrand_hermitian,
    gamma_integrand_nh,
    spectral_density,
)
from ptbath.core import Coupling, dephasing_kernel, thermal_coth, xi_non_hermitian

from riemann_oracle import phase_rows, riemann_gamma_hermitian, riemann_gamma_nh

FIG_SETTINGS = dict(amplitude=1.0, cutoff=0.1, temperature=300.0)

# midpoint-rule oracle, 1e7 points over [0, 60*cutoff], Richardson-stable
# to ~2e-12 relative (checked by doubling to 2e7 points)
RIEMANN_NH_TAU2 = 369.42515216568825      # tau=2, theta=pi/2, t=2
RIEMANN_HERMITIAN_T20 = 33829.88368261289  # t=20


def at_phase(w, spec, t):
    """The integrand at spec.theta, from gamma_integrand_nh's terms."""
    return phase_rows(w, spec, t, [spec.theta])[0]


class TestKronrodRule:
    def test_gauss_subset_is_gauss_legendre_15(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        gauss = _WEIGHTS[:, 1] != 0.0
        assert np.count_nonzero(gauss) == 15
        assert np.array_equal(np.flatnonzero(gauss), np.arange(1, 31, 2))
        assert np.max(np.abs(_NODES[gauss] - nodes)) <= 1e-15
        assert np.max(np.abs(_WEIGHTS[gauss, 1] - weights)) <= 1e-15

    @pytest.mark.parametrize("column, degree", [(0, 46), (1, 29)])
    def test_polynomial_exactness(self, column, degree):
        # K31 is exact through degree 3*15+1 = 46, G15 through 2*15-1 = 29
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert _WEIGHTS[:, column] @ _NODES**k == pytest.approx(exact, rel=1e-14, abs=1e-15)
        # the first even degree beyond, as the Legendre polynomial P_k, whose
        # integral is 0: the monomial x^48 is too flat for a float to show
        # K31's error, which is 5e-17
        k = degree + 1 if degree % 2 else degree + 2
        p_k = np.polynomial.legendre.legval(_NODES, [0.0] * k + [1.0])
        assert abs(_WEIGHTS[:, column] @ p_k) > 1e-3

    def test_weights_sum_to_two(self):
        assert _WEIGHTS.sum(axis=0) == pytest.approx([2.0, 2.0], rel=1e-15)


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
        assert np.all(at_phase(w, spec, 0.0) == 0.0)

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
            val = at_phase(w, spec, t)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_tau_zero_reduces_to_hermitian_integrand(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = rng.uniform(1e-3, 2.0)
            A, lam, T = rng.uniform(0.1, 2), rng.uniform(0.05, 0.3), 300.0
            t = rng.uniform(0.1, 30.0)
            spec = OhmicSpectrum(A, lam, rng.uniform(0, 2 * math.pi), T, 0.0)
            assert at_phase(w, spec, t) == pytest.approx(
                gamma_integrand_hermitian(w, A, lam, T, t), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(22)
        spec = OhmicSpectrum(1.0, 0.1, 1.1, 300.0, 2.5)
        w = rng.uniform(1e-8, 6.0, size=5000)
        assert np.all(at_phase(w, spec, 17.3) >= 0.0)

    def test_small_frequency_limit_is_finite_and_smooth(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.7, 300.0, 1.0)
        t = 5.0
        below = at_phase(0.99e-7, spec, t)
        above = at_phase(1.01e-7, spec, t)
        assert math.isfinite(below)
        assert below == pytest.approx(above, rel=1e-4)
        # leading order 4 A T t^2 at w -> 0
        assert at_phase(1e-12, spec, t) == pytest.approx(
            4.0 * spec.amplitude * spec.temperature * t * t, rel=1e-4)

    def test_continuous_where_the_limit_used_to_start(self):
        # at 1e-6 * cutoff the leading-order limit is 3.4 % off for these
        # parameters, so the integrand must still be the kernel there
        spec = OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3)
        w = 1e-6 * spec.cutoff
        for t in (1.0, 174.0):
            below = at_phase(np.nextafter(w, 0.0), spec, t)
            assert below == pytest.approx(at_phase(w, spec, t), rel=1e-10)
            below = gamma_integrand_hermitian(np.nextafter(w, 0.0), 1.0, 0.7, 0.05, t)
            assert below == pytest.approx(
                gamma_integrand_hermitian(w, 1.0, 0.7, 0.05, t), rel=1e-10)

    @pytest.mark.parametrize("w", [0.0, 1e-160, math.nan])
    def test_rejects_a_node_whose_square_is_not_normal(self, w):
        # the kernel divides by w^2: w = 0 and a w^2 that underflows are not nodes
        spec = OhmicSpectrum(1.3, 0.2, 0.4, 2.0, 1.5)
        for omega in (w, np.array([0.5, w, 1e-3])):
            with pytest.raises(ValueError, match="w\\^2 is not a normal float"):
                gamma_integrand_nh(omega, spec, 3.0)
            with pytest.raises(ValueError, match="w\\^2 is not a normal float"):
                gamma_integrand_hermitian(omega, 1.3, 0.2, 2.0, 3.0)


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

    def test_hermitian_rejects_nodes_whose_square_underflows(self):
        # at cutoff 1e-170 the nodes (about 2e-173) square to an underflow, and
        # 0.0 used to come back for Gamma = 4 A T t^2 cutoff = 1.2e-167
        with pytest.raises(ValueError, match="w\\^2 is not a normal float"):
            gamma_hermitian(1.0, 1e-170, 300.0, 1.0)
        assert gamma_hermitian(1.0, 1e-100, 300.0, 1.0) == pytest.approx(1.2e-97, rel=1e-12)

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

    def test_tail_truncation_negligible(self, monkeypatch):
        # ending the start grid at 120 x cutoff instead of 60 leaves the
        # result unchanged at the abs_tol scale
        rng = np.random.default_rng(25)
        for _ in range(10):
            spec = OhmicSpectrum(1.0, 0.1, rng.uniform(0, 2 * math.pi), 300.0,
                                 rng.uniform(0, 3))
            t = rng.uniform(0.5, 20.0)
            a = gamma_continuum_nh(spec, t, QuadratureSpec())
            with monkeypatch.context() as m:
                m.setattr(continuum, "_OMEGA_MAX_CUTOFFS", 120.0)
                b = gamma_continuum_nh(spec, t, QuadratureSpec())
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_convergence_failure_raises(self):
        spec = OhmicSpectrum(theta=0.3, tau=2.0, **FIG_SETTINGS)
        with pytest.raises(QuadratureError):
            gamma_continuum_nh(spec, 20.0,
                               QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300,
                                              max_subdivisions=10))

    def test_bisection_exhausts_its_budget(self):
        # the start grid (40 panels for tau=2, t=20) fits the budget, so
        # the failure comes from bisection, not from the start-grid bound
        spec = OhmicSpectrum(theta=0.3, tau=2.0, **FIG_SETTINGS)
        with pytest.raises(QuadratureError, match="did not converge within 400 subdivisions"):
            gamma_continuum_nh(spec, 20.0,
                               QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300,
                                              max_subdivisions=400))

    def test_start_grid_over_budget_raises_before_allocating(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the start grid was built")

        monkeypatch.setattr(continuum, "_initial_edges", no_grid)
        spec = OhmicSpectrum(1.0, 0.1, tau=20.0)
        # about 1.9e10 panels at the default budget of 2e6
        with pytest.raises(QuadratureError, match=r"start grid needs 191\d{8} panels"):
            gamma_continuum_nh(spec, 1e9)
        with pytest.raises(QuadratureError, match="start grid needs 40 panels"):
            gamma_continuum_nh(OhmicSpectrum(theta=0.3, tau=2.0, **FIG_SETTINGS), 20.0,
                               QuadratureSpec(max_subdivisions=39))
        # a width that underflows to 0 is over any budget
        with pytest.raises(QuadratureError, match="start grid needs inf panels"):
            gamma_continuum_nh(spec, 1e308)

    @pytest.mark.parametrize("t", [1.0, 1.5, 20.0, 120.0, 1e5, 3.7e8])
    @pytest.mark.parametrize("tau", [0.0, 1e-5, 2.0, -3.3, 20.0])
    def test_start_panels_are_lobes_of_the_oscillation(self, t, tau):
        # for t >= 1 a start panel spans x = r w t from 4 k pi to 4 (k + 1) pi,
        # four lobes of sin x between its zeros (a cutoff above 2 pi leaves the
        # width uncapped); a cutoff of a quarter of that width caps it at 2 cutoff
        r = math.sqrt(1.0 + 4.0 * tau * tau)
        assert _panel_width(10.0, t, tau) * r * t == pytest.approx(4.0 * math.pi, rel=4e-16)
        cutoff = math.pi / (r * t)
        assert _panel_width(cutoff, t, tau) == 2.0 * cutoff

    def test_default_start_is_accurate_over_a_wide_range(self, monkeypatch):
        # the default (0.5 panels per oscillation: two periods a panel;
        # rel_tol 1e-8) against a 16-per-oscillation start at rel_tol 1e-11;
        # cases whose reference start grid exceeds 2e5 panels (large
        # cutoff * t * |tau|, about 3 % of draws) are redrawn to keep the
        # test's time and memory small
        rng = np.random.default_rng(26)
        ref = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
        cases = 0
        while cases < 30:
            lam = math.exp(rng.uniform(math.log(0.02), 0.0))
            T = float(rng.choice([0.0, 0.05, 1.0, 10.0, 300.0]))
            tau = rng.uniform(-20.0, 20.0)
            t = math.exp(rng.uniform(math.log(0.01), math.log(316.0)))
            rate = t * math.sqrt(1.0 + 4.0 * tau * tau)
            if 60.0 * lam * 16 * rate / (2.0 * math.pi) > 2e5:
                continue
            spec = OhmicSpectrum(1.0, lam, rng.uniform(0.0, 2.0 * math.pi), T, tau)
            nh, hermitian = gamma_continuum_nh(spec, t), gamma_hermitian(1.0, lam, T, t)
            with monkeypatch.context() as m:
                m.setattr(continuum, "_PANELS_PER_OSCILLATION", 16)
                assert nh == pytest.approx(gamma_continuum_nh(spec, t, ref), rel=1e-9)
                assert hermitian == pytest.approx(
                    gamma_hermitian(1.0, lam, T, t, ref), rel=1e-9)
            cases += 1

    @pytest.mark.parametrize("lam, T, tau, t", [
        # t < 1, where the start panel is capped at 2 cutoff
        (1.0, 300.0, 0.5, 0.05),
        (1.0, 0.0, 2.0, 0.5),
        (0.1, 1.0, -3.0, 0.9),
        # T << cutoff
        (1.0, 0.05, 0.0, 3.0),
        (1.0, 0.05, 2.0, 30.0),
        (1.0, 0.05, -7.0, 100.0),
        # tau = 20 at t = 1e5: 1.9e4 start panels, 6.1e5 in the reference
        (1e-3, 1.0, 20.0, 1e5),
    ])
    def test_default_start_is_accurate_where_the_grid_moved(self, monkeypatch, lam, T, tau, t):
        # the default against the 16-per-oscillation start at rel_tol 1e-11,
        # as in test_default_start_is_accurate_over_a_wide_range
        if t < 1.0:
            assert _panel_width(lam, t, tau) == _panel_width(lam, t, 0.0) == 2.0 * lam
        ref = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
        spec = OhmicSpectrum(1.0, lam, 2.0 * math.pi / 3.0, T, tau)
        nh, hermitian = gamma_continuum_nh(spec, t), gamma_hermitian(1.0, lam, T, t)
        with monkeypatch.context() as m:
            m.setattr(continuum, "_PANELS_PER_OSCILLATION", 16)
            assert nh == pytest.approx(gamma_continuum_nh(spec, t, ref), rel=1e-9)
            assert hermitian == pytest.approx(gamma_hermitian(1.0, lam, T, t, ref), rel=1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), t)
        with pytest.raises(ValueError, match="finite"):
            gamma_hermitian(1.0, 0.1, 0.0, t)


def phase_mix(thetas):
    """The engine's weights (1, sin cos, cos^2) of the terms T0, T1, T2, one
    row per phase."""
    return np.array([[1.0, math.sin(th) * math.cos(th), math.cos(th) * math.cos(th)]
                     for th in thetas])


def count_integrand_points(monkeypatch):
    """Route continuum.gamma_integrand_nh through a wrapper that records the
    size of every call; returns the list of sizes."""
    sizes = []
    real = continuum.gamma_integrand_nh

    def counting(w, *args, **kwargs):
        sizes.append(np.size(w))
        return real(w, *args, **kwargs)

    monkeypatch.setattr(continuum, "gamma_integrand_nh", counting)
    return sizes


class TestGroupedThetas:
    def test_grouped_equals_single_bit_for_bit(self, monkeypatch):
        # at rel_tol 1e-13 some phases bisect panels that others accept, so
        # the group's subdivision is the union of different ones
        sizes = count_integrand_points(monkeypatch)
        quad = QuadratureSpec(rel_tol=1e-13)
        spec = OhmicSpectrum(10.0, 0.5, 0.0, 0.0, 2.0)
        thetas = [2.0, 0.3, 1.0, 0.3, 3.0, -5.0]
        grouped = gamma_continuum_batch(spec, [spec.tau], [5.0], thetas, quad)[0]
        grouped_points = sum(sizes)
        single_points = []
        for theta, g in zip(thetas, grouped):
            sizes.clear()
            alone = gamma_continuum_nh(replace(spec, theta=theta), 5.0, quad)
            single_points.append(sum(sizes))
            assert g == alone
        assert len(set(single_points)) > 1
        assert max(single_points) < grouped_points

    def test_grouped_equals_single_over_random_cases(self):
        rng = np.random.default_rng(27)
        for rel_tol in (1e-8, 1e-13):
            quad = QuadratureSpec(rel_tol=rel_tol)
            for _ in range(8):
                spec = OhmicSpectrum(rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.5), 0.0,
                                     float(rng.choice([0.0, 1.0, 300.0])), rng.uniform(-4, 4))
                t = rng.uniform(0.1, 30.0)
                thetas = list(rng.uniform(-7.0, 7.0, size=5))
                thetas += thetas[:2]
                grouped = gamma_continuum_batch(spec, [spec.tau], [t], thetas, quad)[0]
                for theta, g in zip(thetas, grouped):
                    assert g == gamma_continuum_nh(
                        OhmicSpectrum(spec.amplitude, spec.cutoff, theta, spec.temperature,
                                      spec.tau), t, quad)

    def test_result_does_not_depend_on_the_block_size(self, monkeypatch):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 1.0)
        thetas = [0.0, 0.7, 2.1]
        quad = QuadratureSpec(rel_tol=1e-13)
        default = gamma_continuum_batch(spec, [spec.tau], [5.0], thetas, quad)[0]
        for block in (1, 45, 15 * 3 * 7):
            monkeypatch.setattr(continuum, "_BLOCK_VALUES", block)
            again = gamma_continuum_batch(spec, [spec.tau], [5.0], thetas, quad)[0]
            assert np.array_equal(again, default)

    def test_large_groups_are_split(self, monkeypatch):
        # 30 start panels here: four phases per integral at this record bound
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 0.5)
        thetas = [0.1 * i for i in range(10)]
        whole = gamma_continuum_batch(spec, [spec.tau], [2.0], thetas)[0]
        monkeypatch.setattr(continuum, "_RECORD_VALUES", 4 * 30)
        outputs = []
        real = continuum.integrate_adaptive

        def recording(f, lo, hi, quad, panel_width, params, mix, bound=None):
            outputs.append(len(mix))
            return real(f, lo, hi, quad, panel_width, params, mix, bound)

        monkeypatch.setattr(continuum, "integrate_adaptive", recording)
        assert np.array_equal(gamma_continuum_batch(spec, [spec.tau], [2.0], thetas)[0], whole)
        assert outputs == [4, 4, 2]

    def test_integrand_calls_stay_within_the_block(self, monkeypatch):
        sizes = count_integrand_points(monkeypatch)
        spec = OhmicSpectrum(1.0, 0.7, 0.0, 0.05, -19.3)
        thetas = [0.0, 1.0, 4.9]
        gamma_continuum_batch(spec, [spec.tau], [80.0], thetas)[0]
        assert len(sizes) > 1
        assert max(sizes) * len(thetas) <= continuum._BLOCK_VALUES
        sizes.clear()
        gamma_continuum_nh(OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3), 80.0)
        # one phase: three term values per node
        assert len(sizes) > 1 and 3 * max(sizes) <= continuum._BLOCK_VALUES

    def test_zero_time_zero_amplitude_and_no_phases(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 2.0)
        assert np.array_equal(gamma_continuum_batch(spec, [spec.tau], [0.0], [0.1, 0.2])[0],
                              [0.0, 0.0])
        assert np.array_equal(
            gamma_continuum_batch(OhmicSpectrum(0.0, 0.1), [2.0], [5.0], [0.1, 0.2, 0.3])[0],
            [0.0, 0.0, 0.0])
        assert gamma_continuum_batch(spec, [spec.tau], [5.0], [])[0].shape == (0,)

    def test_engine_routes_through_the_module_integrand(self, monkeypatch):
        # every node of a grouped integral goes through the module-level
        # gamma_integrand_nh, once for all phases
        sizes = count_integrand_points(monkeypatch)
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 2.0)
        gamma_continuum_batch(spec, [spec.tau], [2.0], [0.0, 1.0, 2.0])[0]
        grouped = sum(sizes)
        sizes.clear()
        gamma_continuum_nh(spec, 2.0)
        assert grouped == sum(sizes) > 0

    def test_vector_integrand(self):
        quad = QuadratureSpec()

        def f(x):
            return np.stack([np.sin(x), x * x, np.exp(-x)])

        vals = continuum.integrate_adaptive(lambda x, ids: f(x), 0.0, 3.0, quad, [0.5], [None],
                                            np.eye(3))[0]
        np.testing.assert_allclose(vals, [1.0 - math.cos(3.0), 9.0, 1.0 - math.exp(-3.0)],
                                   rtol=1e-13)
        for i, v in enumerate(vals):
            assert v == continuum.integrate_adaptive(lambda x, ids: f(x)[i], 0.0, 3.0, quad,
                                                     [0.5], [None], [[1.0]])[0, 0]

    def test_node_sum_adds_node_after_node_at_any_panel_count(self):
        rng = np.random.default_rng(28)
        terms = rng.standard_normal((2, 15, 9)) * 10.0 ** rng.uniform(-8, 8, size=(2, 15, 9))
        loop = terms[:, 0]
        for j in range(1, 15):
            loop = loop + terms[:, j]
        assert np.array_equal(_node_sum(terms), loop)
        for j in range(9):
            assert np.array_equal(_node_sum(terms[:, :, j:j + 1])[:, 0], loop[:, j])


def record_batches(monkeypatch):
    """Route continuum.integrate_adaptive through a wrapper that records the
    start-panel widths of every call, one per integral; returns the list."""
    batch_widths = []
    real = continuum.integrate_adaptive

    def recording(f, lo, hi, quad, panel_width, *args, **kwargs):
        batch_widths.append(list(np.atleast_1d(panel_width)))
        return real(f, lo, hi, quad, panel_width, *args, **kwargs)

    monkeypatch.setattr(continuum, "integrate_adaptive", recording)
    return batch_widths


def assert_batches_fill_their_caps(cutoff, batch_widths, n_phases):
    """Each batch keeps its start panels within _BLOCK_VALUES // 93 (its
    start grid is one block of three term rows) and its start panels x
    phases within _BLOCK_VALUES, unless it is one integral, and closes only
    where the next integral would pass one of the two."""
    node_cap, value_cap = continuum._BLOCK_VALUES // (3 * _NODES.size), continuum._BLOCK_VALUES
    panels = [[continuum._OMEGA_MAX_CUTOFFS * cutoff / w for w in widths]
              for widths in batch_widths]
    for batch in panels:
        assert len(batch) == 1 or (sum(batch) <= node_cap and sum(batch) * n_phases <= value_cap)
    for batch, following in zip(panels, panels[1:]):
        more = sum(batch) + following[0]
        assert more > node_cap or more * n_phases > value_cap


class TestBatch:
    """gamma_continuum_batch integrates many (tau, t) in one engine pass,
    each value bit for bit the one its integral gives alone."""

    @pytest.mark.parametrize("block", [None, 1, 45])
    def test_batch_equals_single_integrals_bit_for_bit(self, monkeypatch, block):
        rng = np.random.default_rng(31 + (block or 0))
        t_max = 30.0 if block is None else 3.0
        for rel_tol in (1e-8, 1e-13):
            quad = QuadratureSpec(rel_tol=rel_tol)
            spec = OhmicSpectrum(rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.5), 0.0,
                                 float(rng.choice([0.0, 1.0, 300.0])))
            n = 14
            taus = list(rng.uniform(-4.0, 4.0, n))
            times = list(rng.uniform(0.0, t_max, n))
            times[3] = 0.0
            taus[5], times[5] = taus[4], times[4]
            thetas = list(rng.uniform(-7.0, 7.0, 3))
            singles = np.array([[gamma_continuum_nh(replace(spec, theta=th, tau=tau), t, quad)
                                 for th in thetas] for tau, t in zip(taus, times)])
            with monkeypatch.context() as m:
                if block is not None:
                    m.setattr(continuum, "_BLOCK_VALUES", block)
                batch_widths = record_batches(m)
                batch = gamma_continuum_batch(spec, taus, times, thetas, quad)
                assert_batches_fill_their_caps(spec.cutoff, batch_widths, len(thetas))
            counts = [len(widths) for widths in batch_widths]
            assert np.array_equal(batch, singles)
            assert sum(counts) == n
            if block is None:
                # batches of several integrals, closed at the caps
                assert len(counts) < n

    @pytest.mark.parametrize("taus, times, n_phases, sizes", [
        # the start panels close these batches
        ([2.0] * 41, np.linspace(0.0, 80.0, 41), 5, [32, 9]),
        ([2.0] * 41, np.linspace(0.0, 120.0, 41), 1, [26, 11, 4]),
        # the README sweep's 1,840 start panels fit one batch
        (np.linspace(0.0, 4.0, 41), [20.0] * 41, 25, [41]),
        # the start panels x phases close these: at most 272 panels a batch
        ([2.0] * 41, np.linspace(0.0, 20.0, 41), 721, [10, 9, 9, 8, 5]),
    ], ids=["5-phases", "1-phase", "readme-sweep", "721-phases"])
    def test_batches_close_at_the_block(self, taus, times, n_phases, sizes):
        cuts = batches(0.1, taus, times, n_phases)
        # consecutive slices that cover every pair, in order
        assert cuts[0][0].start == 0 and cuts[-1][0].stop == 41
        assert all(a.stop == b.start for (a, _), (b, _) in zip(cuts, cuts[1:]))
        for cut, widths in cuts:
            assert len(widths) == cut.stop - cut.start
        assert [len(widths) for _, widths in cuts] == sizes
        assert_batches_fill_their_caps(0.1, [widths for _, widths in cuts], n_phases)

    def test_an_integral_past_the_cap_runs_alone(self):
        assert [len(w) for _, w in batches(0.1, [20.0, 0.0, 0.0], [120.0, 1.0, 1.0], 1)] == [1, 2]

    def test_start_grid_and_calls_stay_within_one_block(self, monkeypatch):
        sizes = count_integrand_points(monkeypatch)
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0)
        times = np.linspace(0.05, 1.0, 30)
        gamma_continuum_batch(spec, [0.0] * 30, times, [0.0, 1.0])
        # 120 start panels each: the whole batch's start grid is one call
        assert sizes[0] > 15 * 120
        assert max(sizes) * 3 <= continuum._BLOCK_VALUES  # three terms, two phases
        assert len(sizes) < 30

    def test_start_grid_over_budget_names_the_integral(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0)
        quad = QuadratureSpec(max_subdivisions=35)
        # 30 start panels at t = 0.5 and 40 at tau = 2, t = 20
        with pytest.raises(QuadratureError, match="start grid needs 40 panels") as exc:
            gamma_continuum_batch(spec, [0.0, 2.0, 0.0], [0.5, 20.0, 0.7], [0.3, 1.0], quad)
        assert exc.value.params["tau"] == 2.0 and exc.value.params["t"] == 20.0
        assert exc.value.params["thetas"] == [0.3, 1.0]
        assert (exc.value.params["A"], exc.value.params["cutoff"], exc.value.params["temp"]) == (
            spec.amplitude, spec.cutoff, spec.temperature)

    def test_bisection_over_budget_names_the_integral(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0)
        quad = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=400)
        # at t = 0 every panel passes; at tau = 2, t = 20 bisection runs out
        with pytest.raises(QuadratureError, match="did not converge within 400") as exc:
            gamma_continuum_batch(spec, [2.0, 2.0], [0.0, 20.0], [0.3], quad)
        assert exc.value.params["t"] == 20.0 and exc.value.params["thetas"] == [0.3]
        assert (exc.value.params["A"], exc.value.params["cutoff"], exc.value.params["temp"]) == (
            spec.amplitude, spec.cutoff, spec.temperature)

    def test_rejects_non_finite_tau_and_theta(self):
        spec = OhmicSpectrum(1.0, 0.1)
        with pytest.raises(ValueError, match="tau must be finite, got nan"):
            gamma_continuum_batch(spec, [0.0, math.nan], [1.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="theta must be finite, got inf"):
            gamma_continuum_batch(spec, [0.0], [1.0], [0.0, math.inf])
        with pytest.raises(ValueError, match="t must be finite"):
            gamma_continuum_batch(spec, [0.0], [math.inf], [0.0])

    def test_worker_pool_equals_the_serial_array(self, monkeypatch):
        # three batches (26, 11 and 4 integrals) at a pool threshold of 0: two
        # real workers, so that the arguments and results cross processes
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0)
        taus, times, thetas = [2.0] * 41, list(np.linspace(0.0, 120.0, 41)), [0.3, 1.0]
        serial = gamma_continuum_batch(spec, taus, times, thetas)
        workers = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(continuum, "_POOL_PANELS", 0)
        assert np.array_equal(gamma_continuum_batch(spec, taus, times, thetas, jobs=2), serial)
        assert workers == [2]

    def test_rejects_fewer_than_one_job(self):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            gamma_continuum_batch(OhmicSpectrum(1.0, 0.1), [0.0], [1.0], [0.0], jobs=0)

    def test_rejects_a_tau_past_the_kernel_constants_before_integrating(self, monkeypatch):
        # the largest |tau| is checked, as core.DiscreteBath checks its tau
        def never(*args, **kwargs):
            raise AssertionError("an integral ran")

        monkeypatch.setattr(continuum, "integrate_adaptive", never)
        with pytest.raises(ValueError, match=r"tau -5e\+76 \(--tau\)"):
            gamma_continuum_batch(OhmicSpectrum(1.0, 0.1), [0.0, -5e76, 1e76], [1.0] * 3, [0.0])


class TestTermRoute:
    """The engine integrates the three phase-free terms T0, T1, T2 of the
    kernel once per node and forms each phase's K15 and G7 per panel as
    K(T0) + sin cos K(T1) + cos^2 K(T2)."""

    @staticmethod
    def node_level(spec, t, thetas, quad):
        # the same engine on the per-phase rows combined at every node from
        # gamma_integrand_nh's terms, as the production route runs it: at
        # A = 1, with its tail bound
        hi = 60.0 * spec.cutoff
        width = _panel_width(spec.cutoff, t, spec.tau) if t > 0.0 else hi
        rows = continuum.integrate_adaptive(
            lambda w, ids: phase_rows(w, spec, t, thetas), 0.0, hi, quad, [width], [None],
            np.eye(len(thetas)), _tail_bound(spec, thetas, np.array([spec.tau])))[0]
        return np.maximum(rows, 0.0)

    def test_terms_combine_into_the_phase_rows(self):
        thetas = [0.0, 0.4, math.pi / 2, 2 * math.pi / 3, 5.1]
        for temperature, tau in [(0.0, 1.5), (2.0, 1.5), (300.0, 0.0)]:
            spec = OhmicSpectrum(1.3, 0.2, 0.0, temperature, tau)
            w = np.array([[1e-6, 1e-3, 0.2, 0.5], [1.0, 2.0, 7.5, 11.0]])
            terms = gamma_integrand_nh(w, spec, 3.0)
            assert terms.shape == (3, 2, 4)
            # the kernel's combined mode at every node
            j = spectral_density(w, spec.amplitude, spec.cutoff)
            for _, sc, c2 in phase_mix(thetas):
                row = dephasing_kernel(w, j, tau, 3.0, temperature, sc, c2)
                assert np.array_equal(row, terms[0] + sc * terms[1] + c2 * terms[2])
            if tau == 0.0:  # no non-Hermiticity: the phase terms vanish
                assert np.all(terms[1:] == 0.0)

    @pytest.mark.parametrize("n_phases", [1, 3, 721])
    def test_production_agrees_with_the_node_level_rows(self, n_phases):
        rng = np.random.default_rng(40 + n_phases)
        quad = QuadratureSpec()
        cases = [(0.0, 2.0, 5.0), (300.0, 2.0, 5.0), (1.0, 0.0, 7.0), (0.0, 1.3, 0.0)]
        cases += [(float(rng.choice([0.0, 1.0, 300.0])), rng.uniform(-4, 4), rng.uniform(0.1, 20))
                  for _ in range(3 if n_phases < 721 else 1)]
        for temperature, tau, t in cases:
            spec = OhmicSpectrum(1.0, rng.uniform(0.05, 0.5), 0.0, temperature, tau)
            thetas = list(rng.uniform(-7.0, 7.0, n_phases))
            got = gamma_continuum_batch(spec, [spec.tau], [t], thetas, quad)[0]
            ref = self.node_level(spec, t, thetas, quad)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (temperature, tau, t)

    def test_work_does_not_grow_with_the_phases(self, monkeypatch):
        # 3 term values per node for a group of any size, and at most
        # _BLOCK_VALUES node x term values in one integrand call, each call
        # in rows of its own (721 phases take six calls)
        calls, outputs = [], []
        real = continuum.gamma_integrand_nh

        def recording(w, *args, **kwargs):
            values = real(w, *args, **kwargs)
            calls.append((np.size(w), np.size(values)))
            outputs.append(values)
            return values

        monkeypatch.setattr(continuum, "gamma_integrand_nh", recording)
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 4.0)
        for n_phases in (1, 3, 25, 721):
            calls.clear()
            outputs.clear()
            gamma_continuum_batch(spec, [4.0], [20.0], list(np.linspace(0.0, math.pi, n_phases)))
            assert calls
            assert all(values == 3 * nodes for nodes, values in calls)
            assert max(values for _, values in calls) <= continuum._BLOCK_VALUES
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(outputs, 2))

    def test_per_panel_phase_arrays_stay_within_the_block(self, monkeypatch):
        # a block's phase arrays hold panels x phases values: with 721 phases
        # it takes a few panels, at most _BLOCK_VALUES // 31 values, where
        # the 1,500 open panels would fit one block of three terms (2,675
        # start panels here keep the 721 phases in one integral)
        sizes = count_integrand_points(monkeypatch)
        thetas = list(np.linspace(0.0, 2.0 * math.pi, 721))
        gamma_continuum_batch(OhmicSpectrum(1.0, 0.1, 0.0, 300.0), [20.0], [140.0], thetas)
        n = _NODES.size
        assert sum(sizes) // n * len(thetas) > 5 * continuum._BLOCK_VALUES
        assert max(sizes) // n * len(thetas) <= continuum._BLOCK_VALUES // n

    def test_threads_keep_their_own_workspace(self):
        # integrals that run concurrently give the values each gives alone
        from concurrent.futures import ThreadPoolExecutor

        specs = [OhmicSpectrum(1.0, 0.1, 0.0, 300.0, tau) for tau in (0.5, 2.0, 4.0, 7.0)]

        def gammas(spec):
            return gamma_continuum_batch(spec, [spec.tau], [40.0], [0.0, 1.0, 2.0])[0]

        alone = [gammas(spec) for spec in specs]
        with ThreadPoolExecutor(4) as pool:
            for _ in range(3):
                for got, ref in zip(pool.map(gammas, specs, timeout=60), alone):
                    assert np.array_equal(got, ref)

    def test_one_output_integrands_keep_their_sums(self):
        # a one-output integrand (gamma_hermitian, test_vector_integrand) is
        # summed as before the term route: weight times value, node after
        # node, times the half-width; a cubic keeps libm out of the check
        def f(x):
            return x * x * x - 0.3 * x

        for lo, hi in [(0.0, 0.37), (1.25, 1.5), (-2.0, 3.0)]:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes = [float(n) * half + mid for n in _NODES]
            ref = 0.0
            for x, weight in zip(nodes, _WEIGHTS[:, 0]):
                ref += f(x) * float(weight)
            got = continuum.integrate_adaptive(lambda x, ids: f(x), lo, hi, QuadratureSpec(),
                                               [hi - lo], [None], [[1.0]])[0, 0]
            assert got == ref * half

    def test_one_output_blocks_keep_their_node_cap(self, monkeypatch):
        # a one-output integrand's block holds a third of _BLOCK_VALUES
        # nodes, not all of it: 9,550 start panels here, in blocks of 2,114
        sizes = []
        real = continuum.gamma_integrand_hermitian

        def counting(w, *args):
            sizes.append(np.size(w))
            return real(w, *args)

        monkeypatch.setattr(continuum, "gamma_integrand_hermitian", counting)
        gamma_hermitian(0.1, 1.0, 300.0, 2000.0)
        assert max(sizes) == continuum._BLOCK_VALUES // 3 // _NODES.size * _NODES.size

    def test_hermitian_is_one_engine_call(self, monkeypatch):
        # a batch of one integral with one output, which the engine runs
        # without calling itself
        batch_widths = record_batches(monkeypatch)
        g = gamma_hermitian(1.0, 0.1, 300.0, 20.0)
        assert batch_widths == [[_panel_width(0.1, 20.0, 0.0)]]
        assert g == pytest.approx(RIEMANN_HERMITIAN_T20, rel=1e-6)

    def test_mixed_outputs_are_the_row_combinations(self):
        def f(x):
            return np.stack([np.sin(x), x * x, np.exp(-x)])

        mix = np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.0], [0.0, 1.0, -2.0]])
        exact = np.array([1.0 - math.cos(3.0), 9.0, 1.0 - math.exp(-3.0)])
        vals = continuum.integrate_adaptive(lambda x, ids: f(x), 0.0, 3.0, QuadratureSpec(),
                                            [0.5], [None], mix)[0]
        np.testing.assert_allclose(vals, mix @ exact, rtol=1e-13)
        # each output alone, in any group: bit for bit
        for j in range(3):
            alone = continuum.integrate_adaptive(lambda x, ids: f(x), 0.0, 3.0, QuadratureSpec(),
                                                 [0.5], [None], mix[j:j + 1])
            assert alone[0, 0] == vals[j]


class TestTailBound:
    """Start panels that core.dephasing_bound puts below abs_tol/2 are
    accepted as 0 without being evaluated."""

    def test_integrand_never_exceeds_the_bound(self):
        rng = np.random.default_rng(29)
        thetas = list(np.linspace(0.0, 2.0 * math.pi, 13)) + list(rng.uniform(-7, 7, 4))
        for _ in range(40):
            lam = math.exp(rng.uniform(math.log(0.02), 0.0))
            spec = OhmicSpectrum(1.0, lam, 0.0, float(rng.choice([0.0, 0.05, 1.0, 300.0])),
                                 rng.uniform(-20.0, 20.0))
            t = math.exp(rng.uniform(math.log(0.01), math.log(300.0)))
            w = np.concatenate([np.geomspace(1e-8, lam, 2000),
                                np.linspace(lam, 60.0 * lam, 20000)])
            ids = np.zeros(w.size, dtype=int)
            bound = _tail_bound(spec, thetas, np.array([spec.tau]))(w, ids)
            values = phase_rows(w, spec, t, thetas)
            assert np.all(values <= bound * (1.0 + 1e-13))
            # falling in w, so a panel's left edge bounds the whole panel
            assert np.all(np.diff(bound, axis=1) <= 0.0)

    @pytest.mark.parametrize("temperature", [0.0, 300.0])
    def test_zero_frequency_panel_stays_open(self, temperature):
        spec = OhmicSpectrum(1.0, 0.1, 0.5, temperature, 2.0)
        bound = _tail_bound(spec, [0.5], np.array([spec.tau]))
        assert not bound(np.array([0.0]), np.array([0]))[0, 0] <= 1e300
        # the first panel holds most of Gamma at t = 120: were it accepted as
        # 0, the result would be off by far more than abs_tol * 60 cutoff / 2
        loose = QuadratureSpec(abs_tol=1e-3)
        ref = continuum.integrate_adaptive(lambda w, ids: at_phase(w, spec, 120.0),
                                           0.0, 6.0, QuadratureSpec(rel_tol=1e-11),
                                           [_panel_width(0.1, 120.0, 2.0)], [None], [[1.0]])[0, 0]
        assert abs(gamma_continuum_nh(spec, 120.0, loose) - ref) <= 1e-3 * 6.0 / 2.0

    def test_nan_bound_keeps_the_panel_open(self):
        calls = []

        def f(x, ids):
            calls.append(x.copy())
            return np.ones_like(x)

        def bound(a, ids):
            return np.where(a == 0.0, np.nan, 0.0)

        quad = QuadratureSpec()
        bounded = continuum.integrate_adaptive(f, 0.0, 1.0, quad, [0.25], [None], [[1.0]], bound)
        assert len(calls) == 1 and calls[0].max() < 0.25
        # the first panel's K31 of 1, as the engine forms it without a bound
        assert bounded == continuum.integrate_adaptive(f, 0.0, 0.25, quad, [0.25], [None],
                                                       [[1.0]])

    def test_all_panels_under_the_bound(self):
        def f(x, ids):
            raise AssertionError("a panel under the bound was evaluated")

        quad = QuadratureSpec()
        assert continuum.integrate_adaptive(f, 0.0, 1.0, quad, [0.25], [None], [[1.0]],
                                            lambda a, ids: np.zeros_like(a)) == 0.0
        vals = continuum.integrate_adaptive(f, 0.0, 1.0, quad, [0.25], [None], np.eye(2),
                                            lambda a, ids: np.zeros((2, a.size)))
        assert np.array_equal(vals, [[0.0, 0.0]])

    def test_grouped_equals_single_where_the_cut_offs_differ(self, monkeypatch):
        sizes = count_integrand_points(monkeypatch)
        thetas = [0.0, math.pi / 2, 2 * math.pi / 3]
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 20.0)
        grouped = gamma_continuum_batch(spec, [spec.tau], [120.0], thetas)[0]
        single_points = []
        for theta, g in zip(thetas, grouped):
            sizes.clear()
            assert g == gamma_continuum_nh(replace(spec, theta=theta), 120.0)
            single_points.append(sum(sizes))
        assert len(set(single_points)) == 3

    def test_bound_moves_the_result_by_at_most_the_skipped_tolerance(self):
        rng = np.random.default_rng(30)
        for _ in range(12):
            spec = OhmicSpectrum(1.0, math.exp(rng.uniform(math.log(0.02), 0.0)),
                                 rng.uniform(0.0, 2.0 * math.pi),
                                 float(rng.choice([0.0, 1.0, 300.0])), rng.uniform(-4.0, 4.0))
            t = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
            quad = QuadratureSpec(abs_tol=10.0 ** rng.uniform(-14, -8))
            hi, width = 60.0 * spec.cutoff, _panel_width(spec.cutoff, t, spec.tau)
            bound = _tail_bound(spec, [spec.theta], np.array([spec.tau]))
            left = continuum._initial_edges(0.0, hi, width)[:-1]
            skipped = left[bound(left, np.zeros(left.size, dtype=int))[0] <= quad.abs_tol / 2.0]
            assert skipped.size
            cut = skipped.min()

            def f(w, ids):  # the engine's form: three terms per node, mixed per panel
                return gamma_integrand_nh(w, spec, t)

            mix = phase_mix([spec.theta])
            with_bound = continuum.integrate_adaptive(f, 0.0, hi, quad, [width], [None], mix,
                                                      bound)[0, 0]
            without = continuum.integrate_adaptive(f, 0.0, hi, quad, [width], [None], mix)[0, 0]
            assert gamma_continuum_nh(spec, t, quad) == max(with_bound, 0.0)
            assert abs(with_bound - without) <= (quad.abs_tol * (hi - cut) / 2.0
                                                 + 8 * np.spacing(without))

    def test_no_panel_under_the_bound_changes_nothing(self):
        quad = QuadratureSpec(abs_tol=1e-300)
        for spec, t in [(OhmicSpectrum(1.0, 0.1, 0.4, 300.0, 2.0), 20.0),
                        (OhmicSpectrum(1.0, 0.3, 2.0, 0.0, -1.0), 3.0)]:
            width = _panel_width(spec.cutoff, t, spec.tau)
            plain = continuum.integrate_adaptive(
                lambda w, ids: gamma_integrand_nh(w, spec, t), 0.0, 60.0 * spec.cutoff,
                quad, [width], [None], phase_mix([spec.theta]))[0, 0]
            assert gamma_continuum_nh(spec, t, quad) == plain

    def test_large_t_integral_skips_more_than_half(self, monkeypatch):
        # fig4's tau = 20, t = 120 point: 275,070 values on the full start grid
        sizes = count_integrand_points(monkeypatch)
        gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, math.pi / 2, 300.0, 20.0), 120.0)
        assert 0 < sum(sizes) <= 275_070 // 2

    def test_large_t_integral_on_lobes_skips_three_quarters(self, monkeypatch):
        # the same point on the default start panels (four lobes of sin(r w t)
        # each): at most a quarter of the 275,070 values of the four-per-oscillation grid
        sizes = count_integrand_points(monkeypatch)
        gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, math.pi / 2, 300.0, 20.0), 120.0)
        assert 0 < sum(sizes) <= 275_070 // 4


class TestAmplitude:
    def test_linear_in_amplitude(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.3, 300.0, 2.0)
        unit = gamma_continuum_nh(spec, 20.0)
        for amp in (1e-6, 0.1, 7.0, 1e299, 1e300):
            g = gamma_continuum_nh(replace(spec, amplitude=amp), 20.0)
            assert g == pytest.approx(amp * unit, rel=1e-12)
        grouped = gamma_continuum_batch(replace(spec, amplitude=1e300), [spec.tau], [20.0],
                                        [0.3, 1.0])[0]
        assert grouped[0] == pytest.approx(1e300 * unit, rel=1e-12)

    def test_empty_batch(self):
        spec = OhmicSpectrum(1.0, 1e-300, 0.0, 300.0)  # no integral, so nothing to reject
        assert gamma_continuum_batch(spec, [], [], [0.0]).shape == (0, 1)

    def test_overflowing_gamma_is_a_value_error(self):
        spec = OhmicSpectrum(1e305, 0.1, 0.3, 300.0, 2.0)
        with pytest.raises(ValueError, match="amplitude"):
            gamma_continuum_nh(spec, 20.0)
        with pytest.raises(ValueError, match="amplitude"):
            gamma_continuum_batch(spec, [spec.tau], [20.0], [0.3, 1.0])[0]


class TestQuadratureSpec:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)

    @pytest.mark.parametrize("count", [0, -5])
    def test_rejects_a_budget_below_one(self, count):
        # a budget of 0 or less used to fail only at the start grid, as exit 3
        with pytest.raises(ValueError, match="max_subdivisions must be >= 1"):
            QuadratureSpec(max_subdivisions=count)

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

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_quadrature_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: math.nan})
        with pytest.raises(ValueError, match=field):
            QuadratureSpec(**{field: math.inf})
