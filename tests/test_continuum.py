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
    gamma_continuum_nh,
    gamma_continuum_thetas,
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


class TestKronrodRule:
    def test_gauss_subset_is_gauss_legendre_7(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        gauss = _WEIGHTS[:, 1] != 0.0
        assert np.count_nonzero(gauss) == 7
        assert np.max(np.abs(_NODES[gauss] - nodes)) <= 1e-15
        assert np.max(np.abs(_WEIGHTS[gauss, 1] - weights)) <= 1e-15

    @pytest.mark.parametrize("column, degree", [(0, 22), (1, 13)])
    def test_polynomial_exactness(self, column, degree):
        # K15 is exact through degree 3*7+1 = 22, G7 through 2*7-1 = 13
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert _WEIGHTS[:, column] @ _NODES**k == pytest.approx(exact, rel=1e-14, abs=1e-15)
        k = degree + 1 if degree % 2 else degree + 2  # first even degree beyond
        assert abs(_WEIGHTS[:, column] @ _NODES**k - 2.0 / (k + 1)) > 1e-12

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

    def test_continuous_where_the_limit_used_to_start(self):
        # at 1e-6 * cutoff the leading-order limit is 3.4 % off for these
        # parameters, so the integrand must still be the kernel there
        spec = OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3)
        w = 1e-6 * spec.cutoff
        for t in (1.0, 174.0):
            below = gamma_integrand_nh(np.nextafter(w, 0.0), spec, t)
            assert below == pytest.approx(gamma_integrand_nh(w, spec, t), rel=1e-10)
            below = gamma_integrand_hermitian(np.nextafter(w, 0.0), 1.0, 0.7, 0.05, t)
            assert below == pytest.approx(
                gamma_integrand_hermitian(w, 1.0, 0.7, 0.05, t), rel=1e-10)

    @pytest.mark.parametrize("temperature", [0.0, 2.0])
    def test_zero_frequency_takes_the_limit(self, temperature):
        spec = OhmicSpectrum(1.3, 0.2, 0.4, temperature, 1.5)
        t = 3.0
        # 2 A t^2 * lim w coth(w/2T): 0 at T = 0, 2T otherwise
        limit = 2.0 * spec.amplitude * t * t * 2.0 * temperature
        w = np.array([0.0, 1e-3])
        val = gamma_integrand_nh(w, spec, t)
        assert val[0] == pytest.approx(limit, rel=1e-15, abs=0.0)
        assert val[1] == pytest.approx(gamma_integrand_nh(1e-3, spec, t), rel=1e-15)
        assert gamma_integrand_hermitian(0.0, 1.3, 0.2, temperature, t) == pytest.approx(
            limit, rel=1e-15, abs=0.0)


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
        # the start grid (315 panels for tau=2, t=20) fits the budget, so
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
        # about 1.5e11 panels at the default budget of 2e6
        with pytest.raises(QuadratureError, match=r"start grid needs 1528\d{8} panels"):
            gamma_continuum_nh(spec, 1e9)
        with pytest.raises(QuadratureError, match="start grid needs 315 panels"):
            gamma_continuum_nh(OhmicSpectrum(theta=0.3, tau=2.0, **FIG_SETTINGS), 20.0,
                               QuadratureSpec(max_subdivisions=314))
        # a width that underflows to 0 is over any budget
        with pytest.raises(QuadratureError, match="start grid needs inf panels"):
            gamma_continuum_nh(spec, 1e308)

    def test_default_start_is_accurate_over_a_wide_range(self, monkeypatch):
        # the default (4 panels per oscillation, rel_tol 1e-8) against a
        # 16-per-oscillation start at rel_tol 1e-11; cases whose reference
        # start grid exceeds 2e5 panels (large cutoff * t * |tau|, about 3 %
        # of draws) are redrawn to keep the test's time and memory small
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

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            gamma_continuum_nh(OhmicSpectrum(1.0, 0.1), t)
        with pytest.raises(ValueError, match="finite"):
            gamma_hermitian(1.0, 0.1, 0.0, t)


def count_integrand_points(monkeypatch):
    """Route continuum.gamma_integrand_nh through a wrapper that records the
    size of every call; returns the list of sizes."""
    sizes = []
    real = continuum.gamma_integrand_nh

    def counting(w, *args):
        sizes.append(np.size(w))
        return real(w, *args)

    monkeypatch.setattr(continuum, "gamma_integrand_nh", counting)
    return sizes


class TestGroupedThetas:
    def test_integrand_rows_equal_single_phase_integrands(self):
        spec = OhmicSpectrum(1.3, 0.2, 0.0, 2.0, 1.5)
        w = np.array([[0.0, 1e-3, 0.5], [1.0, 2.0, 7.5]])
        thetas = [2.0, -0.4, 2.0, 9.1]
        rows = gamma_integrand_nh(w, spec, 3.0, thetas)
        assert rows.shape == (4, 2, 3)
        for theta, row in zip(thetas, rows):
            single = gamma_integrand_nh(w, OhmicSpectrum(1.3, 0.2, theta, 2.0, 1.5), 3.0)
            assert np.array_equal(row, single)
        # the w -> 0 limit is on every row
        assert np.all(rows[:, 0, 0] == 2.0 * 1.3 * 9.0 * 2.0 * 2.0)
        assert gamma_integrand_nh(0.5, spec, 3.0, [0.1, 0.2]).shape == (2,)

    def test_grouped_equals_single_bit_for_bit(self, monkeypatch):
        # at rel_tol 1e-13 some phases bisect panels that others accept, so
        # the group's subdivision is the union of different ones
        sizes = count_integrand_points(monkeypatch)
        quad = QuadratureSpec(rel_tol=1e-13)
        spec = OhmicSpectrum(0.1, 0.1, 0.0, 300.0, 2.0)
        thetas = [2.0, 0.3, 1.0, 0.3, 3.0, -5.0]
        grouped = gamma_continuum_thetas(spec, 20.0, thetas, quad)
        grouped_points = sum(sizes)
        single_points = []
        for theta, g in zip(thetas, grouped):
            sizes.clear()
            alone = gamma_continuum_nh(OhmicSpectrum(0.1, 0.1, theta, 300.0, 2.0), 20.0, quad)
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
                grouped = gamma_continuum_thetas(spec, t, thetas, quad)
                for theta, g in zip(thetas, grouped):
                    assert g == gamma_continuum_nh(
                        OhmicSpectrum(spec.amplitude, spec.cutoff, theta, spec.temperature,
                                      spec.tau), t, quad)

    def test_result_does_not_depend_on_the_block_size(self, monkeypatch):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 1.0)
        thetas = [0.0, 0.7, 2.1]
        quad = QuadratureSpec(rel_tol=1e-13)
        default = gamma_continuum_thetas(spec, 5.0, thetas, quad)
        for block in (1, 45, 15 * 3 * 7):
            monkeypatch.setattr(continuum, "_BLOCK_VALUES", block)
            assert np.array_equal(gamma_continuum_thetas(spec, 5.0, thetas, quad), default)

    def test_large_groups_are_split(self, monkeypatch):
        # 120 start panels here: four phases per integral at this record bound
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 0.5)
        thetas = [0.1 * i for i in range(10)]
        whole = gamma_continuum_thetas(spec, 2.0, thetas)
        monkeypatch.setattr(continuum, "_RECORD_VALUES", 4 * 120)
        outputs = []
        real = continuum.integrate_adaptive

        def recording(*args, **kwargs):
            outputs.append(kwargs["outputs"])
            return real(*args, **kwargs)

        monkeypatch.setattr(continuum, "integrate_adaptive", recording)
        assert np.array_equal(gamma_continuum_thetas(spec, 2.0, thetas), whole)
        assert outputs == [4, 4, 2]

    def test_integrand_calls_stay_within_the_block(self, monkeypatch):
        sizes = count_integrand_points(monkeypatch)
        spec = OhmicSpectrum(1.0, 0.7, 0.0, 0.05, -19.3)
        thetas = [0.0, 1.0, 4.9]
        gamma_continuum_thetas(spec, 40.0, thetas)
        assert len(sizes) > 1
        assert max(sizes) * len(thetas) <= continuum._BLOCK_VALUES
        sizes.clear()
        gamma_continuum_nh(OhmicSpectrum(1.0, 0.7, 4.9, 0.05, -19.3), 40.0)
        assert len(sizes) > 1 and max(sizes) <= continuum._BLOCK_VALUES

    def test_zero_time_zero_amplitude_and_no_phases(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 2.0)
        assert np.array_equal(gamma_continuum_thetas(spec, 0.0, [0.1, 0.2]), [0.0, 0.0])
        assert np.array_equal(
            gamma_continuum_thetas(OhmicSpectrum(0.0, 0.1, tau=2.0), 5.0, [0.1, 0.2, 0.3]),
            [0.0, 0.0, 0.0])
        assert gamma_continuum_thetas(spec, 5.0, []).shape == (0,)

    def test_engine_routes_through_the_module_integrand(self, monkeypatch):
        # every node of a grouped integral goes through the module-level
        # gamma_integrand_nh, once for all phases
        sizes = count_integrand_points(monkeypatch)
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 2.0)
        gamma_continuum_thetas(spec, 2.0, [0.0, 1.0, 2.0])
        grouped = sum(sizes)
        sizes.clear()
        gamma_continuum_nh(spec, 2.0)
        assert grouped == sum(sizes) > 0

    def test_vector_integrand(self):
        quad = QuadratureSpec()

        def f(x):
            return np.stack([np.sin(x), x * x, np.exp(-x)])

        vals = continuum.integrate_adaptive(f, 0.0, 3.0, quad, 0.5, outputs=3)
        np.testing.assert_allclose(vals, [1.0 - math.cos(3.0), 9.0, 1.0 - math.exp(-3.0)],
                                   rtol=1e-13)
        for i, v in enumerate(vals):
            assert v == continuum.integrate_adaptive(lambda x: f(x)[i], 0.0, 3.0, quad, 0.5)

    def test_node_sum_adds_node_after_node_at_any_panel_count(self):
        rng = np.random.default_rng(28)
        terms = rng.standard_normal((2, 15, 9)) * 10.0 ** rng.uniform(-8, 8, size=(2, 15, 9))
        loop = terms[:, 0]
        for j in range(1, 15):
            loop = loop + terms[:, j]
        assert np.array_equal(_node_sum(terms), loop)
        for j in range(9):
            assert np.array_equal(_node_sum(terms[:, :, j:j + 1])[:, 0], loop[:, j])


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
            bound = _tail_bound(spec, thetas)(w)
            values = gamma_integrand_nh(w, spec, t, thetas)
            assert np.all(values <= bound * (1.0 + 1e-13))
            # falling in w, so a panel's left edge bounds the whole panel
            assert np.all(np.diff(bound, axis=1) <= 0.0)

    @pytest.mark.parametrize("temperature", [0.0, 300.0])
    def test_zero_frequency_panel_stays_open(self, temperature):
        spec = OhmicSpectrum(1.0, 0.1, 0.5, temperature, 2.0)
        assert not _tail_bound(spec, [0.5])(np.array([0.0]))[0, 0] <= 1e300
        # the first panel holds most of Gamma at t = 120: were it accepted as
        # 0, the result would be off by far more than abs_tol * 60 cutoff / 2
        loose = QuadratureSpec(abs_tol=1e-3)
        ref = continuum.integrate_adaptive(lambda w: gamma_integrand_nh(w, spec, 120.0),
                                           0.0, 6.0, QuadratureSpec(rel_tol=1e-11),
                                           _panel_width(0.1, 120.0, 2.0))
        assert abs(gamma_continuum_nh(spec, 120.0, loose) - ref) <= 1e-3 * 6.0 / 2.0

    def test_nan_bound_keeps_the_panel_open(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.ones_like(x)

        def bound(a):
            return np.where(a == 0.0, np.nan, 0.0)

        quad = QuadratureSpec()
        assert continuum.integrate_adaptive(f, 0.0, 1.0, quad, 0.25, bound=bound) == 0.25
        assert len(calls) == 1 and calls[0].max() < 0.25

    def test_all_panels_under_the_bound(self):
        def f(x):
            raise AssertionError("a panel under the bound was evaluated")

        quad = QuadratureSpec()
        assert continuum.integrate_adaptive(f, 0.0, 1.0, quad, 0.25,
                                            bound=lambda a: np.zeros_like(a)) == 0.0
        vals = continuum.integrate_adaptive(f, 0.0, 1.0, quad, 0.25, outputs=2,
                                            bound=lambda a: np.zeros((2, a.size)))
        assert np.array_equal(vals, [0.0, 0.0])

    def test_grouped_equals_single_where_the_cut_offs_differ(self, monkeypatch):
        sizes = count_integrand_points(monkeypatch)
        thetas = [0.0, math.pi / 2, 2 * math.pi / 3]
        spec = OhmicSpectrum(1.0, 0.1, 0.0, 300.0, 20.0)
        grouped = gamma_continuum_thetas(spec, 120.0, thetas)
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
            bound = _tail_bound(spec, [spec.theta])
            left = continuum._initial_edges(0.0, hi, width)[:-1]
            skipped = left[bound(left)[0] <= quad.abs_tol / 2.0]
            assert skipped.size
            cut = skipped.min()

            def f(w):
                return gamma_integrand_nh(w, spec, t)

            with_bound = continuum.integrate_adaptive(f, 0.0, hi, quad, width, bound=bound)
            without = continuum.integrate_adaptive(f, 0.0, hi, quad, width)
            assert gamma_continuum_nh(spec, t, quad) == max(with_bound, 0.0)
            assert abs(with_bound - without) <= (quad.abs_tol * (hi - cut) / 2.0
                                                 + 8 * np.spacing(without))

    def test_no_panel_under_the_bound_changes_nothing(self):
        quad = QuadratureSpec(abs_tol=1e-300)
        for spec, t in [(OhmicSpectrum(1.0, 0.1, 0.4, 300.0, 2.0), 20.0),
                        (OhmicSpectrum(1.0, 0.3, 2.0, 0.0, -1.0), 3.0)]:
            width = _panel_width(spec.cutoff, t, spec.tau)
            plain = continuum.integrate_adaptive(lambda w: gamma_integrand_nh(w, spec, t),
                                                 0.0, 60.0 * spec.cutoff, quad, width)
            assert gamma_continuum_nh(spec, t, quad) == plain

    def test_large_t_integral_skips_more_than_half(self, monkeypatch):
        # fig4's tau = 20, t = 120 point: 275,070 values on the full start grid
        sizes = count_integrand_points(monkeypatch)
        gamma_continuum_nh(OhmicSpectrum(1.0, 0.1, math.pi / 2, 300.0, 20.0), 120.0)
        assert sum(sizes) <= 275_070 // 2


class TestAmplitude:
    def test_linear_in_amplitude(self):
        spec = OhmicSpectrum(1.0, 0.1, 0.3, 300.0, 2.0)
        unit = gamma_continuum_nh(spec, 20.0)
        for amp in (1e-6, 0.1, 7.0, 1e299, 1e300):
            g = gamma_continuum_nh(replace(spec, amplitude=amp), 20.0)
            assert g == pytest.approx(amp * unit, rel=1e-12)
        grouped = gamma_continuum_thetas(replace(spec, amplitude=1e300), 20.0, [0.3, 1.0])
        assert grouped[0] == pytest.approx(1e300 * unit, rel=1e-12)

    def test_overflowing_gamma_is_a_value_error(self):
        spec = OhmicSpectrum(1e305, 0.1, 0.3, 300.0, 2.0)
        with pytest.raises(ValueError, match="amplitude"):
            gamma_continuum_nh(spec, 20.0)
        with pytest.raises(ValueError, match="amplitude"):
            gamma_continuum_thetas(spec, 20.0, [0.3, 1.0])


class TestQuadratureSpec:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)

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
