import math
import warnings

import numpy as np
import pytest

from ptbath.core import (
    BathMode,
    Coupling,
    DiscreteBath,
    big_omega,
    coth,
    density_matrix,
    dephasing_kernel,
    gamma_discrete,
    gamma_discrete_amplitude,
    load_bath_csv,
    thermal_coth,
    xi_hermitian,
    xi_non_hermitian,
)


def random_bath(rng, n_modes=3):
    modes = tuple(
        BathMode(rng.uniform(0.2, 3.0), Coupling(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi)))
        for _ in range(n_modes)
    )
    return DiscreteBath(modes, temperature=float(rng.choice([0.0, 0.5, 5.0, 300.0])),
                        tau=rng.uniform(-3.0, 3.0))


class TestTypes:
    def test_coupling_polar_is_source_of_truth(self):
        g = Coupling(0.3, math.pi / 3)
        assert g.real == pytest.approx(0.15)
        assert g.imag == pytest.approx(0.3 * math.sin(math.pi / 3))
        assert g.as_complex == pytest.approx(complex(g.real, g.imag))

    def test_coupling_phase_wraps(self):
        assert Coupling(1.0, 2 * math.pi + 0.25).phase == pytest.approx(0.25)

    def test_coupling_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            Coupling(-0.1, 0.0)

    def test_mode_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            BathMode(0.0, Coupling(1.0))

    @pytest.mark.parametrize("omega, g_abs", [(1e-170, 1.0), (1e-160, 0.0)])
    def test_mode_rejects_omega_whose_square_is_not_normal(self, omega, g_abs):
        # omega^2 underflows to 0 or a subnormal, which would make Gamma nan
        with pytest.raises(ValueError, match="omega must be >= 1.49e-154"):
            BathMode(omega, Coupling(g_abs, 0.5))

    @pytest.mark.parametrize("omega, g_abs", [(0.5, 1e200), (1e-150, 1e10)])
    def test_mode_rejects_overflowing_weight(self, omega, g_abs):
        # |g|^2 = 1e400 raises OverflowError; |g|^2/omega^2 = 1e320 would make Gamma nan
        with pytest.raises(ValueError, match="g_abs"):
            BathMode(omega, Coupling(g_abs, 0.5))

    def test_thermal_factor_at_the_edge_of_the_range(self):
        # |g|^2 coth(omega/2T)/omega^2 ~ 2T/omega^3 reaches the float range
        # at omega ~ 1.4946e-102 for T = 300
        inside = DiscreteBath((BathMode(1.5e-102, Coupling(1.0, 0.5)),), temperature=300.0)
        assert gamma_discrete(inside, 1.0) == pytest.approx(
            gamma_discrete_amplitude(inside, 1.0), rel=1e-12)
        with pytest.raises(ValueError, match="omega 1.49e-102 at --temp 300"):
            DiscreteBath((BathMode(1.49e-102, Coupling(1.0, 0.5)),), temperature=300.0)
        assert DiscreteBath((BathMode(1.49e-102, Coupling(1.0, 0.5)),)).temperature == 0.0

    def test_intermediate_overflow_in_the_kernel(self):
        # |g|^2/omega^2 = 1e306 times r^2 = 4e4 overflows in dephasing_kernel;
        # that mode is evaluated again at a smaller weight, the other one is not
        big, small = BathMode(1.0, Coupling(1e153, 0.5)), BathMode(2.0, Coupling(0.3, 1.0))
        for modes in ((big,), (big, small)):
            bath = DiscreteBath(modes, tau=100.0)
            assert gamma_discrete(bath, 1.5) == pytest.approx(
                gamma_discrete_amplitude(bath, 1.5), rel=1e-14)
        assert gamma_discrete(DiscreteBath((big,), tau=100.0), 1.5) == pytest.approx(1.5888e306,
                                                                                       rel=1e-4)

    def test_overflowing_gamma_is_a_value_error(self):
        bath = DiscreteBath((BathMode(1.0, Coupling(6e153, 0.0)),), tau=1.0)
        assert gamma_discrete(bath, 2.0) == pytest.approx(1.2392584803e308, rel=1e-9)
        with pytest.raises(ValueError, match=r"Gamma\(1\) overflow"):
            gamma_discrete(bath, 1.0)
        # two finite kernels whose sum is beyond a float
        twice = DiscreteBath((BathMode(1.0, Coupling(6e153, 0.0)),) * 2, tau=1.0)
        with pytest.raises(ValueError, match="overflow"):
            gamma_discrete(twice, 2.0)

    def test_mode_at_the_edge_of_the_range_gives_a_finite_gamma(self):
        bath = DiscreteBath((BathMode(1.5e-154, Coupling(1e-10, 0.5)),
                             BathMode(1e150, Coupling(1e150, 0.5))), tau=0.5)
        assert math.isfinite(gamma_discrete(bath, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_mode_and_coupling_reject_non_finite(self, value):
        # nan passes `omega <= 0` and `magnitude < 0`, and inf % 2 pi is nan
        with pytest.raises(ValueError, match=f"omega must be finite, got {value}"):
            BathMode(value, Coupling(1.0))
        with pytest.raises(ValueError, match=f"magnitude must be finite, got {value}"):
            Coupling(value, 0.0)
        with pytest.raises(ValueError, match=f"phase must be finite, got {value}"):
            Coupling(1.0, value)

    def test_bath_rejects_empty_modes(self):
        with pytest.raises(ValueError):
            DiscreteBath((), temperature=1.0)

    def test_bath_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            DiscreteBath((BathMode(1.0, Coupling(1.0)),), temperature=-1.0)

    @pytest.mark.parametrize("field", ["temperature", "tau"])
    def test_bath_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=field):
            DiscreteBath((BathMode(1.0, Coupling(1.0)),), **{field: math.nan})

    def test_bath_rejects_a_tau_past_the_kernel_constants(self):
        # 32 tau^2 (1 + 2 tau^2) overflows just above |tau| = 4e76 and r^4 at
        # 5.8e76; unchecked, Gamma was nan or a false coupling overflow
        mode = (BathMode(0.5, Coupling(0.1, 0.3)),)
        for tau in (4.1e76, -4.5e76, 6e76, 1e160):
            with pytest.raises(ValueError, match=r"\(--tau\)"):
                DiscreteBath(mode, tau=tau)
        # inside, down to a tau whose tau^2 constants are subnormal
        for tau in (1e-160, 1e50, -4e76):
            bath = DiscreteBath(mode, tau=tau)
            assert gamma_discrete(bath, 1.0) == pytest.approx(
                gamma_discrete_amplitude(bath, 1.0), rel=1e-14)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_gamma_rejects_non_finite_time(self, t):
        bath = DiscreteBath((BathMode(1.0, Coupling(1.0)),))
        for gamma in (gamma_discrete, gamma_discrete_amplitude):
            with pytest.raises(ValueError, match="finite"):
                gamma(bath, t)

    def test_density_matrix_validation(self):
        density_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]), 2, eig_tol=1e-12)
        with pytest.raises(ValueError):  # not Hermitian
            density_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]), 2, eig_tol=1e-12)
        with pytest.raises(ValueError):  # trace != 1
            density_matrix(np.array([[0.9, 0.0], [0.0, 0.9]]), 2, eig_tol=1e-12)
        with pytest.raises(ValueError):  # negative eigenvalue
            density_matrix(np.array([[1.2, 0.0], [0.0, -0.2]]), 2, eig_tol=1e-12)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_density_matrix_rejects_non_finite_entries(self, entry):
        # Hermiticity, trace and eigenvalue tests all compare False on nan
        m = np.full((2, 2), 0.5, dtype=complex)
        m[0, 1] = m[1, 0] = entry
        with pytest.raises(ValueError, match="non-finite"):
            density_matrix(m, 2, eig_tol=1e-12)


class TestBigOmega:
    def test_tau_zero_identity(self):
        assert big_omega(1.0, 0.0) == 1.0

    def test_values(self):
        assert big_omega(1.0, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert big_omega(2.0, 1.0) == pytest.approx(2.0 * math.sqrt(5.0), abs=1e-14)

    def test_never_below_omega(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w, tau = rng.uniform(0.1, 5.0), rng.uniform(-3, 3)
            assert big_omega(w, tau) >= w

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            big_omega(-1.0, 0.5)


class TestXi:
    def test_hermitian_at_zero_time(self):
        assert xi_hermitian(Coupling(1.0), 1.0, 0.0) == 0

    def test_hermitian_half_period(self):
        assert xi_hermitian(Coupling(1.0), 1.0, math.pi) == pytest.approx(2.0 + 0j, abs=1e-14)

    def test_non_hermitian_vanishes_at_zero_time(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = Coupling(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
            assert xi_non_hermitian(g, rng.uniform(0.1, 5), rng.uniform(-3, 3), 0.0) == 0

    def test_non_hermitian_imaginary_coupling(self):
        # Omega = sqrt(2), Omega*t = pi: the sin(Omega t) term dies
        xi = xi_non_hermitian(Coupling(1.0, math.pi / 2), 1.0, 0.5, math.pi / math.sqrt(2))
        assert xi == pytest.approx(1j, abs=1e-12)

    def test_non_hermitian_real_coupling(self):
        xi = xi_non_hermitian(Coupling(1.0, 0.0), 1.0, 0.5, math.pi / math.sqrt(2))
        assert xi == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_reduces_to_hermitian_at_tau_zero(self):
        g = Coupling(0.3, math.pi / 3)
        a = xi_non_hermitian(g, 2.0, 0.0, 1.7)
        b = xi_hermitian(g, 2.0, 1.7)
        assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_reduction_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            g = Coupling(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
            w, t = rng.uniform(0.1, 5), rng.uniform(0, 30)
            a = xi_non_hermitian(g, w, 0.0, t)
            b = xi_hermitian(g, w, t)
            assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            xi_non_hermitian(Coupling(1.0), -1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            xi_hermitian(Coupling(1.0), 1.0, -0.5)


class TestGammaDiscrete:
    def test_zero_time(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert gamma_discrete(random_bath(rng), 0.0) == 0.0

    def test_single_mode_non_hermitian_value(self):
        bath = DiscreteBath((BathMode(1.0, Coupling(1.0, math.pi / 2)),), 0.0, 0.5)
        assert gamma_discrete(bath, math.pi / math.sqrt(2)) == pytest.approx(2.0, abs=1e-12)

    def test_single_mode_hermitian_value(self):
        bath = DiscreteBath((BathMode(1.0, Coupling(1.0)),), 0.0, 0.0)
        assert gamma_discrete(bath, math.pi) == pytest.approx(8.0, abs=1e-12)

    def test_matches_amplitude_route(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            bath = random_bath(rng)
            t = rng.uniform(0, 30)
            a = gamma_discrete(bath, t)
            b = gamma_discrete_amplitude(bath, t)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert gamma_discrete(random_bath(rng), rng.uniform(0, 50)) >= 0.0

    def test_zero_time_single_draw(self):
        rng = np.random.default_rng(9)
        assert gamma_discrete(random_bath(rng), 0.0) == 0.0

    def test_exponent_two_at_the_known_point(self):
        bath = DiscreteBath((BathMode(1.0, Coupling(1.0, math.pi / 2)),), 0.0, 0.5)
        t = math.pi / math.sqrt(2)
        assert gamma_discrete(bath, t) == pytest.approx(2.0, rel=1e-12)

    def test_zero_coupling_never_decoheres(self):
        bath = DiscreteBath((BathMode(1.0, Coupling(0.0)),), 10.0, 1.5)
        for t in (0.0, 1.0, 42.0):
            assert gamma_discrete(bath, t) == 0.0

    def test_nonnegative_at_random_times(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            assert gamma_discrete(random_bath(rng), rng.uniform(0, 50)) >= 0.0

    def test_even_in_tau(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            bath = random_bath(rng)
            flipped = DiscreteBath(bath.modes, bath.temperature, -bath.tau)
            t = rng.uniform(0, 30)
            assert gamma_discrete(bath, t) == pytest.approx(
                gamma_discrete(flipped, t), rel=1e-12, abs=1e-14)

    def test_single_mode_periodicity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            bath = random_bath(rng, n_modes=1)
            period = 2 * math.pi / big_omega(bath.modes[0].omega, bath.tau)
            t = rng.uniform(0, 20)
            assert gamma_discrete(bath, t + period) == pytest.approx(
                gamma_discrete(bath, t), rel=1e-12, abs=1e-10)


class TestDephasingTerms:
    def test_phase_combination_is_the_amplitude_route(self):
        # at every phase, the kernel at its coefficients is 2 |g|^2 |xi|^2 coth
        rng = np.random.default_rng(30)
        for _ in range(200):
            w = rng.uniform(0.05, 3.0)
            weight = rng.uniform(0.1, 2.0)
            tau = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.0, 30.0)
            temp = float(rng.choice([0.0, 0.5, 300.0]))
            for phase in rng.uniform(0.0, 2 * math.pi, size=5):
                xi = xi_non_hermitian(Coupling(math.sqrt(weight), phase), w, tau, t)
                ref = 2.0 * abs(xi) ** 2 * thermal_coth(w, temp)
                val = dephasing_kernel(np.array([w]), weight, tau, t, temp, *coefficients(phase))
                assert val[0] == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("temp", [0.0, 0.5])
    def test_continuum_call_layout(self, temp):
        # the continuum's call: nodes (15, m), a tau and a t per panel (m,)
        # and one coefficient pair per phase along a leading axis (k, 1, 1)
        rng = np.random.default_rng(32)
        m = 40
        w = rng.uniform(0.05, 3.0, size=(15, m))
        weight = rng.uniform(0.1, 2.0, size=(15, m))
        tau, t = rng.uniform(-3.0, 3.0, size=m), rng.uniform(0.0, 30.0, size=m)
        phases = (0.0, 0.4, math.pi / 2, 2 * math.pi / 3, 5.1)
        sc, c2 = (np.array(c).reshape(-1, 1, 1) for c in zip(*map(coefficients, phases)))
        rows = dephasing_kernel(w, weight, tau, t, temp, sc, c2)
        assert rows.shape == (len(phases), 15, m)
        for row, phase in zip(rows, phases):
            alone = dephasing_kernel(w, weight, tau, t, temp, *coefficients(phase))
            assert row.tobytes() == alone.tobytes()
        # without non-Hermiticity the phase terms vanish: no coefficient matters
        rows = dephasing_kernel(w, weight, np.zeros(m), t, temp, sc, c2)
        ref = dephasing_kernel(w, weight, np.zeros(m), t, temp, 0.0, 0.0)
        for row in rows:
            assert row.tobytes() == ref.tobytes()


def coefficients(phase):
    """The kernel's phase coefficients (sin cos, cos^2) of one phase."""
    return math.sin(phase) * math.cos(phase), math.cos(phase) ** 2


def amplitude_kernel(w, weight, phase, tau, t, temp):
    """weight * 2 |xi|^2 coth(w/2T) by the amplitude route (libm sines)."""
    xi = xi_non_hermitian(Coupling(1.0, phase), w, tau, t)
    return weight * 2.0 * abs(xi) ** 2 * thermal_coth(w, temp)


def ulp_neighbours(w, n=3):
    """w and its n nearest floats on either side."""
    out = [w]
    for direction in (-math.inf, math.inf):
        v = w
        for _ in range(n):
            v = math.nextafter(v, direction)
            out.append(v)
    return out


@pytest.mark.filterwarnings("error")
class TestTangentKernel:
    """dephasing_kernel takes both sines from tan(x/4); the amplitude route
    (math.sin) checks it where that tangent or its formulas are delicate."""

    PHASES = (0.0, 0.4, math.pi / 2, 2 * math.pi / 3, 5.1)

    def check(self, ws, tau, t, temp):
        ws = np.asarray(ws, dtype=float)
        weight = np.linspace(0.5, 1.5, ws.size)
        for phase in self.PHASES:
            got = dephasing_kernel(ws, weight, tau, t, temp, *coefficients(phase))
            for w, wt, g in zip(ws, weight, got):
                ref = amplitude_kernel(float(w), float(wt), phase, tau, t, temp)
                assert g == pytest.approx(ref, rel=1e-12, abs=1e-300), (w, phase)

    @pytest.mark.parametrize("tau", [0.0, 1.3, -4.0])
    def test_large_arguments(self, tau):
        # x = w r t from 1e2 to 1e6
        t = 1000.0
        r = math.sqrt(1.0 + 4.0 * tau * tau)
        x = np.geomspace(1e2, 1e6, 400)
        self.check(x / (r * t), tau, t, 0.5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 101, 102, 103, 104, 318309, 318310, 318311,
                                   318312])
    def test_near_poles_and_zeros(self, m):
        # x = m pi: x/4 is a pole of the tangent for m = 2 mod 4 and a zero
        # for m = 0 mod 4 (both zeros of sin(x/2)); cos(x/2) = 0 for odd m
        tau, t = 0.7, 3.0
        r = math.sqrt(1.0 + 4.0 * tau * tau)
        self.check(ulp_neighbours(m * math.pi / (r * t)), tau, t, 2.0)

    @pytest.mark.parametrize("temp, lo, hi", [
        (0.0, 0.05, 3.0),
        (1e-300, 0.05, 3.0),  # w/T overflows to inf: coth is 1
        (0.01, 7.0, 7.2),  # w/T from 700 to 720: expm1 overflows above 709.78
        (1e8, 0.05, 3.0),
        (1e12, 1e-6, 1e-3),
    ])
    def test_temperatures(self, temp, lo, hi):
        self.check(np.linspace(lo, hi, 101), 1.3, 7.0, temp)

    @pytest.mark.parametrize("w", [1.3, np.float64(1.3), np.array(1.3)])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    def test_scalar_w(self, w, temp):
        k = dephasing_kernel(w, 0.7, 1.1, 3.0, temp, *coefficients(0.4))
        ref = dephasing_kernel(np.array([1.3]), 0.7, 1.1, 3.0, temp, *coefficients(0.4))
        assert np.shape(k) == ()
        assert k == pytest.approx(ref[0], rel=1e-15)
        assert k == pytest.approx(amplitude_kernel(1.3, 0.7, 0.4, 1.1, 3.0, temp), rel=1e-12)

    @pytest.mark.parametrize("w_shape, weight_shape, shape", [
        ((), (3,), (3,)),
        ((3,), (), (3,)),
        ((2,), (3, 1), (3, 2)),
    ])
    def test_broadcast_shapes(self, w_shape, weight_shape, shape):
        w = np.full(w_shape, 1.3)
        weight = np.full(weight_shape, 0.7)
        for temp in (0.0, 0.5):
            assert np.shape(dephasing_kernel(w, weight, 1.1, 3.0, temp, 0.2, 0.8)) == shape


class TestCoth:
    def test_matches_mpmath_down_to_tiny_arguments(self):
        # 1/tanh(x) has no cancellation near 0: tanh x ~ x is computed to full precision
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([np.geomspace(1e-300, 1e-4, 1000), np.linspace(1e-4, 30.0, 1000)])
        got = coth(xs)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.coth(mpmath.mpf(x))) for x in xs])
        assert np.max(np.abs(got - ref) / ref) < 5e-16
        assert all(coth(float(x)) == g for x, g in zip(xs[::97], got[::97]))
        assert isinstance(coth(0.5), float)


class TestModesFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "modes.csv"
        path.write_text("omega,g_abs,theta\n1.0,0.5,0.0\n2.5,0.1,1.5707963267948966\n")
        bath = load_bath_csv(path, temperature=2.0, tau=0.3)
        assert len(bath.modes) == 2
        assert bath.modes[1].omega == 2.5
        assert bath.modes[1].coupling.magnitude == 0.1
        assert bath.modes[1].coupling.imag == pytest.approx(0.1, rel=1e-12)
        assert bath.temperature == 2.0 and bath.tau == 0.3

    def test_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,g\n1.0,0.5\n")
        with pytest.raises(ValueError):
            load_bath_csv(path)
