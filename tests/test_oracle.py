import math
import time

import numpy as np
import pytest

from ptbath import oracle
from ptbath.core import BathMode, Coupling, DiscreteBath, QubitSystem, gamma_discrete
from ptbath.oracle import (
    TruncatedMode,
    annihilation,
    bath_hamiltonian_h,
    bath_hamiltonian_nh,
    certify,
    exact_dephasing,
    exact_dephasing_converged,
    metric,
    similarity_residual,
    spectrum_residuals,
    thermal_state,
    thermal_tail_weight,
    unreachable_fock_dim,
)

OMEGA_SHIFTED = math.sqrt(1.36)  # omega=1, tau=0.3


class TestLadder:
    def test_matrix_elements(self):
        a = annihilation(6)
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n), abs=1e-15)
        assert np.count_nonzero(a) == 5

    def test_commutator_on_interior(self):
        a = annihilation(30)
        comm = a @ a.T - a.T @ a
        assert np.allclose(comm[:29, :29], np.eye(30)[:29, :29], atol=1e-13)


class TestBathHamiltonians:
    def test_nh_tau_zero_is_harmonic(self):
        h = bath_hamiltonian_nh(TruncatedMode(1.5, 0.0, 10))
        assert np.allclose(h, np.diag(1.5 * (np.arange(10) + 0.5)), atol=1e-14)

    def test_nh_off_diagonal_elements(self):
        tau, omega = 0.25, 1.3
        h = bath_hamiltonian_nh(TruncatedMode(omega, tau, 10))
        assert h[0, 2] == pytest.approx(tau * omega * math.sqrt(2.0), abs=1e-13)
        assert h[2, 0] == pytest.approx(-tau * omega * math.sqrt(2.0), abs=1e-13)

    def test_nh_spectrum_matches_shifted_ladder(self):
        res, max_imag = spectrum_residuals(TruncatedMode(1.0, 0.3, 60))
        assert max(res) <= 1e-6
        assert max_imag <= 1e-8
        vals = np.sort(np.linalg.eigvals(bath_hamiltonian_nh(TruncatedMode(1.0, 0.3, 60))).real)
        assert vals[0] == pytest.approx(OMEGA_SHIFTED / 2 + 0.3, abs=1e-6)

    def test_h_is_hermitian(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            h = bath_hamiltonian_h(TruncatedMode(1.0, rng.uniform(-0.5, 0.5), 40))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-13

    def test_h_tau_zero_is_harmonic(self):
        h = bath_hamiltonian_h(TruncatedMode(2.0, 0.0, 8))
        assert np.allclose(h, np.diag(2.0 * (np.arange(8) + 0.5)), atol=1e-14)

    def test_h_interior_spectrum(self):
        h = bath_hamiltonian_h(TruncatedMode(1.0, 0.3, 80))
        vals = np.sort(np.linalg.eigvalsh(h))
        target = OMEGA_SHIFTED * (np.arange(5) + 0.5) + 0.3
        assert np.max(np.abs(vals[:5] - target)) <= 1e-6


class TestMetric:
    def test_identity_at_tau_zero(self):
        assert np.allclose(metric(TruncatedMode(1.0, 0.0, 20)), np.eye(20), atol=1e-14)

    def test_positive_definite(self):
        eta = metric(TruncatedMode(1.0, 0.1, 80))
        assert np.max(np.abs(eta - eta.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(eta).min() > 0.0

    def test_inverse_is_actual_inverse(self):
        mode = TruncatedMode(1.0, 0.05, 40)
        prod = metric(mode) @ metric(mode, inverse=True)
        assert np.allclose(prod, np.eye(40), atol=1e-8)

    def test_similarity_residual_small(self):
        assert similarity_residual(TruncatedMode(1.0, 0.1, 80), 20) <= 1e-8

    def test_similarity_residual_zero_at_tau_zero(self):
        assert similarity_residual(TruncatedMode(1.0, 0.0, 80), 20) == 0.0

    def test_similarity_residual_not_growing_with_dim(self):
        # both residuals sit at the roundoff floor for small tau; doubling
        # the truncation must not push the interior block off that floor
        r80 = similarity_residual(TruncatedMode(1.0, 0.1, 80), 20)
        r160 = similarity_residual(TruncatedMode(1.0, 0.1, 160), 20)
        assert r160 <= max(r80, 1e-10)

    def test_rejects_large_interior(self):
        with pytest.raises(ValueError):
            similarity_residual(TruncatedMode(1.0, 0.1, 40), 11)


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        rho = thermal_state(TruncatedMode(1.0, 0.0, 10), 0.0)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=0)

    def test_geometric_population_ratio(self):
        rho = thermal_state(TruncatedMode(1.2, 0.0, 30), 0.8)
        p = np.diag(rho).real
        ratio = p[1:6] / p[:5]
        assert np.allclose(ratio, math.exp(-1.2 / 0.8), atol=1e-12)

    def test_unit_trace(self):
        rho = thermal_state(TruncatedMode(1.0, 0.0, 25), 2.0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-15

    def test_tail_weight(self):
        assert thermal_tail_weight(TruncatedMode(1.0, 0.0, 40), 1.0) == pytest.approx(
            math.exp(-40.0), rel=1e-12)
        assert thermal_tail_weight(TruncatedMode(1.0, 0.0, 40), 0.0) == 0.0

    def test_unreachable_fock_dim(self):
        # doubling 40 within 6400 reaches 5120; the tail needs ln(1e10) T / omega
        assert unreachable_fock_dim(TruncatedMode(1.0, 0.2, 40), 300.0, 6400) == 6908
        assert unreachable_fock_dim(TruncatedMode(2.0, 0.2, 40), 300.0, 3000) == 3454
        assert unreachable_fock_dim(TruncatedMode(1.0, 0.2, 40), 10.0, 6400) is None
        assert unreachable_fock_dim(TruncatedMode(1.0, 0.2, 40), 0.0, 40) is None
        assert unreachable_fock_dim(TruncatedMode(1.0, 0.2, 40), 10.0, 79) == 231


class TestExactDephasing:
    def test_zero_coupling_keeps_full_coherence(self):
        times = np.linspace(0, 10, 11)
        ratios = exact_dephasing(QubitSystem(1.0),
                                 [(TruncatedMode(1.0, 0.2, 30), Coupling(0.0))],
                                 1.0, times)
        assert np.allclose(ratios, 1.0, atol=1e-12)

    def test_matches_closed_form_non_hermitian(self):
        g = Coupling(0.1, math.pi / 2)
        times = np.linspace(0, 20, 41)
        ratios, dim, conv = exact_dephasing_converged(
            QubitSystem(1.0), [(TruncatedMode(1.0, 0.2, 40), g)], 1.0, times)
        assert conv
        bath = DiscreteBath((BathMode(1.0, g),), 1.0, 0.2)
        closed = np.exp(-np.array([gamma_discrete(bath, float(t)) for t in times]))
        assert np.max(np.abs(ratios - closed)) <= 1e-6

    def test_matches_closed_form_hermitian_limit(self):
        g = Coupling(0.1, math.pi / 2)
        times = np.linspace(0, 20, 41)
        ratios, _, conv = exact_dephasing_converged(
            QubitSystem(1.0), [(TruncatedMode(1.0, 0.0, 40), g)], 1.0, times)
        assert conv
        bath = DiscreteBath((BathMode(1.0, g),), 1.0, 0.0)
        closed = np.exp(-np.array([gamma_discrete(bath, float(t)) for t in times]))
        assert np.max(np.abs(ratios - closed)) <= 1e-6

    def test_two_mode_bath(self):
        modes = [(TruncatedMode(1.0, 0.1, 24), Coupling(0.08, 0.4)),
                 (TruncatedMode(1.7, 0.1, 24), Coupling(0.05, 2.0))]
        times = np.linspace(0, 10, 21)
        ratios = exact_dephasing(QubitSystem(1.0), modes, 0.5, times)
        bath = DiscreteBath((BathMode(1.0, Coupling(0.08, 0.4)),
                             BathMode(1.7, Coupling(0.05, 2.0))), 0.5, 0.1)
        closed = np.exp(-np.array([gamma_discrete(bath, float(t)) for t in times]))
        assert np.max(np.abs(ratios - closed)) <= 1e-5

    def test_unit_ratio_at_zero_time(self):
        ratios = exact_dephasing(QubitSystem(1.0),
                                 [(TruncatedMode(1.0, 0.3, 30), Coupling(0.1, 1.0))],
                                 1.0, [0.0])
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)

    def test_budget_overflow_rejected(self):
        with pytest.raises(ValueError):
            exact_dephasing(QubitSystem(1.0),
                            [(TruncatedMode(1.0, 0.1, 100), Coupling(0.1))],
                            1.0, [1.0], dim_budget=50)


class TestCertify:
    def test_default_report_converges(self):
        report = certify()
        assert report.converged
        assert report.dephasing_max_error <= 1e-6
        assert max(report.spectrum_residuals) <= 1e-6
        assert report.similarity_residual <= 1e-8

    def test_tau_zero_similarity_residual(self):
        report = certify(tau=0.0, num_times=21)
        assert report.similarity_residual == 0.0

    def test_zero_coupling(self):
        report = certify(g_abs=0.0, num_times=21)
        assert report.dephasing_max_error <= 1e-12

    def test_unreachable_truncation_fails_before_evolving(self):
        # doubling to 5120 would take over a minute and still not converge
        start = time.perf_counter()
        report = certify(temperature=300.0)
        assert time.perf_counter() - start < 5.0
        assert report.converged is False
        assert report.dephasing_max_error is None
        assert report.fock_dim_used == 40

    def test_overflowing_coupling_fails_before_any_fock_work(self, monkeypatch):
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "spectrum_residuals", no_fock)
        with pytest.raises(ValueError, match="g_abs"):
            certify(g_abs=1e200)

    def test_json_schema(self):
        import json

        payload = json.loads(certify(num_times=11).to_json())
        assert set(payload) == {"spectrum_residuals", "similarity_residual",
                                "dephasing_max_error", "fock_dim_used", "converged"}
        assert isinstance(payload["spectrum_residuals"], list)
        assert isinstance(payload["converged"], bool)

    @pytest.mark.parametrize("kwargs, name", [
        ({"t_max": math.nan}, "t_max"),
        ({"t_max": math.inf}, "t_max"),
        ({"t_max": -1.0}, "t_max"),
        ({"omega": math.nan}, "omega"),
        ({"tau": math.inf}, "tau"),
        ({"theta": math.nan}, "theta"),
        ({"g_abs": math.nan}, "g_abs"),
        ({"temperature": math.inf}, "temperature"),
        ({"temperature": -1.0}, "temperature"),
        ({"num_times": 0}, "num_times"),
    ])
    def test_rejects_bad_input_before_any_work(self, kwargs, name):
        # a NaN time used to keep doubling the Fock dimension for 96 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            certify(**kwargs)
        assert time.perf_counter() - start < 1.0
