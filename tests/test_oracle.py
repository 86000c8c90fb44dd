import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from ptbath import cli, oracle
from ptbath.core import BathMode, Coupling, DiscreteBath, gamma_discrete
from ptbath.oracle import (
    TruncatedMode,
    certify,
    exact_dephasing,
    exact_dephasing_converged,
    thermal_fock_dim,
)

from fock_reference import (annihilation, dense_branches, dense_exact_dephasing,
                            dense_hamiltonian_h, dense_hamiltonian_nh, dense_metric,
                            nh_spectrum_residuals, similarity_residual)

OMEGA_SHIFTED = math.sqrt(1.36)  # omega=1, tau=0.3
TWO_MODES = [(TruncatedMode(1.0, 0.1, 24), Coupling(0.08, 0.4)),
             (TruncatedMode(1.7, 0.1, 24), Coupling(0.05, 2.0))]
# a two-level mode in the middle, whose +/-2 bands are empty
THREE_MODES = [(TruncatedMode(1.0, 0.3, 5), Coupling(0.1, 1.0)),
               (TruncatedMode(2.0, -0.2, 2), Coupling(0.3, 4.0)),
               (TruncatedMode(0.5, 0.1, 3), Coupling(0.2, 0.5))]


def assembled_branch(mode, g=Coupling(0.0), sign=1.0):
    """H + sign V built from the bands, as exact_dephasing builds H + V; the
    Hermitian equivalent h at zero coupling."""
    return oracle._assemble(mode.fock_dim, oracle._hermitian_bands(mode, sign * g.as_complex))


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
        h = dense_hamiltonian_nh(TruncatedMode(1.5, 0.0, 10))
        assert np.allclose(h, np.diag(1.5 * (np.arange(10) + 0.5)), atol=1e-14)

    def test_nh_off_diagonal_elements(self):
        tau, omega = 0.25, 1.3
        h = dense_hamiltonian_nh(TruncatedMode(omega, tau, 10))
        assert h[0, 2] == pytest.approx(tau * omega * math.sqrt(2.0), abs=1e-13)
        assert h[2, 0] == pytest.approx(-tau * omega * math.sqrt(2.0), abs=1e-13)

    def test_nh_spectrum_matches_shifted_ladder(self):
        mode = TruncatedMode(1.0, 0.3, 60)
        res, max_imag = nh_spectrum_residuals(mode)
        assert max(res) <= 1e-6
        assert max_imag <= 1e-8
        vals = np.sort(np.linalg.eigvals(dense_hamiltonian_nh(mode)).real)
        assert vals[0] == pytest.approx(OMEGA_SHIFTED / 2 + 0.3, abs=1e-6)

    def test_h_is_hermitian(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            h = assembled_branch(TruncatedMode(1.0, rng.uniform(-0.5, 0.5), 40))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-13

    def test_h_tau_zero_is_harmonic(self):
        h = assembled_branch(TruncatedMode(2.0, 0.0, 8))
        assert np.allclose(h, np.diag(2.0 * (np.arange(8) + 0.5)), atol=1e-14)

    def test_h_interior_spectrum(self):
        h = assembled_branch(TruncatedMode(1.0, 0.3, 80))
        vals = np.sort(np.linalg.eigvalsh(h))
        target = OMEGA_SHIFTED * (np.arange(5) + 0.5) + 0.3
        assert np.max(np.abs(vals[:5] - target)) <= 1e-6


class TestBandAssembly:
    @pytest.mark.parametrize("omega, tau, dim", [(1.0, 0.0, 8), (1.3, 0.25, 40),
                                                 (0.7, -0.4, 81), (2.0, 1.5, 3), (1.0, 0.3, 2)])
    def test_single_mode_operators_match_dense_products(self, omega, tau, dim):
        # the Hermitian equivalent exact_dephasing evolves, against its dense product form
        mode = TruncatedMode(omega, tau, dim)
        built, dense = assembled_branch(mode), dense_hamiltonian_h(mode)
        assert built.dtype == complex
        assert np.max(np.abs(built - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_branches_match_kron_reference(self):
        mode, g = TruncatedMode(1.3, 0.25, 40), Coupling(0.2, 2.1)
        h_plus, h_minus = dense_branches([(mode, g)])
        for sign, dense in ((1.0, h_plus), (-1.0, h_minus)):
            built = assembled_branch(mode, g, sign)
            assert np.max(np.abs(built - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_parity_maps_plus_branch_onto_minus_bit_for_bit(self):
        # H is even in the ladder operators and V odd: P (H + V) P = H - V,
        # in the truncated space too, and only the signs of V's entries flip
        mode, g = TruncatedMode(1.3, 0.25, 40), Coupling(0.2, 2.1)
        p = (-1.0) ** np.arange(mode.fock_dim)
        assert np.array_equal(p[:, None] * assembled_branch(mode, g) * p,
                              assembled_branch(mode, g, -1.0))


class TestMetric:
    def test_identity_at_tau_zero(self):
        assert np.allclose(dense_metric(TruncatedMode(1.0, 0.0, 20)), np.eye(20), atol=1e-14)

    def test_positive_definite(self):
        eta = dense_metric(TruncatedMode(1.0, 0.1, 80))
        assert np.max(np.abs(eta - eta.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(eta).min() > 0.0

    def test_inverse_is_actual_inverse(self):
        mode = TruncatedMode(1.0, 0.05, 40)
        prod = dense_metric(mode) @ dense_metric(mode, inverse=True)
        assert np.allclose(prod, np.eye(40), atol=1e-8)

    def test_similarity_residual_small(self):
        # eta H_nh eta^-1 is the matrix exact_dephasing evolves, on the interior block
        mode = TruncatedMode(1.0, 0.1, 80)
        assert similarity_residual(mode, assembled_branch(mode), 20) <= 1e-8

    def test_similarity_residual_not_growing_with_dim(self):
        # both residuals sit at the roundoff floor for small tau; doubling
        # the truncation must not push the interior block off that floor
        r80, r160 = (similarity_residual(mode, assembled_branch(mode), 20)
                     for mode in (TruncatedMode(1.0, 0.1, 80), TruncatedMode(1.0, 0.1, 160)))
        assert r160 <= max(r80, 1e-10)


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        p = oracle._thermal_populations(TruncatedMode(1.0, 0.0, 10), 0.0)
        assert p[0] == 1.0 and not p[1:].any()

    def test_geometric_population_ratio(self):
        p = oracle._thermal_populations(TruncatedMode(1.2, 0.0, 30), 0.8)
        ratio = p[1:6] / p[:5]
        assert np.allclose(ratio, math.exp(-1.2 / 0.8), atol=1e-12)

    def test_unit_trace(self):
        p = oracle._thermal_populations(TruncatedMode(1.0, 0.0, 25), 2.0)
        assert abs(p.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("omega, temperature, dim", [
        (1.0, 300.0, 6908),  # ln(1e10) T / omega, rounded up
        (2.0, 300.0, 3454),
        (1.0, 10.0, 231),
        (0.7, 1.3, 43),
    ])
    def test_thermal_fock_dim(self, omega, temperature, dim):
        assert thermal_fock_dim(omega, temperature) == dim
        # the tail weight beyond dim is within TAIL_TOL, beyond dim - 1 it is not
        assert math.exp(-omega * dim / temperature) <= oracle.TAIL_TOL
        assert math.exp(-omega * (dim - 1) / temperature) > oracle.TAIL_TOL

    def test_thermal_fock_dim_at_zero_temperature(self):
        assert thermal_fock_dim(1.0, 0.0) == 0

    @pytest.mark.parametrize("omega, temperature", [(1.0, 1e307), (1e-300, 1e10)])
    def test_thermal_fock_dim_past_the_float_range_is_inf(self, omega, temperature):
        # no integer to round up to: the truncation is beyond any doubling
        assert thermal_fock_dim(omega, temperature) == math.inf


class TestExactDephasing:
    def test_zero_coupling_keeps_full_coherence(self):
        times = np.linspace(0, 10, 11)
        ratios = exact_dephasing(TruncatedMode(1.0, 0.2, 30), Coupling(0.0), 1.0, times)
        assert np.allclose(ratios, 1.0, atol=1e-12)

    # omega = 1, |g| = 0.1 at theta = pi/2, T = 1, 41 times on [0, 20], doubling from 40
    def test_matches_closed_form_non_hermitian(self):
        report = certify(tau=0.2, theta=math.pi / 2, t_max=20.0, num_times=41, fock_dim=40)
        assert report.converged
        assert report.dephasing_max_error <= 1e-6

    def test_matches_closed_form_hermitian_limit(self):
        report = certify(tau=0.0, theta=math.pi / 2, t_max=20.0, num_times=41, fock_dim=40)
        assert report.converged
        assert report.dephasing_max_error <= 1e-6

    def test_two_mode_bath(self):
        # the product of the modes' ratios, which test_bath_ratio_is_the_product_of_its_modes
        # holds to the dense two-mode evolution
        times = np.linspace(0, 10, 21)
        ratios = np.prod([exact_dephasing(m, g, 0.5, times) for m, g in TWO_MODES], axis=0)
        bath = DiscreteBath((BathMode(1.0, Coupling(0.08, 0.4)),
                             BathMode(1.7, Coupling(0.05, 2.0))), 0.5, 0.1)
        closed = np.exp(-np.array([gamma_discrete(bath, float(t)) for t in times]))
        assert np.max(np.abs(ratios - closed)) <= 1e-5

    def test_unit_ratio_at_zero_time(self):
        ratios = exact_dephasing(TruncatedMode(1.0, 0.3, 30), Coupling(0.1, 1.0), 1.0, [0.0])
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)


class TestParityRoute:
    @staticmethod
    def gauge_cases():
        """Seeded single modes whose gauged H + V is real: tau != 0 at theta a
        multiple of pi/2, and tau = 0 at any theta."""
        rng = np.random.default_rng(27)
        for case in range(16):
            tau = 0.0 if case >= 12 else rng.uniform(-1.0, 1.0)
            theta = rng.uniform(0.0, 2 * math.pi) if case >= 12 else (case % 4) * math.pi / 2
            mode = TruncatedMode(rng.uniform(0.3, 3.0), tau, int(rng.integers(2, 161)))
            temperature = 0.0 if case % 2 else rng.uniform(0.05, 3.0)
            yield mode, Coupling(rng.uniform(0.0, 0.4), theta), temperature

    def test_matches_two_eigh_reference(self):
        rng = np.random.default_rng(18)
        times = np.linspace(0.0, 20.0, 11)
        for case in range(32):
            mode = TruncatedMode(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0),
                                 int(rng.integers(2, 161)))
            g = Coupling(rng.uniform(0.0, 0.4), rng.uniform(0.0, 2 * math.pi))
            temperature = 0.0 if case % 2 else rng.uniform(0.05, 3.0)
            ratios = exact_dephasing(mode, g, temperature, times)
            reference = dense_exact_dephasing([(mode, g)], temperature, times)
            assert np.max(np.abs(ratios - reference)) <= 1e-12, (mode, g, temperature)

    @pytest.mark.parametrize("modes", [TWO_MODES, THREE_MODES], ids=["two_modes", "three_modes"])
    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_bath_ratio_is_the_product_of_its_modes(self, modes, temperature):
        # H +/- V are sums over the modes and rho_B their product: the dense evolution on
        # the tensor product space factors into one exact_dephasing per mode
        times = np.linspace(0.0, 10.0, 21)
        product = np.prod([exact_dephasing(m, g, temperature, times) for m, g in modes], axis=0)
        reference = dense_exact_dephasing(modes, temperature, times)
        assert np.max(np.abs(product - reference)) <= 1e-12

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(h):
            calls.append((h.shape, h.dtype))
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        exact_dephasing(TruncatedMode(1.0, 0.2, 40), Coupling(0.1, 1.0), 1.0, [0.0, 1.0])
        assert calls == [((40, 40), np.complex128)]
        # where the gauge makes H + V real, its one eigh is float64
        for mode, g, temperature in self.gauge_cases():
            calls.clear()
            exact_dephasing(mode, g, temperature, [0.0, 1.0])
            assert calls == [((mode.fock_dim, mode.fock_dim), np.float64)], (mode, g)

    def test_peak_traced_memory_at_dim_320(self):
        # tracemalloc sees numpy's arrays but not LAPACK's workspace inside
        # eigh, so this bounds the matrices the route keeps, not the RSS;
        # the two-eigh reference with its dense rho peaks at about 8 of them
        import tracemalloc

        dim = 320
        mode = TruncatedMode(1.0, 0.2, dim)
        tracemalloc.start()
        try:
            exact_dephasing(mode, Coupling(0.1, 1.0), 10.0, np.linspace(0.0, 20.0, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 16 * dim**2

    def test_float64_route_matches_two_eigh_reference(self):
        times = np.linspace(0.0, 20.0, 11)
        for mode, g, temperature in self.gauge_cases():
            ratios = exact_dephasing(mode, g, temperature, times)
            reference = dense_exact_dephasing([(mode, g)], temperature, times)
            assert np.max(np.abs(ratios - reference)) <= 1e-12, (mode, g, temperature)

    def test_peak_traced_memory_of_the_float64_route_at_dim_320(self):
        # theta = pi/2: the dim x dim arrays are float64, half the bytes of
        # those of the complex route, whose bound is 6 x 16 dim^2 above
        import tracemalloc

        dim = 320
        mode = TruncatedMode(1.0, 0.2, dim)
        tracemalloc.start()
        try:
            exact_dephasing(mode, Coupling(0.1, math.pi / 2), 10.0, np.linspace(0.0, 20.0, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * dim**2

    def test_unallocatable_dimension_fails_before_any_fock_vector(self, monkeypatch, capsys):
        # 8e16 bytes of matrix: refused before the populations (0.8 GB a step)
        # or the bands are built, which used to get the command killed
        def no_populations(*args):
            raise AssertionError("thermal populations built")

        monkeypatch.setattr(oracle, "_thermal_populations", no_populations)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="--fock-dim or --dim-budget"):
            exact_dephasing(TruncatedMode(1.0, 0.2, 10**8), Coupling(0.1, 1.0), 1.0, [1.0])
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        assert cli.main(["oracle", "--fock-dim", "100000000", "--dim-budget", "100000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "--fock-dim or --dim-budget" in capsys.readouterr().err


class TestCertify:
    def test_default_report_converges(self):
        report = certify()
        assert report.converged
        assert report.dephasing_max_error <= 1e-6

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

    def test_budget_short_of_the_thermal_state_fails_before_evolving(self, monkeypatch):
        # T = 10 needs Fock dimension 231; doubling 40 within 79 stops at 40
        def no_evolution(*args, **kwargs):
            raise AssertionError("exact evolution ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_evolution)
        report = certify(temperature=10.0, dim_budget=79, num_times=11)
        assert report.converged is False
        assert report.dephasing_max_error is None
        assert report.fock_dim_used == 40

    @pytest.mark.parametrize("fock_dim, dim_budget", [(40, 79), (1280, 2000)])
    def test_no_doubling_within_the_budget_fails_before_evolving(self, monkeypatch, fock_dim,
                                                                dim_budget):
        # T = 0: fock_dim holds the state, and its doubling passes the budget;
        # the lone evolution at fock_dim used to run, only to be non-converged
        def no_evolution(*args, **kwargs):
            raise AssertionError("exact evolution ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_evolution)
        report = certify(temperature=0.0, fock_dim=fock_dim, dim_budget=dim_budget)
        assert report.converged is False
        assert report.dephasing_max_error is None
        assert report.fock_dim_used == fock_dim

    def test_converged_walks_the_ladder_until_a_doubling_moves_no_ratio(self, monkeypatch):
        seen = []

        def settled_at_80(mode, g, temperature, times):
            seen.append(mode.fock_dim)
            return np.full(len(times), min(mode.fock_dim, 80) / 80)

        monkeypatch.setattr(oracle, "exact_dephasing", settled_at_80)
        args = (1.0, 0.2, Coupling(0.1), 1.0, [0.0, 1.0])
        _, dim, converged = exact_dephasing_converged(*args, [20, 40, 80, 160, 320])
        assert (dim, converged, seen) == (160, True, [20, 40, 80, 160])
        seen.clear()
        _, dim, converged = exact_dephasing_converged(*args, [20, 40])
        assert (dim, converged, seen) == (40, False, [20, 40])

    def test_budget_overflow_rejected_before_any_fock_work(self, monkeypatch):
        # the one --dim-budget check: fock_dim past it fails before any exact evolution
        def no_fock(*args, **kwargs):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_fock)
        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        with pytest.raises(ValueError,
                           match=r"Fock dimension 100 \(--fock-dim\) exceeds budget 50 "
                                 r"\(--dim-budget\)"):
            certify(fock_dim=100, dim_budget=50)

    def test_weak_coupling_converges_where_the_state_is_held(self):
        # the ratios settle at 80, short of the 231 the state needs; a check
        # after the run used to mark that non-converged
        report = certify(temperature=10.0, g_abs=1e-6)
        assert report.converged is True
        assert report.fock_dim_used >= thermal_fock_dim(1.0, 10.0)
        assert report.dephasing_max_error <= 1e-6

    def test_doubling_starts_at_half_the_held_dimension(self, monkeypatch):
        # T = 10 needs 231: the first doubling compares ceil(231 / 2) = 116 with 232
        seen, real = [], oracle.exact_dephasing

        def recording(mode, *args, **kwargs):
            seen.append(mode.fock_dim)
            return real(mode, *args, **kwargs)

        monkeypatch.setattr(oracle, "exact_dephasing", recording)
        assert cli.main(["oracle", "--temp", "10", "--num-times", "11"]) == 0
        assert seen == [116, 232, 464]

    @pytest.mark.parametrize("temperature, first", [
        (0.0, 40), (1.0, 40), (4.5, 52), (10.0, 116), (20.0, 231),
    ])
    def test_ladder_starts_where_its_doubling_holds_the_thermal_state(self, monkeypatch,
                                                                      temperature, first):
        # max(fock_dim 40, ceil(thermal_fock_dim / 2)): 0, 24, 104, 231 and 461 are needed
        seen, real = [], oracle.exact_dephasing

        def recording(mode, *args, **kwargs):
            seen.append(mode.fock_dim)
            return real(mode, *args, **kwargs)

        monkeypatch.setattr(oracle, "exact_dephasing", recording)
        report = certify(temperature=temperature, num_times=11)
        assert seen[0] == first and seen[1] >= thermal_fock_dim(1.0, temperature)
        assert report.converged is True and report.dephasing_max_error <= 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"t_max": 1e12, "num_times": 2, "dim_budget": 320},
        {"t_max": 1e300},
        {"t_max": 1e12, "temperature": 0.0},
    ])
    def test_unresolvable_phases_fail_before_any_fock_work(self, monkeypatch, kwargs):
        # the float phases e t could not settle within DOUBLING_TOL: the ladder used
        # to climb to its budget and end non-converged
        def no_fock(*args, **kwargs):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_fock)
        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        with pytest.raises(ValueError, match=r"t_max .* \(--t-max\) takes the phases"):
            certify(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"t_max": 20.0}, {"t_max": 1e3}, {"t_max": 1e300, "g_abs": 0.0},
        # phases far past any resolution, but a coupling that barely moves the ratios
        {"t_max": 20.0, "tau": 1e10, "dim_budget": 80},
    ])
    def test_resolvable_phases_run(self, kwargs):
        report = certify(num_times=11, **kwargs)
        assert report.converged is True and report.dephasing_max_error <= 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"omega": 1e300, "temperature": 0.0, "tau": 1e5, "dim_budget": 640},
        {"omega": 1e200, "tau": 1e70, "temperature": 0.0},
    ])
    def test_levels_past_the_float_range_fail_before_any_fock_work(self, monkeypatch, kwargs):
        # the bands of H + V overflow: numpy used to warn in _hermitian_bands, and the
        # report to end non-converged with a NaN max error
        def no_fock(*args, **kwargs):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_fock)
        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        with pytest.raises(ValueError, match=r"\(--omega\), tau .* \(--tau\)"):
            certify(**kwargs)

    def test_overflowing_coupling_fails_before_any_fock_work(self, monkeypatch):
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_fock)
        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        with pytest.raises(ValueError, match="g_abs"):
            certify(g_abs=1e200)

    @pytest.mark.parametrize("kwargs", [
        {"g_abs": 1e150, "dim_budget": 640, "num_times": 21},
        {"g_abs": 1e3, "dim_budget": 640, "num_times": 21},
    ])
    def test_displacement_past_the_ladder_fails_before_any_fock_work(self, monkeypatch,
                                                                     kwargs):
        # the ladder used to climb to its budget and end non-converged, 0.44 (1e150) and
        # 0.14 (1e3) from the closed form at Fock dimension 640
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(oracle, "exact_dephasing", no_fock)
        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        with pytest.raises(ValueError, match=r"\(--g-abs\) displaces the state to a mean "
                                             r"occupation .* up to 640 \(--dim-budget 640\)"):
            certify(**kwargs)

    @pytest.mark.parametrize("g_abs, dim", [(0.1, 80), (1.0, 80), (3.0, 320)])
    def test_displacement_the_ladder_holds_runs(self, g_abs, dim):
        report = certify(g_abs=g_abs)
        assert report.converged is True and report.fock_dim_used == dim
        assert report.dephasing_max_error <= 1e-6

    def test_displacement_counts_only_at_the_times_compared(self):
        # at t = 0 alone no coupling has displaced the state: every ratio is 1
        report = certify(g_abs=1e3, num_times=1)
        assert report.converged is True and report.dephasing_max_error <= 1e-12

    def test_json_schema(self):
        payload = asdict(certify(num_times=11))
        assert list(payload) == ["dephasing_max_error", "fock_dim_used", "converged"]
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
        # omega^2 subnormal: core.BathMode refused it without naming the flag
        ({"omega": 1e-300}, r"omega must be >= 1\.49e-154 .* \(--omega\)"),
    ])
    def test_rejects_bad_input_before_any_work(self, kwargs, name):
        # a NaN time used to keep doubling the Fock dimension for 96 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            certify(**kwargs)
        assert time.perf_counter() - start < 1.0



class TestNonFiniteInput:
    @pytest.mark.parametrize("omega, tau, name", [
        (math.nan, 0.2, "omega"),
        (math.inf, 0.2, "omega"),
        (1.0, math.nan, "tau"),
        (1.0, -math.inf, "tau"),
    ])
    def test_truncated_mode_rejects_before_any_work(self, omega, tau, name):
        # TruncatedMode(nan, 0.2, 40) used to run: exact_dephasing_converged
        # then doubled on NaN ratios up to its budget
        start = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            TruncatedMode(omega, tau, 40)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("temperature, times, name", [
        (1.0, [0.0, math.nan], "times"),
        (1.0, [math.inf], "times"),
        (1.0, [-math.inf, 1.0], "times"),
        (math.nan, [1.0], "temperature"),
        (math.inf, [1.0], "temperature"),
    ])
    def test_exact_dephasing_rejects_before_any_work(self, temperature, times, name,
                                                     monkeypatch):
        def no_fock(*args):
            raise AssertionError("Fock work ran")

        monkeypatch.setattr(np.linalg, "eigh", no_fock)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            exact_dephasing(TruncatedMode(1.0, 0.2, 40), Coupling(0.1), temperature, times)
        assert time.perf_counter() - start < 1.0
