import math

import numpy as np
import pytest

from ptbath.core import QubitState
from ptbath.entanglement import (
    TwoQubitState,
    concurrence,
    dephased_bell,
    eof_from_concurrence,
)

# E_f at C = 1/2, via the binary entropy at x = (1 + sqrt(3)/2)/2,
# evaluated to 30 digits with mpmath and frozen here
EOF_AT_HALF = 0.354578902665269884


def haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTwoQubitState:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            TwoQubitState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4) / 2)

    def test_negative_eigenvalue_tolerance(self):
        # the two-qubit bound is 1e-10, looser than the single-qubit 1e-12
        TwoQubitState(np.diag([0.5 + 1e-11, 0.5, 0.0, -1e-11]))
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]))
        with pytest.raises(ValueError):
            QubitState(np.diag([1.0 + 1e-11, -1e-11]))


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        res = concurrence(dephased_bell(0.0))
        assert res.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_separable(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert concurrence(TwoQubitState(rho)).concurrence == 0.0

    def test_dephased_bell_half(self):
        res = concurrence(dephased_bell(math.log(2.0)))
        assert res.concurrence == pytest.approx(0.5, abs=1e-12)

    def test_lambdas_sorted_nonnegative(self):
        res = concurrence(dephased_bell(1.3))
        assert all(a >= b for a, b in zip(res.lambdas, res.lambdas[1:]))
        assert all(v >= 0 for v in res.lambdas)
        assert res.concurrence == pytest.approx(
            max(0.0, res.lambdas[0] - sum(res.lambdas[1:])), abs=1e-12)

    def test_equals_coherence_factor_over_gamma_range(self):
        for gamma in np.linspace(0.0, 20.0, 41):
            c = concurrence(dephased_bell(float(gamma))).concurrence
            assert c == pytest.approx(math.exp(-gamma), rel=1e-12, abs=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        rho = dephased_bell(0.7).rho
        c0 = concurrence(TwoQubitState(rho)).concurrence
        for _ in range(100):
            u = np.kron(haar_unitary(rng), haar_unitary(rng))
            c = concurrence(TwoQubitState(u @ rho @ u.conj().T)).concurrence
            assert abs(c - c0) <= 1e-10

    def test_pure_product_states_vanish(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            rho = np.outer(psi, psi.conj())
            assert concurrence(TwoQubitState(rho)).concurrence <= 1e-10

    def test_in_unit_interval_for_random_states(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = v @ v.conj().T
            rho = m / np.trace(m).real
            c = concurrence(TwoQubitState(rho)).concurrence
            assert 0.0 <= c <= 1.0


class TestDephasedBell:
    def test_no_dephasing_gives_bell_state(self):
        rho = dephased_bell(0.0).rho
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        assert np.allclose(rho, expected, atol=1e-15)

    def test_corner_values(self):
        assert dephased_bell(math.log(2.0)).rho[0, 3] == pytest.approx(0.25, rel=1e-14)
        assert dephased_bell(2.0).rho[0, 3] == pytest.approx(math.exp(-2.0) / 2, rel=1e-12)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            dephased_bell(-1.0)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half(self):
        assert eof_from_concurrence(0.5) == pytest.approx(EOF_AT_HALF, rel=1e-12)

    def test_monotone_and_continuous(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [eof_from_concurrence(float(c)) for c in grid]
        diffs = np.diff(vals)
        assert np.all(diffs >= 0)
        assert np.max(diffs) < 0.02  # no jumps on a 1e-3 grid

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eof_from_concurrence(-0.01)
        with pytest.raises(ValueError):
            eof_from_concurrence(1.01)
