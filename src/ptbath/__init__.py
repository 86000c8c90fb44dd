"""Qubit dephasing under a PT-symmetric non-Hermitian bosonic bath."""

from .core import (
    BathMode,
    Coupling,
    DiscreteBath,
    QubitState,
    big_omega,
    coherence_factor,
    evolve_qubit,
    gamma_discrete,
    gamma_discrete_amplitude,
    load_bath_csv,
    xi_hermitian,
    xi_non_hermitian,
)
from .continuum import (
    OhmicSpectrum,
    QuadratureError,
    QuadratureSpec,
    gamma_continuum_nh,
    gamma_hermitian,
    gamma_integrand_nh,
    spectral_density,
)
from .entanglement import (
    ConcurrenceResult,
    TwoQubitState,
    concurrence,
    dephased_bell,
    eof_from_concurrence,
)
from .oracle import (
    OracleReport,
    TruncatedMode,
    bath_hamiltonian_h,
    bath_hamiltonian_nh,
    exact_dephasing,
    exact_dephasing_converged,
    metric,
    similarity_residual,
    thermal_state,
)

__version__ = "0.1.0"
