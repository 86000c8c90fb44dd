"""Exact truncated-Fock-space checks for the non-Hermitian bath.

Builds the non-Hermitian single-mode Hamiltonian, its metric and Hermitian
equivalent, and runs exact dephasing by evolving the two spin-conditioned
bath branches with Hermitian eigendecompositions.  Unit convention
m = hbar = 1, so the spring constant is omega^2 and the non-Hermiticity
scale is tau/omega.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .core import Coupling, QubitSystem, require_finite


@dataclass(frozen=True)
class TruncatedMode:
    omega: float
    tau: float = 0.0
    fock_dim: int = 40

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")


# thermal weight beyond the truncation that still counts as converged
TAIL_TOL = 1e-10


@dataclass
class OracleReport:
    """dephasing_max_error is None when no exact evolution was run."""

    spectrum_residuals: list[float]
    similarity_residual: float
    dephasing_max_error: float | None
    fock_dim_used: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def annihilation(dim: int) -> np.ndarray:
    """Truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def bath_hamiltonian_nh(mode: TruncatedMode) -> np.ndarray:
    """Non-Hermitian bath Hamiltonian in ladder form:
    w (a'a + 1/2) + tau w (a^2 - a'^2 + 1)."""
    n = mode.fock_dim
    a = annihilation(n)
    ad = a.T
    ident = np.eye(n)
    h = mode.omega * (ad @ a + 0.5 * ident) + mode.tau * mode.omega * (a @ a - ad @ ad + ident)
    return h.astype(complex)


def bath_hamiltonian_h(mode: TruncatedMode) -> np.ndarray:
    """Hermitian equivalent: w [a'a + 1/2 + tau - tau^2 (a - a')^2]."""
    n = mode.fock_dim
    a = annihilation(n)
    ad = a.T
    q = a - ad
    h = mode.omega * (ad @ a + (0.5 + mode.tau) * np.eye(n) - mode.tau**2 * (q @ q))
    return h.astype(complex)


def metric(mode: TruncatedMode, inverse: bool = False) -> np.ndarray:
    """Similarity metric exp[-(tau/2)(a - a')^2], Hermitian positive
    definite; identity at tau = 0."""
    a = annihilation(mode.fock_dim)
    q = a - a.T
    expo = -0.5 * mode.tau * (q @ q)  # real symmetric
    if inverse:
        expo = -expo
    vals, vecs = np.linalg.eigh(expo)
    return (vecs * np.exp(vals)) @ vecs.T


def similarity_residual(mode: TruncatedMode, interior_dim: int) -> float:
    """Max-norm mismatch of eta H_nh eta^-1 against the Hermitian
    equivalent, restricted to the top-left interior block (truncation
    corrupts the edge rows)."""
    if interior_dim > mode.fock_dim // 4:
        raise ValueError("interior_dim must not exceed fock_dim / 4")
    if mode.tau == 0.0:
        return 0.0
    eta = metric(mode)
    eta_inv = metric(mode, inverse=True)
    h_sim = eta @ bath_hamiltonian_nh(mode) @ eta_inv
    diff = h_sim - bath_hamiltonian_h(mode)
    k = interior_dim
    return float(np.max(np.abs(diff[:k, :k])))


def thermal_state(mode: TruncatedMode, temperature: float) -> np.ndarray:
    """Thermal state of the bare oscillator number operator, renormalized
    on the truncated space; T = 0 gives the Fock vacuum projector."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    n = mode.fock_dim
    p = np.zeros(n)
    if temperature == 0.0:
        p[0] = 1.0
    else:
        x = math.exp(-mode.omega / temperature)
        p = x ** np.arange(n)
        p /= p.sum()
    return np.diag(p).astype(complex)


def thermal_tail_weight(mode: TruncatedMode, temperature: float) -> float:
    """Weight the untruncated thermal distribution puts beyond fock_dim."""
    if temperature == 0.0:
        return 0.0
    x = math.exp(-mode.omega / temperature)
    return x**mode.fock_dim


def unreachable_fock_dim(mode: TruncatedMode, temperature: float, dim_budget: int) -> int | None:
    """Fock dimension the thermal state needs (tail weight <= TAIL_TOL),
    when doubling mode.fock_dim within dim_budget cannot reach it; None
    when it can.  About 23 T / omega at high temperature."""
    reach = mode.fock_dim
    while 2 * reach <= dim_budget:
        reach *= 2
    if thermal_tail_weight(TruncatedMode(mode.omega, mode.tau, reach), temperature) <= TAIL_TOL:
        return None
    return math.ceil(math.log(1.0 / TAIL_TOL) * temperature / mode.omega)


def _branch_hamiltonians(modes: Sequence[tuple[TruncatedMode, Coupling]]):
    """Hermitian bath Hamiltonian and coupling operator on the tensor
    product space, then the two spin-conditioned branches H +/- V."""
    dims = [m.fock_dim for m, _ in modes]
    total = int(np.prod(dims))
    h = np.zeros((total, total), dtype=complex)
    v = np.zeros((total, total), dtype=complex)
    for i, (mode, g) in enumerate(modes):
        a = annihilation(mode.fock_dim).astype(complex)
        hb = bath_hamiltonian_h(mode)
        vb = g.as_complex * a.conj().T + np.conj(g.as_complex) * a
        left = int(np.prod(dims[:i])) if i else 1
        right = int(np.prod(dims[i + 1:])) if i + 1 < len(dims) else 1
        h += np.kron(np.kron(np.eye(left), hb), np.eye(right))
        v += np.kron(np.kron(np.eye(left), vb), np.eye(right))
    return h + v, h - v


def exact_dephasing(
    system: QubitSystem,
    modes: Sequence[tuple[TruncatedMode, Coupling]],
    temperature: float,
    times: Sequence[float],
    dim_budget: int = 6400,
) -> np.ndarray:
    """Exact coherence ratio |rho01(t)| / |rho01(0)|.

    The dephasing Hamiltonian is block diagonal in the spin basis, so the
    two bath branches are evolved with Hermitian eigendecompositions and
    the ratio is |Tr(exp(-i H_minus t) rho_B exp(+i H_plus t))|.  The free
    spin splitting only contributes a phase and drops out of the modulus.
    """
    del system  # kept for interface completeness; cancels in the modulus
    total = int(np.prod([m.fock_dim for m, _ in modes]))
    if total > dim_budget:
        raise ValueError(f"total Fock dimension {total} exceeds budget {dim_budget}")
    h_plus, h_minus = _branch_hamiltonians(modes)
    e_p, v_p = np.linalg.eigh(h_plus)
    e_m, v_m = np.linalg.eigh(h_minus)
    rho = thermal_state(modes[0][0], temperature)
    for mode, _ in modes[1:]:
        rho = np.kron(rho, thermal_state(mode, temperature))
    amp = v_m.conj().T @ rho @ v_p      # <m-|rho|n+>
    ovl = (v_p.conj().T @ v_m).T        # <n+|m->, transposed to [m, n]
    c = amp * ovl
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape)
    for i, t in enumerate(times):
        out[i] = abs(np.exp(-1j * e_m * t) @ c @ np.exp(1j * e_p * t))
    return out


def exact_dephasing_converged(
    system: QubitSystem,
    modes: Sequence[tuple[TruncatedMode, Coupling]],
    temperature: float,
    times: Sequence[float],
    tol: float = 1e-8,
    dim_budget: int = 6400,
):
    """Run exact_dephasing with Fock-dimension doubling until outputs move
    by less than tol; returns (ratios, fock_dim_used, converged)."""
    current = list(modes)
    ratios = exact_dephasing(system, current, temperature, times, dim_budget)
    while True:
        doubled = [
            (TruncatedMode(m.omega, m.tau, 2 * m.fock_dim), g) for m, g in current
        ]
        if int(np.prod([m.fock_dim for m, _ in doubled])) > dim_budget:
            return ratios, max(m.fock_dim for m, _ in current), False
        ratios2 = exact_dephasing(system, doubled, temperature, times, dim_budget)
        if np.max(np.abs(ratios2 - ratios)) < tol:
            return ratios2, max(m.fock_dim for m, _ in doubled), True
        current, ratios = doubled, ratios2


def spectrum_residuals(mode: TruncatedMode, n_levels: int = 5) -> tuple[list[float], float]:
    """Distance of the lowest truncated non-Hermitian eigenvalues from the
    analytic ladder Omega (n + 1/2) + omega tau; also the largest imaginary
    part seen among those eigenvalues."""
    vals = np.linalg.eigvals(bath_hamiltonian_nh(mode))
    vals = vals[np.argsort(vals.real)][:n_levels]
    Om = mode.omega * math.sqrt(1.0 + 4.0 * mode.tau**2)
    target = Om * (np.arange(n_levels) + 0.5) + mode.omega * mode.tau
    res = np.abs(vals.real - target)
    return [float(r) for r in res], float(np.max(np.abs(vals.imag)))


def certify(
    omega: float = 1.0,
    tau: float = 0.2,
    theta: float = math.pi / 2,
    g_abs: float = 0.1,
    temperature: float = 1.0,
    t_max: float = 20.0,
    num_times: int = 101,
    fock_dim: int = 40,
    spectrum_fock_dim: int = 80,
    dim_budget: int = 6400,
) -> OracleReport:
    """Full validation sweep: spectrum, similarity, and exact-vs-closed-form
    dephasing for a single mode.  When doubling fock_dim within dim_budget
    cannot truncate the thermal state (see unreachable_fock_dim), the
    report is non-converged at once, without exact evolution."""
    from .core import BathMode, DiscreteBath, gamma_discrete

    # checked before any work: a non-finite time or coupling would keep
    # exact_dephasing_converged doubling the Fock dimension to its budget
    require_finite(omega=omega, tau=tau, theta=theta, g_abs=g_abs, temperature=temperature,
                   t_max=t_max)
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if num_times < 1:
        raise ValueError(f"num_times must be >= 1, got {num_times}")

    # the closed form's bath too: a mode it rejects (|g|^2/omega^2 beyond a
    # float) fails here, not after the Fock work
    g = Coupling(g_abs, theta)
    bath = DiscreteBath((BathMode(omega, g),), temperature=temperature, tau=tau)
    spec_mode = TruncatedMode(omega, tau, spectrum_fock_dim)
    residuals, _ = spectrum_residuals(spec_mode)
    sim = similarity_residual(spec_mode, spectrum_fock_dim // 4)

    mode = TruncatedMode(omega, tau, fock_dim)
    if unreachable_fock_dim(mode, temperature, dim_budget) is not None:
        # fail before any exact evolution: the budget cannot hold the state
        return OracleReport(residuals, float(sim), None, fock_dim, False)
    times = np.linspace(0.0, t_max, num_times)
    system = QubitSystem(omega0=1.0)
    ratios, dim_used, converged = exact_dephasing_converged(
        system, [(mode, g)], temperature, times, dim_budget=dim_budget,
    )
    closed = np.exp(-np.array([gamma_discrete(bath, t) for t in times]))
    max_err = float(np.max(np.abs(ratios - closed)))
    if thermal_tail_weight(TruncatedMode(omega, tau, dim_used), temperature) > TAIL_TOL:
        converged = False
    return OracleReport(
        spectrum_residuals=residuals,
        similarity_residual=float(sim),
        dephasing_max_error=max_err,
        fock_dim_used=int(dim_used),
        converged=bool(converged),
    )
