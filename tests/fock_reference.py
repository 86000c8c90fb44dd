"""Dense truncated-Fock references for the oracle.

Deliberately independent of the oracle's band assembly: the ladder operator as
a matrix, the Hamiltonians and the metric as products of it, tensor products by
np.kron, and the dephasing ratio from one eigendecomposition per spin branch.
The library builds one mode's Hermitian equivalent from its bands and evolves
both branches from one eigendecomposition; a bath's ratio is the product of
its modes' ratios.
"""

import math

import numpy as np


def annihilation(dim: int) -> np.ndarray:
    """Truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def dense_hamiltonian_nh(mode):
    """The PT-symmetric bath Hamiltonian w (a'a + 1/2) + tau w (a^2 - a'^2 + 1)."""
    a = annihilation(mode.fock_dim)
    ad, ident = a.T, np.eye(mode.fock_dim)
    return (mode.omega * (ad @ a + 0.5 * ident)
            + mode.tau * mode.omega * (a @ a - ad @ ad + ident)).astype(complex)


def dense_hamiltonian_h(mode):
    """Its Hermitian equivalent w [a'a + 1/2 + tau - tau^2 (a - a')^2]."""
    a = annihilation(mode.fock_dim)
    q = a - a.T
    return mode.omega * (a.T @ a + (0.5 + mode.tau) * np.eye(mode.fock_dim)
                         - mode.tau**2 * (q @ q)).astype(complex)


def dense_metric(mode, inverse=False):
    """The metric eta = exp[-(tau/2)(a - a')^2], or its inverse."""
    a = annihilation(mode.fock_dim)
    q = a - a.T
    vals, vecs = np.linalg.eigh((0.5 if inverse else -0.5) * mode.tau * (q @ q))
    return (vecs * np.exp(vals)) @ vecs.T


def nh_spectrum_residuals(mode, levels=5):
    """Distance of the `levels` lowest eigenvalues of dense_hamiltonian_nh from
    the shifted ladder Omega (n + 1/2) + omega tau, Omega = omega sqrt(1 + 4 tau^2),
    and the largest imaginary part among them."""
    vals = np.linalg.eigvals(dense_hamiltonian_nh(mode))
    vals = vals[np.argsort(vals.real)][:levels]
    big_omega = mode.omega * math.sqrt(1.0 + 4.0 * mode.tau**2)
    target = big_omega * (np.arange(levels) + 0.5) + mode.omega * mode.tau
    return np.abs(vals.real - target), float(np.max(np.abs(vals.imag)))


def similarity_residual(mode, h, interior_dim):
    """Max-norm mismatch of eta H_nh eta^-1 against `h` on the top-left
    interior_dim block: the truncation corrupts the edge rows."""
    h_sim = dense_metric(mode) @ dense_hamiltonian_nh(mode) @ dense_metric(mode, inverse=True)
    k = interior_dim
    return float(np.max(np.abs((h_sim - h)[:k, :k])))


def dense_branches(modes):
    """H + V and H - V on the tensor product space, each mode's operator
    tensored with identities."""
    dims = [m.fock_dim for m, _ in modes]
    total = math.prod(dims)
    h = np.zeros((total, total), dtype=complex)
    v = np.zeros((total, total), dtype=complex)
    for i, (mode, g) in enumerate(modes):
        a = annihilation(mode.fock_dim).astype(complex)
        vb = g.as_complex * a.conj().T + np.conj(g.as_complex) * a
        left, right = np.eye(math.prod(dims[:i])), np.eye(math.prod(dims[i + 1:]))
        h += np.kron(np.kron(left, dense_hamiltonian_h(mode)), right)
        v += np.kron(np.kron(left, vb), right)
    return h + v, h - v


def boltzmann_weights(mode, temperature):
    """exp(-omega n / T) over the levels n of the mode, normalized; the
    vacuum at T = 0."""
    n = np.arange(mode.fock_dim)
    w = (n == 0).astype(float) if temperature == 0.0 else np.exp(-mode.omega * n / temperature)
    return w / w.sum()


def dense_exact_dephasing(modes, temperature, times):
    """|Tr(exp(-i H_minus t) rho exp(+i H_plus t))| with an eigendecomposition
    of each branch and a dense thermal state."""
    h_plus, h_minus = dense_branches(modes)
    e_p, v_p = np.linalg.eigh(h_plus)
    e_m, v_m = np.linalg.eigh(h_minus)
    pop = np.ones(1)
    for mode, _ in modes:
        pop = np.kron(pop, boltzmann_weights(mode, temperature))
    rho = np.diag(pop)
    c = (v_m.conj().T @ rho @ v_p) * (v_p.conj().T @ v_m).T
    return np.array([abs(np.exp(-1j * e_m * t) @ c @ np.exp(1j * e_p * t)) for t in times])
