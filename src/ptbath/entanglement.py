"""Two-qubit entanglement: Wootters concurrence, entanglement of formation,
and the Bell state dephased through one local channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import density_matrix

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


class TwoQubitState:
    """4x4 density matrix, validated on construction."""

    def __init__(self, rho):
        self.rho = density_matrix(rho, 4, eig_tol=1e-10)

    def __repr__(self):
        return f"TwoQubitState({self.rho!r})"


@dataclass(frozen=True)
class ConcurrenceResult:
    concurrence: float
    lambdas: tuple[float, float, float, float]


def concurrence(state: TwoQubitState) -> ConcurrenceResult:
    """Wootters concurrence from the spin-flipped matrix
    R = rho (sy x sy) rho* (sy x sy).

    The lambdas (square roots of the spectrum of R) are computed as the
    singular values of sqrt(rho)^T (sy x sy) sqrt(rho): taking the square
    root before the spectral decomposition avoids the half-precision loss
    a direct eigendecomposition of R would suffer near lambda = 0.
    """
    rho = state.rho
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root.T @ _SY_SY @ root, compute_uv=False)
    lam = np.sort(lam)[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return ConcurrenceResult(concurrence=c, lambdas=tuple(float(v) for v in lam))


def dephased_bell(gamma: float) -> TwoQubitState:
    """|Phi+> after pure dephasing of one qubit: unit diagonal corners,
    anti-diagonal corners e^-gamma, everything over 2."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    d = math.exp(-gamma)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 0.5 * d
    return TwoQubitState(rho)


def _binary_entropy(x: float) -> float:
    # endpoint limit 0*log(0) = 0
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation for two qubits: the binary entropy
    evaluated at x = (1 + sqrt(1 - C^2)) / 2."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    return _binary_entropy(x)
