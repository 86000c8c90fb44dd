"""Qubit dephasing under a PT-symmetric non-Hermitian bosonic bath."""

__version__ = "0.1.0"
