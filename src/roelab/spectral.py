"""Hermitian spectral calculus: eigendecomposition, unitary exponentials,
and the central-difference generator check."""

from dataclasses import dataclass

import numpy as np

from ._linalg import eigh, require_hermitian, spectral_norm
from .operator import OperatorMatrix


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray  # ascending, real
    vectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]

    def exp_many(self, times) -> np.ndarray:
        """The (T, n, n) stack of e^{ith} over times, each by the spectral
        theorem: V diag(e^{it lambda}) V^H. Callers bound T by the chunk rule."""
        t = np.asarray(times, dtype=np.float64)
        phases = np.exp(1j * t[:, None] * self.eigenvalues[None, :])
        return (self.vectors * phases[:, None, :]) @ self.vectors.conj().T


def hermitian_eig(a: OperatorMatrix) -> EigenSystem:
    """LAPACK eigendecomposition; input must pass require_hermitian.

    Solves on every call: a sweep over many times diagonalizes its
    generator once and evaluates the returned EigenSystem.
    """
    require_hermitian(a.entries)
    w, v = eigh(0.5 * (a.entries + a.entries.conj().T))
    return EigenSystem(w, v)


def generator_check(h: OperatorMatrix, delta: float) -> float:
    """Residual of the central difference (u_delta - u_{-delta}) / 2 delta
    against i*h, for u_t = e^{ith} and a step delta > 0. Second-order
    accurate: the residual scales like delta^2 ||h||^3 / 6.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"step must be positive and finite, got {delta!r}")
    u_p, u_m = hermitian_eig(h).exp_many([delta, -delta])
    diff = (u_p - u_m) / (2.0 * delta) - 1j * h.entries
    return spectral_norm(diff)
