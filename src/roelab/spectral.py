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


def generator_check(u_grid) -> float:
    """Residual of the central difference (u_d - u_{-d}) / 2d against i*h.

    u_grid is a FlowGrid for t -> e^{ith}; the smallest positive grid time
    with a mirrored negative partner supplies the step. Second-order
    accurate: the residual scales like d^2 ||h||^3 / 6.
    """
    times = np.asarray(u_grid.times, dtype=np.float64)
    pos = sorted(t for t in times if t > 0)
    delta = None
    for t in pos:
        if np.any(np.isclose(times, -t, rtol=0.0, atol=1e-15)):
            delta = t
            break
    if delta is None:
        raise ValueError("grid has no symmetric +/-delta pair around 0")
    u_p, u_m = u_grid.eigensystem.exp_many([delta, -delta])
    diff = (u_p - u_m) / (2.0 * delta) - 1j * u_grid.generator.entries
    return spectral_norm(diff)
