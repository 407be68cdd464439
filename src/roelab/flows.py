"""Flows a -> e^{ith} a e^{-ith}, the comparison map w(t) = e^{ith}e^{-itk},
cocycles built from generator pairs, and their quantitative audits.

Negative controls are first class: the suite must be able to tell a true
cocycle from a corrupted one, so corrupt_at() is part of the module API.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ._linalg import UNITARY_TOL, require_unitary, spectral_norm
from .errors import NumericCheckError
from .operator import OperatorMatrix, commutator, identity
from .spectral import EigenSystem, hermitian_eig, unitary_exp
from .translations import PartialTranslation, to_matrix


@dataclass(frozen=True)
class FlowGrid:
    generator: OperatorMatrix
    times: Tuple[float, ...]
    eigensystem: EigenSystem

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.size == 0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be a nonempty increasing grid")

    @classmethod
    def from_generator(cls, h: OperatorMatrix, times) -> "FlowGrid":
        return cls(h, tuple(float(t) for t in times), hermitian_eig(h))


@dataclass(frozen=True)
class CocycleFamily:
    base_flow: FlowGrid
    u_of_t: Callable[[float], OperatorMatrix]

    def __post_init__(self):
        for t in self.base_flow.times:
            u = self.u_of_t(t)
            require_unitary(u.entries, f"element at t={t}")
            if t == 0.0:
                res0 = float(np.linalg.norm(u.entries - np.eye(u.n)))
                if not res0 <= UNITARY_TOL:
                    raise ValueError(f"u_0 is not the identity: residual {res0:.3e}")

    def element(self, t: float) -> OperatorMatrix:
        return self.u_of_t(float(t))


def flow_apply(h: OperatorMatrix, t: float, a: OperatorMatrix) -> OperatorMatrix:
    """sigma_{h,t}(a) = e^{ith} a e^{-ith}."""
    u = unitary_exp(h, t)
    return u @ a @ u.H


def flow_derivative_residual(
    h: OperatorMatrix, f: PartialTranslation, delta: float
) -> float:
    """||(sigma_{h,delta}(v_f) - v_f)/delta - i[h, v_f]||; O(delta ||h||^2)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    vf = to_matrix(f)
    moved = flow_apply(h, delta, vf)
    diff = (moved.entries - vf.entries) / delta - 1j * commutator(h, vf).entries
    return spectral_norm(diff)


def w_map(h: OperatorMatrix, k: OperatorMatrix, t: float) -> OperatorMatrix:
    """w_{h,k}(t) = e^{ith} e^{-itk}."""
    return unitary_exp(h, t) @ unitary_exp(k, -t)


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    bound: float


def lipschitz_audit(h: OperatorMatrix, k: OperatorMatrix, times) -> LipschitzReport:
    """Max of ||w(t) - w(s)|| / |t - s| over grid pairs, against M = ||h - k||.

    Unitary invariance collapses the pair sweep: w(t) - w(s) =
    e^{ish} (w(t-s) - 1) e^{-isk}, so only the distinct positive time
    differences need a norm evaluation.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("grid needs at least 2 points")
    bound = spectral_norm(h.entries - k.entries)
    diffs = np.unique(np.abs(times[None, :] - times[:, None]))
    diffs = diffs[diffs > 0]
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    eye = np.eye(h.n)
    max_ratio = 0.0
    for d in diffs:
        ratio = spectral_norm((eh.exp(d) @ ek.exp(-d)).entries - eye) / d
        max_ratio = max(max_ratio, ratio)
    # the 1e-9 absolute slack absorbs float noise when h is close to k and
    # the true ratio is essentially zero
    if max_ratio > bound * (1.0 + 1e-8) + 1e-9:
        raise NumericCheckError(
            f"Lipschitz ratio {max_ratio} exceeds bound ||h-k|| = {bound}"
        )
    return LipschitzReport(max_ratio, bound)


def cocycle_from_generators(
    h: OperatorMatrix, k: OperatorMatrix, times
) -> CocycleFamily:
    """The cocycle u_t = e^{itk} e^{-ith} intertwining sigma_k with sigma_h."""
    grid = FlowGrid.from_generator(h, times)
    eh, ek = grid.eigensystem, hermitian_eig(k)

    def u_of_t(t: float) -> OperatorMatrix:
        return ek.exp(t) @ eh.exp(-t)

    return CocycleFamily(grid, u_of_t)


def corrupt_at(c: CocycleFamily, t0: float) -> CocycleFamily:
    """Negative control: the element at t0 is replaced by the identity."""
    ident = identity(c.base_flow.generator.space)

    def u_of_t(t: float) -> OperatorMatrix:
        if np.isclose(t, t0, rtol=0.0, atol=1e-15):
            return ident
        return c.element(t)

    return CocycleFamily(c.base_flow, u_of_t)


def cocycle_residual(c: CocycleFamily, t: float, s: float) -> float:
    """||u_{t+s} - u_t sigma_{h,t}(u_s)|| for the family's base flow."""
    e_ith = c.base_flow.eigensystem.exp(t)
    u_ts = c.element(t + s)
    u_t = c.element(t)
    u_s = c.element(s)
    rhs = u_t @ (e_ith @ u_s @ e_ith.H)
    return spectral_norm(u_ts.entries - rhs.entries)


def lambda_scalar_residual(
    eh: EigenSystem, ek: EigenSystem, u: CocycleFamily, t: float
) -> float:
    """Distance of lambda_t = e^{-ith} u_t e^{itk} from the scalar line,
    given the eigensystems eh and ek of h and k.

    Cocycles that intertwine the flows on the full matrix algebra land in
    the commutant, which is the scalars in finite dimension. The
    intertwining direction matters: the family with u_t = e^{ith} e^{-itk}
    (cocycle_from_generators(k, h)) gives lambda_t = 1 exactly.
    """
    lam = (eh.exp(-t) @ u.element(t) @ ek.exp(t)).entries
    n = lam.shape[0]
    mean = np.trace(lam) / n
    return spectral_norm(lam - mean * np.eye(n))


def diagonal_closeness(h_vals, k_vals) -> float:
    """max_x |h_x - k_x| for two real point functions; equals the operator
    norm of diag(h - k)."""
    h_vals = np.asarray(h_vals, dtype=np.float64)
    k_vals = np.asarray(k_vals, dtype=np.float64)
    if h_vals.shape != k_vals.shape:
        raise ValueError("point functions must live on the same space")
    return float(np.abs(h_vals - k_vals).max())
