"""Flows a -> e^{ith} a e^{-ith}, the comparison map w(t) = e^{ith}e^{-itk},
cocycles built from generator pairs, and their quantitative audits.

Negative controls are first class: the suite must be able to tell a true
cocycle from a corrupted one, so corrupt_at() is part of the module API.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ._linalg import LIPSCHITZ_TOL, UNITARY_TOL, check, chunks, require_unitary
from ._linalg import spectral_norm, spectral_norms
from .operator import OperatorMatrix
from .spectral import EigenSystem, hermitian_eig


@dataclass(frozen=True)
class FlowGrid:
    generator: OperatorMatrix
    times: Tuple[float, ...]
    eigensystem: EigenSystem

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.size == 0 or not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError("times must be a nonempty increasing finite grid")

    @classmethod
    def from_generator(cls, h: OperatorMatrix, times) -> "FlowGrid":
        return cls(h, tuple(float(t) for t in times), hermitian_eig(h))


@dataclass(frozen=True)
class CocycleFamily:
    base_flow: FlowGrid
    # 1-D float64 times -> the (T, n, n) stack of u_t, as EigenSystem.exp_many
    u_many: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        times = self.base_flow.times
        n = self.base_flow.generator.n
        for sl in chunks(len(times), n, n):
            ts = times[sl]
            u = self.u_many(np.array(ts))
            if np.shape(u) != (len(ts), n, n):
                raise ValueError(f"element at t={ts[0]}: stack shape {np.shape(u)}")
            for t, u_t in zip(ts, u):
                require_unitary(u_t, f"element at t={t}")
                res0 = np.linalg.norm(u_t - np.eye(n)) if t == 0.0 else 0.0
                check(res0, UNITARY_TOL, "u_0 is not the identity", ValueError)


def flow_profile(h: OperatorMatrix, a: OperatorMatrix, times):
    """Per grid time t, the modulus ||sigma_{h,t}(a) - a|| and the derivative
    residual ||(sigma_{h,t}(a) - a)/t - i[h, a]|| (0 at t = 0), as two arrays.

    Both are taken in the eigenbasis of h = V diag(lambda) V^H (Higham,
    Functions of Matrices, 2008, section 10). With A = V^H a V and
    D_xy = lambda_x - lambda_y, V^H sigma_{h,t}(a) V = e^{itD} o A and
    V^H i[h, a] V = iD o A, and unitary invariance of the norm gives
    ||(e^{itD} - 1) o A|| and ||((e^{itD} - 1)/t - iD) o A||.
    """
    times = np.asarray(times, dtype=np.float64)
    es = hermitian_eig(h)
    v = es.vectors
    a_eig = v.conj().T @ a.entries @ v
    gaps = es.eigenvalues[:, None] - es.eigenvalues[None, :]
    modulus = np.zeros(len(times))
    residual = np.zeros(len(times))
    for sl in chunks(len(times), h.n, h.n):
        t = times[sl, None, None]
        moved = np.exp(1j * t * gaps) - 1.0
        modulus[sl] = spectral_norms(moved * a_eig)
        quotient = moved / np.where(t != 0.0, t, 1.0) - 1j * gaps
        residual[sl] = spectral_norms(quotient * a_eig)
    residual[times == 0.0] = 0.0
    return modulus, residual


def lipschitz_audit(h: OperatorMatrix, k: OperatorMatrix, times) -> Tuple[float, float]:
    """(max_ratio, bound): the max of ||w(t) - w(s)|| / |t - s| over grid
    pairs, and M = ||h - k||, which it may not exceed.

    Unitary invariance collapses the pair sweep: w(t) - w(s) =
    e^{ish} (w(t-s) - 1) e^{-isk}, so only the distinct positive time
    differences need a norm evaluation.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("grid needs at least 2 points")
    if not np.isfinite(times).all():
        raise ValueError("grid times must be finite")
    bound = spectral_norm(h.entries - k.entries)
    diffs = np.unique(np.abs(times[None, :] - times[:, None]))
    diffs = diffs[diffs > 0]
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    ratios = np.empty(len(diffs))
    for sl in chunks(len(diffs), h.n, h.n):
        d = diffs[sl]
        w = eh.exp_many(d) @ ek.exp_many(-d)
        ratios[sl] = spectral_norms(w - np.eye(h.n)) / d
    limit = bound * (1.0 + LIPSCHITZ_TOL[0]) + LIPSCHITZ_TOL[1]
    check(ratios, limit, lambda i: f"Lipschitz ratio at |t - s| = {diffs[i]}")
    return float(ratios.max(initial=0.0)), bound


def cocycle_from_generators(
    h: OperatorMatrix, k: OperatorMatrix, times
) -> CocycleFamily:
    """The cocycle u_t = e^{itk} e^{-ith} intertwining sigma_k with sigma_h."""
    grid = FlowGrid.from_generator(h, times)
    return cocycle_from_eigensystems(grid, hermitian_eig(k))


def cocycle_from_eigensystems(grid: FlowGrid, ek: EigenSystem) -> CocycleFamily:
    """cocycle_from_generators from the flow grid of h and the eigensystem of
    k, for a caller that needs e^{itk} again and so keeps ek."""
    eh = grid.eigensystem
    return CocycleFamily(grid, lambda ts: ek.exp_many(ts) @ eh.exp_many(-ts))


def corrupt_at(c: CocycleFamily, t0: float) -> CocycleFamily:
    """Negative control: the element at t0 is replaced by the identity."""
    eye = np.eye(c.base_flow.generator.n)

    def u_many(ts):
        hit = np.isclose(ts, t0, rtol=0.0, atol=1e-15)[:, None, None]
        return np.where(hit, eye, c.u_many(ts))

    return CocycleFamily(c.base_flow, u_many)


def cocycle_residuals(c: CocycleFamily, ts, ss) -> np.ndarray:
    """(len ts, len ss) array of ||u_{t+s} - u_t sigma_{h,t}(u_s)|| for the
    family's base flow; each row t is one stack over s."""
    ts = np.asarray(ts, dtype=np.float64)
    ss = np.asarray(ss, dtype=np.float64)
    es = c.base_flow.eigensystem
    n = es.vectors.shape[0]
    out = np.zeros((len(ts), len(ss)))
    for tsl in chunks(len(ts), n, n):
        e_it, u_t = es.exp_many(ts[tsl]), c.u_many(ts[tsl])
        for sl in chunks(len(ss), n, n):
            u_s = c.u_many(ss[sl])
            for i, t in enumerate(ts[tsl]):
                moved = e_it[i] @ u_s @ e_it[i].conj().T
                rhs = u_t[i] @ moved
                out[tsl.start + i, sl] = spectral_norms(c.u_many(t + ss[sl]) - rhs)
    return out


def lambda_scalar_residuals(
    eh: EigenSystem, ek: EigenSystem, u: CocycleFamily, times
) -> np.ndarray:
    """Per time t, the distance of lambda_t = e^{-ith} u_t e^{itk} from the
    scalar line, given the eigensystems eh and ek of h and k.

    Cocycles that intertwine the flows on the full matrix algebra land in
    the commutant, which is the scalars in finite dimension. The
    intertwining direction matters: cocycle_from_generators(h, k), with
    u_t = e^{itk} e^{-ith}, is read with h and k swapped, as
    lambda_scalar_residuals(ek, eh, ...), and then lambda_t =
    e^{-itk} u_t e^{ith} = 1 exactly. That lambda_t is the adjoint of the
    one the mirror family cocycle_from_generators(k, h) gives unswapped,
    and the distance from the scalar line is invariant under adjoint.
    """
    times = np.asarray(times, dtype=np.float64)
    n = eh.vectors.shape[0]
    eye = np.eye(n)
    out = np.zeros(len(times))
    for sl in chunks(len(times), n, n):
        t = times[sl]
        lam = eh.exp_many(-t) @ u.u_many(t) @ ek.exp_many(t)
        mean = np.trace(lam, axis1=1, axis2=2) / n
        out[sl] = spectral_norms(lam - mean[:, None, None] * eye)
    return out


def diagonal_closeness(h_vals, k_vals) -> float:
    """max_x |h_x - k_x| for two real point functions; equals the operator
    norm of diag(h - k)."""
    h_vals = np.asarray(h_vals, dtype=np.float64)
    k_vals = np.asarray(k_vals, dtype=np.float64)
    if h_vals.shape != k_vals.shape:
        raise ValueError("point functions must live on the same space")
    return float(np.abs(h_vals - k_vals).max())
