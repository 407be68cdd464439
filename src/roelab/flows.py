"""Flows a -> e^{ith} a e^{-ith}, the comparison map w(t) = e^{ith}e^{-itk},
cocycles built from the eigensystems of generator pairs, and their
quantitative audits.

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
class CocycleFamily:
    eigensystem: EigenSystem  # of h, the generator of the base flow
    # 1-D float64 times -> the (T, n, n) stack of u_t, as EigenSystem.exp_many
    u_many: Callable[[np.ndarray], np.ndarray]


def _elements(c: CocycleFamily, ts: np.ndarray) -> np.ndarray:
    """c.u_many(ts), checked: a (T, n, n) stack of unitaries, the identity
    at t = 0. An error names the time of the first element that fails."""
    n = c.eigensystem.vectors.shape[0]
    u = c.u_many(ts)
    if np.shape(u) != (len(ts), n, n):
        raise ValueError(f"element at t={ts[0]}: stack shape {np.shape(u)}")
    require_unitary(u, lambda i: f"element at t={ts[i]}")
    res0 = np.linalg.norm(u[ts == 0.0] - np.eye(n), axis=(1, 2))
    check(res0, UNITARY_TOL, lambda i: "u_0 is not the identity", ValueError)
    return u


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


def _expm1_many(es: EigenSystem, times: np.ndarray) -> np.ndarray:
    """The (T, n, n) stack of e^{ith} - 1 over times, as V diag(e^{it lambda}
    - 1) V^H with expm1, so a small t loses nothing to cancellation."""
    phases = np.expm1(1j * times[:, None] * es.eigenvalues[None, :])
    return (es.vectors * phases[:, None, :]) @ es.vectors.conj().T


def lipschitz_audit(h: OperatorMatrix, k: OperatorMatrix, times) -> Tuple[float, float]:
    """(max_ratio, bound): the max of ||w(t) - w(s)|| / |t - s| over grid
    pairs, and M = ||h - k||, which it may not exceed.

    Unitary invariance collapses the pair sweep: w(t) - w(s) =
    e^{ish} (w(t-s) - 1) e^{-isk}, so only the distinct positive time
    differences need a norm evaluation. With A = e^{idh} - 1 and
    B = e^{-idk} - 1, w(d) - 1 = A + B + AB is formed without subtracting
    1 from a unitary, which would cancel for close times.
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
        a, b = _expm1_many(eh, d), _expm1_many(ek, -d)
        ratios[sl] = spectral_norms(a + b + a @ b) / d
    limit = bound * (1.0 + LIPSCHITZ_TOL[0]) + LIPSCHITZ_TOL[1]
    check(ratios, limit, lambda i: f"Lipschitz ratio at |t - s| = {diffs[i]}")
    return float(ratios.max(initial=0.0)), bound


def cocycle_from_eigensystems(eh: EigenSystem, ek: EigenSystem) -> CocycleFamily:
    """The cocycle u_t = e^{itk} e^{-ith} intertwining sigma_k with sigma_h,
    from the eigensystems eh and ek of h and k."""
    return CocycleFamily(eh, lambda ts: ek.exp_many(ts) @ eh.exp_many(-ts))


def corrupt_at(c: CocycleFamily, t0: float) -> CocycleFamily:
    """Negative control: the element at t0 is replaced by the identity."""
    eye = np.eye(c.eigensystem.vectors.shape[0])

    def u_many(ts):
        hit = np.isclose(ts, t0, rtol=0.0, atol=1e-15)[:, None, None]
        return np.where(hit, eye, c.u_many(ts))

    return CocycleFamily(c.eigensystem, u_many)


def cocycle_residuals(c: CocycleFamily, ts, ss) -> np.ndarray:
    """(len ts, len ss) array of ||u_{t+s} - u_t sigma_{h,t}(u_s)|| for the
    family's flow sigma_h; each row t is one stack over s.

    Within a block of rows and columns, u_{t+s} is formed once per distinct
    sum t + s (2T - 1 of them, not T^2, on a uniform grid), a chunk at a
    time. Each matrix of a stack is computed on its own, so the residuals
    are those of one u_many(t + ss) call per row, bit for bit. Every stack
    formed is checked as it is formed (shape, unitarity, u_0 = 1).
    """
    ts = np.asarray(ts, dtype=np.float64)
    ss = np.asarray(ss, dtype=np.float64)
    es = c.eigensystem
    n = es.vectors.shape[0]
    out = np.zeros((len(ts), len(ss)))
    for tsl in chunks(len(ts), n, n):
        e_it, u_t = es.exp_many(ts[tsl]), _elements(c, ts[tsl])
        for sl in chunks(len(ss), n, n):
            u_s = _elements(c, ss[sl])
            sums, at = np.unique(ts[tsl, None] + ss[sl], return_inverse=True)
            at = at.reshape(len(e_it), -1)
            for part in chunks(len(sums), n, n):
                u_sum = _elements(c, sums[part])
                for i, row in enumerate(at):
                    cols = np.flatnonzero((row >= part.start) & (row < part.stop))
                    if cols.size:
                        moved = e_it[i] @ u_s[cols] @ e_it[i].conj().T
                        diff = u_sum[row[cols] - part.start] - u_t[i] @ moved
                        out[tsl.start + i, sl.start + cols] = spectral_norms(diff)
    return out


def lambda_scalar_residuals(
    eh: EigenSystem, ek: EigenSystem, u: CocycleFamily, times
) -> np.ndarray:
    """Per time t, the distance of lambda_t = e^{-ith} u_t e^{itk} from the
    scalar line, given the eigensystems eh and ek of h and k. Each stack of
    u_t is checked as the cocycle_residuals ones are.

    Cocycles that intertwine the flows on the full matrix algebra land in
    the commutant, which is the scalars in finite dimension. The
    intertwining direction matters: cocycle_from_eigensystems(eh, ek), with
    u_t = e^{itk} e^{-ith}, is read with h and k swapped, as
    lambda_scalar_residuals(ek, eh, ...), and then lambda_t =
    e^{-itk} u_t e^{ith} = 1 exactly. That lambda_t is the adjoint of the
    one the mirror family cocycle_from_eigensystems(ek, eh) gives unswapped,
    and the distance from the scalar line is invariant under adjoint.
    """
    times = np.asarray(times, dtype=np.float64)
    n = eh.vectors.shape[0]
    eye = np.eye(n)
    out = np.zeros(len(times))
    for sl in chunks(len(times), n, n):
        t = times[sl]
        lam = eh.exp_many(-t) @ _elements(u, t) @ ek.exp_many(t)
        mean = np.trace(lam, axis1=1, axis2=2) / n
        out[sl] = spectral_norms(lam - mean[:, None, None] * eye)
    return out

