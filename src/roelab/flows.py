"""Flows a -> e^{ith} a e^{-ith}, the central-difference generator check of
u_t = e^{ith}, the comparison map w(t) = e^{ith}e^{-itk}, cocycles built from
the eigensystems of generator pairs, and their quantitative audits.

Negative controls are first class: the suite must be able to tell a true
cocycle from a corrupted one, so corrupt_at() is part of the module API.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ._linalg import LIPSCHITZ_TOL, UNITARY_TOL, EigenSystem, check, chunk_len, chunks
from ._linalg import expm1_over_t, hermitian_eig, require_unitary, spectral_norm
from ._linalg import spectral_norms
from .operator import OperatorMatrix
from .space import sorted_distinct


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
    ||t q o A|| and ||(q - iD) o A|| with q = (e^{itD} - 1)/t, formed as
    expm1_over_t: nothing cancels at a small t or is divided by t.
    """
    times = np.asarray(times, dtype=np.float64)
    es = hermitian_eig(h)
    v = es.vectors
    a_eig = v.conj().T @ a.entries @ v
    modulus = np.zeros(len(times))
    residual = np.zeros(len(times))
    # an overflow leaves a non-finite entry, refused by spectral_norms
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = es.eigenvalues[:, None] - es.eigenvalues[None, :]
        for sl in chunks(len(times), h.n, h.n):
            t = times[sl, None, None]
            q = expm1_over_t(t, gaps)
            modulus[sl] = spectral_norms(t * q * a_eig)
            live = t[:, 0, 0] != 0.0
            residual[sl][live] = spectral_norms((q[live] - 1j * gaps) * a_eig)
    return modulus, residual


def generator_check(h: OperatorMatrix, delta: float) -> float:
    """Residual of the central difference (u_delta - u_{-delta}) / 2 delta
    against i*h, for u_t = e^{ith} and a step delta > 0. Second-order
    accurate: the residual scales like delta^2 ||h||^3 / 6.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"step must be positive and finite, got {delta!r}")
    # (q_delta + q_{-delta}) / 2 with q_t = (u_t - 1)/t: no two unitaries
    # are subtracted, which would cancel at a small step
    q_p, q_m = hermitian_eig(h).expm1_over_t_many([delta, -delta])
    return spectral_norm((q_p + q_m) / 2.0 - 1j * h.entries)


def lipschitz_audit(h: OperatorMatrix, k: OperatorMatrix, times) -> Tuple[float, float]:
    """(max_ratio, bound): the max of ||w(t) - w(s)|| / |t - s| over grid
    pairs, and M = ||h - k||, which it may not exceed.

    Unitary invariance collapses the pair sweep: w(t) - w(s) =
    e^{ish} (w(t-s) - 1) e^{-isk}, so only the distinct positive time
    differences need a norm evaluation. With P = (e^{idh} - 1)/d and
    Q = (e^{-idk} - 1)/(-d), (w(d) - 1)/d = P - Q - d PQ is formed with no
    1 taken from a unitary, which would cancel for close times.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("grid needs at least 2 points")
    if not np.isfinite(times).all():
        raise ValueError("grid times must be finite")
    bound = spectral_norm(h.entries - k.entries)
    diffs = sorted_distinct(np.abs(times[None, :] - times[:, None]))
    diffs = diffs[diffs > 0]
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    ratios = np.empty(len(diffs))
    for sl in chunks(len(diffs), h.n, h.n):
        d = diffs[sl]
        p, q = eh.expm1_over_t_many(d), ek.expm1_over_t_many(-d)
        ratios[sl] = spectral_norms(p - q - d[:, None, None] * (p @ q))
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


def cocycle_residuals(
    c: CocycleFamily, ek: EigenSystem, ts, ss
) -> Tuple[np.ndarray, np.ndarray]:
    """(residuals, lam) for the family's flow sigma_h and the eigensystem ek
    of k, from one pass over blocks of rows t.

    residuals is the (len ts, len ss) array of ||u_{t+s} - u_t sigma_{h,t}(u_s)||.
    lam[i] is the distance of lambda_t = e^{-itk} u_t e^{ith} from the
    scalar line at t = ts[i]: Ad(u_t) o sigma_{h,t} is sigma_{k,t} exactly
    when lambda_t is in the commutant, the scalars in finite dimension. For
    cocycle_from_eigensystems(eh, ek), lambda_t = 1. ss = [] gives lam alone.

    A block of rows forms e^{ith} and u_t once, and lambda_t from them and
    one e^{-itk} stack. Within a block of rows and columns, u_{t+s} is
    formed once per distinct sum t + s (2T - 1, not T^2, on a uniform
    grid), a chunk at a time; a block whose s are its t (ss is ts in the
    CLI) reads u_s from u_t; the pair differences are normed in stacks of
    up to 128 KiB. Each matrix of a stack is computed on its own, so the
    residuals are those of one u_many(t + ss) per row, bit for bit. Every
    stack formed is checked (shape, unitarity, u_0 = 1).
    """
    ts = np.asarray(ts, dtype=np.float64)
    ss = np.asarray(ss, dtype=np.float64)
    es = c.eigensystem
    n = es.vectors.shape[0]
    out = np.zeros((len(ts), len(ss)))
    lam = np.zeros(len(ts))
    # pairs per stack of differences: within the chunk rule and at most 2**13
    # complex entries (128 KiB); a larger temporary is mapped afresh per call
    step = max(1, min(chunk_len(n, n), 2**13 // (n * n)))
    for tsl in chunks(len(ts), n, n):
        e_it, u_t = es.exp_many(ts[tsl]), _elements(c, ts[tsl])
        lam_t = ek.exp_many(-ts[tsl]) @ u_t @ e_it
        mean = np.trace(lam_t, axis1=1, axis2=2) / n
        lam[tsl] = spectral_norms(lam_t - mean[:, None, None] * np.eye(n))
        for sl in chunks(len(ss), n, n):
            u_s = u_t if np.array_equal(ss[sl], ts[tsl]) else _elements(c, ss[sl])
            sums, at = np.unique(ts[tsl, None] + ss[sl], return_inverse=True)
            at = at.reshape(-1)
            for part in chunks(len(sums), n, n):
                u_sum = _elements(c, sums[part])
                pairs = np.flatnonzero((at >= part.start) & (at < part.stop))
                for lo in range(0, len(pairs), step):
                    p = pairs[lo : lo + step]
                    i, j = np.divmod(p, len(u_s))
                    e = e_it[i]
                    moved = e @ u_s[j] @ e.conj().transpose(0, 2, 1)
                    diff = u_sum[at[p] - part.start] - u_t[i] @ moved
                    out[tsl.start + i, sl.start + j] = spectral_norms(diff)
    return out, lam
