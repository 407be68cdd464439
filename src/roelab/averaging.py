"""Averaging over the sign group {-1,+1}^X.

Conjugating by every diagonal +/-1 unitary and averaging uniformly extracts
the diagonal exactly; on a finite group the uniform measure is the unique
invariant mean, so nothing else needs to be exposed. The same machinery
drives the constructive finite-propagation extraction.
"""

from typing import Callable

import numpy as np

from ._linalg import ZERO_PROP_TOL, check, chunks, require_hermitian, spectral_norm
from .errors import SizeGuardError
from .operator import OperatorMatrix, expectation
from .space import FiniteSpace

BRUTE_GUARD = 14


def _sign_blocks(n: int, count: int):
    """The first count vectors of {-1,+1}^n in canonical order, as int8
    blocks of one n x n stack's worth of rows."""
    powers = 1 << np.arange(n - 1, -1, -1)
    for sl in chunks(count, n, n):
        index = np.arange(sl.start, min(sl.stop, count))
        bits = (index[:, None] & powers) != 0
        yield np.where(bits, 1, -1).astype(np.int8)


def all_sign_vectors(n: int):
    """{-1,+1}^n as int8 rows, in canonical (lexicographic, -1 first) order."""
    for block in _sign_blocks(n, 1 << n):
        yield from block


def conjugate_by_sign(a: OperatorMatrix, eps) -> OperatorMatrix:
    """pi(eps)^* a pi(eps) for a +/-1 row eps: entry (x, y) gains eps_x eps_y."""
    s = np.asarray(eps, dtype=np.float64)
    if s.shape != (a.n,) or not (np.abs(s) == 1).all():
        raise ValueError(f"eps must be a row of {a.n} signs +/-1")
    return OperatorMatrix(a.space, a.entries * np.outer(s, s))


def brute_average(
    space: FiniteSpace, family: Callable[[np.ndarray], OperatorMatrix]
) -> OperatorMatrix:
    """2^{-n} sum of family(eps) over all sign vectors, summed in the
    canonical order so the float result is reproducible."""
    n = space.n_points
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    acc = np.zeros((n, n), dtype=np.complex128)
    for eps in all_sign_vectors(n):
        acc += family(eps).entries
    return OperatorMatrix(space, acc / float(2**n))


def extract_finite_prop(h: OperatorMatrix, r: float):
    """(h_prime, defect, zero_prop_residual): the propagation-<=r approximant
    h' = w + h - truncate(w, r) of a Hermitian h, its defect ||h - h'|| and
    ||w + h - E(h)||, where w averages m_eps = pi(eps)^* h pi(eps) - h over
    the sign group (truncation is entrywise, so it commutes with the average).
    m_eps = m_{-eps}, so w runs over the first half of the canonical order
    (eps_0 = -1), a stack at a time. w + h must equal E(h) within
    ZERO_PROP_TOL: that identity is checked on every run.
    """
    n = h.n
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    require_hermitian(h.entries)
    if not r >= 0:
        raise ValueError("radius must be nonnegative")

    minus_twice_h = -2.0 * h.entries
    w_sum = np.zeros((n, n), dtype=np.complex128)
    half = 1 << (n - 1)
    for block in _sign_blocks(n, half):
        # h o (eps eps^T) - h, computed as what it is entrywise: -2 h_xy
        # where eps_x != eps_y and 0 elsewhere (the same floats either way)
        flip = block[:, :, None] != block[:, None, :]
        w_sum += np.where(flip, minus_twice_h, 0.0).sum(axis=0)

    w = w_sum / float(half)
    w_plus_h = w + h.entries
    h_prime = w_plus_h - np.where(h.space.dist <= r, w, 0.0)
    defect = spectral_norm(h.entries - h_prime)
    zero_prop_residual = spectral_norm(w_plus_h - expectation(h).entries)
    check(zero_prop_residual, ZERO_PROP_TOL, "w + h deviates from E(h)")
    return OperatorMatrix(h.space, h_prime), defect, zero_prop_residual
