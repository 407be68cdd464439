"""Averaging over the sign group {-1,+1}^X.

Conjugating by every diagonal +/-1 unitary and averaging uniformly extracts
the diagonal exactly; on a finite group the uniform measure is the unique
invariant mean, so nothing else needs to be exposed. The same machinery
drives the constructive finite-propagation extraction.
"""

from typing import Callable

import numpy as np

from ._linalg import ZERO_PROP_TOL, check, require_hermitian, spectral_norm
from .errors import SizeGuardError
from .operator import OperatorMatrix, expectation
from .space import FiniteSpace

BRUTE_GUARD = 14
# Rows per block of sign bits: a (256, 14) int64 or float64 block is 28 KiB.
# Blocks of 1024 rows (112 KiB) ran 6% faster at n = 12 but raised the peak
# RSS of a long run of small jobs by 0.3 MB.
_BLOCK_ROWS = 256


def _sign_bits(n: int, count: int):
    """The first count vectors of {-1,+1}^n in canonical order, as bool
    blocks of at most _BLOCK_ROWS rows (True for +1)."""
    powers = 1 << np.arange(n - 1, -1, -1)
    for lo in range(0, count, _BLOCK_ROWS):
        index = np.arange(lo, min(lo + _BLOCK_ROWS, count))
        yield (index[:, None] & powers) != 0


def all_sign_vectors(n: int):
    """{-1,+1}^n as int8 rows, in canonical (lexicographic, -1 first) order."""
    for bits in _sign_bits(n, 1 << n):
        yield from np.where(bits, 1, -1).astype(np.int8)


def _flip_counts(n: int, count: int):
    """C_xy = #{eps : eps_x != eps_y} over the first count vectors of the
    canonical order, as a float64 array: s_x + s_y - 2 G_xy with G = B^T B
    summed over the blocks B of 0/1 bits and s the column sums of the B,
    which is G's diagonal (b^2 = b). Every partial sum is an integer of at
    most 2^14, so the floats are exact whatever the BLAS."""
    gram = np.zeros((n, n))
    for bits in _sign_bits(n, count):
        b = bits.astype(np.float64)
        gram += b.T @ b
    s = gram.diagonal()
    return s[:, None] + s[None, :] - 2.0 * gram


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
    (eps_0 = -1). Entry (x, y) of m_eps is -2 h_xy where eps_x != eps_y and 0
    elsewhere, so w = (-2 C / 2^(n-1)) o h with C the exact flip counts of
    those 2^(n-1) vectors. C_xy = 2^(n-2) for x != y, so w = -h off the
    diagonal bit for bit, h' = truncate(h, r) bit for bit and the residual
    is 0.0. w + h must equal E(h) within ZERO_PROP_TOL: that identity is
    checked on every run, so a miscounted enumeration still fails it.
    """
    n = h.n
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    require_hermitian(h.entries)
    if not r >= 0:
        raise ValueError("radius must be nonnegative")

    half = 1 << (n - 1)
    w = (-2.0 / half) * _flip_counts(n, half) * h.entries
    # h' = h + (w - truncate(w, r)); -0 adds nothing, not even to a signed
    # zero, so h' keeps h's entries within r exactly
    h_prime = h.entries + np.where(h.space.dist > r, w, complex(-0.0, -0.0))
    defect = spectral_norm(h.entries - h_prime)
    zero_prop_residual = spectral_norm(w + h.entries - expectation(h).entries)
    check(zero_prop_residual, ZERO_PROP_TOL, "w + h deviates from E(h)")
    return OperatorMatrix(h.space, h_prime), defect, zero_prop_residual
