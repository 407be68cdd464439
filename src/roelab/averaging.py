"""Averaging over the sign group {-1,+1}^X.

Conjugating by every diagonal +/-1 unitary and averaging uniformly extracts
the diagonal exactly; on a finite group the uniform measure is the unique
invariant mean, so nothing else needs to be exposed. The finite-propagation
extraction takes that average in closed form; `brute_average`, which
enumerates the group, is the reference it is checked against.
"""

import itertools
from typing import Callable

import numpy as np

from ._linalg import ZERO_PROP_TOL, check, require_hermitian, spectral_norm
from .errors import SizeGuardError
from .operator import OperatorMatrix, expectation
from .space import FiniteSpace

BRUTE_GUARD = 14


def all_sign_vectors(n: int):
    """{-1,+1}^n as int8 rows, in canonical (lexicographic, -1 first) order."""
    for signs in itertools.product((-1, 1), repeat=n):
        yield np.array(signs, dtype=np.int8)


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
    Entry (x, y) of m_eps is -2 h_xy where eps_x != eps_y and 0 elsewhere,
    and each pair x != y is flipped by exactly half the group, so w is -h off
    the diagonal and 0 on it: a closed form at any n, with no enumeration.
    Then h' = truncate(h, r) bit for bit and the residual is 0.0. w + h must
    equal E(h) within ZERO_PROP_TOL min(1, max|h_xy|), a bound that shrinks
    with a small h and is never looser than ZERO_PROP_TOL.
    """
    require_hermitian(h.entries)
    if not r >= 0:
        raise ValueError("radius must be nonnegative")

    w = -h.entries
    np.fill_diagonal(w, 0.0)
    # h' = h + (w - truncate(w, r)); -0 adds nothing, not even to a signed
    # zero, so h' keeps h's entries within r exactly
    h_prime = h.entries + np.where(h.space.dist > r, w, complex(-0.0, -0.0))
    defect = spectral_norm(h.entries - h_prime)
    zero_prop_residual = spectral_norm(w + h.entries - expectation(h).entries)
    bound = ZERO_PROP_TOL * min(1.0, float(np.abs(h.entries).max(initial=0.0)))
    check(zero_prop_residual, bound, "w + h deviates from E(h)")
    return OperatorMatrix(h.space, h_prime), defect, zero_prop_residual
