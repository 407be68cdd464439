"""Quasi-locality profiles: corner norms ||p_A a p_B|| over far-apart sets,
and epsilon-r approximability certificates via band truncation."""

from typing import Sequence

import numpy as np

from ._linalg import chunks, spectral_norm, spectral_norms
from .errors import SizeGuardError
from .operator import OperatorMatrix, truncate

EXACT_GUARD = 16


def _max_corner_norm(entries, dist, r, a_masks) -> float:
    """max over the rows A of a_masks of ||p_A a p_B||, B = {y : d(A, y) > r}.

    Each corner is taken as its dense |A| x |B| block, and the blocks of one
    shape are stacked together. An A with empty B is skipped: its norm is 0.
    """
    n = len(dist)
    far = np.zeros(a_masks.shape, dtype=bool)
    for sl in chunks(len(a_masks), n, n):
        far[sl] = np.where(a_masks[sl, :, None], dist, np.inf).min(axis=1) > r
    keep = far.any(axis=1)
    a_masks, far = a_masks[keep], far[keep]
    sizes_a, sizes_b = a_masks.sum(axis=1), far.sum(axis=1)
    best = 0.0
    for p, q in sorted(set(zip(sizes_a.tolist(), sizes_b.tolist()))):
        group = np.flatnonzero((sizes_a == p) & (sizes_b == q))
        for sl in chunks(len(group), p, q):
            rows = np.nonzero(a_masks[group[sl]])[1].reshape(-1, p)
            cols = np.nonzero(far[group[sl]])[1].reshape(-1, q)
            corners = entries[rows[:, :, None], cols[:, None, :]]
            best = max(best, float(spectral_norms(corners).max()))
    return best


def ql_value(a: OperatorMatrix, r: float, mode: str = "exact") -> float:
    """max over A of ||p_A a p_B|| with B the full set at distance > r from A.

    Taking B maximal is lossless: enlarging B can only grow the corner norm,
    which halves the exponent of the brute force. The lower mode restricts A
    to singletons and metric balls.
    """
    n = a.n
    dist = a.space.dist
    if mode == "exact":
        if n > EXACT_GUARD:
            raise SizeGuardError("ql-exact-subsets", EXACT_GUARD, n)
        # uint16 holds every subset, since EXACT_GUARD = 16
        bits = np.arange(1, 1 << n, dtype=np.uint16)
        a_masks = (bits[:, None] & (1 << np.arange(n, dtype=np.uint16))) != 0
    elif mode == "lower":
        radii = a.space.distance_set()
        a_masks = (dist[:, None, :] <= radii[None, :, None]).reshape(-1, n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _max_corner_norm(a.entries, dist, r, a_masks)


def eps_r_certificate(a: OperatorMatrix, eps: float) -> float:
    """Smallest r in the distance set with ||a - truncate(a, r)|| <= eps.

    An upper-bound certificate: truncation need not be the best
    propagation-r approximant, but r = diameter always succeeds.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for r in a.space.distance_set():
        if spectral_norm(a.entries - truncate(a, r).entries) <= eps:
            return float(r)
    return a.space.diameter


def equi_approx_profile(family: Sequence[OperatorMatrix], eps: float) -> float:
    """The single r certifying eps-r approximability for every family member."""
    if not family:
        raise ValueError("family must be nonempty")
    first = family[0]
    for member in family[1:]:
        first._same_space(member)
    return max(eps_r_certificate(member, eps) for member in family)
