"""Quasi-locality profiles: corner norms ||p_A a p_B|| over far-apart sets,
and epsilon-r approximability certificates via band truncation."""

from typing import Sequence

import numpy as np

from ._linalg import chunks, spectral_norm, spectral_norms
from .errors import SizeGuardError
from .operator import OperatorMatrix, truncate

EXACT_GUARD = 16
# the most entries of the lower mode's (n |D|, n) ball masks, D the distance set
LOWER_GUARD = 2**22


def _far_sets(masks, dist, r):
    """far(A) = {y : d(A, y) > r} for every row A of masks: the y that no point
    of A is within r of, from an exact 0/1 count in row chunks."""
    n = len(dist)
    near = (dist <= r).astype(np.float32)
    far = np.empty(masks.shape, dtype=bool)
    for sl in chunks(len(masks), 1, n):
        far[sl] = masks[sl] @ near == 0
    return far


def _max_corner_norm(entries, a_masks, far) -> float:
    """max over the rows A of a_masks of ||p_A a p_B||, B the row of far.

    Each corner is taken as its dense |A| x |B| block, and the blocks of one
    shape are stacked together. An A with empty B is skipped: its norm is 0.
    Exact mode passes only the closed sets A, and one of each swap pair when
    a is Hermitian; see ql_value.
    """
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
    """max over A of ||p_A a p_B|| with B = far(A), the full set at distance
    > r from A.

    Taking B maximal is lossless: enlarging B can only grow the corner norm,
    which halves the exponent of the brute force. The exact mode norms only
    the closed A, those with A = far(far(A)): A* = far(far(A)) contains A and
    has the same far set, so the corner of A is a row block of the corner of
    A*. For a closed A, far(A) is closed with far set A, and when a is exactly
    Hermitian the two corners are adjoints, so only the set of the pair that
    holds its first point is normed. The max is still over every A. The lower
    mode restricts A to singletons and metric balls.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    n = a.n
    dist = a.space.dist
    if mode == "exact":
        if n > EXACT_GUARD:
            raise SizeGuardError("ql-exact-subsets", EXACT_GUARD, n)
        # uint16 holds every subset, since EXACT_GUARD = 16
        bits = np.arange(1, 1 << n, dtype=np.uint16)
        a_masks = (bits[:, None] & (1 << np.arange(n, dtype=np.uint16))) != 0
        far = _far_sets(a_masks, dist, r)
        keep = (_far_sets(far, dist, r) == a_masks).all(axis=1)
        if np.array_equal(a.entries, a.entries.conj().T):
            keep &= a_masks.argmax(axis=1) < far.argmax(axis=1)
        a_masks, far = a_masks[keep], far[keep]
    elif mode == "lower":
        radii = a.space.distance_set()
        entries = n * len(radii) * n
        if entries > LOWER_GUARD:
            raise SizeGuardError("ql-lower-balls", LOWER_GUARD, entries)
        a_masks = (dist[:, None, :] <= radii[None, :, None]).reshape(-1, n)
        far = _far_sets(a_masks, dist, r)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _max_corner_norm(a.entries, a_masks, far)


def eps_r_certificate(a: OperatorMatrix, eps: float) -> float:
    """Smallest r in the distance set with ||a - truncate(a, r)|| <= eps.

    An upper-bound certificate: truncation need not be the best
    propagation-r approximant, but r = diameter always succeeds.
    """
    if not eps > 0:
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
