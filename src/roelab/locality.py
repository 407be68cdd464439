"""Quasi-locality profiles: corner norms ||p_A a p_B|| over far-apart sets,
and epsilon-r approximability certificates via band truncation."""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._linalg import spectral_norm
from .errors import SizeGuardError
from .operator import OperatorMatrix, truncate

EXACT_GUARD = 16


@dataclass(frozen=True)
class QLProfile:
    radii: Tuple[float, ...]
    values: Tuple[float, ...]
    mode: str


def _corner_norm(entries, a_mask, b_mask):
    return spectral_norm(entries[np.ix_(a_mask, b_mask)])


def ql_value(a: OperatorMatrix, r: float, mode: str = "exact") -> float:
    """max over A of ||p_A a p_B|| with B the full set at distance > r from A.

    Taking B maximal is lossless: enlarging B can only grow the corner norm,
    which halves the exponent of the brute force. The lower mode restricts A
    to singletons and metric balls.
    """
    n = a.n
    dist = a.space.dist
    entries = a.entries
    if mode == "exact":
        if n > EXACT_GUARD:
            raise SizeGuardError("ql-exact-subsets", EXACT_GUARD, n)
        best = 0.0
        for bits in range(1, 1 << n):
            a_mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            b_mask = dist[a_mask].min(axis=0) > r
            if not b_mask.any():
                continue
            best = max(best, _corner_norm(entries, a_mask, b_mask))
        return best
    if mode != "lower":
        raise ValueError(f"unknown mode {mode!r}")
    best = 0.0
    radii = a.space.distance_set()
    for x in range(n):
        for rho in radii:
            a_mask = dist[x] <= rho
            b_mask = dist[a_mask].min(axis=0) > r
            if b_mask.any():
                best = max(best, _corner_norm(entries, a_mask, b_mask))
    return best


def ql_profile(a: OperatorMatrix, radii: Sequence[float], mode: str) -> QLProfile:
    values = tuple(ql_value(a, r, mode) for r in radii)
    return QLProfile(tuple(float(r) for r in radii), values, mode)


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
