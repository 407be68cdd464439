"""Partial translations, their partial-isometry matrices, and coarseness
moduli measured through commutators.

The exact coarseness modulus ranges over every partial bijection with
bounded displacement; that set is finite here but grows superexponentially,
so the exact mode sits behind a size guard and a cheap heuristic lower
bound is the default.
"""

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ._linalg import spectral_norm
from .errors import SizeGuardError
from .operator import OperatorMatrix
from .space import FiniteSpace

ENUMERATION_GUARD = 10


@dataclass(frozen=True)
class PartialTranslation:
    space: FiniteSpace
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n = self.space.n_points
        sources = [p[0] for p in self.pairs]
        targets = [p[1] for p in self.pairs]
        for x in sources + targets:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range")
        if len(set(sources)) != len(sources):
            raise ValueError("sources must be pairwise distinct")
        if len(set(targets)) != len(targets):
            raise ValueError("targets must be pairwise distinct")

    @property
    def displacement(self) -> float:
        if not self.pairs:
            return 0.0
        return float(max(self.space.dist[x, y] for x, y in self.pairs))

    def inverse(self) -> "PartialTranslation":
        return PartialTranslation(self.space, tuple((y, x) for x, y in self.pairs))


def identity_on(space: FiniteSpace, subset) -> PartialTranslation:
    return PartialTranslation(space, tuple((x, x) for x in subset))


def to_matrix(f: PartialTranslation) -> OperatorMatrix:
    """v_f: entry (f(x), x) = 1 per pair. A partial isometry whose
    propagation equals the displacement of f."""
    n = f.space.n_points
    m = np.zeros((n, n), dtype=np.complex128)
    for x, y in f.pairs:
        m[y, x] = 1.0
    return OperatorMatrix(f.space, m)


def enumerate_r_translations(
    s: FiniteSpace, r: float, *, allow_large: bool = False
) -> Iterator[PartialTranslation]:
    """Every partial bijection with displacement <= r, each exactly once,
    starting with the empty translation."""
    n = s.n_points
    if n > ENUMERATION_GUARD and not allow_large:
        raise SizeGuardError("translation-enumeration", ENUMERATION_GUARD, n)
    dist = s.dist
    used = np.zeros(n, dtype=bool)
    acc = []

    def rec(x):
        if x == n:
            yield PartialTranslation(s, tuple(acc))
            return
        yield from rec(x + 1)
        for y in range(n):
            if not used[y] and dist[x, y] <= r:
                used[y] = True
                acc.append((x, y))
                yield from rec(x + 1)
                acc.pop()
                used[y] = False

    yield from rec(0)


def _commutator_entries(h: np.ndarray, pairs) -> np.ndarray:
    """[h, v_f] assembled column/row-wise; v_f never materialized."""
    n = h.shape[0]
    c = np.zeros((n, n), dtype=np.complex128)
    for x, y in pairs:
        c[:, x] += h[:, y]
    for x, y in pairs:
        c[y, :] -= h[x, :]
    return c


def commutator_norm(h: OperatorMatrix, f: PartialTranslation) -> float:
    return spectral_norm(_commutator_entries(h.entries, f.pairs))


def coarseness_modulus(
    h: OperatorMatrix,
    r: float,
    mode: str = "heuristic",
    *,
    allow_large: bool = False,
) -> float:
    """sup over partial r-translations f of ||[h, v_f]||.

    exact: brute force over the full enumeration (size guarded).
    heuristic: lower bound from all single-pair translations within r plus a
    greedy matching grown one pair at a time; for diagonal h the single
    pairs already witness the exact value.
    """
    if mode == "exact":
        best = 0.0
        for f in enumerate_r_translations(h.space, r, allow_large=allow_large):
            best = max(best, spectral_norm(_commutator_entries(h.entries, f.pairs)))
        return best
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")

    n = h.n
    dist = h.space.dist
    entries = h.entries
    feasible = [(x, y) for x in range(n) for y in range(n) if dist[x, y] <= r]

    best = 0.0
    for pair in feasible:
        best = max(best, spectral_norm(_commutator_entries(entries, [pair])))

    current: list = []
    current_norm = 0.0
    while True:
        used_src = {p[0] for p in current}
        used_tgt = {p[1] for p in current}
        gain_pair = None
        gain_norm = current_norm
        for x, y in feasible:
            if x in used_src or y in used_tgt:
                continue
            cand = spectral_norm(_commutator_entries(entries, current + [(x, y)]))
            if cand > gain_norm + 1e-15:
                gain_norm = cand
                gain_pair = (x, y)
        if gain_pair is None:
            break
        current.append(gain_pair)
        current_norm = gain_norm
    return max(best, current_norm)
