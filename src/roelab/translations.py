"""Partial translations, their partial-isometry matrices, and coarseness
moduli measured through commutators.

The exact coarseness modulus ranges over every partial bijection with
bounded displacement; that set is finite here but grows superexponentially,
so the exact mode sits behind a size guard and a cheap heuristic lower
bound is the default.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ._linalg import chunk_len, chunks, spectral_norms
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


def _translation_pairs(
    s: FiniteSpace, r: float, allow_large: bool
) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """The pairs of every partial bijection with displacement <= r, each
    exactly once, starting with the empty one."""
    n = s.n_points
    if n > ENUMERATION_GUARD and not allow_large:
        raise SizeGuardError("translation-enumeration", ENUMERATION_GUARD, n)
    # a depth-first search in one frame: options[x] lists -1 (x left out of
    # the domain) and then each target within r; choice[x] indexes it
    options = [[-1] + np.flatnonzero(s.dist[x] <= r).tolist() for x in range(n)]
    choice = [-1] * n
    used = [False] * n
    acc = []
    x = 0
    while x >= 0:
        opts = options[x]
        i = choice[x]
        if i > 0:
            used[opts[i]] = False
            acc.pop()
        i += 1
        while 0 < i < len(opts) and used[opts[i]]:
            i += 1
        if i == len(opts):
            choice[x] = -1
            x -= 1
            continue
        choice[x] = i
        if i > 0:
            used[opts[i]] = True
            acc.append((x, opts[i]))
        if x == n - 1:
            yield tuple(acc)
        else:
            x += 1


def enumerate_r_translations(s: FiniteSpace, r: float) -> Iterator[PartialTranslation]:
    """Every partial bijection with displacement <= r, each exactly once,
    starting with the empty translation (size guarded)."""
    for pairs in _translation_pairs(s, r, allow_large=False):
        yield PartialTranslation(s, pairs)


def _commutator_norms(h: np.ndarray, pair_lists) -> np.ndarray:
    """||[h, v_f]|| for each pair list f, with the v_f stacked per chunk."""
    n = h.shape[0]
    out = []
    for sl in chunks(len(pair_lists), n, n):
        chunk = pair_lists[sl]
        v = np.zeros((len(chunk), n, n), dtype=np.complex128)
        for i, pairs in enumerate(chunk):
            for x, y in pairs:
                v[i, y, x] = 1.0
        out.append(spectral_norms(h @ v - v @ h))
    return np.concatenate(out) if out else np.zeros(0)


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
    entries = h.entries
    if mode == "exact":
        best = 0.0
        pairs = _translation_pairs(h.space, r, allow_large)
        step = chunk_len(h.n, h.n)
        while chunk := list(itertools.islice(pairs, step)):
            best = max(best, float(_commutator_norms(entries, chunk).max()))
        return best
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")

    n = h.n
    dist = h.space.dist
    feasible = [(x, y) for x in range(n) for y in range(n) if dist[x, y] <= r]
    best = float(
        _commutator_norms(entries, [[pair] for pair in feasible]).max(initial=0.0)
    )

    current: list = []
    current_norm = 0.0
    while True:
        used_src = {p[0] for p in current}
        used_tgt = {p[1] for p in current}
        candidates = [
            (x, y) for x, y in feasible if x not in used_src and y not in used_tgt
        ]
        norms = _commutator_norms(entries, [current + [c] for c in candidates])
        gain_pair = None
        gain_norm = current_norm
        for pair, cand in zip(candidates, norms):
            if cand > gain_norm + 1e-15:
                gain_norm = float(cand)
                gain_pair = pair
        if gain_pair is None:
            break
        current.append(gain_pair)
        current_norm = gain_norm
    return max(best, current_norm)
