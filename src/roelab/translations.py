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

from ._linalg import chunks, spectral_norms
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


# Rows per block of the enumeration: extending a block by one point gives at
# most _BLOCK * (n + 1) rows, so each level's array stays bounded at any n.
_BLOCK = 1024


def _translation_targets(s: FiniteSpace, r: float, allow_large: bool):
    """Every partial bijection f with displacement <= r, each exactly once,
    as blocks of rows of a (k, n) target array: f[x] is the image of x, or
    -1 where x is outside the domain. The rows come in lexicographic order
    (-1 first), starting with the empty translation. Size guarded."""
    n = s.n_points
    if n > ENUMERATION_GUARD and not allow_large:
        raise SizeGuardError("translation-enumeration", ENUMERATION_GUARD, n)
    options = [np.concatenate([[-1], np.flatnonzero(s.dist[x] <= r)]) for x in range(n)]
    return _extend(np.zeros((1, 0), dtype=np.intp), options)


def _extend(rows, options):
    """The rows extended by every option of the next points, block by block:
    each row is repeated once per option of its next point, and the rows
    that reuse a target are dropped."""
    x = rows.shape[1]
    if x == len(options):
        yield rows
        return
    opts = options[x]
    new = np.column_stack([np.repeat(rows, len(opts), 0), np.tile(opts, len(rows))])
    new = new[(new[:, x] < 0) | (new[:, :x] != new[:, x:]).all(axis=1)]
    for lo in range(0, len(new), _BLOCK):
        yield from _extend(new[lo : lo + _BLOCK], options)


def enumerate_r_translations(s: FiniteSpace, r: float) -> Iterator[PartialTranslation]:
    """Every partial bijection with displacement <= r, each exactly once,
    starting with the empty translation (size guarded)."""
    points = range(s.n_points)
    for block in _translation_targets(s, r, allow_large=False):
        for row in block.tolist():
            pairs = tuple([(x, y) for x, y in zip(points, row) if y >= 0])
            yield PartialTranslation(s, pairs)


def _commutator_norms(h: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """||[h, v_f]|| for each row f of a (k, n) target array, v_f stacked per chunk."""
    n = h.shape[0]
    out = [np.zeros(0)]
    for sl in chunks(len(targets), n, n):
        f = targets[sl]
        i, x = np.nonzero(f >= 0)
        v = np.zeros((len(f), n, n), dtype=np.complex128)
        v[i, f[i, x], x] = 1.0
        out.append(spectral_norms(h @ v - v @ h))
    return np.concatenate(out)


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
        for block in _translation_targets(h.space, r, allow_large):
            best = max(best, float(_commutator_norms(entries, block).max()))
        return best
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")

    # the first round's trials are the single pairs (x, y) with d(x, y) <= r
    src, tgt = np.nonzero(h.space.dist <= r)
    current = np.full(h.n, -1)
    current_norm = 0.0
    best = None
    while True:
        free = (current[src] < 0) & ~np.isin(tgt, current)
        trials = np.tile(current, (int(free.sum()), 1))
        trials[np.arange(len(trials)), src[free]] = tgt[free]
        norms = _commutator_norms(entries, trials).tolist()
        if best is None:
            best = max(norms, default=0.0)
        gain = None
        gain_norm = current_norm
        for i, cand in enumerate(norms):
            if cand > gain_norm + 1e-15:
                gain_norm = cand
                gain = i
        if gain is None:
            break
        current = trials[gain]
        current_norm = gain_norm
    return max(best, current_norm)
