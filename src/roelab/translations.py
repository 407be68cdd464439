"""Partial translations, their partial-isometry matrices, and coarseness
moduli measured through commutators.

A partial translation f is a target row: f[x] is the image of point x, or -1
where x is outside the domain; k of them form a (k, n) target array.

The exact coarseness modulus ranges over every partial bijection with
bounded displacement; that set is finite here but grows superexponentially,
so the exact mode sits behind a size guard and a cheap heuristic lower
bound is the CLI's default.
"""

import math

import numpy as np

from ._linalg import (
    chunks,
    gram_bounds,
    gram_reaches,
    part_exponent,
    require_finite,
    require_hermitian,
    scaled_grams,
    spectral_norms,
    top_norms,
)
from .errors import SizeGuardError
from .operator import OperatorMatrix
from .space import FiniteSpace

ENUMERATION_GUARD = 10


def _partial_bijections(targets) -> np.ndarray:
    """targets as a (k, n) integer array; a ValueError unless every row is a
    partial bijection: each value in [-1, n), and no target repeated."""
    t = np.asarray(targets)
    ordered = np.sort(t, axis=-1)
    if (
        t.ndim != 2
        or not np.issubdtype(t.dtype, np.integer)
        or ((ordered < -1) | (ordered >= t.shape[1])).any()
        or ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any()
    ):
        raise ValueError("need a (k, n) integer array of partial bijection rows")
    return t


def to_matrices(targets) -> np.ndarray:
    """The (k, n, n) stack of v_f for the rows f of a (k, n) target array:
    entry (f(x), x) = 1 for each x in the domain of f."""
    targets = _partial_bijections(targets)
    k, n = targets.shape
    # index -1 writes the spare row n, dropped below
    v = np.zeros((k, n + 1, n), dtype=np.complex128)
    v[np.arange(k)[:, None], targets, np.arange(n)] = 1.0
    return v[:, :n]


def displacements(s: FiniteSpace, targets) -> np.ndarray:
    """max_x d(x, f(x)) for each row f of a (k, n) target array; 0 for the
    empty translation."""
    targets = _partial_bijections(targets)
    moved = s.dist[np.arange(s.n_points), targets]
    return np.where(targets >= 0, moved, 0.0).max(axis=1, initial=0.0)


# Rows per block of the enumeration: extending a block by one point gives at
# most _BLOCK * (n + 1) rows, so each level's array stays bounded at any n.
_BLOCK = 1024


def _translation_targets(s: FiniteSpace, r: float, allow_large: bool):
    """Every partial bijection f with displacement <= r, each exactly once,
    as blocks of a (k, n) target array. The rows come in lexicographic order
    (-1 first), starting with the empty translation. Size guarded."""
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
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


def enumerate_r_translations(s: FiniteSpace, r: float):
    """The target row of every partial bijection with displacement <= r,
    each exactly once, starting with the empty translation (size guarded)."""
    for block in _translation_targets(s, r, allow_large=False):
        yield from block


def _inverses(targets: np.ndarray) -> np.ndarray:
    """The target rows of f^-1 for the rows f of a (k, n) target array."""
    i, x = np.nonzero(targets >= 0)
    inverses = np.full_like(targets, -1)
    inverses[i, targets[i, x]] = x
    return inverses


def _commutators(h: np.ndarray, targets: np.ndarray, inverses: np.ndarray):
    """The (k, n, n) stack of [h, v_f] for the rows f of a (k, n) target array
    and their inverse rows, gathered: (h v_f)[:, x] = h[:, f(x)] and
    (v_f h)[y, :] = h[f^-1(y), :], zero where f or f^-1 is undefined. Each
    product has a single nonzero term, so this is h @ v_f - v_f @ h bit for bit."""
    n = h.shape[0]
    # row j of each is column j or row j of h; index -1 picks the zero row n
    columns = np.zeros((n + 1, n), dtype=np.complex128)
    columns[:n] = h.T
    rows = np.zeros((n + 1, n), dtype=np.complex128)
    rows[:n] = h
    hv = columns.take(targets, axis=0).transpose(0, 2, 1)
    with np.errstate(over="ignore"):  # an inf entry is refused by spectral_norms
        return hv - rows.take(inverses, axis=0)


def _commutator_stacks(h: np.ndarray, targets: np.ndarray):
    """The stacks of [h, v_f] for the rows f of a (k, n) target array, one
    chunk at a time, in row order."""
    n = h.shape[0]
    for sl in chunks(len(targets), n, n):
        f = targets[sl]
        yield _commutators(h, f, _inverses(f))


def _first_of_inverse_pair(targets: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """Mask of the rows f with f <= f^-1 in lexicographic order (-1 first):
    one row of each pair {f, f^-1}, and every involution."""
    differ = targets != inverses
    first = differ.argmax(axis=1)
    rows = np.arange(len(targets))
    return ~differ[rows, first] | (targets[rows, first] < inverses[rows, first])


def _exact_moduli(h: np.ndarray, s: FiniteSpace, blocks, radii, floors):
    """Per radius of the sorted distinct radii, max ||[h, v_f]|| over the
    rows f of every block of targets with displacement <= that radius and
    the radius's floor, a lower bound on it, for Hermitian h.

    [h, v_{f^-1}] = -[h, v_f]^H, so one row of each inverse pair is kept
    (for h within require_hermitian's tolerance of h^H, the norms of a pair
    differ by at most 2 ||h - h^H||). A kept row of displacement d counts
    toward every radius >= d: its norm goes into the running best of the
    smallest such radius, and the cumulative max over the radii hands it on
    to the larger ones. Each stack of kept commutators is formed once, with
    its scaled Gram matrices, and bounded by gram_bounds: every lo goes into
    the floor of its row's smallest radius, and only the rows whose hi
    reaches the cumulative floor at that radius (_linalg.gram_reaches, whose
    margin covers every rounding) are eigensolved. The values take only
    computed norms, so each is the max over every kept row bit for bit."""
    best = floors.copy()
    floor = floors.copy()
    n = s.n_points
    for block in blocks:
        block = block[_first_of_inverse_pair(block, _inverses(block))]
        first = np.searchsorted(radii, displacements(s, block))
        for sl, c in zip(chunks(len(block), n, n), _commutator_stacks(h, block)):
            at = first[sl]
            gram, e = scaled_grams(c)
            lo, hi = gram_bounds(gram, e)
            np.maximum.at(floor, at, lo)
            live = gram_reaches(hi, np.maximum.accumulate(np.maximum(floor, best))[at])
            np.maximum.at(best, at[live], top_norms(gram[live], e[live]))
    return np.maximum.accumulate(best)


def _heuristic_modulus(h: np.ndarray, s: FiniteSpace, r: float) -> float:
    """The largest ||[h, v_f]|| over every single-pair translation within r
    and a greedy matching grown from them one pair at a time. A trial is a
    gain if it beats the current norm by 1e-15 2^e, with e from
    part_exponent(h), so the greedy takes the same steps for h and 2^k h."""
    min_gain = math.ldexp(1e-15, part_exponent(h)[1])
    # the first round's trials are the single pairs (x, y) with d(x, y) <= r
    src, tgt = np.nonzero(s.dist <= r)
    current = np.full(s.n_points, -1)
    current_norm = 0.0
    best = None
    while True:
        free = (current[src] < 0) & ~np.isin(tgt, current)
        trials = np.tile(current, (int(free.sum()), 1))
        trials[np.arange(len(trials)), src[free]] = tgt[free]
        stacks = _commutator_stacks(h, trials)
        norms = [x for c in stacks for x in spectral_norms(c).tolist()]
        if best is None:
            best = max(norms, default=0.0)
        gain = None
        gain_norm = current_norm
        for i, cand in enumerate(norms):
            if cand > gain_norm + min_gain:
                gain_norm = cand
                gain = i
        if gain is None:
            break
        current = trials[gain]
        current_norm = gain_norm
    return max(best, current_norm)


def coarseness_moduli(
    h: OperatorMatrix, radii, modes, *, allow_large: bool = False
) -> np.ndarray:
    """out[j, i] = sup over partial radii[i]-translations f of ||[h, v_f]||
    in modes[j], for Hermitian h.

    h is checked once, and every mode's size guard fires before any work.
    Both modes first bracket each sup: with D the diagonal of h, it lies
    between floor = max |D_y - D_x| over the pairs with d(x, y) <= r (the
    one-pair translation {x -> y} has entry D_y - D_x) and
    floor + 2 ||h - diag D||. So for diagonal h the values are the floors,
    and no translation is enumerated or tried.
    exact: one enumeration at the largest radius (size guarded), shared by
    every radius. It takes one f of each inverse pair, and eigensolves only
    the rows whose Gram ceiling reaches the floor of their smallest radius.
    heuristic: per radius, a lower bound from all single-pair translations
    within r plus a greedy matching grown one pair at a time, and then, as
    in the exact mode, the cumulative max over the sorted radii: every
    r-translation is an R-translation for r <= R, so each value is still a
    lower bound, and the profile does not fall as r grows.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    if not (radii >= 0).all():
        raise ValueError("radius must be nonnegative")
    entries = h.entries
    require_hermitian(entries)
    for mode in modes:
        if mode not in ("exact", "heuristic"):
            raise ValueError(f"unknown mode {mode!r}")
    s = h.space
    distinct, back = np.unique(radii, return_inverse=True)
    if "exact" in modes:
        # eager: the size guard fires before anything else
        blocks = _translation_targets(s, distinct.max(initial=0.0), allow_large)
    d = entries.diagonal()
    with np.errstate(over="ignore"):  # an overflowed gap is refused below
        gaps = np.abs(d[None, :] - d[:, None])
    floors = np.array([gaps[s.dist <= r].max(initial=0.0) for r in distinct])
    require_finite(floors)
    values = dict.fromkeys(modes, floors)
    # for diagonal h each ceiling is its floor
    if len(distinct) and np.count_nonzero(entries - np.diag(d)):
        if "exact" in values:
            values["exact"] = _exact_moduli(entries, s, blocks, distinct, floors)
        if "heuristic" in values:
            heuristic = [_heuristic_modulus(entries, s, r) for r in distinct]
            values["heuristic"] = np.maximum.accumulate(heuristic)
    out = np.array([values[mode] for mode in modes], dtype=np.float64)
    return out.reshape(len(modes), len(distinct))[:, back.reshape(-1)]


def coarseness_modulus(h, r, mode) -> float:
    """coarseness_moduli at the one radius r in the one mode."""
    return float(coarseness_moduli(h, [r], [mode])[0, 0])
