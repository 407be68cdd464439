"""Partial translations, their partial-isometry matrices, and coarseness
moduli measured through commutators.

A partial translation f is a target row: f[x] is the image of point x, or -1
where x is outside the domain; k of them form a (k, n) target array.

The exact coarseness modulus ranges over every partial bijection with
bounded displacement; that set is finite here but grows superexponentially,
so the exact mode sits behind a size guard and a cheap heuristic lower
bound is the default.
"""

import numpy as np

from ._linalg import chunks, require_hermitian, schur_bounds, spectral_norms
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
    return hv - rows.take(inverses, axis=0)


def _commutator_norms(h: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """||[h, v_f]|| for each row f of a (k, n) target array, one chunk at a time."""
    n = h.shape[0]
    out = [np.zeros(0)]
    for sl in chunks(len(targets), n, n):
        f = targets[sl]
        out.append(spectral_norms(_commutators(h, f, _inverses(f))))
    return np.concatenate(out)


def _first_of_inverse_pair(targets: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """Mask of the rows f with f <= f^-1 in lexicographic order (-1 first):
    one row of each pair {f, f^-1}, and every involution."""
    differ = targets != inverses
    first = differ.argmax(axis=1)
    rows = np.arange(len(targets))
    return ~differ[rows, first] | (targets[rows, first] < inverses[rows, first])


def _exact_modulus(h: np.ndarray, blocks) -> float:
    """max ||[h, v_f]|| over the rows of every block of targets, for Hermitian h.

    [h, v_{f^-1}] = -[h, v_f]^H, so one row of each inverse pair is kept
    (for h within require_hermitian's tolerance of h^H, the norms of a pair
    differ by at most 2 ||h - h^H||). A block's rows are normed in descending order of their Schur bounds,
    until no bound left exceeds the best norm so far."""
    n = h.shape[0]
    best = 0.0
    for block in blocks:
        inverses = _inverses(block)
        keep = _first_of_inverse_pair(block, inverses)
        block, inverses = block[keep], inverses[keep]
        bounds = [np.zeros(0)]
        for sl in chunks(len(block), n, n):
            bounds.append(schur_bounds(_commutators(h, block[sl], inverses[sl])))
        bounds = np.concatenate(bounds)
        order = np.argsort(-bounds, kind="stable")
        # the top row alone first: for diagonal h its norm is the block's max
        top, rest = order[:1], order[1:]
        for rows in [top, *(rest[sl] for sl in chunks(len(rest), n, n))]:
            rows = rows[bounds[rows] > best]
            if not rows.size:
                break
            c = _commutators(h, block[rows], inverses[rows])
            best = max(best, float(spectral_norms(c).max()))
    return best


def coarseness_modulus(
    h: OperatorMatrix,
    r: float,
    mode: str = "heuristic",
    *,
    allow_large: bool = False,
) -> float:
    """sup over partial r-translations f of ||[h, v_f]||, for Hermitian h.

    exact: the full enumeration (size guarded), taking one f of each inverse
    pair and norming only where a row's Schur bound still beats the best
    norm; for diagonal h the bound is the norm, so few rows are normed.
    heuristic: lower bound from all single-pair translations within r plus a
    greedy matching grown one pair at a time; for diagonal h the single
    pairs already witness the exact value.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    entries = h.entries
    require_hermitian(entries)
    if mode == "exact":
        return _exact_modulus(entries, _translation_targets(h.space, r, allow_large))
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
