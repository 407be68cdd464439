"""Quasi-locality profiles: the largest corner norm ||p_A a p_B|| over sets
A and their far sets B, per radius, exactly or over metric balls.

Every corner's scaled Gram matrix G is formed once and bounded from itself:
lo = sqrt(max_j (G^2)_jj / G_jj) <= ||C|| <= hi = ||G||_F^(1/2). Only the
corners whose hi reaches their value's floor, the largest lo and norm known
for it or for a value proved no larger, are eigensolved: _linalg.gram_reaches,
whose margin covers the rounding of the bounds and the norms and the underflow
inside a scaled corner. So the corner of the largest computed norm is always
eigensolved, and every value is bit for bit the max over all its corners; a
corner's norm does not depend on its batch either way."""

import numpy as np

from ._linalg import gram_bounds, gram_reaches, scaled_grams, top_norms
from .errors import SizeGuardError
from .operator import OperatorMatrix
from .space import sorted_distinct

EXACT_GUARD = 16
# the most entries of the lower mode's (n |D|, n) ball masks, D the distance set
LOWER_GUARD = 2**22
# the most set entries (corners times 2n) in one batch: its corners and Gram
# matrices, p(n - p) and p^2 <= n^2/4 entries each, stay within 1 MiB at
# n = 16; also the most bitsets of a block of radii (int32, 128 KiB)
_BATCH_ENTRIES = 2**15


def _batch_len(n):
    """Corners per batch: each holds 2n set entries."""
    return max(1, _BATCH_ENTRIES // (2 * n))


def _closed_corners(a: OperatorMatrix, radii):
    """The exact mode's corners as (at, sets) pieces: sets the (k, 2, n) bool
    rows of each kept A and its far set B at radii[at].

    Every far set is an integer bitset: U[A], the points within r of A, comes
    from U[A] = U[A - top(A)] | near[top(A)] in n doubling steps for a whole
    block of radii, and far(A) = ~U[A]. A is closed when far(far(A)) = A, one
    lookup. For exactly Hermitian a, the set of each swap pair {A, far(A)}
    that holds the lower first point is kept.
    """
    n = a.n
    full = (1 << n) - 1
    sets = np.arange(1 << n, dtype=np.int32)
    bit = 1 << np.arange(n, dtype=np.int32)
    hermitian = np.array_equal(a.entries, a.entries.conj().T)
    block, step = max(1, _BATCH_ENTRIES >> n), _batch_len(n)
    for lo in range(0, len(radii), block):
        near = a.space.dist <= radii[lo : lo + block, None, None]
        near = np.where(near, bit, 0).sum(axis=2, dtype=np.int32)
        within = np.zeros((len(near), 1 << n), dtype=np.int32)
        for x in range(n):
            within[:, 1 << x : 2 << x] = within[:, : 1 << x] | near[:, x, None]
        far = ~within & full
        keep = (far != 0) & ((~np.take_along_axis(within, far, axis=1) & full) == sets)
        del within
        if hermitian:
            keep &= (sets & -sets) < (far & -far)
        keep[:, 0] = False  # the empty set, whose far set is every point
        # each kept set and its far set as two little-endian bytes, unpacked
        # to n bools a batch at a time
        kept = np.flatnonzero(keep)
        pairs = np.empty((len(kept), 2, 1), dtype="<u2")
        pairs[:, 0, 0] = kept & full
        pairs[:, 1, 0] = far.reshape(-1)[kept]
        for c in range(0, len(kept), step):
            part = np.s_[c : c + step]
            bits = np.unpackbits(pairs[part].view(np.uint8), axis=2, bitorder="little")
            yield lo + (kept[part] >> n), bits[:, :, :n].view(bool)


def _ball_corners(dist, radii):
    """The lower mode's corners as (at, sets) pieces, as in _closed_corners:
    A a metric ball, B = far(A) nonempty, from one exact 0/1 count per
    radius. A ball that equals an earlier one is dropped, packed to bits: its
    corner is the same matrix."""
    n = len(dist)
    balls = (dist[:, None, :] <= sorted_distinct(dist)[None, :, None]).reshape(-1, n)
    packed = np.packbits(balls, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)
    balls = balls[np.sort(first)]
    counts = balls.astype(np.float32)
    block = max(1, _BATCH_ENTRIES // balls.size)
    for lo in range(0, len(radii), block):
        near = (dist <= radii[lo : lo + block, None, None]).astype(np.float32)
        far = counts @ near == 0
        at, kept = np.nonzero(far.any(axis=2))
        yield lo + at, np.stack([balls[kept], far[at, kept]], axis=1)


def _max_corner_norms(entries, corners, exact, m) -> np.ndarray:
    """out[j, i] = max ||p_A a p_B|| over the corners (j, at, sets) with
    at == i, of mode row j (exact[j] true for the exact mode) and radius
    index i < m, radii ascending; 0 where there are none.

    A batch of corners, across rows and radii, is grouped by Gram side
    min(|A|, |B|); a corner with |A| > |B| is taken transposed, as
    ||C^T|| = ||C||. Only the long side is padded, with index n into a
    zero-bordered copy of a, so each Gram matrix keeps its size; it is padded
    to n - p, the most it can hold for side p, so a corner's norm does not
    depend on its batch. A batch eigensolves only the corners whose Gram
    ceiling reaches their value's floor, within a margin that covers every
    rounding (gram_reaches), so the max loses nothing.
    """
    n = len(entries)
    padded = np.zeros((2, n + 1, n + 1), dtype=np.complex128)
    padded[0, :n, :n] = entries
    padded[1, :n, :n] = entries.T
    out = np.zeros((len(exact), m))
    step = _batch_len(n)
    batch, held = [], 0
    for j, at, sets in corners:
        for lo in range(0, len(sets), step):
            batch.append((j * m + at[lo : lo + step], sets[lo : lo + step]))
            held += len(batch[-1][1])
            if held >= step:
                _norm_batch(padded, batch, out, exact)
                batch, held = [], 0
    if batch:
        _norm_batch(padded, batch, out, exact)
    return out


def _norm_batch(padded, batch, out, exact):
    """_max_corner_norms for one batch of (flat index into out, sets), into out.

    Each corner's scaled Gram matrix G is formed once, in one stack per Gram
    side, and gram_bounds gives lo <= ||C|| <= hi: lo = sqrt(max_j
    (G^2)_jj / G_jj), hi = ||G||_F^(1/2). The floor of out[j, i] is the
    largest lo of its corners and the norms out holds; it is shared where an
    order is proved (_floors). Only the corners whose hi reaches their
    floor (gram_reaches) are eigensolved, which is lossless: out is the max
    of every corner's norm bit for bit.
    """
    n = padded.shape[1] - 1
    index = np.concatenate([at for at, _ in batch])
    sets = np.concatenate([sets for _, sets in batch])
    sizes = np.count_nonzero(sets, axis=2)
    # each set's points in order, then index n
    points = np.sort(np.where(sets, np.arange(n, dtype=np.int16), n), axis=2)
    # the corners in order of Gram side; flip is 1 where a corner is taken
    # transposed, an index into padded
    side = sizes.min(axis=1)
    order = np.argsort(side, kind="stable")
    index, sizes, points = index[order], sizes[order], points[order]
    flip = (sizes[:, 0] > sizes[:, 1]).astype(np.intp)
    k = np.arange(len(flip))
    # each short-side point as its row's flat offset into padded
    rows = (flip[:, None] * (n + 1) + points[k, flip]) * (n + 1)
    long = points[k, 1 - flip]
    count = np.bincount(side)
    ends = np.cumsum(count)
    # every scaled Gram matrix, bordered with zeros to the widest side, which
    # changes no bound; each side's stack is formed in one piece
    grams = np.zeros((len(side), len(count) - 1, len(count) - 1), dtype=np.complex128)
    e = np.empty(len(side), dtype=np.int32)
    sides = [(p, slice(ends[p - 1], ends[p])) for p in np.flatnonzero(count).tolist()]
    for p, g in sides:
        corners = padded.reshape(-1)[rows[g, :p, None] + long[g, None, : n - p]]
        grams[g, :p, :p], e[g] = scaled_grams(corners)
    lo, hi = gram_bounds(grams, e)
    best = out.ravel().copy()
    np.maximum.at(best, index, lo)
    live = gram_reaches(hi, _floors(best, exact)[index])
    norms = np.zeros(len(side))
    for p, g in sides:
        solve = np.flatnonzero(live[g]) + g.start
        norms[solve] = top_norms(grams[solve, :p, :p], e[solve])
    np.maximum.at(out.reshape(-1), index[live], norms[live])


def _floors(best, exact):
    """best, a lower bound on each flat out[j, i], raised where an order is
    proved: the max does not increase with the radius, and the exact mode's
    is at least the lower mode's at the same radius."""
    f = best.reshape(len(exact), -1)
    f = np.maximum.accumulate(f[:, ::-1], axis=1)[:, ::-1]
    return np.where(exact[:, None], f.max(axis=0), f[~exact].max(axis=0, initial=0.0)).ravel()


def ql_values(a: OperatorMatrix, radii, modes) -> np.ndarray:
    """out[j, i] = the max over A of ||p_A a p_B|| with B = far(A), the full
    set at distance > radii[i] from A, in modes[j].

    Taking B maximal is lossless: enlarging B can only grow the corner norm,
    which halves the exponent of the brute force. The exact mode norms only
    the closed A, those with A = far(far(A)): A* = far(far(A)) contains A and
    has the same far set, so the corner of A is a row block of the corner of
    A*. For a closed A, far(A) is closed with far set A, and when a is exactly
    Hermitian the two corners are adjoints, so only the set of the pair that
    holds its first point is normed. The max is still over every A. The lower
    mode restricts A to singletons and metric balls. Every mode's size guard
    is checked before any corner is formed. At a radius at or past the
    largest d(x, y) with a_xy exactly nonzero, every corner is exactly zero
    and the value is 0, with no corner formed; the corners of every mode and
    smaller distinct radius are normed together, grouped by Gram side.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    if not (radii >= 0).all():
        raise ValueError("radius must be nonnegative")
    n = a.n
    distinct, back = np.unique(radii, return_inverse=True)
    live = distinct[distinct < a.space.dist[a.entries != 0].max(initial=-1.0)]
    corners = []  # lazy: no corner is formed before every guard has passed
    for mode in modes:
        if mode == "exact":
            if n > EXACT_GUARD:
                raise SizeGuardError("ql-exact-subsets", EXACT_GUARD, n)
            corners.append(_closed_corners(a, live))
        elif mode == "lower":
            entries = n * len(a.space.distance_set()) * n
            if entries > LOWER_GUARD:
                raise SizeGuardError("ql-lower-balls", LOWER_GUARD, entries)
            corners.append(_ball_corners(a.space.dist, live))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    exact = np.array([mode == "exact" for mode in modes], dtype=bool)
    flat = ((j, at, sets) for j, c in enumerate(corners) for at, sets in c)
    out = np.zeros((len(modes), len(distinct)))
    out[:, : len(live)] = _max_corner_norms(a.entries, flat, exact, len(live))
    return out[:, back.reshape(-1)]


def ql_value(a: OperatorMatrix, r: float, mode: str) -> float:
    """ql_values at the one radius r in the one mode."""
    return float(ql_values(a, [r], [mode])[0, 0])
