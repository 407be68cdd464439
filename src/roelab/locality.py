"""Quasi-locality profiles: the largest corner norm ||p_A a p_B|| over sets
A and their far sets B, per radius, exactly or over metric balls."""

import numpy as np

from ._linalg import chunks, spectral_norms
from .errors import SizeGuardError
from .operator import OperatorMatrix
from .space import sorted_distinct

EXACT_GUARD = 16
# the most entries of the lower mode's (n |D|, n) ball masks, D the distance set
LOWER_GUARD = 2**22
# the most set entries (corners times 2n) normed in one batch: each int16
# index temporary of a batch stays within 512 KiB
_BATCH_ENTRIES = 2**18


def _closed_corners(a: OperatorMatrix, radii):
    """Per radius index i, the exact mode's corners (i, sets), sets the
    (k, 2, n) bool rows of each kept A and its far set B.

    Every far set is an integer bitset: U[A], the points within r of A, comes
    from U[A] = U[A - top(A)] | near[top(A)] in n doubling steps, and
    far(A) = ~U[A]. A is closed when far(far(A)) = A, one lookup. For exactly
    Hermitian a, the set of each swap pair {A, far(A)} that holds the lower
    first point is kept.
    """
    n = a.n
    full = (1 << n) - 1
    sets = np.arange(1 << n, dtype=np.int32)
    bit = 1 << np.arange(n, dtype=np.int32)
    hermitian = np.array_equal(a.entries, a.entries.conj().T)
    for i, r in enumerate(radii):
        near = np.where(a.space.dist <= r, bit, 0).sum(axis=1, dtype=np.int32)
        within = np.zeros(1 << n, dtype=np.int32)
        for x in range(n):
            within[1 << x : 2 << x] = within[: 1 << x] | near[x]
        far = ~within & full
        keep = (far != 0) & ((~within[far] & full) == sets)
        if hermitian:
            keep &= (sets & -sets) < (far & -far)
        keep[0] = False  # the empty set, whose far set is every point
        # each bitset as its two little-endian bytes, unpacked to n bools
        pairs = np.stack([sets[keep], far[keep]], axis=1).astype("<u2")[:, :, None]
        bits = np.unpackbits(pairs.view(np.uint8), axis=2, bitorder="little")
        yield i, bits[:, :, :n].view(bool)


def _ball_corners(dist, radii):
    """Per radius index i, the lower mode's corners (i, sets) as in
    _closed_corners: A a metric ball, B = far(A) nonempty, from one exact 0/1
    count per radius."""
    n = len(dist)
    balls = (dist[:, None, :] <= sorted_distinct(dist)[None, :, None]).reshape(-1, n)
    counts = balls.astype(np.float32)
    for i, r in enumerate(radii):
        far = counts @ (dist <= r).astype(np.float32) == 0
        keep = far.any(axis=1)
        yield i, np.stack([balls[keep], far[keep]], axis=1)


def _max_corner_norms(entries, corners, count) -> np.ndarray:
    """out[i] = max ||p_A a p_B|| over the corners (i, sets) of every radius
    index i; 0 for a radius with none.

    A batch of corners, across radii, is grouped by Gram side min(|A|, |B|);
    a corner with |A| > |B| is taken transposed, as ||C^T|| = ||C||. Only the
    long side is padded, with index n into a zero-bordered copy of a, so each
    Gram matrix keeps its size; it is padded to n - p, the most it can hold
    for side p, so a corner's norm does not depend on its batch.
    """
    n = len(entries)
    padded = np.zeros((2, n + 1, n + 1), dtype=np.complex128)
    padded[0, :n, :n] = entries
    padded[1, :n, :n] = entries.T
    out = np.zeros(count)
    step = _BATCH_ENTRIES // (2 * n)
    batch, held = [], 0
    for i, sets in corners:
        for lo in range(0, len(sets), step):
            batch.append((i, sets[lo : lo + step]))
            held += len(batch[-1][1])
            if held >= step:
                _norm_batch(padded, batch, out)
                batch, held = [], 0
    if batch:
        _norm_batch(padded, batch, out)
    return out


def _norm_batch(padded, batch, out):
    """_max_corner_norms for one batch, into out."""
    n = padded.shape[1] - 1
    index = np.concatenate([np.full(len(sets), i) for i, sets in batch])
    sets = np.concatenate([sets for _, sets in batch])
    sizes = np.count_nonzero(sets, axis=2)
    # each set's points in order, then index n
    points = np.sort(np.where(sets, np.arange(n, dtype=np.int16), n), axis=2)
    # 1 where the corner is taken transposed: an index into padded
    flip = (sizes[:, 0] > sizes[:, 1]).astype(np.intp)
    k = np.arange(len(flip))
    short, long = points[k, flip], points[k, 1 - flip]
    side = sizes[k, flip]
    for p in sorted_distinct(side).tolist():
        group = np.flatnonzero(side == p)
        q = n - p
        for sl in chunks(len(group), p, q):
            g = group[sl]
            corners = padded[flip[g, None, None], short[g, :p, None], long[g, None, :q]]
            np.maximum.at(out, index[g], spectral_norms(corners))


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
    is checked before any corner is formed; then the corners of every mode
    and distinct radius are normed together, grouped by Gram side.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    if not (radii >= 0).all():
        raise ValueError("radius must be nonnegative")
    n = a.n
    distinct, back = np.unique(radii, return_inverse=True)
    corners = []  # lazy: no corner is formed before every guard has passed
    for mode in modes:
        if mode == "exact":
            if n > EXACT_GUARD:
                raise SizeGuardError("ql-exact-subsets", EXACT_GUARD, n)
            corners.append(_closed_corners(a, distinct))
        elif mode == "lower":
            entries = n * len(a.space.distance_set()) * n
            if entries > LOWER_GUARD:
                raise SizeGuardError("ql-lower-balls", LOWER_GUARD, entries)
            corners.append(_ball_corners(a.space.dist, distinct))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    m = len(distinct)
    flat = ((j * m + i, sets) for j, c in enumerate(corners) for i, sets in c)
    out = _max_corner_norms(a.entries, flat, len(modes) * m)
    return out.reshape(len(modes), m)[:, back.reshape(-1)]


def ql_value(a: OperatorMatrix, r: float, mode: str) -> float:
    """ql_values at the one radius r in the one mode."""
    return float(ql_values(a, [r], [mode])[0, 0])
