"""Finite metric spaces: graph metrics, coarse disjoint unions, edge-list input.

Points are 0-based contiguous integers. Distances are stored dense (double
precision) so non-graph metrics are admissible.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._linalg import chunks
from .errors import SizeGuardError

# the most points any space may have; checked before an n x n array is built
MAX_POINTS = 2048


@dataclass(frozen=True)
class FiniteSpace:
    """A finite discrete metric space with a full distance matrix."""

    dist: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array is neither shared nor frozen
        d = np.array(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
            raise ValueError("dist must be a nonempty square matrix")
        if not np.all(np.isfinite(d)):
            raise ValueError("dist must be finite everywhere")
        if not np.array_equal(d, d.T):
            raise ValueError("dist must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("dist must have zero diagonal")
        n = d.shape[0]
        off = d[~np.eye(n, dtype=bool)]
        if off.size and np.min(off) <= 0.0:
            raise ValueError("distinct points must be at positive distance")
        tol = 1e-9 * (1.0 + float(d.max(initial=0.0)))
        # d[i,j] <= d[i,k] + d[k,j] for all triples, a block of rows i at a
        # time: each row is an n x n slab, chunked by the one chunk rule
        for rows in chunks(n, n, n):
            di = d[rows]
            if np.any(di[:, None, :] > di[:, :, None] + d[None, :, :] + tol):
                raise ValueError("triangle inequality violated")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def distance_set(self) -> np.ndarray:
        """Sorted distinct values occurring in the distance matrix (incl. 0)."""
        return sorted_distinct(self.dist)


def sorted_distinct(x) -> np.ndarray:
    """The sorted distinct values of x, flattened: np.unique(x) for finite x,
    without the numpy.ma import that np.unique makes when it returns values
    alone."""
    s = np.sort(x, axis=None)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


def check_points(n: int) -> None:
    """Refuse a space of more than MAX_POINTS points (SizeGuardError)."""
    if n > MAX_POINTS:
        raise SizeGuardError("points", MAX_POINTS, n)


def from_edge_list(edges: Sequence[Tuple[int, int]], n_points: int) -> FiniteSpace:
    """Shortest-path hop-count metric of a connected simple graph."""
    if n_points < 1:
        raise ValueError("n_points must be positive")
    check_points(n_points)
    dist = np.full((n_points, n_points), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        if not (0 <= u < n_points and 0 <= v < n_points):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at point {u}")
        dist[u, v] = dist[v, u] = 1.0
    # Floyd-Warshall; hop counts are small integers, exact in float64
    for k in range(n_points):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if not np.all(np.isfinite(dist)):
        raise ValueError("graph is disconnected; a finite metric must be total")
    return FiniteSpace(dist)


def coarse_union(blocks: Sequence[FiniteSpace]) -> FiniteSpace:
    """Coarse disjoint union: intra-block distances kept, blocks pushed apart.

    Block k+1 (1-based) is placed at offset
    c_{k+1} = c_k + diam(X_k) + diam(X_{k+1}) + (k + 1), with c_1 = 0; the
    distance between points of distinct blocks is the offset gap. The gaps
    dominate the block diameters, which keeps the triangle inequality safe.
    """
    if not blocks:
        raise ValueError("coarse_union requires at least one block")
    if len(blocks) == 1:
        return blocks[0]
    offsets = itertools.accumulate(
        range(1, len(blocks)),
        lambda c, k: c + blocks[k - 1].diameter + blocks[k].diameter + (k + 1),
        initial=0.0,
    )
    sizes = [b.n_points for b in blocks]
    check_points(sum(sizes))
    # each point at its block's offset; then each block's own distances
    at = np.repeat(list(offsets), sizes)
    dist = np.abs(at[:, None] - at[None, :])
    starts = itertools.accumulate(sizes, initial=0)
    for block, start, size in zip(blocks, starts, sizes):
        dist[start : start + size, start : start + size] = block.dist
    return FiniteSpace(dist)


def path_graph(n: int) -> FiniteSpace:
    """The path's hop metric, |i - j|."""
    check_points(n)
    return FiniteSpace(abs(np.subtract.outer(np.arange(n), np.arange(n))))


def cycle_graph(n: int) -> FiniteSpace:
    """The cycle's hop metric, min(|i - j|, n - |i - j|)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 points")
    check_points(n)
    d = abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteSpace(np.minimum(d, n - d))


def complete_graph(n: int) -> FiniteSpace:
    """The complete graph's hop metric, 1 off the diagonal."""
    check_points(n)
    return FiniteSpace(1.0 - np.eye(n))


def _records(path):
    """Yield (where, fields) for each line of a text file that is neither
    blank nor a "#" comment; ``where`` is "path:line" for error messages."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                yield f"{path}:{number}", fields


def _parse(where, fields, kinds, n=None):
    """``fields`` converted by ``kinds``, one type each. Every float must be
    finite and, with ``n`` given, every int a point index, 0 <= i < n. A
    ValueError names ``where``."""
    try:
        if len(fields) != len(kinds):
            raise ValueError(f"expected {len(kinds)} fields")
        values = [kind(field) for kind, field in zip(kinds, fields)]
        if any(kind is float and not np.isfinite(v) for kind, v in zip(kinds, values)):
            raise ValueError("non-finite number")
        if n is not None and any(
            kind is int and not 0 <= v < n for kind, v in zip(kinds, values)
        ):
            raise ValueError(f"point index out of range for {n} points")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc} in {' '.join(fields)!r}") from None
    return values


def load_edge_list(path) -> FiniteSpace:
    """Read the edge-list text format: header "n <n_points>", then "u v" lines."""
    edges = []
    n_points = None
    for where, fields in _records(path):
        if fields[0] == "n":
            if n_points is not None:
                raise ValueError(f"{where}: second 'n <n_points>' header")
            _, n_points = _parse(where, fields, (str, int))
        elif n_points is None:
            raise ValueError(f"{where}: edge before the 'n <n_points>' header")
        else:
            edges.append(tuple(_parse(where, fields, (int, int), n_points)))
    if n_points is None:
        raise ValueError(f"{path}: missing 'n <n_points>' header")
    return from_edge_list(edges, n_points)

