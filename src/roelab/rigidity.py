"""Rigidity probe: read a point map out of a unitary and measure how far it
moves points from where they started."""

import numpy as np

from ._linalg import chunks, hermitian_eig, require_unitary
from .operator import OperatorMatrix


def probes(space, stack):
    """For every unitary u in a (T, n, n) stack over one space, the point map
    f(x) = argmax_y |u_yx| (ties to the smallest index), delta =
    min_x |u_{f(x),x}| and the displacement max_x dist(x, f(x)), as three
    arrays: (T, n) point maps, then (T,) deltas and displacements.

    delta is always >= 1/sqrt(n): columns of a unitary are unit vectors.
    """
    require_unitary(stack, "input")
    mags = np.abs(stack)
    point_maps = np.argmax(mags, axis=1)  # argmax over rows y, per column x
    deltas = np.take_along_axis(mags, point_maps[:, None, :], axis=1).min(axis=(1, 2))
    displacements = space.dist[np.arange(space.n_points), point_maps].max(axis=1)
    return point_maps, deltas, displacements


def flow_displacement_sweep(h: OperatorMatrix, times):
    """probes(e^{ith}) over the grid, one stack of e^{ith} per chunk, as the
    same three arrays.

    Exploratory: no quantitative bound ties the displacement to t or to
    ||h - E(h)||, so the sweep reports data without asserting one.
    """
    times = np.asarray(times, dtype=np.float64)
    es = hermitian_eig(h)
    point_maps = np.zeros((len(times), h.n), dtype=np.intp)
    deltas, displacements = np.zeros(len(times)), np.zeros(len(times))
    for sl in chunks(len(times), h.n, h.n):
        point_maps[sl], deltas[sl], displacements[sl] = probes(
            h.space, es.exp_many(times[sl])
        )
    return point_maps, deltas, displacements
