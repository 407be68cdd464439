"""Rigidity probe: read a point map out of a unitary and measure how far it
moves points from where they started."""

from dataclasses import dataclass
from typing import List

import numpy as np

from ._linalg import chunks, require_unitary
from .operator import OperatorMatrix
from .spectral import hermitian_eig


@dataclass(frozen=True)
class RigidityReport:
    point_map: np.ndarray  # f(x) per x
    delta: float  # min over x of max over y of |u_yx|
    displacement: float  # max over x of dist(x, f(x))


def _probes(space, stack) -> List[RigidityReport]:
    """probe() for every unitary in a (T, n, n) stack over one space."""
    require_unitary(stack, "input")
    mags = np.abs(stack)
    point_maps = np.argmax(mags, axis=1)  # argmax over rows y, per column x
    deltas = np.take_along_axis(mags, point_maps[:, None, :], axis=1).min(axis=(1, 2))
    displacements = space.dist[np.arange(space.n_points), point_maps].max(axis=1)
    return [
        RigidityReport(f, float(d), float(x))
        for f, d, x in zip(point_maps, deltas, displacements)
    ]


def probe(u: OperatorMatrix) -> RigidityReport:
    """f(x) = argmax_y |u_yx| (ties to the smallest index), with
    delta = min_x |u_{f(x),x}| and the displacement of f.

    delta is always >= 1/sqrt(n): columns of a unitary are unit vectors.
    """
    return _probes(u.space, u.entries[None])[0]


def flow_displacement_sweep(h: OperatorMatrix, times) -> List[RigidityReport]:
    """probe(e^{ith}) per grid point, one stack of e^{ith} per chunk.

    Exploratory: no quantitative bound ties the displacement to t or to
    ||h - E(h)||, so the sweep reports data without asserting one.
    """
    times = np.asarray(times, dtype=np.float64)
    es = hermitian_eig(h)
    reports = []
    for sl in chunks(len(times), h.n, h.n):
        reports += _probes(h.space, es.exp_many(times[sl]))
    return reports
