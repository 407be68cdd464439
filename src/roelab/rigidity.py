"""Rigidity probe: read a point map out of a unitary and measure how far it
moves points from where they started."""

from dataclasses import dataclass
from typing import List

import numpy as np

from ._linalg import require_unitary
from .operator import OperatorMatrix
from .spectral import hermitian_eig


@dataclass(frozen=True)
class RigidityReport:
    point_map: np.ndarray  # f(x) per x
    delta: float  # min over x of max over y of |u_yx|
    displacement: float  # max over x of dist(x, f(x))


def probe(u: OperatorMatrix) -> RigidityReport:
    """f(x) = argmax_y |u_yx| (ties to the smallest index), with
    delta = min_x |u_{f(x),x}| and the displacement of f.

    delta is always >= 1/sqrt(n): columns of a unitary are unit vectors.
    """
    require_unitary(u.entries, "input")
    mags = np.abs(u.entries)
    point_map = np.argmax(mags, axis=0)  # argmax over rows y, per column x
    delta = float(np.min(mags[point_map, np.arange(u.n)]))
    displacement = float(
        np.max(u.space.dist[np.arange(u.n), point_map])
    )
    return RigidityReport(point_map, delta, displacement)


def flow_displacement_sweep(h: OperatorMatrix, times) -> List[RigidityReport]:
    """probe(e^{ith}) per grid point.

    Exploratory: no quantitative bound ties the displacement to t or to
    ||h - E(h)||, so the sweep reports data without asserting one.
    """
    es = hermitian_eig(h)
    return [probe(es.exp(float(t))) for t in times]
