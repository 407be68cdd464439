"""Dense complex matrices over a finite space, with the structural queries
(propagation, diagonal part, band truncation, norms) everything else builds on.

Convention: entry (x, y) of a matrix a is <a delta_y, delta_x>, i.e. rows are
output indices and columns are input indices.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._linalg import require_finite, spectral_norm
from .space import FiniteSpace, _parse, _records, growth_profile


@dataclass(frozen=True)
class OperatorMatrix:
    space: FiniteSpace
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        n = self.space.n_points
        if m.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {m.shape}")
        require_finite(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.space.n_points

    @property
    def H(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.entries.conj().T)

    def _same_space(self, other):
        if other.space is not self.space and not np.array_equal(
            other.space.dist, self.space.dist
        ):
            raise ValueError("operators live on different spaces")

    def __matmul__(self, other):
        self._same_space(other)
        return OperatorMatrix(self.space, self.entries @ other.entries)

    def __add__(self, other):
        self._same_space(other)
        return OperatorMatrix(self.space, self.entries + other.entries)

    def __sub__(self, other):
        self._same_space(other)
        return OperatorMatrix(self.space, self.entries - other.entries)

    def __neg__(self):
        return OperatorMatrix(self.space, -self.entries)

    def __mul__(self, scalar):
        return OperatorMatrix(self.space, self.entries * scalar)

    __rmul__ = __mul__


def identity(space: FiniteSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.n_points, dtype=np.complex128))


def diagonal(space: FiniteSpace, values) -> OperatorMatrix:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (space.n_points,):
        raise ValueError("need one diagonal value per point")
    return OperatorMatrix(space, np.diag(values))


def matrix_unit(space: FiniteSpace, y: int, x: int) -> OperatorMatrix:
    """e_{y,x}: the rank-one partial isometry sending delta_x to delta_y."""
    m = np.zeros((space.n_points, space.n_points), dtype=np.complex128)
    m[y, x] = 1.0
    return OperatorMatrix(space, m)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


def propagation(a: OperatorMatrix, tol: float = None) -> float:
    """Largest distance d(x, y) over entries with |a_xy| > tol.

    Defaults tol to 1e-12 * max|a_xy| because conjugating by floating-point
    unitaries leaves denormal residue on entries that are zero in exact
    arithmetic.
    """
    mags = np.abs(a.entries)
    if tol is None:
        tol = 1e-12 * float(mags.max(initial=0.0))
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    support = mags > tol
    if not support.any():
        return 0.0
    return float(a.space.dist[support].max())


def expectation(a: OperatorMatrix) -> OperatorMatrix:
    """E(a): keep only the diagonal. Idempotent; identity on diagonal input."""
    return OperatorMatrix(a.space, np.diag(np.diag(a.entries)))


def truncate(a: OperatorMatrix, r: float) -> OperatorMatrix:
    """Zero every entry at distance > r; the canonical propagation-r approximant."""
    if not r >= 0:
        raise ValueError("radius must be nonnegative")
    kept = np.where(a.space.dist <= r, a.entries, 0.0)
    return OperatorMatrix(a.space, kept)


def schur_bound(a: OperatorMatrix, r: float) -> float:
    """Certified upper bound beta(r) * max|a_xy| on the operator norm.

    Valid only when the support of a lies inside the r-band.
    """
    p = propagation(a)
    if p > r:
        raise ValueError(f"propagation {p} exceeds r={r}; Schur bound invalid")
    return growth_profile(a.space, r) * float(np.abs(a.entries).max(initial=0.0))


def offdiag_sup(a: OperatorMatrix) -> float:
    """Max modulus over off-diagonal entries; 0 by convention on one point."""
    n = a.n
    if n < 2:
        return 0.0
    mags = np.abs(a.entries).copy()
    mags[np.diag_indices(n)] = 0.0
    return float(mags.max())


def higson_commutator_profile(a: OperatorMatrix, f) -> Tuple[float, float]:
    """(commutator_norm, entrywise_residual): ||[a, M_f]|| for the diagonal
    multiplication operator of f, and the residual of the entrywise identity
    [a, M_f]_xy = (f_y - f_x) a_xy."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (a.n,):
        raise ValueError("f must assign one real value per point")
    comm = a.entries * f[None, :] - f[:, None] * a.entries
    predicted = (f[None, :] - f[:, None]) * a.entries
    residual = float(np.abs(comm - predicted).max(initial=0.0))
    return spectral_norm(comm), residual


def save_matrix(a: OperatorMatrix, path) -> None:
    """Text format: header "n <n>", then "x y re im" for each nonzero entry.

    repr() of the parts gives a bit-exact round trip for doubles.
    """
    with open(path, "w") as fh:
        fh.write(f"n {a.n}\n")
        for x in range(a.n):
            for y in range(a.n):
                v = a.entries[x, y]
                if v != 0:
                    fh.write(f"{x} {y} {float(v.real)!r} {float(v.imag)!r}\n")


def load_matrix(path, space: FiniteSpace) -> OperatorMatrix:
    """Read the save_matrix format; a bad line is a ValueError naming it."""
    m, seen = None, set()
    for where, fields in _records(path):
        if fields[0] == "n":
            if m is not None:
                raise ValueError(f"{where}: second 'n <n>' header")
            _, n = _parse(where, fields, (str, int))
            if n != space.n_points:
                raise ValueError(
                    f"{where}: matrix is {n}x{n} but space has "
                    f"{space.n_points} points"
                )
            m = np.zeros((n, n), dtype=np.complex128)
        else:
            if m is None:
                raise ValueError(f"{where}: entry before 'n <n>' header")
            x, y, re, im = _parse(where, fields, (int, int, float, float), len(m))
            if (x, y) in seen:
                raise ValueError(f"{where}: repeated entry ({x}, {y})")
            seen.add((x, y))
            m[x, y] = complex(re, im)
    if m is None:
        raise ValueError(f"{path}: missing 'n <n>' header")
    return OperatorMatrix(space, m)
