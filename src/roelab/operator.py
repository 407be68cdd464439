"""Dense complex matrices over a finite space, with the structural queries
(propagation, diagonal part, band truncation, norms) everything else builds on.

Convention: entry (x, y) of a matrix a is <a delta_y, delta_x>, i.e. rows are
output indices and columns are input indices. Products, sums and adjoints are
numpy on .entries.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import require_finite
from .space import FiniteSpace, _parse, _records


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


def diagonal(space: FiniteSpace, values) -> OperatorMatrix:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (space.n_points,):
        raise ValueError("need one diagonal value per point")
    return OperatorMatrix(space, np.diag(values))


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


def save_matrix(a: OperatorMatrix, path) -> None:
    """Text format: header "n <n>", then "x y re im" for each nonzero entry.

    repr() of the parts gives a bit-exact round trip for doubles. Entries
    go in row-major order; one is nonzero when v != 0.
    """
    xs, ys = np.nonzero(a.entries)
    v = a.entries[xs, ys]
    parts = zip(xs.tolist(), ys.tolist(), v.real.tolist(), v.imag.tolist())
    with open(path, "w") as fh:
        fh.write(f"n {a.n}\n")
        fh.writelines(f"{x} {y} {re!r} {im!r}\n" for x, y, re, im in parts)


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
