"""The package's one linear-algebra layer: Hermitian eigensolves and the
spectral norm, on LAPACK through numpy.linalg.

LAPACK does not check its input: a NaN entry can come back as finite
eigenvalues. Every routine here therefore rejects non-finite input with
numpy.linalg.LinAlgError, a ValueError.
"""

import numpy as np


def _require_finite(a):
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")


def eigh(a):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian array.

    Only the lower triangle is read; symmetrize first if the input may
    carry rounding noise above the diagonal.
    """
    a = np.asarray(a)
    _require_finite(a)
    return np.linalg.eigh(a)


def eigvalsh(a):
    """Eigenvalues (ascending) of a Hermitian array; lower triangle only."""
    a = np.asarray(a)
    _require_finite(a)
    return np.linalg.eigvalsh(a)


def spectral_norm(m):
    """Largest singular value of a dense complex array (square or not).

    Exactly-zero rows and columns are dropped first and the Gram matrix is
    formed on the smaller side, so sparse commutators cost almost nothing.
    The array is divided by its largest entry modulus before the Gram
    matrix squares it, so the result neither overflows nor underflows
    unless the norm itself does.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    scale = float(np.max(np.abs(m)))
    _require_finite(scale)
    if scale == 0.0:
        return 0.0
    rows = np.any(m != 0, axis=1)
    cols = np.any(m != 0, axis=0)
    m = m[np.ix_(rows, cols)] / scale
    if m.shape[0] < m.shape[1]:
        m = m.conj().T
    gram = m.conj().T @ m
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)) * scale)
