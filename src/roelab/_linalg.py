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


# Matrices per stack in the stacked enumerations (translations, locality,
# averaging). Measured against 512, 64 ran faster and held peak memory flat.
_CHUNK = 64


def spectral_norms(stack):
    """Largest singular value of every matrix in a (k, p, q) stack.

    Each matrix is divided by its largest entry modulus before the Gram
    matrix squares it, so a result neither overflows nor underflows unless
    the norm itself does. The Gram matrix is formed on the smaller side. An
    all-zero matrix, and every matrix of an empty shape, has norm 0.
    """
    m = np.asarray(stack, dtype=np.complex128)
    if m.ndim != 3:
        raise ValueError(f"need a (k, p, q) stack, got shape {m.shape}")
    k, p, q = m.shape
    if m.size == 0:
        return np.zeros(k)
    scale = np.abs(m).max(axis=(1, 2))
    _require_finite(scale)
    m = m / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    mh = m.conj().transpose(0, 2, 1)
    gram = m @ mh if p < q else mh @ m
    top = np.linalg.eigvalsh(gram)[:, -1]
    return np.sqrt(np.maximum(top, 0.0)) * scale


def spectral_norm(m):
    """Largest singular value of a dense complex array (square or not)."""
    return float(spectral_norms(np.asarray(m)[None])[0])
