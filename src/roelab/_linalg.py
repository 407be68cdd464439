"""The package's one linear-algebra layer: Hermitian eigensolves, the
spectral norm, and `check`, the one path of every numeric check, with every
threshold in the table below.

LAPACK does not check its input: a NaN entry can come back as finite
eigenvalues. The solvers and norms here therefore reject non-finite input with
numpy.linalg.LinAlgError, a ValueError.
"""

import numpy as np

from .errors import NumericCheckError

# Every threshold of a numeric check, one line each; values never loosen.
HERMITIAN_TOL = 1e-10  # ||m - m^H||_F per unit of 1 + max|m_xy|
UNITARY_TOL = 1e-10  # ||u^H u - 1||_F, and ||u_0 - 1||_F for a cocycle
ZERO_PROP_TOL = 1e-10  # ||w + h - E(h)|| in the sign-group extraction
DISCONTINUITY_TOL = 1e-9  # |measured - closed form| per expander block
WMAP_TOL = 1e-9  # corner bound minus ||w(t) - 1|| in the expander
LIPSCHITZ_TOL = (1e-8, 1e-9)  # slack on ||h - k||: relative, absolute (for h ~ k)


def check(residuals, bound, what, error=NumericCheckError):
    """Raise error unless every residual is <= bound (so NaN fails). what(i)
    names an array's first failing flat index i; a scalar's what is text."""
    res = np.asarray(residuals)
    bad = np.flatnonzero(~(res <= bound))
    if bad.size:
        name = what(bad[0]) if res.ndim else what
        raise error(f"{name}: residual {res.flat[bad[0]]:.3e} > {bound:.3e}")


def require_finite(a):
    """Raise LinAlgError (a ValueError) unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")


def require_hermitian(m):
    """Raise ValueError unless ||m - m^H||_F <= HERMITIAN_TOL (1 + max|m_xy|).

    Never looser than checking the residual in the spectral or the Frobenius
    norm against 1e-10 (1 + ||m||_2) or 1e-10 (1 + ||m||_F), because
    ||.||_2 <= ||.||_F and max|m_xy| <= ||m||_2 <= ||m||_F.
    """
    res = np.linalg.norm(m - m.conj().T)
    bound = HERMITIAN_TOL * (1.0 + float(np.abs(m).max(initial=0.0)))
    check(res, bound, "input is not Hermitian", ValueError)


def require_unitary(m, what):
    """Raise ValueError naming what unless ||m^H m - 1||_F <= UNITARY_TOL.

    m is one matrix or a (k, n, n) stack, checked slice by slice; the error
    names the first slice that fails. Never looser than the same check in
    the spectral norm: ||.||_2 <= ||.||_F.
    """
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    res = np.atleast_1d(np.linalg.norm(gram - np.eye(m.shape[-1]), axis=(-2, -1)))
    at = " (slice {})" if m.ndim == 3 else ""
    check(
        res, UNITARY_TOL, lambda i: f"{what}{at.format(i)} is not unitary", ValueError
    )


def eigh(a):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian array.

    Only the lower triangle is read; symmetrize first if the input may
    carry rounding noise above the diagonal.
    """
    a = np.asarray(a)
    require_finite(a)
    return np.linalg.eigh(a)


# The chunk rule for every stack of matrices (enumerations and time grids):
# at most _CHUNK matrices, and at most _STACK_ENTRIES entries in all, so each
# stacked temporary is O(2**22) elements whatever the stack's length. Up to
# 256 x 256 the rule gives _CHUNK. Measured against 512, 64 ran faster and
# held peak memory flat.
_CHUNK = 64
_STACK_ENTRIES = 2**22


def chunk_len(p, q):
    """Matrices per stack of p x q matrices: min(_CHUNK, max(1, 2**22 // pq))."""
    return min(_CHUNK, max(1, _STACK_ENTRIES // (p * q)))


def chunks(count, p, q):
    """Consecutive slices covering range(count), one stack of p x q each."""
    step = chunk_len(p, q)
    return (slice(lo, lo + step) for lo in range(0, count, step))


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
    require_finite(scale)
    m = m / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    mh = m.conj().transpose(0, 2, 1)
    gram = m @ mh if p < q else mh @ m
    top = np.linalg.eigvalsh(gram)[:, -1]
    with np.errstate(over="ignore"):  # a norm that overflows is inf
        return np.sqrt(np.maximum(top, 0.0)) * scale


def schur_bounds(stack):
    """sqrt(||m||_1 ||m||_inf) >= ||m||_2 (Schur's test) for every matrix in a
    (k, p, q) stack. With hi and lo the larger and smaller of the two norms
    it is taken as hi sqrt(lo / hi), which neither overflows nor underflows
    unless a sum does. For a weighted partial permutation (one nonzero entry
    at most per row and column) it is the largest entry modulus, which is the
    norm, bit for bit.
    """
    a = np.abs(np.asarray(stack, dtype=np.complex128))
    cols = np.einsum("kij->kj", a).max(axis=1, initial=0.0)
    rows = np.einsum("kij->ki", a).max(axis=1, initial=0.0)
    hi, lo = np.maximum(cols, rows), np.minimum(cols, rows)
    # a sum that overflowed leaves hi = inf, and the bound inf
    unit = np.where((hi > 0.0) & (hi < np.inf), hi, 1.0)
    return hi * np.sqrt(lo / unit)


def spectral_norm(m):
    """Largest singular value of a dense complex array (square or not)."""
    return float(spectral_norms(np.asarray(m)[None])[0])
