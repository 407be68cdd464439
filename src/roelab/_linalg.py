"""The package's one linear-algebra layer: the Hermitian eigensolve and its
spectral calculus, the spectral norm, and `check`, the one path of every
numeric check, with every threshold in the table below.

LAPACK does not check its input: a NaN entry can come back as finite
eigenvalues. The solver and norms here therefore reject non-finite input with
numpy.linalg.LinAlgError, a ValueError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericCheckError

# Every threshold of a numeric check, one line each; values never loosen.
HERMITIAN_TOL = 1e-10  # ||m - m^H||_F per unit of 1 + max |Re m_xy|, |Im m_xy|
UNITARY_TOL = 1e-10  # ||u^H u - 1||_F, and ||u_0 - 1||_F for a cocycle
ZERO_PROP_TOL = 1e-10  # ||w + h - E(h)|| per unit of min(1, max|h_xy|)
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


def _parts(m):
    """m's real and imaginary parts side by side, as one float64 array."""
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)


def part_exponent(m):
    """(big, e): big the largest |Re m_xy| or |Im m_xy|, and e with
    2^(e-1) <= big < 2^e (e = 0 for big = 0). big is finite for finite
    entries, where max|m_xy| may not be. Scaling m by 2^k adds k to e."""
    big = float(np.abs(_parts(m)).max(initial=0.0))
    return big, math.frexp(big)[1]


def require_hermitian(m):
    """Raise ValueError unless ||m - m^H||_F <= HERMITIAN_TOL (1 + big), with
    big the largest |Re m_xy| or |Im m_xy|.

    Never looser than checking the residual in the spectral or the Frobenius
    norm against 1e-10 (1 + ||m||_2) or 1e-10 (1 + ||m||_F), because
    ||.||_2 <= ||.||_F and big <= max|m_xy| <= ||m||_2 <= ||m||_F.

    m is scaled by 2^-e (part_exponent) before the norm squares it, and the
    residual is scaled back: it is inf only if it exceeds the largest float.
    """
    big, e = part_exponent(m)
    scaled = np.ldexp(_parts(m), -e).view(np.complex128)
    try:
        res = math.ldexp(float(np.linalg.norm(scaled - scaled.conj().T)), e)
    except OverflowError:
        res = math.inf
    check(res, HERMITIAN_TOL * (1.0 + big), "input is not Hermitian", ValueError)


def require_unitary(m, what):
    """Raise ValueError naming what unless ||m^H m - 1||_F <= UNITARY_TOL.

    m is one matrix or a (k, n, n) stack, checked slice by slice; the error
    names the first slice i that fails, as what(i) if what is a function.
    Never looser than the same check in the spectral norm: ||.||_2 <= ||.||_F.
    """
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    res = np.atleast_1d(np.linalg.norm(gram - np.eye(m.shape[-1]), axis=(-2, -1)))
    at = " (slice {})" if m.ndim == 3 else ""
    name = what if callable(what) else lambda i: f"{what}{at.format(i)}"
    check(res, UNITARY_TOL, lambda i: f"{name(i)} is not unitary", ValueError)


@dataclass(frozen=True)
class EigenSystem:
    """h = V diag(lambda) V^H, and functions of h as V diag(f(lambda)) V^H."""

    eigenvalues: np.ndarray  # ascending, real
    vectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]

    def _many(self, f, times) -> np.ndarray:
        """The (T, n, n) stack of V diag(f(t, lambda)) V^H over times t; a
        phase that overflows leaves a non-finite entry for the caller's checks."""
        t = np.asarray(times, dtype=np.float64)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            phases = f(t, self.eigenvalues)
            return (self.vectors * phases[:, None, :]) @ self.vectors.conj().T

    def exp_many(self, times) -> np.ndarray:
        """The (T, n, n) stack of e^{ith} over times. Callers bound T by the
        chunk rule."""
        return self._many(lambda t, lam: np.exp(1j * (t * lam)), times)

    def expm1_over_t_many(self, times) -> np.ndarray:
        """The (T, n, n) stack of (e^{ith} - 1)/t over times, ih at t = 0."""
        return self._many(expm1_over_t, times)


def expm1_over_t(t, lam):
    """(e^{it lam} - 1)/t for real t and lam that broadcast, i lam at t = 0:
    every difference quotient of a phase. It is i lam e^{ix/2} sin(x/2)/(x/2)
    with x = t lam, and i lam where x/2 is 0 (as a subnormal t can make it),
    so no subtraction cancels at a small t and nothing is divided by t. x/2
    is exact, where np.sinc(x / 2 pi) would round its argument twice. A phase
    that overflows leaves a non-finite entry for the caller's checks."""
    half = 0.5 * (t * lam)
    sinc = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    return 1j * lam * np.exp(1j * half) * sinc


def hermitian_eig(a) -> EigenSystem:
    """The package's one eigensolve, of an OperatorMatrix a that passes
    require_hermitian, symmetrized as 0.5a + (0.5a)^H, which cannot overflow.
    A sweep over many times solves once and evaluates the EigenSystem."""
    require_hermitian(a.entries)
    half = 0.5 * a.entries
    m = half + half.conj().T
    require_finite(m)
    return EigenSystem(*np.linalg.eigh(m))


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
    """Largest singular value of every matrix in a (k, p, q) stack:
    top_norms(*scaled_grams(stack)). An all-zero matrix, and every matrix of
    an empty shape, has norm 0."""
    return top_norms(*scaled_grams(stack))


def scaled_grams(stack):
    """(gram, e) for a (k, p, q) stack: matrix i scaled by 2^-e[i], with
    2^(e-1) <= its largest entry modulus < 2^e, and its Gram matrix on the
    smaller side. The scaling is exact, even for subnormal entries, so a
    result scaled back by 2^e neither overflows nor underflows unless it
    does itself; a nonzero scaled matrix has norm >= 1/2, and its Gram matrix
    lambda_max >= 1/4. A stack of an empty shape gives (k, 0, 0) Grams."""
    m = np.ascontiguousarray(stack, dtype=np.complex128)
    if m.ndim != 3:
        raise ValueError(f"need a (k, p, q) stack, got shape {m.shape}")
    k, p, q = m.shape
    if m.size == 0:
        return np.zeros((k, 0, 0), dtype=np.complex128), np.zeros(k, dtype=np.int32)
    scale = np.abs(m).max(axis=(1, 2))
    require_finite(scale)
    e = np.frexp(scale)[1]
    # the real and imaginary parts side by side, each scaled exactly
    m = np.ldexp(m.view(np.float64), -e[:, None, None]).view(np.complex128)
    mh = m.conj().transpose(0, 2, 1)
    return (m @ mh if p < q else mh @ m), e


def top_norms(gram, e):
    """sqrt(lambda_max(gram[i])) 2^e[i] for scaled_grams' (gram, e): the
    spectral norms, 0 for an empty Gram matrix; a norm that overflows is inf."""
    if gram.size == 0:
        return np.zeros(len(e))
    top = np.linalg.eigvalsh(gram)[:, -1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


# A diagonal entry of a scaled Gram matrix below this is taken as this much
# in gram_bounds' quotient, which only lowers the quotient
_GRAM_DIAGONAL = 2.0**-512


def gram_bounds(gram, e):
    """(lo, hi) with lo <= ||m|| <= hi, up to rounding, for scaled_grams'
    (gram, e) of each matrix m; both scaled back by 2^e.

    lo = sqrt(max_j (G^2)_jj / G_jj) is the Rayleigh quotient of G at
    G^(1/2) e_j, and (G^2)_jj = sum_k |G_jk|^2 is the squared norm of row j,
    so it needs no product. hi = ||G||_F^(1/2) >= lambda_max^(1/2). Each is
    within a small multiple of n^2 eps of its exact value, n = p + q, relative
    to lambda_max >= 1/4: the row of G's largest diagonal entry has
    G_jj >= 1/4, and a diagonal entry below 2^-512 is raised to it, so the
    absolute underflow inside a scaled matrix, at most pq 2^-1074 per entry
    of G, moves no quotient by more than pq 2^-562. lo is at most the largest
    finite float, so a floor taken from it stays finite."""
    g = gram.view(np.float64)
    rows = np.einsum("kij,kij->ki", g, g)
    diagonal = np.maximum(gram.diagonal(axis1=1, axis2=2).real, _GRAM_DIAGONAL)
    with np.errstate(over="ignore"):
        lo = np.ldexp(np.sqrt((rows / diagonal).max(axis=1, initial=0.0)), e)
        hi = np.ldexp(np.sqrt(np.sqrt(rows.sum(axis=1))), e)
    return np.minimum(lo, np.finfo(np.float64).max), hi


# A matrix whose gram_bounds ceiling falls below a floor divided by
# _GRAM_MARGIN, less _GRAM_SLACK, cannot set the max above it (gram_reaches)
_GRAM_MARGIN = 1.0 + 2.0**-24
_GRAM_SLACK = 2.0**-1070


def gram_reaches(hi, floor):
    """Where a matrix of gram_bounds ceiling hi may still set a max of
    top_norms norms with the lower bound floor: hi >= floor / _GRAM_MARGIN
    - _GRAM_SLACK. floor is the largest lo and norm known for that max, or
    a bound proved no larger; skipping every other matrix is lossless.

    The matrix of the largest computed norm always reaches it, so the max
    of the norms computed is bit for bit the max over every matrix. Each
    bound and norm is within a small multiple of n^2 eps of its exact value
    (gram_bounds), and n^2 eps <= 2^-28 for n = p + q <= 2 MAX_POINTS (of
    space); so a floor is at most (1 + 8 n^2 eps) times that matrix's hi,
    which _GRAM_MARGIN covers twice over. A result that falls in the
    subnormals is rounded once more, by at most 2^-1075 absolute;
    _GRAM_SLACK covers 32 such roundings. A floor that overflowed stays
    finite (gram_bounds), or is a norm of inf, which no skipped matrix can
    beat."""
    return hi >= floor / _GRAM_MARGIN - _GRAM_SLACK


def spectral_norm(m):
    """Largest singular value of a dense complex array (square or not)."""
    return float(spectral_norms(np.asarray(m)[None])[0])
