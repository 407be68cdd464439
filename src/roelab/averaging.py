"""Averaging over the sign group {-1,+1}^X.

Conjugating by every diagonal +/-1 unitary and averaging uniformly extracts
the diagonal exactly; on a finite group the uniform measure is the unique
invariant mean, so nothing else needs to be exposed. The same machinery
drives the constructive finite-propagation extraction pipeline.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._linalg import SELECTOR_PROP_SLACK, ZERO_PROP_TOL
from ._linalg import chunks, require_hermitian, spectral_norm
from .errors import NumericCheckError, SizeGuardError
from .operator import OperatorMatrix, expectation
from .space import FiniteSpace

BRUTE_GUARD = 14


@dataclass(frozen=True)
class SignVector:
    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=np.int8)
        if s.ndim != 1 or not np.all(np.abs(s) == 1):
            raise ValueError("signs must be a flat vector of +/-1")
        s.setflags(write=False)
        object.__setattr__(self, "signs", s)


def _sign_blocks(n: int, count: int):
    """The first count vectors of {-1,+1}^n in canonical order, as int8
    blocks of one n x n stack's worth of rows."""
    powers = 1 << np.arange(n - 1, -1, -1)
    for sl in chunks(count, n, n):
        index = np.arange(sl.start, min(sl.stop, count))
        bits = (index[:, None] & powers) != 0
        yield np.where(bits, 1, -1).astype(np.int8)


def all_sign_vectors(n: int):
    """Canonical (lexicographic, -1 before +1) enumeration of {-1,+1}^n."""
    for block in _sign_blocks(n, 1 << n):
        for signs in block:
            yield SignVector(signs)


def conjugate_by_sign(a: OperatorMatrix, eps: SignVector) -> OperatorMatrix:
    """pi(eps)^* a pi(eps): entry (x, y) picks up the factor eps_x eps_y."""
    s = eps.signs.astype(np.float64)
    return OperatorMatrix(a.space, a.entries * np.outer(s, s))


def brute_average(
    space: FiniteSpace, family: Callable[[SignVector], OperatorMatrix]
) -> OperatorMatrix:
    """2^{-n} sum of family(eps) over all sign vectors, summed in the
    canonical order so the float result is reproducible."""
    n = space.n_points
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    acc = np.zeros((n, n), dtype=np.complex128)
    for eps in all_sign_vectors(n):
        acc += family(eps).entries
    return OperatorMatrix(space, acc / float(2**n))


@dataclass(frozen=True)
class ExtractionReport:
    h_prime: OperatorMatrix
    defect: float
    zero_prop_residual: float


def extract_finite_prop(
    h: OperatorMatrix,
    r: float,
    selector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ExtractionReport:
    """Extract a propagation-<=r approximant of a Hermitian h by sign-group
    averaging.

    Per sign vector eps, m_eps = pi(eps)^*[h, pi(eps)] = pi(eps)^* h pi(eps) - h
    is handed to the selector, which must return a propagation-<=r matrix
    b_eps. Averaging gives w = avg(m_eps) and b = avg(b_eps), and the output
    is h' = w + h - b with defect ||h - h'|| bounded by the worst selector
    error. w + h must equal E(h): that identity is re-verified on every run.

    m_eps is the same for eps and -eps, so the averages run over the coset
    representatives with eps_0 = -1: the first half of the canonical order.
    The selector takes a (k, n, n) stack of their m_eps entry arrays, k sign
    vectors at a time in canonical order, and returns the stack of b_eps
    entry arrays. The default keeps the entries at distance <= r.
    """
    n = h.n
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    require_hermitian(h.entries)
    dist = h.space.dist
    if selector is None:
        band = dist <= r
        selector = lambda m: np.where(band, m, 0.0)

    minus_twice_h = -2.0 * h.entries
    w_sum = np.zeros((n, n), dtype=np.complex128)
    b_sum = np.zeros((n, n), dtype=np.complex128)
    half = 1 << (n - 1)
    for block in _sign_blocks(n, half):
        # h o (eps eps^T) - h, computed as what it is entrywise: -2 h_xy
        # where eps_x != eps_y and 0 elsewhere (the same floats either way)
        flip = block[:, :, None] != block[:, None, :]
        m = np.where(flip, minus_twice_h, 0.0)
        b = np.asarray(selector(m))
        if b.shape != m.shape:
            raise ValueError(
                f"selector returned shape {b.shape} for a stack of shape {m.shape}"
            )
        support = b.any(axis=0)
        prop = float(dist[support].max(initial=0.0))
        if not prop <= r + SELECTOR_PROP_SLACK:
            raise ValueError(
                f"selector returned a matrix with propagation {prop} > r = {r}"
            )
        w_sum += m.sum(axis=0)
        b_sum += b.sum(axis=0)

    w = OperatorMatrix(h.space, w_sum / float(half))
    b = OperatorMatrix(h.space, b_sum / float(half))
    h_prime = w + h - b
    defect = spectral_norm(h.entries - h_prime.entries)
    zero_prop_residual = spectral_norm(w.entries + h.entries - expectation(h).entries)
    if not zero_prop_residual <= ZERO_PROP_TOL:
        raise NumericCheckError(f"w + h deviates from E(h) by {zero_prop_residual:.3e}")
    return ExtractionReport(h_prime, defect, zero_prop_residual)
