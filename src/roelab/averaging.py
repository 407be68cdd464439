"""Averaging over the sign group {-1,+1}^X.

Conjugating by every diagonal +/-1 unitary and averaging uniformly extracts
the diagonal exactly; on a finite group the uniform measure is the unique
invariant mean, so nothing else needs to be exposed. The same machinery
drives the constructive finite-propagation extraction pipeline.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._linalg import spectral_norm
from .errors import NumericCheckError, SizeGuardError
from .operator import OperatorMatrix, expectation, propagation, truncate
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


def all_sign_vectors(n: int):
    """Canonical (lexicographic, -1 before +1) enumeration of {-1,+1}^n."""
    for combo in itertools.product((-1, 1), repeat=n):
        yield SignVector(np.array(combo, dtype=np.int8))


def conjugate_by_sign(a: OperatorMatrix, eps: SignVector) -> OperatorMatrix:
    """pi(eps)^* a pi(eps): entry (x, y) picks up the factor eps_x eps_y."""
    s = eps.signs.astype(np.float64)
    return OperatorMatrix(a.space, a.entries * np.outer(s, s))


def brute_average(
    space: FiniteSpace,
    family: Callable[[SignVector], OperatorMatrix],
    *,
    allow_large: bool = False,
) -> OperatorMatrix:
    """2^{-n} sum of family(eps) over all sign vectors, summed in the
    canonical order so the float result is reproducible."""
    n = space.n_points
    if n > BRUTE_GUARD and not allow_large:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    acc = np.zeros((n, n), dtype=np.complex128)
    for eps in all_sign_vectors(n):
        acc += family(eps).entries
    return OperatorMatrix(space, acc / float(2**n))


def average_conjugation(a: OperatorMatrix, method: str = "auto") -> OperatorMatrix:
    """Average of pi(eps)^* a pi(eps) over the sign group.

    The analytic fast path is expectation(a): the average of eps_x eps_y is
    1 iff x = y and 0 otherwise. The brute path exists to validate it and is
    the default below the size guard.
    """
    if method == "auto":
        method = "brute" if a.n <= BRUTE_GUARD else "fast"
    if method == "fast":
        return expectation(a)
    if method != "brute":
        raise ValueError(f"unknown method {method!r}")
    return brute_average(a.space, lambda eps: conjugate_by_sign(a, eps))


@dataclass(frozen=True)
class ExtractionReport:
    h_prime: OperatorMatrix
    defect: float
    zero_prop_residual: float


def extract_finite_prop(
    h: OperatorMatrix,
    r: float,
    selector: Optional[Callable[[OperatorMatrix], OperatorMatrix]] = None,
) -> ExtractionReport:
    """Extract a propagation-<=r approximant of a Hermitian h by sign-group
    averaging.

    Per sign vector eps, m_eps = pi(eps)^*[h, pi(eps)] = pi(eps)^* h pi(eps) - h
    is handed to the selector, which must return a propagation-<=r matrix
    b_eps. Averaging gives w = avg(m_eps) and b = avg(b_eps), and the output
    is h' = w + h - b with defect ||h - h'|| bounded by the worst selector
    error. w + h must equal E(h): that identity is re-verified on every run.
    """
    n = h.n
    if n > BRUTE_GUARD:
        raise SizeGuardError("sign-group-brute-average", BRUTE_GUARD, n)
    res = spectral_norm(h.entries - h.entries.conj().T)
    if res > 1e-10 * (1.0 + spectral_norm(h.entries)):
        raise ValueError(f"h must be Hermitian; residual {res:.3e}")
    if selector is None:
        selector = lambda m: truncate(m, r)

    w_sum = np.zeros((n, n), dtype=np.complex128)
    b_sum = np.zeros((n, n), dtype=np.complex128)
    for eps in all_sign_vectors(n):
        m_eps = conjugate_by_sign(h, eps) - h
        b_eps = selector(m_eps)
        if propagation(b_eps, 0.0) > r + 1e-12:
            raise ValueError(
                "selector returned a matrix with propagation "
                f"{propagation(b_eps, 0.0)} > r = {r}"
            )
        w_sum += m_eps.entries
        b_sum += b_eps.entries

    scale = float(2**n)
    w = OperatorMatrix(h.space, w_sum / scale)
    b = OperatorMatrix(h.space, b_sum / scale)
    h_prime = w + h - b
    defect = spectral_norm(h.entries - h_prime.entries)
    zero_prop_residual = spectral_norm(
        w.entries + h.entries - expectation(h).entries
    )
    if zero_prop_residual > 1e-10:
        raise NumericCheckError(
            f"w + h deviates from E(h) by {zero_prop_residual:.3e}"
        )
    return ExtractionReport(h_prime, defect, zero_prop_residual)
