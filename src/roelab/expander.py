"""Families of blocks, each given by its size and weight, and the exact
discontinuity constants of the pre-flow e^{ith} they generate, with
h = sum_n w(n) p_n and p_n the rank-one averaging projection of block n.
p_n, the half split A_n and so every value here depend on the block sizes
alone, not on the graph on a block, so a family holds no graph. The w-map
compares e^{ith} with e^{itk} for a k that is one real value per block, as
E(h) = w(n) / |X_n| is. The pre-flow is block diagonal, so every norm is
taken block by block, and the coarse union of the blocks is never built. On
a block, u p_{A_n} u* - p_{A_n} is constant on the products of the two
cells X_n \\ A_n and A_n, so it is normed on a 2 x 2 quotient, and
u e^{-itk} - 1 is normal, with its norm in closed form (see _block_norms)."""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._linalg import DISCONTINUITY_TOL, WMAP_TOL, check, chunks
from ._linalg import require_finite, spectral_norm, spectral_norms
from .errors import ConfigError
from .space import check_points

WEIGHT_PRESETS = {
    "constant": lambda n: 1.0,
    "linear": lambda n: float(n),
    "quadratic": lambda n: float(n * n),
}


@dataclass(frozen=True)
class BlockFamily:
    """Block sizes and one weight per block; built by block_family."""

    sizes: Tuple[int, ...]
    weights: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)


def block_family(sizes: Sequence[int], weights) -> BlockFamily:
    """Assemble a family of blocks of the given positive sizes with one
    weight each, given or named by a preset."""
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("at least one block required")
    if not all(isinstance(s, (int, np.integer)) and s >= 1 for s in sizes):
        raise ValueError(f"block sizes must be positive integers, got {sizes!r}")
    if isinstance(weights, str):
        if weights not in WEIGHT_PRESETS:
            raise ValueError(f"unknown weight preset {weights!r}")
        preset = WEIGHT_PRESETS[weights]
        weights = [preset(n + 1) for n in range(len(sizes))]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(sizes),):
        raise ValueError("one weight per block required")
    check_points(sum(sizes))
    return BlockFamily(tuple(int(s) for s in sizes), w)


def require_regular_blocks(sizes: Sequence[int], degree: int) -> None:
    """Raise ConfigError, a ValueError, unless a connected simple
    degree-regular graph exists on every block size s: s > degree, s degree
    even (the degree sum), and degree >= 2 unless s = degree + 1 (one point
    or one edge). These suffice: the circulant graph on s points with
    offsets +-1, ..., +-floor(degree / 2), and s / 2 when degree is odd, is
    one."""
    for size in sizes:
        if size <= degree:
            raise ConfigError(f"block size {size} must exceed degree {degree}")
        if (size * degree) % 2 != 0:
            raise ConfigError(f"degree*size must be even (size {size})")
        if degree < 2 and size != degree + 1:
            raise ConfigError(
                f"a connected {degree}-regular graph has {degree + 1} points, "
                f"not {size}"
            )


def _split_mask(size: int) -> np.ndarray:
    """The diagonal of p_{A_n} on a block of ``size`` points: the half split
    A_n of a block is its first ceil(size / 2) points."""
    return (np.arange(size) < (size + 1) // 2).astype(np.float64)


def split_factor(size: int) -> float:
    """sqrt(|A_n| * |X_n \\ A_n|) / |X_n| for a block X_n of ``size`` points;
    equals 1/2 for even block sizes."""
    a = _split_mask(size).sum()
    return float(np.sqrt(a * (size - a)) / size)


def halfsplit_commutator_norm(size: int) -> float:
    """||p_n p_{A_n} - p_{A_n} p_n|| for a block X_n of ``size`` points, which
    evaluates to sqrt(|A_n| |X_n \\ A_n|) / |X_n|. Both live on the block's
    square, and the commutator is normed there."""
    p_n = np.full((size, size), 1.0 / size)
    p_a = np.diag(_split_mask(size))
    return spectral_norm(p_n @ p_a - p_a @ p_n)


def _closed_forms(fam: BlockFamily, times) -> np.ndarray:
    """(T, n_blocks) array of split_factor(|X_n|) * |e^{itw(n)} - 1|."""
    factors = np.array([split_factor(size) for size in fam.sizes])
    return factors * np.abs(np.expm1(1j * times[:, None] * fam.weights[None, :]))


def _block_norms(fam: BlockFamily, k, times):
    """Two (T, n_blocks) arrays: per time t and block n, the norms on block n
    of u p_{A_n} u* - p_{A_n} and of u e^{-itk_n} - 1, with u block n of the
    pre-flow e^{ith} = 1 + sum_n c p_n, c = expm1(itw(n)). Both pieces are
    block diagonal, so the norm of each is the max over its blocks.

    On a block of s points, p_n = J/s, J the all-ones matrix, and
    u p_{A_n} u* - p_{A_n} is the constant
    n_jl = (c/s) mask_l + (conj(c)/s) mask_j + |c|^2 |A_n| / s^2 on cell
    j x cell l of the two cells X_n \\ A_n and A_n (mask_j = 1 on A_n). So it
    is 0 on the vectors that sum to 0 on both cells, and on the cell
    indicators 1_{C_j} / sqrt(s_j) it is the 2 x 2 quotient
    Q_jl = sqrt(s_j s_l) n_jl, complement first (an empty cell gives a zero
    row and column). One spectral_norms call per chunk of times norms the
    quotients of every block, and refuses a non-finite entry.

    u e^{-itk_n} - 1 = (e^{it(w(n) - k_n)} - 1) p_n + em (1 - p_n), with
    em = expm1(-itk_n), is normal: its norm is the larger modulus, the second
    only where s >= 2. Its values pass require_finite. Neither piece is
    formed as u minus 1, so neither cancels at a small t.

    h, p_A and k are real, so a piece at -t is the entrywise conjugate of the
    piece at t: the norms are taken once per distinct |t| > 0 and indexed
    back (both are 0 at t = 0, since expm1(0) = 0).
    """
    mags, back = np.unique(np.abs(times), return_inverse=True)
    norms = np.zeros((2, len(mags), fam.n_blocks))
    lo = np.searchsorted(mags, 0.0, side="right")
    live, (moved, w_minus_one) = mags[lo:], norms[:, lo:]
    size = np.array(fam.sizes, dtype=np.float64)
    split = np.array([_split_mask(s).sum() for s in fam.sizes])  # |A_n|
    cells = np.stack([size - split, split], axis=1)  # X_n \ A_n, then A_n
    root = np.sqrt(cells[:, :, None] * cells[:, None, :])
    mask = np.array([0.0, 1.0])
    # an overflow leaves a non-finite entry, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.expm1(1j * live[:, None] * fam.weights)
        em = np.expm1(-1j * live[:, None] * k)
        # the chunk rule bounds the quotients of one time as one (2B) x 2 slab
        for sl in chunks(len(live), 2 * fam.n_blocks, 2):
            a = c[sl, :, None, None] / size[:, None, None]  # c/s, (T, B, 1, 1)
            q = a * mask + a.conj() * mask[:, None]
            q += (a * a.conj()).real * split[:, None, None]
            q *= root
            moved[sl] = spectral_norms(q.reshape(-1, 2, 2)).reshape(len(a), -1)
        # e^{it(w(n) - k_n)} - 1 as (1 + c)(1 + em) - 1, from the c that the
        # closed form reads, so the w-map bound holds at any t
        on_p = em + c * (1.0 + em)
    require_finite(on_p)  # non-finite wherever em is
    w_minus_one[:] = np.maximum(np.abs(on_p), np.where(size >= 2, np.abs(em), 0.0))
    return norms[0, back], norms[1, back]


def preflow_profiles(fam: BlockFamily, k, times):
    """Per grid time t, four arrays: measured = ||sigma_{h,t}(p_A) - p_A||,
    its closed form max_n split_factor(|X_n|) * |e^{itw(n)} - 1|, the block
    attaining it, and lhs = ||e^{ith} e^{-itk} - id||, with k the diagonal
    that is k[n] on block n. The closed form is also the w-map's corner
    bound on lhs.

    p_A and e^{-itk} are diagonal, so both operators are block diagonal, and
    both identities are checked from one pass over the blocks: the norm on
    block n must equal split_factor(|X_n|) * |e^{itw(n)} - 1| within
    DISCONTINUITY_TOL, and lhs may fall below the corner bound by WMAP_TOL
    at most.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (fam.n_blocks,):
        raise ValueError("k must be one real value per block")
    times = np.asarray(times, dtype=np.float64)
    moved, w_minus_one = _block_norms(fam, k, times)
    closed = _closed_forms(fam, times)
    m = fam.n_blocks
    check(
        np.abs(moved - closed), DISCONTINUITY_TOL,
        lambda i: f"discontinuity identity at t={times[i // m]} on block {i % m}",
    )
    closed_form, lhs = closed.max(axis=1), w_minus_one.max(axis=1)
    check(closed_form - lhs, WMAP_TOL, lambda i: f"w-map lower bound at t={times[i]}")
    return moved.max(axis=1), closed_form, np.argmax(closed, axis=1), lhs
