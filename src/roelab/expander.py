"""Families of blocks, each given by its size and weight, and the exact
discontinuity constants of the pre-flow e^{ith} they generate, with
h = sum_n w(n) p_n and p_n the rank-one averaging projection of block n.
p_n, the half split A_n and so every value here depend on the block sizes
alone, not on the graph on a block, so a family holds no graph. The
pre-flow is block diagonal, so every norm is taken block by block, and the
coarse union of the blocks is never built."""

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._linalg import DISCONTINUITY_TOL, WMAP_TOL, check, chunks
from ._linalg import spectral_norm, spectral_norms
from .errors import ConfigError
from .space import check_points

WEIGHT_PRESETS = {
    "constant": lambda n: 1.0,
    "linear": lambda n: float(n),
    "quadratic": lambda n: float(n * n),
}


@dataclass(frozen=True)
class BlockFamily:
    sizes: Tuple[int, ...]
    weights: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def n_points(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> Tuple[int, ...]:
        """The first point of each block in the union of the blocks."""
        return tuple(itertools.accumulate(self.sizes[:-1], initial=0))

    def block_size(self, n: int) -> int:
        if not 0 <= n < self.n_blocks:
            raise IndexError(f"block index {n} out of range")
        return self.sizes[n]


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


def split_factor(fam: BlockFamily, n: int) -> float:
    """sqrt(|A_n| * |X_n \\ A_n|) / |X_n|; equals 1/2 for even block sizes."""
    size = fam.block_size(n)
    a = _split_mask(size).sum()
    return float(np.sqrt(a * (size - a)) / size)


def halfsplit_commutator_norm(fam: BlockFamily, n: int) -> float:
    """||p_n p_{A_n} - p_{A_n} p_n||, which evaluates to
    sqrt(|A_n| |X_n \\ A_n|) / |X_n|. Both live on block n's square, and the
    commutator is normed there."""
    size = fam.block_size(n)
    p_n = np.full((size, size), 1.0 / size)
    p_a = np.diag(_split_mask(size))
    return spectral_norm(p_n @ p_a - p_a @ p_n)


def _closed_forms(fam: BlockFamily, times) -> np.ndarray:
    """(T, n_blocks) array of split_factor(n) * |e^{itw(n)} - 1|."""
    factors = np.array([split_factor(fam, n) for n in range(fam.n_blocks)])
    return factors * np.abs(np.expm1(1j * times[:, None] * fam.weights[None, :]))


def _block_norms(fam: BlockFamily, k, times):
    """Two (T, n_blocks) arrays: per time t and block n, the norms on block n
    of u p_{A_n} u* - p_{A_n} and of u e^{-itk} - 1, with u block n of the
    pre-flow e^{ith} and k diagonal.

    The pre-flow e^{ith} = 1 + sum_n (e^{itw(n)} - 1) p_n is block diagonal,
    since each p_n lives on block n's square, and so are both pieces. The
    norm of a block-diagonal operator is the max over its blocks: the norm
    of a direct sum. On a block of s points, u = 1 + (c/s) J with
    c = expm1(itw(n)) and J the all-ones matrix, P = p_{A_n} = diag(mask)
    and JPJ = |A_n| J, so entry (x, y) of each piece is

        u P u* - P:        (c/s) mask_y + (conj(c)/s) mask_x + |c|^2 |A_n| / s^2,
        u e^{-itk} - 1:    [x = y] expm1(-itk_y) + (c/s) e^{-itk_y}.

    Both are formed from c, never as u minus 1, so neither cancels at a
    small t. For each block size and chunk of times the c/s of every block
    are formed once, and each piece is formed and normed before the next.

    Both pieces are built from the real h, p_A and k, so a piece at -t is
    the entrywise conjugate of the piece at t and has the same norm: the
    norms are taken once per distinct |t| > 0 and indexed back (both are 0
    at t = 0, since expm1(0) = 0).
    """
    mags, back = np.unique(np.abs(times), return_inverse=True)
    norms = np.zeros((2, len(mags), fam.n_blocks))
    lo = np.searchsorted(mags, 0.0, side="right")
    live, (moved, w_minus_one) = mags[lo:], norms[:, lo:]
    for size in sorted(set(fam.sizes)):
        ns = [n for n, s in enumerate(fam.sizes) if s == size]
        # every block of one size has the same p_{A_n} diagonal
        mask = _split_mask(size)
        k_ns = k[np.array(fam.offsets)[ns][:, None] + np.arange(size)]
        # the chunk rule bounds the m blocks of one time as one (m s) x s slab
        for sl in chunks(len(live), len(ns) * size, size):
            t = live[sl]
            # an overflow leaves a non-finite entry, refused by spectral_norms
            with np.errstate(over="ignore", invalid="ignore"):
                # c/s of the blocks, time-major, as a (T m, 1, 1) stack
                a = np.expm1(1j * t[:, None] * fam.weights[ns]).reshape(-1, 1, 1) / size
                piece = a * mask + a.conj() * mask[:, None]
                piece += (a * a.conj()).real * mask.sum()
                moved[sl, ns] = spectral_norms(piece).reshape(len(t), -1)
                em = np.expm1(-1j * t[:, None, None] * k_ns).reshape(-1, 1, size)
                piece = a * (1.0 + em) + em * np.eye(size)
                w_minus_one[sl, ns] = spectral_norms(piece).reshape(len(t), -1)
    return norms[0, back], norms[1, back]


def preflow_profiles(fam: BlockFamily, k, times):
    """Per grid time t, four arrays: measured = ||sigma_{h,t}(p_A) - p_A||,
    its closed form max_n split_factor(n) * |e^{itw(n)} - 1|, the block
    attaining it, and lhs = ||e^{ith} e^{-itk} - id|| for diagonal k. The
    closed form is also the w-map's corner bound on lhs.

    p_A and e^{-itk} are diagonal, so both operators are block diagonal, and
    both identities are checked from one pass over the blocks: the norm on
    block n must equal split_factor(n) * |e^{itw(n)} - 1| within
    DISCONTINUITY_TOL, and lhs may fall below the corner bound by WMAP_TOL
    at most.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (fam.n_points,):
        raise ValueError("k must be a real function on the union")
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
