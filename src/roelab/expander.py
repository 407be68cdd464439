"""Families of blocks, each given by its size and weight, and the exact
discontinuity constants of the pre-flow e^{ith} they generate, with
h = sum_n w(n) p_n and p_n the rank-one averaging projection of block n.
p_n, the half split A_n and so every value here depend on the block sizes
alone, not on the graph on a block, so a family holds no graph. The
pre-flow is block diagonal, so every norm is taken block by block, and the
coarse union of the blocks is never built. On a block, each piece normed is
constant on the products of its cells, the runs of equal (A_n-membership,
k), apart from a diagonal constant on each cell. So it is the direct sum of
a diagonal on W, the vectors that sum to 0 on every cell, and an m x m
quotient Q_jl = [j = l] d_j + sqrt(s_j s_l) n_jl on the m cell indicators:
2 x 2 for the CLI's choices of k (see _block_norms)."""

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
    """Block sizes and one weight per block; built by block_family."""

    sizes: Tuple[int, ...]
    weights: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def n_points(self) -> int:
        return sum(self.sizes)


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
    of u p_{A_n} u* - p_{A_n} and of u e^{-itk} - 1, with u block n of the
    pre-flow e^{ith} and k diagonal.

    The pre-flow e^{ith} = 1 + sum_n (e^{itw(n)} - 1) p_n is block diagonal,
    and so are both pieces: the norm of each is the max over its blocks. On
    a block of s points, u = 1 + (c/s) J, with c = expm1(itw(n)) and J the
    all-ones matrix. The block's cells are its runs of equal (A_n-membership,
    k), found by one lexsort over the union. Each piece is a constant n_jl
    on cell j x cell l plus a diagonal d_j on cell j:

        u p_{A_n} u* - p_{A_n}:  n_jl = (c/s) mask_l + (conj(c)/s) mask_j + |c|^2 |A_n| / s^2,  d_j = 0,
        u e^{-itk} - 1:          n_jl = (c/s) e^{-itk_l},  d_j = expm1(-itk_j),

    with mask_j = 1 on cells in A_n. So it maps V, the span of the cell
    indicators, and W, the vectors that sum to 0 on every cell, into
    themselves. On W it is d_j on each cell j of >= 2 points. On V, in the
    basis 1_{C_j} / sqrt(s_j), s_j the size of cell j, it is the m x m
    quotient

        Q_jl = [j = l] d_j + sqrt(s_j s_l) n_jl,

    so its norm is max(||Q||, |d_j| over the cells of >= 2 points). A k that
    is constant on each block, as both CLI choices are, gives 2 x 2 quotients
    (1 x 1 on a one-point block); a k distinct at every point gives s x s.
    Blocks of m cells share a stack per chunk of times, and each piece is
    normed before the next is formed. Both are formed from c, never as u
    minus 1, so neither cancels at a small t, and each d_j sits on Q's
    diagonal, so a non-finite value reaches spectral_norms, which refuses it.

    Both pieces are built from the real h, p_A and k, so a piece at -t is
    the entrywise conjugate of the piece at t and has the same norm: the
    norms are taken once per distinct |t| > 0 and indexed back (both are 0
    at t = 0, since expm1(0) = 0).
    """
    mags, back = np.unique(np.abs(times), return_inverse=True)
    norms = np.zeros((2, len(mags), fam.n_blocks))
    lo = np.searchsorted(mags, 0.0, side="right")
    live, (moved, w_minus_one) = mags[lo:], norms[:, lo:]
    # the cells: runs of equal (block, mask, k) in one sort over the union
    block = np.repeat(np.arange(fam.n_blocks), fam.sizes)
    mask = np.concatenate([_split_mask(size) for size in fam.sizes])
    keys = np.stack([block, mask, k])[:, np.lexsort((k, mask, block))]
    starts = np.flatnonzero(np.append(True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)))
    cell_size = np.diff(np.append(starts, fam.n_points))
    cell_block, cell_mask, cell_k = keys[:, starts]
    per_block = np.bincount(cell_block.astype(np.intp), minlength=fam.n_blocks)
    first = np.cumsum(per_block) - per_block
    for m in sorted(set(per_block)):
        # the b blocks of m cells each, as (b, m) arrays of their cells
        ns = np.flatnonzero(per_block == m)
        cells = first[ns][:, None] + np.arange(m)
        s, mask_j, k_j = cell_size[cells], cell_mask[cells], cell_k[cells]
        root = np.sqrt(s[:, :, None] * s[:, None, :])
        size = s.sum(axis=1)[:, None, None]
        split = (mask_j * s).sum(axis=1)[:, None, None]  # |A_n|
        diag = np.arange(m)
        # the chunk rule bounds the b quotients of one time as one (b m) x m slab
        for sl in chunks(len(live), len(ns) * m, m):
            t = live[sl]
            # an overflow leaves a non-finite entry, refused by spectral_norms
            with np.errstate(over="ignore", invalid="ignore"):
                # c/s of the blocks, time-major, as a (T, b, 1, 1) array
                a = np.expm1(1j * t[:, None] * fam.weights[ns])[..., None, None] / size
                q = a * mask_j[:, None, :] + a.conj() * mask_j[:, :, None]
                q += (a * a.conj()).real * split
                q *= root
                moved[sl, ns] = spectral_norms(q.reshape(-1, m, m)).reshape(len(t), -1)
                em = np.expm1(-1j * t[:, None, None] * k_j)
                q = root * (a * (1.0 + em[:, :, None, :]))
                q[..., diag, diag] += em
                norm = spectral_norms(q.reshape(-1, m, m)).reshape(len(t), -1)
                # the W part of every cell of >= 2 points
                on_w = np.abs(np.where(s >= 2, em, 0.0)).max(axis=-1)
                w_minus_one[sl, ns] = np.maximum(norm, on_w)
    return norms[0, back], norms[1, back]


def preflow_profiles(fam: BlockFamily, k, times):
    """Per grid time t, four arrays: measured = ||sigma_{h,t}(p_A) - p_A||,
    its closed form max_n split_factor(|X_n|) * |e^{itw(n)} - 1|, the block
    attaining it, and lhs = ||e^{ith} e^{-itk} - id|| for diagonal k. The
    closed form is also the w-map's corner bound on lhs.

    p_A and e^{-itk} are diagonal, so both operators are block diagonal, and
    both identities are checked from one pass over the blocks: the norm on
    block n must equal split_factor(|X_n|) * |e^{itw(n)} - 1| within
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
