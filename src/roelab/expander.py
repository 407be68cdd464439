"""Families of connected graph blocks carrying block weights, and the exact
discontinuity constants of the pre-flow e^{ith} they generate, with
h = sum_n w(n) p_n and p_n the rank-one averaging projection of block n.
The pre-flow is block diagonal, so every norm is taken block by block, and
the coarse union of the blocks is never built."""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._linalg import _CHUNK, DISCONTINUITY_TOL, WMAP_TOL, check, chunks
from ._linalg import spectral_norm, spectral_norms
from .errors import ConfigError
from .space import FiniteSpace, check_points, from_edge_list

WEIGHT_PRESETS = {
    "constant": lambda n: 1.0,
    "linear": lambda n: float(n),
    "quadratic": lambda n: float(n * n),
}


@dataclass(frozen=True)
class BlockFamily:
    blocks: Tuple[FiniteSpace, ...]
    weights: np.ndarray
    offsets: Tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_points(self) -> int:
        return self.offsets[-1] + self.blocks[-1].n_points

    def block_size(self, n: int) -> int:
        if not 0 <= n < self.n_blocks:
            raise IndexError(f"block index {n} out of range")
        return self.blocks[n].n_points


def block_family(blocks: Sequence[FiniteSpace], weights) -> BlockFamily:
    """Assemble a family of blocks with one weight each, given or named by a
    preset."""
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("at least one block required")
    if isinstance(weights, str):
        if weights not in WEIGHT_PRESETS:
            raise ValueError(f"unknown weight preset {weights!r}")
        preset = WEIGHT_PRESETS[weights]
        weights = [preset(n + 1) for n in range(len(blocks))]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(blocks),):
        raise ValueError("one weight per block required")
    sizes = [b.n_points for b in blocks]
    check_points(sum(sizes))
    offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
    return BlockFamily(blocks, w, offsets)


def _block_sum(fam: BlockFamily, terms) -> np.ndarray:
    """sum c p_n over the (n, c) pairs of terms: c / |X_n| on block n's square."""
    m = np.zeros((fam.n_points,) * 2, dtype=np.complex128)
    for n, c in terms:
        size = fam.block_size(n)  # before offsets[n]: refuses n outside [0, n_blocks)
        block = slice(fam.offsets[n], fam.offsets[n] + size)
        m[block, block] = c / size
    return m


def _split_mask(size: int) -> np.ndarray:
    """The diagonal of p_{A_n} on a block of ``size`` points: the half split
    A_n of a block is its first ceil(size / 2) points."""
    return (np.arange(size) < (size + 1) // 2).astype(np.float64)


def _split_diagonal(fam: BlockFamily) -> np.ndarray:
    """The diagonal of p_A, A the union of the per-block half splits."""
    return np.concatenate([_split_mask(b.n_points) for b in fam.blocks])


def split_factor(fam: BlockFamily, n: int) -> float:
    """sqrt(|A_n| * |X_n \\ A_n|) / |X_n|; equals 1/2 for even block sizes."""
    size = fam.block_size(n)
    a = _split_mask(size).sum()
    return float(np.sqrt(a * (size - a)) / size)


def halfsplit_commutator_norm(fam: BlockFamily, n: int) -> float:
    """||p_n p_{A_n} - p_{A_n} p_n||, which evaluates to
    sqrt(|A_n| |X_n \\ A_n|) / |X_n|."""
    p_n = _block_sum(fam, [(n, 1.0)])
    p_a = np.diag(_split_diagonal(fam))
    return spectral_norm(p_n @ p_a - p_a @ p_n)


def _closed_forms(fam: BlockFamily, times) -> np.ndarray:
    """(T, n_blocks) array of split_factor(n) * |e^{itw(n)} - 1|."""
    factors = np.array([split_factor(fam, n) for n in range(fam.n_blocks)])
    phases = np.exp(1j * times[:, None] * fam.weights[None, :])
    return factors * np.abs(phases - 1.0)


def _block_norms(fam: BlockFamily, times, piece) -> np.ndarray:
    """(T, n_blocks) array of the norms of piece(ns, t, u) per block n and
    time. ns lists the blocks of one size s, and u is the (T, m, s, s) stack
    of their blocks of the pre-flow over a chunk t of the times.

    The pre-flow e^{ith} = 1 + sum_n (e^{itw(n)} - 1) p_n is block diagonal,
    since each p_n lives on block n's square. For a block-diagonal piece, the
    norm of the whole operator is the max over blocks: the norm of a direct
    sum.

    Every piece is built from the real h, p_A and k, so the piece at -t is
    the entrywise conjugate of the piece at t and has the same norm: the
    norms are taken once per distinct |t| and indexed back.
    """
    mags, back = np.unique(np.abs(times), return_inverse=True)
    out = np.zeros((len(mags), fam.n_blocks))
    for size in sorted({fam.block_size(n) for n in range(fam.n_blocks)}):
        ns = [n for n in range(fam.n_blocks) if fam.block_size(n) == size]
        # the chunk rule bounds the m blocks of one time as one (m s) x s slab
        for sl in chunks(len(mags), len(ns) * size, size):
            t = mags[sl]
            phases = np.exp(1j * t[:, None] * fam.weights[ns]) - 1.0
            u = np.eye(size) + (phases / size)[:, :, None, None]
            norms = spectral_norms(piece(ns, t, u).reshape(-1, size, size))
            out[sl, ns] = norms.reshape(len(t), len(ns))
    return out[back]


def _block_rows(fam: BlockFamily, v, ns) -> np.ndarray:
    """The (m, s) array of v restricted to each block in ns, all of size s."""
    return v[np.array(fam.offsets)[ns][:, None] + np.arange(fam.block_size(ns[0]))]


def discontinuity_profiles(fam: BlockFamily, times):
    """Per grid time t, ||sigma_{h,t}(p_A) - p_A||, its closed form
    max_n split_factor(n) * |e^{itw(n)} - 1| and the block attaining it, as
    three arrays.

    p_A is diagonal, so sigma_{h,t}(p_A) - p_A is block diagonal, and the
    identity is checked block by block: the norm on block n must equal
    split_factor(n) * |e^{itw(n)} - 1| within DISCONTINUITY_TOL.
    """
    times = np.asarray(times, dtype=np.float64)

    def moved(ns, t, u):
        # every block of one size has the same p_{A_n} diagonal
        mask = _split_mask(u.shape[-1])
        return (u * mask) @ u.conj().swapaxes(-1, -2) - np.diag(mask)

    measured = _block_norms(fam, times, moved)
    closed = _closed_forms(fam, times)
    m = measured.shape[1]
    check(
        np.abs(measured - closed), DISCONTINUITY_TOL,
        lambda i: f"discontinuity identity at t={times[i // m]} on block {i % m}",
    )
    return measured.max(axis=1), closed.max(axis=1), np.argmax(closed, axis=1)


def wmap_lower_bounds(fam: BlockFamily, k, times):
    """Per grid time t, lhs = ||e^{ith} e^{-itk} - id|| for diagonal k and
    the corner bound rhs = max_n split_factor(n) * |e^{itw(n)} - 1|, as two
    arrays. e^{-itk} is diagonal, so lhs is a max over blocks."""
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (fam.n_points,):
        raise ValueError("k must be a real function on the union")
    times = np.asarray(times, dtype=np.float64)

    def w_minus_one(ns, t, u):
        k_ns = _block_rows(fam, k, ns)[:, None, :]
        return u * np.exp(-1j * t[:, None, None, None] * k_ns) - np.eye(u.shape[-1])

    lhs = _block_norms(fam, times, w_minus_one).max(axis=1)
    rhs = _closed_forms(fam, times).max(axis=1)
    check(rhs - lhs, WMAP_TOL, lambda i: f"w-map lower bound at t={times[i]}")
    return lhs, rhs


def _random_regular_graph(size: int, degree: int, rng) -> FiniteSpace:
    """Pairing-model sample, resampled until simple and connected, at most
    1000 attempts. The attempts are drawn _CHUNK at a time, and rng ends
    where one rng.shuffle per attempt would leave it."""
    points = np.repeat(np.arange(size), degree)
    for done in range(0, 1000, _CHUNK):
        count = min(_CHUNK, 1000 - done)
        state = rng.bit_generator.state
        # row j is bit for bit the (j + 1)-th of count rng.shuffle draws
        stubs = rng.permuted(np.tile(points, (count, 1)), axis=1)
        # stubs 2i and 2i + 1 pair up. As sorted keys min * size + max, a
        # repeated edge is a key equal to its neighbour
        u, v = stubs[:, 0::2], stubs[:, 1::2]
        keys = np.sort(np.minimum(u, v) * size + np.maximum(u, v), axis=1)
        simple = ~((u == v).any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1))
        for j in np.flatnonzero(simple):
            edges = np.stack(np.divmod(keys[j], size), axis=1)
            try:
                block = from_edge_list(edges, size)
            except ValueError:
                continue  # disconnected sample
            # leave rng where j + 1 single shuffles would have left it
            rng.bit_generator.state = state
            rng.permuted(np.tile(points, (j + 1, 1)), axis=1)
            return block
    raise ValueError(
        f"could not sample a connected simple {degree}-regular graph on "
        f"{size} points"
    )


def make_regular_family(
    n_blocks: int,
    degree: int,
    sizes: Sequence[int],
    seed: int,
    weights="quadratic",
) -> BlockFamily:
    """Random connected degree-regular blocks (pairing model), deterministic
    under the seed. A shape no such family has raises ConfigError, a
    ValueError."""
    if len(sizes) != n_blocks:
        raise ConfigError("one size per block required")
    for size in sizes:
        if size <= degree:
            raise ConfigError(f"block size {size} must exceed degree {degree}")
        if (size * degree) % 2 != 0:
            raise ConfigError(f"degree*size must be even (size {size})")
    # the union is refused before a block of it is sampled
    check_points(sum(sizes))
    rng = np.random.default_rng(seed)
    blocks = [_random_regular_graph(size, degree, rng) for size in sizes]
    return block_family(blocks, weights)
