import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_locality import graphs

from roelab import expander, space
from roelab.errors import NumericCheckError, SizeGuardError
from roelab.expander import (
    WEIGHT_PRESETS,
    block_family,
    discontinuity_profiles,
    halfsplit_commutator_norm,
    make_regular_family,
    split_factor,
    wmap_lower_bounds,
)
from roelab._linalg import spectral_norm, spectral_norms
from roelab.operator import OperatorMatrix, diagonal
from roelab.spectral import hermitian_eig


def family_of_paths(sizes, weights):
    return block_family([space.path_graph(k) for k in sizes], weights)


# Dense reference oracles: the operators of the pre-flow as n x n matrices on
# the coarse union of the blocks, which the library never builds; it takes
# every norm block by block.


def averaging_projection(fam, n):
    """p_n: entries 1/|X_n| on block n, zero elsewhere. Rank one, trace one."""
    union = space.coarse_union(fam.blocks)
    return OperatorMatrix(union, expander._block_sum(fam, [(n, 1.0)]))


def generator(fam):
    """h = sum_n w(n) p_n."""
    union = space.coarse_union(fam.blocks)
    return OperatorMatrix(union, expander._block_sum(fam, enumerate(fam.weights)))


def split_projection(fam):
    """p_A for A = union of the per-block half splits (a diagonal projection)."""
    return diagonal(space.coarse_union(fam.blocks), expander._split_diagonal(fam))


def preflow_unitary(fam, t):
    """e^{ith} assembled directly as id + sum_n (e^{itw(n)} - 1) p_n."""
    phases = np.exp(1j * t * fam.weights) - 1.0
    terms = expander._block_sum(fam, enumerate(phases))
    return OperatorMatrix(space.coarse_union(fam.blocks), np.eye(fam.n_points) + terms)


def test_projection_single_point_block():
    fam = family_of_paths([1, 3], [1.0, 2.0])
    p0 = averaging_projection(fam, 0)
    assert p0.entries[0, 0] == 1.0
    assert np.count_nonzero(p0.entries) == 1


def test_projection_block_of_two():
    fam = family_of_paths([2, 2], [1.0, 1.0])
    p = averaging_projection(fam, 0)
    assert np.allclose(p.entries[:2, :2], 0.5)
    eig = np.linalg.eigvalsh(p.entries)
    assert np.allclose(sorted(eig)[-1], 1.0)
    assert np.allclose(sorted(eig)[:-1], 0.0)


def test_projection_rank_one_idempotent_orthogonal():
    fam = family_of_paths([4, 3], [1.0, 1.0])
    p0 = averaging_projection(fam, 0).entries
    p1 = averaging_projection(fam, 1).entries
    assert np.allclose(p0 @ p0, p0, atol=1e-12)
    assert np.abs(p0 - p0.conj().T).max() <= 1e-12
    assert np.count_nonzero(np.round(np.linalg.eigvalsh(p0), 8)) == 1
    assert not (p0 @ p1).any()
    assert np.isclose(np.trace(p0), 1.0)


def test_projection_index_out_of_range():
    # every per-block function refuses n outside [0, n_blocks): -1 must not
    # wrap round to the last block
    fam = family_of_paths([2, 3], [1.0, 2.0])
    for per_block in (split_factor, averaging_projection, halfsplit_commutator_norm):
        for n in (-1, fam.n_blocks):
            with pytest.raises(IndexError, match=f"block index {n} out of range"):
                per_block(fam, n)


def test_preflow_at_zero():
    fam = family_of_paths([2, 4], [1.0, 4.0])
    assert np.allclose(
        preflow_unitary(fam, 0.0).entries, np.eye(fam.n_points)
    )


def test_preflow_pi_reflection():
    fam = family_of_paths([3], [np.pi])
    u = preflow_unitary(fam, 1.0)
    p = averaging_projection(fam, 0)
    expected = np.eye(3) - 2.0 * p.entries
    assert np.allclose(u.entries, expected, atol=1e-12)


def test_preflow_matches_spectral_exponential():
    rng = np.random.default_rng(0)
    for seed in range(3):
        w = rng.uniform(0.5, 5.0, size=2)
        t = rng.uniform(-2, 2)
        for fam in (
            family_of_paths([3, 4], w),
            make_regular_family(4, 4, [16] * 4, seed),
        ):
            direct = preflow_unitary(fam, t)
            [via_eig] = hermitian_eig(generator(fam)).exp_many([t])
            assert np.linalg.norm(direct.entries - via_eig, 2) <= 1e-10


def test_halfsplit_even_is_half():
    for size in (2, 4, 8, 16):
        fam = family_of_paths([size], [1.0])
        assert halfsplit_commutator_norm(fam, 0) == pytest.approx(
            0.5, abs=1e-10
        )


def test_halfsplit_odd_three():
    # A_n is the first ceil(|X_n| / 2) points of a block
    for size, mask in ((3, [1, 1, 0]), (4, [1, 1, 0, 0])):
        p_a = split_projection(family_of_paths([size], [1.0]))
        assert np.array_equal(np.diag(p_a.entries), mask)
    fam = family_of_paths([3], [1.0])
    # |A| = 2, |X \ A| = 1: sqrt(2)/3
    assert halfsplit_commutator_norm(fam, 0) == pytest.approx(
        np.sqrt(2) / 3, abs=1e-10
    )
    assert split_factor(fam, 0) == pytest.approx(np.sqrt(2) / 3)


@given(st.lists(graphs(9), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_halfsplit_commutator_matches_split_factor(blocks):
    # the dense commutator of p_n and p_A against its closed form, at
    # criterion 1's tolerance, on blocks of 1 to 9 points
    fam = block_family(blocks, "quadratic")
    for n in range(fam.n_blocks):
        assert abs(halfsplit_commutator_norm(fam, n) - split_factor(fam, n)) <= 1e-10


def test_discontinuity_zero_at_zero():
    fam = family_of_paths([4, 4], [1.0, 4.0])
    [measured], [closed_form], _ = discontinuity_profiles(fam, [0.0])
    assert measured <= 1e-12
    assert closed_form == 0.0


def test_discontinuity_single_block_full_swing():
    # w = 5, t = pi/5: |e^{i pi} - 1| = 2, closed form = 1
    fam = family_of_paths([4], [5.0])
    [measured], [closed_form], _ = discontinuity_profiles(fam, [np.pi / 5])
    assert closed_form == pytest.approx(1.0, abs=1e-12)
    assert measured == pytest.approx(1.0, abs=1e-9)


def test_discontinuity_grid_sweep():
    fam = family_of_paths([4, 2, 4, 2], [1.0, 4.0, 9.0, 16.0])
    # raises if the identity fails on a block
    measured, closed_form, _ = discontinuity_profiles(fam, np.linspace(-2, 2, 17))
    assert np.abs(measured - closed_form).max() <= 1e-9


def test_wmap_zero_k_single_block():
    fam = family_of_paths([4], [3.0])
    times = np.array([0.3, 1.1])
    for t, lhs, rhs in zip(times, *wmap_lower_bounds(fam, np.zeros(4), times)):
        assert lhs >= rhs - 1e-9
        assert rhs == pytest.approx(
            0.5 * abs(np.exp(1j * t * 3.0) - 1.0)
        )


def test_wmap_t_zero():
    fam = family_of_paths([4], [3.0])
    [lhs], [rhs] = wmap_lower_bounds(fam, np.zeros(4), [0.0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0.0


def test_wmap_diagonal_k_sweep():
    fam = family_of_paths([4, 4], [2.0, 7.0])
    k = np.real(np.diag(generator(fam).entries))
    lhs, rhs = wmap_lower_bounds(fam, k, np.linspace(-1.5, 1.5, 13))
    assert (lhs >= rhs - 1e-9).all()


def test_regular_family_complete_graph_case():
    fam = make_regular_family(2, 3, [4, 4], seed=1, weights="constant")
    # 3-regular on 4 points is K_4
    for block in fam.blocks:
        assert block.diameter == 1.0


def test_regular_family_deterministic():
    a = make_regular_family(3, 3, [8, 8, 8], seed=42)
    b = make_regular_family(3, 3, [8, 8, 8], seed=42)
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.dist, y.dist)


def test_regular_family_structure():
    fam = make_regular_family(4, 3, [8, 8, 8, 8], seed=7)
    for block in fam.blocks:
        adj = (block.dist == 1.0).sum(axis=1)
        assert np.all(adj == 3)
        assert np.all(np.isfinite(block.dist))


def test_regular_family_unsatisfiable():
    with pytest.raises(ValueError):
        make_regular_family(1, 3, [3], seed=0)
    with pytest.raises(ValueError):
        make_regular_family(1, 3, [5], seed=0)


def test_regular_family_refuses_oversize_union_before_sampling(monkeypatch):
    def sample(*args):
        raise AssertionError("sampled a block of an oversize union")

    monkeypatch.setattr(expander, "_random_regular_graph", sample)
    half = space.MAX_POINTS // 2 + 1
    with pytest.raises(SizeGuardError, match="'points'"):
        make_regular_family(2, 3, [half + half % 2, half + half % 2], seed=0)


@st.composite
def regular_families(draw):
    """The arguments of make_regular_family: 1 to 3 blocks of 4 to 10 points,
    degree 2 or 3 with size * degree even, a seed and a weight preset."""
    degree = draw(st.sampled_from([2, 3]))
    size = st.integers(4, 10).filter(lambda m: m * degree % 2 == 0)
    sizes = draw(st.lists(size, min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = draw(st.sampled_from(sorted(WEIGHT_PRESETS)))
    return len(sizes), degree, sizes, seed, weights


@given(
    regular_families(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "diagonal"]),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_drawn_regular_family_profiles_do_not_depend_on_the_sample(
    args, other_seed, k, times
):
    # p_n, p_A and so h depend on the block sizes and weights alone, not on
    # the edges sampled; the checks inside raise on a violation
    n_blocks, degree, sizes, _, weights = args
    profiles = []
    for fam in (
        make_regular_family(*args),
        make_regular_family(n_blocks, degree, sizes, other_seed, weights),
    ):
        diag = np.real(np.diag(generator(fam).entries))
        k_vals = np.zeros(fam.n_points) if k == "zero" else diag
        wmap = wmap_lower_bounds(fam, k_vals, times)
        profiles.append((*discontinuity_profiles(fam, times), *wmap))
    for a, b in zip(*profiles):
        assert np.array_equal(a, b)


def test_block_sum_projections_and_equi_profile():
    fam = family_of_paths([2, 2, 2], [1.0, 4.0, 9.0])
    p_all = [averaging_projection(fam, n) for n in range(3)]
    # p_M is a projection for every subset M
    for bits in range(8):
        m = sum(
            (p_all[n].entries for n in range(3) if bits >> n & 1),
            start=np.zeros((fam.n_points,) * 2),
        )
        assert np.allclose(m @ m, m, atol=1e-12)


def test_weight_presets():
    fam = family_of_paths([2, 2, 2], "quadratic")
    assert np.array_equal(fam.weights, [1.0, 4.0, 9.0])
    fam2 = family_of_paths([2, 2], "linear")
    assert np.array_equal(fam2.weights, [1.0, 2.0])


def assert_blockwise_norms_match_dense(fam, k, times):
    n = fam.n_points
    measured, closed_form, block = discontinuity_profiles(fam, times)
    lhs, rhs = wmap_lower_bounds(fam, k, times)
    p_a = split_projection(fam).entries
    for i, t in enumerate(times):
        u = preflow_unitary(fam, t).entries
        dense = spectral_norm(u @ p_a @ u.conj().T - p_a)
        assert measured[i] == pytest.approx(dense, rel=1e-12, abs=1e-14)
        w = u @ np.diag(np.exp(-1j * t * k))
        dense_w = np.linalg.norm(w - np.eye(n), 2)
        assert lhs[i] == pytest.approx(dense_w, rel=1e-12, abs=1e-14)
        assert rhs[i] == closed_form[i]
        [lhs_t], [rhs_t] = wmap_lower_bounds(fam, k, [t])
        assert (lhs_t, rhs_t) == (lhs[i], rhs[i])


@pytest.mark.parametrize("sizes", [[6, 8], [6, 10, 12], [4, 6, 4, 6, 4]])
def test_blockwise_norms_match_dense_norms(sizes):
    fam = family_of_paths(sizes, "quadratic")
    k = np.random.default_rng(len(sizes)).standard_normal(fam.n_points)
    assert_blockwise_norms_match_dense(fam, k, np.linspace(-1.5, 1.5, 61))


@pytest.mark.parametrize(
    "times",
    [np.linspace(-0.7, 1.3, 23), np.linspace(-1.5, -0.1, 15)],
    ids=["asymmetric", "negative-only"],
)
def test_norms_per_abs_time_match_dense_norms(times):
    # the norms are taken at |t| only; a grid whose times are not mirrored,
    # or all negative, must still give the norm of every t
    fam = family_of_paths([6, 8, 6], "quadratic")
    k = np.random.default_rng(5).standard_normal(fam.n_points)
    assert_blockwise_norms_match_dense(fam, k, times)


def test_one_norm_per_abs_time(monkeypatch):
    # the spectral-sweep benchmark's family and grid: 17 times, 9 distinct |t|
    fam = make_regular_family(4, 4, [16] * 4, seed=1000)
    times = -0.5 + 0.0625 * np.arange(17)
    normed = []

    def counting(stack):
        normed.append(len(stack))
        return spectral_norms(stack)

    monkeypatch.setattr(expander, "spectral_norms", counting)
    discontinuity_profiles(fam, times)
    assert sum(normed) == 9 * 4
    normed.clear()
    wmap_lower_bounds(fam, np.zeros(fam.n_points), times)
    assert sum(normed) == 9 * 4


def test_block_family_refuses_oversize_union(monkeypatch):
    monkeypatch.setattr(space, "MAX_POINTS", 9)
    with pytest.raises(SizeGuardError, match="'points'"):
        family_of_paths([5, 5], [1.0, 1.0])


def test_discontinuity_checks_every_block(monkeypatch):
    # a wrong closed form on a block that does not attain the max still fails
    fam = family_of_paths([4, 4], [1.0, 4.0])
    closed = expander._closed_forms

    def off_on_block_0(fam, times):
        out = closed(fam, times)
        out[:, 0] += 1e-6
        return out

    monkeypatch.setattr(expander, "_closed_forms", off_on_block_0)
    with pytest.raises(NumericCheckError, match="block 0"):
        discontinuity_profiles(fam, [0.3])


def _sampler_oracle(size, degree, rng):
    """The per-pair loop that _random_regular_graph replaced."""
    for _ in range(1000):
        stubs = np.repeat(np.arange(size), degree)
        rng.shuffle(stubs)
        edges = set()
        simple = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or (min(u, v), max(u, v)) in edges:
                simple = False
                break
            edges.add((min(u, v), max(u, v)))
        if not simple:
            continue
        try:
            return space.from_edge_list(sorted(edges), size)
        except ValueError:
            continue
    raise ValueError("no sample")


def _sample_or_none(sampler, size, degree, rng):
    try:
        return sampler(size, degree, rng).dist
    except ValueError:
        return None


@pytest.mark.parametrize(
    "size, degree, seed",
    [
        (size, degree, seed)
        for size, degree in [(16, 4), (9, 2), (12, 3)]
        for seed in [0, 1, 77, 1234]
    ]
    # the first (16, 4) block is accepted at attempt 0, 63, 64, 65 and 203:
    # at either edge of a batch of 64 and past three batches
    + [(16, 4, seed) for seed in (20, 266, 582, 364, 3)]
    # a simple but disconnected row is rejected inside a batch (attempt 7, 1)
    + [(8, 2, 1), (8, 2, 4)]
    # every perfect matching of 4 points is disconnected: 1000 attempts fail
    + [(4, 1, 0)],
)
def test_sampler_matches_loop_oracle(size, degree, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = _sample_or_none(expander._random_regular_graph, size, degree, fast)
        want = _sample_or_none(_sampler_oracle, size, degree, slow)
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)
    assert fast.random() == slow.random()


@pytest.mark.parametrize(
    "seed,digest",
    [
        (1000, "a7de3a85502a0dd0"),
        (1001, "64e1f988125d4c5f"),
        (1002, "7f760ac0d11e553d"),
        (1003, "7e60f60534ea9197"),
    ],
)
def test_regular_family_edge_sets_are_pinned(seed, digest):
    # SHA-256 of the blocks' sorted edge lists, as sampled before the
    # self-loop test moved ahead of the sort: the draws must not change
    fam = make_regular_family(4, 4, [16] * 4, seed)
    edges = [np.argwhere(np.triu(b.dist == 1.0)).tolist() for b in fam.blocks]
    assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == digest
