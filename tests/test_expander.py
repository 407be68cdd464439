import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roelab import expander, space
from roelab.errors import ConfigError, NumericCheckError, SizeGuardError
from roelab.expander import (
    WEIGHT_PRESETS,
    block_family,
    halfsplit_commutator_norm,
    preflow_profiles,
    require_regular_blocks,
    split_factor,
)
from roelab._linalg import hermitian_eig, spectral_norm, spectral_norms
from roelab.operator import OperatorMatrix, diagonal


# Dense reference oracles: the operators of the pre-flow as n x n matrices on
# the coarse union of one graph per block, which the library never builds; it
# takes every norm block by block. The matrices are the same on any union of
# connected graphs of the block sizes: path graphs unless a test says otherwise.


def union(fam, graph=space.path_graph):
    """The coarse union of a graph(size) block per block of fam."""
    return space.coarse_union([graph(size) for size in fam.sizes])


def _block_sum(fam, terms):
    """sum c p_n over the (n, c) pairs of terms: c / |X_n| on block n's square.
    An n outside [0, n_blocks) is an IndexError: -1 must not wrap round to the
    last block."""
    offsets = list(itertools.accumulate(fam.sizes, initial=0))
    m = np.zeros((sum(fam.sizes),) * 2, dtype=np.complex128)
    for n, c in terms:
        if not 0 <= n < fam.n_blocks:
            raise IndexError(f"block index {n} out of range")
        m[offsets[n] : offsets[n + 1], offsets[n] : offsets[n + 1]] = c / fam.sizes[n]
    return m


def _split_diagonal(fam):
    """The diagonal of p_A, A the union of the per-block half splits."""
    return np.concatenate([expander._split_mask(size) for size in fam.sizes])


def averaging_projection(fam, n):
    """p_n: entries 1/|X_n| on block n, zero elsewhere. Rank one, trace one."""
    return OperatorMatrix(union(fam), _block_sum(fam, [(n, 1.0)]))


def generator(fam, graph=space.path_graph):
    """h = sum_n w(n) p_n."""
    return OperatorMatrix(union(fam, graph), _block_sum(fam, enumerate(fam.weights)))


def split_projection(fam, graph=space.path_graph):
    """p_A for A = union of the per-block half splits (a diagonal projection)."""
    return diagonal(union(fam, graph), _split_diagonal(fam))


def preflow_unitary(fam, t, graph=space.path_graph):
    """e^{ith} assembled directly as id + sum_n (e^{itw(n)} - 1) p_n."""
    phases = np.exp(1j * t * fam.weights) - 1.0
    terms = _block_sum(fam, enumerate(phases))
    return OperatorMatrix(union(fam, graph), np.eye(sum(fam.sizes)) + terms)


def discontinuity(fam, times):
    """measured, closed_form and block_of_max of preflow_profiles, with k = 0."""
    return preflow_profiles(fam, np.zeros(fam.n_blocks), times)[:3]


def block_values(fam, diagonal):
    """A diagonal that is constant on each block of fam, as one value per
    block."""
    starts = np.cumsum((0,) + fam.sizes[:-1])
    assert np.array_equal(np.repeat(diagonal[starts], fam.sizes), diagonal)
    return diagonal[starts]


def wmap(fam, k, times):
    """lhs and rhs of the w-map bound: rhs is preflow_profiles' closed form."""
    _, closed_form, _, lhs = preflow_profiles(fam, k, times)
    return lhs, closed_form


def test_projection_single_point_block():
    fam = block_family([1, 3], [1.0, 2.0])
    p0 = averaging_projection(fam, 0)
    assert p0.entries[0, 0] == 1.0
    assert np.count_nonzero(p0.entries) == 1


def test_projection_block_of_two():
    fam = block_family([2, 2], [1.0, 1.0])
    p = averaging_projection(fam, 0)
    assert np.allclose(p.entries[:2, :2], 0.5)
    eig = np.linalg.eigvalsh(p.entries)
    assert np.allclose(sorted(eig)[-1], 1.0)
    assert np.allclose(sorted(eig)[:-1], 0.0)


def test_projection_rank_one_idempotent_orthogonal():
    fam = block_family([4, 3], [1.0, 1.0])
    p0 = averaging_projection(fam, 0).entries
    p1 = averaging_projection(fam, 1).entries
    assert np.allclose(p0 @ p0, p0, atol=1e-12)
    assert np.abs(p0 - p0.conj().T).max() <= 1e-12
    assert np.count_nonzero(np.round(np.linalg.eigvalsh(p0), 8)) == 1
    assert not (p0 @ p1).any()
    assert np.isclose(np.trace(p0), 1.0)


def test_projection_index_out_of_range():
    # the oracle refuses n outside [0, n_blocks): -1 must not wrap round to
    # the last block
    fam = block_family([2, 3], [1.0, 2.0])
    for n in (-1, fam.n_blocks):
        with pytest.raises(IndexError, match=f"block index {n} out of range"):
            averaging_projection(fam, n)


def test_preflow_at_zero():
    fam = block_family([2, 4], [1.0, 4.0])
    assert np.allclose(
        preflow_unitary(fam, 0.0).entries, np.eye(sum(fam.sizes))
    )


def test_preflow_pi_reflection():
    fam = block_family([3], [np.pi])
    u = preflow_unitary(fam, 1.0)
    p = averaging_projection(fam, 0)
    expected = np.eye(3) - 2.0 * p.entries
    assert np.allclose(u.entries, expected, atol=1e-12)


def test_preflow_matches_spectral_exponential():
    rng = np.random.default_rng(0)
    for seed in range(3):
        w = rng.uniform(0.5, 5.0, size=2)
        t = rng.uniform(-2, 2)
        for fam in (block_family([3, 4], w), block_family([16] * 4, "quadratic")):
            direct = preflow_unitary(fam, t)
            [via_eig] = hermitian_eig(generator(fam)).exp_many([t])
            assert np.linalg.norm(direct.entries - via_eig, 2) <= 1e-10


def test_halfsplit_even_is_half():
    for size in (2, 4, 8, 16):
        assert halfsplit_commutator_norm(size) == pytest.approx(0.5, abs=1e-10)


def test_halfsplit_odd_three():
    # A_n is the first ceil(|X_n| / 2) points of a block
    for size, mask in ((3, [1, 1, 0]), (4, [1, 1, 0, 0])):
        p_a = split_projection(block_family([size], [1.0]))
        assert np.array_equal(np.diag(p_a.entries), mask)
    # |A| = 2, |X \ A| = 1: sqrt(2)/3
    assert halfsplit_commutator_norm(3) == pytest.approx(np.sqrt(2) / 3, abs=1e-10)
    assert split_factor(3) == pytest.approx(np.sqrt(2) / 3)


def test_halfsplit_commutator_matches_split_factor():
    # the dense commutator of p_n and p_A against its closed form, at
    # criterion 1's tolerance, on blocks of 1 to 9 points
    for size in range(1, 10):
        assert abs(halfsplit_commutator_norm(size) - split_factor(size)) <= 1e-10


def test_discontinuity_zero_at_zero():
    fam = block_family([4, 4], [1.0, 4.0])
    [measured], [closed_form], _ = discontinuity(fam, [0.0])
    assert measured <= 1e-12
    assert closed_form == 0.0


def test_discontinuity_single_block_full_swing():
    # w = 5, t = pi/5: |e^{i pi} - 1| = 2, closed form = 1
    fam = block_family([4], [5.0])
    [measured], [closed_form], _ = discontinuity(fam, [np.pi / 5])
    assert closed_form == pytest.approx(1.0, abs=1e-12)
    assert measured == pytest.approx(1.0, abs=1e-9)


def test_discontinuity_grid_sweep():
    fam = block_family([4, 2, 4, 2], [1.0, 4.0, 9.0, 16.0])
    # raises if the identity fails on a block
    measured, closed_form, _ = discontinuity(fam, np.linspace(-2, 2, 17))
    assert np.abs(measured - closed_form).max() <= 1e-9


def test_wmap_zero_k_single_block():
    fam = block_family([4], [3.0])
    times = np.array([0.3, 1.1])
    for t, lhs, rhs in zip(times, *wmap(fam, np.zeros(1), times)):
        assert lhs >= rhs - 1e-9
        assert rhs == pytest.approx(
            0.5 * abs(np.exp(1j * t * 3.0) - 1.0)
        )


def test_wmap_t_zero():
    fam = block_family([4], [3.0])
    [lhs], [rhs] = wmap(fam, np.zeros(1), [0.0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0.0


def test_wmap_diagonal_k_sweep():
    fam = block_family([4, 4], [2.0, 7.0])
    k = block_values(fam, np.real(np.diag(generator(fam).entries)))
    lhs, rhs = wmap(fam, k, np.linspace(-1.5, 1.5, 13))
    assert (lhs >= rhs - 1e-9).all()


def test_regular_family_unsatisfiable():
    for degree, size in ((3, 3), (3, 5), (1, 4), (0, 2)):
        with pytest.raises(ConfigError):
            require_regular_blocks([size], degree)
    # a failing size anywhere in the family refuses it
    with pytest.raises(ConfigError, match="size 5"):
        require_regular_blocks([4, 5, 4], 3)


def _regular_degrees(size):
    """Every degree d such that some connected simple d-regular graph on size
    points exists, by trying every edge set."""
    pairs = np.array(list(itertools.combinations(range(size), 2)), dtype=int)
    pairs = pairs.reshape(-1, 2)
    subsets = (np.arange(2 ** len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    incidence = np.zeros((len(pairs), size), dtype=int)
    for end in (0, 1):
        incidence[np.arange(len(pairs)), pairs[:, end]] = 1
    degrees = subsets @ incidence
    found = set()
    for row in np.flatnonzero((degrees == degrees[:, :1]).all(axis=1)):
        try:
            space.from_edge_list(pairs[subsets[row] == 1], size)
        except ValueError:
            continue  # disconnected
        found.add(int(degrees[row, 0]))
    return found


def _accepts(size, degree):
    try:
        require_regular_blocks([size], degree)
    except ConfigError:
        return False
    return True


def test_regular_blocks_are_refused_exactly_where_no_graph_exists():
    # every edge set on up to 6 points: 2^15 of them on 6
    for size in range(1, 7):
        exists = _regular_degrees(size)
        assert {d for d in range(size + 2) if _accepts(size, d)} == exists, size


def test_circulant_graph_is_a_block_of_every_accepted_shape():
    # the graph require_regular_blocks names: offsets +-1, ..., +-floor(d/2),
    # and s/2 when d is odd, on s points
    for size in range(1, 25):
        for degree in filter(lambda d: _accepts(size, d), range(size + 2)):
            steps = list(range(1, degree // 2 + 1)) + [size // 2] * (degree % 2)
            edges = {tuple(sorted((x, (x + j) % size))) for x in range(size) for j in steps}
            assert all(u != v for u, v in edges)
            block = space.from_edge_list(sorted(edges), size)  # connected
            assert ((block.dist == 1.0).sum(axis=1) == degree).all(), (size, degree)


def test_regular_family_refuses_oversize_union():
    # each block passes the degree check, but the union is too large
    half = space.MAX_POINTS // 2 + 1
    sizes = [half + half % 2] * 2
    require_regular_blocks(sizes, 3)
    with pytest.raises(SizeGuardError, match="'points'"):
        block_family(sizes, "quadratic")


def test_block_family_refuses_sizes_that_are_not_positive_integers():
    for sizes in ([], [0, 3], [2.0], [-1]):
        with pytest.raises(ValueError):
            block_family(sizes, "constant")


def test_block_sum_projections_and_equi_profile():
    fam = block_family([2, 2, 2], [1.0, 4.0, 9.0])
    p_all = [averaging_projection(fam, n) for n in range(3)]
    # p_M is a projection for every subset M
    for bits in range(8):
        m = sum(
            (p_all[n].entries for n in range(3) if bits >> n & 1),
            start=np.zeros((sum(fam.sizes),) * 2),
        )
        assert np.allclose(m @ m, m, atol=1e-12)


def test_weight_presets():
    fam = block_family([2, 2, 2], "quadratic")
    assert np.array_equal(fam.weights, [1.0, 4.0, 9.0])
    fam2 = block_family([2, 2], "linear")
    assert np.array_equal(fam2.weights, [1.0, 2.0])


def assert_blockwise_norms_match_dense(fam, k, times, graph=space.path_graph):
    n = sum(fam.sizes)
    measured, closed_form, block, lhs = preflow_profiles(fam, k, times)
    p_a = split_projection(fam, graph).entries
    for i, t in enumerate(times):
        u = preflow_unitary(fam, t, graph).entries
        dense = spectral_norm(u @ p_a @ u.conj().T - p_a)
        assert measured[i] == pytest.approx(dense, rel=1e-12, abs=1e-14)
        w = u @ np.diag(np.exp(-1j * t * np.repeat(k, fam.sizes)))
        dense_w = np.linalg.norm(w - np.eye(n), 2)
        assert lhs[i] == pytest.approx(dense_w, rel=1e-12, abs=1e-14)
        one = preflow_profiles(fam, k, [t])
        assert [x[0] for x in one] == [measured[i], closed_form[i], block[i], lhs[i]]


def drawn_k(fam, kind, rng):
    """k as one value per block: 0, w(n) / |X_n| (the diagonal of h, as the
    CLI's diagonal_of_h), w(n) itself, where e^{ith} e^{-itk} is 1 on the
    range of p_n, or a drawn value."""
    if kind == "zero":
        return np.zeros(fam.n_blocks)
    if kind == "block-constant":
        return fam.weights / fam.sizes
    if kind == "weight":
        return fam.weights
    return rng.standard_normal(fam.n_blocks)


@pytest.mark.parametrize("sizes", [[6, 8], [6, 10, 12], [4, 6, 1, 6, 4]])
def test_blockwise_norms_match_dense_norms(sizes):
    # every kind of k, on blocks of one point and of several
    fam = block_family(sizes, "quadratic")
    for kind in ("zero", "block-constant", "weight", "drawn"):
        k = drawn_k(fam, kind, np.random.default_rng(len(sizes)))
        assert_blockwise_norms_match_dense(fam, k, np.linspace(-1.5, 1.5, 61))


def test_k_is_one_value_per_block():
    fam = block_family([2, 3], "quadratic")
    for k in (np.zeros(sum(fam.sizes)), np.zeros(1), np.zeros((2, 1)), 0.0):
        with pytest.raises(ValueError, match="one real value per block"):
            preflow_profiles(fam, k, [0.5])


def dense_block_norms(fam, k, times):
    """_block_norms' two pieces from the dense s x s pieces of every block,
    with entries

        u P u* - P:      (c/s) mask_y + (conj(c)/s) mask_x + |c|^2 |A_n| / s^2,
        u e^{-itk} - 1:  [x = y] expm1(-itk_n) + (c/s) e^{-itk_n},

    c = expm1(itw(n)), each normed by an SVD."""
    out = np.zeros((2, len(times), fam.n_blocks))
    for n, size in enumerate(fam.sizes):
        mask = expander._split_mask(size)
        for i, t in enumerate(times):
            a = np.expm1(1j * t * fam.weights[n]) / size
            moved = a * mask + a.conj() * mask[:, None] + abs(a) ** 2 * mask.sum()
            em = np.expm1(-1j * t * k[n])
            w = np.full((size, size), a * (1.0 + em)) + em * np.eye(size)
            out[:, i, n] = [np.linalg.norm(p, 2) for p in (moved, w)]
    return out


@st.composite
def block_norm_cases(draw):
    """1 to 4 blocks of 1 to 10 points, one-point blocks common, drawn
    weights, 1 to 6 normal or zero times, and per block a drawn k_n or
    k_n = w(n) exactly."""
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(2, 10)), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(0.1, 20.0), min_size=len(sizes), max_size=len(sizes)))
    # a subnormal t makes 8 eps |c| smaller than a subnormal step
    times = draw(st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=1, max_size=6))
    k = [draw(st.one_of(st.just(w), st.floats(-5.0, 5.0))) for w in weights]
    return block_family(sizes, weights), np.array(k), np.array(times)


@given(block_norm_cases())
@example(case=(block_family([1, 4], [3.0, 5.0]), np.array([3.0, 5.0]), np.array([0.7, -2.0])))
@settings(max_examples=150, deadline=None)
def test_block_norms_on_cell_quotients_match_the_dense_pieces(case):
    # both pieces, the moved one normed on the 2 x 2 quotients of the
    # block's cells and the w-map one in closed form, against the dense
    # pieces of every block, within 8 rounding units of the larger of the
    # norm and |c|, the size of the pieces' entries (a one-point block's
    # moved piece is 0, up to rounding in the dense piece, and its w-map
    # piece at k_n = w(n) is 0 up to rounding in both); 3,000 drawn cases
    # stayed within 2.0 units on the moved piece and 4.3 on the w-map piece.
    # The closed form is split_factor |c|, from the same c, bit for bit
    fam, k, times = case
    closed, *got = expander._block_norms(fam, k, times)
    want = dense_block_norms(fam, k, times)
    c = np.abs(np.expm1(1j * times[:, None] * fam.weights))
    assert np.array_equal(closed, [split_factor(s) for s in fam.sizes] * c)
    bound = 8 * np.finfo(float).eps * np.maximum(want, c)
    assert (np.abs(np.array(got) - want) <= bound).all()


@pytest.mark.parametrize("kind", ["zero", "block-constant"])
def test_one_point_blocks_move_nothing(kind):
    # on a one-point block p_n = p_{A_n} = 1, so u p_A u* - p_A is exactly 0,
    # where its quotient's one entry 2 Re(c) + |c|^2 is a rounding residue
    # (1.1e-16 at w = 2.7, t = 0.37); both CLI choices of k
    fam = block_family([1, 1, 1], [2.7, 0.3, 17.0])
    times = np.concatenate([[0.37], np.linspace(-3.0, 3.0, 61), [1e6]])
    measured, closed_form, _, _ = preflow_profiles(fam, drawn_k(fam, kind, None), times)
    assert (measured == 0.0).all() and (closed_form == 0.0).all()


@pytest.mark.parametrize("kind", ["zero", "block-constant"])
def test_block_constant_k_norms_two_by_two_quotients(monkeypatch, kind):
    # every block, a one-point block too, has the two cells X_n \ A_n and
    # A_n: the moved piece is one (T B, 2, 2) stack per chunk of times, and
    # the w-map piece, in closed form, is no stack
    fam = block_family([1, 4, 7, 16, 16], "quadratic")
    shapes = []

    def recording(stack):
        shapes.append(stack.shape)
        return spectral_norms(stack)

    monkeypatch.setattr(expander, "spectral_norms", recording)
    k = drawn_k(fam, kind, None)
    preflow_profiles(fam, k, np.arange(-100, 101) / 100)
    # 201 times in chunks of 64, each time a stack of 5 blocks
    assert shapes == [(64 * 5, 2, 2)] * 3 + [(9 * 5, 2, 2)]


@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=3),
    st.sampled_from(sorted(WEIGHT_PRESETS)),
    st.sampled_from(["zero", "diagonal"]),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_drawn_family_profiles_do_not_depend_on_the_block_graph(
    sizes, weights, k, times
):
    # p_n, p_A and so h depend on the block sizes and weights alone: the
    # profiles match the dense oracle on a union of path blocks and on one of
    # complete-graph blocks of the same sizes
    fam = block_family(sizes, weights)
    for graph in (space.path_graph, space.complete_graph):
        diag = block_values(fam, np.real(np.diag(generator(fam, graph).entries)))
        k_vals = np.zeros(fam.n_blocks) if k == "zero" else diag
        assert_blockwise_norms_match_dense(fam, k_vals, times, graph)


@pytest.mark.parametrize(
    "times",
    [np.linspace(-0.7, 1.3, 23), np.linspace(-1.5, -0.1, 15), np.linspace(-0.5, 0.5, 17)],
    ids=["asymmetric", "negative-only", "through-zero"],
)
def test_norms_on_any_grid_match_dense_norms(times):
    # a grid whose times are not mirrored, or all negative, gives the norm of
    # every t, and a grid through t = 0 gives 0 there
    fam = block_family([6, 8, 6], "quadratic")
    k = np.random.default_rng(5).standard_normal(fam.n_blocks)
    assert_blockwise_norms_match_dense(fam, k, times)


def test_one_quotient_per_time_and_block(monkeypatch):
    # the spectral-sweep benchmark's family and grid: 17 times, t = 0 among
    # them; the w-map piece is in closed form, never normed
    fam = block_family([16] * 4, "quadratic")
    times = -0.5 + 0.0625 * np.arange(17)
    normed = []

    def counting(stack):
        normed.append(len(stack))
        return spectral_norms(stack)

    monkeypatch.setattr(expander, "spectral_norms", counting)
    preflow_profiles(fam, np.zeros(fam.n_blocks), times)
    # the moved piece on 4 blocks at 17 times, in one call
    assert normed == [17 * 4]


@st.composite
def small_time_cases(draw):
    """A family of 1 to 4 path blocks of 1 to 9 points, quadratic or drawn
    weights, and one time t = +-10^x with x in [-12, -2]."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    weights = draw(st.sampled_from(["quadratic", "drawn"]))
    if weights == "drawn":
        weights = draw(
            st.lists(st.floats(0.1, 100.0), min_size=len(sizes), max_size=len(sizes))
        )
    t = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))
    return block_family(sizes, weights), t


# blocks of 4, 6 and 8 points, where u p u* - p formed from u = 1 + (c/s) J
# strayed from its closed form by up to 2.4e-9 relative
@given(small_time_cases())
@example(case=(block_family([4, 6, 8], "quadratic"), 1e-4))
@example(case=(block_family([4, 6, 8], "quadratic"), 1e-6))
@example(case=(block_family([4, 6, 8], "quadratic"), 1e-8))
@example(case=(block_family([4, 6, 8], "quadratic"), 1e-10))
@settings(max_examples=200, deadline=None)
def test_block_norms_equal_their_closed_forms_at_small_t(case):
    # per block, both pieces within 8 rounding units of |c|, c = e^{itw} - 1:
    # the moved piece of split_factor |c|, and with k = 0 the w-map piece
    # u - 1 = (c/s) J of |c| (3,000 drawn cases stayed within 2.9 units)
    fam, t = case
    times = np.array([t])
    closed, moved, w_minus_one = expander._block_norms(fam, np.zeros(fam.n_blocks), times)
    c = np.abs(np.expm1(1j * times[:, None] * fam.weights))
    bound = 8 * np.finfo(float).eps * c
    assert (np.abs(moved - closed) <= bound).all()
    assert (np.abs(w_minus_one - c) <= bound).all()


@pytest.mark.parametrize("kind", ["block-constant", "drawn"])
def test_overflowing_phase_of_k_is_refused(kind):
    # t k overflows on every block while the moved piece stays finite: the
    # w-map piece's phases pass require_finite, which refuses them
    fam = block_family([1, 4, 6], "quadratic")
    k = 1e300 * np.abs(drawn_k(fam, kind, np.random.default_rng(0)))
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        preflow_profiles(fam, k, [1e10])


def test_block_family_refuses_oversize_union(monkeypatch):
    monkeypatch.setattr(space, "MAX_POINTS", 9)
    with pytest.raises(SizeGuardError, match="'points'"):
        block_family([5, 5], [1.0, 1.0])


def test_discontinuity_checks_every_block(monkeypatch):
    # a wrong closed form on a block that does not attain the max still fails
    fam = block_family([4, 4], [1.0, 4.0])
    block_norms = expander._block_norms

    def off_on_block_0(fam, k, times):
        closed, moved, w_minus_one = block_norms(fam, k, times)
        closed[:, 0] += 1e-6
        return closed, moved, w_minus_one

    monkeypatch.setattr(expander, "_block_norms", off_on_block_0)
    with pytest.raises(NumericCheckError, match="block 0"):
        discontinuity(fam, [0.3])
