import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_locality import HERMITIAN_KINDS, drawn_operator, small_spaces

from roelab import space
from roelab._linalg import spectral_norm, spectral_norms
from roelab.flows import (
    CocycleFamily,
    cocycle_from_eigensystems,
    cocycle_residuals,
    corrupt_at,
    flow_profile,
    lambda_scalar_residuals,
    lipschitz_audit,
)
from roelab.operator import OperatorMatrix, diagonal
from roelab.spectral import hermitian_eig
from roelab.translations import to_matrices


def random_hermitian(s, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OperatorMatrix(s, scale * 0.5 * (m + m.conj().T))


def flow(h, t, a):
    """sigma_{h,t}(a) = e^{ith} a e^{-ith} as an array, a an array too."""
    [u] = hermitian_eig(h).exp_many([t])
    return u @ a @ u.conj().T


def test_flow_at_zero_is_identity_map():
    s = space.path_graph(4)
    a = random_hermitian(s, 0).entries
    assert np.allclose(flow(random_hermitian(s, 1), 0.0, a), a)


def test_flow_preserves_norm():
    s = space.path_graph(5)
    h = random_hermitian(s, 2)
    a = random_hermitian(s, 3).entries
    assert spectral_norm(flow(h, 0.8, a)) == pytest.approx(spectral_norm(a), abs=1e-9)


def test_diagonal_flow_closed_form():
    # sigma_{h,t}(v_f) multiplies entry (f(x), x) by e^{it(h_{f(x)} - h_x)}
    s = space.cycle_graph(5)
    rng = np.random.default_rng(4)
    hvals = rng.standard_normal(5)
    h = diagonal(s, hvals)
    [v] = to_matrices([[1, -1, 3, -1, 4]])
    t = 0.77
    moved = flow(h, t, v)
    expected = v * np.exp(1j * t * (hvals[:, None] - hvals[None, :]))
    assert np.abs(moved - expected).max() <= 1e-12


def test_flow_fixes_own_spectral_projection():
    s = space.complete_graph(4)
    p = OperatorMatrix(s, np.ones((4, 4), dtype=complex) / 4)
    h = OperatorMatrix(s, 2.5 * p.entries)
    assert np.allclose(flow(h, 1.3, p.entries), p.entries, atol=1e-10)


def test_flow_homomorphism_and_group_law():
    s = space.path_graph(5)
    h = random_hermitian(s, 5)
    a = random_hermitian(s, 6).entries
    b = random_hermitian(s, 7).entries
    t, u = 0.4, -0.9
    lhs = flow(h, t, a @ b)
    rhs = flow(h, t, a) @ flow(h, t, b)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * spectral_norm(a) * spectral_norm(b)
    lhs2 = flow(h, t + u, a)
    rhs2 = flow(h, t, flow(h, u, a))
    assert np.linalg.norm(lhs2 - rhs2, 2) <= 1e-9


def test_derivative_residual_zero_generator():
    s = space.path_graph(3)
    h = diagonal(s, [0.0, 0.0, 0.0])
    [v] = to_matrices([[1, -1, -1]])
    res = flow_profile(h, OperatorMatrix(s, v), [1e-5])[1][0]
    assert res == pytest.approx(0.0, abs=1e-12)


def test_derivative_residual_two_point_oracle():
    # closed-form 2x2: sigma_t(v_swap) entry (1,0) is e^{it(h_1 - h_0)},
    # so the forward-difference residual is |(e^{i d g} - 1)/d - i g|, g = 5
    s = space.FiniteSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    h = diagonal(s, [0.0, 5.0])
    [v] = to_matrices([[1, 0]])
    delta = 1e-5
    res = flow_profile(h, OperatorMatrix(s, v), [delta])[1][0]
    scalar = abs((np.exp(1j * delta * 5) - 1) / delta - 5j)
    assert res == pytest.approx(scalar, rel=1e-6)
    assert res <= 1e-3


def test_derivative_residual_first_order():
    s = space.path_graph(4)
    h = random_hermitian(s, 8)
    [v] = to_matrices([[1, -1, 2, -1]])
    r2, r1 = flow_profile(h, OperatorMatrix(s, v), [5e-5, 1e-4])[1]
    assert 1.8 <= r1 / r2 <= 2.2


def test_w_map_equal_generators():
    s = space.path_graph(4)
    h = random_hermitian(s, 9)
    eh = hermitian_eig(h)
    ts = np.array([0.0, 0.6, -2.0])
    for w in eh.exp_many(ts) @ eh.exp_many(-ts):
        assert np.allclose(w, np.eye(4), atol=1e-10)


def test_w_map_diagonal_closed_form():
    s = space.path_graph(3)
    hv = np.array([1.0, -0.5, 2.0])
    kv = np.array([0.2, 0.2, -1.0])
    t = 0.9
    eh, ek = hermitian_eig(diagonal(s, hv)), hermitian_eig(diagonal(s, kv))
    [w] = eh.exp_many([t]) @ ek.exp_many([-t])
    assert np.allclose(w, np.diag(np.exp(1j * t * (hv - kv))), atol=1e-12)


def test_lipschitz_equal_generators():
    s = space.path_graph(4)
    h = random_hermitian(s, 10)
    max_ratio, bound = lipschitz_audit(h, h, np.linspace(-1, 1, 9))
    assert max_ratio <= 1e-9
    assert bound == pytest.approx(0.0, abs=1e-14)
    # a NaN time would drop out of every |t - s| pair it is in
    for times in ([0.0, np.nan], [np.nan, 0.5, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            lipschitz_audit(h, h, times)


def test_lipschitz_diagonal_gap_tight():
    s = space.path_graph(3)
    h = diagonal(s, [5.0, 0.0, 1.0])
    k = diagonal(s, [0.0, 0.0, 1.0])
    grid = np.linspace(-0.01, 0.01, 33)
    max_ratio, bound = lipschitz_audit(h, k, grid)
    assert bound == pytest.approx(5.0, abs=1e-12)
    assert max_ratio <= 5.0 * (1 + 1e-8)
    assert max_ratio >= 4.99  # tight near t = 0


def test_lipschitz_random_pairs():
    s = space.path_graph(6)
    grid = np.linspace(-1, 1, 64)
    for seed in range(5):
        h = random_hermitian(s, seed)
        k = random_hermitian(s, seed + 100)
        max_ratio, bound = lipschitz_audit(h, k, grid)
        assert max_ratio <= bound * (1 + 1e-8)


@st.composite
def lipschitz_cases(draw):
    """(h, k, times): two Hermitian operators on a small space, each of a
    kind drawn independently, and 2 to 8 distinct times in [-2, 2]."""
    s = draw(small_spaces())
    kinds, seeds = st.sampled_from(HERMITIAN_KINDS), st.integers(0, 2**32 - 1)
    h, k = (drawn_operator(s, draw(kinds), draw(seeds)) for _ in range(2))
    times = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=8, unique=True))
    return h, k, times


# close times once raised: w(d) - 1 was formed as e^{idh} e^{-idk} - 1, which
# cancels, and the ratio exceeded ||h - k|| (or 1e-9 for h = k)
_CLOSE = [0.3, 0.3 + 1e-10]
_H0, _H3 = (drawn_operator(space.path_graph(5), "full", seed) for seed in (0, 3))


@given(lipschitz_cases())
@example(case=(_H0, _H0, _CLOSE))
@example(case=(_H0, _H3, _CLOSE))
@settings(max_examples=60, deadline=None)
def test_drawn_lipschitz_ratio_is_at_most_the_generator_distance(case):
    h, k, times = case
    max_ratio, bound = lipschitz_audit(h, k, times)  # raises on violation
    assert max_ratio <= bound * (1 + 1e-8) + 1e-9


def test_cocycle_identity_and_u0():
    s = space.path_graph(5)
    eh = hermitian_eig(random_hermitian(s, 20))
    ek = hermitian_eig(random_hermitian(s, 21))
    fam = cocycle_from_eigensystems(eh, ek)
    assert np.allclose(fam.u_many(np.array([0.0]))[0], np.eye(5), atol=1e-12)
    assert cocycle_residuals(fam, [0.3, -0.5, 0.0], [0.7, 0.25, 0.0]).max() <= 1e-9


def test_cocycle_equal_generators_constant_identity():
    s = space.path_graph(3)
    eh = hermitian_eig(random_hermitian(s, 22))
    fam = cocycle_from_eigensystems(eh, eh)
    for u in fam.u_many(np.array([0.0, 0.5, 1.0])):
        assert np.allclose(u, np.eye(3), atol=1e-10)


def test_corrupted_cocycle_fails():
    s = space.path_graph(5)
    eh = hermitian_eig(random_hermitian(s, 23))
    ek = hermitian_eig(random_hermitian(s, 24))
    fam = cocycle_from_eigensystems(eh, ek)
    bad = corrupt_at(fam, 0.3)
    assert cocycle_residuals(bad, [0.3], [0.7])[0, 0] > 1e-2


def test_lambda_residual_intertwining():
    s = space.path_graph(4)
    eh = hermitian_eig(random_hermitian(s, 25))
    ek = hermitian_eig(random_hermitian(s, 26))
    # u_t = e^{ith} e^{-itk} makes lambda_t the identity exactly
    fam = cocycle_from_eigensystems(ek, eh)
    assert lambda_scalar_residuals(eh, ek, fam, [0.4])[0] <= 1e-10


def test_lambda_residual_scalar_phase_passes():
    s = space.path_graph(4)
    eh = hermitian_eig(random_hermitian(s, 27))
    ek = hermitian_eig(random_hermitian(s, 28))
    base = cocycle_from_eigensystems(ek, eh)

    def phased(ts):
        return np.exp(1j * 0.9 * ts)[:, None, None] * base.u_many(ts)

    fam = CocycleFamily(base.eigensystem, phased)
    assert lambda_scalar_residuals(eh, ek, fam, [0.4])[0] <= 1e-10


def test_lambda_residual_negative_control():
    s = space.path_graph(4)
    eh = hermitian_eig(random_hermitian(s, 29))
    ek = hermitian_eig(random_hermitian(s, 30))
    # arbitrary non-intertwining unitary family
    rng = np.random.default_rng(31)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(m)
    fam = CocycleFamily(
        eh, lambda ts: np.stack([np.eye(4) if t == 0.0 else q for t in ts])
    )
    assert lambda_scalar_residuals(eh, ek, fam, [0.4])[0] > 0.1


def _one_bad_slice(bad):
    """u_t = 1 on the grid except u_{0.25} = bad."""
    return lambda ts: np.stack([bad if t == 0.25 else np.eye(4) for t in ts])


@pytest.mark.parametrize(
    "u_many, text",
    [
        # a stack of the wrong shape fails at the first time of its chunk
        (lambda ts: np.stack([np.eye(3)] * len(ts)), r"t=0\.0: stack shape"),
        (_one_bad_slice(2.0 * np.eye(4)), r"t=0\.25 is not unitary"),
        (_one_bad_slice(np.full((4, 4), np.nan)), r"t=0\.25 is not unitary"),
        (lambda ts: np.stack([-np.eye(4)] * len(ts)), "u_0 is not the identity"),
    ],
)
def test_cocycle_family_rejects_a_bad_stack_naming_the_time(u_many, text):
    es = hermitian_eig(random_hermitian(space.path_graph(4), 33))
    times = np.array([0.0, 0.25, 0.5])
    good = CocycleFamily(es, _one_bad_slice(np.eye(4)))
    assert cocycle_residuals(good, times, times).max() <= 1e-9
    assert lambda_scalar_residuals(es, es, good, times).max() <= 1e-10
    # a family is not evaluated when it is built, only when it is read
    fam = CocycleFamily(es, u_many)
    with pytest.raises(ValueError, match=text):
        cocycle_residuals(fam, times, times)
    with pytest.raises(ValueError, match=text):
        lambda_scalar_residuals(es, es, fam, times)


@pytest.mark.parametrize("ts, ss", [([0.25], [0.0]), ([0.0], [0.25]), ([0.0, 0.125], [0.125])])
def test_each_of_u_t_u_s_and_u_t_plus_s_is_checked(ts, ss):
    # u_{0.25} is read as u_t, as u_s, or only as the sum 0.125 + 0.125
    es = hermitian_eig(random_hermitian(space.path_graph(4), 33))
    fam = CocycleFamily(es, _one_bad_slice(2.0 * np.eye(4)))
    with pytest.raises(ValueError, match=r"t=0\.25 is not unitary"):
        cocycle_residuals(fam, np.array(ts), np.array(ss))


def test_corrupt_at_changes_only_t0_and_element_is_one_slice():
    s = space.path_graph(5)
    times = np.linspace(-1.0, 1.0, 9)
    eh, ek = (hermitian_eig(random_hermitian(s, seed)) for seed in (34, 35))
    fam = cocycle_from_eigensystems(eh, ek)
    bad = corrupt_at(fam, float(times[6]))
    base, corrupted = fam.u_many(times), bad.u_many(times)
    same = [np.array_equal(a, b) for a, b in zip(base, corrupted)]
    assert same == [i != 6 for i in range(9)]
    assert np.array_equal(corrupted[6], np.eye(5))
    for c, stack in ((fam, base), (bad, corrupted)):
        for t, u in zip(times, stack):
            assert np.array_equal(c.u_many(np.array([t]))[0], u)


def test_flow_profile_matches_per_time_formula():
    # the per-t loop it replaced: u a u^H, then direct differences
    s = space.path_graph(9)
    h = random_hermitian(s, 40)
    a = random_hermitian(s, 41)
    times = np.linspace(-1.0, 1.0, 9)
    modulus, residual = flow_profile(h, a, times)
    es = hermitian_eig(h)
    comm = h.entries @ a.entries - a.entries @ h.entries
    for t, mod, res in zip(times, modulus, residual):
        [u] = es.exp_many([t])
        moved = u @ a.entries @ u.conj().T - a.entries
        assert mod == pytest.approx(spectral_norm(moved), rel=1e-12)
        if t == 0.0:
            assert res == 0.0
        else:
            want = np.linalg.norm(moved / t - 1j * comm, 2)
            assert res == pytest.approx(want, rel=1e-12)


def _cocycle_oracle(c, t, s_):
    """The per-pair formula the stacked path replaced."""
    u_t, u_s, u_ts = c.u_many(np.array([t, s_, t + s_]))
    [e_ith] = c.eigensystem.exp_many([t])
    rhs = u_t @ (e_ith @ u_s @ e_ith.conj().T)
    return np.linalg.norm(u_ts - rhs, 2)


def test_cocycle_residuals_match_per_pair_formula():
    s = space.path_graph(6)
    times = np.linspace(-0.8, 0.8, 7)
    eh, ek = (hermitian_eig(random_hermitian(s, seed)) for seed in (42, 43))
    fam = cocycle_from_eigensystems(eh, ek)
    bad = corrupt_at(fam, float(times[2]))
    for c in (fam, bad):
        grid = cocycle_residuals(c, times, times[::-1])
        assert grid.shape == (7, 7)
        for i, t in enumerate(times):
            for j, s_ in enumerate(times[::-1]):
                assert grid[i, j] == pytest.approx(
                    _cocycle_oracle(c, t, s_), rel=1e-12, abs=1e-14
                )
    assert cocycle_residuals(fam, times, times).max() <= 1e-9
    # the corrupted element still shows through the stacked path
    assert cocycle_residuals(bad, times[2:3], times)[0, 5] > 1e-2


def _per_row_residuals(c, ts, ss):
    """cocycle_residuals with one u_many(t + ss) call per row t."""
    e_it = c.eigensystem.exp_many(ts)
    u_t, u_s = c.u_many(ts), c.u_many(ss)
    out = np.zeros((len(ts), len(ss)))
    for i, t in enumerate(ts):
        moved = e_it[i] @ u_s @ e_it[i].conj().T
        out[i] = spectral_norms(c.u_many(t + ss) - u_t[i] @ moved)
    return out


@pytest.mark.parametrize(
    "times",
    [np.linspace(-1.0, 1.0, 40), np.sort(np.random.default_rng(48).uniform(-1, 1, 12))],
    ids=["uniform-79-sums", "random-78-sums"],
)
def test_cocycle_residuals_form_each_sum_once_bit_for_bit(times):
    # 79 or 78 distinct sums t + s: more than one chunk of 64
    s = space.path_graph(4)
    eh, ek = (hermitian_eig(random_hermitian(s, seed)) for seed in (46, 47))
    fam = cocycle_from_eigensystems(eh, ek)
    formed = []

    def counted(ts):
        formed.append(len(ts))
        return fam.u_many(ts)

    counting = CocycleFamily(fam.eigensystem, counted)
    formed.clear()
    grid = cocycle_residuals(counting, times, times)
    sums = len(np.unique(times[:, None] + times))
    assert sums > 64 and sum(formed) == 2 * len(times) + sums
    assert np.array_equal(grid, _per_row_residuals(fam, times, times))
    bad = corrupt_at(fam, float(times[5]))
    corrupted = cocycle_residuals(bad, times, times)
    assert np.array_equal(corrupted, _per_row_residuals(bad, times, times))
    assert grid.max() <= 1e-9 and corrupted.max() > 1e-2


def test_lambda_residuals_match_per_time_formula():
    s = space.path_graph(4)
    h, k = random_hermitian(s, 44), random_hermitian(s, 45)
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    times = np.linspace(0.0, 1.0, 5)
    fam = cocycle_from_eigensystems(eh, ek)  # not intertwining: lambda != 1
    stacked = lambda_scalar_residuals(eh, ek, fam, times)
    for t, got in zip(times, stacked):
        lam = eh.exp_many([-t])[0] @ fam.u_many(np.array([t]))[0] @ ek.exp_many([t])[0]
        want = np.linalg.norm(lam - np.trace(lam) / 4 * np.eye(4), 2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        single = lambda_scalar_residuals(eh, ek, fam, [t])[0]
        assert single == pytest.approx(got, rel=1e-12)
    assert stacked[1:].min() > 1e-3


@pytest.mark.parametrize("n, seed", [(4, 0), (6, 1), (9, 2), (12, 3)])
def test_lambda_of_one_family_with_generators_swapped(n, seed):
    # e^{-itk} (e^{itk} e^{-ith}) e^{ith} is the adjoint of the mirror
    # family's lambda_t, and the scalar-line distance is adjoint invariant
    s = space.path_graph(n)
    h, k = random_hermitian(s, seed), random_hermitian(s, seed + 100, scale=0.5)
    times = np.linspace(0.0, 1.0, 5)
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    family = cocycle_from_eigensystems(eh, ek)
    mirror_family = cocycle_from_eigensystems(ek, eh)
    one = lambda_scalar_residuals(ek, eh, family, times)
    mirror = lambda_scalar_residuals(eh, ek, mirror_family, times)
    assert np.abs(one - mirror).max() <= 1e-14
    assert max(one.max(), mirror.max()) <= 1e-10


def eigensystem(s, kind, seed):
    """hermitian_eig of a drawn_operator kind, or of "repeated": q diag(v) q^H
    with q a random unitary and v drawn from {0, 1, 2}, so that eigenvalues
    repeat in a basis that is not the standard one."""
    if kind != "repeated":
        return hermitian_eig(drawn_operator(s, kind, seed))
    rng = np.random.default_rng(seed)
    n = s.n_points
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * rng.integers(0, 3, n)) @ q.conj().T
    return hermitian_eig(OperatorMatrix(s, 0.5 * (m + m.conj().T)))


@st.composite
def cocycle_cases(draw):
    """(eh, ek, times): the eigensystems of h and k on a small space, each
    of a Hermitian kind drawn independently, and a grid of 1 to 6 times."""
    s = draw(small_spaces())
    kinds = st.sampled_from(HERMITIAN_KINDS + ("repeated",))
    eh, ek = (
        eigensystem(s, draw(kinds), draw(st.integers(0, 2**32 - 1))) for _ in range(2)
    )
    times = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
    return eh, ek, np.array(times)


@given(cocycle_cases())
@settings(max_examples=60, deadline=None)
def test_drawn_cocycle_holds_and_swapped_lambda_is_scalar(case):
    eh, ek, times = case
    fam = cocycle_from_eigensystems(eh, ek)
    assert cocycle_residuals(fam, times, times).max() <= 1e-9
    assert lambda_scalar_residuals(ek, eh, fam, times).max() <= 1e-10


@given(cocycle_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_corruption_shows_as_the_distance_of_u_t0_from_one(case, data):
    # with u_t0 replaced by 1, u_{t0+s} - sigma_t0(u_s) = (u_t0 - 1) sigma_t0(u_s),
    # whose norm is ||u_t0 - 1||, for every s at which nothing else is replaced
    eh, ek, times = case
    t0 = data.draw(st.sampled_from(times.tolist()))
    fam = cocycle_from_eigensystems(eh, ek)
    hit = lambda ts: np.isclose(ts, t0, rtol=0.0, atol=1e-15)
    ss = times[~hit(times) & ~hit(t0 + times)]
    [u_t0] = fam.u_many(np.array([t0]))
    moved = spectral_norm(u_t0 - np.eye(len(u_t0)))
    got = cocycle_residuals(corrupt_at(fam, t0), [t0], ss)[0]
    assert np.abs(got - moved).max(initial=0.0) <= 1e-9
