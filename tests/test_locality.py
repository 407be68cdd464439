import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roelab import locality, space
from roelab._linalg import spectral_norm, spectral_norms
from roelab.errors import SizeGuardError
from roelab.locality import ql_value
from roelab.operator import OperatorMatrix, truncate


def random_operator(s, seed):
    rng = np.random.default_rng(seed)
    n = s.n_points
    return OperatorMatrix(
        s, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )


def brute_ql(a, r):
    """Independent oracle over every (A, B) pair with d(A, B) > r."""
    n = a.n
    dist = a.space.dist
    best = 0.0
    for abits in range(1, 1 << n):
        amask = [i for i in range(n) if abits >> i & 1]
        for bbits in range(1, 1 << n):
            bmask = [i for i in range(n) if bbits >> i & 1]
            if min(dist[x, y] for x in amask for y in bmask) > r:
                best = max(
                    best, np.linalg.norm(a.entries[np.ix_(amask, bmask)], 2)
                )
    return best


def test_finite_propagation_vanishes():
    s = space.path_graph(5)
    a = truncate(random_operator(s, 0), 2)
    for r in (2, 3, 4):
        assert ql_value(a, r, "exact") == 0.0


def test_rank_one_threshold():
    s = space.path_graph(4)
    m = np.zeros((4, 4), dtype=complex)
    m[3, 0] = 1.0  # e_{3,0}: one entry, at distance 3
    a = OperatorMatrix(s, m)
    assert ql_value(a, 2, "exact") == pytest.approx(1.0, abs=1e-12)
    assert ql_value(a, 3, "exact") == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_matches_allpairs_oracle(seed):
    s = space.cycle_graph(5)
    a = random_operator(s, seed)
    for r in s.distance_set():
        assert ql_value(a, r, "exact") == pytest.approx(
            brute_ql(a, r), abs=1e-10
        )


def test_truncation_sandwich():
    s = space.path_graph(7)
    for seed in range(5):
        a = random_operator(s, seed)
        for r in s.distance_set():
            assert ql_value(a, r, "exact") <= spectral_norm(
                a.entries - truncate(a, r).entries
            ) + 1e-10


def test_lower_below_exact():
    s = space.cycle_graph(6)
    for seed in range(5):
        a = random_operator(s, seed)
        for r in s.distance_set():
            assert ql_value(a, r, "lower") <= ql_value(a, r, "exact") + 1e-12
    for mode in ("exact", "lower"):
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="radius"):
                ql_value(a, bad, mode)


def test_exact_size_guard():
    s = space.path_graph(17)
    with pytest.raises(SizeGuardError):
        ql_value(random_operator(s, 0), 1, "exact")


def test_profile_nonincreasing():
    s = space.path_graph(6)
    a = random_operator(s, 3)
    values = [ql_value(a, r, "exact") for r in s.distance_set()]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def loop_ql(a, r, masks):
    """ql_value's maximum evaluated one corner at a time over the sets A."""
    dist = a.space.dist
    best = 0.0
    for amask in masks:
        bmask = dist[amask].min(axis=0) > r
        if bmask.any():
            best = max(best, np.linalg.norm(a.entries[np.ix_(amask, bmask)], 2))
    return best


@pytest.mark.parametrize(
    "s", [space.path_graph(7), space.cycle_graph(6)], ids=["path7", "cycle6"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_ql_value_matches_per_corner_loop(s, seed):
    a = random_operator(s, seed)
    a = OperatorMatrix(s, 0.5 * (a.entries + a.entries.conj().T))
    n = s.n_points
    subsets = [
        np.array([bits >> i & 1 for i in range(n)], dtype=bool)
        for bits in range(1, 1 << n)
    ]
    balls = [s.dist[x] <= rho for x in range(n) for rho in s.distance_set()]
    for r in s.distance_set():
        assert ql_value(a, r, "exact") == pytest.approx(
            loop_ql(a, r, subsets), abs=1e-12
        )
        assert ql_value(a, r, "lower") == pytest.approx(
            loop_ql(a, r, balls), abs=1e-12
        )


def masked_ql(a, r, mode):
    """ql_value's maximum with every corner taken as a masked n x n matrix:
    p_A a p_B with the rows outside A and the columns outside B zeroed."""
    n = a.n
    dist = a.space.dist
    if mode == "exact":
        bits = np.arange(1, 1 << n)
        a_masks = ((bits[:, None] >> np.arange(n)) & 1).astype(bool)
    else:
        radii = a.space.distance_set()
        a_masks = (dist[:, None, :] <= radii[None, :, None]).reshape(-1, n)
    far = np.where(a_masks[:, :, None], dist, np.inf).min(axis=1) > r
    corners = np.where(a_masks[:, :, None] & far[:, None, :], a.entries, 0.0)
    return float(spectral_norms(corners).max())


@pytest.mark.parametrize(
    "s",
    [space.cycle_graph(9), space.path_graph(10), space.complete_graph(6)],
    ids=["cycle9", "path10", "complete6"],
)
@pytest.mark.parametrize("mode", ["exact", "lower"])
def test_grouped_corners_match_masked_corners(s, mode):
    a = random_operator(s, 5)
    a = OperatorMatrix(s, 0.5 * (a.entries + a.entries.conj().T))
    for r in s.distance_set():
        want = masked_ql(a, r, mode)
        assert ql_value(a, r, mode) == pytest.approx(want, rel=1e-14, abs=0.0)
        if s.diameter <= r:
            assert want == 0.0


def test_exact_ql_temporaries_stay_small():
    a = random_operator(space.path_graph(16), 0)
    tracemalloc.start()
    try:
        ql_value(a, 1.0, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^16 x 16 subset masks (1 MiB as bool, from a 2 MiB uint16
    # temporary) and the far sets bound the peak; one (2^16, 16, 16)
    # temporary for the far sets would be 134 MB
    assert peak < 6 * 2**20


def test_lower_size_guard_fires_before_the_ball_masks():
    # 162 points and 162 distances: 162^3 mask entries, just over the bound
    s = space.path_graph(162)
    assert 161**3 <= locality.LOWER_GUARD < 162**3
    a = OperatorMatrix(s, np.eye(162))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="ql-lower-balls"):
            ql_value(a, 1.0, "lower")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.unique of the 162 x 162 metric (about 1.3 MB), not the 4.25 MB masks
    assert peak < 2 * 2**20


def test_exact_size_guard_fires_before_any_array():
    a = random_operator(space.path_graph(17), 0)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            ql_value(a, 1.0, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


GRAPHS = {"path": space.path_graph, "cycle": space.cycle_graph, "complete": space.complete_graph}


@st.composite
def graphs(draw, max_n):
    """A path, cycle or complete graph with 1 <= n <= max_n points."""
    kind = draw(st.sampled_from(sorted(k for k in GRAPHS if max_n >= 3 or k != "cycle")))
    return GRAPHS[kind](draw(st.integers(3 if kind == "cycle" else 1, max_n)))


@st.composite
def small_spaces(draw, max_n=8):
    """A graph of n <= max_n points, or the coarse union of two graphs."""
    if not draw(st.booleans()):
        return draw(graphs(max_n))
    first = draw(graphs(max_n - 1))
    return space.coarse_union([first, draw(graphs(max_n - first.n_points))])


HERMITIAN_KINDS = ("full", "banded", "diagonal", "rank-one")


def drawn_operator(s, kind, seed):
    """A full, banded, diagonal or rank-one operator made exactly Hermitian,
    or a full or strictly upper triangular non-Hermitian one."""
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "banded":
        m = np.where(s.dist <= 1, m, 0.0)
    elif kind == "diagonal":
        m = np.diag(m.real.diagonal()).astype(complex)
    elif kind == "rank-one":
        m = np.outer(m[0], m[0].conj())
    elif kind == "upper":
        m = np.triu(m, 1)
    if kind in HERMITIAN_KINDS:
        m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(s, m)


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS + ("non-hermitian", "upper")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_closed_set_reduction_matches_all_subsets(s, kind, seed):
    a = drawn_operator(s, kind, seed)
    if kind in HERMITIAN_KINDS:
        assert np.array_equal(a.entries, a.entries.conj().T)
    n = s.n_points
    subsets = [
        np.array([bits >> i & 1 for i in range(n)], dtype=bool)
        for bits in range(1, 1 << n)
    ]
    for r in s.distance_set():
        assert ql_value(a, r, "exact") == pytest.approx(
            loop_ql(a, r, subsets), rel=1e-14, abs=0.0
        )


def test_swap_pairing_needs_hermitian_a():
    # only the corner p_{2} a p_{0} is nonzero; its swap p_{0} a p_{2} is 0
    s = space.path_graph(3)
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 1.0
    assert ql_value(OperatorMatrix(s, m), 1, "exact") == 1.0


@pytest.mark.parametrize(
    "hermitian,counts", [(True, [255, 36, 18]), (False, [510, 72, 36])]
)
def test_exact_norms_closed_sets_and_one_of_each_swap_pair(monkeypatch, hermitian, counts):
    # corners are counted where they are formed, and fewer are eigensolved
    formed, solved = [], []
    scaled_grams, top_norms = locality.scaled_grams, locality.top_norms

    def forming(stack):
        formed[-1] += len(stack)
        return scaled_grams(stack)

    def solving(gram, e):
        solved[-1] += len(gram)
        return top_norms(gram, e)

    monkeypatch.setattr(locality, "scaled_grams", forming)
    monkeypatch.setattr(locality, "top_norms", solving)
    s = space.cycle_graph(9)
    a = drawn_operator(s, "full" if hermitian else "non-hermitian", 9)
    for r in (0, 1, 2):
        formed.append(0)
        solved.append(0)
        ql_value(a, r, "exact")
    assert formed == counts
    assert all(0 < x < y for x, y in zip(solved, formed))


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS + ("non-hermitian", "upper")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ql_values_at_every_radius_match_the_per_corner_loop(s, kind, seed):
    # every radius of the distance set in one call, so that a corner normed
    # for the wrong radius shows
    a = drawn_operator(s, kind, seed)
    n = s.n_points
    radii = s.distance_set()
    subsets = [
        np.array([bits >> i & 1 for i in range(n)], dtype=bool)
        for bits in range(1, 1 << n)
    ]
    balls = [s.dist[x] <= rho for x in range(n) for rho in radii]
    for mode, masks in (("exact", subsets), ("lower", balls)):
        values = locality.ql_values(a, radii, [mode])[0]
        assert values.shape == radii.shape
        for r, value in zip(radii, values):
            assert value == pytest.approx(loop_ql(a, r, masks), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("mode", ["exact", "lower"])
def test_ql_values_on_one_and_two_points(mode):
    # one point: no far set at any radius; two points: none beyond r = 0
    a = OperatorMatrix(space.path_graph(1), np.array([[3.0]]))
    assert locality.ql_values(a, [0.0, 1.0], [mode]).tolist() == [[0.0, 0.0]]
    m = np.array([[1.0, -2.0], [0.5j, 4.0]])
    a = OperatorMatrix(space.path_graph(2), m)
    assert locality.ql_values(a, [0.0, 1.0, 2.0], [mode]).tolist() == [[2.0, 0.0, 0.0]]
    assert locality.ql_values(a, [], [mode]).shape == (1, 0)
    with pytest.raises(ValueError, match="radius"):
        locality.ql_values(a, [1.0, -1.0], [mode])


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS + ("non-hermitian", "upper")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_drawn_ql_values_are_sandwiched(s, kind, seed):
    # lower <= exact <= ||a - truncate(a, r)||, as in criterion 10
    a = drawn_operator(s, kind, seed)
    radii = s.distance_set()
    lower, exact = locality.ql_values(a, radii, ["lower", "exact"])
    for r, e, lo in zip(radii, exact, lower):
        assert lo <= e + 1e-12
        assert e <= spectral_norm(a.entries - truncate(a, float(r)).entries) + 1e-12


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS + ("non-hermitian", "upper")),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ql_values_of_both_modes_match_one_radius_calls(s, kind, seed, data):
    # one call for both modes and unsorted, repeated radii: each row must be
    # the one-mode, one-radius values bit for bit, though its corners are
    # batched with the other mode's
    a = drawn_operator(s, kind, seed)
    radii = data.draw(st.lists(st.sampled_from(s.distance_set().tolist()), max_size=6))
    values = locality.ql_values(a, radii, ["lower", "exact"])
    assert values.shape == (2, len(radii))
    for row, mode in zip(values, ["lower", "exact"]):
        assert row.tolist() == [ql_value(a, r, mode) for r in radii]


def formed_corner(a, amask, bmask):
    """The corner p_A a p_B as ql_values forms it: on the smaller side's
    points in order (taken transposed when |A| > |B|), the other side's
    points in order and then zero columns, n - p in all for side p."""
    n = a.n
    rows, cols, m = np.flatnonzero(amask), np.flatnonzero(bmask), a.entries
    if len(rows) > len(cols):
        rows, cols, m = cols, rows, m.T
    corner = np.zeros((len(rows), n - len(rows)), dtype=complex)
    corner[:, : len(cols)] = m[np.ix_(rows, cols)]
    return corner


def unpruned_ql(a, r, mode):
    """ql_value's max with every corner of the mode eigensolved, one at a
    time: every closed set A (the one of each swap pair holding the first
    point, for exactly Hermitian a), or every ball, repeats and all."""
    n, dist = a.n, a.space.dist

    def far(mask):
        return dist[mask].min(axis=0) > r

    if mode == "exact":
        masks = [np.array([bits >> i & 1 for i in range(n)], dtype=bool) for bits in range(1, 1 << n)]
        masks = [m for m in masks if far(m).any() and np.array_equal(far(far(m)), m)]
        if np.array_equal(a.entries, a.entries.conj().T):
            masks = [m for m in masks if np.argmax(m) < np.argmax(far(m))]
    else:
        masks = [dist[x] <= rho for x in range(n) for rho in a.space.distance_set()]
        masks = [m for m in masks if far(m).any()]
    return max((spectral_norm(formed_corner(a, m, far(m))) for m in masks), default=0.0)


def assert_unpruned(a, radii):
    got = locality.ql_values(a, radii, ["lower", "exact"])
    want = [[unpruned_ql(a, r, mode) for r in radii] for mode in ("lower", "exact")]
    assert got.tolist() == want


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS + ("non-hermitian", "upper")),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1000, -1000]),
)
@settings(max_examples=80, deadline=None)
def test_pruned_ql_values_bit_for_bit(s, kind, seed, exponent):
    # only the corners whose Gram ceiling reaches a floor are eigensolved,
    # and a ball that repeats an earlier one is dropped; the max must still
    # be that of every corner, every ball included, at every radius and past
    # the diameter, for a and for a scaled by 2^+-1000
    a = drawn_operator(s, kind, seed)
    a = OperatorMatrix(s, np.ldexp(a.entries.view(float), exponent).view(complex))
    assert_unpruned(a, np.append(s.distance_set(), s.diameter + 1.0))


@pytest.mark.parametrize("exponent", [0, 1000, -1000])
def test_pruned_ql_values_bit_for_bit_on_near_ties(exponent):
    # two corners one ulp apart, as 1 x 1 corners and as rank-one 2 x 2
    # corners whose bounds meet the norm, and the zero operator
    x = np.ldexp(1.0 + 2.0**-30, exponent)
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0], m[0, 2] = x, np.nextafter(x, np.inf)
    a = OperatorMatrix(space.path_graph(3), m)
    assert_unpruned(a, [0.0, 1.0, 2.0])
    assert ql_value(a, 1.0, "exact") == np.nextafter(x, np.inf)
    s = space.path_graph(6)
    m = np.zeros((6, 6), dtype=complex)
    m[np.ix_([0, 1], [4, 5])] = x
    m[np.ix_([4, 5], [0, 1])] = np.nextafter(x, 0.0)
    assert_unpruned(OperatorMatrix(s, m), s.distance_set())
    assert_unpruned(OperatorMatrix(s, np.zeros((6, 6))), s.distance_set())


@pytest.mark.parametrize("kind", ["band-1", "band-2", "diagonal", "zero"])
def test_exact_support_shortcut_bit_for_bit(monkeypatch, kind):
    # at or past the largest d(x, y) of an exactly nonzero a_xy every value
    # is 0 and no corner is formed; below it the values are unchanged
    s = space.cycle_graph(8)
    a = drawn_operator(s, "full", 4)
    reach = {"band-1": 1.0, "band-2": 2.0, "diagonal": 0.0, "zero": -1.0}[kind]
    a = OperatorMatrix(s, np.where(s.dist <= reach, a.entries, 0.0))
    radii = np.append(s.distance_set(), 7.5)
    assert_unpruned(a, radii)
    formed = []
    scaled_grams = locality.scaled_grams

    def forming(stack):
        formed.append(len(stack))
        return scaled_grams(stack)

    monkeypatch.setattr(locality, "scaled_grams", forming)
    dead = radii[radii >= reach]
    assert not locality.ql_values(a, dead, ["lower", "exact"]).any()
    assert formed == []


def test_exact_ql_temporaries_stay_small_at_every_radius():
    # the radii are worked in blocks, and each batch's Gram matrices are
    # held at once: every radius of path_graph(16) stays within the bound of
    # one radius
    s = space.path_graph(16)
    a = random_operator(s, 0)
    tracemalloc.start()
    try:
        locality.ql_values(a, s.distance_set(), ["exact"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
