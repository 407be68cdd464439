import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roelab import space, translations
from roelab._linalg import spectral_norm
from roelab.errors import SizeGuardError
from roelab.operator import (
    OperatorMatrix,
    diagonal,
    propagation,
    truncate,
)
from roelab.translations import (
    coarseness_modulus,
    displacements,
    enumerate_r_translations,
    to_matrices,
)


def two_point_space(d):
    return space.FiniteSpace(np.array([[0.0, d], [d, 0.0]]))


def brute_partial_injections(n, dist, r):
    """Independent oracle: the target rows of every partial injection with
    displacement <= r, via itertools."""
    points = range(n)
    out = set()
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for ran in itertools.permutations(points, k):
                if all(dist[x, y] <= r for x, y in zip(dom, ran)):
                    row = [-1] * n
                    for x, y in zip(dom, ran):
                        row[x] = y
                    out.add(tuple(row))
    return out


def test_identity_translation_is_projection():
    [m] = to_matrices([[-1, 1, -1, 3]])
    expected = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
    assert np.array_equal(m, expected)


def test_empty_translation_zero_matrix():
    s = space.path_graph(3)
    f = np.full((1, 3), -1)
    assert not to_matrices(f).any()
    assert displacements(s, f).tolist() == [0.0]


def test_swap_is_exchange_matrix():
    [m] = to_matrices([[1, 0]])
    assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(m @ m.conj().T, np.eye(2))


def test_adjoint_is_inverse():
    f = np.array([[1, -1, 4, 3, -1]])
    v = to_matrices(f)
    assert np.array_equal(v.conj().transpose(0, 2, 1), to_matrices(translations._inverses(f)))


def test_propagation_equals_displacement():
    s = space.path_graph(5)
    f = np.array([[2, -1, -1, -1, 3]])
    [v] = to_matrices(f)
    assert propagation(OperatorMatrix(s, v)) == displacements(s, f)[0] == 2.0


@pytest.mark.parametrize(
    "targets",
    [[[0, 0]], [[1, -1, 1]], [[2, -1]], [[-2, 0]], [0, 1], [[0.0, 1.0]]],
    ids=["repeated", "repeated-with-gap", "too-large", "too-small", "1-d", "float"],
)
def test_a_row_that_is_not_a_partial_bijection_is_refused(targets):
    with pytest.raises(ValueError):
        to_matrices(targets)
    with pytest.raises(ValueError):
        displacements(space.path_graph(len(np.ravel(targets))), targets)


SPACES = {"path": space.path_graph, "cycle": space.cycle_graph, "complete": space.complete_graph}


@st.composite
def translation_rows(draw):
    """A space of n <= 6 points and one partial bijection row on it."""
    kind = draw(st.sampled_from(sorted(SPACES)))
    n = draw(st.integers(3 if kind == "cycle" else 1, 6))
    image = draw(st.permutations(range(n)))
    domain = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SPACES[kind](n), np.array([[y if x else -1 for x, y in zip(domain, image)]])


@given(translation_rows())
@settings(max_examples=40, deadline=None)
def test_row_form_properties(case):
    s, f = case
    [v] = to_matrices(f)
    [d] = displacements(s, f)
    assert propagation(OperatorMatrix(s, v)) == d
    assert np.array_equal(v @ v.conj().T @ v, v)
    assert np.array_equal(to_matrices(translations._inverses(f))[0], v.conj().T)
    # yielded at its displacement, and at no smaller radius of the distance set
    radii = s.distance_set()
    for r in radii[radii <= d]:
        rows = np.array(list(enumerate_r_translations(s, r)))
        assert (rows == f).all(axis=1).any() == (r == d)


def test_enumeration_one_point():
    s = space.from_edge_list([], 1)
    fams = list(enumerate_r_translations(s, 0))
    assert {tuple(f) for f in fams} == {(-1,), (0,)}


def test_enumeration_distant_points_only_subidentities():
    s = two_point_space(3.0)
    fams = {tuple(f) for f in enumerate_r_translations(s, 1)}
    assert fams == {(-1, -1), (0, -1), (-1, 1), (0, 1)}


def test_enumeration_two_close_points_has_seven():
    s = two_point_space(1.0)
    fams = list(enumerate_r_translations(s, 1))
    assert len(fams) == 7


@pytest.mark.parametrize("n,r", [(3, 1), (4, 2), (4, 10)])
def test_enumeration_matches_brute_oracle(n, r):
    s = space.path_graph(n)
    got = {tuple(f) for f in enumerate_r_translations(s, r)}
    assert got == brute_partial_injections(n, s.dist, r)
    # uniqueness: no translation yielded twice
    assert len(list(enumerate_r_translations(s, r))) == len(got)


def test_enumeration_size_guard():
    s = space.path_graph(11)
    with pytest.raises(SizeGuardError):
        list(enumerate_r_translations(s, 1))


def test_coarseness_diagonal_two_points():
    s = two_point_space(1.0)
    h = diagonal(s, [0.0, 5.0])
    assert coarseness_modulus(h, 1, "exact") == pytest.approx(5.0, abs=1e-12)


def test_coarseness_identity_commutes():
    s = space.path_graph(4)
    h = OperatorMatrix(s, np.eye(4, dtype=complex))
    assert coarseness_modulus(h, 3, "exact") == pytest.approx(0.0, abs=1e-12)


def test_coarseness_diagonal_full_radius_is_pairwise_max():
    rng = np.random.default_rng(7)
    s = space.path_graph(5)
    vals = rng.standard_normal(5)
    h = diagonal(s, vals)
    exact = coarseness_modulus(h, s.diameter, "exact")
    oracle = max(abs(vals[x] - vals[z]) for x in range(5) for z in range(5))
    assert exact == pytest.approx(oracle, abs=1e-12)


def test_heuristic_below_exact():
    rng = np.random.default_rng(3)
    s = space.cycle_graph(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    for r in (1, 2):
        assert coarseness_modulus(h, r, "heuristic") <= coarseness_modulus(
            h, r, "exact"
        ) + 1e-10


def test_projection_commutator_bounded_by_r0_modulus():
    rng = np.random.default_rng(11)
    s = space.path_graph(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    modulus = coarseness_modulus(h, 0, "exact")
    for subset_bits in range(1 << 5):
        [p] = to_matrices([[x if subset_bits >> x & 1 else -1 for x in range(5)]])
        assert spectral_norm(h.entries @ p - p @ h.entries) <= modulus + 1e-10


def loop_commutator_norm(h, row):
    v = np.zeros((h.n, h.n), dtype=complex)
    for x, y in enumerate(row):
        if y >= 0:
            v[y, x] = 1.0
    return np.linalg.norm(h.entries @ v - v @ h.entries, 2)


def loop_heuristic(h, r):
    """The heuristic mode evaluated one translation at a time."""
    n = h.n
    feasible = [(x, y) for x in range(n) for y in range(n) if h.space.dist[x, y] <= r]

    def extended(row, x, y):
        return row[:x] + [y] + row[x + 1 :]

    best = max(
        (loop_commutator_norm(h, extended([-1] * n, x, y)) for x, y in feasible),
        default=0.0,
    )
    current, current_norm = [-1] * n, 0.0
    while True:
        gain_row, gain_norm = None, current_norm
        for x, y in feasible:
            if current[x] >= 0 or y in current:
                continue
            cand = loop_commutator_norm(h, extended(current, x, y))
            if cand > gain_norm + 1e-15:
                gain_row, gain_norm = extended(current, x, y), cand
        if gain_row is None:
            return max(best, current_norm)
        current, current_norm = gain_row, gain_norm


@pytest.mark.parametrize(
    "s,radii",
    [(space.path_graph(6), (0, 1, 2)), (space.cycle_graph(7), (0, 1))],
    ids=["path6", "cycle7"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_coarseness_matches_per_translation_loop(s, radii, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((s.n_points,) * 2) + 1j * rng.standard_normal(
        (s.n_points,) * 2
    )
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    for r in radii:
        exact = max(
            loop_commutator_norm(h, f) for f in enumerate_r_translations(s, r)
        )
        assert coarseness_modulus(h, r, "exact") == pytest.approx(exact, abs=1e-12)
        assert coarseness_modulus(h, r, "heuristic") == pytest.approx(
            loop_heuristic(h, r), abs=1e-12
        )


def dfs_translations(s, r):
    """The target row of every partial bijection with displacement <= r, by
    a recursive depth-first search: x left out of the domain first, then
    each free target within r in increasing order."""
    n = s.n_points

    def extend(row):
        x = len(row)
        if x == n:
            yield row
            return
        yield from extend(row + (-1,))
        for y in np.flatnonzero(s.dist[x] <= r).tolist():
            if y not in row:
                yield from extend(row + (y,))

    return list(extend(()))


ENUMERATION_CASES = [
    *[(space.path_graph(6), r) for r in (0, 1, 2)],
    *[(space.cycle_graph(7), r) for r in (0, 1)],
    (space.from_edge_list([], 1), 0),
    (two_point_space(1.0), 1),
    (two_point_space(3.0), 1),
]


@pytest.mark.parametrize("block", [None, 1, 5])
@pytest.mark.parametrize("s,r", ENUMERATION_CASES)
def test_target_rows_follow_the_dfs_order(monkeypatch, s, r, block):
    if block is not None:
        monkeypatch.setattr(translations, "_BLOCK", block)
    got = [tuple(f) for f in enumerate_r_translations(s, r)]
    assert got == dfs_translations(s, r)


def test_exact_coarseness_temporaries_stay_small():
    s = space.path_graph(10)
    h = diagonal(s, np.arange(10.0))
    tracemalloc.start()
    try:
        coarseness_modulus(h, 1, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of target rows per level, and one chunk of v_f and [h, v_f];
    # the 78,243 translations as one (k, 10) array would take 6 MiB
    assert peak < 4 * 2**20


def test_enumeration_size_guard_fires_before_any_array():
    s = space.path_graph(11)
    h = diagonal(s, np.arange(11.0))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            coarseness_modulus(h, 1, "exact")
        with pytest.raises(SizeGuardError):
            next(enumerate_r_translations(s, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def _all_targets(s, r):
    return np.concatenate(list(translations._translation_targets(s, r, False)))


def _generator(kind, s, seed):
    """A Hermitian operator on s of the given kind."""
    n = s.n_points
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    if kind == "diagonal":
        return diagonal(s, rng.standard_normal(n))
    if kind == "dense":
        return dense
    if kind == "banded":
        return truncate(dense, 1)
    if kind == "rank-one":
        v = m[:, 0]
        return OperatorMatrix(s, np.outer(v, v.conj()))
    return OperatorMatrix(s, 2.5 * np.eye(n, dtype=complex))  # scalar


@pytest.mark.parametrize(
    "kind", ["diagonal", "dense", "banded", "rank-one", "scalar"]
)
@pytest.mark.parametrize(
    "s",
    [space.path_graph(5), space.cycle_graph(5), space.from_edge_list([], 1)],
    ids=["path5", "cycle5", "one-point"],
)
def test_exact_coarseness_matches_the_loop_oracle(s, kind):
    h = _generator(kind, s, seed=s.n_points)
    for r in s.distance_set():
        want = max(
            loop_commutator_norm(h, f)
            for f in enumerate_r_translations(s, r)
        )
        got = coarseness_modulus(h, float(r), "exact")
        assert abs(got - want) <= 1e-14 * want, (kind, r)
        if kind == "scalar":
            assert got == 0.0


def test_gathered_commutators_equal_the_dense_products():
    s = space.path_graph(5)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    perms = np.array(list(itertools.permutations(range(5))))
    targets = np.concatenate([np.full((1, 5), -1), perms, _all_targets(s, 2)])
    got = translations._commutators(h, targets, translations._inverses(targets))
    for f, c in zip(targets, got):
        v = np.zeros((5, 5), dtype=complex)
        x = np.flatnonzero(f >= 0)
        v[f[x], x] = 1.0
        assert np.array_equal(c, h @ v - v @ h), f


@pytest.mark.parametrize("s,r", ENUMERATION_CASES)
def test_inverse_pair_filter_keeps_one_row_of_each_pair(s, r):
    rows = _all_targets(s, r)
    inverses = translations._inverses(rows)
    keep = translations._first_of_inverse_pair(rows, inverses)
    involutions = (rows == inverses).all(axis=1)
    assert keep[involutions].all()
    assert keep.sum() == (len(rows) + involutions.sum()) // 2
    kept = {tuple(f) for f in rows[keep]}
    assert kept | {tuple(f) for f in inverses[keep]} == {tuple(f) for f in rows}


def test_exact_coarseness_of_diagonal_h_norms_few_rows(monkeypatch):
    s = space.path_graph(6)
    normed = []
    norms = translations.spectral_norms

    def counted(stack):
        normed.append(len(stack))
        return norms(stack)

    monkeypatch.setattr(translations, "spectral_norms", counted)
    assert len(_all_targets(s, 2)) == 2701
    for seed in range(5):
        normed.clear()
        h = diagonal(s, np.random.default_rng(seed).standard_normal(6))
        coarseness_modulus(h, 2, "exact")
        assert 0 < sum(normed) < 270


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_coarseness_of_non_hermitian_h_is_refused(mode):
    s = space.path_graph(3)
    h = OperatorMatrix(s, np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="not Hermitian"):
        coarseness_modulus(h, 1, mode)
    d = diagonal(s, [0.0, 1.0, 2.0])
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="radius"):
            coarseness_modulus(d, bad, mode)
