import itertools
import tracemalloc

import numpy as np
import pytest

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
    PartialTranslation,
    coarseness_modulus,
    enumerate_r_translations,
    identity_on,
    to_matrix,
)


def two_point_space(d):
    return space.FiniteSpace(np.array([[0.0, d], [d, 0.0]]))


def brute_partial_injections(n, dist, r):
    """Independent oracle: enumerate partial injections via itertools."""
    points = range(n)
    out = set()
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for ran in itertools.permutations(points, k):
                pairs = tuple(zip(dom, ran))
                if all(dist[x, y] <= r for x, y in pairs):
                    out.add(frozenset(pairs))
    return out


def test_identity_translation_is_projection():
    s = space.path_graph(4)
    f = identity_on(s, [1, 3])
    m = to_matrix(f).entries
    expected = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
    assert np.array_equal(m, expected)


def test_empty_translation_zero_matrix():
    s = space.path_graph(3)
    f = PartialTranslation(s, ())
    assert not to_matrix(f).entries.any()
    assert f.displacement == 0.0


def test_swap_is_exchange_matrix():
    s = two_point_space(1.0)
    f = PartialTranslation(s, ((0, 1), (1, 0)))
    m = to_matrix(f).entries
    assert np.array_equal(m, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(m @ m.conj().T, np.eye(2))


def test_adjoint_is_inverse():
    s = space.cycle_graph(5)
    f = PartialTranslation(s, ((0, 1), (2, 4), (3, 3)))
    assert np.array_equal(to_matrix(f).H.entries, to_matrix(f.inverse()).entries)


def test_propagation_equals_displacement():
    s = space.path_graph(5)
    f = PartialTranslation(s, ((0, 2), (4, 3)))
    assert propagation(to_matrix(f)) == f.displacement == 2.0


def test_enumeration_one_point():
    s = space.from_edge_list([], 1)
    fams = list(enumerate_r_translations(s, 0))
    assert {f.pairs for f in fams} == {(), ((0, 0),)}


def test_enumeration_distant_points_only_subidentities():
    s = two_point_space(3.0)
    fams = {f.pairs for f in enumerate_r_translations(s, 1)}
    assert fams == {(), ((0, 0),), ((1, 1),), ((0, 0), (1, 1))}


def test_enumeration_two_close_points_has_seven():
    s = two_point_space(1.0)
    fams = list(enumerate_r_translations(s, 1))
    assert len(fams) == 7


@pytest.mark.parametrize("n,r", [(3, 1), (4, 2), (4, 10)])
def test_enumeration_matches_brute_oracle(n, r):
    s = space.path_graph(n)
    got = {frozenset(f.pairs) for f in enumerate_r_translations(s, r)}
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
        subset = [i for i in range(5) if subset_bits >> i & 1]
        p = to_matrix(identity_on(s, subset))
        assert spectral_norm((h @ p - p @ h).entries) <= modulus + 1e-10


def loop_commutator_norm(h, pairs):
    v = np.zeros((h.n, h.n), dtype=complex)
    for x, y in pairs:
        v[y, x] = 1.0
    return np.linalg.norm(h.entries @ v - v @ h.entries, 2)


def loop_heuristic(h, r):
    """The heuristic mode evaluated one translation at a time."""
    n = h.n
    feasible = [(x, y) for x in range(n) for y in range(n) if h.space.dist[x, y] <= r]
    best = max((loop_commutator_norm(h, [p]) for p in feasible), default=0.0)
    current, current_norm = [], 0.0
    while True:
        gain_pair, gain_norm = None, current_norm
        for x, y in feasible:
            if any(x == p[0] or y == p[1] for p in current):
                continue
            cand = loop_commutator_norm(h, current + [(x, y)])
            if cand > gain_norm + 1e-15:
                gain_pair, gain_norm = (x, y), cand
        if gain_pair is None:
            return max(best, current_norm)
        current.append(gain_pair)
        current_norm = gain_norm


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
            loop_commutator_norm(h, f.pairs) for f in enumerate_r_translations(s, r)
        )
        assert coarseness_modulus(h, r, "exact") == pytest.approx(exact, abs=1e-12)
        assert coarseness_modulus(h, r, "heuristic") == pytest.approx(
            loop_heuristic(h, r), abs=1e-12
        )


def dfs_translations(s, r):
    """The pairs of every partial bijection with displacement <= r, by a
    recursive depth-first search: x left out of the domain first, then each
    free target within r in increasing order."""
    n = s.n_points

    def extend(x, acc, used):
        if x == n:
            yield tuple(acc)
            return
        yield from extend(x + 1, acc, used)
        for y in np.flatnonzero(s.dist[x] <= r).tolist():
            if y not in used:
                yield from extend(x + 1, acc + [(x, y)], used | {y})

    return list(extend(0, [], frozenset()))


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
    got = [f.pairs for f in enumerate_r_translations(s, r)]
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
            loop_commutator_norm(h, f.pairs)
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
