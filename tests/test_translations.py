import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_locality import HERMITIAN_KINDS, drawn_operator, graphs, small_spaces

from roelab import space, translations
from roelab._linalg import spectral_norm, spectral_norms
from roelab.errors import SizeGuardError
from roelab.operator import (
    OperatorMatrix,
    diagonal,
    propagation,
    truncate,
)
from roelab.translations import (
    coarseness_moduli,
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
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="radius"):
            list(enumerate_r_translations(space.path_graph(4), bad))


def test_coarseness_diagonal_two_points():
    s = two_point_space(1.0)
    h = diagonal(s, [0.0, 5.0])
    assert coarseness_moduli(h, [1], ["exact"])[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_coarseness_identity_commutes():
    s = space.path_graph(4)
    h = OperatorMatrix(s, np.eye(4, dtype=complex))
    assert coarseness_moduli(h, [3], ["exact"])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_coarseness_diagonal_full_radius_is_pairwise_max():
    rng = np.random.default_rng(7)
    s = space.path_graph(5)
    vals = rng.standard_normal(5)
    h = diagonal(s, vals)
    exact = coarseness_moduli(h, [s.diameter], ["exact"])[0, 0]
    oracle = max(abs(vals[x] - vals[z]) for x in range(5) for z in range(5))
    assert exact == pytest.approx(oracle, abs=1e-12)


def test_heuristic_below_exact():
    rng = np.random.default_rng(3)
    s = space.cycle_graph(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    heuristic, exact = coarseness_moduli(h, [1, 2], ["heuristic", "exact"])
    assert (heuristic <= exact + 1e-10).all()


def test_projection_commutator_bounded_by_r0_modulus():
    rng = np.random.default_rng(11)
    s = space.path_graph(5)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    modulus = coarseness_moduli(h, [0], ["exact"])[0, 0]
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
    """The heuristic mode evaluated one translation at a time. A gain must
    beat the current norm by 1e-15 2^e, 2^(e-1) <= max |Re h_xy|, |Im h_xy| < 2^e."""
    n = h.n
    big = max(np.abs(h.entries.real).max(), np.abs(h.entries.imag).max())
    min_gain = math.ldexp(1e-15, math.frexp(big)[1])
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
            if cand > gain_norm + min_gain:
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
    exact, heuristic = coarseness_moduli(h, radii, ["exact", "heuristic"])
    # the heuristic profile is the running max of the one-radius greedy values
    running = np.maximum.accumulate([loop_heuristic(h, r) for r in radii])
    for r, e, greedy, want in zip(radii, exact, heuristic, running):
        loop = max(loop_commutator_norm(h, f) for f in enumerate_r_translations(s, r))
        assert e == pytest.approx(loop, abs=1e-12)
        assert greedy == pytest.approx(want, abs=1e-12)


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
    # a diagonal h is enumerated not at all; a nearly diagonal one in full
    for coupling in (0.0, 1e-3):
        h = OperatorMatrix(s, np.diag(np.arange(10.0)) + coupling * (s.dist == 1))
        tracemalloc.start()
        try:
            coarseness_moduli(h, [1], ["exact"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of target rows per level, and one chunk of v_f and [h, v_f];
        # the 78,243 translations as one (k, 10) array would take 6 MiB
        assert peak < 4 * 2**20, coupling


def test_enumeration_size_guard_fires_before_any_array():
    s = space.path_graph(11)
    h = diagonal(s, np.arange(11.0))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            coarseness_moduli(h, [1], ["exact"])
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
    radii = s.distance_set()
    for r, got in zip(radii, coarseness_moduli(h, radii, ["exact"])[0]):
        want = max(
            loop_commutator_norm(h, f)
            for f in enumerate_r_translations(s, r)
        )
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

    def counted(norms):
        def count(stack, *rest):
            normed.append(len(stack))
            return norms(stack, *rest)

        return count

    def no_rows(rows, options):
        raise AssertionError("a translation was enumerated")
        yield

    assert len(_all_targets(s, 2)) == 2701
    # both ways the module eigensolves: the heuristic's and the exact mode's
    for name in ("spectral_norms", "top_norms"):
        monkeypatch.setattr(translations, name, counted(getattr(translations, name)))
    monkeypatch.setattr(translations, "_extend", no_rows)
    for seed in range(5):
        normed.clear()
        h = diagonal(s, np.random.default_rng(seed).standard_normal(6))
        coarseness_moduli(h, [2], ["exact"])
        assert sum(normed) == 0


def test_heuristic_coarseness_of_diagonal_h_tries_no_translation(monkeypatch):
    def no_trials(h, targets):
        raise AssertionError("a trial translation was normed")

    monkeypatch.setattr(translations, "_commutator_stacks", no_trials)
    s = space.path_graph(6)
    for seed in range(5):
        h = diagonal(s, np.random.default_rng(seed).standard_normal(6))
        exact, heuristic = coarseness_moduli(h, s.distance_set(), ["exact", "heuristic"])
        assert heuristic.tolist() == exact.tolist()


@pytest.mark.parametrize("kind", ["dense", "banded", "rank-one"])
def test_exact_coarseness_forms_each_kept_commutator_once(monkeypatch, kind):
    s = space.path_graph(6)
    kept = sum(
        translations._first_of_inverse_pair(f, translations._inverses(f)).sum()
        for f in translations._translation_targets(s, 2, allow_large=False)
    )
    formed = []
    commutators = translations._commutators

    def counted(h, targets, inverses):
        formed.append(len(targets))
        return commutators(h, targets, inverses)

    monkeypatch.setattr(translations, "_commutators", counted)
    coarseness_moduli(_generator(kind, s, seed=6), [2], ["exact"])
    assert sum(formed) == kept


def all_rows_modulus(h, r):
    """max ||[h, v_f]|| over every row f of the enumeration, with no bound,
    no inverse-pair filter and no shortcut."""
    commutators, inverses = translations._commutators, translations._inverses
    norms = [
        spectral_norms(commutators(h.entries, f, inverses(f)))
        for f in translations._translation_targets(h.space, r, allow_large=False)
    ]
    return float(np.concatenate(norms).max())


@st.composite
def coarseness_cases(draw):
    """A graph of n <= 6 points, a radius of its distance set, and a
    Hermitian h: a drawn_operator kind, or diagonal with repeated values,
    scaled by 1, 1e150 or 1e-150."""
    s = draw(graphs(6))
    r = draw(st.sampled_from(s.distance_set().tolist()))
    kind = draw(st.sampled_from(HERMITIAN_KINDS + ("repeated",)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150]))
    if kind == "repeated":
        values = np.random.default_rng(seed).integers(0, 3, s.n_points)
        h = diagonal(s, scale * values)
    else:
        h = OperatorMatrix(s, scale * drawn_operator(s, kind, seed).entries)
    return h, r, kind


@given(coarseness_cases())
@settings(max_examples=100, deadline=None)
def test_exact_coarseness_is_bracketed_and_matches_all_rows(case):
    h, r, kind = case
    d = h.entries.diagonal()
    exact = coarseness_moduli(h, [r], ["exact"])[0, 0]
    floor = float(np.abs(d[:, None] - d[None, :])[h.space.dist <= r].max())
    ceiling = floor + 2 * spectral_norm(h.entries - np.diag(d))
    if kind in ("diagonal", "repeated"):
        assert exact == floor
        # the heuristic closes the same bracket, bit for bit
        assert coarseness_moduli(h, [r], ["heuristic"])[0, 0] == exact
    assert floor <= exact <= ceiling * (1 + 1e-14)
    oracle = all_rows_modulus(h, r)
    assert abs(exact - oracle) <= 1e-14 * oracle


def kept_rows_modulus(h, r):
    """max ||[h, v_f]|| over the rows f the exact mode keeps, one of each
    inverse pair, with every row normed: no Gram bound skips one."""
    norms = [np.zeros(0)]
    for f in translations._translation_targets(h.space, r, allow_large=False):
        inverses = translations._inverses(f)
        keep = translations._first_of_inverse_pair(f, inverses)
        c = translations._commutators(h.entries, f[keep], inverses[keep])
        norms.append(spectral_norms(c))
    return float(np.concatenate(norms).max(initial=0.0))


@st.composite
def coupled_diagonal_cases(draw):
    """A path or complete graph of 2 to 5 points, a radius of its distance
    set, and h: an integer diagonal plus one or two Hermitian pairs of
    off-diagonal entries of modulus 1 to 3, scaled by 1, 1e150 or 1e-310.
    Its commutators tie Gram bounds with norms and norms with the floor."""
    build = draw(st.sampled_from([space.path_graph, space.complete_graph]))
    s = build(draw(st.integers(2, 5)))
    n = s.n_points
    m = np.diag(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    m = m.astype(complex)
    point = st.integers(0, n - 1)
    pairs = st.tuples(point, point).filter(lambda p: p[0] != p[1])
    for x, y in draw(st.lists(pairs, min_size=1, max_size=2)):
        z = draw(st.floats(1.0, 3.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        m[x, y], m[y, x] = z, np.conj(z)
    scale = draw(st.sampled_from([1.0, 1e150, 1e-310]))
    return OperatorMatrix(s, scale * m), draw(st.sampled_from(s.distance_set().tolist()))


# a row's norm, 5.000000000000001, just above the floor, 5.0: the skip must
# keep that row, whose bound may round to its norm
_TIED = np.diag([0.0, 0.0, -2.0, -3.0, 2.0]).astype(complex)
_TIED[0, 1] = -1.7244803397616406 + 0.2931159801246747j
_TIED[1, 0] = np.conj(_TIED[0, 1])


@given(coupled_diagonal_cases())
@example(case=(OperatorMatrix(space.path_graph(5), _TIED), 4.0))
@settings(max_examples=150, deadline=None)
def test_exact_coarseness_equals_the_max_over_kept_rows(case):
    h, r = case
    d = h.entries.diagonal()
    floor = float(np.abs(d[:, None] - d[None, :])[h.space.dist <= r].max())
    want = max(floor, kept_rows_modulus(h, r))
    assert coarseness_moduli(h, [r], ["exact"])[0, 0] == want


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_overflowing_diagonal_gap_is_refused_without_a_warning(mode):
    # under the suite's error::RuntimeWarning, a warning would fail the test
    s = space.path_graph(3)
    for coupling in (0.0, 1.0):
        h = OperatorMatrix(s, np.diag([1e308, -1e308, 0.0]) + coupling * (s.dist == 1))
        with pytest.raises(np.linalg.LinAlgError):
            coarseness_moduli(h, [1], [mode])


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_coarseness_of_non_hermitian_h_is_refused(mode):
    s = space.path_graph(3)
    h = OperatorMatrix(s, np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="not Hermitian"):
        coarseness_moduli(h, [1], [mode])
    d = diagonal(s, [0.0, 1.0, 2.0])
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="radius"):
            coarseness_moduli(d, [bad], [mode])


@given(
    small_spaces(max_n=6),
    st.sampled_from(("full", "banded", "rank-one")),
    st.integers(0, 2**32 - 1),
    st.integers(-1000, 1000),
)
@settings(max_examples=40, deadline=None)
def test_exact_moduli_from_one_enumeration_match_the_oracles(s, kind, seed, exponent):
    # every radius from one enumeration at the largest: each value is the
    # one-radius value, max(floor, kept rows) bit for bit, and within
    # rounding of the max over every row of its own radius's enumeration;
    # at every scale 2^exponent, where the Gram skip's margin and slack
    # must still keep the row of the largest norm
    h = drawn_operator(s, kind, seed)
    h = OperatorMatrix(s, math.ldexp(1.0, exponent) * h.entries)
    d = h.entries.diagonal()
    radii = s.distance_set()
    values = coarseness_moduli(h, radii[::-1], ["exact", "heuristic"])[:, ::-1]
    # the heuristic profile is the running max of the one-radius values
    single = [coarseness_moduli(h, [r], ["heuristic"])[0, 0] for r in radii]
    single = np.maximum.accumulate(single)
    for r, exact, heuristic, running in zip(radii, *values, single):
        floor = float(np.abs(d[:, None] - d[None, :])[s.dist <= r].max())
        assert exact == max(floor, kept_rows_modulus(h, r))
        oracle = all_rows_modulus(h, r)
        assert abs(exact - oracle) <= 1e-14 * oracle
        assert heuristic == running


def assert_heuristic_profile_rises_below_exact(h, radii):
    """The heuristic profile over radii does not fall as r grows, and stays
    at or below the exact one, within a factor 1 + 2^-40."""
    heuristic, exact = coarseness_moduli(h, radii, ["heuristic", "exact"])
    assert (np.diff(heuristic) >= 0).all()
    assert (heuristic <= exact * (1 + 2**-40)).all()


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_heuristic_profile_rises_with_r_and_stays_below_exact(s, kind, seed):
    # every r-translation is an R-translation for r <= R
    assert_heuristic_profile_rises_below_exact(drawn_operator(s, kind, seed), s.distance_set())


@pytest.mark.parametrize("s", [space.path_graph(10), space.cycle_graph(10)], ids=["path10", "cycle10"])
@pytest.mark.parametrize("kind", ["full", "banded"])
def test_heuristic_profile_at_ten_points_rises_below_exact(s, kind):
    # the largest space the exact mode takes without allow_large, at the
    # radii whose enumerations stay small
    assert_heuristic_profile_rises_below_exact(drawn_operator(s, kind, 2), [0.0, 1.0])


def test_coarseness_moduli_of_unsorted_repeated_radii():
    h = _generator("dense", space.path_graph(5), seed=5)
    modes = ["heuristic", "exact"]
    want = coarseness_moduli(h, [0, 1, 2], modes)
    got = coarseness_moduli(h, [2, 0, 2, 1], modes)
    assert np.array_equal(got, want[:, [2, 0, 2, 1]])
    assert coarseness_moduli(h, [], modes).shape == (2, 0)
