import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roelab import space
from roelab._linalg import spectral_norm
from roelab.operator import (
    OperatorMatrix,
    diagonal,
    expectation,
    higson_commutator_profile,
    identity,
    load_matrix,
    matrix_unit,
    offdiag_sup,
    propagation,
    save_matrix,
    schur_bound,
    truncate,
)


def random_operator(s, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(s, m)


def test_propagation_diagonal_zero():
    s = space.path_graph(4)
    assert propagation(diagonal(s, [1, 2, 3, 4])) == 0.0


def test_propagation_all_ones_is_diameter():
    s = space.path_graph(3)
    a = OperatorMatrix(s, np.ones((3, 3), dtype=complex))
    assert propagation(a) == s.diameter == 2.0
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            propagation(a, bad)


def test_nan_rejected():
    s = space.path_graph(2)
    with pytest.raises(ValueError, match="finite"):
        OperatorMatrix(s, np.array([[np.nan, 0], [0, 0]], dtype=complex))


def test_expectation_idempotent_and_exchange():
    s = space.path_graph(2)
    exchange = OperatorMatrix(s, np.array([[0, 1], [1, 0]], dtype=complex))
    assert not expectation(exchange).entries.any()
    d = diagonal(s, [1.0, 2.0])
    assert np.array_equal(expectation(d).entries, d.entries)
    a = random_operator(s, 1)
    assert np.array_equal(
        expectation(expectation(a)).entries, expectation(a).entries
    )


def test_truncate_band_extraction():
    s = space.path_graph(5)
    # tag each entry by its distance so band extraction is checkable exactly
    a = OperatorMatrix(s, s.dist.astype(complex) + np.eye(5))
    for r in range(5):
        t = truncate(a, r)
        assert propagation(t, 0.0) <= r
        expected = np.where(s.dist <= r, a.entries, 0)
        assert np.array_equal(t.entries, expected)
    assert np.array_equal(truncate(a, s.diameter).entries, a.entries)
    assert np.array_equal(truncate(a, 0).entries, expectation(a).entries)
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="radius"):
            truncate(a, bad)


def test_truncate_composition_is_min():
    s = space.path_graph(6)
    a = random_operator(s, 5)
    for r1, r2 in [(1, 3), (4, 2), (2, 2)]:
        lhs = truncate(truncate(a, r1), r2).entries
        rhs = truncate(a, min(r1, r2)).entries
        assert np.array_equal(lhs, rhs)


def test_truncation_residual_nonincreasing():
    s = space.path_graph(6)
    a = random_operator(s, 9)
    residuals = [
        spectral_norm((a - truncate(a, r)).entries) for r in s.distance_set()
    ]
    assert all(x >= y - 1e-12 for x, y in zip(residuals, residuals[1:]))
    assert residuals[-1] == 0.0


def test_propagation_subadditive_on_products():
    s = space.cycle_graph(6)
    a = truncate(random_operator(s, 2), 1)
    b = truncate(random_operator(s, 3), 2)
    assert propagation(a @ b, 0.0) <= propagation(a, 0.0) + propagation(b, 0.0)


def test_norm_identity():
    s = space.path_graph(3)
    assert spectral_norm(identity(s).entries) == pytest.approx(1.0, abs=1e-12)


def test_norm_rank_one_projection():
    s = space.complete_graph(4)
    a = OperatorMatrix(s, np.ones((4, 4), dtype=complex) / 4)
    assert spectral_norm(a.entries) == pytest.approx(1.0, abs=1e-12)


def test_norm_halfsplit_block_matrix():
    # (1/|X_n|) [[0, -1^T],[1, 0]] with a half split has norm 1/2
    for size in (2, 4, 6):
        half = size // 2
        m = np.zeros((size, size), dtype=complex)
        m[half:, :half] = 1.0 / size
        m[:half, half:] = -1.0 / size
        assert spectral_norm(m) == pytest.approx(0.5, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_norm_matches_numpy_oracle(seed):
    s = space.path_graph(6)
    a = random_operator(s, seed)
    assert spectral_norm(a.entries) == pytest.approx(
        np.linalg.norm(a.entries, 2), rel=1e-10
    )


def test_schur_bound_diagonal_exact():
    s = space.path_graph(4)
    a = diagonal(s, [1.0, -3.0, 2.0, 0.5])
    assert schur_bound(a, 0) == pytest.approx(3.0)
    assert schur_bound(a, 0) == pytest.approx(spectral_norm(a.entries), abs=1e-12)


def test_schur_bound_requires_band():
    s = space.path_graph(4)
    a = OperatorMatrix(s, np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="propagation"):
        schur_bound(a, 1)
    # no bound from a radius that is not one: ||diag(1, 2, 3, 4)|| = 4
    d = diagonal(s, [1.0, 2.0, 3.0, 4.0])
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError):
            schur_bound(d, bad)


def test_schur_bound_dominates_norm_seeded():
    s = space.path_graph(8)
    for seed in range(100):
        a = truncate(random_operator(s, seed), 2)
        assert schur_bound(a, 2) >= spectral_norm(a.entries) - 1e-12


def test_offdiag_sup():
    s = space.path_graph(3)
    assert offdiag_sup(diagonal(s, [1, 2, 3])) == 0.0
    m = np.zeros((3, 3), dtype=complex)
    m[0, 2] = 3j
    assert offdiag_sup(OperatorMatrix(s, m)) == 3.0
    one = space.from_edge_list([], 1)
    assert offdiag_sup(OperatorMatrix(one, np.array([[5.0]]))) == 0.0


def test_higson_constant_and_diagonal_commute():
    s = space.path_graph(4)
    a = random_operator(s, 4)
    norm, _ = higson_commutator_profile(a, [2.0] * 4)
    assert norm == pytest.approx(0.0, abs=1e-12)
    d = diagonal(s, [1, 2, 3, 4])
    norm, _ = higson_commutator_profile(d, [0, 1, 4, 9])
    assert norm == 0.0


def test_higson_exchange_explicit():
    s = space.path_graph(2)
    exchange = OperatorMatrix(s, np.array([[0, 1], [1, 0]], dtype=complex))
    norm, _ = higson_commutator_profile(exchange, [0.0, 1.0])
    # [a, M_f] = [[0, 1], [-1, 0]], a rotation, norm 1
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_higson_entrywise_identity_random():
    s = space.cycle_graph(7)
    rng = np.random.default_rng(0)
    for seed in range(10):
        a = random_operator(s, seed)
        f = rng.standard_normal(7)
        _, residual = higson_commutator_profile(a, f)
        assert residual <= 1e-12


def test_matrix_io_roundtrip(tmp_path):
    s = space.path_graph(5)
    a = random_operator(s, 42)
    path = tmp_path / "a.txt"
    save_matrix(a, path)
    again = load_matrix(path, s)
    assert np.array_equal(a.entries, again.entries)


def test_rank_one_matrix_unit():
    s = space.path_graph(4)
    e = matrix_unit(s, 3, 1)
    assert e.entries[3, 1] == 1.0
    assert np.count_nonzero(e.entries) == 1
