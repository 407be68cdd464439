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
    load_matrix,
    propagation,
    save_matrix,
    truncate,
)


def random_operator(s, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        m = 0.5 * (m + m.conj().T)
    return OperatorMatrix(s, m)


def exact_propagation(a):
    """Largest d(x, y) over the nonzero entries of a: propagation with no
    cut-off, for a matrix whose zeros are exact."""
    return float(a.space.dist[a.entries != 0].max(initial=0.0))


def test_propagation_diagonal_zero():
    s = space.path_graph(4)
    assert propagation(diagonal(s, [1, 2, 3, 4])) == 0.0


def test_propagation_all_ones_is_diameter():
    s = space.path_graph(3)
    a = OperatorMatrix(s, np.ones((3, 3), dtype=complex))
    assert propagation(a) == s.diameter == 2.0


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
        assert exact_propagation(t) <= r
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
        spectral_norm(a.entries - truncate(a, r).entries) for r in s.distance_set()
    ]
    assert all(x >= y - 1e-12 for x, y in zip(residuals, residuals[1:]))
    assert residuals[-1] == 0.0


def test_propagation_subadditive_on_products():
    s = space.cycle_graph(6)
    a = truncate(random_operator(s, 2), 1)
    b = truncate(random_operator(s, 3), 2)
    ab = OperatorMatrix(s, a.entries @ b.entries)
    assert exact_propagation(ab) <= exact_propagation(a) + exact_propagation(b)


def test_norm_identity():
    s = space.path_graph(3)
    assert spectral_norm(np.eye(s.n_points)) == pytest.approx(1.0, abs=1e-12)


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


def test_matrix_io_roundtrip(tmp_path):
    s = space.path_graph(5)
    a = random_operator(s, 42)
    path = tmp_path / "a.txt"
    save_matrix(a, path)
    again = load_matrix(path, s)
    assert np.array_equal(a.entries, again.entries)


def per_entry_save(a, path):
    """The writer as one write per nonzero entry, scanned in row-major order."""
    with open(path, "w") as fh:
        fh.write(f"n {a.n}\n")
        for x in range(a.n):
            for y in range(a.n):
                v = a.entries[x, y]
                if v != 0:
                    fh.write(f"{x} {y} {float(v.real)!r} {float(v.imag)!r}\n")


def test_matrix_writer_matches_per_entry_oracle_and_roundtrips(tmp_path):
    s = space.path_graph(6)
    parts = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300]
    rng = np.random.default_rng(7)
    m = rng.choice(parts + [1.0 / 3.0, -7.0], (6, 6)) * (1 + 0j)
    m += 1j * rng.choice(parts, (6, 6))
    m[0, :] = complex(-0.0, -0.0)  # a row of zeros, none written
    m[1, 0], m[1, 1] = complex(-0.0, 2.5), complex(1.5, -0.0)
    m[2, 0], m[2, 1] = 3j, -4e300j  # purely imaginary
    m[3, 3] = complex(5e-324, -5e-324)
    a = OperatorMatrix(s, m)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    save_matrix(a, got)
    per_entry_save(a, want)
    assert got.read_bytes() == want.read_bytes()
    assert b"1 0 -0.0 2.5\n1 1 1.5 -0.0\n" in got.read_bytes()
    # every written entry comes back bit for bit, every zero one as +0
    again = load_matrix(got, s)
    assert again.entries.tobytes() == np.where(m == 0, 0j, m).tobytes()
