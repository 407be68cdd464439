import numpy as np
import pytest

from roelab import space
from roelab._linalg import spectral_norm
from roelab.averaging import (
    all_sign_vectors,
    brute_average,
    conjugate_by_sign,
    extract_finite_prop,
)
from roelab.errors import SizeGuardError
from roelab.operator import (
    OperatorMatrix,
    diagonal,
    expectation,
    propagation,
    truncate,
)


def random_hermitian(s, seed):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OperatorMatrix(s, 0.5 * (m + m.conj().T))


def test_sign_vector_validation():
    a = random_hermitian(space.path_graph(3), 0)
    for eps in ([1, 0, -1], [1, -1], [1, -1, 1, 1], [[1, -1, 1]], [1, np.nan, 1]):
        with pytest.raises(ValueError, match="signs"):
            conjugate_by_sign(a, np.array(eps))


def test_all_plus_is_identity_conjugation():
    s = space.path_graph(3)
    a = random_hermitian(s, 0)
    eps = np.ones(3, dtype=np.int8)
    assert np.array_equal(conjugate_by_sign(a, eps).entries, a.entries)


def test_diagonal_invariant_under_any_sign():
    s = space.path_graph(4)
    d = diagonal(s, [1.0, -2.0, 0.5, 3.0])
    for eps in all_sign_vectors(4):
        assert np.array_equal(conjugate_by_sign(d, eps).entries, d.entries)


def test_exchange_negated():
    s = space.path_graph(2)
    x = OperatorMatrix(s, np.array([[0, 1], [1, 0]], dtype=complex))
    eps = np.array([1, -1], dtype=np.int8)
    assert np.array_equal(conjugate_by_sign(x, eps).entries, -x.entries)


def test_brute_average_of_constant_family():
    s = space.path_graph(3)
    a = random_hermitian(s, 1)
    avg = brute_average(s, lambda eps: a)
    assert np.abs(avg.entries - a.entries).max() <= 1e-13


def test_brute_average_extracts_diagonal():
    for n in (2, 4, 6):
        s = space.path_graph(n)
        a = random_hermitian(s, n)
        avg = brute_average(s, lambda eps: conjugate_by_sign(a, eps))
        assert np.abs(avg.entries - expectation(a).entries).max() <= 1e-13


def test_average_preserves_propagation():
    s = space.path_graph(4)
    a = truncate(random_hermitian(s, 3), 1)
    avg = brute_average(s, lambda eps: conjugate_by_sign(a, eps))
    assert propagation(avg, 0.0) <= 1.0


def test_brute_size_guard():
    s = space.path_graph(15)
    with pytest.raises(SizeGuardError):
        brute_average(s, lambda eps: random_hermitian(s, 0))


def test_extraction_truncation_selector_collapses():
    # b is the band truncation, so the pipeline must collapse to
    # h' = truncate(h, r): truncation is entrywise, so it commutes with
    # sign conjugation and averaging; verified here against the closed form
    s = space.path_graph(6)
    h = random_hermitian(s, 4)
    for r in (0.0, 1.0, 2.0):
        rep = extract_finite_prop(h, r)
        closed = truncate(h, r)
        assert np.abs(rep.h_prime.entries - closed.entries).max() <= 1e-12
        assert rep.defect == pytest.approx(
            spectral_norm((h - closed).entries), abs=1e-10
        )
        assert rep.zero_prop_residual <= 1e-10
        assert propagation(rep.h_prime) <= r  # default tol eats float dust


def test_extraction_diagonal_input_exact():
    s = space.path_graph(5)
    h = diagonal(s, [1.0, 4.0, 9.0, 16.0, 25.0])
    rep = extract_finite_prop(h, 0.0)
    assert np.abs(rep.h_prime.entries - h.entries).max() <= 1e-13
    assert rep.defect <= 1e-13


def test_extraction_single_far_pair_defect():
    s = space.path_graph(5)
    m = np.zeros((5, 5), dtype=complex)
    m[0, 4] = m[4, 0] = 0.7
    h = OperatorMatrix(s, m)
    rep = extract_finite_prop(h, 2.0)
    assert rep.defect == pytest.approx(0.7, abs=1e-12)


def test_extraction_defect_below_worst_selector_error():
    s = space.path_graph(5)
    for seed in range(5):
        h = random_hermitian(s, seed)
        r = 1.0
        rep = extract_finite_prop(h, r)
        worst = 0.0
        for eps in all_sign_vectors(5):
            m_eps = conjugate_by_sign(h, eps) - h
            c_eps = m_eps - truncate(m_eps, r)
            worst = max(worst, spectral_norm(c_eps.entries))
        assert rep.defect <= worst + 1e-10


def full_group_extraction(h, r):
    """h' = w + h - b with w and b averaged over all 2^n sign vectors, one at a
    time, b_eps the band truncation of m_eps."""
    band = h.space.dist <= r
    w_sum = np.zeros((h.n, h.n), dtype=complex)
    b_sum = np.zeros((h.n, h.n), dtype=complex)
    for eps in all_sign_vectors(h.n):
        m = (conjugate_by_sign(h, eps) - h).entries
        w_sum += m
        b_sum += np.where(band, m, 0.0)
    scale = float(2**h.n)
    return w_sum / scale + h.entries - b_sum / scale


@pytest.mark.parametrize("n", range(4, 11))
def test_coset_average_matches_full_group_average(n):
    s = space.path_graph(n)
    h = random_hermitian(s, 40 + n)
    for r in (0.0, 1.0, 2.0):
        rep = extract_finite_prop(h, r)
        full = full_group_extraction(h, r)
        assert np.abs(rep.h_prime.entries - full).max() <= 1e-13
        assert rep.defect == pytest.approx(spectral_norm(h.entries - full), abs=1e-13)
        assert rep.zero_prop_residual <= 1e-10
