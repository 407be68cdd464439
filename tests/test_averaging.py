import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_locality import HERMITIAN_KINDS, drawn_operator, small_spaces
from test_operator import exact_propagation

from roelab import averaging, space
from roelab._linalg import ZERO_PROP_TOL, spectral_norm
from roelab.averaging import (
    BRUTE_GUARD,
    all_sign_vectors,
    brute_average,
    conjugate_by_sign,
    extract_finite_prop,
)
from roelab.errors import NumericCheckError, SizeGuardError
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
    assert exact_propagation(avg) <= 1.0


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
        h_prime, defect, zero_prop_residual = extract_finite_prop(h, r)
        closed = truncate(h, r)
        assert np.abs(h_prime.entries - closed.entries).max() <= 1e-12
        assert defect == pytest.approx(
            spectral_norm(h.entries - closed.entries), abs=1e-10
        )
        assert zero_prop_residual <= 1e-10
        assert propagation(h_prime) <= r  # default tol eats float dust


def test_extraction_diagonal_input_exact():
    s = space.path_graph(5)
    h = diagonal(s, [1.0, 4.0, 9.0, 16.0, 25.0])
    h_prime, defect, _ = extract_finite_prop(h, 0.0)
    assert np.abs(h_prime.entries - h.entries).max() <= 1e-13
    assert defect <= 1e-13


def test_extraction_single_far_pair_defect():
    s = space.path_graph(5)
    m = np.zeros((5, 5), dtype=complex)
    m[0, 4] = m[4, 0] = 0.7
    h = OperatorMatrix(s, m)
    _, defect, _ = extract_finite_prop(h, 2.0)
    assert defect == pytest.approx(0.7, abs=1e-12)


def test_extraction_defect_below_worst_selector_error():
    s = space.path_graph(5)
    for seed in range(5):
        h = random_hermitian(s, seed)
        r = 1.0
        _, defect, _ = extract_finite_prop(h, r)
        worst = 0.0
        for eps in all_sign_vectors(5):
            m_eps = OperatorMatrix(s, conjugate_by_sign(h, eps).entries - h.entries)
            c_eps = m_eps.entries - truncate(m_eps, r).entries
            worst = max(worst, spectral_norm(c_eps))
        assert defect <= worst + 1e-10


def full_group_extraction(h, r):
    """h' = w + h - b with w and b averaged over all 2^n sign vectors, one at a
    time, b_eps the band truncation of m_eps."""
    band = h.space.dist <= r
    w_sum = np.zeros((h.n, h.n), dtype=complex)
    b_sum = np.zeros((h.n, h.n), dtype=complex)
    for eps in all_sign_vectors(h.n):
        m = conjugate_by_sign(h, eps).entries - h.entries
        w_sum += m
        b_sum += np.where(band, m, 0.0)
    scale = float(2**h.n)
    return w_sum / scale + h.entries - b_sum / scale


@pytest.mark.parametrize("n", range(4, 11))
def test_coset_average_matches_full_group_average(n):
    s = space.path_graph(n)
    h = random_hermitian(s, 40 + n)
    for r in (0.0, 1.0, 2.0):
        h_prime, defect, zero_prop_residual = extract_finite_prop(h, r)
        full = full_group_extraction(h, r)
        assert np.abs(h_prime.entries - full).max() <= 1e-13
        assert defect == pytest.approx(spectral_norm(h.entries - full), abs=1e-13)
        assert zero_prop_residual <= 1e-10


@pytest.mark.parametrize("n", range(1, 11))
def test_flip_counts_match_per_vector_count(n):
    # the closed form rests on this count: over the 2^(n-1) coset
    # representatives eps (eps_0 = -1, the first half of the canonical
    # order), each pair x != y has eps_x != eps_y for exactly 2^(n-2) of them
    half = 1 << (n - 1)
    first_half = np.array(list(all_sign_vectors(n))[:half])
    assert (first_half[:, 0] == -1).all()
    counts = (first_half[:, :, None] != first_half[:, None, :]).sum(axis=0)
    assert np.array_equal(counts, (half // 2) * (1 - np.eye(n)))  # n = 1: C = 0
    # the average by these counts, w = (-2 C / 2^(n-1)) o h, gives the
    # closed form's h' bit for bit
    s = space.path_graph(n)
    h = random_hermitian(s, n)
    w = (-2.0 / half) * counts * h.entries
    for r in s.distance_set():
        counted = h.entries + np.where(s.dist > r, w, complex(-0.0, -0.0))
        h_prime, _, _ = extract_finite_prop(h, r)
        assert h_prime.entries.tobytes() == counted.tobytes()


def test_extraction_past_the_brute_guard_is_the_truncation(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the extraction enumerated the sign group")

    monkeypatch.setattr(averaging, "all_sign_vectors", must_not_run)
    for n in (BRUTE_GUARD + 1, 128):
        s = space.path_graph(n)
        h = truncate(random_hermitian(s, n), 3.0)
        for r in (0.0, 2.0, 3.0):
            h_prime, defect, zero_prop_residual = extract_finite_prop(h, r)
            assert h_prime.entries.tobytes() == truncate(h, r).entries.tobytes()
            assert defect == spectral_norm(h.entries - truncate(h, r).entries)
            assert zero_prop_residual == 0.0


def test_zero_prop_check_scales_with_h(monkeypatch):
    s = space.path_graph(6)
    small = OperatorMatrix(s, 1e-12 * random_hermitian(s, 6).entries)
    zero = OperatorMatrix(s, np.zeros((6, 6)))
    assert extract_finite_prop(small, 1.0)[2] == 0.0
    # the bound is 0 for h = 0, and the residual is exactly 0.0 there
    assert extract_finite_prop(zero, 1.0)[2] == 0.0

    def wrong_expectation(a):
        return OperatorMatrix(a.space, np.zeros((a.n, a.n)))

    # the residual is then ||diag h||, about 1e-12: below the absolute 1e-10,
    # above ZERO_PROP_TOL max|h_xy|
    monkeypatch.setattr(averaging, "expectation", wrong_expectation)
    with pytest.raises(NumericCheckError, match=r"E\(h\)"):
        extract_finite_prop(small, 1.0)


@given(
    small_spaces(),
    st.sampled_from(HERMITIAN_KINDS),
    st.sampled_from((1.0, 1e150, 1e-150)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_brute_average_is_the_expectation(s, kind, scale, seed):
    h = OperatorMatrix(s, scale * drawn_operator(s, kind, seed).entries)
    avg = brute_average(s, lambda eps: conjugate_by_sign(h, eps))
    # criterion 4's tolerance, relative to the scale of h
    deviation = np.abs(avg.entries - expectation(h).entries).max()
    assert deviation <= 1e-13 * np.abs(h.entries).max()


@given(
    small_spaces(),
    st.sampled_from(("full", "banded", "diagonal")),
    st.sampled_from((1.0, 1e150, 1e-150)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_extraction_properties_at_every_radius(s, kind, scale, seed):
    h = drawn_operator(s, kind, seed)
    h = OperatorMatrix(s, scale * h.entries)
    for r in s.distance_set():
        h_prime, defect, zero_prop_residual = extract_finite_prop(h, r)
        # the closed form makes w = -h off the diagonal, so h' is the
        # band truncation of h bit for bit and w + h = E(h) exactly
        assert h_prime.entries.tobytes() == truncate(h, r).entries.tobytes()
        assert zero_prop_residual == 0.0
        assert defect == spectral_norm(h.entries - truncate(h, r).entries)
        assert np.array_equal(h_prime.entries, h_prime.entries.conj().T)
        assert propagation(h_prime) <= r
        if r == 0:
            # w has a zero diagonal, so truncate(w, 0) = 0 and h' = w + h
            deviation = spectral_norm(h_prime.entries - expectation(h).entries)
            assert deviation <= ZERO_PROP_TOL
