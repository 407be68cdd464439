import numpy as np
import pytest

from roelab import space
from roelab._linalg import hermitian_eig, spectral_norm
from roelab.flows import generator_check
from roelab.operator import OperatorMatrix, diagonal, propagation


def random_hermitian(s, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OperatorMatrix(s, scale * 0.5 * (m + m.conj().T))


def test_diagonal_eig():
    s = space.path_graph(4)
    es = hermitian_eig(diagonal(s, [3.0, 1.0, 2.0, 0.0]))
    assert np.allclose(es.eigenvalues, [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(np.abs(es.vectors), np.abs(es.vectors).round())


def test_exchange_spectrum():
    s = space.path_graph(2)
    x = OperatorMatrix(s, np.array([[0, 1], [1, 0]], dtype=complex))
    es = hermitian_eig(x)
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])


def test_reconstruction_residual():
    s = space.path_graph(8)
    a = random_hermitian(s, 0)
    es = hermitian_eig(a)
    recon = (es.vectors * es.eigenvalues[None, :]) @ es.vectors.conj().T
    norm_a = spectral_norm(a.entries)
    assert np.linalg.norm(a.entries - recon, 2) <= 1e-10 * (1 + norm_a)
    assert np.linalg.norm(
        es.vectors.conj().T @ es.vectors - np.eye(8), 2
    ) <= 1e-10


def test_non_hermitian_rejected():
    s = space.path_graph(3)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(OperatorMatrix(s, m))


def test_exp_at_zero_is_identity():
    s = space.path_graph(4)
    [u] = hermitian_eig(random_hermitian(s, 1)).exp_many([0.0])
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_exp_diagonal_closed_form():
    s = space.path_graph(3)
    thetas = np.array([0.3, -1.2, 2.5])
    [u] = hermitian_eig(diagonal(s, thetas)).exp_many([1.0])
    assert np.allclose(u, np.diag(np.exp(1j * thetas)), atol=1e-12)


def test_exp_rank_one_weighted_projection():
    # h = w p for the averaging projection p: e^{ith} = id + (e^{itw} - 1) p
    s = space.complete_graph(4)
    p = np.ones((4, 4), dtype=complex) / 4
    w, t = 2.7, 0.9
    [u] = hermitian_eig(OperatorMatrix(s, w * p)).exp_many([t])
    expected = np.eye(4) + (np.exp(1j * t * w) - 1.0) * p
    assert np.allclose(u, expected, atol=1e-10)


def test_exp_adjoint_is_negative_time():
    s = space.path_graph(5)
    h = random_hermitian(s, 2)
    u, v = hermitian_eig(h).exp_many([0.7, -0.7])
    assert np.linalg.norm(u.conj().T - v, 2) <= 1e-10


def test_exp_group_law_and_unitarity():
    s = space.path_graph(6)
    h = random_hermitian(s, 3)
    es = hermitian_eig(h)
    for t, st_ in [(0.3, 0.4), (-1.1, 0.6)]:
        u, v, lhs = es.exp_many([t, st_, t + st_])
        assert np.linalg.norm(lhs - u @ v, 2) <= 1e-9
        assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-10


def test_exp_diagonal_has_propagation_zero():
    s = space.path_graph(5)
    h = diagonal(s, [0.1, 0.9, 2.2, -0.5, 1.4])
    assert propagation(OperatorMatrix(s, hermitian_eig(h).exp_many([0.8])[0])) == 0.0


def test_exp_eigenvalues_on_unit_circle():
    s = space.path_graph(5)
    [u] = hermitian_eig(random_hermitian(s, 4)).exp_many([1.3])
    assert np.allclose(np.abs(np.linalg.eigvals(u)), 1.0, atol=1e-10)


def test_expm1_over_t_many_is_exp_many_minus_one_over_t():
    s = space.path_graph(5)
    es = hermitian_eig(random_hermitian(s, 6))
    times = np.array([-3.0, -0.5, 1e-6, 0.5, 3.0])
    moved = times[:, None, None] * es.expm1_over_t_many(times) + np.eye(5)
    assert np.linalg.norm(moved - es.exp_many(times), 2, axis=(1, 2)).max() <= 1e-14


@pytest.mark.parametrize("t", [1e-12, -1e-12, 1e-300, 5e-324, 0.0])
def test_expm1_over_t_many_is_accurate_at_small_and_subnormal_t(t):
    # (e^{ith} - 1)/t = ih + O(t ||h||^2), and ih at t = 0
    s = space.path_graph(5)
    h = random_hermitian(s, 6)
    norm_h = spectral_norm(h.entries)
    [q] = hermitian_eig(h).expm1_over_t_many([t])
    bound = abs(t) * norm_h**2 + 1e-14 * norm_h
    assert spectral_norm(q - 1j * h.entries) <= bound
    if abs(t) == 1e-12:
        # the same quotient from exp_many cancels
        [u] = hermitian_eig(h).exp_many([t])
        assert spectral_norm((u - np.eye(5)) / t - 1j * h.entries) > 1e3 * bound


def test_generator_check_zero():
    s = space.path_graph(3)
    h = diagonal(s, [0.0, 0.0, 0.0])
    assert generator_check(h, 1e-4) == pytest.approx(0.0, abs=1e-14)


def test_generator_check_diagonal_bound():
    s = space.path_graph(4)
    h = diagonal(s, [1.0, -2.0, 0.5, 3.0])
    res = generator_check(h, 1e-4)
    norm_h = spectral_norm(h.entries)
    assert res <= 1e-6 * (1 + norm_h**3)


def test_generator_check_second_order():
    s = space.path_graph(6)
    h = random_hermitian(s, 5)
    r1 = generator_check(h, 1e-2)
    r2 = generator_check(h, 5e-3)
    assert 3.5 <= r1 / r2 <= 4.5


@pytest.mark.parametrize("seed", range(5))
def test_generator_check_second_order_at_small_steps(seed):
    # the residual is ||h||^3 delta^2 / 6 up to rounding, 7e-13 to 3e-11 here;
    # (u_delta - u_{-delta}) / 2 delta cancelled to about 1e-10, which grew
    # as delta fell, and the ratios read 0.4 to 0.7
    h = random_hermitian(space.path_graph(8), seed)
    r1, r2, r3 = (generator_check(h, d) for d in (1e-6, 5e-7, 2.5e-7))
    assert 3.5 <= r1 / r2 <= 4.5
    assert 3.5 <= r2 / r3 <= 4.5


@pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan, np.inf, -np.inf])
def test_generator_check_refuses_a_step_that_is_not_positive_and_finite(delta):
    h = diagonal(space.path_graph(3), [1.0, -2.0, 0.5])
    with pytest.raises(ValueError, match="step must be positive and finite"):
        generator_check(h, delta)
