import numpy as np
import pytest

from roelab import space
from roelab.operator import OperatorMatrix, diagonal
from roelab.rigidity import flow_displacement_sweep, probes
from roelab.spectral import hermitian_eig
from roelab.translations import to_matrices


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_probe_identity():
    s = space.path_graph(5)
    [point_map], [delta], [displacement] = probes(s, np.eye(5)[None])
    assert np.array_equal(point_map, np.arange(5))
    assert delta == 1.0
    assert displacement == 0.0


def test_probe_diagonal_phases():
    s = space.path_graph(4)
    u = np.diag(np.exp(1j * np.arange(4)))
    [point_map], [delta], [displacement] = probes(s, u[None])
    assert np.array_equal(point_map, np.arange(4))
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert displacement == 0.0


def test_probe_permutation_recovers_map():
    # v_g for a full translation g is unitary; the probe reads g back off
    s = space.cycle_graph(5)
    expected = np.array([(x + 1) % 5 for x in range(5)])
    [point_map], [delta], [displacement] = probes(s, to_matrices(expected[None]))
    assert np.array_equal(point_map, expected)
    assert delta == 1.0
    assert displacement == 1.0


def test_probe_rejects_non_unitary():
    s = space.path_graph(3)
    with pytest.raises(ValueError, match="unitary"):
        probes(s, 2.0 * np.eye(3)[None])


def test_delta_floor_random_unitaries():
    # columns are unit vectors, so the largest entry is at least 1/sqrt(n)
    for n, seed in [(3, 0), (6, 1), (10, 2), (10, 3)]:
        s = space.complete_graph(n)
        [delta] = probes(s, haar_unitary(n, seed)[None])[1]
        assert delta >= 1.0 / np.sqrt(n) - 1e-12


def test_probe_tie_breaks_to_smallest_index():
    s = space.path_graph(2)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    [point_map], _, [displacement] = probes(s, had[None])
    assert np.array_equal(point_map, [0, 0])
    assert displacement == 1.0


def test_sweep_starts_at_identity():
    s = space.path_graph(4)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    point_maps, deltas, displacements = flow_displacement_sweep(
        h, np.linspace(0.0, 1.0, 5)
    )
    assert displacements[0] == 0.0
    assert deltas[0] == pytest.approx(1.0, abs=1e-12)
    assert point_maps.shape == (5, 4) and deltas.shape == displacements.shape == (5,)


def test_sweep_small_time_stays_near_diagonal():
    # e^{ith} = 1 + O(t), so tiny t keeps the argmax on the diagonal
    s = space.path_graph(5)
    h = diagonal(s, [1.0, 2.0, 3.0, 4.0, 5.0])
    _, deltas, displacements = flow_displacement_sweep(h, [0.0, 1e-3, 2e-3])
    assert (displacements == 0.0).all()
    assert (deltas >= 0.999).all()


def test_sweep_matches_per_time_probe():
    s = space.complete_graph(10)
    rng = np.random.default_rng(8)
    m = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    h = OperatorMatrix(s, 0.5 * (m + m.conj().T))
    times = np.linspace(0.0, 3.0, 13)
    es = hermitian_eig(h)
    sweep = flow_displacement_sweep(h, times)
    for i, t in enumerate(times):
        [point_map], [delta], [displacement] = probes(s, es.exp_many([t]))
        assert np.array_equal(sweep[0][i], point_map)
        assert sweep[1][i] == pytest.approx(delta, rel=1e-12)
        assert sweep[2][i] == displacement
