import tracemalloc

import numpy as np
import pytest

from roelab import space
from roelab._linalg import spectral_norm, spectral_norms
from roelab.errors import SizeGuardError
from roelab.locality import (
    eps_r_certificate,
    equi_approx_profile,
    ql_value,
)
from roelab.operator import (
    OperatorMatrix,
    diagonal,
    matrix_unit,
    truncate,
)
from roelab.translations import identity_on, to_matrix


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
    a = matrix_unit(s, 3, 0)  # entry at distance 3
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
                (a - truncate(a, r)).entries
            ) + 1e-10


def test_lower_below_exact():
    s = space.cycle_graph(6)
    for seed in range(5):
        a = random_operator(s, seed)
        for r in s.distance_set():
            assert ql_value(a, r, "lower") <= ql_value(a, r, "exact") + 1e-12


def test_exact_size_guard():
    s = space.path_graph(17)
    with pytest.raises(SizeGuardError):
        ql_value(random_operator(s, 0), 1, "exact")


def test_profile_nonincreasing():
    s = space.path_graph(6)
    a = random_operator(s, 3)
    values = [ql_value(a, r, "exact") for r in s.distance_set()]
    assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_certificate_diagonal():
    s = space.path_graph(5)
    assert eps_r_certificate(diagonal(s, [1, 2, 3, 4, 5]), 0.1) == 0.0


def test_certificate_single_offband_entry():
    s = space.path_graph(5)
    m = np.zeros((5, 5), dtype=complex)
    m[0, 1] = m[1, 0] = 2.0  # band 1
    m[0, 4] = 0.5  # far entry
    a = OperatorMatrix(s, m)
    assert eps_r_certificate(a, 0.6) == 1.0
    assert eps_r_certificate(a, 0.4) == 4.0


def test_certificate_large_eps():
    s = space.path_graph(4)
    a = random_operator(s, 8)
    eps = spectral_norm((a - truncate(a, 0)).entries) + 0.01
    assert eps_r_certificate(a, eps) == 0.0


def test_equi_profile_projections_zero():
    s = space.path_graph(4)
    family = [
        to_matrix(identity_on(s, [i for i in range(4) if bits >> i & 1]))
        for bits in range(16)
    ]
    assert equi_approx_profile(family, 0.5) == 0.0


def test_equi_profile_translations_bounded_by_displacement():
    s = space.path_graph(5)
    from roelab.translations import enumerate_r_translations

    family = [to_matrix(f) for f in enumerate_r_translations(s, 2)]
    assert equi_approx_profile(family, 0.5) <= 2.0


def test_equi_profile_empty_family():
    with pytest.raises(ValueError):
        equi_approx_profile([], 0.5)


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
