import itertools
import tracemalloc

import numpy as np
import pytest

from roelab import space
from roelab.errors import SizeGuardError


def test_path_two_hops():
    s = space.from_edge_list([(0, 1), (1, 2)], 3)
    assert s.dist[0, 2] == 2


def test_single_point():
    s = space.from_edge_list([], 1)
    assert s.dist.shape == (1, 1)
    assert s.dist[0, 0] == 0


def test_four_cycle():
    s = space.cycle_graph(4)
    assert s.dist[0, 2] == 2
    assert s.dist[0, 1] == 1


def test_disconnected_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        space.from_edge_list([(0, 1)], 4)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        space.from_edge_list([(0, 0), (0, 1)], 2)


def test_coarse_union_two_singletons():
    # evaluating the offset recursion by hand:
    # c_1 = 0, c_2 = c_1 + diam_1 + diam_2 + 2 = 2
    pt = space.from_edge_list([], 1)
    u = space.coarse_union([pt, pt])
    assert u.dist[0, 1] == 2.0


def test_coarse_union_offsets_match_recursion():
    blocks = [space.path_graph(3), space.cycle_graph(4), space.from_edge_list([], 1)]
    u = space.coarse_union(blocks)
    # independent evaluation of the recursion
    diams = [b.diameter for b in blocks]
    c = [0.0]
    for k in range(1, 3):
        c.append(c[-1] + diams[k - 1] + diams[k] + (k + 1))
    starts = [0, 3, 7]
    for m in range(3):
        for n in range(3):
            if m != n:
                assert u.dist[starts[m], starts[n]] == abs(c[m] - c[n])


def test_coarse_union_single_block_identity():
    s = space.path_graph(4)
    assert space.coarse_union([s]) is s


def test_coarse_union_triangle_exhaustive():
    k2 = space.complete_graph(2)
    u = space.coarse_union([k2, k2, k2])
    n = u.n_points
    for x, y, z in itertools.product(range(n), repeat=3):
        assert u.dist[x, z] <= u.dist[x, y] + u.dist[y, z] + 1e-12


def test_coarse_union_empty_rejected():
    with pytest.raises(ValueError):
        space.coarse_union([])


def test_coarse_union_separation_grows():
    blocks = [space.path_graph(k) for k in (2, 3, 4, 5)]
    u = space.coarse_union(blocks)
    sizes = [b.n_points for b in blocks]
    starts = np.concatenate([[0], np.cumsum(sizes)])

    def min_dist(m, n):
        bm = range(starts[m], starts[m + 1])
        bn = range(starts[n], starts[n + 1])
        return min(u.dist[x, y] for x in bm for y in bn)

    for m in range(4):
        for n in range(m + 1, 4):
            for k in range(n + 1, 4):
                assert min_dist(m, k) >= min_dist(n, k)


def test_edge_list_roundtrip(tmp_path):
    s = space.cycle_graph(6)
    path = tmp_path / "cycle.txt"
    path.write_text("n 6\n" + "".join(f"{u} {(u + 1) % 6}\n" for u in range(6)))
    again = space.load_edge_list(path)
    assert np.array_equal(s.dist, again.dist)


@pytest.mark.parametrize(
    "build",
    [
        lambda: space.path_graph(9),
        lambda: space.cycle_graph(9),
        lambda: space.complete_graph(9),
        lambda: space.from_edge_list([], 9),
        lambda: space.coarse_union([space.path_graph(5), space.path_graph(4)]),
    ],
    ids=["path", "cycle", "complete", "edge-list", "coarse-union"],
)
def test_points_guard_at_every_builder(monkeypatch, build):
    monkeypatch.setattr(space, "MAX_POINTS", 8)
    with pytest.raises(SizeGuardError, match="'points'"):
        build()
    # the guard refuses only what is over it
    assert space.path_graph(8).n_points == 8


def test_triangle_check_temporaries_are_chunked():
    n = 300
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    tracemalloc.start()
    try:
        space.FiniteSpace(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk: 2^22 floats and 2^22 bools; unchunked it is 9 n^3 bytes
    assert peak < 48 * 2**20


@pytest.mark.parametrize("row", [0, 2, 4])
def test_triangle_violation_found_in_every_chunk(monkeypatch, row):
    n = 7
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    # d(row, row + 1) = 9 > 3 = d(row, k) + d(k, row + 1) for k two steps away;
    # only rows row and row + 1 see it, and they share a chunk of two rows
    dist[row, row + 1] = dist[row + 1, row] = 9.0
    monkeypatch.setattr(space, "_TRIANGLE_CHUNK", 2 * n * n)
    with pytest.raises(ValueError, match="triangle inequality"):
        space.FiniteSpace(dist)
