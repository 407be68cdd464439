import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def looped_union(blocks):
    """The distances of coarse_union(blocks) as it once built them, block
    pair by block pair: the bit-for-bit oracle."""
    offsets = [0.0]
    for k in range(1, len(blocks)):
        offsets.append(
            offsets[-1] + blocks[k - 1].diameter + blocks[k].diameter + (k + 1)
        )
    sizes = [b.n_points for b in blocks]
    n = sum(sizes)
    dist = np.zeros((n, n), dtype=np.float64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for i, bi in enumerate(blocks):
        si = starts[i]
        dist[si : si + sizes[i], si : si + sizes[i]] = bi.dist
        for j in range(i + 1, len(blocks)):
            sj = starts[j]
            gap = abs(offsets[j] - offsets[i])
            dist[si : si + sizes[i], sj : sj + sizes[j]] = gap
            dist[sj : sj + sizes[j], si : si + sizes[i]] = gap
    return dist


def _scaled_path(args):
    """The path metric on n points times a float, a metric of non-integer
    distances."""
    n, scale = args
    return space.FiniteSpace(scale * space.path_graph(n).dist)


# graphs of 1 to 5 points, float metrics, and unions of them, nested
SPACES = st.recursive(
    st.one_of(
        st.integers(1, 5).map(space.path_graph),
        st.integers(3, 5).map(space.cycle_graph),
        st.integers(1, 5).map(space.complete_graph),
        st.tuples(st.integers(1, 5), st.floats(0.01, 10.0)).map(_scaled_path),
    ),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(space.coarse_union),
    max_leaves=8,
)


@given(st.lists(SPACES, min_size=2, max_size=4))
@settings(deadline=None)
def test_coarse_union_is_the_block_pair_loop_bit_for_bit(blocks):
    got, want = space.coarse_union(blocks).dist, looped_union(blocks)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_space_copies_its_distances():
    d = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(np.float64)
    s = space.FiniteSpace(d)
    # the caller's array stays writeable, and a later write does not reach s
    assert d.flags.writeable and not s.dist.flags.writeable
    d[0, 1] = d[1, 0] = 5.0
    assert s.dist[0, 1] == 1.0


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


# the edge lists the generated graphs were once built from
EDGE_LISTS = {
    space.path_graph: lambda n: [(i, i + 1) for i in range(n - 1)],
    space.cycle_graph: lambda n: [(i, (i + 1) % n) for i in range(n)],
    space.complete_graph: lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
}


@pytest.mark.parametrize("build", EDGE_LISTS, ids=lambda b: b.__name__)
def test_closed_form_graphs_are_their_edge_lists_bit_for_bit(build):
    least = 3 if build is space.cycle_graph else 1
    for n in range(least, 65):
        want = space.from_edge_list(EDGE_LISTS[build](n), n).dist
        got = build(n).dist
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.int16]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        elements={"min_value": -3, "max_value": 3},
    )
)
def test_sorted_distinct_is_unique_for_finite_input(x):
    got, want = space.sorted_distinct(x), np.unique(x)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
