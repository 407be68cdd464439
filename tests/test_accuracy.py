"""Accuracy against an extended-precision reference. Each column is recomputed
at 40 digits with mpmath from the same float64 inputs, by a dense formula
that shares no step with the library's, and the float64 value must lie
within c n eps of it, relative to the column's scale. A change that moves a
column at rounding level is so judged against the true value, not against
the bits of an earlier version.

expander-preflow: `measured` = max_n ||u P u* - P|| and `lhs` =
max_n ||u e^{-itk} - 1||, with u = 1 + (e^{itw(n)} - 1) p_n on block n and
P = p_{A_n}, each normed on the block's s x s square by an SVD. Their scale
is the reference value itself, and n is the largest block size.

flow-profile: `modulus` = ||sigma_t(a) - a|| and `derivative_residual` =
||(sigma_t(a) - a)/t - i[h, a]||, with sigma_t(a) = e^{ith} a e^{-ith}
formed densely from mp.eighe of h and normed by an SVD. Their scales are
||a|| and ||[h, a]||, and n is the number of points.

ql-profile: the value of each mode, max ||p_A a p_B|| over every nonempty A
(exact) or every metric ball A (lower) with B = far(A) nonempty, each corner
normed by mp.svd_c. Its scale is ||a||, and n is the number of points.

coarse-check: the exact value, the max of the floor max |h_yy - h_xx| over
d(x, y) <= r and of ||[h, v_f]|| over every partial translation f with
displacement <= r, each commutator formed densely and normed by mp.svd_c.
Its scale is ||h|| (||[h, v_f]|| <= 2 ||h||), and n is the number of points."""

import itertools

import numpy as np
import pytest
from mpmath import mp
from test_expander import drawn_k
from test_locality import drawn_operator

from test_operator import random_operator
from test_translations import brute_partial_injections

from roelab import expander, locality, space
from roelab.expander import block_family, preflow_profiles
from roelab.flows import flow_profile
from roelab.operator import diagonal, truncate
from roelab.translations import coarseness_moduli

DIGITS = 40
EPS = np.finfo(float).eps


def _norm(m):
    return max(mp.svd_c(m, compute_uv=False))


def reference_preflow(fam, k, times):
    """measured and lhs of preflow_profiles at DIGITS digits."""
    measured, lhs = [], []
    with mp.workdps(DIGITS):
        for t in map(mp.mpf, times):
            moved, w_minus_one = [], []
            offsets = itertools.accumulate(fam.sizes, initial=0)
            for size, w, offset in zip(fam.sizes, fam.weights, offsets):
                c = mp.expj(t * mp.mpf(w)) - 1
                u = mp.eye(size) + mp.ones(size, size) * (c / size)
                p = mp.diag(list(expander._split_mask(size)))
                moved.append(_norm(u * p * u.H - p))
                phases = [mp.expj(-t * mp.mpf(x)) for x in k[offset : offset + size]]
                w_minus_one.append(_norm(u * mp.diag(phases) - mp.eye(size)))
            measured.append(max(moved))
            lhs.append(max(w_minus_one))
    return measured, lhs


def preflow_cases():
    """Small families (blocks of at most 8 points, at most 9 times): the
    cold-cli workload's family and grid with both CLI choices of k, families
    with one-point and odd blocks, a k with two values per block, drawn
    weights, and times from 1e-7 to 3."""
    cold = block_family([6, 8], "quadratic")
    grid = np.arange(-0.5, 0.5 + 0.125, 0.25)
    odd = block_family([1, 3, 8], "quadratic")
    drawn = block_family([2, 5, 7], np.random.default_rng(3).uniform(0.1, 10.0, 3))
    spread = np.array([-3.0, -1.1, -1e-3, 0.0, 1e-7, 0.37, 1.1, 2.5, 3.0])
    rng = np.random.default_rng(4)
    # "block-constant" is the CLI's diagonal_of_h
    return {
        "cold-cli-zero": (cold, drawn_k(cold, "zero", rng), grid),
        "cold-cli-diagonal_of_h": (cold, drawn_k(cold, "block-constant", rng), grid),
        "odd-diagonal_of_h": (odd, drawn_k(odd, "block-constant", rng), spread),
        "drawn-two-per-block": (drawn, drawn_k(drawn, "two-per-block", rng), spread),
        "drawn-distinct": (drawn, drawn_k(drawn, "distinct", rng), spread),
    }


CASES = preflow_cases()


def worst_units(fam, k, times):
    """{column: max |x - ref| / (n eps ref)} for measured and lhs, n the
    largest block size; where ref is 0 (at t = 0), x must be 0."""
    got = preflow_profiles(fam, k, times)
    worst = {}
    for name, x, want in zip(("measured", "lhs"), (got[0], got[3]), reference_preflow(fam, k, times)):
        units = [abs(mp.mpf(float(xi)) - ri) / ri for xi, ri in zip(x, want) if ri != 0]
        assert all(xi == 0.0 for xi, ri in zip(x, want) if ri == 0), name
        worst[name] = float(max(units, default=0)) / (max(fam.sizes) * EPS)
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_preflow_columns_match_a_40_digit_reference(name):
    # measured and lhs within n eps of the reference, relative; the worst
    # over these cases is 0.25 n eps
    worst = worst_units(*CASES[name])
    assert max(worst.values()) <= 1.0, worst


def reference_flow(h, a, times):
    """modulus and derivative_residual of flow_profile at DIGITS digits (the
    residual 0 at t = 0), with their scales ||a|| and ||[h, a]||."""
    with mp.workdps(DIGITS):
        hm, am = mp.matrix(h.entries.tolist()), mp.matrix(a.entries.tolist())
        e, v = mp.eighe(hm)
        generator = mp.mpc(0, 1) * (hm * am - am * hm)
        modulus, residual = [], []
        for t in map(mp.mpf, times):
            u = v * mp.diag([mp.expj(t * x) for x in e]) * v.H
            moved = u * am * u.H - am
            modulus.append(_norm(moved))
            residual.append(_norm(moved / t - generator) if t else mp.mpf(0))
        return modulus, residual, _norm(am), _norm(generator)


def flow_cases():
    """Six drawn pairs (h, a) on 3 to 8 points, Hermitian as the CLI's
    generators make them: full, banded and diagonal a, on path, cycle and
    complete graphs, over the grid -1, -0.75, ..., 1 and the times 1e-7,
    -3e-4 and 2.5."""
    times = np.concatenate([np.arange(-1.0, 1.0 + 0.125, 0.25), [1e-7, -3e-4, 2.5]])
    spaces = {
        "path-3-full": space.path_graph(3),
        "cycle-4-banded": space.cycle_graph(4),
        "path-5-diagonal": space.path_graph(5),
        "complete-6-full": space.complete_graph(6),
        "path-7-banded": space.path_graph(7),
        "cycle-8-diagonal": space.cycle_graph(8),
    }
    cases = {}
    for seed, (name, s) in enumerate(spaces.items()):
        h = random_operator(s, 2 * seed, hermitian=True)
        a = random_operator(s, 2 * seed + 1, hermitian=True)
        if name.endswith("banded"):
            a = truncate(a, 1)
        elif name.endswith("diagonal"):
            a = diagonal(s, s.dist[0])
        cases[name] = (h, a, times)
    return cases


FLOW_CASES = flow_cases()


def flow_units(h, a, times):
    """{column: max |x - ref| / (n eps scale)} for modulus and
    derivative_residual; at t = 0 both must be 0."""
    got = flow_profile(h, a, times)
    *want, norm_a, norm_generator = reference_flow(h, a, times)
    worst = {}
    columns = zip(("modulus", "derivative_residual"), got, want, (norm_a, norm_generator))
    for name, x, ref, scale in columns:
        assert all(xi == 0.0 for xi, t in zip(x, times) if t == 0), name
        error = max(abs(mp.mpf(float(xi)) - ri) for xi, ri in zip(x, ref))
        worst[name] = float(error / scale) / (h.n * EPS)
    return worst


@pytest.mark.parametrize("name", sorted(FLOW_CASES))
def test_flow_columns_match_a_40_digit_reference(name):
    # modulus and derivative_residual within 4 n eps of the reference,
    # relative to ||a|| and ||[h, a]||
    worst = flow_units(*FLOW_CASES[name])
    assert max(worst.values()) <= 4.0, worst


def reference_ql(a, radii):
    """ql_values(a, radii, ["lower", "exact"]) at DIGITS digits, and ||a||.
    A corner is normed by mp.svd_c only if its float64 SVD norm is within
    1e-9 relative of the largest: the others are below the max by far more
    than any rounding."""
    n, dist = a.n, a.space.dist
    subsets = [np.array([bits >> i & 1 for i in range(n)], dtype=bool) for bits in range(1, 1 << n)]
    balls = [dist[x] <= rho for x in range(n) for rho in a.space.distance_set()]
    with mp.workdps(DIGITS):
        values = []
        for masks in (balls, subsets):
            row = []
            for r in radii:
                corners = [a.entries[np.ix_(m, dist[m].min(axis=0) > r)] for m in masks]
                corners = [c for c in corners if c.size]
                if not corners:
                    row.append(mp.mpf(0))
                    continue
                floats = [np.linalg.svd(c, compute_uv=False)[0] for c in corners]
                near = [c for c, x in zip(corners, floats) if x >= max(floats) * (1 - 1e-9)]
                row.append(max(_norm(mp.matrix(c.tolist())) for c in near))
            values.append(row)
        return values, _norm(mp.matrix(a.entries.tolist()))


def ql_cases():
    """Seven drawn operators on 3 to 8 points, every kind of drawn_operator,
    on path, cycle and complete graphs and a coarse union."""
    spaces = {
        "path-3-full": space.path_graph(3),
        "cycle-5-non-hermitian": space.cycle_graph(5),
        "complete-4-banded": space.complete_graph(4),
        "path-6-rank-one": space.path_graph(6),
        "union-7-diagonal": space.coarse_union([space.path_graph(3), space.cycle_graph(4)]),
        "cycle-8-upper": space.cycle_graph(8),
        "path-8-banded": space.path_graph(8),
    }
    return {name: drawn_operator(s, name.split("-", 2)[2], seed) for seed, (name, s) in enumerate(spaces.items())}


QL_CASES = ql_cases()


def ql_units(a):
    """{mode: max |x - ref| / (n eps ||a||)} over every radius and one past
    the diameter."""
    radii = np.append(a.space.distance_set(), a.space.diameter + 1.0)
    got = locality.ql_values(a, radii, ["lower", "exact"])
    want, scale = reference_ql(a, radii)
    return {
        mode: float(max(abs(mp.mpf(float(x)) - ref) for x, ref in zip(row, ref_row)) / scale) / (a.n * EPS)
        for mode, row, ref_row in zip(("lower", "exact"), got, want)
    }


@pytest.mark.parametrize("name", sorted(QL_CASES))
def test_ql_columns_match_a_40_digit_reference(name):
    # both modes within n eps of the reference, relative to ||a||
    worst = ql_units(QL_CASES[name])
    assert max(worst.values()) <= 1.0, worst


# the most n eps ||h|| by which an exact coarse-check value may miss the
# reference
COARSE_UNITS = 1.0


def reference_coarse(h, radii):
    """coarseness_moduli(h, radii, ["exact"]) at DIGITS digits, over every
    partial translation of brute_partial_injections, and ||h||."""
    n, dist = h.n, h.space.dist
    with mp.workdps(DIGITS):
        hm = mp.matrix(h.entries.tolist())
        values = []
        for r in radii:
            gaps = [abs(hm[y, y] - hm[x, x]) for x in range(n) for y in range(n) if dist[x, y] <= r]
            norms = []
            for row in brute_partial_injections(n, dist, r):
                v = mp.zeros(n, n)
                for x, y in enumerate(row):
                    if y >= 0:
                        v[y, x] = 1
                norms.append(_norm(hm * v - v * hm))
            values.append(max(gaps + norms))
        return values, _norm(hm)


def coarse_cases():
    """Five drawn Hermitian h on 3 to 5 points: full, banded and rank-one,
    on path, cycle and complete graphs."""
    spaces = {
        "path-3-full": space.path_graph(3),
        "cycle-4-banded": space.cycle_graph(4),
        "complete-4-rank-one": space.complete_graph(4),
        "path-5-full": space.path_graph(5),
        "cycle-5-banded": space.cycle_graph(5),
    }
    return {name: drawn_operator(s, name.split("-", 2)[2], seed) for seed, (name, s) in enumerate(spaces.items())}


COARSE_CASES = coarse_cases()


def coarse_units(h, radii=(0.0, 1.0)):
    """max |x - ref| / (n eps ||h||) of the exact values over radii."""
    got = coarseness_moduli(h, radii, ["exact"])[0]
    want, scale = reference_coarse(h, radii)
    return float(max(abs(mp.mpf(float(x)) - ref) for x, ref in zip(got, want)) / scale) / (h.n * EPS)


@pytest.mark.parametrize("name", sorted(COARSE_CASES))
def test_coarse_exact_column_matches_a_40_digit_reference(name):
    # within COARSE_UNITS n eps of the reference, relative to ||h||
    assert coarse_units(COARSE_CASES[name]) <= COARSE_UNITS
