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
Its scale is ||h|| (||[h, v_f]|| <= 2 ||h||), and n is the number of points.

cocycle-verify: `cocycle_residual` = ||u_{t+s} - u_t sigma_{h,t}(u_s)|| and
`lambda_residual`, the distance of e^{-itk} u_t e^{ith} from the scalars, for
u_t = e^{itk} e^{-ith}. Both are 0 in exact arithmetic, so the reference is 0
and the scale is 1, as every u_t is unitary; n is the number of points.

diagonalize: `defect` = ||h - h'||, where h - h' = h - truncate(h, r) is
formed exactly, so it is normed by mp.svd_c from the same float64 entries.
Its scale is the reference value itself, and n is the number of points.
`zero_prop_residual` is exactly 0.0, and `h_prime_propagation` is the exact
largest d(x, y) <= r with h_xy nonzero; both must be equal.

rigidity-probe: `delta` = min_x |u_{f(x),x}| with u = e^{ith} from mp.expm
and f(x) the argmax over y of |u_yx|. Its scale is 1 (|u_yx| <= 1), and n is
the number of points. A time where some column's two largest |u_yx| lie
within 1e-8 of each other is skipped, as f may differ there; elsewhere
`displacement` = max_x d(x, f(x)) must equal the reference's."""

import numpy as np
import pytest
from mpmath import mp
from test_expander import drawn_k
from test_locality import drawn_operator

from test_operator import random_operator
from test_translations import brute_partial_injections

from roelab import expander, locality, space
from roelab._linalg import hermitian_eig
from roelab.averaging import extract_finite_prop
from roelab.expander import block_family, preflow_profiles
from roelab.flows import cocycle_from_eigensystems, cocycle_residuals, flow_profile
from roelab.operator import OperatorMatrix, diagonal, propagation, truncate
from roelab.rigidity import flow_displacement_sweep
from roelab.translations import coarseness_moduli

DIGITS = 40
EPS = np.finfo(float).eps


def _norm(m):
    return max(mp.svd_c(m, compute_uv=False))


def reference_preflow(fam, k, times):
    """measured and lhs of preflow_profiles at DIGITS digits, with k[n] on
    every point of block n."""
    measured, lhs = [], []
    with mp.workdps(DIGITS):
        for t in map(mp.mpf, times):
            moved, w_minus_one = [], []
            for size, w, kn in zip(fam.sizes, fam.weights, k):
                c = mp.expj(t * mp.mpf(w)) - 1
                u = mp.eye(size) + mp.ones(size, size) * (c / size)
                p = mp.diag(list(expander._split_mask(size)))
                moved.append(_norm(u * p * u.H - p))
                phases = [mp.expj(-t * mp.mpf(kn))] * size
                w_minus_one.append(_norm(u * mp.diag(phases) - mp.eye(size)))
            measured.append(max(moved))
            lhs.append(max(w_minus_one))
    return measured, lhs


def preflow_cases():
    """Small families (blocks of at most 8 points, at most 9 times): the
    cold-cli workload's family and grid with both CLI choices of k, families
    with one-point and odd blocks, and drawn weights with a drawn k or a k
    within a few ulps of the weights, and times from 1e-7 to 3."""
    cold = block_family([6, 8], "quadratic")
    grid = np.arange(-0.5, 0.5 + 0.125, 0.25)
    odd = block_family([1, 3, 8], "quadratic")
    drawn = block_family([2, 5, 7], np.random.default_rng(3).uniform(0.1, 10.0, 3))
    one_point = block_family([1, 4, 6], np.random.default_rng(5).uniform(0.1, 10.0, 3))
    spread = np.array([-3.0, -1.1, -1e-3, 0.0, 1e-7, 0.37, 1.1, 2.5, 3.0])
    rng = np.random.default_rng(4)

    def near_weight(fam):
        """w(n) moved by 1 to 3 ulps either way."""
        steps = rng.choice([-3, -2, -1, 1, 2, 3], fam.n_blocks)
        return fam.weights + steps * np.spacing(fam.weights)

    # "block-constant" is the CLI's diagonal_of_h
    return {
        "cold-cli-zero": (cold, drawn_k(cold, "zero", rng), grid),
        "cold-cli-diagonal_of_h": (cold, drawn_k(cold, "block-constant", rng), grid),
        "odd-diagonal_of_h": (odd, drawn_k(odd, "block-constant", rng), spread),
        "drawn-near-weight": (drawn, near_weight(drawn), spread),
        "drawn-one-point": (one_point, drawn_k(one_point, "drawn", rng), spread),
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
    # over these cases is 0.83 n eps, of measured at t = 2.5 in
    # drawn-one-point, where the phase tw(n) = 20.2 is rounded, and of lhs
    # 0.28 n eps
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


# the most n eps by which a cocycle-verify residual, 0 in exact arithmetic,
# may exceed 0; the worst over these cases is 5.3 n eps (cocycle_residual)
# and 3.3 n eps (lambda_residual)
COCYCLE_UNITS = 8.0
# the most n eps, relative, by which a diagonalize defect may miss the
# reference; the worst over these cases is 0.60 n eps
DEFECT_UNITS = 2.0
# the most n eps by which a rigidity-probe delta may miss the reference; the
# worst over these cases is 0.78 n eps
DELTA_UNITS = 2.0

# the CLI's time grids: the cocycle-verify workload configs' and -1 to 1
_CLI_GRIDS = (
    np.arange(0.0, 1.0 + 0.125, 0.25),
    np.arange(0.0, 0.8 + 0.2, 0.4),
    np.arange(-1.0, 1.0 + 0.125, 0.25),
)


# the spaces of the last three columns' drawn operators: path, cycle and
# complete graphs on 3 to 8 points
SPACES = {
    "path-3": space.path_graph(3),
    "cycle-4": space.cycle_graph(4),
    "complete-5": space.complete_graph(5),
    "path-6": space.path_graph(6),
    "cycle-7": space.cycle_graph(7),
    "path-8": space.path_graph(8),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_cocycle_columns_are_within_rounding_of_zero(name):
    # a drawn h and k = 0.5 times a drawn Hermitian matrix, as the CLI's
    # configs make them, on each CLI time grid
    s = SPACES[name]
    seed = 2 * s.n_points
    h = random_operator(s, seed, hermitian=True)
    k = OperatorMatrix(s, 0.5 * random_operator(s, seed + 1, hermitian=True).entries)
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    family = cocycle_from_eigensystems(eh, ek)
    for times in _CLI_GRIDS:
        residuals, lam = cocycle_residuals(family, ek, times, times)
        worst = {
            "cocycle_residual": residuals.max() / (s.n_points * EPS),
            "lambda_residual": lam.max() / (s.n_points * EPS),
        }
        assert max(worst.values()) <= COCYCLE_UNITS, (times, worst)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_diagonalize_columns_match_a_40_digit_reference(name):
    # at every radius of the distance set: the defect within DEFECT_UNITS
    # n eps of the reference, relative, and the other two columns exact
    s = SPACES[name]
    h = random_operator(s, 20 + s.n_points, hermitian=True)
    for r in s.distance_set():
        h_prime, defect, zero_prop_residual = extract_finite_prop(h, float(r))
        assert zero_prop_residual == 0.0
        near = (s.dist <= r) & (h.entries != 0)
        assert propagation(h_prime) == s.dist[near].max(initial=0.0)
        with mp.workdps(DIGITS):
            ref = _norm(mp.matrix(np.where(s.dist > r, h.entries, 0.0).tolist()))
            if ref == 0:
                assert defect == 0.0
                continue
            units = float(abs(mp.mpf(defect) - ref) / ref) / (s.n_points * EPS)
        assert units <= DEFECT_UNITS, (r, units)


def reference_probe(h, times):
    """(delta, displacement) per time, from u = e^{ith} by mp.expm at DIGITS
    digits, or None at a time where some column's two largest |u_yx| lie
    within 1e-8 of each other."""
    n, dist = h.n, h.space.dist
    out = []
    with mp.workdps(DIGITS):
        generator = mp.mpc(0, 1) * mp.matrix(h.entries.tolist())
        for t in times:
            u = mp.expm(mp.mpf(t) * generator)
            columns = [sorted(((abs(u[y, x]), y) for y in range(n)), reverse=True) for x in range(n)]
            if any(c[0][0] - c[1][0] <= 1e-8 for c in columns):
                out.append(None)
                continue
            f = [c[0][1] for c in columns]
            out.append((min(c[0][0] for c in columns), max(dist[x, f[x]] for x in range(n))))
    return out


@pytest.mark.parametrize("name", sorted(SPACES))
def test_rigidity_columns_match_a_40_digit_reference(name):
    # on the rigidity-probe workload configs' grid, 0 to 2 in steps of 0.25:
    # delta within DELTA_UNITS n eps of the reference and the displacement
    # equal to it
    s = SPACES[name]
    h = random_operator(s, 40 + s.n_points, hermitian=True)
    times = np.arange(0.0, 2.0 + 0.125, 0.25)
    _, deltas, displacements = flow_displacement_sweep(h, times)
    want = reference_probe(h, times)
    compared = [(d, m, ref) for d, m, ref in zip(deltas, displacements, want) if ref is not None]
    assert len(compared) >= len(times) - 1
    for delta, displacement, (ref_delta, ref_displacement) in compared:
        units = float(abs(mp.mpf(float(delta)) - ref_delta)) / (s.n_points * EPS)
        assert units <= DELTA_UNITS, units
        assert displacement == ref_displacement
