"""Exact invariances, bit for bit.

Homogeneity under powers of two: a value of degree one in an operator is
scaled by exactly 2^e when the operator is, as long as nothing underflows
or overflows. spectral_norms scales each matrix by a power of two before it
norms, so a scaled input reaches LAPACK with the same bits, and every check
and threshold on the way must scale with it. Scaled into the subnormals,
entries lose bits, and the bound is relative to the scaled operator.

Stacking: each matrix of a stack is computed on its own, so a sweep over a
grid gives what one call per time gives."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_locality import HERMITIAN_KINDS, drawn_operator, small_spaces

from roelab._linalg import hermitian_eig, part_exponent
from roelab.averaging import extract_finite_prop
from roelab.expander import block_family, preflow_profiles
from roelab.flows import cocycle_from_eigensystems, cocycle_residuals, flow_profile
from roelab.locality import ql_values
from roelab.operator import OperatorMatrix
from roelab.rigidity import flow_displacement_sweep
from roelab.translations import coarseness_moduli

# 2^e times an entry, a norm or a grid time stays a normal float
EXPONENTS = st.integers(-60, 60)


def scaled(a, e):
    return OperatorMatrix(a.space, 2.0**e * a.entries)


def grids():
    """1 to 6 times k/16, |k| <= 48: no scaled time is subnormal."""
    return st.lists(st.integers(-48, 48), min_size=1, max_size=6).map(
        lambda ks: np.array(ks) / 16.0
    )


def degree_one_values(s, h, a, times, coarseness=("heuristic", "exact")):
    """(f, x) for each value f(x) of degree one in its operator x."""
    radii = s.distance_set()
    return [
        (lambda x: coarseness_moduli(x, radii, list(coarseness)), h),
        (lambda x: ql_values(x, radii, ["lower", "exact"]), a),
        (lambda x: flow_profile(h, x, times)[0], a),
        (lambda x: [extract_finite_prop(x, r)[1] for r in radii], h),
    ]


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
    EXPONENTS,
    grids(),
)
@settings(max_examples=60, deadline=None)
def test_values_of_degree_one_scale_by_powers_of_two(s, kind, seed, e, times):
    h = drawn_operator(s, kind, seed)
    a = drawn_operator(s, "full", seed + 1)
    # f(2^e x) is 2^e f(x), bit for bit
    for f, x in degree_one_values(s, h, a, times):
        assert np.array_equal(f(scaled(x, e)), np.ldexp(f(x), e))

    # time covariance: sigma_{2^e h, t} = sigma_{h, 2^e t}, and the derivative
    # residual, a difference quotient in t, carries one more factor 2^e
    modulus, residual = flow_profile(scaled(h, e), a, times)
    modulus_t, residual_t = flow_profile(h, a, np.ldexp(times, e))
    assert np.array_equal(modulus, modulus_t)
    assert np.array_equal(residual, np.ldexp(residual_t, e))


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
    # 2^e times an entry below 1 keeps at most e + 1074 bits: 14 to 54
    st.integers(-1060, -1020),
    grids(),
)
@settings(max_examples=60, deadline=None)
def test_values_of_degree_one_scale_into_subnormals_within_a_relative_bound(
    s, kind, seed, e, times
):
    # rounding 2^e x to the subnormals moves each part of an entry by up to
    # 2^-1075, and a norm of the moved entries may round differently: against
    # the scaled operator's largest part B = 2^e big, a value moves by a few
    # n (2^-1074 / B + eps). The heuristic coarseness modulus is left out: its
    # greedy takes a gain above 1e-15 relative, far below the bits lost here,
    # so a lost bit can flip a near tie and change its steps (one drawn case
    # at 2^-1057 moved by about half its value)
    h = drawn_operator(s, kind, seed)
    a = drawn_operator(s, "full", seed + 1)
    for f, x in degree_one_values(s, h, a, times, coarseness=["exact"]):
        scale = 2.0**e * part_exponent(x.entries)[0]
        rel = 16 * s.n_points * (2.0**-1074 / scale + np.finfo(float).eps)
        moved = np.abs(np.asarray(f(scaled(x, e))) - np.ldexp(f(x), e))
        assert (moved <= rel * scale).all()


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    EXPONENTS,
    grids(),
)
# a phase tw near 2^53: e^{it(w - k)} - 1 taken from a phase t(w - k) of its
# own, not from the phases tw and tk, broke the w-map bound by 0.12 here
@example(sizes=[2], seed=95, e=54, times=np.array([0.125]))
@settings(max_examples=60, deadline=None)
def test_preflow_profiles_scale_weights_and_k_as_times(sizes, seed, e, times):
    # e^{it 2^e h} = e^{i 2^e t h}: weights and k times 2^e against times 2^e
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 10.0, len(sizes))
    k = rng.standard_normal(len(sizes))
    fam, fam_scaled = block_family(sizes, weights), block_family(sizes, 2.0**e * weights)
    got = preflow_profiles(fam_scaled, 2.0**e * k, times)
    want = preflow_profiles(fam, k, np.ldexp(times, e))
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
    EXPONENTS,
    grids(),
)
@settings(max_examples=60, deadline=None)
def test_rigidity_probe_scales_h_as_times(s, kind, seed, e, times):
    # e^{it 2^e h} = e^{i 2^e t h}: point maps, deltas and displacements agree
    h = drawn_operator(s, kind, seed)
    got = flow_displacement_sweep(scaled(h, e), times)
    want = flow_displacement_sweep(h, np.ldexp(times, e))
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def _cocycle_verify(h, k, ts, ss):
    """The residual grid and lambda of the cocycle of (h, k), read with k."""
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    return cocycle_residuals(cocycle_from_eigensystems(eh, ek), ek, ts, ss)


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
    EXPONENTS,
    grids(),
    grids(),
)
@settings(max_examples=60, deadline=None)
def test_cocycle_scales_h_and_k_as_times_bit_for_bit(s, kind_h, kind_k, seed, e, ts, ss):
    # u_t = e^{it 2^e k} e^{-it 2^e h} = e^{i 2^e t k} e^{-i 2^e t h}: the
    # residual grid and lambda agree
    h, k = drawn_operator(s, kind_h, seed), drawn_operator(s, kind_k, seed + 1)
    got = _cocycle_verify(scaled(h, e), scaled(k, e), ts, ss)
    want = _cocycle_verify(h, k, np.ldexp(ts, e), np.ldexp(ss, e))
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@given(
    small_spaces(max_n=6),
    st.sampled_from(HERMITIAN_KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 130).flatmap(
        lambda n: st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    ),
)
@settings(max_examples=30, deadline=None)
def test_stacked_sweeps_equal_one_call_per_time_bit_for_bit(s, kind, seed, times):
    # 1 to 130 times: up to two stacks of 64 and a remainder, against stacks
    # of one
    times = np.array(times)
    h, a = drawn_operator(s, kind, seed), drawn_operator(s, "full", seed + 1)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 6, rng.integers(1, 4))
    fam = block_family(sizes, rng.uniform(0.1, 10.0, len(sizes)))
    k = rng.standard_normal(fam.n_blocks)
    eh, ek = hermitian_eig(h), hermitian_eig(drawn_operator(s, kind, seed + 2))
    cocycle = cocycle_from_eigensystems(eh, ek)
    sweeps = {
        "flow_profile": lambda ts: flow_profile(h, a, ts),
        "flow_displacement_sweep": lambda ts: flow_displacement_sweep(h, ts),
        "preflow_profiles": lambda ts: preflow_profiles(fam, k, ts),
        "lambda": lambda ts: cocycle_residuals(cocycle, ek, ts, [])[1:],
    }
    for name, sweep in sweeps.items():
        stacked = sweep(times)
        for i, t in enumerate(times):
            for x, y in zip(stacked, sweep(times[i : i + 1])):
                assert np.array_equal(x[i], y[0]), (name, t)
