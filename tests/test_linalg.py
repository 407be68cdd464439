"""Analytic checks of the linear-algebra layer: closed-form spectra,
reconstruction, the spectral norm's edge cases and scale invariance."""

import itertools

import numpy as np
import pytest

from roelab import _linalg, averaging, expander, flows, space, translations
from roelab._linalg import (
    DISCONTINUITY_TOL,
    HERMITIAN_TOL,
    LIPSCHITZ_TOL,
    UNITARY_TOL,
    WMAP_TOL,
    ZERO_PROP_TOL,
    check,
    chunk_len,
    gram_bounds,
    gram_reaches,
    hermitian_eig,
    require_hermitian,
    require_unitary,
    scaled_grams,
    spectral_norm,
    spectral_norms,
    top_norms,
)
from roelab.averaging import extract_finite_prop
from roelab.errors import NumericCheckError
from roelab.flows import (
    CocycleFamily,
    cocycle_from_eigensystems,
    cocycle_residuals,
    corrupt_at,
    flow_profile,
    lipschitz_audit,
)
from roelab.locality import ql_value
from roelab.operator import OperatorMatrix
from roelab.rigidity import flow_displacement_sweep, probes
from roelab.translations import coarseness_modulus

SIZES = [1, 2, 64, 128]


def stacked_norm(m):
    """spectral_norms of m inside a stack that also holds a zero matrix and
    a second copy of m; each matrix must be normed on its own."""
    m = np.asarray(m, dtype=complex)
    norms = spectral_norms(np.stack([np.zeros_like(m), m, m]))
    assert norms.shape == (3,)
    assert norms[0] == 0.0 and norms[1] == norms[2]
    return float(norms[1])


NORMS = (spectral_norm, stacked_norm)


def random_hermitian(n, seed, complex_=True):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if complex_:
        m = m + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("n", SIZES)
def test_path_dirichlet_laplacian_spectrum(n):
    # 2I - A for the path adjacency A: eigenvalues 2 - 2cos(k pi / (n + 1))
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    w = hermitian_eig(OperatorMatrix(space.path_graph(n), lap)).eigenvalues
    assert np.allclose(w, exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_eigh_reconstructs_with_orthonormal_vectors(n, complex_):
    a = random_hermitian(n, seed=n, complex_=complex_)
    es = hermitian_eig(OperatorMatrix(space.path_graph(n), a))
    w, v = es.eigenvalues, es.vectors
    assert np.all(np.diff(w) >= 0.0)
    scale = 1.0 + spectral_norm(a)
    assert spectral_norm((v * w[None, :]) @ v.conj().T - a) <= 1e-12 * scale
    assert spectral_norm(v.conj().T @ v - np.eye(n)) <= 1e-12


def test_spectral_norm_of_rectangular_matrix_with_known_singular_values():
    rng = np.random.default_rng(7)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    m = q1 @ np.diag([0.5, 3.25, 1.0]) @ q2.conj().T
    for norm in NORMS:
        assert norm(m) == pytest.approx(3.25, rel=1e-13)
        assert norm(m.T) == pytest.approx(3.25, rel=1e-13)


def test_spectral_norm_ignores_zero_rows_and_columns():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    padded = np.zeros((4, 5))
    padded[np.ix_([0, 2], [1, 4])] = m
    for norm in NORMS:
        assert norm(m) == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)
        assert norm(padded) == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 2)])
def test_spectral_norm_of_empty_and_all_zero_arrays(shape):
    for norm in NORMS:
        assert norm(np.zeros(shape, dtype=complex)) == 0.0


@pytest.mark.parametrize("c", [1e-200, 1e-170, 1e150, 1e200])
def test_spectral_norm_is_absolutely_homogeneous_at_extreme_scales(c):
    # the Gram matrix squares magnitudes: unscaled, 1e200 overflows and
    # 1e-170 underflows
    rng = np.random.default_rng(3)
    cases = [
        np.array([[1.0, 2.0], [0.0, 1.0]]),
        rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)),
    ]
    for m, norm in itertools.product(cases, NORMS):
        base = norm(m)
        assert norm(c * m) == pytest.approx(abs(c) * base, rel=1e-12)
        assert norm(-c * m) == pytest.approx(abs(c) * base, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(bad):
    a = np.eye(3)
    a[1, 1] = bad
    for f in NORMS:
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            f(a)
    assert issubclass(np.linalg.LinAlgError, ValueError)  # CLI exit 4


def test_spectral_norms_of_mixed_stack_match_lapack_svd():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((6, 3, 5)) + 1j * rng.standard_normal((6, 3, 5))
    stack *= np.array([0.0, 1.0, 1e-3, 0.0, 7.0, 1e3])[:, None, None]
    stack[4, 1, :] = 0.0
    got = spectral_norms(stack)
    want = [np.linalg.norm(m, ord=2) for m in stack]
    assert got[0] == got[3] == 0.0
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # the Gram matrix is formed on the smaller side either way round
    assert np.allclose(
        spectral_norms(stack.transpose(0, 2, 1)), want, rtol=1e-12, atol=0.0
    )
    with pytest.raises(ValueError, match="stack"):
        spectral_norms(np.eye(3))


@pytest.mark.parametrize("shape", [(7, 1, 5), (7, 3, 3), (7, 4, 2), (7, 5, 6)])
@pytest.mark.parametrize("exponent", [0, 1000, -1000, -1060])
def test_gram_bounds_enclose_the_norm_at_every_scale(shape, exponent):
    # lo <= ||m|| <= hi within a few roundings, for the norm spectral_norms
    # gives from the same Gram matrices; a row 2^-600 below the rest has a
    # Gram diagonal that underflows, and must not raise lo past the norm
    rng = np.random.default_rng(11)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[1] = 0.0
    stack[2, 0] *= 2.0**-600
    stack[3, :, 0] *= 2.0**-540
    stack = np.ldexp(stack.view(float), exponent).view(complex)
    gram, e = scaled_grams(stack)
    norms = top_norms(gram, e)
    assert np.array_equal(norms, spectral_norms(stack))
    lo, hi = gram_bounds(gram, e)
    assert lo[1] == hi[1] == norms[1] == 0.0
    slack = 1e-13 * norms + 2.0**-1070
    assert (lo <= norms + slack).all() and (norms <= hi + slack).all()
    # one row or column: the Gram matrix is 1 x 1 and both bounds are the norm
    if 1 in shape[1:]:
        np.testing.assert_allclose(lo, norms, rtol=1e-15)
        np.testing.assert_allclose(hi, norms, rtol=1e-15)


def test_gram_bounds_stay_finite_below_an_overflowing_norm():
    # a norm past the largest float is inf; lo stays finite so that a floor
    # taken from it never excludes a corner whose norm rounds to inf
    big = np.full((1, 2, 2), np.finfo(float).max)
    gram, e = scaled_grams(big)
    lo, hi = gram_bounds(gram, e)
    assert top_norms(gram, e)[0] == np.inf
    assert lo[0] == np.finfo(float).max and hi[0] == np.inf


def test_gram_reaches_keeps_a_ceiling_within_rounding_of_the_floor():
    # at the floor, or below it by far less than the margin, a ceiling
    # reaches it; 2^-20 below it does not; in the subnormals the slack
    # keeps a zero ceiling under a floor of a few roundings
    tiny = 2.0**-1074
    floor = np.array([1.0, 1.0, 1.0, 8 * tiny, 64 * tiny, np.finfo(float).max])
    hi = np.array([1.0, 1.0 - 2.0**-30, 1.0 - 2.0**-20, 0.0, 0.0, np.inf])
    assert gram_reaches(hi, floor).tolist() == [True, True, False, True, False, True]


def test_scaled_grams_of_empty_shapes():
    for shape in [(0, 2, 3), (3, 0, 2), (2, 4, 0)]:
        gram, e = scaled_grams(np.zeros(shape))
        assert gram.shape == (shape[0], 0, 0)
        assert top_norms(gram, e).tolist() == [0.0] * shape[0]


@pytest.mark.parametrize(
    "m, want",
    [([[5e-324, 0.0], [0.0, 0.0]], 5e-324), ([[1e-310 + 1e-310j, 0.0]], 1.414e-310)],
)
def test_spectral_norm_of_a_subnormal_matrix_is_finite(m, want):
    # dividing by a subnormal scale went through 1/scale = inf, and NaN came out
    for norm in NORMS:
        assert norm(m) == pytest.approx(want, rel=1e-3)


def test_unitary_group_law_at_n128():
    s = space.path_graph(128)
    h = OperatorMatrix(s, random_hermitian(128, seed=11))
    t, u = 0.37, -1.21
    u_t, u_u, lhs = hermitian_eig(h).exp_many([t, u, t + u])
    assert spectral_norm(lhs - u_t @ u_u) <= 1e-11
    assert spectral_norm(lhs.conj().T @ lhs - np.eye(128)) <= 1e-11


# The validity layer at each of its callers. Every input below carries one
# residual x: a perturbed entry for OperatorMatrix's finiteness check,
# ||m - m^H||_F for the Hermitian checks, ||u^H u - 1||_F or ||u_0 - 1||_F
# for the unitary ones.
S3 = space.path_graph(3)


def _op(m):
    """OperatorMatrix(S3, m); a non-finite m is stored unchecked, so that the
    caller's own check is the one under test."""
    if np.isfinite(m).all():
        return OperatorMatrix(S3, m)
    a = OperatorMatrix(S3, np.zeros((3, 3)))
    object.__setattr__(a, "entries", m)
    return a


def _hermitian_input(x):
    m = np.eye(3, dtype=complex)
    m[0, 1] = x / np.sqrt(2.0)  # ||m - m^H||_F = x, max|m_xy| = 1
    return m


def _unitary_input(x):
    return np.diag([np.sqrt(1.0 + x), 1.0, 1.0]).astype(complex)


def _cocycle(u_0, u_half):
    """cocycle_residuals over the grid 0, 0.5 of a family with these elements."""
    es = hermitian_eig(OperatorMatrix(S3, np.zeros((3, 3))))
    fam = CocycleFamily(
        es, lambda ts: np.stack([u_0 if t == 0.0 else u_half for t in ts])
    )
    return cocycle_residuals(fam, es, [0.0, 0.5], [0.0, 0.5])[0]


# caller -> (call on x, the largest x the check accepts, error text)
VALIDITY = {
    "OperatorMatrix": (
        lambda x: OperatorMatrix(S3, np.diag([x, 1.0, 1.0])),
        float(np.finfo(np.float64).max),
        "finite",
    ),
    "hermitian_eig": (
        lambda x: hermitian_eig(_op(_hermitian_input(x))),
        2.0 * HERMITIAN_TOL,
        "Hermitian",
    ),
    "extract_finite_prop": (
        lambda x: extract_finite_prop(_op(_hermitian_input(x)), 1.0),
        2.0 * HERMITIAN_TOL,
        "Hermitian",
    ),
    "CocycleFamily-element": (
        lambda x: _cocycle(np.eye(3), _unitary_input(x)),
        UNITARY_TOL,
        "unitary",
    ),
    "CocycleFamily-u0": (
        lambda x: _cocycle(np.diag([np.exp(1j * x), 1.0, 1.0]), np.eye(3)),
        UNITARY_TOL,
        "identity|unitary",
    ),
    "coarseness_modulus": (
        lambda x: coarseness_modulus(_op(_hermitian_input(x)), 1.0, "exact"),
        2.0 * HERMITIAN_TOL,
        "Hermitian",
    ),
    "probe": (
        lambda x: probes(S3, _unitary_input(x)[None]),
        UNITARY_TOL,
        "unitary",
    ),
}


@pytest.mark.parametrize("case", ["over", "small", "nan"])
@pytest.mark.parametrize("caller", list(VALIDITY))
def test_validity_check_at_each_caller(caller, case):
    call, accepted, text = VALIDITY[caller]
    # 1.5 times the largest finite float is inf
    x = {"over": 1.5 * accepted, "small": 1e-13, "nan": np.nan}[case]
    if case == "small":
        call(x)
    else:
        with pytest.raises(ValueError, match=text):
            call(x)


def test_check_compares_each_residual_with_the_bound():
    check(1.0, 1.0, "scalar")
    check(np.array([[0.0, 1.0], [-np.inf, 0.5]]), 1.0, lambda i: "never named")
    check(np.array([]), 0.0, lambda i: "never named")
    with pytest.raises(
        NumericCheckError, match=r"^scalar: residual 2\.000e\+00 > 1\.000e\+00$"
    ):
        check(2.0, 1.0, "scalar")
    # written "not res <= bound", so NaN fails
    with pytest.raises(NumericCheckError, match=r"^scalar: residual nan > "):
        check(np.nan, 1.0, "scalar")
    # an array names its first failing flat index
    with pytest.raises(NumericCheckError, match=r"^index 2: residual 3\.000e\+00"):
        check(np.array([[0.0, 0.5], [3.0, np.nan]]), 1.0, lambda i: f"index {i}")
    with pytest.raises(NumericCheckError, match=r"^index 3: residual nan"):
        check(np.array([[0.0, 0.5], [1.0, np.nan]]), 1.0, lambda i: f"index {i}")
    # the error type is the caller's: ValueError for an input hypothesis
    with pytest.raises(ValueError) as info:
        check(2.0, 1.0, "input", ValueError)
    assert type(info.value) is ValueError


# The identity checks at each caller. Each call patches the source of its
# residual so that the residual reads x.
def _zero_prop(monkeypatch, x):
    # the defect is a spectral norm too, but only the residual is checked
    monkeypatch.setattr(averaging, "spectral_norm", lambda m: x)
    extract_finite_prop(_op(np.eye(3)), 1.0)


def _preflow_off_by(monkeypatch, x, piece):
    """preflow_profiles on a block family whose block norms all read their
    closed form, but those of one piece (0, the moved p_A; 1, w - 1) - x."""
    fam = expander.block_family([3, 4], "quadratic")
    closed = expander._closed_forms

    def block_norms(fam, k, times):
        out = [closed(fam, times), closed(fam, times)]
        out[piece] -= x
        return out

    monkeypatch.setattr(expander, "_block_norms", block_norms)
    expander.preflow_profiles(fam, np.zeros(fam.n_points), [0.0, 0.5])


def _discontinuity(monkeypatch, x):
    _preflow_off_by(monkeypatch, x, 0)


def _wmap(monkeypatch, x):
    _preflow_off_by(monkeypatch, x, 1)


def _lipschitz(monkeypatch, x):
    # h = k, so the bound is the absolute slack; the one ratio, at
    # |t - s| = 1, reads x
    monkeypatch.setattr(flows, "spectral_norms", lambda stack: np.full(len(stack), x))
    h = _op(np.eye(3))
    lipschitz_audit(h, h, [0.0, 1.0])


# caller -> (call on monkeypatch and x, the largest x the check accepts, text)
IDENTITY = {
    "extract_finite_prop": (_zero_prop, ZERO_PROP_TOL, r"E\(h\)"),
    "preflow_profiles-discontinuity": (_discontinuity, DISCONTINUITY_TOL, "on block"),
    "preflow_profiles-wmap": (_wmap, WMAP_TOL, "w-map lower bound at t="),
    "lipschitz_audit": (_lipschitz, LIPSCHITZ_TOL[1], r"\|t - s\| = 1\.0"),
}


@pytest.mark.parametrize("case", ["over", "small", "nan"])
@pytest.mark.parametrize("caller", list(IDENTITY))
def test_identity_check_at_each_caller(monkeypatch, caller, case):
    call, accepted, text = IDENTITY[caller]
    x = {"over": 2.0 * accepted, "small": 1e-13, "nan": np.nan}[case]
    if case == "small":
        call(monkeypatch, x)
    else:
        with pytest.raises(NumericCheckError, match=f"{text}.*: residual "):
            call(monkeypatch, x)


def test_chunk_rule():
    # _CHUNK matrices up to 256 x 256, then 2**22 entries per stack, then one
    assert chunk_len(1, 1) == chunk_len(256, 256) == 64
    assert chunk_len(257, 257) == 63
    assert chunk_len(1024, 1024) == 4
    assert chunk_len(2048, 2048) == 1
    assert chunk_len(2048, 4096) == 1


def test_require_hermitian_residual_does_not_overflow():
    # ||m - m^H||_F of each matrix overflowed to inf before m was scaled
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1e200
    with pytest.raises(ValueError, match=r"residual 1\.414e\+200 > 1\.000e\+190$"):
        require_hermitian(skew)
    near = np.zeros((3, 3), dtype=complex)
    near[0, 0], near[1, 2] = 1e300, 1e160
    require_hermitian(near)  # residual 1.4e160, bound 1e290
    # |m_01| = 2.1e308 overflows, but its largest part, 1.5e308, does not:
    # the bound stays finite, so the inf residual fails it, with no warning
    huge = np.zeros((3, 3), dtype=complex)
    huge[0, 1] = 1.5e308 + 1.5e308j
    with pytest.raises(ValueError, match=r"residual inf > 1\.500e\+298$"):
        require_hermitian(huge)
    huge[1, 0] = np.conj(huge[0, 1])
    require_hermitian(huge)


def test_require_unitary_names_the_failing_slice():
    stack = np.stack([np.eye(3), np.eye(3), 2.0 * np.eye(3)]).astype(complex)
    require_unitary(stack[:2], "stack")
    with pytest.raises(ValueError, match=r"stack \(slice 2\) is not unitary"):
        require_unitary(stack, "stack")
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"slice 1"):
        require_unitary(stack, "stack")


def _stacked_paths():
    """Every path that evaluates stacks under the chunk rule, on inputs
    large enough that the default rule stacks more than one matrix."""
    s = space.path_graph(6)
    rng = np.random.default_rng(99)

    def herm(scale=1.0):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        return OperatorMatrix(s, scale * 0.5 * (m + m.conj().T))

    h, k, a = herm(), herm(0.5), herm()
    times = np.linspace(-1.0, 1.0, 9)
    eh, ek = hermitian_eig(h), hermitian_eig(k)
    fam = cocycle_from_eigensystems(eh, ek)
    bad = corrupt_at(fam, float(times[3]))
    blocks = expander.block_family([3, 5, 4], "quadratic")
    out = {
        "flow_profile": flow_profile(h, a, times),
        # per time: the point map, delta and displacement, as one row
        "sweep": np.column_stack(flow_displacement_sweep(h, times)),
        "cocycle": cocycle_residuals(fam, ek, times, times)[0],
        "corrupted": cocycle_residuals(bad, ek, times, times)[0],
        "lambda": cocycle_residuals(fam, ek, times, [])[1],
        "preflow": expander.preflow_profiles(
            blocks, rng.standard_normal(blocks.n_points), times
        ),
        "lipschitz": lipschitz_audit(h, k, times)[0],
        "ql": ql_value(a, 1.0, "exact"),
        "ql-lower": ql_value(a, 1.0, "lower"),
        "coarse-exact": coarseness_modulus(a, 1.0, "exact"),
        "coarse-heuristic": coarseness_modulus(a, 1.0, "heuristic"),
        "extract": extract_finite_prop(h, 1.0)[0].entries,
    }
    return out


def test_stacked_paths_do_not_depend_on_the_chunk(monkeypatch):
    default = _stacked_paths()
    monkeypatch.setattr(_linalg, "_CHUNK", 1)
    monkeypatch.setattr(translations, "_BLOCK", 1)
    assert chunk_len(6, 6) == 1
    one = _stacked_paths()
    for name, value in default.items():
        for got, want in zip(np.atleast_1d(one[name]), np.atleast_1d(value)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=name)
