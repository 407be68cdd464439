"""Acceptance suite: thirteen numbered criteria, each printing one PASS/FAIL
line with its runtime. Tolerances are pinned in the assertions below."""

import itertools
import json
import time

import numpy as np
from test_translations import all_rows_modulus

from roelab import space
from roelab.averaging import brute_average, conjugate_by_sign, extract_finite_prop
from roelab.cli import main as cli_main
from roelab.expander import (
    block_family,
    halfsplit_commutator_norm,
    preflow_profiles,
)
from roelab.flows import (
    cocycle_from_eigensystems,
    cocycle_residuals,
    corrupt_at,
    generator_check,
    lipschitz_audit,
)
from roelab.locality import ql_values
from roelab.operator import OperatorMatrix, diagonal, expectation, truncate
from roelab._linalg import hermitian_eig, spectral_norm
from roelab.rigidity import probes
from roelab.translations import (
    coarseness_moduli,
    displacements,
    enumerate_r_translations,
    to_matrices,
)


def _run(capsys, num, name, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except Exception:
        with capsys.disabled():
            print(f"criterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion {num:2d} ({name}): PASS  [{elapsed:.2f}s]")
    assert elapsed < limit_s


def _seeded_hermitian(s, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = s.n_points
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return OperatorMatrix(s, scale * 0.5 * (m + m.conj().T))


def test_criterion_01_expander_constant(capsys):
    def body():
        for size in (2, 4, 8, 16):
            assert abs(halfsplit_commutator_norm(size) - 0.5) <= 1e-10

    _run(capsys, 1, "expander halfsplit constant 1/2", 1.0, body)


def test_criterion_02_discontinuity_identity(capsys):
    def body():
        fam = block_family([4, 4, 6, 8], "quadratic")
        measured, closed_form, _, _ = preflow_profiles(
            fam, np.zeros(fam.n_blocks), np.linspace(-2.0, 2.0, 129)
        )
        assert np.abs(measured - closed_form).max() <= 1e-9

    _run(capsys, 2, "discontinuity closed form on 129-pt grid", 10.0, body)


def test_criterion_03_non_flow_shadow(capsys):
    def body():
        fam = block_family([4] * 8, "quadratic")
        delta = 0.05
        measured, _, _, _ = preflow_profiles(
            fam, np.zeros(fam.n_blocks), np.linspace(-delta, delta, 101)
        )
        assert measured.max() >= 0.99

    _run(capsys, 3, "pre-flow jumps by >= 0.99 within |t| <= 0.05", 30.0, body)


def test_criterion_04_averaging_oracle(capsys):
    def body():
        for seed in range(50):
            n = 4 + seed % 7  # n in {4,...,10}
            s = space.path_graph(n)
            h = _seeded_hermitian(s, seed)
            avg = brute_average(s, lambda eps: conjugate_by_sign(h, eps))
            assert np.abs(avg.entries - expectation(h).entries).max() <= 1e-13

    _run(capsys, 4, "brute sign average equals diagonal", 60.0, body)


def test_criterion_05_extraction_pipeline(capsys):
    def body():
        s = space.path_graph(10)
        for seed in range(20):
            h = truncate(_seeded_hermitian(s, seed), 3.0)  # coarse input
            r = float(1 + seed % 3)
            h_prime, _, zero_prop_residual = extract_finite_prop(h, r)
            closed = truncate(h, r)
            assert np.abs(h_prime.entries - closed.entries).max() <= 1e-12
            assert zero_prop_residual <= 1e-10

    _run(capsys, 5, "extraction collapses to truncation", 60.0, body)


def test_criterion_06_cocycle_identity(capsys):
    def body():
        s = space.path_graph(8)
        grid = np.linspace(-0.8, 0.8, 17)
        corrupted_hits = 0
        for seed in range(10):
            eh = hermitian_eig(_seeded_hermitian(s, 2 * seed))
            ek = hermitian_eig(_seeded_hermitian(s, 2 * seed + 1))
            fam = cocycle_from_eigensystems(eh, ek)
            assert cocycle_residuals(fam, ek, grid, grid)[0].max() <= 1e-9
            bad = corrupt_at(fam, float(grid[5]))
            if cocycle_residuals(bad, ek, grid[5:6], grid[10:11])[0][0, 0] > 1e-2:
                corrupted_hits += 1
        assert corrupted_hits >= 9

    _run(capsys, 6, "cocycle identity on 17x17 grids", 60.0, body)


def test_criterion_07_lipschitz_bound(capsys):
    def body():
        s = space.path_graph(6)
        grid = np.linspace(-1.0, 1.0, 64)
        for seed in range(20):
            h = _seeded_hermitian(s, seed)
            k = _seeded_hermitian(s, seed + 500)
            max_ratio, bound = lipschitz_audit(h, k, grid)  # raises on violation
            assert max_ratio <= bound * (1 + 1e-8)

    _run(capsys, 7, "w-map Lipschitz bound ||h - k||", 30.0, body)


def test_criterion_08_diagonal_flow_closed_form(capsys):
    def body():
        s = space.path_graph(6)
        # the 13,327 partial translations, as one stack of v_f
        v = to_matrices(list(enumerate_r_translations(s, s.diameter)))
        rng = np.random.default_rng(808)
        for _ in range(20):
            hvals = rng.standard_normal(6)
            h = diagonal(s, hvals)
            t = float(rng.uniform(-2.0, 2.0))
            # sigma_t is entrywise for diagonal h; check every partial
            # translation against v_f e^{it(h o f - h)}
            [u] = hermitian_eig(h).exp_many([t])
            moved = u @ v @ u.conj().T
            expected = v * np.exp(1j * t * (hvals[:, None] - hvals[None, :]))
            assert np.abs(moved - expected).max() <= 1e-12

    _run(capsys, 8, "diagonal flow closed form, exhaustive", 120.0, body)


def test_criterion_09_coarseness_equivalence(capsys):
    def body():
        spaces = [space.path_graph(n) for n in (2, 3, 4, 5, 6)]
        spaces.append(space.cycle_graph(6))
        rng = np.random.default_rng(909)
        for s in spaces:
            hvals = rng.standard_normal(s.n_points)
            h = diagonal(s, hvals)
            radii = s.distance_set()
            [profile] = coarseness_moduli(h, radii, ["exact"])
            for r, exact in zip(radii.tolist(), profile.tolist()):
                mask = s.dist <= r
                closed = float(
                    np.abs(hvals[:, None] - hvals[None, :])[mask].max()
                )
                assert abs(exact - closed) <= 1e-10
                # an enumerated witness: every translation normed, no bound
                assert abs(all_rows_modulus(h, float(r)) - closed) <= 1e-10

    _run(capsys, 9, "exact coarseness equals diagonal oscillation", 120.0, body)


def test_criterion_10_ql_sandwich(capsys):
    def body():
        for seed in range(20):
            n = 2 + seed % 9  # n in {2,...,10}
            s = space.path_graph(n)
            a = _seeded_hermitian(s, seed)
            radii = s.distance_set()
            lowers, exacts = ql_values(a, radii, ["lower", "exact"])
            for r, lower, exact in zip(radii.tolist(), lowers.tolist(), exacts.tolist()):
                tail = spectral_norm(a.entries - truncate(a, float(r)).entries)
                assert lower <= exact + 1e-12
                assert exact <= tail + 1e-12

    _run(capsys, 10, "quasi-locality sandwich", 60.0, body)


def test_criterion_11_spectral_integrity(capsys):
    def body():
        s = space.path_graph(7)
        h = _seeded_hermitian(s, 1111)
        eye = np.eye(7)
        es = hermitian_eig(h)
        for t, u in [(0.3, 0.9), (-1.2, 0.4), (2.0, -2.0)]:
            ut, uu, utu = es.exp_many([t, u, t + u])
            assert spectral_norm(ut @ uu - utu) <= 1e-9
            assert spectral_norm(ut.conj().T @ ut - eye) <= 1e-9
        residuals = [generator_check(h, d) for d in (1e-2, 5e-3, 2.5e-3)]
        for r1, r2 in zip(residuals, residuals[1:]):
            assert 3.5 <= r1 / r2 <= 4.5  # second-order central difference

    _run(capsys, 11, "spectral calculus integrity", 30.0, body)


def test_criterion_12_rigidity_probe(capsys):
    def body():
        s = space.path_graph(5)
        rng = np.random.default_rng(1212)
        phases = [np.diag(np.exp(1j * rng.uniform(0, 7, 5))) for _ in range(10)]
        point_maps, deltas, moved = probes(s, np.stack(phases))
        assert (point_maps == np.arange(5)).all()
        assert np.abs(deltas - 1.0).max() <= 1e-12
        assert (moved == 0.0).all()
        perms = np.array(list(itertools.permutations(range(5))))
        point_maps, deltas, moved = probes(s, to_matrices(perms))
        assert np.array_equal(point_maps, perms)
        assert (deltas == 1.0).all()
        assert np.array_equal(moved, displacements(s, perms))

    _run(capsys, 12, "rigidity probe reads back point maps", 10.0, body)


_CLI_CONFIGS = {
    "coarse-check": {
        "space": {"path_graph": 5},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "both",
        "seed": 1,
    },
    "ql-profile": {
        "space": {"cycle_graph": 6},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "both",
        "seed": 2,
    },
    "flow-profile": {
        "space": {"path_graph": 5},
        "h": {"generator": {"kind": "random_hermitian"}},
        "a": {"generator": {"kind": "random_hermitian_banded", "band": 2}},
        "time_grid": {"start": -1.0, "stop": 1.0, "step": 0.25},
        "seed": 3,
    },
    "cocycle-verify": {
        "space": {"path_graph": 4},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": {"start": 0.0, "stop": 0.8, "step": 0.4},
        "seed": 4,
    },
    "diagonalize": {
        "space": {"path_graph": 8},
        "h": {"generator": {"kind": "random_hermitian"}},
        "r": 2.0,
        "seed": 5,
    },
    "expander-preflow": {
        "expander": {"n_blocks": 2, "degree": 3, "sizes": [6, 8]},
        "time_grid": {"start": -0.5, "stop": 0.5, "step": 0.25},
        "seed": 6,
    },
    "rigidity-probe": {
        "space": {"complete_graph": 5},
        "h": {"generator": {"kind": "random_hermitian"}},
        "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.5},
        "seed": 7,
    },
}


def test_criterion_13_cli_determinism(capsys, tmp_path):
    def body():
        for sub, cfg in _CLI_CONFIGS.items():
            cfg_path = tmp_path / f"{sub}.json"
            cfg_path.write_text(json.dumps(cfg))
            out1 = tmp_path / f"{sub}-run1"
            out2 = tmp_path / f"{sub}-run2"
            for out in (out1, out2):
                rc = cli_main([sub, "--config", str(cfg_path), "--out", str(out)])
                assert rc == 0
            for p1 in sorted(out1.iterdir()):
                p2 = out2 / p1.name
                assert p1.read_bytes() == p2.read_bytes()

    _run(capsys, 13, "CLI byte-identical reruns", 60.0, body)
