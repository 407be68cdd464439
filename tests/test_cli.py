import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_expander import generator

import roelab
from roelab import expander, operator, space, spectral
from roelab.cli import _RUNNERS, main


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(tmp_path, sub, cfg, extra=()):
    cfg_path = write_cfg(tmp_path, f"{sub}.json", cfg)
    return main([sub, "--config", cfg_path, "--out", str(tmp_path), *extra])


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# roelab ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_coarse_check_runs(tmp_path):
    cfg = {
        "space": {"path_graph": 5},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "both",
        "radii": [0.0, 1.0, 2.0],
        "seed": 1,
    }
    assert run(tmp_path, "coarse-check", cfg) == 0
    header, rows = read_rows(tmp_path / "coarse-check.csv")
    assert header == ["radius", "value", "mode"]
    assert len(rows) == 6
    by_mode = {}
    for radius, value, mode in rows:
        by_mode.setdefault(mode, []).append((float(radius), float(value)))
    # heuristic is a lower bound on the exact modulus at each radius
    for (r1, lo), (r2, hi) in zip(by_mode["heuristic"], by_mode["exact"]):
        assert r1 == r2
        assert lo <= hi + 1e-12
    # diagonal h = d(0, .) moves by at most r under radius-r translations
    for r, hi in by_mode["exact"]:
        assert hi <= r + 1e-12


def test_ql_profile_runs_and_orders(tmp_path):
    cfg = {
        "space": {"cycle_graph": 6},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "both",
        "seed": 3,
    }
    assert run(tmp_path, "ql-profile", cfg) == 0
    _, rows = read_rows(tmp_path / "ql-profile.csv")
    vals = {}
    for radius, value, mode in rows:
        vals[(mode, float(radius))] = float(value)
    for (mode, r), v in vals.items():
        if mode == "lower":
            assert v <= vals[("exact", r)] + 1e-12


def test_flow_profile_deterministic(tmp_path):
    cfg = {
        "space": {"path_graph": 4},
        "h": {"generator": {"kind": "random_hermitian"}},
        "a": {"generator": {"kind": "random_hermitian_banded", "band": 1}},
        "time_grid": {"start": -0.5, "stop": 0.5, "step": 0.25},
        "seed": 11,
        "output": "flow.csv",
    }
    assert run(tmp_path, "flow-profile", cfg) == 0
    first = (tmp_path / "flow.csv").read_bytes()
    assert run(tmp_path, "flow-profile", cfg) == 0
    assert (tmp_path / "flow.csv").read_bytes() == first
    # a different seed must change the data
    assert run(tmp_path, "flow-profile", cfg, extra=("--seed", "12")) == 0
    assert (tmp_path / "flow.csv").read_bytes() != first


def test_flow_profile_modulus_zero_at_origin(tmp_path):
    cfg = {
        "space": {"path_graph": 3},
        "h": {"generator": {"kind": "diagonal_random"}},
        "a": {"generator": {"kind": "random_hermitian"}},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.5},
        "seed": 2,
    }
    assert run(tmp_path, "flow-profile", cfg) == 0
    _, rows = read_rows(tmp_path / "flow-profile.csv")
    t0 = [r for r in rows if float(r[0]) == 0.0]
    assert t0 and float(t0[0][1]) == 0.0


def test_cocycle_verify_residuals_small(tmp_path):
    cfg = {
        "space": {"path_graph": 4},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": {"start": 0.0, "stop": 0.8, "step": 0.4},
        "seed": 5,
    }
    assert run(tmp_path, "cocycle-verify", cfg) == 0
    _, rows = read_rows(tmp_path / "cocycle-verify.csv")
    assert len(rows) == 9
    for _, _, coc, lam in rows:
        assert float(coc) <= 1e-9
        assert float(lam) <= 1e-9


def test_diagonalize_outputs(tmp_path):
    cfg = {
        "space": {"path_graph": 6},
        "h": {"generator": {"kind": "random_hermitian"}},
        "r": 2.0,
        "seed": 9,
    }
    assert run(tmp_path, "diagonalize", cfg) == 0
    _, rows = read_rows(tmp_path / "diagonalize.csv")
    (r, defect, residual, prop), = [tuple(map(float, row)) for row in rows]
    assert r == 2.0
    assert residual <= 1e-10
    assert prop <= 2.0
    assert (tmp_path / "h_prime.txt").exists()


def test_diagonalize_at_n_128(tmp_path):
    cfg = {
        "space": {"path_graph": 128},
        "h": {"generator": {"kind": "random_hermitian_banded", "band": 2}},
        "r": 1.0,
        "seed": 3,
    }
    for name in ("first", "again"):
        (tmp_path / name).mkdir()
        assert run(tmp_path / name, "diagonalize", cfg) == 0
    # the generator's h, drawn as the runner draws it
    s = space.path_graph(128)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    h = operator.truncate(operator.OperatorMatrix(s, 0.5 * (m + m.conj().T)), 2.0)
    h_prime = operator.load_matrix(tmp_path / "first" / "h_prime.txt", s)
    assert np.array_equal(h_prime.entries, operator.truncate(h, 1.0).entries)
    for name in ("h_prime.txt", "diagonalize.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "again" / name).read_bytes() == first


@pytest.mark.parametrize(
    "sources,named",
    [
        ({"path_graph": 5, "cycle_graph": 6}, "['path_graph', 'cycle_graph']"),
        ({"complete_graph": 4, "edge_list": "E"}, "['edge_list', 'complete_graph']"),
        (
            {"coarse_union": [{"path_graph": 2}, {"path_graph": 2, "cycle_graph": 3}]},
            "['path_graph', 'cycle_graph']",
        ),
    ],
    ids=["graph-and-graph", "edge-list-and-graph", "inside-coarse-union"],
)
def test_space_with_two_sources_is_config_error(tmp_path, capsys, sources, named):
    edges = tmp_path / "edges.txt"
    edges.write_text("n 3\n0 1\n1 2\n")
    if "edge_list" in sources:
        sources = {**sources, "edge_list": str(edges)}
    cfg = {
        "space": sources,
        "h": {"generator": {"kind": "random_hermitian"}},
        "r": 1.0,
    }
    assert run(tmp_path, "diagonalize", cfg) == 2
    assert f"space needs one source, got {named}" in capsys.readouterr().err
    # refused before diagonalize writes h_prime.txt, its first file
    assert not (tmp_path / "h_prime.txt").exists()
    assert not (tmp_path / "diagonalize.csv").exists()


def test_expander_preflow_outputs(tmp_path):
    cfg = {
        "expander": {"n_blocks": 2, "degree": 3, "sizes": [6, 8], "seed": 4},
        "time_grid": {"start": -0.5, "stop": 0.5, "step": 0.25},
        "k": "diagonal_of_h",
        "seed": 4,
        "output": "preflow.csv",
    }
    assert run(tmp_path, "expander-preflow", cfg) == 0
    _, rows = read_rows(tmp_path / "preflow.csv")
    for t, measured, closed, block in rows:
        assert abs(float(measured) - float(closed)) <= 1e-9
        assert int(block) in (0, 1)
    _, wrows = read_rows(tmp_path / "preflow-wmap.csv")
    for t, lhs, rhs in wrows:
        assert float(lhs) >= float(rhs) - 1e-9
    # "diagonal_of_h" is the diagonal of the generator, bit for bit
    fam = expander.make_regular_family(2, 3, [6, 8], 4)
    k = np.real(np.diag(generator(fam).entries))
    times = np.array([float(row[0]) for row in wrows])
    lhs, rhs = expander.wmap_lower_bounds(fam, k, times)
    assert [row[1:] for row in wrows] == [
        [format(a, ".17g"), format(b, ".17g")] for a, b in zip(lhs, rhs)
    ]


@pytest.mark.parametrize("k", ["zero", "diagonal_of_h"])
def test_expander_preflow_never_builds_the_union(tmp_path, monkeypatch, k):
    cfg = {
        "expander": {"n_blocks": 3, "degree": 4, "sizes": [8, 10, 8], "seed": 2},
        "time_grid": {"start": -0.5, "stop": 0.75, "step": 0.25},
        "k": k,
    }
    for name in ("built", "lazy"):
        (tmp_path / name).mkdir()
    assert run(tmp_path / "built", "expander-preflow", cfg) == 0

    def refuse(blocks):
        raise AssertionError("the job built the coarse union")

    monkeypatch.setattr(space, "coarse_union", refuse)
    assert run(tmp_path / "lazy", "expander-preflow", cfg) == 0
    for name in ("expander-preflow.csv", "expander-preflow-wmap.csv"):
        built = (tmp_path / "built" / name).read_text()
        assert (tmp_path / "lazy" / name).read_text() == built


def _readme_examples():
    """(subcommand, config, column specs) of each example in README's "One
    example per subcommand" block; // starts a comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("One example per subcommand:")[1].split("```jsonc")[1]
    block = block.split("```")[0]
    examples, body, sub = [], [], None
    for line in block.splitlines():
        code, _, comment = line.partition("//")
        comment = comment.strip()
        body.append(code)
        if comment.startswith("columns:"):
            specs = comment[len("columns:"):].split(";")
            examples.append((sub, json.loads("".join(body)), specs))
            body, sub = [], None
        elif sub is None and ":" in comment:
            sub, body = comment.split(":")[0], []
    return examples


def test_readme_examples_run(tmp_path):
    examples = _readme_examples()
    assert sorted(sub for sub, _, _ in examples) == sorted(_RUNNERS)
    for sub, cfg, specs in examples:
        out = tmp_path / sub
        out.mkdir()
        assert main([sub, "--config", write_cfg(out, "cfg.json", cfg),
                     "--out", str(out)]) == 0, sub
        # "a,b,c (notes)" names the CSV's columns; "wmap: a,b" its sibling's
        for spec in specs:
            words = spec.split()
            name = f"{sub}.csv"
            if words[0].endswith(":"):
                name = f"{sub}-{words.pop(0)[:-1]}.csv"
            assert read_rows(out / name)[0] == words[0].split(","), spec


def test_rigidity_probe_outputs(tmp_path):
    cfg = {
        "space": {"complete_graph": 5},
        "h": {"generator": {"kind": "random_hermitian"}},
        "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.5},
        "seed": 8,
    }
    assert run(tmp_path, "rigidity-probe", cfg) == 0
    _, rows = read_rows(tmp_path / "rigidity-probe.csv")
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0][2]) == 0.0
    for _, delta, _ in rows:
        assert float(delta) >= 1.0 / np.sqrt(5) - 1e-12


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["ql-profile", "--config", str(tmp_path / "no.json")]) == 2


def test_malformed_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["ql-profile", "--config", str(p)]) == 2


def test_missing_key_is_config_error(tmp_path):
    assert run(tmp_path, "flow-profile", {"space": {"path_graph": 3}}) == 2


def test_bad_mode_is_config_error(tmp_path):
    cfg = {
        "space": {"path_graph": 3},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "sideways",
    }
    assert run(tmp_path, "ql-profile", cfg) == 2


def test_size_guard_exit_code(tmp_path):
    # the exact mode must enumerate translations for a non-diagonal h, and
    # that enumeration is refused at n > 10
    cfg = {
        "space": {"path_graph": 11},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "exact",
    }
    assert run(tmp_path, "coarse-check", cfg) == 3


def test_numeric_error_exit_code(tmp_path):
    edges = tmp_path / "loop.txt"
    edges.write_text("n 3\n0 0\n0 1\n1 2\n")
    cfg = {
        "space": {"edge_list": str(edges)},
        "operator": {"generator": {"kind": "random_hermitian"}},
    }
    assert run(tmp_path, "ql-profile", cfg) == 4


def test_deeply_nested_config_is_config_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    assert main(["ql-profile", "--config", str(p)]) == 2


def test_bad_threads_is_config_error(tmp_path):
    cfg = {
        "space": {"path_graph": 3},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
    }
    assert run(tmp_path, "ql-profile", cfg, extra=("--threads", "0")) == 2


@pytest.mark.parametrize(
    "extra_cfg",
    [
        {"radii": [1, "nan"]},
        {"radii": 3},
        {"output": "../../escape.csv"},
        {"space": {"path_graph": "abc"}},
        {"space": {"path_graph": 0}},
        {"space": {"complete_graph": 2.5}},
        {"space": {"cycle_graph": 2}},
        {"space": 5},
        {"space": {"coarse_union": [{"path_graph": 2}, 5]}},
        {"operator": 7},
        {"operator": {"generator": 3}},
        {
            "space": {"path_graph": 4},
            "operator": {
                "generator": {"kind": "diagonal_from_distance", "base_point": 9}
            },
        },
        {"operator": {"generator": {"kind": "diagonal_random", "scale": "nan"}}},
        {"allow_large": "no"},
        {"allow_large": 1},
        {"space": {"edge_list": 0}},
        {"operator": {"file": 0}},
        {"seed": -1},
        {"operator": {"generator": {"kind": "diagonal_random", "scale": 10**400}}},
        {"output": "a\u0000b"},
        {"space": {"edge_list": "x\u0000y"}},
        {"operator": {"file": "x\u0000y"}},
        {"space": {"coarse_union": []}},
    ],
    ids=[
        "radii-nan-string",
        "radii-not-a-list",
        "output-outside-out",
        "path-size-string",
        "path-size-zero",
        "complete-size-float",
        "cycle-size-two",
        "space-not-object",
        "coarse-union-entry-not-object",
        "operator-not-object",
        "generator-not-object",
        "base-point-out-of-range",
        "scale-nan-string",
        "allow-large-string",
        "allow-large-int",
        "edge-list-fd",
        "matrix-file-fd",
        "seed-negative",
        "scale-too-large-for-float",
        "output-nul",
        "edge-list-nul",
        "matrix-file-nul",
        "coarse-union-empty",
    ],
)
def test_invalid_radii_or_output_is_config_error(tmp_path, extra_cfg):
    cfg = {
        "space": {"path_graph": 5},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "heuristic",
        **extra_cfg,
    }
    out_dir = tmp_path / "a" / "b"
    cfg_path = write_cfg(tmp_path, "coarse-check.json", cfg)
    rc = main(["coarse-check", "--config", cfg_path, "--out", str(out_dir)])
    assert rc == 2
    assert not (tmp_path / "escape.csv").exists()
    assert not (out_dir / "coarse-check.csv").exists()


_GRID = {"start": 0.0, "stop": 0.5, "step": 0.25}
_EXPANDER = {"n_blocks": 2, "degree": 3, "sizes": [6, 8]}
_BANDED = "random_hermitian_banded"
_VALID = {
    "flow-profile": {
        "space": {"path_graph": 3},
        "h": {"generator": {"kind": "random_hermitian"}},
        "a": {"generator": {"kind": "random_hermitian"}},
        "time_grid": _GRID,
    },
    "diagonalize": {
        "space": {"path_graph": 4},
        "h": {"generator": {"kind": "random_hermitian"}},
        "r": 1.0,
    },
    "expander-preflow": {
        "expander": _EXPANDER,
        "time_grid": _GRID,
    },
    "cocycle-verify": {
        "space": {"path_graph": 3},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": _GRID,
    },
    "ql-profile": {
        "space": {"cycle_graph": 6},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "lower",
    },
}


@pytest.mark.parametrize(
    "sub, extra_cfg",
    [
        ("flow-profile", {"time_grid": [0, 1]}),
        ("flow-profile", {"time_grid": {**_GRID, "stop": "x"}}),
        ("flow-profile", {"time_grid": {**_GRID, "stop": "nan"}}),
        ("flow-profile", {"seed": 1.5}),
        ("diagonalize", {"r": "abc"}),
        ("diagonalize", {"r": True}),
        ("expander-preflow", {"expander": [1]}),
        ("expander-preflow", {"expander": {**_EXPANDER, "n_blocks": "x"}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "sizes": [6.0, 8]}}),
        ("flow-profile", {"a": {"generator": {"kind": _BANDED, "band": -1}}}),
        ("diagonalize", {"r": -1}),
        ("expander-preflow", {"expander": {**_EXPANDER, "weights": "cubic"}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "weights": [1, 1e300]}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "n_blocks": 0}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "degree": 0}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "seed": -1}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "sizes": [6]}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "sizes": [3, 3]}}),
        ("expander-preflow", {"expander": {**_EXPANDER, "sizes": [5, 5]}}),
    ],
    ids=[
        "time-grid-not-object",
        "stop-string",
        "stop-nan-string",
        "seed-float",
        "r-string",
        "r-bool",
        "expander-not-object",
        "n-blocks-string",
        "sizes-float",
        "band-negative",
        "r-negative",
        "weights-unknown-preset",
        "weights-list",
        "n-blocks-zero",
        "degree-zero",
        "expander-seed-negative",
        "sizes-one-short",
        "size-not-above-degree",
        "degree-times-size-odd",
    ],
)
def test_invalid_section_or_number_is_config_error(tmp_path, sub, extra_cfg):
    assert run(tmp_path, sub, {**_VALID[sub], "seed": 3}) == 0
    (tmp_path / f"{sub}.csv").unlink()
    assert run(tmp_path, sub, {**_VALID[sub], "seed": 3, **extra_cfg}) == 2
    assert not (tmp_path / f"{sub}.csv").exists()


def test_negative_seed_flag_is_config_error(tmp_path):
    cfg = {**_VALID["flow-profile"], "seed": 3}
    assert run(tmp_path, "flow-profile", cfg, extra=("--seed", "-5")) == 2
    assert not (tmp_path / "flow-profile.csv").exists()


@pytest.mark.parametrize(
    "sub, extra_cfg",
    [
        ("flow-profile", {"time_grid": {"start": 0, "stop": 1e9, "step": 1e-9}}),
        ("flow-profile", {"time_grid": {"start": -1e308, "stop": 1e308, "step": 1}}),
        # 317 times, so 317^2 = 100489 rows
        ("cocycle-verify", {"time_grid": {"start": 0, "stop": 316, "step": 1}}),
        # a size just over the guard, refused before anything of size n is built
        ("flow-profile", {"space": {"path_graph": space.MAX_POINTS + 1}}),
        # 162^3 lower-mode ball-mask entries, just over locality.LOWER_GUARD
        ("ql-profile", {"space": {"path_graph": 162}, "radii": [1]}),
    ],
    ids=["grid-eib", "grid-span-overflows", "cocycle-rows", "points-path",
         "ql-lower-balls"],
)
def test_oversize_request_is_size_guard(tmp_path, capsys, sub, extra_cfg):
    assert run(tmp_path, sub, {**_VALID[sub], **extra_cfg}) == 3
    assert "error: size-guard:" in capsys.readouterr().err
    assert not (tmp_path / f"{sub}.csv").exists()


@pytest.mark.parametrize(
    "grid",
    [
        # stop is the next float after 1e20: 17 grid times, each of which
        # rounds to 1e20 or to stop
        {"start": 1e20, "stop": math.nextafter(1e20, math.inf), "step": 1000},
        # 1.5 steps round to 2, and the last time, 2e308, to inf
        {"start": 0, "stop": 1.5e308, "step": 1e308},
    ],
    ids=["repeated-times", "last-time-overflows"],
)
@pytest.mark.parametrize(
    "sub", ["flow-profile", "rigidity-probe", "expander-preflow", "cocycle-verify"]
)
def test_grid_not_increasing_after_rounding_is_config_error(tmp_path, capsys, sub, grid):
    cfg_path = write_cfg(tmp_path, "cfg.json", {**_FUZZ[sub], "time_grid": grid})
    out = tmp_path / "out"
    assert main([sub, "--config", cfg_path, "--out", str(out)]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, nearest",
    [
        # 1.67 steps: rounding the count wrote a row at t = 1.2, past stop
        ({"start": 0, "stop": 1, "step": 0.6}, 1.2),
        ({"start": 0, "stop": 0.5, "step": 0.3}, 0.6),
        # 2.5 steps: rounding the count dropped stop
        ({"start": 0, "stop": 1, "step": 0.4}, 0.8),
    ],
    ids=["past-stop", "past-short-stop", "drops-stop"],
)
@pytest.mark.parametrize(
    "sub", ["flow-profile", "rigidity-probe", "expander-preflow", "cocycle-verify"]
)
def test_grid_off_step_is_config_error(tmp_path, capsys, sub, grid, nearest):
    cfg_path = write_cfg(tmp_path, "cfg.json", {**_FUZZ[sub], "time_grid": grid})
    out = tmp_path / "out"
    assert main([sub, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"nearest valid stop is {nearest!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, count",
    [
        ({"start": 0, "stop": 0, "step": 0.3}, 1),
        # stop - start rounds at this offset, and the grid still ends on stop
        ({"start": 1e9, "stop": 1e9 + 0.3, "step": 0.1}, 4),
    ],
    ids=["one-time", "large-offset"],
)
def test_grid_on_step_runs_to_stop(tmp_path, grid, count):
    # README's grids, such as (-1, 1, 0.1), run in test_readme_examples_run
    cfg = {**_FUZZ["rigidity-probe"], "time_grid": grid}
    assert run(tmp_path, "rigidity-probe", cfg) == 0
    _, rows = read_rows(tmp_path / "probe.csv")
    assert len(rows) == count
    assert float(rows[-1][0]) == pytest.approx(grid["stop"], rel=1e-15)


@pytest.mark.parametrize(
    "source, text, line",
    [
        ("edge_list", "n\n", 1),
        ("edge_list", "n 3\n0 1\n1 -1\n", 3),
        ("file", "n 3\n0 1\n", 2),
        ("file", "n 3\n# a comment\n0 5 1.0 0.0\n", 3),
        ("file", "n 3\n0 -1 1.0 0.0\n", 2),
        ("file", "n 3\n0 1 1.0 0.0\nn 3\n", 3),
        ("edge_list", "n 3\n0 1\nn 4\n2 3\n1 2\n", 3),
        ("file", "n 3\n0 1 1.0 0.0\n0 1 5.0 0.0\n", 3),
        ("file", "n 3\n0 1 nan 0.0\n", 2),
        ("file", "n 3\n0 1 1.0 inf\n", 2),
        ("file", "n 3\n# 1e400 overflows to inf\n1 2 1e400 0.0\n", 3),
    ],
    ids=[
        "edge-list-header-no-count",
        "edge-list-negative-index",
        "matrix-no-value",
        "matrix-column-out-of-range",
        "matrix-negative-index",
        "matrix-second-header",
        "edge-list-second-header",
        "matrix-repeated-entry",
        "matrix-nan",
        "matrix-inf",
        "matrix-overflow",
    ],
)
def test_malformed_input_file_is_numeric_error(tmp_path, capsys, source, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    cfg = {
        "space": {"path_graph": 3},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "heuristic",
    }
    if source == "edge_list":
        cfg["space"] = {"edge_list": str(path)}
    else:
        cfg["operator"] = {"file": str(path)}
    assert run(tmp_path, "coarse-check", cfg) == 4
    assert f"{path}:{line}:" in capsys.readouterr().err


def test_non_finite_output_is_numeric_error(tmp_path, capsys):
    # ||h|| near 1e308: the coarseness modulus overflows to inf at r >= 1
    cfg = {
        "space": {"path_graph": 4},
        "operator": {"generator": {"kind": "random_hermitian", "scale": 1e308}},
        "mode": "heuristic",
    }
    assert run(tmp_path, "coarse-check", cfg) == 4
    assert "column 'value'" in capsys.readouterr().err
    assert not (tmp_path / "coarse-check.csv").exists()


def test_exact_mode_overflow_is_numeric_error(tmp_path, capsys):
    # the Schur bounds overflow with the norms: no commutator is skipped
    cfg = {
        "space": {"path_graph": 4},
        "operator": {"generator": {"kind": "random_hermitian", "scale": 1e308}},
        "mode": "exact",
    }
    assert run(tmp_path, "coarse-check", cfg) == 4
    assert "column 'value'" in capsys.readouterr().err
    assert not (tmp_path / "coarse-check.csv").exists()


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_overflowing_diagonal_gap_is_numeric_error_without_a_warning(tmp_path, mode):
    # a fresh process, so that a RuntimeWarning reaches stderr as a line
    (tmp_path / "h.txt").write_text("n 3\n0 0 1e308 0.0\n1 1 -1e308 0.0\n")
    cfg = {
        "space": {"path_graph": 3},
        "operator": {"file": str(tmp_path / "h.txt")},
        "mode": mode,
        "radii": [1],
    }
    src = str(Path(roelab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "roelab.cli", "coarse-check",
         "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 4
    assert "error: numeric:" in out.stderr
    assert "RuntimeWarning" not in out.stderr


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_non_hermitian_file_operator_is_numeric_error(tmp_path, capsys, mode):
    sp = space.path_graph(3)
    path = tmp_path / "h.txt"
    operator.save_matrix(operator.OperatorMatrix(sp, np.triu(np.ones((3, 3)))), path)
    cfg = {"space": {"path_graph": 3}, "operator": {"file": str(path)}, "mode": mode}
    assert run(tmp_path, "coarse-check", cfg) == 4
    assert "not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "coarse-check.csv").exists()


def test_expander_preflow_reads_config_before_sampling(tmp_path, monkeypatch):
    def sample(*args):
        raise AssertionError("sampled a block before the config was read")

    monkeypatch.setattr(expander, "_random_regular_graph", sample)
    cfg = {**_VALID["expander-preflow"], "k": "bogus"}
    assert run(tmp_path, "expander-preflow", cfg) == 2


def test_taken_output_path_is_config_error(tmp_path):
    cfg = {
        "space": {"path_graph": 3},
        "operator": {"generator": {"kind": "diagonal_from_distance"}},
        "mode": "heuristic",
    }
    (tmp_path / "taken").mkdir()
    # "output" names an existing directory
    assert run(tmp_path, "coarse-check", {**cfg, "output": "taken"}) == 2
    # --out is an existing file
    (tmp_path / "file").write_text("")
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    rc = main(["coarse-check", "--config", cfg_path, "--out", str(tmp_path / "file")])
    assert rc == 2


def test_cocycle_verify_builds_one_family_with_two_solves(tmp_path, monkeypatch):
    solves = []
    eigh = spectral.eigh
    monkeypatch.setattr(spectral, "eigh", lambda a: solves.append(a) or eigh(a))
    cfg = {
        "space": {"path_graph": 12},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.25},
        "seed": 5,
    }
    assert run(tmp_path, "cocycle-verify", cfg) == 0
    # h and k once each: the scalar-line check reuses the family's k
    assert len(solves) == 2


def _cocycle_verify_counts(tmp_path, monkeypatch, step):
    """(OperatorMatrix constructions, exp_many calls) of one cocycle-verify
    run on the grid 0, step, ..., 1."""
    counts = {"operators": 0, "exp_many": 0}
    post_init = operator.OperatorMatrix.__post_init__
    exp_many = spectral.EigenSystem.exp_many

    def counted_post_init(self):
        counts["operators"] += 1
        post_init(self)

    def counted_exp_many(self, times):
        counts["exp_many"] += 1
        return exp_many(self, times)

    monkeypatch.setattr(operator.OperatorMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(spectral.EigenSystem, "exp_many", counted_exp_many)
    cfg = {
        "space": {"path_graph": 12},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": step},
        "seed": 5,
    }
    assert run(tmp_path, "cocycle-verify", cfg) == 0
    monkeypatch.undo()
    return counts["operators"], counts["exp_many"]


def test_cocycle_verify_builds_no_operator_per_grid_time(tmp_path, monkeypatch):
    ops_5, exps_5 = _cocycle_verify_counts(tmp_path, monkeypatch, 0.25)
    ops_17, exps_17 = _cocycle_verify_counts(tmp_path, monkeypatch, 0.0625)
    assert ops_5 == ops_17
    assert exps_5 <= 6 * 5 and exps_17 <= 6 * 17


def test_cli_import_does_not_load_scipy():
    src = str(Path(roelab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, roelab.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


# one small valid config per subcommand, every optional key set, for fuzzing
_FUZZ = {
    "coarse-check": {
        "space": {"path_graph": 4},
        "operator": {"generator": {"kind": "diagonal_from_distance", "base_point": 1}},
        "mode": "heuristic",
        "radii": [0, 1],
        "allow_large": False,
    },
    "ql-profile": {
        "space": {"cycle_graph": 4},
        "operator": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "mode": "lower",
    },
    "flow-profile": {
        **_VALID["flow-profile"],
        "a": {"generator": {"kind": _BANDED, "band": 1}},
    },
    "cocycle-verify": _VALID["cocycle-verify"],
    "diagonalize": _VALID["diagonalize"],
    "expander-preflow": {
        "expander": {**_EXPANDER, "weights": "linear", "seed": 2},
        "time_grid": _GRID,
        "k": "diagonal_of_h",
    },
    "rigidity-probe": {
        "space": {"complete_graph": 3},
        "h": {"generator": {"kind": "diagonal_random"}},
        "time_grid": _GRID,
        "output": "probe.csv",
    },
}
_DELETE = object()
_NUMBERS = [-1, 0, 0.5, 1, 2, 6, 10**9, -(10**9), 1e308, -1e308, 1e-300]
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.sampled_from(_NUMBERS + [math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def _edits(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ)))
    path = draw(st.sampled_from(sorted(_key_paths(_FUZZ[sub]))))
    return sub, path, draw(st.just(_DELETE) | _VALUES)


@settings(max_examples=150, deadline=None)
@given(edit=_edits())
@example(edit=("coarse-check", ("allow_large",), "no"))
@example(edit=("coarse-check", ("allow_large",), 1))
@example(edit=("coarse-check", ("space",), {"edge_list": 0}))
@example(edit=("coarse-check", ("operator",), {"file": 0}))
@example(edit=("expander-preflow", ("expander", "weights"), "cubic"))
@example(edit=("expander-preflow", ("expander", "weights"), [1, 1e300]))
@example(edit=("flow-profile", ("a", "generator", "band"), -1))
@example(edit=("diagonalize", ("r",), -1))
@example(edit=("rigidity-probe", ("seed",), -1))
@example(edit=("expander-preflow", ("expander", "n_blocks"), 0))
@example(edit=("expander-preflow", ("expander", "degree"), 0))
@example(edit=("ql-profile", ("operator", "generator", "scale"), 10**400))
@example(edit=("flow-profile", ("time_grid",), {"start": 0, "stop": 1e9, "step": 1e-9}))
@example(edit=("cocycle-verify", ("time_grid", "start"), -1e308))
@example(edit=("rigidity-probe", ("space", "complete_graph"), 10**9))
@example(edit=("rigidity-probe", ("output",), "a\u0000b"))
@example(edit=("coarse-check", ("space",), {"edge_list": "x\u0000y"}))
@example(edit=("coarse-check", ("operator",), {"file": "x\u0000y"}))
@example(edit=("coarse-check", ("space",), {"coarse_union": []}))
def test_fuzzed_config_exits_with_a_code(edit):
    sub, (*outer, key), value = edit
    cfg = copy.deepcopy(_FUZZ[sub])
    section = cfg
    for name in outer:
        section = section[name]
    if value is _DELETE:
        del section[key]
    else:
        section[key] = value
    with tempfile.TemporaryDirectory() as out:
        cfg_path = Path(out) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([sub, "--config", str(cfg_path), "--out", out]) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "sub, path",
    [
        ("coarse-check", ("radi",)),
        ("ql-profile", ("mdoe",)),
        ("flow-profile", ("time_grid", "stpe")),
        ("cocycle-verify", ("k", "generator", "sacle")),
        ("diagonalize", ("space", "bogus")),
        ("expander-preflow", ("expander", "wieghts")),
        ("rigidity-probe", ("ouput",)),
        # read by another generator kind, not this one
        ("flow-profile", ("h", "generator", "band")),
        ("coarse-check", ("tolerances",)),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else v,
)
def test_unread_key_is_config_error_before_any_file(tmp_path, capsys, sub, path):
    cfg = copy.deepcopy(_FUZZ[sub])
    section = cfg
    for name in path[:-1]:
        section = section[name]
    section[path[-1]] = 3
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    assert main([sub, "--config", cfg_path, "--out", str(out)]) == 2
    assert f"'{'.'.join(path)}'" in capsys.readouterr().err
    assert not out.exists()


def test_every_unread_key_is_named(tmp_path, capsys):
    cfg = {
        "space": {"coarse_union": [{"path_graph": 2}, {"path_graph": 3, "bogus": 1}]},
        "operator": {"generator": {"kind": "diagonal_random", "sacle": 3}},
        "radi": [1],
        "tolerances": {},
    }
    assert run(tmp_path, "coarse-check", cfg) == 2
    err = capsys.readouterr().err
    for path in ("space.coarse_union.1.bogus", "operator.generator.sacle", "radi",
                 "tolerances"):
        assert f"'{path}'" in err
    del cfg["radi"], cfg["tolerances"]
    del cfg["space"]["coarse_union"][1]["bogus"], cfg["operator"]["generator"]["sacle"]
    # a config seed that --seed overrides is not unread
    assert run(tmp_path, "coarse-check", {**cfg, "seed": 1}, extra=("--seed", "2")) == 0


def test_diagonalize_of_subnormal_entries(tmp_path):
    # the defect h - h' holds only the subnormal entries: its norm was NaN
    (tmp_path / "h.txt").write_text("n 3\n0 0 1.0 0.0\n0 2 5e-324 0.0\n2 0 5e-324 0.0\n")
    cfg = {"space": {"path_graph": 3}, "h": {"file": str(tmp_path / "h.txt")}, "r": 1}
    assert run(tmp_path, "diagonalize", cfg) == 0
    _, [row] = read_rows(tmp_path / "diagonalize.csv")
    assert float(row[1]) == 5e-324
