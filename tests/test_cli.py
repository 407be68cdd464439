import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_expander import block_values, generator

import roelab
from roelab import _linalg, expander, locality, operator, space, translations
from roelab.cli import _RUNNERS, _write_csv, entry, main
from roelab.errors import NumericCheckError


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


def test_heuristic_coarse_check_profile_does_not_fall(tmp_path):
    # one greedy per radius read 5.7163017815688164 at r = 2 and
    # 5.0707064695294788 at r = 3 here; the profile now keeps the max of
    # the smaller radii, each value still a lower bound
    cfg = {
        "space": {"path_graph": 6},
        "operator": {"generator": {"kind": "random_hermitian_banded", "band": 2}},
        "mode": "heuristic",
        "seed": 4,
    }
    assert run(tmp_path, "coarse-check", cfg) == 0
    _, rows = read_rows(tmp_path / "coarse-check.csv")
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
    assert [row[1] for row in rows[2:]] == ["5.7163017815688164"] * 4


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


def test_flow_profile_on_a_subnormal_grid_reruns_bit_for_bit(tmp_path):
    # (e^{itD} - 1)/t is formed as a whole: dividing by t went through 1/t,
    # which overflows for a subnormal t, and the run exited 4
    cfg = {
        "space": {"path_graph": 3},
        "h": {"generator": {"kind": "random_hermitian"}},
        "a": {"generator": {"kind": "random_hermitian"}},
        "time_grid": {"start": 0.0, "stop": 1e-308, "step": 5e-309},
    }
    assert run(tmp_path, "flow-profile", cfg) == 0
    first = (tmp_path / "flow-profile.csv").read_bytes()
    assert run(tmp_path, "flow-profile", cfg) == 0
    assert (tmp_path / "flow-profile.csv").read_bytes() == first
    _, rows = read_rows(tmp_path / "flow-profile.csv")
    (t0, *zero), *live = np.array(rows, dtype=float)
    assert t0 == 0.0 and not any(zero)
    # both values are linear in t this close to 0
    ratios = np.array([row[1:] / row[0] for row in live])
    assert np.isfinite(ratios).all() and (ratios > 0).all()
    assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)


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
        "expander": {"n_blocks": 2, "degree": 3, "sizes": [6, 8]},
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
    fam = expander.block_family([6, 8], "quadratic")
    k = block_values(fam, np.real(np.diag(generator(fam).entries)))
    times = np.array([float(row[0]) for row in wrows])
    _, rhs, _, lhs = expander.preflow_profiles(fam, k, times)
    assert [row[1:] for row in wrows] == [
        [format(a, ".17g"), format(b, ".17g")] for a, b in zip(lhs, rhs)
    ]


@pytest.mark.parametrize("k", ["zero", "diagonal_of_h"])
def test_expander_preflow_forms_the_blocks_in_one_pass(tmp_path, monkeypatch, k):
    # both CSVs come from one pass over the blocks of e^{ith}
    passes = []
    block_norms = expander._block_norms

    def counting(*args):
        passes.append(args)
        return block_norms(*args)

    monkeypatch.setattr(expander, "_block_norms", counting)
    assert run(tmp_path, "expander-preflow", {**_VALID["expander-preflow"], "k": k}) == 0
    assert len(passes) == 1
    assert (tmp_path / "expander-preflow-wmap.csv").exists()


@pytest.mark.parametrize("k", ["zero", "diagonal_of_h"])
def test_expander_preflow_never_builds_the_union(tmp_path, monkeypatch, k):
    cfg = {
        "expander": {"n_blocks": 3, "degree": 4, "sizes": [8, 10, 8]},
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


def _counting(monkeypatch, module, name):
    """Patch module.name to record each call's arguments in the list returned."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_coarse_check_checks_h_and_enumerates_once(tmp_path, monkeypatch):
    # every radius and both modes from one check of h and one enumeration,
    # at the largest radius
    checked = [
        _counting(monkeypatch, module, "require_hermitian")
        for module in (_linalg, translations)
    ]
    enumerated = _counting(monkeypatch, translations, "_translation_targets")
    cfg = {
        "space": {"path_graph": 6},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "both",
        "radii": [0, 1, 2],
    }
    assert run(tmp_path, "coarse-check", cfg) == 0
    assert sum(map(len, checked)) == 1
    assert [args[1] for args in enumerated] == [2.0]
    _, rows = read_rows(tmp_path / "coarse-check.csv")
    assert [row[2] for row in rows] == ["heuristic"] * 3 + ["exact"] * 3


@pytest.mark.parametrize(
    "sub, size, module, norms",
    [("ql-profile", 17, locality, "scaled_grams"), ("coarse-check", 11, translations, "spectral_norms")],
    ids=["ql-profile", "coarse-check"],
)
def test_mode_both_is_refused_before_either_mode_runs(
    tmp_path, capsys, monkeypatch, sub, size, module, norms
):
    # the first mode (lower, heuristic) passes its guard, the exact mode's
    # fails: no corner may be formed, nor trial translation normed, first
    normed = _counting(monkeypatch, module, norms)
    cfg = {
        "space": {"path_graph": size},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "mode": "both",
    }
    assert run(tmp_path, sub, cfg) == 3
    assert "error: size-guard:" in capsys.readouterr().err
    assert normed == []


@pytest.mark.parametrize(
    "sub, module, norms",
    [("ql-profile", locality, "scaled_grams"), ("coarse-check", translations, "spectral_norms")],
    ids=["ql-profile", "coarse-check"],
)
def test_profile_rows_are_refused_before_any_norm(
    tmp_path, capsys, monkeypatch, sub, module, norms
):
    # a row per radius and mode: 50001 radii pass in one mode, not in both;
    # no corner is formed, nor trial translation normed
    normed = _counting(monkeypatch, module, norms)
    cfg = {
        "space": {"path_graph": 4},
        "operator": {"generator": {"kind": "random_hermitian"}},
        "radii": [0] * 50_001,
    }
    assert run(tmp_path, sub, {**cfg, "mode": "both"}) == 3
    assert "error: size-guard: size guard 'profile rows'" in capsys.readouterr().err
    assert normed == []
    assert not (tmp_path / f"{sub}.csv").exists()
    assert run(tmp_path, sub, cfg) == 0


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
        # blocks that pass the degree check, in a union just over the guard
        ("expander-preflow", {"expander": {**_EXPANDER, "sizes": [1026, 1024]}}),
        # 50001 radii in both modes, so 100002 rows
        ("ql-profile", {"radii": [0] * 50_001, "mode": "both"}),
    ],
    ids=["grid-eib", "grid-span-overflows", "cocycle-rows", "points-path",
         "ql-lower-balls", "points-expander", "profile-rows"],
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


def test_write_csv_prints_each_column_by_its_kind(tmp_path):
    path = tmp_path / "out.csv"
    floats = [2.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    _write_csv(
        path, "demo", "0123", "x:unit", ("i", "x", "name"),
        (np.array([0, -3, 7, 2**40, 12]), np.array(floats), ["a", "b", "c", "d", "e f"]),
    )
    assert path.read_text() == (
        "# roelab demo config_hash=0123 units=x:unit\n"
        "i,x,name\n"
        "0,2,a\n"
        "-3,-0,b\n"
        "7,4.9406564584124654e-324,c\n"
        "1099511627776,1.7976931348623157e+308,d\n"
        "12,0.10000000000000001,e f\n"
    )
    # the cells are what format(x, ".17g") and str(int) give one at a time
    for line, x in zip(path.read_text().splitlines()[2:], floats):
        assert line.split(",")[1] == format(x, ".17g")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_a_non_finite_column_before_opening(tmp_path, bad):
    path = tmp_path / "out.csv"
    columns = (np.array([1, 2]), np.array([0.5, 1.5]), np.array([1.0, bad]))
    with pytest.raises(NumericCheckError, match="column 'z'"):
        _write_csv(path, "demo", "0123", "x:unit", ("i", "y", "z"), columns)
    assert not path.exists()


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


def _scaled_generator(kind, **extra):
    """ql-profile on path_graph(6) with a generator whose scale overflows."""
    gen = {"kind": kind, "scale": 1.7e308, **extra}
    return "ql-profile", {"space": {"path_graph": 6}, "operator": {"generator": gen}}


def _p3(**sections):
    return {"space": {"path_graph": 3}, **sections}


# "big" is a matrix file holding a finite Hermitian h on path_graph(3) whose
# entries, 1e308, overflow h + h^H; on _HUGE_GRID the phases t lambda overflow
_BIG, _RH = {"file": "big"}, {"generator": {"kind": "random_hermitian"}}
# matrix files on path_graph(3) whose ||m - m^H||_F once overflowed: "skew"
# is not Hermitian (residual 1.4e200 against the bound 1e190), and
# "near-hermitian" is, within its bound (residual 1.4e160 against 1e290);
# "huge-skew" is not, though its one entry's modulus overflows
_FILES = {
    "big": "n 3\n0 1 1e308 0.0\n1 0 1e308 0.0\n",
    "skew": "n 3\n0 1 1e200 0.0\n",
    "huge-skew": "n 3\n0 1 1.5e308 1.5e308\n",
    "near-hermitian": "n 3\n0 0 1e300 0.0\n1 2 1e160 0.0\n",
}
_HUGE_GRID = {"start": 0.0, "stop": 1.6e308, "step": 8e307}
_FLOAT_LIMIT_CASES = {
    "scale-distance": (*_scaled_generator("diagonal_from_distance"), 4),
    "scale-diagonal-random": (*_scaled_generator("diagonal_random"), 0),
    "scale-random": (*_scaled_generator("random_hermitian"), 4),
    "scale-banded": (*_scaled_generator("random_hermitian_banded", band=1), 4),
    "big-flow": ("flow-profile", _p3(h=_BIG, a=_BIG, time_grid=_GRID), 4),
    "big-rigidity": ("rigidity-probe", _p3(h=_BIG, time_grid=_GRID), 0),
    "big-cocycle": ("cocycle-verify", _p3(h=_BIG, k=_BIG, time_grid=_GRID), 0),
    "big-diagonalize": ("diagonalize", _p3(h=_BIG, r=1), 0),
    "big-coarse": ("coarse-check", _p3(operator=_BIG, radii=[1]), 0),
    "big-ql": ("ql-profile", _p3(operator=_BIG, radii=[1]), 0),
    "skew-coarse": ("coarse-check", _p3(operator={"file": "skew"}, radii=[1]), 4),
    "huge-skew-coarse": (
        "coarse-check", _p3(operator={"file": "huge-skew"}, radii=[1]), 4
    ),
    "near-hermitian-coarse": (
        "coarse-check", _p3(operator={"file": "near-hermitian"}, radii=[1]), 0
    ),
    "phase-flow": ("flow-profile", _p3(h=_RH, a=_RH, time_grid=_HUGE_GRID), 4),
    "phase-rigidity": ("rigidity-probe", _p3(h=_RH, time_grid=_HUGE_GRID), 4),
    "phase-cocycle": ("cocycle-verify", _p3(h=_RH, k=_RH, time_grid=_HUGE_GRID), 4),
    "phase-expander": (
        "expander-preflow", {**_VALID["expander-preflow"], "time_grid": _HUGE_GRID}, 4
    ),
}


@pytest.mark.parametrize("case", list(_FLOAT_LIMIT_CASES))
def test_float_limit_is_numeric_error_or_runs_without_a_warning(tmp_path, case):
    # a fresh process, so that a RuntimeWarning reaches stderr as a line
    sub, cfg, code = _FLOAT_LIMIT_CASES[case]
    for name, text in _FILES.items():
        (tmp_path / f"{name}.txt").write_text(text)
    # a section {"file": name} reads the file written for name
    cfg = {
        key: {"file": str(tmp_path / f"{value['file']}.txt")}
        if isinstance(value, dict) and "file" in value else value
        for key, value in cfg.items()
    }
    src = str(Path(roelab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "roelab.cli", sub,
         "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "RuntimeWarning" not in out.stderr
    assert out.returncode == code, out.stderr
    assert ("error: numeric:" in out.stderr) == (code == 4)


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_non_hermitian_file_operator_is_numeric_error(tmp_path, capsys, mode):
    sp = space.path_graph(3)
    path = tmp_path / "h.txt"
    operator.save_matrix(operator.OperatorMatrix(sp, np.triu(np.ones((3, 3)))), path)
    cfg = {"space": {"path_graph": 3}, "operator": {"file": str(path)}, "mode": mode}
    assert run(tmp_path, "coarse-check", cfg) == 4
    assert "not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "coarse-check.csv").exists()


@pytest.mark.parametrize("e", [-60, 60])
def test_heuristic_coarse_check_scales_with_h(tmp_path, e):
    # the greedy's gain threshold scales with h: at 2^-60 it once read
    # 3.6002552438423843e-18, where 2^-60 x 5.548507512712221 = 4.81e-18
    values = []
    for scale in (1.0, 2.0**e):
        gen = {"kind": _BANDED, "band": 2, "scale": scale}
        cfg = {"space": {"path_graph": 6}, "operator": {"generator": gen},
               "mode": "heuristic", "radii": [1], "seed": 3}
        assert run(tmp_path, "coarse-check", cfg) == 0
        [[_, value, _]] = read_rows(tmp_path / "coarse-check.csv")[1]
        values.append(float(value))
    assert values[0] == 5.548507512712221
    assert values[1] == math.ldexp(values[0], e)


def test_expander_preflow_builds_no_finite_space(tmp_path, monkeypatch):
    # a family is its block sizes and weights: no block graph, no union
    built = []
    post_init = space.FiniteSpace.__post_init__

    def counted_post_init(self):
        built.append(self.n_points)
        post_init(self)

    monkeypatch.setattr(space.FiniteSpace, "__post_init__", counted_post_init)
    for k in ("zero", "diagonal_of_h"):
        assert run(tmp_path, "expander-preflow", {**_VALID["expander-preflow"], "k": k}) == 0
    assert built == []


# "degree" asks that a connected simple degree-regular graph exist on every
# block: size > degree, size * degree even, and degree >= 2 unless size = 2
@pytest.mark.parametrize(
    "expander_cfg, code",
    [
        ({"n_blocks": 1, "degree": 6, "sizes": [8]}, 0),  # K8 minus a matching
        ({"n_blocks": 1, "degree": 1, "sizes": [4]}, 2),  # two disjoint edges
        ({"n_blocks": 1, "degree": 1, "sizes": [2]}, 0),  # one edge
        ({"n_blocks": 2, "degree": 4, "sizes": [6, 4]}, 2),
        ({"n_blocks": 2, "degree": 3, "sizes": [6, 7]}, 2),
        ({"n_blocks": 2, "degree": 3, "sizes": [8]}, 2),
        ({**_EXPANDER, "seed": 6}, 2),  # no sample is drawn, so no seed is read
    ],
    ids=["degree-6-on-8", "degree-1-on-4", "degree-1-on-2", "size-not-above-degree",
         "size-times-degree-odd", "n-blocks-not-len-sizes", "expander-seed-unread"],
)
def test_expander_degree_is_an_existence_check(tmp_path, capsys, expander_cfg, code):
    cfg = {"expander": expander_cfg, "time_grid": _GRID}
    assert run(tmp_path, "expander-preflow", cfg) == code
    assert (tmp_path / "expander-preflow.csv").exists() == (code == 0)
    if "seed" in expander_cfg:
        assert "'expander.seed'" in capsys.readouterr().err


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
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(a) or eigh(a))
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
    """(OperatorMatrix constructions, EigenSystem stack evaluations) of one
    cocycle-verify run on the grid 0, step, ..., 1."""
    counts = {"operators": 0, "stacks": 0}
    post_init = operator.OperatorMatrix.__post_init__
    many = _linalg.EigenSystem._many

    def counted_post_init(self):
        counts["operators"] += 1
        post_init(self)

    def counted_many(self, f, times):
        counts["stacks"] += 1
        return many(self, f, times)

    monkeypatch.setattr(operator.OperatorMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(_linalg.EigenSystem, "_many", counted_many)
    cfg = {
        "space": {"path_graph": 12},
        "h": {"generator": {"kind": "random_hermitian"}},
        "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
        "time_grid": {"start": 0.0, "stop": 1.0, "step": step},
        "seed": 5,
    }
    assert run(tmp_path, "cocycle-verify", cfg) == 0
    monkeypatch.undo()
    return counts["operators"], counts["stacks"]


def test_cocycle_verify_builds_no_operator_per_grid_time(tmp_path, monkeypatch):
    ops_5, stacks_5 = _cocycle_verify_counts(tmp_path, monkeypatch, 0.25)
    ops_17, stacks_17 = _cocycle_verify_counts(tmp_path, monkeypatch, 0.0625)
    assert ops_5 == ops_17
    # one pass: e^{ith}, u_t (two stacks), e^{-itk} for lambda, and u_{t+s}
    # (two stacks) over the 2T - 1 <= 64 sums, one chunk
    assert stacks_5 == stacks_17 == 6


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
        "expander": {**_EXPANDER, "weights": "linear"},
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


# the library module each subcommand runs; a fresh process loads no other
_OWN_MODULE = {
    "coarse-check": "translations", "ql-profile": "locality",
    "flow-profile": "flows", "cocycle-verify": "flows",
    "diagonalize": "averaging", "expander-preflow": "expander",
    "rigidity-probe": "rigidity",
}
_DIAGONAL = {"generator": {"kind": "diagonal_from_distance"}}
# case -> (subcommand, config, whether a generator draws)
_COLD = {
    "coarse-check-diagonal": (
        "coarse-check", {"space": {"path_graph": 4}, "operator": _DIAGONAL}, False
    ),
    "ql-profile": ("ql-profile", _VALID["ql-profile"], True),
    "flow-profile": ("flow-profile", _VALID["flow-profile"], True),
    "flow-profile-diagonal": (
        "flow-profile", {**_VALID["flow-profile"], "h": _DIAGONAL, "a": _DIAGONAL}, False
    ),
    "cocycle-verify": ("cocycle-verify", _VALID["cocycle-verify"], True),
    "diagonalize": ("diagonalize", _VALID["diagonalize"], True),
    "expander-preflow": ("expander-preflow", _VALID["expander-preflow"], False),
    "rigidity-probe": ("rigidity-probe", _FUZZ["rigidity-probe"], True),
}
# one line per first import in a -X importtime report
_IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.M)


def _fresh(*args):
    """A fresh interpreter on args, with this roelab on its path."""
    src = str(Path(roelab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("case", list(_COLD))
def test_fresh_process_loads_only_what_its_subcommand_runs(tmp_path, case):
    sub, cfg, draws = _COLD[case]
    out = _fresh(
        "-X", "importtime", "-m", "roelab.cli", sub,
        "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path),
    )
    assert out.returncode == 0, out.stderr
    loaded = set(_IMPORTED.findall(out.stderr))
    subcommand_modules = {f"roelab.{m}" for m in _OWN_MODULE.values()}
    assert loaded & subcommand_modules == {f"roelab.{_OWN_MODULE[sub]}"}
    assert "numpy.ma" not in loaded
    assert ("numpy.random" in loaded) == draws


def test_main_freezes_nothing(tmp_path):
    sub, cfg, _ = _COLD["ql-profile"]
    assert run(tmp_path, sub, cfg) == 0
    assert gc.get_freeze_count() == 0


def test_entry_freezes_the_heap_before_exit(tmp_path, monkeypatch):
    sub, cfg, _ = _COLD["ql-profile"]
    args = [sub, "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", ["roelab", *args])
    try:
        with pytest.raises(SystemExit) as exited:
            entry()
        assert exited.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def _script():
    """-c code calling the [project.scripts] roelab function as its script does."""
    pyproject = Path(roelab.__file__).resolve().parents[2] / "pyproject.toml"
    [(module, func)] = re.findall(r'^roelab = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M)
    return ("-c", f"import sys; from {module} import {func}; sys.exit({func}())")


_LAUNCHERS = {"module": ("-m", "roelab.cli"), "script": _script()}
# case -> (subcommand, config or the text of a config file, exit code)
_EXITS = {
    "good": (*_COLD["coarse-check-diagonal"][:2], 0),
    "malformed": ("coarse-check", "{", 2),
    "oversize": (
        "flow-profile", {**_VALID["flow-profile"], "space": {"path_graph": space.MAX_POINTS + 1}}, 3
    ),
    "numeric": (*_scaled_generator("diagonal_from_distance"), 4),
}


@pytest.mark.parametrize("launcher", list(_LAUNCHERS))
@pytest.mark.parametrize("case", list(_EXITS))
def test_process_entry_exit_codes(tmp_path, launcher, case):
    sub, cfg, code = _EXITS[case]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = _fresh(*_LAUNCHERS[launcher], sub, "--config", str(cfg_path), "--out", str(tmp_path))
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("launcher", list(_LAUNCHERS))
def test_process_entry_help_and_unknown_subcommand(launcher):
    shown = _fresh(*_LAUNCHERS[launcher], "--help")
    assert shown.returncode == 0
    refused = _fresh(*_LAUNCHERS[launcher], "coarse-chek", "--config", "c.json")
    assert refused.returncode == 2
    assert "invalid choice: 'coarse-chek'" in refused.stderr
    for sub in _RUNNERS:
        assert sub in shown.stdout and f"'{sub}'" in refused.stderr
