"""Experiment runner: JSON config in, deterministic CSV out.

Every subcommand reads a single JSON config (schema in the README), derives
all randomness from one seed, and writes CSV whose first line names the
subcommand, the config hash, and the column units. Re-running a config
reproduces the output byte for byte.

Exit codes: 0 success, 2 config error, 3 size-guard refusal, 4 numeric
validation failure.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import averaging, expander, flows, locality, rigidity, space, translations
from .errors import ConfigError, NumericCheckError, SizeGuardError
from .operator import (
    OperatorMatrix,
    commutator,
    diagonal,
    load_matrix,
    propagation,
    save_matrix,
    truncate,
)
from ._linalg import spectral_norm
from .spectral import hermitian_eig


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _config_hash(cfg) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path, subcommand, cfg_hash, units, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# roelab {subcommand} config_hash={cfg_hash} units={units}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _section(cfg, key):
    """cfg[key], which must be a JSON object (a missing key exits 2 too)."""
    value = cfg[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _number(value, what, integer=False):
    """A config number as a float, or as an int where the config means one.

    bool, str, None, NaN and infinities are config errors, never coerced.
    """
    kinds = (int,) if integer else (int, float)
    if type(value) not in kinds or not -math.inf < value < math.inf:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value if integer else float(value)


# graph kind -> (builder, smallest size)
_GRAPHS = {
    "path_graph": (space.path_graph, 1),
    "cycle_graph": (space.cycle_graph, 3),
    "complete_graph": (space.complete_graph, 1),
}


def _build_space(cfg):
    if "edge_list" in cfg:
        return space.load_edge_list(cfg["edge_list"])
    for kind, (build, least) in _GRAPHS.items():
        if kind in cfg:
            size = cfg[kind]
            if type(size) is not int or size < least:
                raise ConfigError(
                    f"{kind} must be an integer of at least {least}, got {size!r}"
                )
            return build(size)
    if "coarse_union" in cfg:
        parts = cfg["coarse_union"]
        if not isinstance(parts, list):
            raise ConfigError(f"coarse_union must be a list, got {parts!r}")
        return space.coarse_union(
            [_build_space(_section(parts, i)) for i in range(len(parts))]
        )
    raise ConfigError(f"unrecognized space source: {sorted(cfg)}")


def _build_operator(cfg, sp, rng):
    if "file" in cfg:
        return load_matrix(cfg["file"], sp)
    if "generator" not in cfg:
        raise ConfigError(f"unrecognized operator source: {sorted(cfg)}")
    gen = _section(cfg, "generator")
    kind = gen.get("kind")
    n = sp.n_points
    scale = _number(gen.get("scale", 1.0), "scale")
    if kind == "diagonal_from_distance":
        base = _number(gen.get("base_point", 0), "base_point", integer=True)
        if not 0 <= base < n:
            raise ConfigError(
                f"base_point must be a point index below {n}, got {base}"
            )
        return diagonal(sp, scale * sp.dist[base])
    if kind == "diagonal_random":
        return diagonal(sp, scale * rng.standard_normal(n))
    if kind == "random_hermitian":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return OperatorMatrix(sp, scale * 0.5 * (m + m.conj().T))
    if kind == "random_hermitian_banded":
        band = _number(gen["band"], "band")
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = OperatorMatrix(sp, scale * 0.5 * (m + m.conj().T))
        return truncate(herm, band)
    raise ConfigError(f"unknown operator generator kind {kind!r}")


def _build_times(cfg):
    try:
        start, stop, step = (_number(cfg[k], k) for k in ("start", "stop", "step"))
    except KeyError as exc:
        raise ConfigError(f"time_grid missing key {exc}") from None
    if step <= 0:
        raise ConfigError("time_grid step must be positive")
    n_steps = int(round((stop - start) / step))
    if n_steps < 0 or start > stop:
        raise ConfigError("time_grid is empty (stop < start)")
    return start + step * np.arange(n_steps + 1)


def _radii(cfg, sp):
    if "radii" not in cfg:
        return [float(r) for r in sp.distance_set()]
    radii = cfg["radii"]
    if not isinstance(radii, list) or not all(
        type(r) in (int, float) and math.isfinite(r) and r >= 0 for r in radii
    ):
        raise ConfigError(
            f"radii must be a list of finite, nonnegative numbers, got {radii!r}"
        )
    return [float(r) for r in radii]


def _output_name(cfg, subcommand):
    name = cfg.get("output", f"{subcommand}.csv")
    # a plain file name keeps the CSV inside --out
    if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
        raise ConfigError(f"output must be a plain file name, got {name!r}")
    return name


def _modes(cfg, both):
    mode = cfg.get("mode", both[0])
    if mode == "both":
        return list(both)
    if mode not in both:
        raise ConfigError(f"mode must be one of {both + ('both',)}, got {mode!r}")
    return [mode]


def _run_coarse_check(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    h = _build_operator(_section(cfg, "operator"), sp, rng)
    rows = []
    for mode in _modes(cfg, ("heuristic", "exact")):
        for r in _radii(cfg, sp):
            value = translations.coarseness_modulus(
                h, r, mode, allow_large=bool(cfg.get("allow_large", False))
            )
            rows.append((r, value, mode))
    _write_csv(
        out, "coarse-check", cfg_hash,
        "radius:distance value:operator-norm",
        ("radius", "value", "mode"), rows,
    )


def _run_ql_profile(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    a = _build_operator(_section(cfg, "operator"), sp, rng)
    rows = []
    for mode in _modes(cfg, ("lower", "exact")):
        prof = locality.ql_profile(a, _radii(cfg, sp), mode)
        rows.extend(zip(prof.radii, prof.values, [mode] * len(prof.radii)))
    _write_csv(
        out, "ql-profile", cfg_hash,
        "radius:distance value:operator-norm",
        ("radius", "value", "mode"), rows,
    )


def _run_flow_profile(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    h = _build_operator(_section(cfg, "h"), sp, rng)
    a = _build_operator(_section(cfg, "a"), sp, rng)
    comm = commutator(h, a)
    es = hermitian_eig(h)
    rows = []
    for t in _build_times(_section(cfg, "time_grid")):
        u = es.exp(t)
        moved = u @ a @ u.H
        modulus = spectral_norm(moved.entries - a.entries)
        if t != 0.0:
            residual = spectral_norm(
                (moved.entries - a.entries) / t - 1j * comm.entries
            )
        else:
            residual = 0.0
        rows.append((t, modulus, residual))
    _write_csv(
        out, "flow-profile", cfg_hash,
        "t:seconds modulus:operator-norm derivative_residual:operator-norm",
        ("t", "modulus", "derivative_residual"), rows,
    )


def _run_cocycle_verify(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    h = _build_operator(_section(cfg, "h"), sp, rng)
    k = _build_operator(_section(cfg, "k"), sp, rng)
    times = _build_times(_section(cfg, "time_grid"))
    family = flows.cocycle_from_generators(h, k, times)
    # the intertwining direction for the scalar-line check is reversed
    lam_family = flows.cocycle_from_generators(k, h, times)
    eh = family.base_flow.eigensystem
    ek = lam_family.base_flow.eigensystem
    rows = []
    for t in times:
        lam = flows.lambda_scalar_residual(eh, ek, lam_family, t)
        for s in times:
            rows.append((t, s, flows.cocycle_residual(family, t, s), lam))
    _write_csv(
        out, "cocycle-verify", cfg_hash,
        "t:seconds s:seconds residuals:operator-norm",
        ("t", "s", "cocycle_residual", "lambda_residual"), rows,
    )


def _run_diagonalize(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    h = _build_operator(_section(cfg, "h"), sp, rng)
    r = _number(cfg["r"], "r")
    report = averaging.extract_finite_prop(h, r)
    save_matrix(report.h_prime, Path(out).parent / "h_prime.txt")
    _write_csv(
        out, "diagonalize", cfg_hash,
        "r:distance defect:operator-norm residual:operator-norm",
        ("r", "defect", "zero_prop_residual", "h_prime_propagation"),
        [(r, report.defect, report.zero_prop_residual,
          propagation(report.h_prime))],
    )


def _build_family(cfg, seed):
    exp_cfg = _section(cfg, "expander")
    sizes = exp_cfg["sizes"]
    if not isinstance(sizes, list):
        raise ConfigError(f"sizes must be a list of integers, got {sizes!r}")
    return expander.make_regular_family(
        _number(exp_cfg["n_blocks"], "n_blocks", integer=True),
        _number(exp_cfg["degree"], "degree", integer=True),
        [_number(size, "sizes", integer=True) for size in sizes],
        _number(exp_cfg.get("seed", seed), "seed", integer=True),
        exp_cfg.get("weights", "quadratic"),
    )


def _run_expander_preflow(cfg, rng, out, cfg_hash, seed):
    fam = _build_family(cfg, seed)
    times = _build_times(_section(cfg, "time_grid"))
    k_kind = cfg.get("k", "zero")
    if k_kind == "zero":
        k = np.zeros(fam.union.n_points)
    elif k_kind == "diagonal_of_h":
        k = np.real(np.diag(expander.generator(fam).entries))
    else:
        raise ConfigError(f"unknown k choice {k_kind!r}")
    rows = []
    wmap_rows = []
    for t in times:
        rep = expander.discontinuity_profile(fam, t)
        rows.append((t, rep.measured, rep.closed_form, rep.block_of_max))
        bound = expander.wmap_lower_bound(fam, k, t)
        wmap_rows.append((t, bound.lhs, bound.rhs))
    _write_csv(
        out, "expander-preflow", cfg_hash,
        "t:seconds measured:operator-norm closed_form:operator-norm",
        ("t", "measured", "closed_form", "block_of_max"), rows,
    )
    wmap_path = Path(out).with_name(Path(out).stem + "-wmap.csv")
    _write_csv(
        wmap_path, "expander-preflow", cfg_hash,
        "t:seconds lhs:operator-norm rhs:operator-norm",
        ("t", "lhs", "rhs"), wmap_rows,
    )


def _run_rigidity_probe(cfg, rng, out, cfg_hash):
    sp = _build_space(_section(cfg, "space"))
    h = _build_operator(_section(cfg, "h"), sp, rng)
    times = _build_times(_section(cfg, "time_grid"))
    rows = [
        (t, rep.delta, rep.displacement)
        for t, rep in zip(times, rigidity.flow_displacement_sweep(h, times))
    ]
    _write_csv(
        out, "rigidity-probe", cfg_hash,
        "t:seconds delta:modulus displacement:distance",
        ("t", "delta", "displacement"), rows,
    )


_RUNNERS = {
    "coarse-check": _run_coarse_check,
    "ql-profile": _run_ql_profile,
    "flow-profile": _run_flow_profile,
    "cocycle-verify": _run_cocycle_verify,
    "diagonalize": _run_diagonalize,
    "expander-preflow": _run_expander_preflow,
    "rigidity-probe": _run_rigidity_probe,
}


def _parser():
    p = argparse.ArgumentParser(
        prog="roelab",
        description="Finite-scale experiments on operators over coarse spaces.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--threads", type=int, default=1)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        seed = args.seed
        if seed is None:
            seed = _number(cfg.get("seed", 0), "seed", integer=True)
        cfg["seed"] = seed
        cfg_hash = _config_hash(cfg)
        rng = np.random.default_rng(seed)
        out = Path(args.out) / _output_name(cfg, args.subcommand)
        out.parent.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "expander-preflow":
            _RUNNERS[args.subcommand](cfg, rng, out, cfg_hash, seed)
        else:
            _RUNNERS[args.subcommand](cfg, rng, out, cfg_hash)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: config: missing key {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an unreadable input file, or an --out or "output" that is taken
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: size-guard: {exc}", file=sys.stderr)
        return 3
    except (NumericCheckError, ValueError, ArithmeticError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
