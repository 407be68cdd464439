"""Experiment runner: JSON config in, deterministic CSV out.

Every subcommand reads a single JSON config (schema in the README), derives
all randomness from one seed, and writes CSV whose first line names the
subcommand, the config hash, and the column units. Re-running a config
reproduces the output byte for byte.

Exit codes: 0 success, 2 config error, 3 size-guard refusal, 4 numeric
validation failure.

A fresh process loads only what its subcommand runs: each runner imports
its own library module, and numpy.random loads at the first draw.
"""

import argparse
import functools
import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import space
from ._linalg import check, hermitian_eig
from .errors import ConfigError, NumericCheckError, SizeGuardError
from .operator import (
    OperatorMatrix,
    diagonal,
    load_matrix,
    propagation,
    save_matrix,
    truncate,
)


def _config_hash(cfg) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_csv(path, subcommand, cfg_hash, units, header, columns):
    """One column per header name: an array of floats, checked finite before
    the file is opened, or of ints, or a list of strings."""
    columns = [np.asarray(column) for column in columns]
    for name, col in zip(header, columns):
        if col.dtype.kind == "f":
            check(np.abs(col), np.finfo(float).max, lambda i: f"column {name!r}")
    cell = {"f": "%.17g", "i": "%d", "U": "%s"}  # by dtype kind
    line = ",".join(cell[col.dtype.kind] for col in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# roelab {subcommand} config_hash={cfg_hash} units={units}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in columns)))


class _Section(dict):
    """A JSON object of the config that records which of its keys were read."""

    def __init__(self, obj):
        super().__init__(obj)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _unread(value, path=""):
    """The dotted path of every key in value, or below it, that was not read."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _unread(item, f"{path}{i}.")
    elif isinstance(value, _Section):
        for key, item in value.items():
            read = key in value.read
            yield from _unread(item, f"{path}{key}.") if read else [path + key]


# kind -> (types, description), matched by type(): a bool is neither int nor number
_KINDS = {
    "object": ((dict, _Section), "a JSON object"), "list": ((list,), "a list"),
    "str": ((str,), "a string"), "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"), "number": ((int, float), "a finite number"),
}
_REQUIRED = object()

# the most CSV rows one run may write: T time points, T^2 for cocycle-verify,
# or radii x modes for a profile
MAX_ROWS = 100_000
# how far (stop - start) / step may lie from a whole number, relative to
# max(|start|, |stop|, step) / step, the scale of its rounding error: a time
# grid ends on stop
GRID_TOL = 1e-12


def _check(value, what, kind, least):
    types, name = _KINDS[kind]
    # abs() compares an int exactly, so one too large for a float fails
    if type(value) not in types or (
        kind == "number" and not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{what} must be {name}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{what} must be at least {least}, got {value!r}")
    return float(value) if kind == "number" else value


def _get(cfg, key, kind, default=_REQUIRED, least=None):
    """cfg[key], which must be of ``kind``; values are never coerced.

    ``kind`` is "object", "list", "str", "bool", "int" or "number" (finite,
    returned as a float). ``least`` is a lower bound for an int or number.
    A missing key gives ``default``, or is a ConfigError if there is none.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r}")
        return default
    return _check(cfg[key], key, kind, least)


def _get_list(cfg, key, kind, least=None):
    """_get for a required list each of whose items is of ``kind``."""
    items = _get(cfg, key, "list")
    return [_check(item, f"{key} item", kind, least) for item in items]


def _path(cfg, key, default=_REQUIRED):
    """_get for a file path; open() would refuse one holding a NUL byte."""
    value = _get(cfg, key, "str", default)
    if "\0" in value:
        raise ConfigError(f"{key} must not contain a NUL byte, got {value!r}")
    return value


def _choice(cfg, key, choices, default):
    """_get for a string that must be one of ``choices``."""
    value = _get(cfg, key, "str", default)
    if value not in choices:
        raise ConfigError(f"{key} must be one of {sorted(choices)}, got {value!r}")
    return value


# graph kind -> (builder, smallest size)
_GRAPHS = {
    "path_graph": (space.path_graph, 1),
    "cycle_graph": (space.cycle_graph, 3),
    "complete_graph": (space.complete_graph, 1),
}


def _build_space(cfg):
    sources = [key for key in ("edge_list", *_GRAPHS, "coarse_union") if key in cfg]
    if len(sources) > 1:
        raise ConfigError(f"space needs one source, got {sources}")
    if "edge_list" in cfg:
        return space.load_edge_list(_path(cfg, "edge_list"))
    for kind, (build, least) in _GRAPHS.items():
        if kind in cfg:
            return build(_get(cfg, kind, "int", least=least))
    if "coarse_union" in cfg:
        parts = _get_list(cfg, "coarse_union", "object")
        if not parts:
            raise ConfigError("coarse_union needs at least one block")
        blocks = []
        for part in parts:
            blocks.append(_build_space(part))
            # refuse before building the next block, not after the last
            space.check_points(sum(b.n_points for b in blocks))
        return space.coarse_union(blocks)
    raise ConfigError(f"unrecognized space source: {sorted(cfg)}")


def _scaled(scale, values):
    with np.errstate(over="ignore"):  # inf, refused by the finite check
        return scale * values


def _build_operator(cfg, sp, rng):
    if "file" in cfg:
        return load_matrix(_path(cfg, "file"), sp)
    gen = _get(cfg, "generator", "object")
    kind = _get(gen, "kind", "str")
    n = sp.n_points
    scale = _get(gen, "scale", "number", 1.0)
    if kind == "diagonal_from_distance":
        base = _get(gen, "base_point", "int", 0, least=0)
        if base >= n:
            raise ConfigError(
                f"base_point must be a point index below {n}, got {base}"
            )
        return diagonal(sp, _scaled(scale, sp.dist[base]))
    if kind == "diagonal_random":
        return diagonal(sp, _scaled(scale, rng().standard_normal(n)))
    if kind in ("random_hermitian", "random_hermitian_banded"):
        band = _get(gen, "band", "number", least=0) if kind.endswith("banded") else None
        draw = rng().standard_normal
        m = draw((n, n)) + 1j * draw((n, n))
        herm = OperatorMatrix(sp, _scaled(scale * 0.5, m + m.conj().T))
        return herm if band is None else truncate(herm, band)
    raise ConfigError(f"unknown operator generator kind {kind!r}")


def _operators(cfg, rng, *keys):
    """Build the "space" section, then one operator per section in ``keys``;
    ``rng()`` is the run's one generator, made at its first draw."""
    sp = _build_space(_get(cfg, "space", "object"))
    return [_build_operator(_get(cfg, key, "object"), sp, rng) for key in keys]


def _build_times(cfg, square=False):
    """The time grid; ``square`` when a run writes a row per pair of times."""
    start, stop, step = (_get(cfg, k, "number") for k in ("start", "stop", "step"))
    if step <= 0 or start > stop:
        raise ConfigError("time_grid needs step > 0 and start <= stop")
    steps = (stop - start) / step  # a float, inf if the span overflows
    count = steps + 1
    rows = count * count if square else count
    if not rows <= MAX_ROWS:
        raise SizeGuardError("time_grid rows", MAX_ROWS, rows)
    n_steps = int(round(steps))
    with np.errstate(over="ignore"):  # a time that overflows is refused below
        times = start + step * np.arange(n_steps + 1)
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ConfigError(
            "time_grid must be finite and strictly increasing after rounding"
        )
    if abs(steps - n_steps) > GRID_TOL * max(abs(start), abs(stop), step) / step:
        raise ConfigError(
            f"time_grid (stop - start) / step = {steps!r} is not a whole number "
            f"of steps; the nearest valid stop is {float(times[-1])!r}"
        )
    return times


def _radii(cfg, sp, modes):
    """The radii (default: sp's distance set), refused if a row per radius
    and mode would pass MAX_ROWS."""
    if "radii" not in cfg:
        radii = [float(r) for r in sp.distance_set()]
    else:
        radii = _get_list(cfg, "radii", "number", least=0)
    rows = len(radii) * len(modes)
    if rows > MAX_ROWS:
        raise SizeGuardError("profile rows", MAX_ROWS, rows)
    return radii


def _output_name(cfg, subcommand):
    name = _path(cfg, "output", f"{subcommand}.csv")
    # a plain file name keeps the CSV inside --out
    if name in ("", "..") or Path(name).name != name:
        raise ConfigError(f"output must be a plain file name, got {name!r}")
    return name


def _modes(cfg, both):
    mode = _choice(cfg, "mode", both + ("both",), both[0])
    return list(both) if mode == "both" else [mode]


def _write_profile(out, subcommand, cfg_hash, radii, modes, values):
    """The CSV of a (modes, radii) array of operator norms, mode-major."""
    _write_csv(
        out, subcommand, cfg_hash,
        "radius:distance value:operator-norm",
        ("radius", "value", "mode"),
        (np.tile(radii, len(modes)), values.ravel(), np.repeat(modes, len(radii))),
    )


# Each runner imports its library module, reads its config and returns its
# computation, which takes the output path and the config hash and writes the
# CSV. The module is imported first: imported after the operators are built,
# it raised a fresh process's peak RSS.


def _run_coarse_check(cfg, rng):
    from . import translations
    modes = _modes(cfg, ("heuristic", "exact"))
    allow_large = _get(cfg, "allow_large", "bool", False)
    [h] = _operators(cfg, rng, "operator")
    radii = _radii(cfg, h.space, modes)

    def compute(out, cfg_hash):
        values = translations.coarseness_moduli(
            h, radii, modes, allow_large=allow_large
        )
        _write_profile(out, "coarse-check", cfg_hash, radii, modes, values)

    return compute


def _run_ql_profile(cfg, rng):
    from . import locality
    modes = _modes(cfg, ("lower", "exact"))
    [a] = _operators(cfg, rng, "operator")
    radii = _radii(cfg, a.space, modes)

    def compute(out, cfg_hash):
        values = locality.ql_values(a, radii, modes)
        _write_profile(out, "ql-profile", cfg_hash, radii, modes, values)

    return compute


def _run_flow_profile(cfg, rng):
    from . import flows
    times = _build_times(_get(cfg, "time_grid", "object"))
    h, a = _operators(cfg, rng, "h", "a")

    def compute(out, cfg_hash):
        _write_csv(
            out, "flow-profile", cfg_hash,
            "t:seconds modulus:operator-norm derivative_residual:operator-norm",
            ("t", "modulus", "derivative_residual"),
            (times, *flows.flow_profile(h, a, times)),
        )

    return compute


def _run_cocycle_verify(cfg, rng):
    from . import flows
    times = _build_times(_get(cfg, "time_grid", "object"), square=True)
    h, k = _operators(cfg, rng, "h", "k")

    def compute(out, cfg_hash):
        eh, ek = hermitian_eig(h), hermitian_eig(k)
        family = flows.cocycle_from_eigensystems(eh, ek)
        residuals, lam = flows.cocycle_residuals(family, ek, times, times)
        t, s = np.meshgrid(times, times, indexing="ij")
        _write_csv(
            out, "cocycle-verify", cfg_hash,
            "t:seconds s:seconds residuals:operator-norm",
            ("t", "s", "cocycle_residual", "lambda_residual"),
            (t.ravel(), s.ravel(), residuals.ravel(), np.repeat(lam, len(times))),
        )

    return compute


def _run_diagonalize(cfg, rng):
    from . import averaging
    r = _get(cfg, "r", "number", least=0)
    [h] = _operators(cfg, rng, "h")

    def compute(out, cfg_hash):
        h_prime, defect, zero_prop_residual = averaging.extract_finite_prop(h, r)
        save_matrix(h_prime, Path(out).parent / "h_prime.txt")
        _write_csv(
            out, "diagonalize", cfg_hash,
            "r:distance defect:operator-norm residual:operator-norm",
            ("r", "defect", "zero_prop_residual", "h_prime_propagation"),
            ([r], [defect], [zero_prop_residual], [propagation(h_prime)]),
        )

    return compute


def _family_args(cfg):
    """The block sizes and weights of the "expander" section. n_blocks must
    count the sizes, and degree is the check that a connected degree-regular
    graph exists on every block; the values read no graph."""
    from . import expander
    exp_cfg = _get(cfg, "expander", "object")
    weights = _choice(exp_cfg, "weights", expander.WEIGHT_PRESETS, "quadratic")
    n_blocks = _get(exp_cfg, "n_blocks", "int", least=1)
    degree = _get(exp_cfg, "degree", "int", least=1)
    sizes = _get_list(exp_cfg, "sizes", "int", least=1)
    if len(sizes) != n_blocks:
        raise ConfigError(f"n_blocks is {n_blocks}, but {len(sizes)} sizes are given")
    expander.require_regular_blocks(sizes, degree)
    return sizes, weights


def _run_expander_preflow(cfg, rng):
    from . import expander
    k_kind = _choice(cfg, "k", ("zero", "diagonal_of_h"), "zero")
    times = _build_times(_get(cfg, "time_grid", "object"))
    fam = expander.block_family(*_family_args(cfg))

    def compute(out, cfg_hash):
        if k_kind == "zero":
            k = np.zeros(fam.n_points)
        else:
            # the diagonal of h = sum_n w(n) p_n: w(n) / |X_n| on block n
            k = np.repeat(fam.weights / fam.sizes, fam.sizes)
        measured, closed_form, block, lhs = expander.preflow_profiles(fam, k, times)
        _write_csv(
            out, "expander-preflow", cfg_hash,
            "t:seconds measured:operator-norm closed_form:operator-norm",
            ("t", "measured", "closed_form", "block_of_max"),
            (times, measured, closed_form, block),
        )
        # the w-map's corner bound rhs is the closed form
        wmap_path = Path(out).with_name(Path(out).stem + "-wmap.csv")
        _write_csv(
            wmap_path, "expander-preflow", cfg_hash,
            "t:seconds lhs:operator-norm rhs:operator-norm",
            ("t", "lhs", "rhs"), (times, lhs, closed_form),
        )

    return compute


def _run_rigidity_probe(cfg, rng):
    from . import rigidity
    times = _build_times(_get(cfg, "time_grid", "object"))
    [h] = _operators(cfg, rng, "h")

    def compute(out, cfg_hash):
        _, deltas, displacements = rigidity.flow_displacement_sweep(h, times)
        _write_csv(
            out, "rigidity-probe", cfg_hash,
            "t:seconds delta:modulus displacement:distance",
            ("t", "delta", "displacement"), (times, deltas, displacements),
        )

    return compute


_RUNNERS = {
    "coarse-check": _run_coarse_check,
    "ql-profile": _run_ql_profile,
    "flow-profile": _run_flow_profile,
    "cocycle-verify": _run_cocycle_verify,
    "diagonalize": _run_diagonalize,
    "expander-preflow": _run_expander_preflow,
    "rigidity-probe": _run_rigidity_probe,
}


@functools.cache
def _parser():
    """The argument parser; built on the first main() call of a process."""
    p = argparse.ArgumentParser(
        prog="roelab",
        description="Finite-scale experiments on operators over coarse spaces.",
    )
    p.add_argument("subcommand", choices=_RUNNERS)
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--threads", type=int, default=1)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh, object_hook=_Section)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: bad JSON or bad UTF-8; RecursionError: nested too deep
            raise ConfigError(f"cannot read config: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        seeds = cfg if args.seed is None else {"seed": args.seed}
        cfg["seed"] = _get(seeds, "seed", "int", 0, least=0)
        cfg.read.add("seed")  # read above, or overridden by --seed
        out = Path(args.out) / _output_name(cfg, args.subcommand)
        seed = cfg["seed"]
        rng = functools.cache(lambda: np.random.default_rng(seed))
        compute = _RUNNERS[args.subcommand](cfg, rng)
        unread = list(_unread(cfg))
        if unread:
            raise ConfigError(f"keys that {args.subcommand} does not read: {unread}")
        out.parent.mkdir(parents=True, exist_ok=True)
        compute(out, _config_hash(cfg))
    except (ConfigError, OSError) as exc:
        # OSError: an unreadable input file, or an --out or "output" that is taken
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: size-guard: {exc}", file=sys.stderr)
        return 3
    except (NumericCheckError, ValueError, ArithmeticError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    return 0


def entry():
    """The process entry, of ``python -m roelab.cli`` and the ``roelab``
    script: main(), then exit without the shutdown collections over every
    object the run allocated. main() itself freezes nothing, so that it can
    be called in-process any number of times."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
