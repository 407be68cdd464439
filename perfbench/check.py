"""Output checker: what each roelab subcommand promises about its CSV.

``check_job`` returns a list of problems (empty when the job's outputs hold
up). It checks the files a subcommand writes, the CSV header and row count,
the subcommand's own invariants, and numeric agreement with the reference
outputs recorded by ``record.py``. Agreement is within a tolerance, not byte
for byte: a different eigensolver changes the last bits.
"""

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute plus relative slack for reference agreement. Eigenvalues from
# LAPACK and from the Jacobi solver agree to about 6e-13 at n = 128.
REF_TOL = 1e-9
RESIDUAL_TOL = 1e-9  # cocycle, lambda and discontinuity identities
ZERO_PROP_TOL = 1e-10  # the bound averaging.extract_finite_prop enforces

OUTPUTS = {
    "coarse-check": ("coarse-check.csv",),
    "ql-profile": ("ql-profile.csv",),
    "flow-profile": ("flow-profile.csv",),
    "cocycle-verify": ("cocycle-verify.csv",),
    "diagonalize": ("diagonalize.csv", "h_prime.txt"),
    "expander-preflow": ("expander-preflow.csv", "expander-preflow-wmap.csv"),
    "rigidity-probe": ("rigidity-probe.csv",),
}


def _grid_len(grid):
    return int(round((float(grid["stop"]) - float(grid["start"])) / float(grid["step"]))) + 1


def _distance_count(space_cfg):
    """Size of the default radii list: the distinct distances of the space."""
    for kind, n in space_cfg.items():
        if kind == "path_graph":
            return n
        if kind == "cycle_graph":
            return n // 2 + 1
        if kind == "complete_graph":
            return 2 if n > 1 else 1
    raise ValueError(f"unsupported space in benchmark config: {space_cfg}")


def expected_rows(kind, cfg):
    if kind in ("flow-profile", "rigidity-probe", "expander-preflow"):
        return _grid_len(cfg["time_grid"])
    if kind == "cocycle-verify":
        return _grid_len(cfg["time_grid"]) ** 2
    if kind in ("ql-profile", "coarse-check"):
        radii = len(cfg["radii"]) if "radii" in cfg else _distance_count(cfg["space"])
        return radii * (2 if cfg.get("mode") == "both" else 1)
    if kind == "diagonalize":
        return 1
    raise ValueError(f"unknown subcommand {kind!r}")


def parse_csv(text):
    """(comment line, column names, rows of dicts with float or str values)."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# roelab "):
        raise ValueError("missing '# roelab' header")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"row has {len(fields)} fields, header {len(columns)}")
        row = {}
        for col, field in zip(columns, fields):
            try:
                row[col] = float(field)
            except ValueError:
                row[col] = field
        rows.append(row)
    return lines[0], columns, rows


def _invariants(kind, cfg, name, rows):
    bad = []
    for i, r in enumerate(rows):
        where = f"{name} row {i}"
        if kind == "cocycle-verify":
            for col in ("cocycle_residual", "lambda_residual"):
                if not r[col] <= RESIDUAL_TOL:
                    bad.append(f"{where}: {col} {r[col]} > {RESIDUAL_TOL}")
        elif kind == "expander-preflow" and "measured" in r:
            gap = abs(r["measured"] - r["closed_form"])
            if not gap <= RESIDUAL_TOL:
                bad.append(f"{where}: |measured - closed_form| = {gap}")
        elif kind == "expander-preflow":
            if not r["lhs"] >= r["rhs"] - RESIDUAL_TOL:
                bad.append(f"{where}: lhs {r['lhs']} < rhs {r['rhs']}")
        elif kind == "diagonalize":
            if not r["zero_prop_residual"] <= ZERO_PROP_TOL:
                bad.append(f"{where}: zero_prop_residual {r['zero_prop_residual']}")
            if not r["h_prime_propagation"] <= r["r"]:
                bad.append(f"{where}: h_prime_propagation {r['h_prime_propagation']} > r")
        elif kind == "rigidity-probe":
            n = cfg["space"]["complete_graph"]
            if not 1.0 / math.sqrt(n) - 1e-12 <= r["delta"] <= 1.0 + 1e-12:
                bad.append(f"{where}: delta {r['delta']} outside [1/sqrt(n), 1]")
    if kind in ("ql-profile", "coarse-check"):
        low, high = ("lower", "exact") if kind == "ql-profile" else ("heuristic", "exact")
        by_mode = {}
        for r in rows:
            by_mode.setdefault(r["mode"], {})[r["radius"]] = r["value"]
        for radius, exact in by_mode.get(high, {}).items():
            bound = by_mode.get(low, {}).get(radius)
            if bound is not None and not bound <= exact * (1 + 1e-12) + 1e-12:
                bad.append(f"{name} radius {radius}: {low} {bound} > {high} {exact}")
    return bad


def _agrees(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= REF_TOL * (1.0 + abs(want))


def _compare(name, text, ref_text):
    head, cols, rows = parse_csv(text)
    ref_head, ref_cols, ref_rows = parse_csv(ref_text)
    if (head, cols) != (ref_head, ref_cols):
        return [f"{name}: header differs from reference"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    bad = []
    for i, (r, ref) in enumerate(zip(rows, ref_rows)):
        for col in cols:
            if not _agrees(r[col], ref[col]):
                bad.append(f"{name} row {i} {col}: {r[col]!r} vs reference {ref[col]!r}")
    return bad


def check_job(kind, cfg, out_dir, reference):
    """Problems with one job's outputs in ``out_dir``; ``reference`` maps an
    output file name to its recorded text, or is None when unrecorded."""
    out_dir = Path(out_dir)
    bad = []
    want_rows = expected_rows(kind, cfg)
    for name in OUTPUTS[kind]:
        path = out_dir / name
        if not path.is_file():
            bad.append(f"{name}: missing")
            continue
        if not name.endswith(".csv"):
            continue
        text = path.read_text()
        try:
            head, cols, rows = parse_csv(text)
        except ValueError as exc:
            bad.append(f"{name}: {exc}")
            continue
        if not head.startswith(f"# roelab {kind} "):
            bad.append(f"{name}: header names another subcommand")
        if len(rows) != want_rows:
            bad.append(f"{name}: {len(rows)} rows, expected {want_rows}")
        try:
            bad += _invariants(kind, cfg, name, rows)
        except KeyError as exc:
            bad.append(f"{name}: missing column {exc}")
            continue
        if reference is None:
            bad.append(f"{name}: no reference recorded")
        elif name not in reference:
            bad.append(f"{name}: reference has no such file")
        else:
            bad += _compare(name, text, reference[name])
    return bad


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload):
    """{job key: {file name: text}} for one workload, or {} if unrecorded."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
