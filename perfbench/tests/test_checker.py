"""The output checker passes real outputs and fails corrupted ones."""

import json

import pytest

import check
import workloads
from roelab.cli import main as cli_main

REFS = check.load_references("cold-cli")


def _run(tmp_path, kind):
    job = workloads.Job(0, "cold-cli", kind, 0, 0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(job.config))
    out = tmp_path / "out"
    assert cli_main([kind, "--config", str(cfg), "--out", str(out)]) == 0
    return job, out


@pytest.mark.parametrize("kind", workloads.WORKLOADS["cold-cli"].kinds)
def test_real_outputs_pass(tmp_path, kind):
    job, out = _run(tmp_path, kind)
    assert check.check_job(kind, job.config, out, REFS[job.key]) == []


def _corrupt(path, perturb, drop):
    lines = path.read_text().splitlines(keepends=True)
    if perturb:
        fields = lines[2].rstrip("\n").split(",")
        fields[2] = repr(float(fields[2]) + 1e-3)  # cocycle_residual of row 0
        lines[2] = ",".join(fields) + "\n"
    if drop:
        del lines[-1]
    path.write_text("".join(lines))


@pytest.mark.parametrize("perturb,drop", [(True, False), (False, True), (True, True)])
def test_corrupted_cocycle_csv_fails(tmp_path, perturb, drop):
    job, out = _run(tmp_path, "cocycle-verify")
    _corrupt(out / "cocycle-verify.csv", perturb, drop)
    problems = check.check_job(job.kind, job.config, out, REFS[job.key])
    assert problems
    if perturb:
        assert any("cocycle_residual" in p for p in problems)
    if drop:
        assert any("rows" in p for p in problems)


def test_missing_reference_fails(tmp_path):
    job, out = _run(tmp_path, "flow-profile")
    assert check.check_job(job.kind, job.config, out, None) == [
        "flow-profile.csv: no reference recorded"]


def test_reference_drift_beyond_tolerance_fails(tmp_path):
    job, out = _run(tmp_path, "rigidity-probe")
    ref = dict(REFS[job.key])
    lines = ref["rigidity-probe.csv"].splitlines(keepends=True)
    t, delta, disp = lines[3].rstrip("\n").split(",")
    lines[3] = f"{t},{float(delta) * (1 + 1e-6)!r},{disp}\n"
    ref["rigidity-probe.csv"] = "".join(lines)
    problems = check.check_job(job.kind, job.config, out, ref)
    assert problems == [f"rigidity-probe.csv row 1 delta: {float(delta)!r} vs "
                        f"reference {float(delta) * (1 + 1e-6)!r}"]
