"""roelab benchmark: one command, one workload run, every metric by name.

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a roelab checkout. It measures set-up time in fresh
interpreters, runs the workload's closed loop in a fresh process with BLAS
pinned to one thread (``loop.py``), checks every job's output against what
the subcommand promises and against the recorded references (``check.py``),
and prints a report, a run manifest and, as its last line, the JSON result.

With ``--trace 1`` it prints the per-layer metrics instead: it runs the loop
untraced for half the time, then the same jobs again traced (``tracer.py``),
which also gives the tracing overhead. README.md describes the workloads and
the metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
IMPORT_PROBES = 3
LOOP_TIMEOUT_S = 140  # keeps a stuck run well inside the 180 s a run may take
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fresh interpreter to ready: roelab.cli imported and the first BLAS and
# LAPACK calls done.
PROBE = (
    "import roelab.cli\n"
    "import numpy as np\n"
    "a = np.eye(8) + 0.5\n"
    "np.linalg.eigh(a @ a)\n"
    "print('ready', flush=True)\n"
)


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_setup(env, importtime=False):
    """Seconds from spawning an interpreter to its 'ready' line, raw and at
    reference host speed, and, with ``importtime``, the interpreter's
    -X importtime report."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", PROBE]
    before = calib.kernel()
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err[-2000:]}")
    return ready, calib.scaled(ready, before, calib.kernel()), err


def import_times(report):
    """(whole ``import roelab.cli``, ``roelab.space``) in seconds, from one
    -X importtime report. Top-level roelab entries sum to the whole import."""
    whole = space = 0.0
    for line in report.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if not m:
            continue
        cumulative_s, depth, name = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
        if depth == 1 and (name == "roelab" or name.startswith("roelab.")):
            whole += cumulative_s
        if name == "roelab.space":
            space = cumulative_s
    return whole, space


def run_loop(workload, seed, length, work, env, trace):
    """Run loop.py; ``length`` is ("--seconds", s) or ("--jobs", n)."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", workload,
           "--seed", str(seed), length[0], str(length[1]), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    # its own session, so a timeout also stops the job processes it started
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=LOOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode}): {err[-2000:]}")
    if err:
        sys.stderr.write(err[-2000:])
    return json.loads((work / "result.json").read_text())


def check_jobs(workload, result, work, refs):
    """Failed job indices, after printing what failed to stderr."""
    failed = set()
    by_index = {}
    for rec in result["jobs"]:
        job = workloads.Job(rec["index"], workload, rec["kind"], rec["pool_index"],
                            rec["repeat"])
        out = work / "jobs" / str(job.index) / "out"
        by_index[job.index] = out
        problems = [] if rec["rc"] == 0 else [f"exit code {rec['rc']}"]
        if not problems:
            problems = check.check_job(job.kind, job.config, out, refs.get(job.key))
        if rec["repeat"] and not problems:
            first = by_index.get(job.index - 1)
            for path in sorted(out.iterdir()):
                if first is None or path.read_bytes() != (first / path.name).read_bytes():
                    problems.append(f"{path.name}: rerun is not byte-identical")
        if problems:
            failed.add(job.index)
            print(f"job {job.index} ({job.key}) failed: " + "; ".join(problems[:5]),
                  file=sys.stderr)
    return failed


def tail(latencies, percentile):
    """(value at the percentile, jobs strictly beyond it)."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for x in latencies if x > value)


def jobs_per_s(result):
    """Completed jobs per second of busy loop time, at reference host speed."""
    return len(result["jobs"]) / sum(j["scaled_s"] for j in result["jobs"])


def loop_metrics(result, tail_percentile):
    """End-to-end metrics (times at reference host speed) and report notes."""
    jobs = result["jobs"]
    lat = [j["scaled_s"] for j in jobs]
    value, beyond = tail(lat, tail_percentile)
    metrics = {
        "jobs_per_s": (jobs_per_s(result), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "job_tail_percentile": tail_percentile,
        "job_tail_jobs_beyond": beyond,
        "raw_jobs_per_s": len(jobs) / result["loop_s"],
        "raw_job_p50_s": statistics.median(j["latency_s"] for j in jobs),
        "host_slowdown": statistics.median(result["calibration_s"]) / calib.REFERENCE_S,
    }
    for kind in sorted({j["kind"] for j in jobs}):
        ks = [j["scaled_s"] for j in jobs if j["kind"] == kind]
        notes[f"{kind}.p50_s"] = statistics.median(ks)
        notes[f"{kind}.jobs"] = len(ks)
    return metrics, notes


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "roelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checkout's git commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "roelab" / "cli.py").is_file():
        print(f"error: no roelab sources under {SRC}; run from a roelab checkout",
              file=sys.stderr)
        return 2
    refs = check.load_references(args.workload)
    if not refs:
        print(f"error: no reference outputs at {check.reference_path(args.workload)}",
              file=sys.stderr)
        return 2

    env = child_env()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.trace:
            probes = [probe_setup(env, importtime=True)[2] for _ in range(IMPORT_PROBES)]
            plain = run_loop(args.workload, args.seed, ("--seconds", args.seconds / 2),
                             work / "plain", env, False)
            # the same jobs again, traced, so the overhead compares like with like
            traced = run_loop(args.workload, args.seed, ("--jobs", len(plain["jobs"])),
                              work / "traced", env, True)
            runs = [(plain, work / "plain"), (traced, work / "traced")]
        else:
            setups = [probe_setup(env)[:2] for _ in range(SETUP_PROBES)]
            plain = run_loop(args.workload, args.seed, ("--seconds", args.seconds),
                             work / "plain", env, False)
            runs = [(plain, work / "plain")]
        failed = sum(len(check_jobs(args.workload, r, d, refs)) for r, d in runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = sum(len(r["jobs"]) for r, _ in runs)
    metrics, notes = loop_metrics(plain, workloads.WORKLOADS[args.workload].tail_percentile)
    notes["failed_frac"] = failed / attempted
    if args.trace:
        summaries = traced["trace"]
        merged = tracer.merge(s["summary"] for s in summaries)
        absent = sorted({a for s in summaries for a in s["absent"]})
        out = tracer.layer_metrics(merged, absent)
        busy_s = sum(j["latency_s"] for j in traced["jobs"])
        out["trace.coverage"] = (merged.get("top_level_s", 0.0) / busy_s, "ratio")
        out["trace.overhead"] = (jobs_per_s(traced) / jobs_per_s(plain), "ratio")
        cli_s, space_s = zip(*(import_times(r) for r in probes))
        out["cli.import_s"] = (statistics.median(cli_s), "s")
        out["space.import_s"] = (statistics.median(space_s), "s")
        notes["trace.sites"] = max((s["sites"] for s in summaries), default=0)
        notes["trace.absent"] = absent
    else:
        out = {"setup_s": (statistics.median(s for _, s in setups), "s"), **metrics}
        notes["raw_setup_s"] = statistics.median(r for r, _ in setups)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": commit(),
        "src_sha256_16": source_digest(),
        "jobs": {k: sum(1 for r, _ in runs for j in r["jobs"] if j["kind"] == k)
                 for k in workloads.WORKLOADS[args.workload].kinds},
        "nproc": os.cpu_count(),
        **plain["libraries"],
    }
    for name, (value, unit) in sorted(out.items()):
        print(f"{name:42s} {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"{name:42s} {value}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
