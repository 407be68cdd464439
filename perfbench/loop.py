"""One workload run: a single-client closed loop over roelab CLI jobs.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It runs whole cycles of the workload's jobs until ``--seconds`` have passed,
timing the calibration kernel (``calib.py``) between jobs, then writes one
JSON result: per-job latency, scaled latency and exit code, the loop's wall
time, peak RSS and, when traced, the per-layer span summary.

In-process workloads call ``roelab.cli.main`` directly; ``cold-cli`` starts
a fresh ``python -m roelab.cli`` process per job.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
import tracer
import workloads

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 120


def warm_up():
    """First BLAS and LAPACK calls, which are much slower than later ones."""
    a = np.eye(8) + 0.5
    np.linalg.eigh(a @ a)


def libraries():
    """Versions and BLAS build of the numpy and scipy the jobs use."""
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}).get("openblas configuration",
                                        deps.get(k, {}).get("version"))
                 for k in ("blas", "lapack")},
        "blas_threads_env": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
    }


def _prepare(work, job):
    """Write the job's config; return its CLI arguments."""
    job_dir = work / "jobs" / str(job.index)
    out = job_dir / "out"
    out.mkdir(parents=True)
    cfg_path = job_dir / "config.json"
    cfg_path.write_text(json.dumps(job.config))
    return [job.kind, "--config", str(cfg_path), "--out", str(out)]


def _run_in_process(cli_args):
    cli = sys.modules["roelab.cli"]  # looked up per call: tracing may rebind main
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash counts as a failed job; keep looping
        print(f"job crashed: {exc!r}", file=sys.stderr)
        rc = 1
    return rc, time.perf_counter() - start


def _run_fresh_process(cli_args, summary_path):
    if summary_path is None:
        cmd = [sys.executable, "-m", "roelab.cli", *cli_args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), "--summary",
               str(summary_path), "--", *cli_args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc = -1
    return rc, time.perf_counter() - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    length = p.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float, help="run whole cycles for this long")
    length.add_argument("--jobs", type=int, help="run exactly this many jobs")
    p.add_argument("--work", required=True, help="directory for configs and outputs")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    active = None
    if not w.fresh_process:
        import roelab.cli  # noqa: F401  (the workload process's own set-up)

        warm_up()
        if args.trace:
            active = tracer.Tracer().install()

    summaries = []
    jobs = []
    per_cycle = workloads.cycle_length(args.workload)
    calib.kernel()  # its own first call pays one-time costs
    cal = [calib.kernel()]
    start = time.perf_counter()
    for job in workloads.jobs(args.workload, args.seed):
        if args.jobs is not None:
            if job.index == args.jobs:
                break
        elif job.index % per_cycle == 0 and time.perf_counter() - start >= args.seconds:
            break
        cli_args = _prepare(work, job)
        if w.fresh_process:
            summary = work / "jobs" / str(job.index) / "trace.json" if args.trace else None
            rc, latency = _run_fresh_process(cli_args, summary)
            if summary is not None and summary.is_file():
                summaries.append(json.loads(summary.read_text()))
        else:
            rc, latency = _run_in_process(cli_args)
        cal.append(calib.kernel())
        jobs.append({"index": job.index, "kind": job.kind, "pool_index": job.pool_index,
                     "repeat": job.repeat, "rc": rc, "latency_s": latency,
                     "scaled_s": calib.scaled(latency, cal[-2], cal[-1])})
    loop_s = time.perf_counter() - start

    who = resource.RUSAGE_CHILDREN if w.fresh_process else resource.RUSAGE_SELF
    result = {
        "jobs": jobs,
        "loop_s": loop_s,
        "calibration_s": cal,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "libraries": libraries(),
    }
    if active is not None:
        summaries.append(active.report())
    if args.trace:
        result["trace"] = summaries
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
