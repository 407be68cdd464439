"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record.py [workload ...]

Runs every config in each workload's pool once, in-process with BLAS pinned
to one thread as in the benchmark, and writes ``reference/<workload>.json.gz``
mapping each job key to the text of its CSV outputs. Record only at a commit
whose outputs are trusted: the benchmark treats these as ground truth.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import gzip  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from roelab import cli  # noqa: E402


def record(workload):
    w = workloads.WORKLOADS[workload]
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in w.kinds:
            for k in range(w.pool_size):
                job = workloads.Job(0, workload, kind, k, 0)
                job_dir = Path(tmp) / job.key
                job_dir.mkdir(parents=True)
                cfg = job_dir / "config.json"
                cfg.write_text(json.dumps(job.config))
                rc = cli.main([kind, "--config", str(cfg), "--out", str(job_dir / "out")])
                if rc != 0:
                    raise SystemExit(f"{job.key}: exit code {rc}")
                refs[job.key] = {name: (job_dir / "out" / name).read_text()
                                 for name in check.OUTPUTS[kind] if name.endswith(".csv")}
    path = check.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    # mtime=0 keeps the archive byte-identical when the outputs are
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(refs, sort_keys=True, indent=0).encode())
    print(f"{path}: {len(refs)} configs")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
