"""Host-speed calibration.

The CPU speed a process gets on a shared host drifts by tens of percent
within a minute, and CPU time drifts with wall time, so longer runs do not
average it out (README.md, "Host drift"). The benchmark therefore times a
fixed kernel (about 10 ms) next to every job and scales each job's time by
``REFERENCE_S / kernel time``: a job reads what it would have taken while
the kernel took ``REFERENCE_S``.

The kernel mixes what the jobs spend their time on: small numpy column
updates (the Jacobi rotations), pure-Python integer and dict work (the
enumerations and dataclass checks) and unmarshalling code objects (imports).
It uses nothing from roelab, so a change to roelab cannot move it.
"""

import marshal
from time import perf_counter

import numpy as np

# Median kernel time on the reference host (2 cores, Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31). It sets the scale of every reported time.
REFERENCE_S = 0.011

_CODE = marshal.dumps(compile(
    "def f(x):\n    return [i * x for i in range(8)]\nclass C:\n    a = 1\n",
    "<calibration>", "exec"))


def kernel():
    """Seconds the fixed calibration work takes now."""
    start = perf_counter()
    a = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    for i in range(600):
        p, q = i % 16, (i * 7 + 3) % 16
        x = a[:, p].copy()
        a[:, p] = 0.6 * x + 0.8 * a[:, q]
        a[:, q] = -0.8 * x + 0.6 * a[:, q]
    s = 0
    d = {}
    for i in range(20000):
        s += (i * i) % 7
        d[i & 255] = s
    for _ in range(200):
        exec(marshal.loads(_CODE), {})
    return perf_counter() - start


def scaled(seconds, before, after):
    """A time measured between two kernel timings, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
