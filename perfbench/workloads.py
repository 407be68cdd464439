"""The three workloads: which roelab CLI jobs each runs, and in what order.

Every job's config comes from a fixed pool per job type; pool entry k sets
the config's ``seed`` to ``POOL_SEED_BASE + k``, so it draws different random
operators from every other entry. The workload seed only chooses the order in
which a run walks each pool. That keeps two promises at once: the same
workload seed gives the same jobs, and every job output has a reference
recorded in ``reference/`` (see ``record.py``).

Within one process the jobs of a run use distinct pool entries until a pool
is exhausted. Distinct seeds matter because ``roelab.spectral`` memoizes
eigendecompositions in a process-wide cache; a repeated config would hit it,
which a CLI user, who gets a fresh process per call, never sees. A pool that
wraps around repeats an entry only after ``types * pool`` jobs, far more
generators than the cache's 64 entries hold.
"""

import copy
import random
from dataclasses import dataclass

POOL_SEED_BASE = 1000

_GRID9 = {"start": -1.0, "stop": 1.0, "step": 0.25}

# One config template per (workload, job type); sizes follow the profile in
# README.md and were chosen so the job types of a workload cost about the same.
TEMPLATES = {
    "spectral-sweep": {
        "flow-profile": {
            "space": {"path_graph": 20},
            "h": {"generator": {"kind": "random_hermitian"}},
            "a": {"generator": {"kind": "random_hermitian_banded", "band": 2}},
            "time_grid": _GRID9,
        },
        "rigidity-probe": {
            "space": {"complete_graph": 24},
            "h": {"generator": {"kind": "random_hermitian"}},
            "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.25},
        },
        "expander-preflow": {
            "expander": {"n_blocks": 4, "degree": 4, "sizes": [16, 16, 16, 16]},
            "time_grid": {"start": -0.5, "stop": 0.5, "step": 0.0625},
        },
        "cocycle-verify": {
            "space": {"path_graph": 12},
            "h": {"generator": {"kind": "random_hermitian"}},
            "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
            "time_grid": {"start": 0.0, "stop": 1.0, "step": 0.25},
        },
    },
    "exhaustive-small": {
        "ql-profile": {
            "space": {"cycle_graph": 9},
            "operator": {"generator": {"kind": "random_hermitian"}},
            "mode": "both",
            "radii": [0, 1, 2],
        },
        "coarse-check": {
            "space": {"path_graph": 6},
            "operator": {"generator": {"kind": "diagonal_random"}},
            "mode": "both",
            "radii": [0, 1, 2],
        },
        "diagonalize": {
            "space": {"path_graph": 12},
            "h": {"generator": {"kind": "random_hermitian"}},
            "r": 2.0,
        },
    },
    # The small configs of acceptance criterion 13 (n <= 8).
    "cold-cli": {
        "coarse-check": {
            "space": {"path_graph": 5},
            "operator": {"generator": {"kind": "diagonal_from_distance"}},
            "mode": "both",
        },
        "ql-profile": {
            "space": {"cycle_graph": 6},
            "operator": {"generator": {"kind": "random_hermitian"}},
            "mode": "both",
        },
        "flow-profile": {
            "space": {"path_graph": 5},
            "h": {"generator": {"kind": "random_hermitian"}},
            "a": {"generator": {"kind": "random_hermitian_banded", "band": 2}},
            "time_grid": _GRID9,
        },
        "cocycle-verify": {
            "space": {"path_graph": 4},
            "h": {"generator": {"kind": "random_hermitian"}},
            "k": {"generator": {"kind": "random_hermitian", "scale": 0.5}},
            "time_grid": {"start": 0.0, "stop": 0.8, "step": 0.4},
        },
        "diagonalize": {
            "space": {"path_graph": 8},
            "h": {"generator": {"kind": "random_hermitian"}},
            "r": 2.0,
        },
        "expander-preflow": {
            "expander": {"n_blocks": 2, "degree": 3, "sizes": [6, 8]},
            "time_grid": {"start": -0.5, "stop": 0.5, "step": 0.25},
        },
        "rigidity-probe": {
            "space": {"complete_graph": 5},
            "h": {"generator": {"kind": "random_hermitian"}},
            "time_grid": {"start": 0.0, "stop": 2.0, "step": 0.5},
        },
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    fresh_process: bool  # one `python -m roelab.cli` process per job
    pool_size: int  # configs per job type
    repeats: int  # consecutive runs of each config (compared byte for byte)
    # Fixed per workload so parent and change report the same percentile;
    # at the default run length at least 10 jobs lie beyond it.
    tail_percentile: int

    @property
    def kinds(self):
        return tuple(TEMPLATES[self.name])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectral-sweep", False, 64, 1, 75),
        Workload("exhaustive-small", False, 64, 1, 85),
        Workload("cold-cli", True, 16, 2, 75),
    )
}


@dataclass(frozen=True)
class Job:
    index: int  # position in the run
    workload: str
    kind: str  # CLI subcommand
    pool_index: int
    repeat: int  # 0 for the first run of a config, 1 for its rerun

    @property
    def config(self):
        cfg = copy.deepcopy(TEMPLATES[self.workload][self.kind])
        cfg["seed"] = POOL_SEED_BASE + self.pool_index
        return cfg

    @property
    def key(self):
        """Reference key: one per distinct config."""
        return f"{self.workload}/{self.kind}/{self.pool_index}"


def jobs(workload, seed):
    """Endless round-robin of the workload's jobs, one cycle at a time.

    A cycle runs every job type once (times ``repeats``); callers stop only
    at a cycle boundary so every run has the same mix.
    """
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    orders = {kind: rng.sample(range(w.pool_size), w.pool_size) for kind in w.kinds}
    index = 0
    cycle = 0
    while True:
        for kind in w.kinds:
            pool_index = orders[kind][cycle % w.pool_size]
            for repeat in range(w.repeats):
                yield Job(index, workload, kind, pool_index, repeat)
                index += 1
        cycle += 1


def cycle_length(workload):
    w = WORKLOADS[workload]
    return len(w.kinds) * w.repeats
