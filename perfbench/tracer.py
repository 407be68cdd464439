"""Outside-in layer trace for roelab.

Wraps the listed public functions of each roelab module from outside the
package, so ``src/`` stays untouched. Many modules import functions by name
(``spectral_norm`` is bound in nine of them), so a wrapper is installed at
every place an original is bound, not only where it is defined. Dataclass
validation is timed by wrapping ``__post_init__`` on the class.

Each timed call records a span (name, start, end, parent) in memory;
``summary()`` reduces the spans to additive per-layer counters when the run
ends. Generators are counted per item yielded, not timed. A listed function
that no longer exists is reported as absent instead of failing the run.

Run as a script, it is the traced stand-in for ``python -m roelab.cli``:

    python perfbench/tracer.py --summary OUT.json -- <roelab CLI arguments>
"""

import argparse
import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, how): "time" records spans, "count" counts generator
# items. "Class.method" names a method wrapped on the class itself.
TRACED = (
    ("_jacobi", "jacobi_eigh", "time"),
    ("_jacobi", "spectral_norm", "time"),
    ("spectral", "hermitian_eig", "time"),
    ("spectral", "unitary_exp", "time"),
    ("flows", "flow_apply", "time"),
    ("flows", "w_map", "time"),
    ("flows", "cocycle_residual", "time"),
    ("flows", "cocycle_from_generators", "time"),
    ("expander", "discontinuity_profile", "time"),
    ("expander", "wmap_lower_bound", "time"),
    ("expander", "make_regular_family", "time"),
    ("rigidity", "probe", "time"),
    ("operator", "OperatorMatrix.__post_init__", "time"),
    ("operator", "propagation", "time"),
    ("operator", "truncate", "time"),
    ("averaging", "all_sign_vectors", "count"),
    ("averaging", "extract_finite_prop", "time"),
    ("translations", "enumerate_r_translations", "count"),
    ("translations", "coarseness_modulus", "time"),
    ("locality", "ql_value", "time"),
    ("space", "FiniteSpace.__post_init__", "time"),
    ("space", "from_edge_list", "time"),
    ("cli", "main", "time"),
)

# Per-layer metric names that differ from "<module>.<attribute>". Metric
# names must start with a letter, so the _jacobi layer reports as "jacobi".
_COUNT_METRIC = {
    "averaging.all_sign_vectors": "averaging.sign_vectors",
    "translations.enumerate_r_translations": "translations.enumerated",
}


def _metric_base(name):
    return name.lstrip("_")


class Tracer:
    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans = []  # [name, start, end, parent index or -1, size]
        self.stack = []
        self.counts = Counter()
        self.absent = []
        self._installed = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------
    def _timed(self, name, fn, sized=False):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    len(args[0]) if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- installation ---------------------------------------------------
    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "roelab" or n.startswith("roelab."))]

    def _resolve(self, module, attr):
        """(owner, attribute name, original) or None when absent."""
        try:
            owner = importlib.import_module(f"roelab.{module}")
        except ImportError:
            return None
        *cls_path, leaf = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = owner.__dict__.get(leaf) if cls_path else getattr(owner, leaf, None)
        if original is None:
            return None
        return owner, leaf, original

    def install(self):
        importlib.import_module("roelab.cli")
        modules = self._modules()
        for module, attr, how in self.traced:
            name = f"{module}.{attr}"
            found = self._resolve(module, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, leaf, original = found
            if how == "count":
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, sized=name == "_jacobi.jacobi_eigh")
            if "." in attr:
                setattr(owner, leaf, wrapper)
                self._installed.append((owner, leaf, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))
        return self

    @property
    def sites(self):
        """Number of places a wrapper is installed."""
        return len(self._installed)

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def unwrapped_sites(self):
        """Places in roelab that still bind an original of a traced function."""
        originals = {id(orig) for _, _, orig in self._installed}
        left = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    left.append(f"{mod.__name__}.{key}")
        for owner, key, original in self._installed:
            if isinstance(owner, type) and owner.__dict__.get(key) is original:
                left.append(f"{owner.__module__}.{owner.__name__}.{key}")
        return sorted(left)

    # -- reduction ------------------------------------------------------
    def report(self):
        return {"summary": self.summary(), "absent": self.absent, "sites": self.sites}

    def summary(self):
        """Additive counters: merging two summaries is adding their values."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        out = defaultdict(float)
        for i, (name, start, end, parent, size) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
                if name == "_jacobi.spectral_norm" and spans[parent][0] == "locality.ql_value":
                    out["corner_norms"] += 1
                if name == "_jacobi.jacobi_eigh" and spans[parent][0] == "spectral.hermitian_eig":
                    out["hermitian_eig_solved"] += 1
            else:
                out["top_level_s"] += dur
            out[f"{name}.calls"] += 1
            out[f"{name}.size_sum"] += size
        for i, (name, start, end, parent, size) in enumerate(spans):
            out[f"{name}.self_s"] += (end - start) - child_time[i]
        for name, n in self.counts.items():
            out[f"{name}.yielded"] += n
        return dict(out)


def merge(summaries):
    total = defaultdict(float)
    for s in summaries:
        for key, value in s.items():
            total[key] += value
    return dict(total)


def layer_metrics(summary, absent):
    """Per-layer metrics by BENCHMARK.json name, from a merged summary.

    An absent function reports zero calls and zero time; ``trace.absent``
    counts the absent functions.
    """
    get = lambda key: float(summary.get(key, 0.0))
    m = {}
    for module, attr, how in TRACED:
        name = f"{module}.{attr}"
        if how == "count":
            m[_COUNT_METRIC[name]] = (get(f"{name}.yielded"), "count")
        elif attr.endswith(".__post_init__"):
            base = _metric_base(name[: -len(".__post_init__")])
            m[f"{base}.constructed"] = (get(f"{name}.calls"), "count")
            m[f"{base}.validate_s"] = (get(f"{name}.self_s"), "s")
        else:
            base = _metric_base(name)
            m[f"{base}.calls"] = (get(f"{name}.calls"), "count")
            m[f"{base}.self_s"] = (get(f"{name}.self_s"), "s")
    calls = get("_jacobi.jacobi_eigh.calls")
    m["jacobi.jacobi_eigh.mean_n"] = (
        get("_jacobi.jacobi_eigh.size_sum") / calls if calls else 0.0, "points")
    eig_calls = get("spectral.hermitian_eig.calls")
    m["spectral.eig_cache_hit_ratio"] = (
        1.0 - get("hermitian_eig_solved") / eig_calls if eig_calls else 0.0, "ratio")
    m["locality.corner_norms"] = (get("corner_norms"), "count")
    m["trace.absent"] = (float(len(absent)), "count")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--summary", required=True, help="where to write the span summary")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer().install()
    rc = sys.modules["roelab.cli"].main(cli_args)
    with open(args.summary, "w") as fh:
        json.dump(tracer.report(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
