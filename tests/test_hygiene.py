"""Source hygiene of src/roelab and tests/: no unused import, every numeric
identity through _linalg.check, no top-level def, class or constant in
src/roelab that nothing names, no function in src/roelab, public or
private, that only unit tests call, no method or property that only unit
tests name, no default that the library and the criteria always pass or
never pass, no operator arithmetic on library classes, no read of the
environment in src/roelab, no linear algebra and no np.exp outside
_linalg, and no np.unique that returns its values alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parsed(root, *patterns):
    return {
        p.relative_to(root): ast.parse(p.read_text())
        for pattern in patterns
        for p in sorted(root.glob(pattern))
    }


def unused_imports(root):
    """Every name a module of src/roelab or tests/ imports must be used in it
    or listed in __all__."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py", "tests/*.py").items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and "__all__" in [
                getattr(t, "id", None) for t in node.targets
            ]:
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        bad.append(f"{path}:{node.lineno}: {name} is imported but not used")
    return bad


def unchecked_identities(root):
    """Only _linalg raises NumericCheckError, and no check() bound holds a
    float literal other than 0.0 or 1.0 (a threshold is named in _linalg's
    table)."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py").items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Raise) and node.exc is not None
                and "NumericCheckError" in ast.unparse(node.exc)
                and path.name != "_linalg.py"
            ):
                bad.append(f"{path}:{node.lineno}: NumericCheckError is raised outside _linalg.check")
            if isinstance(node, ast.Call) and "check" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                bound = [k.value for k in node.keywords if k.arg == "bound"]
                for arg in node.args[1:2] + bound:
                    for c in ast.walk(arg):
                        if isinstance(c, ast.Constant) and type(c.value) is float and c.value not in (0.0, 1.0):
                            bad.append(f"{path}:{node.lineno}: check() bound holds the literal {c.value!r}")
    return bad


def imports(path, tree):
    """(refs, aliases): each module a file imports and what it imports from
    a module, and the dotted name each name bound by an import stands for."""
    package = list(path.parent.parts[1:])  # src/roelab/m.py is in roelab
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                refs.add(a.name)
                head = a.asname or a.name.split(".")[0]
                aliases[head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            base = ".".join(base + [node.module] if node.module else base)
            for a in node.names:
                refs.add(f"{base}.{a.name}")
                aliases[a.asname or a.name] = f"{base}.{a.name}"
    return refs, aliases


def resolved(node, aliases):
    """The dotted name a name or alias.attr chain stands for, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id]] + attrs)
    return None


def references(path, tree):
    """The dotted names a file refers to: each module it imports, what it
    imports from a module, and each alias.attr chain with the alias resolved
    to what it is bound to."""
    refs, aliases = imports(path, tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (name := resolved(node, aliases)):
            refs.add(name)
    return refs


def top_level_names(tree):
    """(line, name) of each top-level def, class and assigned name of a
    module, dunders such as __all__ or __version__ left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def dead_names(root):
    """Every top-level def, class or constant `m.name` of src/roelab is
    named: read by its own module, by an import from roelab.m or .m
    elsewhere, by `alias.name` elsewhere with alias bound to roelab.m, or by
    a string constant equal to it (binding by name, as monkeypatch does)."""
    files = parsed(root, "src/**/*.py", "tests/**/*.py")
    strings = {
        n.value for tree in files.values() for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    refs = {path: references(path, tree) for path, tree in files.items()}
    bad = []
    for path, tree in files.items():
        if path.parent != Path("src/roelab"):
            continue
        module = f"roelab.{path.stem}"
        own = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for lineno, name in top_level_names(tree):
            if not (
                name in own or name in strings or f"{module}.{name}" in elsewhere
            ):
                bad.append(f"{path}:{lineno}: {name} is defined but not named elsewhere in src/ or tests/")
    return bad


def unreached_functions(root):
    """Every top-level def `m.f` of src/roelab, public or private, dunders
    aside, is named outside its own def: by its own module, by another
    module of src/roelab, or by tests/test_acceptance.py. A re-export in
    __init__.py does not count, nor does a unit test: the library holds what
    the CLI and the criteria call, and a dense reference oracle lives in
    tests/."""
    files = parsed(root, "src/roelab/*.py", "tests/test_acceptance.py")
    refs = {
        path: references(path, tree)
        for path, tree in files.items() if path.name != "__init__.py"
    }
    bad = []
    for path, tree in files.items():
        if path.parent != Path("src/roelab"):
            continue
        module = f"roelab.{path.stem}"
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            own = {
                n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and id(n) not in inside
            }
            if node.name not in own and f"{module}.{node.name}" not in elsewhere:
                bad.append(f"{path}:{node.lineno}: {node.name} is called by no module and no criterion")
    return bad


def unnamed_members(root):
    """Every method and property `C.m` of a class of src/roelab, dunders
    aside, is named as an attribute, `x.m`, outside its own def: in
    src/roelab or in tests/test_acceptance.py. The type of x is not known,
    so any attribute of that name counts; a unit test does not."""
    files = parsed(root, "src/roelab/*.py", "tests/test_acceptance.py")
    attrs = [
        n for tree in files.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
    ]
    bad = []
    for path, tree in files.items():
        if path.parent != Path("src/roelab"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.endswith("__"):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                if not any(a.attr == node.name and id(a) not in inside for a in attrs):
                    bad.append(f"{path}:{node.lineno}: {cls.name}.{node.name} is named by no module and no criterion")
    return bad


def calls(path, tree):
    """(dotted name, call) of each call in a file whose callee resolves:
    through the file's imports, or, in src/roelab, by the name of a
    top-level def of its own module."""
    _, aliases = imports(path, tree)
    own = {}
    if path.parent == Path("src/roelab"):
        own = {
            n.name: f"roelab.{path.stem}.{n.name}"
            for n in tree.body if isinstance(n, ast.FunctionDef)
        }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = own.get(f.id) if isinstance(f, ast.Name) else None
        if name := name or resolved(f, aliases):
            yield name, node


def passes(call, index, name):
    """Whether a call passes the parameter ``name``, positional at ``index``
    or keyword-only (``index`` None). A *args or a **kwargs that may pass it
    counts as passing it."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


def idle_defaults(root):
    """Every parameter with a default, of every top-level def `m.f` of
    src/roelab, is passed by at least one call and left out by at least one,
    counting the calls of src/roelab and tests/test_acceptance.py, matched
    through import aliases. A default that no call passes is an option
    nothing sets; one that every call passes is a default nothing uses."""
    files = parsed(root, "src/roelab/*.py", "tests/test_acceptance.py")
    found = {}
    for path, tree in files.items():
        for name, call in calls(path, tree):
            found.setdefault(name, []).append(call)
    bad = []
    for path, tree in files.items():
        if path.parent != Path("src/roelab"):
            continue
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            params = [
                (i, a) for i, a in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ] + [
                (None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            made = found.get(f"roelab.{path.stem}.{node.name}", [])
            for index, arg in params:
                passed = [passes(c, index, arg.arg) for c in made]
                if not any(passed):
                    bad.append(f"{path}:{node.lineno}: {node.name}({arg.arg}=...) is passed by no call")
                elif all(passed):
                    bad.append(f"{path}:{node.lineno}: {node.name}({arg.arg}=...) is passed by every call")
    return bad


ARITHMETIC = {
    "__matmul__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__",
}


def arithmetic_dunders(root):
    """No class of src/roelab defines an arithmetic dunder, by def or by
    assignment: arrays are multiplied as numpy arrays, on .entries."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py").items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [getattr(t, "id", None) for t in node.targets]
                else:
                    continue
                for name in ARITHMETIC.intersection(names):
                    bad.append(f"{path}:{node.lineno}: {cls.name} defines {name}")
    return bad


ENVIRONMENT = {"os.environ", "os.environb", "os.getenv", "os.getenvb"}


def environment_reads(root):
    """No module of src/roelab reads the environment, under any alias: a
    switch is a config key or a library argument that something sets, never
    an environment variable."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py").items():
        for name in sorted(ENVIRONMENT & references(path, tree)):
            bad.append(f"{path}: reads {name}")
    return bad


# what a module other than _linalg may name of numpy.linalg: the Frobenius
# norm of a residual, and the error the layer raises
LINALG_ELSEWHERE = {"numpy.linalg.norm", "numpy.linalg.LinAlgError"}


def linear_algebra_outside_linalg(root):
    """_linalg is the one linear-algebra layer: no other module of src/roelab
    names numpy.linalg beyond LINALG_ELSEWHERE, under any alias, and no
    module names scipy."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py").items():
        for name in sorted(references(path, tree)):
            if name.split(".")[0] == "scipy" or (
                name.startswith("numpy.linalg.")
                and name not in LINALG_ELSEWHERE
                and path.name != "_linalg.py"
            ):
                bad.append(f"{path}: refers to {name}")
    return bad


def exponentials_outside_linalg(root):
    """No module of src/roelab but _linalg names numpy.exp, under any alias:
    e^{ix} - 1 elsewhere is np.expm1 or _linalg.expm1_over_t, never exp
    minus 1, which cancels at a small x."""
    return [
        f"{path}: refers to numpy.exp"
        for path, tree in parsed(root, "src/roelab/*.py").items()
        if path.name != "_linalg.py" and "numpy.exp" in references(path, tree)
    ]


UNIQUE_OUTPUTS = ("return_index", "return_inverse", "return_counts")


def bare_uniques(root):
    """No np.unique call in src/roelab, under any alias, returns the values
    alone: that call imports numpy.ma, which a CLI run has no other use for;
    space.sorted_distinct gives the same values. A call passes when it sets
    one of UNIQUE_OUTPUTS, by keyword or by position, to anything but a
    literal False."""
    bad = []
    for path, tree in parsed(root, "src/roelab/*.py").items():
        _, aliases = imports(path, tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and resolved(node.func, aliases) == "numpy.unique"
            ):
                continue
            outputs = node.args[1:4] + [
                k.value for k in node.keywords if k.arg in UNIQUE_OUTPUTS
            ]
            if all(isinstance(v, ast.Constant) and v.value is False for v in outputs):
                bad.append(f"{path}:{node.lineno}: np.unique returns the values alone")
    return bad


def test_no_unused_imports():
    assert unused_imports(ROOT) == []


def test_numeric_identities_go_through_check():
    assert unchecked_identities(ROOT) == []


def test_no_dead_names():
    assert dead_names(ROOT) == []


def test_no_unreached_functions():
    assert unreached_functions(ROOT) == []


def test_no_unnamed_members():
    assert unnamed_members(ROOT) == []


def test_no_idle_defaults():
    assert idle_defaults(ROOT) == []


def test_no_arithmetic_dunders():
    assert arithmetic_dunders(ROOT) == []


def test_no_environment_reads():
    assert environment_reads(ROOT) == []


def test_no_linear_algebra_outside_linalg():
    assert linear_algebra_outside_linalg(ROOT) == []


def test_no_exponentials_outside_linalg():
    assert exponentials_outside_linalg(ROOT) == []


def test_no_bare_uniques():
    assert bare_uniques(ROOT) == []


def test_unique_rule_resolves_aliases(tmp_path):
    sources = {
        "src/roelab/space.py": (
            "import numpy as np\n\n\n"
            "def distinct(x):\n    return np.unique(x)\n\n\n"
            "def inverse(x):\n    return np.unique(x, return_inverse=True)\n\n\n"
            "def counts(x):\n    return np.unique(x, False, False, True)\n\n\n"
            "def off(x):\n    return np.unique(x, return_counts=False)\n"
        ),
        "src/roelab/flows.py": (
            "import numpy\nfrom numpy import unique as distinct\n\n\n"
            "def gaps(x):\n    return distinct(x), numpy.unique(x, return_index=True)\n"
        ),
        # a function of another module that is also named unique is not numpy's
        "src/roelab/locality.py": (
            "from .space import unique\n\n\n"
            "def sets(x):\n    return unique(x)\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bare_uniques(tmp_path) == [
        "src/roelab/flows.py:6: np.unique returns the values alone",
        "src/roelab/space.py:5: np.unique returns the values alone",
        "src/roelab/space.py:17: np.unique returns the values alone",
    ]


def test_linear_algebra_rule_resolves_aliases(tmp_path):
    sources = {
        "src/roelab/_linalg.py": (
            "import numpy as np\nfrom scipy.linalg import expm\n\n\n"
            "def solve(m):\n    return np.linalg.eigh(m), expm(m)\n"
        ),
        "src/roelab/flows.py": (
            "import numpy as np\nfrom numpy import linalg as la\n\n\n"
            "def top(m):\n    return la.eigvalsh(m)[-1] + np.linalg.norm(m)\n"
        ),
        "src/roelab/space.py": "import scipy.sparse\n",
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # _linalg may solve, but scipy is named nowhere; norm is allowed anywhere
    assert linear_algebra_outside_linalg(tmp_path) == [
        "src/roelab/_linalg.py: refers to scipy.linalg.expm",
        "src/roelab/flows.py: refers to numpy.linalg.eigvalsh",
        "src/roelab/space.py: refers to scipy.sparse",
    ]


def test_exponential_rule_resolves_aliases(tmp_path):
    sources = {
        "src/roelab/_linalg.py": (
            "import numpy as np\n\n\ndef u(x):\n    return np.exp(1j * x)\n"
        ),
        "src/roelab/expander.py": (
            "import numpy\n\n\ndef moved(x):\n    return abs(numpy.exp(1j * x) - 1.0)\n"
        ),
        "src/roelab/flows.py": "from numpy import exp as e\n",
        # expm1 is allowed anywhere
        "src/roelab/rigidity.py": (
            "import numpy as np\n\n\ndef c(x):\n    return np.expm1(1j * x)\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert exponentials_outside_linalg(tmp_path) == [
        "src/roelab/expander.py: refers to numpy.exp",
        "src/roelab/flows.py: refers to numpy.exp",
    ]


def test_environment_rule_resolves_aliases(tmp_path):
    sources = {
        "src/roelab/cli.py": (
            "import os as system\n\n\n"
            "def threads():\n    return system.environ.get('THREADS', '1')\n"
        ),
        "src/roelab/spectral.py": (
            "from os import getenv as read\n\n\n"
            "def cached():\n    return read('CACHE')\n"
        ),
        # a name or a string that only looks like one reads nothing
        "src/roelab/space.py": (
            "import os\n\n\n"
            "def path(environ):\n    return os.path.join(environ, 'os.environ')\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert environment_reads(tmp_path) == [
        "src/roelab/cli.py: reads os.environ",
        "src/roelab/spectral.py: reads os.getenv",
    ]


def test_arithmetic_dunder_rule_sees_defs_and_aliases(tmp_path):
    source = (
        "class Op:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def __matmul__(self, other):\n        return self\n\n"
        "    __rmul__ = __matmul__\n\n\n"
        "def __add__(a, b):\n    return a\n"
    )
    (tmp_path / "src/roelab").mkdir(parents=True)
    (tmp_path / "src/roelab/operator.py").write_text(source)
    # a module-level function is not a class's arithmetic
    assert arithmetic_dunders(tmp_path) == [
        "src/roelab/operator.py:5: Op defines __matmul__",
        "src/roelab/operator.py:8: Op defines __rmul__",
    ]


def test_dead_name_rule_resolves_imports(tmp_path):
    sources = {
        "src/roelab/operator.py": (
            "import numpy as np\n\n\n"
            "def zeros(space):\n    return np.zeros(3)\n\n\n"
            "def by_own_module():\n    pass\n\n\n"
            "def imported():\n    return by_own_module()\n\n\n"
            "def by_attribute():\n    pass\n\n\n"
            "def by_string():\n    pass\n"
        ),
        "tests/test_operator.py": (
            "import numpy as np\n"
            "from roelab import operator as op\n"
            "from roelab.operator import imported\n\n\n"
            "def test_it(monkeypatch):\n"
            "    monkeypatch.setattr(op, 'by_string', imported)\n"
            "    assert op.by_attribute() is None and not np.zeros(3).any()\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # np.zeros names the word zeros, but nothing resolves to operator.zeros
    assert dead_names(tmp_path) == [
        "src/roelab/operator.py:4: zeros is defined but not named elsewhere in src/ or tests/"
    ]


def test_unreached_rule_counts_modules_and_criteria_only(tmp_path):
    sources = {
        "src/roelab/__init__.py": "from .space import reexported\n",
        "src/roelab/space.py": (
            "def by_cli():\n    return _helper()\n\n\n"
            "def by_own_module():\n    pass\n\n\n"
            "def by_criterion():\n    return by_own_module()\n\n\n"
            "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
            "def reexported():\n    pass\n\n\n"
            "def by_unit_test():\n    pass\n\n\n"
            "def _helper():\n    pass\n\n\n"
            "def _private():\n    pass\n\n\n"
            "def _by_unit_test():\n    pass\n\n\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "src/roelab/cli.py": "from . import space\n\n\ndef main():\n    space.by_cli()\n\n\nmain()\n",
        "tests/test_acceptance.py": "from roelab.space import by_criterion\n",
        "tests/test_space.py": "from roelab.space import _by_unit_test, by_unit_test\n",
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a call inside its own def, a re-export or a unit test reaches nothing,
    # for a private def as for a public one; a dunder is not checked
    assert unreached_functions(tmp_path) == [
        f"src/roelab/space.py:{line}: {name} is called by no module and no criterion"
        for line, name in (
            (13, "recursive"), (17, "reexported"), (21, "by_unit_test"),
            (29, "_private"), (33, "_by_unit_test"),
        )
    ]


def test_dead_name_rule_covers_constants(tmp_path):
    sources = {
        "src/roelab/space.py": (
            "__version__ = '0'\n"
            "_READ_HERE = 1\n"
            "_UNREAD = 2\n"
            "LIMIT: int = 3\n"
            "IMPORTED = 4\n"
            "_ONLY_STORED = 5\n"
            "_ONLY_STORED = 6\n\n\n"
            "def size():\n    return _READ_HERE\n"
        ),
        "tests/test_space.py": (
            "from roelab import space\n"
            "from roelab.space import IMPORTED\n\n\n"
            "def test_it():\n"
            "    assert space.size() + space.LIMIT + IMPORTED\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a dunder is exempt; a name that is only ever assigned is not read
    assert dead_names(tmp_path) == [
        "src/roelab/space.py:3: _UNREAD is defined but not named elsewhere in src/ or tests/",
        "src/roelab/space.py:6: _ONLY_STORED is defined but not named elsewhere in src/ or tests/",
        "src/roelab/space.py:7: _ONLY_STORED is defined but not named elsewhere in src/ or tests/",
    ]


def test_member_rule_counts_modules_and_criteria_only(tmp_path):
    sources = {
        "src/roelab/space.py": (
            "class Space:\n"
            "    def __len__(self):\n        return 0\n\n"
            "    @property\n    def by_module(self):\n        return 1\n\n"
            "    @property\n    def by_criterion(self):\n        return self.by_module\n\n"
            "    @property\n    def by_unit_test(self):\n        return 2\n\n"
            "    def recursive(self, k):\n        return self.recursive(k - 1) if k else 0\n"
        ),
        "tests/test_acceptance.py": (
            "from roelab.space import Space\n\n\n"
            "def test_it():\n    assert Space().by_criterion\n"
        ),
        "tests/test_space.py": (
            "from roelab.space import Space\n\n\n"
            "def test_it():\n    assert Space().by_unit_test + Space().recursive(0) == 2\n"
        ),
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a property read only by a unit test, or a method named only inside its
    # own def, is named by nothing; a dunder is not checked
    assert unnamed_members(tmp_path) == [
        "src/roelab/space.py:14: Space.by_unit_test is named by no module and no criterion",
        "src/roelab/space.py:17: Space.recursive is named by no module and no criterion",
    ]


def test_default_rule_resolves_aliases(tmp_path):
    sources = {
        "src/roelab/cli.py": (
            "from . import space\nfrom .space import cut as trim\n\n\n"
            "def main(argv=None):\n"
            "    return space.cut(argv, 1.0), trim(argv, tol=2.0), space.fixed(argv, 1)\n\n\n"
            "def entry():\n    return main()\n"
        ),
        "src/roelab/space.py": (
            "def cut(x, tol=None):\n    return x\n\n\n"
            "def fixed(x, mode=0):\n    return x\n\n\n"
            "def never(x, mode=0, *, tol=1.0):\n    return never(x, *[mode])\n\n\n"
            "def spread(x, mode=0):\n    return spread(x, **{}), spread(x)\n"
        ),
        "tests/test_acceptance.py": "from roelab.cli import main as cli_main\n\ncli_main([])\n",
        "tests/test_space.py": "from roelab.space import cut, fixed\n\ncut(1), fixed(1)\n",
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # main's argv is passed by the criterion's cli_main and left out by
    # entry; cut's tol is passed by position and through the alias trim, and
    # left out only by a unit test, which does not count; a *args or a
    # **kwargs counts as passing what it may pass
    assert idle_defaults(tmp_path) == [
        "src/roelab/space.py:1: cut(tol=...) is passed by every call",
        "src/roelab/space.py:5: fixed(mode=...) is passed by every call",
        "src/roelab/space.py:9: never(mode=...) is passed by every call",
        "src/roelab/space.py:9: never(tol=...) is passed by no call",
    ]
