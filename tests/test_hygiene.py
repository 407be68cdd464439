"""Source hygiene of src/roelab and tests/: no unused import, every numeric
identity through _linalg.check, no top-level def, class or constant in
src/roelab that nothing names, no public function in src/roelab that only
unit tests call, no operator arithmetic on library classes, and no read of
the environment in src/roelab."""

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


def references(path, tree):
    """The dotted names a file refers to: what it imports from a module, and
    each alias.attr chain with the alias resolved to what it is bound to."""
    package = list(path.parent.parts[1:])  # src/roelab/m.py is in roelab
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.asname or a.name.split(".")[0]
                aliases[head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            base = ".".join(base + [node.module] if node.module else base)
            for a in node.names:
                refs.add(f"{base}.{a.name}")
                aliases[a.asname or a.name] = f"{base}.{a.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in aliases:
            for k in range(1, len(attrs) + 1):
                refs.add(".".join([aliases[node.id]] + attrs[:k]))
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
    """Every public top-level def `m.f` of src/roelab is named outside its
    own def: by its own module, by another module of src/roelab, or by
    tests/test_acceptance.py. A re-export in __init__.py does not count, nor
    does a unit test: the library holds what the CLI and the criteria call,
    and a dense reference oracle lives in tests/."""
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
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            own = {
                n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and id(n) not in inside
            }
            if node.name not in own and f"{module}.{node.name}" not in elsewhere:
                bad.append(f"{path}:{node.lineno}: {node.name} is called by no module and no criterion")
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


def test_no_unused_imports():
    assert unused_imports(ROOT) == []


def test_numeric_identities_go_through_check():
    assert unchecked_identities(ROOT) == []


def test_no_dead_names():
    assert dead_names(ROOT) == []


def test_no_unreached_functions():
    assert unreached_functions(ROOT) == []


def test_no_arithmetic_dunders():
    assert arithmetic_dunders(ROOT) == []


def test_no_environment_reads():
    assert environment_reads(ROOT) == []


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
            "def by_cli():\n    pass\n\n\n"
            "def by_own_module():\n    pass\n\n\n"
            "def by_criterion():\n    return by_own_module()\n\n\n"
            "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
            "def reexported():\n    pass\n\n\n"
            "def by_unit_test():\n    pass\n\n\n"
            "def _private():\n    pass\n"
        ),
        "src/roelab/cli.py": "from . import space\n\n\ndef main():\n    space.by_cli()\n\n\nmain()\n",
        "tests/test_acceptance.py": "from roelab.space import by_criterion\n",
        "tests/test_space.py": "from roelab.space import by_unit_test\n",
    }
    for name, text in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a call inside its own def, a re-export or a unit test reaches nothing
    assert unreached_functions(tmp_path) == [
        f"src/roelab/space.py:{line}: {name} is called by no module and no criterion"
        for line, name in ((13, "recursive"), (17, "reexported"), (21, "by_unit_test"))
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
