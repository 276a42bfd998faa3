"""Source guards: every top-level function and class of the package is
named somewhere besides its own definition, and every method of its classes
other than the dunder ones is read as an attribute or imported somewhere; every top-level import of a package module is
read there or exported; every import names the standard library, numpy or
the package itself; only surface.py (with the fixtures that build
surfaces) decides by the number mode's name; only cones.eigenpairs runs a
float eigensolve, and the rest of analyze's path reads no numpy name
besides it; only cones and lab import numpy, and nothing that
importing cli loads imports cones, lab or numpy at top level, so the CLI
starts without numpy, or postpones its annotations; and every function
the benchmark's span tracer names still exists and is called by its name
in the package."""

import ast
import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "tests")


def _names_used(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(every identifier a module reads, imports or looks up as an
    attribute; the attributes it reads and the names it imports alone).  A
    definition's own name is none of these, and a method or property counts
    as used only by the second set: a bare name like n is a local variable,
    not a read of a property n."""
    used, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                members.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
            members.add(node.name)
    return used, members


def unused_definitions(root: Path = ROOT) -> list[str]:
    used, members = set(), set()
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            names, attributes = _names_used(ast.parse(path.read_text(encoding="utf-8")))
            used |= names
            members |= attributes
    unused = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and item.name not in members
                    ):
                        unused.append(f"{path.stem}.{node.name}.{item.name}")
    return unused


def test_every_definition_is_used():
    assert unused_definitions() == []


def test_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "def used():\n    pass\n\n\ndef orphan():\n    return used()\n\n\nclass Orphan:\n    pass\n"
    )
    assert unused_definitions(tmp_path) == ["mod.orphan", "mod.Orphan"]


def test_guard_sees_an_unused_method(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "class Box:\n    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def orphan(self):\n        pass\n\n\nBox()\n"
    )
    assert unused_definitions(tmp_path) == ["mod.Box.orphan"]


def test_guard_sees_a_property_named_like_a_local(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "class Box:\n    @property\n    def n(self):\n        return 1\n\n"
        "    @property\n    def size(self):\n        return 2\n\n\n"
        "def count(box):\n    n = box.size\n    box.n = n\n    return n\n\n\ncount(Box())\n"
    )
    assert unused_definitions(tmp_path) == ["mod.Box.n"]


def unused_imports(root: Path = ROOT) -> list[str]:
    """module.name of every name a package module imports at top level but
    neither reads nor lists in its __all__; __future__ imports are exempt."""
    found = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.stem}.{name}")
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_import_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "from __future__ import annotations\n\nimport math\nimport os.path\n"
        "from fractions import Fraction\nfrom typing import Sequence as Seq\n"
        "from . import _exact\n\n__all__ = [\"Seq\"]\n\n\n"
        "def f(x: Fraction):\n    return math.pi\n"
    )
    assert unused_imports(tmp_path) == ["mod.os", "mod._exact"]


ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "veertrack"}


def foreign_imports(root: Path = ROOT) -> list[str]:
    """"module: name" for every import in a package module, at top level or
    nested, of a top-level name outside ALLOWED_IMPORTS; relative imports
    name the package itself."""
    found = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in ALLOWED_IMPORTS:
                    found.append(f"{path.stem}: {top}")
    return found


def test_imports_need_only_numpy():
    assert foreign_imports() == []


def test_dependency_guard_sees_a_foreign_import(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "import os.path\nimport numpy as np\nfrom . import surface\n"
        "from veertrack.flow import run_flow\nfrom yaml import safe_load\n\n\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n    import sympy, json\n"
        "    return minimize_scalar\n"
    )
    assert foreign_imports(tmp_path) == ["mod: yaml", "mod: scipy", "mod: sympy"]


MODE_MODULES = ("surface.py", "fixtures.py")


def _is_mode(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "mode") or (
        isinstance(node, ast.Attribute) and node.attr == "mode"
    )


def mode_branches(root: Path = ROOT) -> list[str]:
    """module:line of every mode name literal, comparison of a mode and
    read of NumberMode.exact outside MODE_MODULES; Surface.num makes those
    decisions."""
    found = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        if path.name in MODE_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            literal = isinstance(node, ast.Constant) and node.value in ("exact", "float")
            compared = isinstance(node, ast.Compare) and any(
                _is_mode(x) for x in (node.left, *node.comparators)
            )
            flag = isinstance(node, ast.Attribute) and node.attr == "exact"
            if literal or compared or flag:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_only_surface_branches_on_the_mode():
    assert mode_branches() == []


def test_mode_guard_sees_a_branch(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "surface.py").write_text('MODE = "exact"\n')
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        'def f(s, mode):\n    a = s.mode == "exact"\n    b = mode != 1\n    c = s.num.exact\n'
        '    return "float"\n'
    )
    assert sorted(mode_branches(tmp_path)) == ["mod:2", "mod:2", "mod:3", "mod:4", "mod:5"]


EIGENSOLVERS = frozenset({"eig", "eigvals", "eigh", "eigvalsh"})


def eigensolves(root: Path = ROOT) -> list[str]:
    """module.name of the top-level function or class around every numpy
    eigensolver a package module calls, passes or imports by name (the
    module alone outside them); cones.eigenpairs is the one place that
    solves for eigenvalues, so the dilatation has one source."""
    found = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named else path.stem
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS) or (
                    isinstance(node, ast.alias) and node.name in EIGENSOLVERS
                ):
                    found.append(where)
    return found


def test_one_eigensolve():
    assert eigensolves() == ["cones.eigenpairs"]


def test_eigensolve_guard_sees_every_call(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "cones.py").write_text(
        "import numpy as np\nfrom numpy.linalg import eigvals\n\n\n"
        "def eigenpairs(m):\n    return np.linalg.eig(m)\n\n\n"
        "def other(m):\n    return np.linalg.eigvalsh(m), eigvals(m)\n\n\n"
        "class Box:\n    solve = staticmethod(np.linalg.eigh)\n\n\nVALS = np.linalg.eig\n"
    )
    assert eigensolves(tmp_path) == [
        "cones", "cones.eigenpairs", "cones.other", "cones.Box", "cones"
    ]


ANALYZE_PATH = ("eigenpairs", "first_positive_power", "analyze_periodic_word")


def _chain(node: ast.AST) -> tuple[str, ...]:
    """("a", "b", "c") for the attribute chain a.b.c, () for any other node."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        base = _chain(node.value)
        return base and (*base, node.attr)
    return ()


def numpy_reads(root: Path = ROOT) -> dict[str, list[str]]:
    """cones.name -> the numpy names that each ANALYZE_PATH function of
    cones reads, by their full dotted names: each longest attribute chain
    on a name that an import anywhere in the module binds to numpy or to a
    name in it."""
    tree = ast.parse((root / "src" / "veertrack" / "cones.py").read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in ANALYZE_PATH:
            chains = {c for c in map(_chain, ast.walk(top)) if c and c[0] in bound}
            longest = [c for c in chains if not any(d[: len(c)] == c and d != c for d in chains)]
            found[f"cones.{top.name}"] = sorted(".".join((bound[c[0]], *c[1:])) for c in longest)
    return found


def test_analyze_reads_numpy_only_for_the_eigensolve():
    assert numpy_reads() == {
        # the eigensolve, and the type of the eigenvectors it returns
        "cones.eigenpairs": ["numpy.asarray", "numpy.linalg.eig", "numpy.ndarray"],
        "cones.first_positive_power": [],
        "cones.analyze_periodic_word": [],
    }


def test_numpy_read_guard_sees_a_planted_call(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "cones.py").write_text(
        "import numpy as np\nfrom numpy import median as med\n\n\n"
        "def eigenpairs(m):\n    return np.linalg.eig(np.asarray(m))\n\n\n"
        "def first_positive_power(m):\n    import numpy.linalg as la\n    import numpy\n"
        "    return numpy.all(la.matrix_power(m, 2))\n\n\n"
        "def analyze_periodic_word(r):\n    return med(r), np.linalg.norm(r)\n\n\n"
        "def hilbert_distance(x):\n    return np.log(x)\n"
    )
    assert numpy_reads(tmp_path) == {
        "cones.eigenpairs": ["numpy.asarray", "numpy.linalg.eig"],
        "cones.first_positive_power": ["numpy.all", "numpy.linalg.matrix_power"],
        "cones.analyze_periodic_word": ["numpy.linalg.norm", "numpy.median"],
    }


NUMPY_MODULES = ("cones", "lab")


def imported_modules(tree: ast.AST, top_level: bool = False) -> set[str]:
    """Every module an import in tree names: a package module by its stem,
    any other by its top-level name. With top_level, imports inside a
    function body are skipped: they run when it is called, not on import."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if top_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            if node.level:
                module = ["veertrack", *module]
            dotted = [module + [alias.name] if module == ["veertrack"] else module for alias in node.names]
        else:
            continue
        for parts in dotted:
            names.add(parts[1] if parts[0] == "veertrack" and len(parts) > 1 else parts[0])
    return names


def stray_numpy_imports(root: Path = ROOT) -> list[str]:
    """Every package module outside NUMPY_MODULES that imports numpy,
    at top level or nested."""
    return [
        path.stem
        for path in sorted((root / "src" / "veertrack").glob("*.py"))
        if path.stem not in NUMPY_MODULES
        and "numpy" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_only_cones_and_lab_import_numpy():
    assert stray_numpy_imports() == []


def cli_startup(root: Path = ROOT) -> tuple[dict[str, set[str]], set[str]]:
    """(the top-level imports of every package module by stem, the stems of
    the modules that importing veertrack.cli loads: the package's __init__,
    cli, and what their top-level imports load in turn)."""
    package = root / "src" / "veertrack"
    imports = {
        path.stem: imported_modules(ast.parse(path.read_text(encoding="utf-8")), top_level=True)
        for path in package.glob("*.py")
    }
    loaded, todo = set(), ["__init__", "cli"]
    while todo:
        stem = todo.pop()
        if stem in imports and stem not in loaded:
            loaded.add(stem)
            todo.extend(imports[stem])
    return imports, loaded


def numpy_at_cli_startup(root: Path = ROOT) -> list[str]:
    """"module: name" for every top-level import of numpy or a NUMPY_MODULES
    module in a package module that importing veertrack.cli loads."""
    imports, loaded = cli_startup(root)
    return sorted(
        f"{stem}: {name}"
        for stem in loaded
        for name in imports[stem] & {"numpy", *NUMPY_MODULES}
    )


def test_the_cli_starts_without_numpy():
    assert numpy_at_cli_startup() == []


def test_guard_sees_a_numpy_import_at_the_top(tmp_path):
    package = tmp_path / "src" / "veertrack"
    package.mkdir(parents=True)
    for name, text in {
        "__init__.py": "from .errors import VeertrackError\n",
        "errors.py": "class VeertrackError(Exception):\n    pass\n",
        "cli.py": (
            "import json\nimport veertrack.errors\nfrom .flow import run_flow\n\n\n"
            "def cmd_contract():\n    from .lab import contraction_experiment\n"
            "    return contraction_experiment\n"
        ),
        "flow.py": (
            "from veertrack import traintrack\n\n\n"
            "def run_flow():\n    from numpy.linalg import norm\n    return norm\n"
        ),
        "traintrack.py": "from .cones import analyze_periodic_word\n",
        "cones.py": "import numpy as np\n\n\ndef analyze_periodic_word():\n    pass\n",
        "lab.py": "from numpy.linalg import norm\n\nfrom . import cones\n",
        "fixtures.py": "import veertrack.lab\n",
    }.items():
        (package / name).write_text(text)
    assert stray_numpy_imports(tmp_path) == ["flow"]
    assert numpy_at_cli_startup(tmp_path) == ["cones: numpy", "traintrack: cones"]


def future_annotations_at_cli_startup(root: Path = ROOT) -> list[str]:
    """Every package module that importing veertrack.cli loads and that
    has `from __future__ import annotations`: under it typing.NamedTuple
    compiles a ForwardRef for each field's string annotation on import."""
    _, loaded = cli_startup(root)
    found = []
    for stem in sorted(loaded):
        tree = ast.parse((root / "src" / "veertrack" / f"{stem}.py").read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.ImportFrom)
            and node.module == "__future__"
            and any(alias.name == "annotations" for alias in node.names)
            for node in tree.body
        ):
            found.append(stem)
    return found


def test_the_cli_evaluates_annotations_eagerly():
    assert future_annotations_at_cli_startup() == []


def test_guard_sees_postponed_annotations(tmp_path):
    package = tmp_path / "src" / "veertrack"
    package.mkdir(parents=True)
    future = "from __future__ import annotations\n"
    for name, text in {
        "__init__.py": "from .errors import VeertrackError\n",
        "errors.py": future + "\n\nclass VeertrackError(Exception):\n    pass\n",
        "cli.py": "from . import flow\n\n\ndef cmd_close():\n    from . import lab\n    return lab\n",
        "flow.py": "from __future__ import division, annotations\n",
        "lab.py": future,
        "fixtures.py": future,
    }.items():
        (package / name).write_text(text)
    assert future_annotations_at_cli_startup(tmp_path) == ["errors", "flow"]


def _traced_table(spans: Path) -> dict:
    """The span tracer's TRACED table, read from spans.py, not imported."""
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )


def untraceable(spans: Path = ROOT / "perfbench" / "spans.py") -> list[str]:
    """module.name of every entry of the span tracer's TRACED table that is
    not a function of its veertrack module."""
    found = []
    for mod, names in _traced_table(spans).items():
        module = importlib.import_module(f"veertrack.{mod}")
        for name in names:
            if not isinstance(getattr(module, name, None), types.FunctionType):
                found.append(f"{mod}.{name}")
    return found


def uncalled_traced(root: Path = ROOT, spans: Path = ROOT / "perfbench" / "spans.py") -> list[str]:
    """module.name of every entry of the TRACED table that no package module
    calls by that name, as a bare name or an attribute, outside the
    function's own top-level definition.  The tracer rebinds the names that
    modules hold, so a function that is only inlined, or called through
    another name, would show 0 calls in its per-layer metrics."""
    calls = set()  # (module stem, enclosing top-level definition or None, called name)
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.add((path.stem, where, name))
    return [
        f"{mod}.{name}"
        for mod, names in _traced_table(spans).items()
        for name in names
        if not any(n == name and (stem, where) != (mod, name) for stem, where, n in calls)
    ]


def test_traced_functions_exist():
    assert untraceable() == []
    assert uncalled_traced() == []


def test_trace_guard_sees_a_missing_function(tmp_path):
    spans = tmp_path / "spans.py"
    spans.write_text(
        'import numpy as np\n\nTRACED = {\n    "delaunay": ("build_quad", "build_quads"),\n'
        '    "flow": ("run_flow", "FLOAT_EVENT_TIE", "SplitEvent"),\n}\n'
    )
    assert untraceable(spans) == ["delaunay.build_quads", "flow.FLOAT_EVENT_TIE", "flow.SplitEvent"]


def test_trace_guard_sees_an_uncalled_function(tmp_path):
    package = tmp_path / "src" / "veertrack"
    package.mkdir(parents=True)
    (package / "delaunay.py").write_text(
        "def build_quad(s, e):\n    return build_quad(s, e)\n\n\n"
        "def flip(s, e):\n    return s\n\n\n"
        "def quad(s, e):\n    build = flip\n    return build(s, e)\n"
    )
    (package / "flow.py").write_text(
        "from . import delaunay\nfrom .delaunay import quad\n\n\n"
        "def next_split(s):\n    return quad(s, 'e1')\n\n\n"
        "def run_flow(s):\n    return delaunay.next_split(s)\n"
    )
    (package / "cli.py").write_text("from .flow import run_flow\n\nrun_flow(None)\n")
    spans = tmp_path / "spans.py"
    spans.write_text(
        'TRACED = {\n    "flow": ("run_flow", "next_split"),\n'
        '    "delaunay": ("build_quad", "flip", "quad"),\n}\n'
    )
    assert uncalled_traced(tmp_path, spans) == ["delaunay.build_quad", "delaunay.flip"]
