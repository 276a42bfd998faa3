"""Dead-code guard: every top-level function and class of the package is
named somewhere besides its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "tests")


def _names_used(tree: ast.AST) -> set[str]:
    """Every identifier a module reads, imports or looks up as an attribute;
    a definition's own name is none of these."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unused_definitions(root: Path = ROOT) -> list[str]:
    used = set()
    for top in SEARCHED:
        for path in sorted((root / top).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted((root / "src" / "veertrack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_definition_is_used():
    assert unused_definitions() == []


def test_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "src" / "veertrack").mkdir(parents=True)
    (tmp_path / "src" / "veertrack" / "mod.py").write_text(
        "def used():\n    pass\n\n\ndef orphan():\n    return used()\n\n\nclass Orphan:\n    pass\n"
    )
    assert unused_definitions(tmp_path) == ["mod.orphan", "mod.Orphan"]
