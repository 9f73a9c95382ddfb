"""The package holds what a run reads: no library function lacks a caller."""

import ast
from collections import Counter
from pathlib import Path

import opuclab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opuclab"


def _names(node: ast.AST) -> Counter:
    """How often each name or attribute name is read under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_function_has_a_caller():
    # a top-level function is public (in __all__), registered by a
    # decorator (the @check verdicts), or named outside its own body in the
    # package or in scripts/; a function only tests call belongs in
    # tests/oracles.py
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in opuclab.__all__
        and not node.decorator_list
        and everywhere[node.name] == _names(node)[node.name]
    ]
    assert orphans == []
