"""`src/nbmimo` holds only what the package itself or linkbench runs.

Test oracles live under `tests/`.  Every top-level function and class of
the package, and every non-dunder method of those classes, must be
referenced by name in the package or in linkbench: as a loaded name, a
loaded attribute or an import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nbmimo").glob("*.py"))
RUNNERS = sorted((ROOT / "linkbench").glob("*.py"))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_package_definition_is_used_outside_tests():
    assert SOURCES and RUNNERS
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + RUNNERS}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{path.stem}.{qualname}"
        for path in SOURCES
        for qualname in _definitions(trees[path])
        if qualname.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []
