"""`src/nbmimo` holds only what the package itself or linkbench runs.

Test oracles live under `tests/`.  Every top-level function and class of
the package, and every non-dunder method of those classes, must be
referenced by name in the package or in linkbench: as a loaded name, a
loaded attribute or an import.  And every parameter with a default, on
any `def` of the package, must be passed at some call there: a knob that
only tests set is test-only code as well.
"""

import ast
from functools import cache
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


# Defaulted parameters that only tests set, kept on purpose: criterion 4's
# enumeration oracle and the decoder tests read posteriors through
# `decode`'s two, and `main`'s argv is the console entry point's.
KNOBS_KEPT = {
    "decoder.decode.early_stop",
    "decoder.decode.keep_posteriors",
    "cli.main.argv",
}


@cache
def _parse_all():
    return {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + RUNNERS}


def test_every_package_definition_is_used_outside_tests():
    assert SOURCES and RUNNERS
    trees = _parse_all()
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{path.stem}.{qualname}"
        for path in SOURCES
        for qualname in _definitions(trees[path])
        if qualname.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []


def _defaulted_parameters(tree):
    """(qualname, name, positional index or None) of every parameter with a
    default, on every def; the index counts from the first argument a
    call passes, past a method's self or cls."""
    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                a = child.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield qualname, arg.arg, i - bound
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield qualname, arg.arg, None
                yield from visit(child, f"{qualname}.", False)
            else:
                yield from visit(child, prefix, in_class)

    yield from visit(tree, "", False)


def _passed(trees):
    """{callee name: [positions passed, keywords passed]} over the calls in
    the trees; a starred argument passes every position, a double-starred
    one every keyword ("**")."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            entry = calls.setdefault(name, [0, set()])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            entry[0] = max(entry[0], float("inf") if starred else len(node.args))
            entry[1].update(kw.arg or "**" for kw in node.keywords)
    return calls


def test_every_defaulted_parameter_is_passed_outside_tests():
    assert SOURCES and RUNNERS
    trees = _parse_all()
    calls = _passed(trees.values())
    never_passed = set()
    for path in SOURCES:
        for qualname, param, index in _defaulted_parameters(trees[path]):
            callee = qualname.split(".")
            # A call to a class is a call to its __init__.
            name = callee[-2] if callee[-1] == "__init__" else callee[-1]
            n_pos, keywords = calls.get(name, (0, set()))
            if not (
                param in keywords
                or "**" in keywords
                or (index is not None and index < n_pos)
            ):
                never_passed.add(f"{path.stem}.{qualname}.{param}")
    assert sorted(never_passed - KNOBS_KEPT) == []
    # A kept knob that some call now passes leaves the list.
    assert sorted(KNOBS_KEPT - never_passed) == []
