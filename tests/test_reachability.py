"""Every public module-level name in `seljac` is used inside `seljac`.

A def, class or assignment that no module of the package loads, imports
or reads as an attribute is reachable only from its own tests. Give it a
caller that some answer needs, or delete it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seljac"

# "module.name" -> why it stays without a caller inside the package.
ALLOWED = {"kernels.BACKEND": "read by perfbench/run.py"}


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _used(trees) -> set[str]:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def orphans(trees: dict[str, ast.Module]) -> list[str]:
    """Public module-level names that no module in `trees` uses."""
    used = _used(trees)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if not name.startswith("_") and name not in used
    )


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert orphans(trees) == sorted(ALLOWED)


def test_walk_sees_loads_imports_and_attributes():
    trees = {
        "a": ast.parse("def f(): pass\ndef g(): pass\nclass C: pass\nX = 1\n_hidden = 2\n"),
        "b": ast.parse("from .a import f\nimport a\ny = a.C\n"),
    }
    assert orphans(trees) == ["a.X", "a.g", "b.y"]
