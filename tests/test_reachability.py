"""Every public module-level name and class member in `seljac` is used
inside `seljac`.

A def, class or assignment that no module of the package loads, imports
or reads as an attribute is reachable only from its own tests. The same
name-based rule covers the public methods, properties, classmethods and
fields in a class body. Give it a caller that some answer needs, or
delete it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seljac"

# "module.name" or "module.Class.member" -> why it stays without a caller
# inside the package.
ALLOWED = {"kernels.BACKEND": "read by perfbench/run.py"}


def _names(node: ast.stmt):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _defined(tree: ast.Module):
    """Module-level names, and "Class.member" for each name a module-level
    class body defines."""
    for node in tree.body:
        yield from _names(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                yield from (f"{node.name}.{name}" for name in _names(member))


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
    """Public names and class members that no module in `trees` uses."""
    used = _used(trees)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if not any(part.startswith("_") for part in name.split("."))
        and name.rsplit(".", 1)[-1] not in used
    )


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert orphans(trees) == sorted(ALLOWED)


def test_walk_sees_loads_imports_and_attributes():
    trees = {
        "a": ast.parse(
            "def f(): pass\ndef g(): pass\nX = 1\n_hidden = 2\n"
            "class C:\n"
            "    x: int\n"
            "    y = 0\n"
            "    def m(self): return self.x\n"
            "    @property\n"
            "    def p(self): pass\n"
            "    @classmethod\n"
            "    def k(cls): pass\n"
            "    def _h(self): pass\n"
            "    def __eq__(self, other): pass\n"
            "class _D:\n"
            "    def unused(self): pass\n"
        ),
        "b": ast.parse("from .a import f\nimport a\ny = a.C\nz = a.C.k()\n"),
    }
    assert orphans(trees) == ["a.C.m", "a.C.p", "a.C.y", "a.X", "a.g", "b.y", "b.z"]
