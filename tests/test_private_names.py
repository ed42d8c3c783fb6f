"""Every private module-level name of the runtime is used by the runtime."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hsagg"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """(name, node) for each private function, class or constant the module
    defines at its top level; a constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read below ``tree``, as a name or an attribute;
    imports and assignments are not uses."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_private_name_is_used_by_the_runtime():
    # a helper left behind by a rewrite, or one that only the tests still
    # call, is dead code: each private name must be read somewhere in the
    # package outside its own definition
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    assert "security.py" in trees
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    defined, unused = 0, []
    for module, tree in sorted(trees.items()):
        for name, node in _definitions(tree):
            defined += 1
            if total[name] - _uses(node)[name] == 0:
                unused.append(f"{module}:{name}")
    assert defined > 10
    assert unused == []
