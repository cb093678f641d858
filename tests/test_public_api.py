"""The package has no public function or class without a caller."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emergence_lab"


def referenced(node):
    """The names and attributes used in node; imports do not count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_public_definitions_are_referenced_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported = next(set(ast.literal_eval(node.value))
                    for node in trees["__init__.py"].body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["__all__"])
    uses = sum((referenced(tree) for tree in trees.values()), Counter())
    # a use inside the definition itself is not a caller
    uncalled = [f"{module}:{node.name}"
                for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in exported
                and uses[node.name] == referenced(node)[node.name]]
    assert uncalled == []
