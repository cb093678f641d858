"""The package has no public function, class or method without a caller."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emergence_lab"


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


def test_public_methods_are_referenced():
    """Every public method of a package class is used outside its own
    definition, in the package, the tests or perfbench."""
    package = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for pattern in ("tests/*.py", "perfbench/**/*.py")
              for path in sorted(ROOT.glob(pattern))]
    uses = sum((referenced(tree)
                for tree in [*package.values(), *others]), Counter())
    uncalled = [f"{module}:{cls.name}.{node.name}"
                for module, tree in package.items() for cls in tree.body
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and uses[node.name] == referenced(node)[node.name]]
    assert uncalled == []
