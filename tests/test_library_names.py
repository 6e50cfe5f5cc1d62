"""Every top-level library name has a caller outside the tests."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "hyplab"
CALLERS = ("src", "demos", "scripts", "perfbench")


def _uses(tree):
    """Counts of the names, attributes and exact string constants in the
    tree: a string counts because a caller may look a name up by it."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_every_library_function_and_class_has_a_caller():
    trees = {path: ast.parse(path.read_text())
             for d in CALLERS for path in sorted((ROOT / d).rglob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), collections.Counter())
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(LIBRARY.glob("*.py"))
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              # a definition's own body (recursion) is no caller
              and uses[node.name] == _uses(node)[node.name]]
    assert not unused, f"no caller outside the tests: {unused}"
