"""Every top-level library name has a caller outside the tests, and the
backend is chosen, and h written, in as few places as the code allows."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "hyplab"
CALLERS = ("src", "demos", "scripts", "perfbench")


def _source(node, module):
    """The hyplab module a `from` import reads from ("hyplab" for the
    package itself), or None for any other package."""
    if node.level:  # relative: only the library's own files have these
        return (node.module or "hyplab") if module else None
    if (node.module or "").split(".")[0] == "hyplab":
        return node.module.rpartition(".")[2]
    return None


def _uses(tree, module, aliases):
    """(module, name) for each use of a library name in the tree:
    `alias.name` where the alias is a hyplab module, a `from` import of
    the name, and, inside the defining module, the bare name.  An exact
    string constant counts as (None, text), because a caller may look a
    name up by it."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out[aliases[node.value.id], node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and _source(node, module):
            for a in node.names:
                out[_source(node, module), a.name] += 1
        elif isinstance(node, ast.Name) and module:
            out[module, node.id] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[None, node.value] += 1
    return out


def _module_aliases(tree, module):
    """Local names that the file binds to hyplab modules."""
    return {a.asname or a.name: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and _source(node, module) == "hyplab" for a in node.names}


def test_every_library_function_and_class_has_a_caller():
    uses, defined = collections.Counter(), []
    for path in sorted(p for d in CALLERS for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem if path.parent == LIBRARY else None
        aliases = _module_aliases(tree, module)
        uses += _uses(tree, module, aliases)
        for node in tree.body if module else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a definition's own body (recursion) is no caller
                own = _uses(node, module, aliases)
                keys = ((module, node.name), (None, node.name))
                uses.subtract({k: own[k] for k in keys})
                defined.append(keys)
    unused = [".".join(keys[0]) for keys in defined
              if not any(uses[k] > 0 for k in keys)]
    assert not unused, f"no caller outside the tests: {unused}"


# `backend ==/!= TREE/PLANE/FLAT` lines outside `geometry.Backend.of`, the
# one lookup that maps a name to its record; lower it when a route drops one
MAX_BACKEND_COMPARISONS = 26
BACKEND_COMPARISON = re.compile(r"(==|!=) (TREE|PLANE|FLAT)\b")
# the closed forms of the critical exponent: log(2k - 1) and 1
H_CLOSED_FORM = re.compile(
    r"math\.log\((3|2 \* rank - 1|base)\)|\bh *= *1(\.0)?\b")


def _outside_the_lookup(pattern):
    """file:line of each library line matching pattern, leaving out the
    lines of `geometry.Backend.of`."""
    tree = ast.parse((LIBRARY / "geometry.py").read_text())
    (of,) = [n for c in tree.body if isinstance(c, ast.ClassDef)
             and c.name == "Backend" for n in c.body
             if isinstance(n, ast.FunctionDef) and n.name == "of"]
    return [f"{path.name}:{i}" for path in sorted(LIBRARY.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line) and not (
                path.name == "geometry.py"
                and of.lineno <= i <= of.end_lineno)]


def test_the_backend_is_chosen_in_few_places():
    found = _outside_the_lookup(BACKEND_COMPARISON)
    assert len(found) <= MAX_BACKEND_COMPARISONS, found


def test_h_closed_forms_are_written_only_in_the_record():
    assert not _outside_the_lookup(H_CLOSED_FORM)
