"""The package holds the code it runs; test oracles live in tests/oracles.py.

Every public top-level function or class of src/puresextic, and every public
method of its classes, must be used by some module of the package or the bench
outside its own definition: a name only tests use belongs on the test side.  A
use is a reference in the code, read off the syntax tree: a name, an attribute,
an imported name, or a string that is the name (the bench's tracer wraps
functions by getattr).  A mention in a comment or in the words of a docstring
is no use.

The rule reads names, not bindings: a member escapes it when some other
attribute, field or method of the package or the bench has the same name.
CubicNum.sign hid behind dataclass fields named sign, SexticNum.trace behind
the bench's trace, CubicNum.inverse behind the call in its own __truediv__,
SexticField.to_json, CarefreeTuple.to_json and TransitionMatrix.to_json behind
the to_json of the outputs; each was found and moved or deleted by hand, and a
new member whose name is already taken needs the same look.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "puresextic").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Read off the paper's valuation formula; the |disc| = k_t * P check will call
# them from the package, and until then only tests do.
EXEMPT = {"field.py:disc_valuations", "field.py:DiscValuations.valuation",
          "field.py:DiscValuations.abs_disc"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of the public top-level functions and classes of
    tree, and of the public methods of all its top-level classes."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names tree's code uses, outside the node skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_in_src_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    unused = []
    for path in PACKAGE:
        for qualname, node in _definitions(trees[path]):
            if node.name not in _uses(trees[path], skip=node) and not any(
                    node.name in names for other, names in uses.items() if other != path):
                unused.append(f"{path.name}:{qualname}")
    assert sorted(unused) == sorted(EXEMPT), unused
