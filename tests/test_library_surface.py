"""The library keeps only what the program runs.

Every public module-level function or class of ``src/koopsyn``, and every
public method of such a class, must be named somewhere in ``src/koopsyn``
outside its own definition, or in ``perfbench/*.py``.  A name that only the
tests use belongs in the tests.  Names are identifiers: names, attributes
and imported names, plus, in ``perfbench/*.py``, the words of string
literals, because the benchmark's tracer lists its targets as strings.
Docstrings and comments name nothing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definition -> why it stays without a caller in the program
ALLOWED = {
    "lmi.primal_certificate":
        "criterion 06's solver-independent reference, for the artifact re-check",
}


def _public_definitions(tree):
    """(qualified name, node) of every public module-level function or
    class and every public method of such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _identifiers(node, strings=False):
    """Count of every identifier under ``node``; with ``strings``, also of
    every word of its string literals other than docstrings."""
    docstrings = {id(sub.value) for sub in ast.walk(node)
                  if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant)}
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            names.update(re.findall(r"\w+", sub.value))
    return names


def unnamed_definitions():
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "koopsyn").glob("*.py"))}
    names = Counter()
    for tree in trees.values():
        names += _identifiers(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names += _identifiers(ast.parse(path.read_text()), strings=True)
    unnamed = []
    for path, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if names[name] == _identifiers(node)[name]:
                unnamed.append(f"{path.stem}.{qualname}")
    return unnamed


def test_every_public_name_is_used_by_the_program():
    unnamed = unnamed_definitions()
    extra = [name for name in unnamed if name not in ALLOWED]
    assert not extra, "public, but the program never names: " + ", ".join(extra)
    # an entry whose definition went, or gained a caller, leaves the list
    assert set(ALLOWED) <= set(unnamed)
