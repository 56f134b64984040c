"""The library keeps only what the program runs.

Every public module-level function or class of ``src/koopsyn``, and every
public method of such a class, must be named somewhere in ``src/koopsyn``
outside its own definition or in ``perfbench/*.py``, or be a target of the
benchmark's tracer.  A name that only the tests use belongs in the tests.
Names are identifiers: names, attributes and imported names.  Docstrings,
comments and other strings name nothing.  The tracer's targets are read as
the qualified names ``module.attribute`` of its ``TARGETS``, so a target
shields only the definition it patches, not others with its leaf name.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

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


def _identifiers(node):
    """Count of every identifier under ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
    return names


def tracer_targets():
    """The qualified names ``module.attribute`` the tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{mod}.{attr}" for mod, attr, *_ in module.TARGETS}


def unnamed_definitions():
    trees = {p: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "koopsyn").glob("*.py"))}
    names = Counter()
    for tree in trees.values():
        names += _identifiers(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names += _identifiers(ast.parse(path.read_text()))
    targets = tracer_targets()
    unnamed = []
    for path, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if (names[name] == _identifiers(node)[name]
                    and f"{path.stem}.{qualname}" not in targets):
                unnamed.append(f"{path.stem}.{qualname}")
    return unnamed


def test_every_public_name_is_used_by_the_program():
    unnamed = unnamed_definitions()
    extra = [name for name in unnamed if name not in ALLOWED]
    assert not extra, "public, but the program never names: " + ", ".join(extra)
    # an entry whose definition went, or gained a caller, leaves the list
    assert set(ALLOWED) <= set(unnamed)
