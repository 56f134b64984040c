"""The library keeps only what the program runs.

Every public module-level function or class of ``src/koopsyn``, and every
public method of such a class, must be named somewhere in ``src/koopsyn``
outside its own definition, or in ``perfbench/*.py``.  A name that only the
tests use belongs in the tests.
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
    "uncertainty.UncertaintyRegion.from_json_dict":
        "the region.json reader, for the artifact re-check",
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


def _words(text):
    return Counter(re.findall(r"\w+", text))


def unnamed_definitions():
    sources = {p: p.read_text()
               for p in sorted((ROOT / "src" / "koopsyn").glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    words = _words("\n".join(bench + list(sources.values())))
    unnamed = []
    for path, text in sources.items():
        lines = text.splitlines()
        for qualname, node in _public_definitions(ast.parse(text)):
            name = qualname.rsplit(".", 1)[-1]
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = _words("\n".join(lines[first - 1:node.end_lineno]))
            if words[name] == own[name]:
                unnamed.append(f"{path.stem}.{qualname}")
    return unnamed


def test_every_public_name_is_used_by_the_program():
    unnamed = unnamed_definitions()
    extra = [name for name in unnamed if name not in ALLOWED]
    assert not extra, "public, but the program never names: " + ", ".join(extra)
    # an entry whose definition went, or gained a caller, leaves the list
    assert set(ALLOWED) <= set(unnamed)
