"""Guard against code that only tests call.

A top-level function or class of `src/rankfuse`, or a method of a top-level
class, must be named somewhere in `src/` other than its own `def`, or be
named by `tests/test_acceptance.py` or `perfbench/*.py` (the gates and the
benchmark reach into the package). Anything else only the unit tests reach,
and it goes, or its callers are ported onto the API that stays. Dunder
methods are exempt, since Python calls them itself.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rankfuse"


def _definitions(tree: ast.Module):
    """(name, line) of each top-level function and class, and of each method
    of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.lineno


def _used_names(tree: ast.Module) -> set[str]:
    """Every identifier the module reads: names, attributes, imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def _test_only_code() -> list[str]:
    """`file: name` of every definition that nothing but unit tests name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_used_names, trees.values()))
    outside = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    found = []
    for path, tree in trees.items():
        for qualname, line in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in used or re.search(rf"\b{re.escape(name)}\b", outside):
                continue
            found.append(f"{path.relative_to(ROOT)}:{line}: {qualname}")
    return found


def test_src_holds_no_test_only_code():
    found = _test_only_code()
    assert not found, "named only by their own def and unit tests:\n" + "\n".join(found)
