"""The production modules hold only what the program runs.

Every top-level function, class and method under ``src/stt`` must be
named somewhere in ``src/`` other than by its own ``def``: as a call, an
attribute, a base class, an annotation or a class pattern.  Code that only
the tests reach belongs in ``tests/``.
"""

import ast
import glob
import os

from conftest import REPO

SRC = os.path.join(REPO, "src", "stt")

# public entry points: the console script, and the term parser that
# library users call
ENTRY_POINTS = {"main", "parse_term"}


def _definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, defs))


def test_every_definition_has_a_production_reference():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = sorted(
        f"{module}:{d.name}"
        for module, tree in trees.items()
        for d in _definitions(tree)
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and d.name not in ENTRY_POINTS
        and d.name not in referenced
    )
    assert not unreferenced, unreferenced
