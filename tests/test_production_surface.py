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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_another_modules_private_names():
    """A name with a leading underscore is its module's own: no other
    module under ``src/stt`` imports it or reads it off the module."""
    reached = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        modules = set()  # the names this module binds to stt modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "stt"):
                for alias in node.names:
                    if node.module in (None, "stt"):
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        reached.append(f"{module}: from {node.module} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "stt":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and ast.unparse(node.value) in modules):
                reached.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not reached, reached
