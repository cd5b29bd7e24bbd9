"""Every definition in the package is named somewhere: a function, method or
class that loses its last caller fails here.  And no module of the package
imports another's private (underscore) name: what one module needs of
another is its public API."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "closurelab").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(path):
    """(name, line) of each non-dunder function, method and class."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def test_every_definition_is_named_outside_its_own_line():
    # a whole-word count over src/closurelab and demos, less the name's
    # occurrences on its own def or class line
    words = Counter()
    for path in SOURCES + DEMOS:
        words.update(re.findall(r"\w+", path.read_text()))
    seen, unnamed = 0, []
    for path in SOURCES:
        lines = path.read_text().splitlines()
        for name, lineno in _definitions(path):
            seen += 1
            if words[name] == re.findall(r"\w+", lines[lineno - 1]).count(name):
                unnamed.append(f"{path.name}:{lineno} {name}")
    assert seen > 250, seen
    assert unnamed == []


def test_no_module_imports_a_private_name_from_another():
    private, relative = [], 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative += 1
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert relative > 10, relative
    assert private == []
