"""Every library function has a use.

A function whose name appears nowhere but in its own definitions is dead:
nothing in the library, its tests or the benchmark calls it, so it is
untested code that only looks like a feature.  Dunders and the
command-line entry points (called by click, not by name) are exempt.
"""

import ast
import re
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
SEARCHED = ("src", "tests", "bench")


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _word_counts():
    counts = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for word in re.findall(r"\w+", path.read_text()):
                counts[word] = counts.get(word, 0) + 1
    return counts


def test_searched_trees_are_found():
    assert all((ROOT / top).is_dir() for top in SEARCHED)


def _library_functions():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def test_every_function_is_used():
    counts = _word_counts()
    defs = {}
    for _, node in _library_functions():
        defs[node.name] = defs.get(node.name, 0) + 1
    unused = []
    for path, node in _library_functions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _is_click_command(node):
            continue
        if counts.get(name, 0) <= defs[name]:
            unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []
