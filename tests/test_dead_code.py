"""Every library function has a caller in the system, every stored field
is read, every import is used, and every oracle serves a test.

A library function is used only when the system calls it: code in
src/hdflow or bench/ refers to it.  Tests do not count as callers, so a
function that only tests call is flagged; it gets a caller in the system,
moves to tests/oracles.py if it only cross-checks the library, or goes.  A
function counts as referred to where its name appears as a word in those
trees, beyond its own definitions.  A method is reached only as an
attribute (obj.name), so it counts only where some file there accesses it
that way; its name as a local variable, in a comment or in a string does
not count.  Exempt are dunders, the command-line entry points (called by
click, not by name) and the public entry points in ENTRY_POINTS, each with
its reason.

Stored fields and imports are checked against tests too: a field that only
a test reads (an error payload such as CertificateFailed.part) is still
part of what the library reports.
"""

import ast
import re
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
TESTS = ROOT / "tests"
SEARCHED = ("src", "tests", "bench")
CALLERS = ("src", "bench")

# Public entry points that nothing in the system calls: halves of the
# document format whose other halves the command line uses.
ENTRY_POINTS = {
    "bundle_to_json": "writes the bundle body that Higgs and flat documents embed",
    "lifting_to_json": "writes the Frobenius liftings that 'cartier apply' reads",
    "witt_tuple_to_json": "writes the inputs of 'witt lift' and 'witt flow-step'",
    "filtration_from_json": "reads the filtrations that 'filtration compute' writes",
}


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _searched_files(tops=SEARCHED):
    for top in tops:
        yield from sorted((ROOT / top).rglob("*.py"))


def _word_counts():
    counts = {}
    for path in _searched_files(CALLERS):
        for word in re.findall(r"\w+", path.read_text()):
            counts[word] = counts.get(word, 0) + 1
    return counts


def _attribute_names():
    names = set()
    for path in _searched_files(CALLERS):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_searched_trees_are_found():
    assert all((ROOT / top).is_dir() for top in SEARCHED)


FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _library_functions():
    """(path, node, is_method) for every function defined in the library."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, FUNCTION_NODES)
        }
        for node in ast.walk(tree):
            if isinstance(node, FUNCTION_NODES):
                yield path, node, id(node) in methods


def test_every_function_is_used():
    counts = _word_counts()
    attributes = _attribute_names()
    defs = {}
    for _, node, _ in _library_functions():
        defs[node.name] = defs.get(node.name, 0) + 1
    assert sorted(set(ENTRY_POINTS) - defs.keys()) == []
    unused = []
    for path, node, is_method in _library_functions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _is_click_command(node) or name in ENTRY_POINTS:
            continue
        if name not in attributes if is_method else counts.get(name, 0) <= defs[name]:
            unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _library_fields():
    """(path, line, class, name) for every dataclass field and every
    attribute a library __init__ assigns on self."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield path, node.lineno, cls.name, node.target.id
            for fn in cls.body:
                if not (isinstance(fn, FUNCTION_NODES) and fn.name == "__init__"):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        yield path, node.lineno, cls.name, node.attr


def _loaded_names():
    """Attribute names read as obj.name or through getattr(obj, "name")."""
    names = set()
    for path in _searched_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def test_every_field_is_read():
    """A stored value that nothing reads is dead state: every dataclass
    field and every attribute an __init__ sets is read somewhere."""
    loaded = _loaded_names()
    unread = sorted(
        "%s:%d %s.%s" % (path.name, line, cls, name)
        for path, line, cls, name in _library_fields()
        if name not in loaded
    )
    assert unread == []


def _imported_names(tree):
    """(line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


def _exported_names(tree):
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def test_every_import_is_used():
    """A library or test module reads every name it imports, unless it
    re-exports the name through __all__."""
    unused = []
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = _exported_names(tree)
        unused += [
            "%s:%d %s" % (path.name, line, name)
            for line, name in _imported_names(tree)
            if name not in read and name not in exported
        ]
    assert unused == []


def _names_read(tree):
    """Every name a module reads: bare, as an attribute, or imported from
    the oracles module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
            names.update(alias.name for alias in node.names)
    return names


def test_every_oracle_is_used():
    """Every top-level definition in tests/oracles.py is used by another test
    module, directly or through oracles that are, so code moved there out of
    the library cannot rot unseen."""
    oracles = TESTS / "oracles.py"
    uses = {
        node.name: _names_read(node)
        for node in ast.parse(oracles.read_text()).body
        if isinstance(node, FUNCTION_NODES + (ast.ClassDef,))
    }
    reached = set()
    for path in sorted(TESTS.rglob("*.py")):
        if path != oracles:
            reached |= _names_read(ast.parse(path.read_text())) & uses.keys()
    todo = list(reached)
    while todo:
        new = uses[todo.pop()] & uses.keys() - reached
        reached |= new
        todo += new
    assert sorted(uses.keys() - reached) == []
