"""Every library function has a caller in the system, every defaulted
parameter is set by one, every stored field is read, every import is used,
and every oracle serves a test.

A library function is used only when the system calls it: code in
src/hdflow or bench/ refers to it.  Tests do not count as callers, so a
function that only tests call is flagged; it gets a caller in the system,
moves to tests/oracles.py if it only cross-checks the library, or goes.  A
function counts as referred to where its name appears in those trees as a
name, an attribute or an imported name outside its own body, so recursion
keeps nothing alive; a word in a comment or a string does not count.  A
method is reached only as an attribute (obj.name), so it counts only where
some file there accesses it that way.  Exempt are
dunders, the command-line entry points (called by click, not by name) and
the public entry points in ENTRY_POINTS, each with its reason.

The same rule holds for parameters: a defaulted parameter of a library
function, method or constructor is set only when some call in src/hdflow
or bench/ passes it, by keyword or by position; a value that only tests
set gives the entry point a second code path that the system never takes.
A constructor is called by its class name, and every dataclass field with
a default counts as one of its parameters.  A function that the system
passes as a value, rather than calls, and the entry points in ENTRY_POINTS
are called from outside the scan, so all of their parameters count as set.
Exempt are the parameters in SET_BY_TESTS, each with its reason.

Stored fields and imports are checked against tests too: a field that only
a test reads (an error payload such as CertificateFailed.part) is still
part of what the library reports.
"""

import ast
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
TESTS = ROOT / "tests"
SEARCHED = ("src", "tests", "bench")
CALLERS = ("src", "bench")

# Public entry points that nothing in the system calls: halves of the
# document format whose other halves the command line uses, or that read a
# document type README lists.
ENTRY_POINTS = {
    "bundle_to_json": "writes the 'bundle' document that bundle_from_json reads",
    "bundle_from_json": "reads the 'bundle' document type that README lists",
    "lifting_to_json": "writes the Frobenius liftings that 'cartier apply' reads",
    "witt_tuple_to_json": "writes the inputs of 'witt lift' and 'witt flow-step'",
    "filtration_from_json": "reads the filtrations that 'filtration compute' writes",
}

# Defaulted parameters, as (function, parameter), that only tests set.
SET_BY_TESTS = {
    ("fn_apply", "lifting"): "tests certify the Taylor transitions between the "
    "pullbacks under two liftings against the pullbacks themselves",
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


def _caller_trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in _searched_files(CALLERS)]


def _references():
    """(names, attributes): for every name, imported name and attribute
    that the system mentions, one entry per mention, the set of the
    (file, line) of every definition whose body holds it."""
    names, attributes = {}, {}

    def visit(node, path, homes):
        if isinstance(node, FUNCTION_NODES):
            homes = homes | {(path, node.lineno)}
        if isinstance(node, ast.Name):
            names.setdefault(node.id, []).append(homes)
        elif isinstance(node, ast.Attribute):
            attributes.setdefault(node.attr, []).append(homes)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.setdefault(alias.name, []).append(homes)
        for child in ast.iter_child_nodes(node):
            visit(child, path, homes)

    for path in _searched_files(CALLERS):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), frozenset())
    return names, attributes


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
    names, attributes = _references()
    defined = {node.name for _, node, _ in _library_functions()}
    assert sorted(set(ENTRY_POINTS) - defined) == []
    unused = []
    for path, node, is_method in _library_functions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if _is_click_command(node) or name in ENTRY_POINTS:
            continue
        mentions = attributes.get(name, []) + ([] if is_method else names.get(name, []))
        if all((path, node.lineno) in homes for homes in mentions):
            unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unused == []


def _is_init_false(value):
    """A dataclass field(...) declared with init=False."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def _signatures():
    """(path, label, callee, names, defaulted) for every library callable:
    the name a call uses, its parameters in positional order and the
    defaulted ones among them, as (name, line)."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner.update((id(fn), cls) for fn in cls.body if isinstance(fn, FUNCTION_NODES))
            if _is_dataclass(cls):
                fields = [
                    node
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and not _is_init_false(node.value)
                ]
                names = [node.target.id for node in fields]
                defaulted = [(node.target.id, node.lineno) for node in fields if node.value]
                yield path, cls.name, cls.name, names, defaulted
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            names = [a.arg for a in positional + args.kwonlyargs]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            if cls is not None and fn.name == "__init__":
                callee = label = cls.name
            else:
                callee = fn.name
                label = fn.name if cls is None else "%s.%s" % (cls.name, fn.name)
            yield path, label, callee, names, [(a.arg, a.lineno) for a in defaulted]


def _passed_arguments(trees):
    """{callee: (most positional arguments, keywords)} over every call the
    given modules make, and every name they read other than as the function
    of a call, which is how a function is passed as a value; a call that
    unpacks *args or **kwargs passes everything."""
    passed, values, funcs = {}, set(), set()
    everything = float("inf")
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            funcs.add(id(node.func))
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            count, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = max(count, everything if starred else len(node.args))
            keywords = keywords | {k.arg for k in node.keywords}
            passed[name] = (count, keywords)
        for node in ast.walk(tree):
            if id(node) in funcs or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                values.add(node.id)
            elif isinstance(node, ast.Attribute):
                values.add(node.attr)
    return passed, values


def _environment_reads(tree):
    """Lines where a module reads an environment variable."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno


def test_every_parameter_is_set():
    """Every defaulted parameter has a caller in the system that sets it,
    and no setting comes from the environment instead."""
    passed, values = _passed_arguments(_caller_trees())
    classes = {
        node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    defined = {(label, name) for _, label, _, _, params in _signatures() for name, _ in params}
    assert sorted(SET_BY_TESTS.keys() - defined) == []
    unset = []
    for path, label, callee, names, defaulted in _signatures():
        if callee in ENTRY_POINTS or callee in values and callee not in classes:
            continue
        count, keywords = passed.get(callee, (0, set()))
        if None in keywords:
            continue
        for name, line in defaulted:
            if names.index(name) < count or name in keywords:
                continue
            if (label, name) not in SET_BY_TESTS:
                unset.append("%s:%d %s(%s)" % (path.name, line, label, name))
    for path in SOURCES:
        for line in _environment_reads(ast.parse(path.read_text())):
            unset.append("%s:%d environment" % (path.name, line))
    assert unset == []


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
