"""Only serialize knows the field layout of a document.

Every other library module reads documents through serialize's public
loaders, so none of them reads a private (underscore-prefixed) name of
serialize, neither as an attribute of the module nor by importing it.
"""

import ast
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent


def _imports_serialize_names(node):
    """from .serialize import ... or from hdflow.serialize import ..."""
    return isinstance(node, ast.ImportFrom) and (
        (node.level == 1 and node.module == "serialize")
        or (node.level == 0 and node.module == "hdflow.serialize")
    )


def _module_aliases(tree):
    """The names a module binds to serialize itself."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module is None)
            or (node.level == 0 and node.module == "hdflow")
        ):
            bound = [a.asname or a.name for a in node.names if a.name == "serialize"]
        elif isinstance(node, ast.Import):
            bound = [a.asname for a in node.names if a.name == "hdflow.serialize"]
        else:
            continue
        aliases.update(name for name in bound if name)
    return aliases


def _is_serialize(node, aliases):
    if isinstance(node, ast.Name):
        return node.id in aliases
    return isinstance(node, ast.Attribute) and node.attr == "serialize"


def test_only_serialize_reads_private_serialize_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "serialize.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if _imports_serialize_names(node):
                names = [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and _is_serialize(node.value, aliases):
                names = [node.attr] if node.attr.startswith("_") else []
            else:
                continue
            offenders += ["%s:%d %s" % (path.name, node.lineno, n) for n in names]
    assert offenders == []
