"""Every invariant in the library is a runtime certificate.

A bare assert statement disappears under python -O, so a certificate
written as one would silently stop being checked; invariants raise
CertificateFailed (an HdflowError) instead.
"""

import ast
from pathlib import Path

import hdflow

SOURCES = sorted(Path(hdflow.__file__).resolve().parent.glob("*.py"))


def test_library_sources_are_found():
    assert {"ringmath.py", "witt.py", "flow.py"} <= {p.name for p in SOURCES}


def _offenders(matches):
    """file:line of every syntax node in the library that matches."""
    return [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if matches(node)
    ]


def test_no_bare_assert_statements():
    assert _offenders(lambda node: isinstance(node, ast.Assert)) == []


def _raises_runtime_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "RuntimeError"


def test_no_runtime_error_raises():
    """Library failures are typed: the command line turns an HdflowError into
    an error object, but a RuntimeError would escape as a traceback."""
    assert _offenders(_raises_runtime_error) == []
