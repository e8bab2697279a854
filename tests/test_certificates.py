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


def test_no_bare_assert_statements():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []
