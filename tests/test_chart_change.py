"""The chart change t -> 1/s is written in one place.

Every object on the projective line reads in chart 1 through
ProjectiveLine.to_other_chart, so inverting the coordinate, whether by a
LaurentPoly.var call with exponent -1 or by a rescale(-1) exponent map,
appears in curves.py and in no other library module.
"""

import ast
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent


def _inverse_coordinate_calls(path):
    """Line numbers of the var(domain, -1) and rescale(-1) calls in one
    module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "var":
            exponent = node.args[1:2] + [k.value for k in node.keywords if k.arg == "e"]
        elif node.func.attr == "rescale":
            exponent = node.args[:1] + [k.value for k in node.keywords if k.arg == "k"]
        else:
            continue
        for arg in exponent:
            try:
                if ast.literal_eval(arg) == -1:
                    lines.append(node.lineno)
            except ValueError:
                pass
    return lines


def test_only_curves_substitutes_the_inverse_coordinate():
    found = {
        path.name: _inverse_coordinate_calls(path)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("curves.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
