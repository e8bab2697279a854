"""Charts, coordinate changes, Frobenius liftings, and exact p-divisions;
and that no module but curves.py tests which curve it is on."""

import ast
from pathlib import Path

import pytest

import hdflow
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.errors import WrongModulus
from hdflow.ringmath import LaurentPoly, RingMatrix, Zmod


def test_coordinate_change_is_involution():
    R = Zmod(3)
    X = ProjectiveLine(R)
    f = LaurentPoly(R, {2: 1, 0: 2, -1: 1})
    assert X.to_other_chart(X.to_other_chart(f)) == f
    M = RingMatrix(R, [[f, LaurentPoly.var(R, 3)], [LaurentPoly.one(R), f.shift(-2)]])
    assert X.to_other_chart(M).entry(0, 1) == LaurentPoly.var(R, -3)
    assert X.to_other_chart(X.to_other_chart(M)) == M


def test_jacobian_factor():
    R = Zmod(5)
    X = ProjectiveLine(R)
    assert X.jacobian_factor() == LaurentPoly(R, {-2: 4})


def test_standard_lifting_frobenius_image():
    R = Zmod(3, 2)
    X = ProjectiveLine(R)
    L = FrobeniusLifting.standard(X)
    assert L.frobenius_image(0, R) == LaurentPoly(R, {3: 1})
    assert L.frobenius_image(1, R) == LaurentPoly(R, {3: 1})


def test_derivative_quotient_frozen_p3():
    # t -> t^3 gives dF/p = t^2; t -> t^3 + 3t gives t^2 + 1
    R = Zmod(3)
    X = AffineLine(R)
    std = FrobeniusLifting.standard(X)
    assert std.derivative_quotient(0, R) == LaurentPoly(R, {2: 1})
    shifted = FrobeniusLifting(X, (LaurentPoly(R, {1: 1}),))
    assert shifted.derivative_quotient(0, R) == LaurentPoly(R, {2: 1, 0: 1})


def test_derivative_quotient_frozen_p5_m2():
    # t -> t^5 + 5 t^2 gives dF/p = t^4 + 2t over Z/25
    R = Zmod(5, 2)
    X = AffineLine(R)
    L = FrobeniusLifting(X, (LaurentPoly(R, {2: 1}),))
    assert L.derivative_quotient(0, R) == LaurentPoly(R, {4: 1, 1: 2})


def test_z_same_chart_frozen():
    # ((t^3 + 3t) - t^3)/3 = t
    R = Zmod(3)
    X = AffineLine(R)
    a = FrobeniusLifting(X, (LaurentPoly(R, {1: 1}),))
    b = FrobeniusLifting.standard(X)
    assert a.z_same_chart(b, 0, R) == LaurentPoly(R, {1: 1})


def test_z_cross_chart_standard_vanishes():
    # with h = 0 on both charts, Fhat_1(t) = t^p exactly, so z_01 = 0
    for (p, m) in [(3, 1), (3, 2), (5, 1)]:
        R = Zmod(p, m)
        X = ProjectiveLine(R)
        L = FrobeniusLifting.standard(X)
        assert L.z_cross_chart(R).is_zero()


def test_z_cross_chart_frozen_chart0_shift():
    # h_0 = t, h_1 = 0: z_01 = (F_0 - t^p)/p = h_0 = t
    R = Zmod(3)
    X = ProjectiveLine(R)
    L = FrobeniusLifting(X, (LaurentPoly(R, {1: 1}), LaurentPoly.zero(R)))
    assert L.z_cross_chart(R) == LaurentPoly(R, {1: 1})


def test_z_cross_chart_frozen_chart1_shift():
    # h_0 = 0, h_1 = s: F_1(s) = s^3 + 3s, so in t-coordinates
    # Fhat_1 = 1/(t^-3 + 3/t) = t^3 * (1 + 3t^2)^-1 = t^3 - 3t^5 mod 9,
    # and z_01 = (t^3 - t^3 + 3t^5)/3 = t^5 mod 3.
    R = Zmod(3)
    X = ProjectiveLine(R)
    L = FrobeniusLifting(X, (LaurentPoly.zero(R), LaurentPoly(R, {1: 1})))
    assert L.z_cross_chart(R) == LaurentPoly(R, {5: 1})


def test_z_cross_chart_mod9_keeps_next_correction():
    # same data at m = 2: Fhat_1 = t^3 (1 + 3t^2)^-1 = t^3 (1 - 3t^2 + 9t^4 - ...)
    # so z_01 = t^5 - 3t^7 mod 9
    R = Zmod(3, 2)
    X = ProjectiveLine(R)
    L = FrobeniusLifting(X, (LaurentPoly.zero(R), LaurentPoly(R, {1: 1})))
    assert L.z_cross_chart(R) == LaurentPoly(R, {5: 1, 7: 6})


def test_lifting_requires_zmod_and_polynomial_h():
    from hdflow.ringmath import GF

    with pytest.raises(WrongModulus):
        FrobeniusLifting.standard(AffineLine(GF(3, 2)))
    R = Zmod(3)
    with pytest.raises(ValueError):
        FrobeniusLifting(AffineLine(R), (LaurentPoly(R, {-1: 1}),))


def test_curve_dependent_errors_keep_their_messages():
    from hdflow.bundles import Bundle
    from hdflow.corpus import CorpusParamError, CorpusParams
    from hdflow.serialize import SchemaError, bundle_from_json

    R = Zmod(3)
    one = RingMatrix.identity(R, 1)
    cases = (
        (lambda: Bundle(AffineLine(R), 1, one), ValueError,
         "affine-line bundles are free: no transition"),
        (lambda: FrobeniusLifting.standard(AffineLine(R)).z_cross_chart(R), ValueError,
         "cross-chart difference needs two charts"),
        (lambda: FrobeniusLifting(ProjectiveLine(R), (LaurentPoly.zero(R),)), ValueError,
         "one h polynomial per chart required"),
        (lambda: CorpusParams(p=3, rank=1, weight=0, count=1, seed=0, curve="p1"),
         CorpusParamError, "curve must be 'P1' or 'A1'"),
    )
    for build, kind, message in cases:
        with pytest.raises(kind) as err:
            build()
        assert type(err.value) is kind and str(err.value) == message
    documents = (
        ("p1", None, "/curve", "curve must be 'P1' or 'A1'"),
        ("P1", None, "/transition", "projective bundles need a transition"),
        ("A1", [[[[0, 1]]]], "/transition", "affine bundles are free: transition must be null"),
    )
    for curve, transition, path, message in documents:
        doc = {"schema": "hdf/1", "type": "bundle", "curve": curve, "p": 3, "m": 1,
               "rank": 1, "transition": transition}
        with pytest.raises(SchemaError) as err:
            bundle_from_json(doc)
        assert (err.value.message, err.value.path) == (message, path)


CURVE_CLASSES = {"ProjectiveLine", "AffineLine"}

# The properness reads that stay outside curves.py: qualified function,
# number of is_projective reads in it, and why it must know whether degrees
# and splitting types exist.
PROPERNESS_READS = {
    "bundles.Bundle.splitting_type": (
        1,
        "a line bundle over a field is O(degree) only on a proper curve; "
        "elsewhere the read raises as split_data does",
    ),
    "bundles.Bundle.split_data": (
        1,
        "split frames exist only on a proper curve; elsewhere it raises",
    ),
    "cli._trace_certificates": (
        1,
        "a flow step certifies degree scaling only where degrees exist",
    ),
    "cli.cartier_apply": (
        1,
        "a transform certifies degree scaling only where degrees exist",
    ),
    "corpus._graded_instance": (
        1,
        "map entries are drawn up to the splitting gap on a proper curve and "
        "of degree 2 elsewhere; golden digests pin the draws",
    ),
    "corpus.random_nilpotent_higgs": (
        1,
        "the random frame twist, and its draws, happen only where frames are "
        "free; golden digests pin the draws",
    ),
}


def _names(node):
    """The names a node spells as a bare name or an attribute, through tuples."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _curve_test(node):
    """What a syntax node tests about the curve's kind, or None: a read of
    is_projective, a curve tag, an isinstance or comparison against a curve
    class, or ncharts compared with a number.  A count of per-chart matrices
    compared with ncharts asks for one matrix per chart, not for a kind."""
    if isinstance(node, ast.Attribute) and node.attr == "is_projective":
        return "is_projective"
    if isinstance(node, ast.Constant) and node.value in ("P1", "A1"):
        return "tag %r" % node.value
    if isinstance(node, ast.Call) and _names(node.func) == {"isinstance"}:
        if _names(node.args[-1]) & CURVE_CLASSES:
            return "isinstance"
    if isinstance(node, ast.Compare):
        operands = [node.left] + node.comparators
        if any(_names(x) & CURVE_CLASSES for x in operands):
            return "curve class compared"
        for a, b in zip(operands, operands[1:]):
            pair = _names(a) | _names(b)
            numbers = [x for x in (a, b) if isinstance(x, ast.Constant)]
            if "ncharts" in pair and numbers:
                return "ncharts compared with a number"
    return None


def _curve_tests(path):
    """(qualified function, what, line) for each curve-kind test in a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            what = _curve_test(child)
            if what is not None:
                found.append((".".join(inner), what, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    return found


def test_only_curves_tests_the_curve_kind():
    """Outside curves.py the library asks its curve instead of testing which
    curve it is; the properness reads in PROPERNESS_READS are the only
    exception, each counted."""
    package = Path(hdflow.__file__).resolve().parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "curves.py"]
    assert {"bundles.py", "serialize.py", "cli.py"} <= {path.name for path in sources}
    reads, others = {}, []
    for path in sources:
        for where, what, line in _curve_tests(path):
            if what == "is_projective":
                reads[where] = reads.get(where, 0) + 1
            else:
                others.append("%s:%d %s in %s" % (path.name, line, what, where))
    assert others == []
    assert reads == {where: count for where, (count, _) in PROPERNESS_READS.items()}
    assert sum(reads.values()) <= 8


def test_curve_test_finds_each_kind_of_test():
    source = (
        "def f(curve, other):\n"
        "    a = curve.is_projective\n"
        "    b = 'A1'\n"
        "    c = isinstance(curve, (AffineLine, int))\n"
        "    d = curve.ncharts == 2\n"
        "    e = type(curve) is ProjectiveLine\n"
        "    f = len(other) != curve.ncharts\n"
    )
    found = [
        _curve_test(node) for node in ast.walk(ast.parse(source)) if _curve_test(node)
    ]
    assert sorted(found) == sorted(
        [
            "is_projective",
            "tag 'A1'",
            "isinstance",
            "ncharts compared with a number",
            "curve class compared",
        ]
    )
