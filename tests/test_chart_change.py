"""The chart change t -> 1/s is written in one place.

Every object on the projective line reads in chart 1 through
ProjectiveLine.to_other_chart, so inverting the coordinate, whether by a
LaurentPoly.var call with exponent -1 or by a rescale(-1) exponent map,
appears in curves.py and in no other library module.  Likewise a stored
chart-1 matrix is checked against its chart rule only by
bundles.check_per_chart, and every field on the line rejects a pole on
either chart and a chart-1 matrix its chart rule does not give.
"""

import ast
import random
from pathlib import Path

import pytest

import hdflow
from hdflow.bundles import (
    Bundle,
    BundleMap,
    FlatBundle,
    HiggsBundle,
    chart1_connection,
    chart1_form,
    chart1_map,
    check_per_chart,
    per_chart,
)
from hdflow.cartier import inverse_cartier_1
from hdflow.corpus import CorpusParams, generate, random_lifting
from hdflow.curves import AffineLine, ProjectiveLine
from hdflow.graded import GradedHiggsBundle, GradedMap
from hdflow.ringmath import LaurentPoly, RingMatrix, Zmod

from oracles import (
    conjugate_higgs_frames,
    flat_from_chart0,
    map_from_chart0,
    random_graded_higgs,
    random_unit,
)

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


def _chart_rule_comparisons(path):
    """Line numbers of comparisons with an operand that calls a chart rule
    (a function whose name contains 'chart1', such as chart1_map)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left] + node.comparators:
            if not isinstance(operand, ast.Call):
                continue
            func = operand.func
            name = getattr(func, "attr", None) or getattr(func, "id", "")
            if "chart1" in name:
                lines.append(node.lineno)
    return lines


def test_only_check_per_chart_compares_chart_one_matrices():
    # a stored chart-1 matrix is checked against its chart rule through
    # bundles.check_per_chart, which compares whole per-chart tuples; no
    # module compares the result of a chart rule by hand
    found = {
        path.name: _chart_rule_comparisons(path)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


# -- every field on the line rejects poles and a wrong chart-1 matrix ---------

F5 = Zmod(5)
P1 = ProjectiveLine(F5)
A1 = AffineLine(F5)


def _line(curve, a):
    return Bundle.sum_of_lines(curve, (a,)) if curve.is_projective else Bundle.free(curve, 1)


def _higgs(curve, a, mats):
    return HiggsBundle(_line(curve, a), mats).validate()


def _flat(curve, a, mats):
    return FlatBundle(_line(curve, a), mats).validate()


def _map(curve, a, mats):
    E = _line(curve, a)
    return BundleMap(E, E, mats).validate()


def _graded(curve, a, mats):
    """O(a+1) <- O(a) with the given connecting map."""
    return GradedHiggsBundle((_line(curve, a + 1), _line(curve, a)), (mats,)).validate()


def _graded_map(curve, a, mats):
    G = GradedHiggsBundle((_line(curve, a),), ())
    return GradedMap((mats,)).validate(G, G)


BUILDERS = {
    "higgs": _higgs,
    "connection": _flat,
    "map": _map,
    "graded higgs": _graded,
    "graded map": _graded_map,
}

# Rank-1 fields on P^1 over F_5 as (a, chart-0 entry, chart-1 entry), each
# entry an {exponent: coefficient} dict.  A "pole on chart c" pair obeys the
# chart rule, so the pole is its only fault; on O(a), ghat(s) = s^a:
#   map:        M_1 = s^0 M_0(1/s) s^0 on O(0);
#   Higgs form: M_1 = -s^-2 M_0(1/s) on O(0);
#   connection: A_1 = -s^-2 A_0(1/s) - a s^-1 on O(a), so on O(1) the
#               gauge term cancels the pole of A_0 = -t^-1;
#   graded:     M_1 = -s^-1 M_0(1/s) for the map O(0) -> O(1) (x) forms.
FIELDS = {
    "higgs": {
        "valid": (0, {}, {}),
        "pole on chart 0": (0, {-2: 1}, {0: 4}),
        "pole on chart 1": (0, {0: 1}, {-2: 4}),
        "wrong chart 1": (0, {}, {0: 1}),
    },
    "connection": {
        "valid": (0, {}, {}),
        "pole on chart 0": (1, {-1: 4}, {}),
        "pole on chart 1": (0, {0: 1}, {-2: 4}),
        "wrong chart 1": (0, {}, {0: 1}),
    },
    "map": {
        "valid": (0, {0: 1}, {0: 1}),
        "pole on chart 0": (0, {-1: 1}, {1: 1}),
        "pole on chart 1": (0, {1: 1}, {-1: 1}),
        "wrong chart 1": (0, {0: 1}, {0: 2}),
    },
    "graded higgs": {
        "valid": (0, {}, {}),
        "pole on chart 0": (0, {-1: 1}, {0: 4}),
        "pole on chart 1": (0, {0: 1}, {-1: 4}),
        "wrong chart 1": (0, {}, {0: 1}),
    },
}
FIELDS["graded map"] = FIELDS["map"]


def _per_chart(curve, entries):
    mats = tuple(RingMatrix(F5, [[LaurentPoly(F5, e)]]) for e in entries)
    return mats[: curve.ncharts]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_every_field_accepts_its_chart_rule(kind):
    a, *entries = FIELDS[kind]["valid"]
    BUILDERS[kind](P1, a, _per_chart(P1, entries))
    BUILDERS[kind](A1, a, _per_chart(A1, entries))


@pytest.mark.parametrize(
    "fault", ["pole on chart 0", "pole on chart 1", "wrong chart 1"]
)
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_every_field_rejects_a_pole_and_a_wrong_chart_one_matrix(kind, fault):
    a, *entries = FIELDS[kind][fault]
    with pytest.raises(ValueError):
        BUILDERS[kind](P1, a, _per_chart(P1, entries))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_every_field_rejects_a_pole_on_the_affine_line(kind):
    with pytest.raises(ValueError):
        BUILDERS[kind](A1, 0, _per_chart(A1, [{-1: 1}]))


@pytest.mark.parametrize(
    "build",
    [
        lambda E, M0: HiggsBundle.from_chart0(E, M0),
        lambda E, M0: flat_from_chart0(E, M0),
        lambda E, M0: map_from_chart0(E, E, M0),
    ],
    ids=["higgs", "connection", "map"],
)
def test_from_chart0_rejects_a_chart_zero_pole_whatever_chart_one_gives(build):
    # t^-2 on O(0) as a form or a connection, and t^-1 on O(0) as a map,
    # have polynomial chart-1 images
    E = Bundle.sum_of_lines(P1, (0,))
    for e in (-1, -2):
        with pytest.raises(ValueError):
            build(E, RingMatrix(F5, [[LaurentPoly.var(F5, e)]]))


def test_higgs_from_chart0_rejects_a_pole_that_chart_one_clears():
    # (1, 0) = t^-1 maps O(0) into O(4) (x) forms, where it reads -s^3
    E = Bundle.sum_of_lines(P1, [0, 4])
    zero = LaurentPoly.zero(F5)
    theta0 = RingMatrix(F5, [[zero, zero], [LaurentPoly.var(F5, -1), zero]])
    assert chart1_form(theta0, E, E).is_polynomial()
    with pytest.raises(ValueError):
        HiggsBundle.from_chart0(E, theta0)


# -- the multiplied-through check gives per_chart's verdict -------------------


def _fields(rng, p):
    """(rule, source, target, (M0, M1)) for valid fields on P^1 over F_p:
    Higgs forms in twisted frames, connecting maps between graded pieces,
    polynomials in a Higgs matrix as maps, and the connections of their
    level-one transforms, whose transitions have a nonzero derivative only
    under a non-standard lifting."""
    curve = ProjectiveLine(Zmod(p))
    for ranks in ((1, 1), (2, 1), (1, 2)):
        H = conjugate_higgs_frames(rng, random_graded_higgs(rng, curve, ranks))
        E, (theta0, _) = H.bundle, H.theta
        yield chart1_form, E, E, H.theta
        unit = random_unit(rng, E.domain)
        M0 = theta0.add(RingMatrix.identity(E.domain, E.rank).scale_const(unit))
        yield chart1_map, E, E, per_chart(M0, chart1_map, E, E, "map")
        for lifting in (None, random_lifting(rng, curve)):
            flat = inverse_cartier_1(H, lifting)
            yield chart1_connection, flat.bundle, flat.bundle, flat.A
    G = generate(CorpusParams(p=p, rank=3, weight=1, count=1, seed=p))[0]
    for k, mats in enumerate(G.maps):
        yield chart1_form, G.pieces[k + 1], G.pieces[k], mats


def _mutants(rng, rule, source, target, mats):
    """The pair itself, one coefficient changed on each chart, a pole added
    on each chart, the charts swapped, and each changed chart-0 matrix with
    the chart-1 matrix its rule gives, pole or not."""
    out = [mats, (mats[1], mats[0])]
    d = mats[0].domain
    for c in range(2):
        i, j = rng.randrange(mats[c].nrows), rng.randrange(mats[c].ncols)
        for e in (rng.randrange(3), -1):
            M = mats[c].copy()
            M.rows[i][j] = M.rows[i][j].add(LaurentPoly(d, {e: random_unit(rng, d)}))
            out.append(tuple(M if k == c else mats[k] for k in range(2)))
            if c == 0:
                out.append((M, rule(M, source, target)))
    return out


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


def _per_chart_equality(mats, rule, source, target, what):
    """The check as per_chart equality, inverting ghat_source."""
    if per_chart(mats[0], rule, source, target, what) != tuple(mats):
        raise ValueError("%s matrices disagree on the overlap" % what)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_multiplied_through_check_matches_per_chart_equality(p, monkeypatch):
    # same verdict and message as per_chart equality; a passing check
    # inverts no transition
    rng = random.Random(p)
    inverted = []
    inverse = RingMatrix.inverse

    def counted(M):
        inverted.append(M)
        return inverse(M)

    monkeypatch.setattr(RingMatrix, "inverse", counted)
    seen = set()
    for rule, source, target, valid in _fields(rng, p):
        for mats in _mutants(rng, rule, source, target, valid):
            args = (mats, rule, source, target, "field")
            want = _verdict(_per_chart_equality, *args)
            del inverted[:]
            assert _verdict(check_per_chart, *args) == want
            assert want is not None or inverted == []
            seen.add((rule.__name__, want))
    verdicts = {
        None,
        "field matrix has a pole",
        "field matrix fails to extend over infinity",
        "field matrices disagree on the overlap",
    }
    for rule in (chart1_map, chart1_form, chart1_connection):
        assert {want for name, want in seen if name == rule.__name__} == verdicts
