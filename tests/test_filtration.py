"""Tests for semistability, destabilizers, and Simpson's filtration."""

import copy
import json
import random
import time
from fractions import Fraction

import pytest

from hdflow import bundles, filtration
from hdflow.bundles import Bundle, HiggsBundle, hn_filtration
from hdflow.cartier import inverse_cartier_1
from hdflow.corpus import CorpusParams, generate
from hdflow.curves import AffineLine, ProjectiveLine
from hdflow.errors import (
    CertificateFailed,
    NotNablaSemistable,
    SearchBudgetExceeded,
    SemistableInput,
    WrongModulus,
)
from hdflow.filtration import (
    DescentRecord,
    check_window_descent,
    is_higgs_semistable,
    is_nabla_semistable,
    max_destabilizer_graded,
    simpson_filtration,
)
from hdflow.graded import (
    GradedHiggsBundle,
    grade,
)
from hdflow.ringmath import (
    GF,
    BirkhoffFactorization,
    LaurentPoly,
    RingMatrix,
    Zmod,
    saturation_basis,
)
from hdflow.serialize import matrix_to_json

from oracles import (
    destabilizer_theta_closure,
    flat_from_chart0,
    random_split_transition,
    random_unimodular_poly,
    random_unit,
    same_as,
    saturating_destabilizer_scan,
)


def upper_higgs(curve, exps, entry):
    d = curve.domain
    E = Bundle.sum_of_lines(curve, exps)
    theta = RingMatrix(
        d,
        [
            [LaurentPoly.zero(d), entry],
            [LaurentPoly.zero(d), LaurentPoly.zero(d)],
        ],
    )
    return HiggsBundle.from_chart0(E, theta)


def transform_36(p=3):
    """The splitting-(p, -p) flat bundle with an off-diagonal connection."""
    d = Zmod(p, 1)
    curve = ProjectiveLine(d)
    return inverse_cartier_1(
        upper_higgs(curve, (1, -1), LaurentPoly.const(d, d.one))
    )


def one_grade(bundle):
    return GradedHiggsBundle((bundle,), ())


def conjugated_trivial_flat(rng, curve, rank):
    """A trivial-type flat bundle presented in a random unimodular frame."""
    d = curve.domain
    E = Bundle.free(curve, rank)
    flat = flat_from_chart0(E, RingMatrix.zeros(d, rank, rank))
    if not curve.is_projective:
        return flat
    Q = random_unimodular_poly(rng, d, rank, ops=3, max_deg=1)
    Qinv = Q.inverse()
    g_new = E.transition.mul(Q)
    A_new = Qinv.mul(flat.A[0]).mul(Q).add(Qinv.mul(Q.derivative()))
    return flat_from_chart0(Bundle(curve, rank, g_new), A_new)


# -- connection semistability ------------------------------------------------


def test_nabla_semistable_trivial():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    flat = flat_from_chart0(Bundle.free(curve, 2), RingMatrix.zeros(d, 2, 2))
    ok, witness = is_nabla_semistable(flat)
    assert ok and witness is None


def test_nabla_unstable_mixed_type_with_witness():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    V = Bundle.sum_of_lines(curve, (3, 0))
    flat = flat_from_chart0(V, RingMatrix.zeros(d, 2, 2))
    ok, witness = is_nabla_semistable(flat)
    assert not ok
    assert witness.rank == 1 and witness.degree() == 3
    assert witness.slope() == Fraction(3)


def test_nabla_semistability_of_transforms():
    ok, _ = is_nabla_semistable(transform_36())
    assert not ok

    d = Zmod(5, 1)
    curve = ProjectiveLine(d)
    H = inverse_cartier_1(HiggsBundle.zero(Bundle.free(curve, 3)))
    ok, witness = is_nabla_semistable(H)
    assert ok and witness is None


def test_nabla_semistable_affine_and_modulus_guard():
    d = Zmod(5, 1)
    flat = flat_from_chart0(
        Bundle.free(AffineLine(d), 2), RingMatrix.zeros(d, 2, 2)
    )
    ok, witness = is_nabla_semistable(flat)
    assert ok and witness is None

    W = Zmod(5, 2)
    flatW = flat_from_chart0(
        Bundle.free(ProjectiveLine(W), 2), RingMatrix.zeros(W, 2, 2)
    )
    with pytest.raises(WrongModulus):
        is_nabla_semistable(flatW)


# -- graded semistability ----------------------------------------------------


def test_trivial_graded_semistable():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    ok, witness = is_higgs_semistable(one_grade(Bundle.free(curve, 2)))
    assert ok and witness is None
    with pytest.raises(SemistableInput):
        max_destabilizer_graded(one_grade(Bundle.free(curve, 2)))


def test_two_grade_line_destabilizer():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    zero_map = RingMatrix.zeros(d, 1, 1)
    G = GradedHiggsBundle(
        (Bundle.sum_of_lines(curve, (1,)), Bundle.sum_of_lines(curve, (-1,))),
        ((zero_map, zero_map),),
    )
    ok, report = is_higgs_semistable(G)
    assert not ok
    best = max_destabilizer_graded(G)
    assert best.mu_max == Fraction(1) and best.r_max == 1
    assert best.pieces[0] is not None and best.pieces[0].degree() == 1
    assert best.pieces[1] is None


def test_single_grade_split_destabilizer():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    G = one_grade(Bundle.sum_of_lines(curve, (1, -1)))
    best = max_destabilizer_graded(G)
    assert best.mu_max == Fraction(1) and best.r_max == 1
    hn_top = hn_filtration(G.pieces[0])[0]
    assert same_as(best.pieces[0], hn_top)


def test_invariance_constrains_candidates():
    # grade 1 = O(-2) maps onto grade 0 = O(2) by a nonzero connecting map,
    # so the grade-1 line alone is not invariant; the witness sits in grade 0
    d = Zmod(5, 1)
    curve = ProjectiveLine(d)
    G = GradedHiggsBundle(
        (Bundle.sum_of_lines(curve, (2,)), Bundle.sum_of_lines(curve, (-2,))),
        (
            (
                RingMatrix(d, [[LaurentPoly.const(d, d.one)]]),
                RingMatrix(
                    d, [[LaurentPoly.var(d, 2).scale(d.coerce(-1))]]
                ),
            ),
        ),
    )
    G.validate()
    best = max_destabilizer_graded(G)
    assert best.mu_max == Fraction(2) and best.r_max == 1
    assert best.pieces[1] is None


def test_lex_maximum_prefers_rank_at_equal_slope():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    zero_map = RingMatrix.zeros(d, 2, 1)
    G = GradedHiggsBundle(
        (Bundle.sum_of_lines(curve, (2, -4)), Bundle.sum_of_lines(curve, (2,))),
        ((zero_map, zero_map),),
    )
    best = max_destabilizer_graded(G)
    assert best.mu_max == Fraction(2) and best.r_max == 2
    assert best.pieces[0].rank == 1 and best.pieces[1].rank == 1

    heur = destabilizer_theta_closure(G)
    assert heur is not None
    assert (heur.mu_max, heur.r_max) == (best.mu_max, best.r_max)


def test_heuristic_agrees_on_unstable_samples():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    samples = [
        one_grade(Bundle.sum_of_lines(curve, (1, -1))),
        one_grade(Bundle.sum_of_lines(curve, (3, -3))),
        GradedHiggsBundle(
            (Bundle.sum_of_lines(curve, (1,)), Bundle.sum_of_lines(curve, (-1,))),
            ((RingMatrix.zeros(d, 1, 1), RingMatrix.zeros(d, 1, 1)),),
        ),
    ]
    for G in samples:
        best = max_destabilizer_graded(G)
        heur = destabilizer_theta_closure(G)
        assert heur is not None
        assert (heur.mu_max, heur.r_max) == (best.mu_max, best.r_max)


def test_affine_graded_always_semistable():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = one_grade(Bundle.free(curve, 2))
    ok, witness = is_higgs_semistable(G)
    assert ok and witness is None
    with pytest.raises(SemistableInput):
        max_destabilizer_graded(G)


def test_scan_budget_exhaustion():
    # the reference enumeration spends a budget and runs out of it; the
    # library reads the answer off the splitting type: the O(3) line
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    G = one_grade(Bundle.sum_of_lines(curve, (3, -3)))
    with pytest.raises(SearchBudgetExceeded):
        saturating_destabilizer_scan(G, 2, first_hit=False)
    best = max_destabilizer_graded(G)
    assert (best.mu_max, best.r_max) == (3, 1)
    assert best.pieces[0].degree() == 3
    assert same_as(best.pieces[0], hn_filtration(G.pieces[0])[0])
    assert _report_bytes(is_higgs_semistable(G)[1]) == _report_bytes(best)


def test_destabilizer_deterministic():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    # two equal objects built apart: one object's second call reads the
    # report its first call stored
    a, b = (
        max_destabilizer_graded(one_grade(Bundle.sum_of_lines(curve, (1, -1))))
        for _ in range(2)
    )
    assert a is not b
    assert a.mu_max == b.mu_max and a.r_max == b.r_max
    assert same_as(a.pieces[0], b.pieces[0])


def test_each_graded_object_is_decided_once(monkeypatch):
    """is_higgs_semistable and max_destabilizer_graded share one decision
    per graded object; a copy taken before the decision decides afresh."""
    calls = []
    top = filtration._top_destabilizer
    monkeypatch.setattr(filtration, "_top_destabilizer", lambda G: calls.append(G) or top(G))
    curve = ProjectiveLine(Zmod(3, 1))
    G = one_grade(Bundle.sum_of_lines(curve, (1, -1)))
    twin = copy.deepcopy(G)
    ok, witness = is_higgs_semistable(G)
    assert not ok and max_destabilizer_graded(G) is witness
    assert len(calls) == 1 and calls[0] is G
    assert _report_bytes(max_destabilizer_graded(twin)) == _report_bytes(witness)
    assert len(calls) == 2 and calls[1] is twin
    # a semistable object stores None, not the undecided mark
    S = one_grade(Bundle.free(curve, 2))
    assert is_higgs_semistable(S) == is_higgs_semistable(S) == (True, None)
    with pytest.raises(SemistableInput):
        max_destabilizer_graded(S)
    assert len(calls) == 3


def _record_calls(monkeypatch, targets):
    """Spy on each (owner, name) or (owner, name, wrap): the list returned
    gets (name, innermost spied caller or "decide", args) per call."""
    calls, stack = [], ["decide"]
    for owner, name, *wrap in targets:
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls.append((name, stack[-1], args))
            stack.append(name)
            try:
                return original(*args)
            finally:
                stack.pop()

        monkeypatch.setattr(owner, name, wrap[0](counted) if wrap else counted)
    return calls


def test_line_pieces_are_read_off_their_degree(monkeypatch):
    """Two line-bundle pieces at p = 3: a semistable pair factors nothing,
    an unstable one factors only the top piece whose frame _top_part reads,
    and no Bundle.degree expands a determinant."""
    semistable, unstable = (
        generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=seed))[0]
        for seed in (2, 4)
    )
    assert [P.rank for P in semistable.pieces + unstable.pieces] == [1, 1, 1, 1]
    calls = _record_calls(monkeypatch, (
        (bundles, "birkhoff_factorize"),
        (RingMatrix, "det"),
        (Bundle, "degree"),
    ))

    def named(name):
        return [(where, args) for what, where, args in calls if what == name]

    assert is_higgs_semistable(semistable) == (True, None)
    assert named("birkhoff_factorize") == [] and named("det") == []
    ok, report = is_higgs_semistable(unstable)
    monkeypatch.undo()
    assert not ok and report.pieces[1] is None
    top = unstable.pieces[0]
    factored = [args[0] for _, args in named("birkhoff_factorize")]
    assert len(factored) == 1 and factored[0] is top.transition
    assert named("degree") and all(where != "degree" for where, _ in named("det"))
    assert top._split is not None and unstable.pieces[1]._split is None


def _monomial_transition(rng, F, exps):
    """A sum of lines c_i t^-a_i, unit c_i, its rows permuted."""
    rows = RingMatrix.diagonal(
        F, [LaurentPoly.monomial(F, random_unit(rng, F), -a) for a in exps]
    ).rows
    rng.shuffle(rows)
    return RingMatrix(F, rows)


def test_split_frame_columns_are_the_selector_products():
    """Top parts and Harder-Narasimhan steps read the leading columns of
    Qinv and of P in chart 1; each read equals the product by the identity selector
    it replaced, on lines and on monomial and eliminated transitions of
    rank 2 to 4."""
    rng = random.Random(35)
    for F in (Zmod(3), Zmod(5), Zmod(7), GF(3, 2), GF(5, 2)):
        X = ProjectiveLine(F)
        for n in (1, 2, 3, 4):
            for monomial in (True, False):
                exps = sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True)
                if n > 1 and rng.randrange(2):
                    exps[1] = exps[0]
                if monomial:
                    g = _monomial_transition(rng, F, exps)
                else:
                    g = random_split_transition(rng, F, exps)
                E = Bundle(X, n, g)
                sd = E.split_data()
                Phat = X.to_other_chart(sd.P)
                assert sd.exponents == exps
                selected = []
                for cut in range(1, n + 1):
                    sel = RingMatrix.identity(F, n).columns(range(cut))
                    read = (sd.Qinv.columns(range(cut)), Phat.columns(range(cut)))
                    assert read == (sd.Qinv.mul(sel), Phat.mul(sel))
                    if cut < n and exps[cut] < exps[cut - 1]:
                        selected.append(tuple(saturation_basis(M) for M in read))
                assert [S.basis for S in hn_filtration(E)[:-1]] == selected
                if exps.count(exps[0]) == 1:
                    top = filtration._top_part(E, exps, exps[0])
                    e0 = RingMatrix.identity(F, n).columns(range(1))
                    assert top.basis == (sd.Qinv.mul(e0), Phat.mul(e0))


def test_deciding_reads_frames_without_products(monkeypatch):
    """An unstable object whose top pieces are a rank-2 bundle of type
    (2, -1) in non-monomial frames and a line 3 t^-2: deciding it multiplies
    matrices only inside the rank-2 factorization and for the top-invariant
    certificate, and runs no factorization certificate, determinant or
    identity on a 1 x 1 matrix.  An unstable object of monomial pieces of
    rank 2, 3 and 4 on permuted rows runs none of them at all, and
    multiplies only for the top-invariant certificate."""
    F = Zmod(5)
    X = ProjectiveLine(F)
    E = Bundle(X, 2, random_split_transition(random.Random(36), F, [2, -1]))
    L = Bundle(X, 1, RingMatrix(F, [[LaurentPoly.monomial(F, 3, -2)]]))
    zero = RingMatrix.zeros(F, 2, 1)
    G = GradedHiggsBundle((E, L), ((zero, zero),)).validate()
    calls = _record_calls(monkeypatch, (
        (bundles, "birkhoff_factorize"),
        (BirkhoffFactorization, "verify"),
        (RingMatrix, "mul"),
        (RingMatrix, "det"),
        (RingMatrix, "identity", staticmethod),
    ))
    ok, report = is_higgs_semistable(G)
    monkeypatch.undo()
    assert not ok and report.r_max == 2 and report.mu_max == 2
    factored = [args[0] for what, _, args in calls if what == "birkhoff_factorize"]
    assert factored == [E.transition, L.transition]
    outside = [args for what, where, args in calls if what == "mul" and where == "decide"]
    assert outside == [(G.maps[0][0], report.pieces[1].basis[0])]
    shapes = [
        args[1] if what == "identity" else args[-1].nrows
        for what, _, args in calls
        if what in ("verify", "det", "identity")
    ]
    assert shapes and 1 not in shapes
    assert L.split_data().Q == RingMatrix(F, [[LaurentPoly.const(F, 3)]])

    F = Zmod(7)
    X = ProjectiveLine(F)
    rng = random.Random(36)
    pieces = tuple(
        Bundle(X, len(exps), _monomial_transition(rng, F, exps))
        for exps in ((3, -1), (1, 0, -2), (3, 0, 0, -4))
    )
    maps = tuple(
        (RingMatrix.zeros(F, P.rank, Q.rank),) * 2 for P, Q in zip(pieces, pieces[1:])
    )
    G = GradedHiggsBundle(pieces, maps).validate()
    calls = _record_calls(monkeypatch, (
        (bundles, "birkhoff_factorize"),
        (BirkhoffFactorization, "verify"),
        (RingMatrix, "mul"),
        (RingMatrix, "det"),
        (RingMatrix, "is_unimodular"),
        (RingMatrix, "identity", staticmethod),
    ))
    ok, report = is_higgs_semistable(G)
    monkeypatch.undo()
    assert not ok and report.r_max == 2 and report.mu_max == 3
    assert [args[0] for what, _, args in calls if what == "birkhoff_factorize"] == [
        P.transition for P in pieces
    ]
    assert [(what, where, args) for what, where, args in calls if what != "birkhoff_factorize"] == [
        ("mul", "decide", (G.maps[1][0], report.pieces[2].basis[0]))
    ]


def test_top_slope_certificate_compares_against_the_exact_slope(monkeypatch):
    """The top summands of degree a destabilize only when a exceeds the
    slope of the whole object: a degree forced to a times the rank (slope
    a) is refused as "top-slope", one less (slope just below a) decides."""
    F = Zmod(5)
    X = ProjectiveLine(F)

    def unstable():
        E = Bundle(X, 2, random_split_transition(random.Random(36), F, [2, -1]))
        L = Bundle(X, 1, RingMatrix(F, [[LaurentPoly.monomial(F, 3, -2)]]))
        zero = RingMatrix.zeros(F, 2, 1)
        return GradedHiggsBundle((E, L), ((zero, zero),)).validate()

    for degree, refused in ((6, True), (5, False)):
        G = unstable()
        monkeypatch.setattr(GradedHiggsBundle, "degree", lambda self: degree)
        if refused:
            with pytest.raises(CertificateFailed) as err:
                is_higgs_semistable(G)
            assert err.value.part == "top-slope"
        else:
            assert is_higgs_semistable(G)[1].mu_max == 2


# -- the canonical filtration ------------------------------------------------


def test_simpson_trivial_on_semistable_bundle():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    flat = flat_from_chart0(Bundle.free(curve, 2), RingMatrix.zeros(d, 2, 2))
    fil, log = simpson_filtration(flat)
    assert fil.level == 0 and log == ()
    ok, _ = is_higgs_semistable(grade(flat, fil).graded)
    assert ok


def test_simpson_refuses_mixed_type_with_witness():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    V = Bundle.sum_of_lines(curve, (0, 3))
    flat = flat_from_chart0(V, RingMatrix.zeros(d, 2, 2))
    with pytest.raises(NotNablaSemistable) as err:
        simpson_filtration(flat)
    assert err.value.witness is not None
    assert err.value.witness.degree() == 3 and err.value.witness.rank == 1

    with pytest.raises(NotNablaSemistable):
        simpson_filtration(transform_36())


def test_simpson_on_transform_of_semistable_input():
    rng = random.Random(5)
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    for rank in (1, 2, 3):
        E = Bundle.free(curve, rank)
        H = inverse_cartier_1(HiggsBundle.zero(E))
        fil, log = simpson_filtration(H)
        assert fil.level == 0 and log == ()
        ok, _ = is_higgs_semistable(grade(H, fil).graded)
        assert ok


def test_simpson_affine():
    d = Zmod(5, 1)
    flat = flat_from_chart0(
        Bundle.free(AffineLine(d), 2), RingMatrix.zeros(d, 2, 2)
    )
    fil, log = simpson_filtration(flat)
    assert fil.level == 0 and log == ()


def test_semistable_corpus_terminates_quickly():
    rng = random.Random(17)
    count = 0
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for rank in (1, 2, 3):
            for _ in range(4):
                flat = conjugated_trivial_flat(rng, curve, rank)
                ok, _ = is_nabla_semistable(flat)
                assert ok
                fil, log = simpson_filtration(flat)
                assert fil.level == 0 and log == ()
                ok, _ = is_higgs_semistable(grade(flat, fil).graded)
                assert ok
                count += 1
    assert count >= 30


def test_simpson_refuses_a_destabilized_trivial_grading(monkeypatch):
    # a connection-semistable bundle on the line has a constant splitting
    # type (or lives on A^1), so its trivial grading is semistable; a scan
    # that reports a destabilizer anyway breaks that certificate
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    report = max_destabilizer_graded(one_grade(Bundle.sum_of_lines(curve, (1, 0))))
    monkeypatch.setattr(filtration, "_top_destabilizer", lambda *args, **kw: report)
    flat = flat_from_chart0(Bundle.free(curve, 2), RingMatrix.zeros(d, 2, 2))
    with pytest.raises(CertificateFailed) as err:
        simpson_filtration(flat)
    assert err.value.part == "simpson-trivial"


# -- window descent bookkeeping ----------------------------------------------


def test_window_descent_checks():
    mk = lambda mu, r, lvl: DescentRecord(Fraction(mu), r, lvl)
    check_window_descent([mk(3, 1, 1), mk(2, 1, 1), mk(1, 1, 1)])
    check_window_descent([mk(3, 2, 2), mk(3, 1, 2), mk(2, 2, 2)])
    with pytest.raises(CertificateFailed) as err:
        check_window_descent([mk(2, 1, 1), mk(3, 1, 1)])
    assert err.value.part == "step-descent"
    with pytest.raises(CertificateFailed) as err:
        check_window_descent([mk(2, 1, 1), mk(2, 1, 1)])
    assert err.value.part == "window-descent"
    with pytest.raises(CertificateFailed) as err:
        check_window_descent([mk(3, 2, 2), mk(3, 2, 2), mk(3, 2, 2)])
    assert err.value.part == "window-descent"
    # incomplete trailing window is not judged
    check_window_descent([mk(3, 2, 3), mk(3, 2, 3)])


# -- the destabilizer scan against the saturating reference ------------------


def _pool_bundles():
    """Split and frame-twisted bundles with repeated exponents and negative
    degrees at p = 3, 5, 7."""
    rng = random.Random(11)
    for p, exps in (
        (3, (1, 0, 0)),
        (3, (-1, -3)),
        (5, (2, -1)),
        (5, (-1, -2)),
        (7, (0, -1)),
        (7, (3,)),
    ):
        curve = ProjectiveLine(Zmod(p, 1))
        yield Bundle.sum_of_lines(curve, exps)
        yield Bundle(curve, len(exps), random_split_transition(rng, curve.domain, exps))


# -- the destabilizer scan against the saturating reference ------------------


def _report_bytes(rep):
    if rep is None:
        return None
    return (
        rep.mu_max,
        rep.r_max,
        [
            None if S is None else [json.dumps(matrix_to_json(B)) for B in S.basis]
            for S in rep.pieces
        ],
    )


def _corpus_cases(ranks_weights, count):
    for p in (3, 5, 7):
        for rank, weight in ranks_weights:
            seed = 40 + 10 * p + 3 * rank + weight
            yield from generate(CorpusParams(p, rank, weight, count, seed))


def _box_cells(ranks=(1, 2, 3, 4)):
    """(p, rank, weight) for every cell of the documented box."""
    return [
        (p, rank, weight)
        for p in (3, 5, 7)
        for rank in ranks
        for weight in range(min(p - 2, rank - 1) + 1)
    ]


def _compare_with_oracle(G, budget):
    """Match the library's decision, witness and maximal destabilizer with
    the reference scan's; False when the reference runs out of budget."""
    try:
        want = saturating_destabilizer_scan(G, budget, first_hit=False)
    except SearchBudgetExceeded:
        return False
    first = saturating_destabilizer_scan(G, budget, first_hit=True)
    ok, witness = is_higgs_semistable(G, budget)
    assert _report_bytes(witness) == _report_bytes(first)
    assert ok == (first is None) == (want is None)
    if want is None:
        with pytest.raises(SemistableInput):
            max_destabilizer_graded(G, budget)
    else:
        assert _report_bytes(max_destabilizer_graded(G, budget)) == _report_bytes(want)
    return True


def test_scan_matches_saturating_oracle():
    """The closed form's reports equal the reference scan's, which
    saturates every pick, on seeded corpus instances (rank <= 2, weight
    <= 1), on split and frame-twisted bundles, on rank-3 bundles whose
    reference scans pick pairs of lines, and on the seeded rank-3/4
    instances of every box cell (|a| <= 1) that the reference finishes
    within a small budget."""
    curve = ProjectiveLine(Zmod(3, 1))
    twist = random_split_transition(random.Random(5), curve.domain, (1, 1, -2))
    rank_three = [Bundle.sum_of_lines(curve, (1, 1, -2)), Bundle(curve, 3, twist)]
    cases = list(_corpus_cases(((1, 0), (2, 0), (2, 1)), 4))
    cases += [one_grade(E) for E in list(_pool_bundles()) + rank_three]
    unstable = 0
    for G in cases:
        assert _compare_with_oracle(G, 10 ** 5)
        unstable += not is_higgs_semistable(G)[0]
    assert unstable >= 20
    high_rank = [
        G
        for p, rank, weight in _box_cells(ranks=(3, 4))
        for G in generate(
            CorpusParams(p, rank, weight, 3, 60 + 10 * p + 3 * rank + weight, max_exp=1)
        )
    ]
    assert len(high_rank) == 54
    compared = [G for G in high_rank if _compare_with_oracle(G, 40)]
    assert len(compared) >= 35
    assert sum(not is_higgs_semistable(G)[0] for G in compared) >= 30
    # the rank-3 cases reach bunches of two lines
    assert any(
        S is not None and S.rank == 2
        for E in rank_three
        for S in max_destabilizer_graded(one_grade(E)).pieces
    )


def test_single_line_picks_saturate_nothing(monkeypatch):
    cases = list(_corpus_cases(((2, 0), (2, 1)), 3))
    calls = []
    saturate = bundles.saturation_basis

    def spy(M):
        calls.append(M)
        return saturate(M)

    monkeypatch.setattr(bundles, "saturation_basis", spy)
    unstable = [G for G in cases if not is_higgs_semistable(G)[0]]
    for G in unstable:
        max_destabilizer_graded(G)
    assert len(unstable) >= 5
    assert calls == []
    saturating_destabilizer_scan(unstable[0], 10 ** 5, first_hit=False)
    assert calls


# -- the whole box, decided within a per-instance bound ----------------------

# CPU seconds one decision (semistability test plus maximal destabilizer)
# may take in the box sweep; the slowest seen is about 6 ms.
DECISION_CPU_BOUND = 0.1


def _check_destabilizer(G, rep):
    """The report is invariant under the connecting maps, has the rank and
    slope it reports, and destabilizes."""
    for k, mats in enumerate(G.maps):
        src = rep.pieces[k + 1]
        if src is None:
            continue
        image = mats[0].mul(src.basis[0])
        tgt = rep.pieces[k]
        assert image.is_zero() if tgt is None else tgt.contains_chart0(image)
    chosen = [S for S in rep.pieces if S is not None]
    rank = sum(S.rank for S in chosen)
    assert 0 < rank < G.rank and rank == rep.r_max
    assert Fraction(sum(S.degree() for S in chosen), rank) == rep.mu_max
    assert rep.mu_max > G.slope()


def test_box_sweep_decides_every_instance_within_bound():
    """Twenty seeded instances (|a| <= 6) of each of the 27 box cells are
    decided, each within DECISION_CPU_BOUND, with verified witnesses and
    stored reports equal to fresh ones."""
    cells = _box_cells()
    assert len(cells) == 27
    unstable = 0
    for p, rank, weight in cells:
        for G in generate(CorpusParams(p, rank, weight, 20, 11, max_exp=6)):
            fresh = copy.deepcopy(G)
            start = time.process_time()
            ok, witness = is_higgs_semistable(G)
            best = None if ok else max_destabilizer_graded(G)
            assert time.process_time() - start < DECISION_CPU_BOUND
            # the stored report is the one a direct run makes afresh
            stored = _report_bytes(G._destabilizer)
            assert stored == _report_bytes(filtration._top_destabilizer(fresh))
            types = [P.splitting_type() for P in G.pieces]
            assert ok == (len({b for tp in types for b in tp}) == 1)
            if ok:
                continue
            unstable += 1
            _check_destabilizer(G, witness)
            _check_destabilizer(G, best)
            assert (best.mu_max, best.r_max) >= (witness.mu_max, witness.r_max)
    assert unstable >= 400
