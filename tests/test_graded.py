"""Tests for Hodge filtrations, gradings, and graded isomorphism search."""

import random
import time

import pytest

from hdflow.bundles import (
    Bundle,
    HiggsBundle,
    Subbundle,
    chart1_form,
    full_subbundle,
    per_chart,
)
from hdflow.cartier import inverse_cartier_1
from hdflow.corpus import CorpusParams, generate
from hdflow.curves import AffineLine, ProjectiveLine
from hdflow.errors import (
    SearchBudgetExceeded,
    TransversalityViolated,
    WrongModulus,
)
from hdflow.graded import (
    DeRhamBundle,
    GradedHiggsBundle,
    HodgeFiltration,
    grade,
    graded_higgs_isomorphic,
    is_transversal,
    reduce_filtration,
    transversality_offender,
)
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod

from oracles import (
    conjugate_higgs_frames,
    const_matrix,
    filtrations_equal,
    flat_from_chart0,
    frobenius_pullback,
    random_graded_higgs,
    random_unimodular_poly,
    same_as,
)
from test_filtration import _box_cells


def col_span(bundle, cols):
    d = bundle.domain
    M = RingMatrix(
        d,
        [
            [
                LaurentPoly.const(d, d.one)
                if i in cols and cols.index(i) == j
                else LaurentPoly.zero(d)
                for j in range(len(cols))
            ]
            for i in range(bundle.rank)
        ],
    )
    return Subbundle.from_chart0_span(bundle, M)


def upper_shift_flat(curve, rank):
    """Free flat bundle with nabla(e_j) = e_{j-1} dt for j >= 1."""
    d = curve.domain
    rows = [
        [
            LaurentPoly.const(d, d.one) if j == i + 1 else LaurentPoly.zero(d)
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return flat_from_chart0(Bundle.free(curve, rank), RingMatrix(d, rows))


def single_map_graded(curve, exps, entry):
    """Two-grade graded object with rank-1 pieces and connecting map [[entry]]."""
    d = curve.domain
    if curve.is_projective:
        pieces = tuple(Bundle.sum_of_lines(curve, (a,)) for a in exps[:2])
    else:
        pieces = (Bundle.free(curve, 1), Bundle.free(curve, 1))
    m0 = RingMatrix(d, [[entry]])
    if not curve.is_projective:
        return GradedHiggsBundle(pieces, ((m0,),))
    s_inv = LaurentPoly.var(d, -1)
    jac = curve.jacobian_factor()
    m1 = (
        pieces[0].chart1_transition()
        .mul(m0.substitute(s_inv))
        .mul(pieces[1].chart1_transition().inverse())
        .scale(jac)
    )
    return GradedHiggsBundle(pieces, ((m0, m1),))


# -- filtration basics -------------------------------------------------------


def test_trivial_filtration_grades_to_whole_bundle():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    V = Bundle.free(curve, 2)
    flat = flat_from_chart0(V, RingMatrix.zeros(d, 2, 2))
    fil = HodgeFiltration.trivial(V)
    assert fil.level == 0 and fil.is_strict()
    g = grade(flat, fil)
    assert g.graded.weight == 0
    assert g.graded.rank == 2 and g.graded.degree() == 0
    assert g.graded.maps == ()
    assert g.graded.pieces[0].splitting_type() == [0, 0]
    for T in g.frames:
        assert T == RingMatrix.identity(d, 2)


def test_affine_rank2_frozen_grading():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 2)
    fil = HodgeFiltration(flat.bundle, [col_span(flat.bundle, [1])])
    DeRhamBundle(flat, fil).validate()
    g = grade(flat, fil)
    G = g.graded
    assert G.weight == 1
    assert [P.rank for P in G.pieces] == [1, 1]
    theta = G.maps[0][0]
    assert theta.entry(0, 0).degree() == 0 and not theta.is_zero()
    expected = single_map_graded(curve, None, LaurentPoly.const(d, d.one))
    cert = graded_higgs_isomorphic(G, expected)
    assert cert is not None and cert.is_isomorphism()
    G.total().validate()


def test_projective_grading_reads_off_higgs_block():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    E = Bundle.sum_of_lines(curve, (1, -1))
    theta = RingMatrix(
        d,
        [
            [LaurentPoly.zero(d), LaurentPoly.const(d, d.one)],
            [LaurentPoly.zero(d), LaurentPoly.zero(d)],
        ],
    )
    H = inverse_cartier_1(HiggsBundle.from_chart0(E, theta))
    assert H.bundle.splitting_type() == [3, -3]

    # the O(-3) line e_1 is not preserved by nabla: grading has theta = t^2
    fil = HodgeFiltration(H.bundle, [col_span(H.bundle, [1])])
    g = grade(H, fil)
    degs = [P.degree() for P in g.graded.pieces]
    assert degs == [3, -3]
    expected = single_map_graded(curve, (3, -3), LaurentPoly.var(d, 2))
    cert = graded_higgs_isomorphic(g.graded, expected)
    assert cert is not None and cert.is_isomorphism()
    assert g.graded.degree() == 0

    # the invariant O(3) line e_0 grades with zero induced map
    fil0 = HodgeFiltration(H.bundle, [col_span(H.bundle, [0])])
    g0 = grade(H, fil0)
    assert [P.degree() for P in g0.graded.pieces] == [-3, 3]
    for per_chart in g0.graded.maps:
        for M in per_chart:
            assert M.is_zero()


def test_rank3_two_level_grading():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    fil = HodgeFiltration(
        flat.bundle,
        [col_span(flat.bundle, [1, 2]), col_span(flat.bundle, [2])],
    )
    DeRhamBundle(flat, fil).validate()
    g = grade(flat, fil)
    G = g.graded
    assert G.weight == 2
    assert [P.rank for P in G.pieces] == [1, 1, 1]
    for per_chart in G.maps:
        assert per_chart[0].entry(0, 0).degree() == 0
        assert not per_chart[0].is_zero()
    G.total().validate()


def test_weight_cap_tracks_characteristic():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    fil = HodgeFiltration(
        flat.bundle,
        [col_span(flat.bundle, [1, 2]), col_span(flat.bundle, [2])],
    )
    with pytest.raises(ValueError):
        grade(flat, fil)


def test_transversality_violation_detected():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    fil = HodgeFiltration(
        flat.bundle,
        [col_span(flat.bundle, [1, 2]), col_span(flat.bundle, [1])],
    )
    assert transversality_offender(flat, fil) == 2
    assert not is_transversal(flat, fil)
    with pytest.raises(TransversalityViolated):
        DeRhamBundle(flat, fil).validate()
    with pytest.raises(TransversalityViolated):
        grade(flat, fil)


def test_level_one_filtrations_always_transversal():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    for cols in ([0], [1], [2], [0, 1], [1, 2]):
        fil = HodgeFiltration(flat.bundle, [col_span(flat.bundle, cols)])
        assert is_transversal(flat, fil)


def test_reduce_filtration_drops_redundancy():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    S = col_span(flat.bundle, [2])
    fil = HodgeFiltration(flat.bundle, [full_subbundle(flat.bundle), S, S])
    red = reduce_filtration(fil)
    assert red.level == 1
    assert same_as(red.steps[0], S)
    assert red.is_strict()
    again = reduce_filtration(red)
    assert filtrations_equal(again, red)
    assert reduce_filtration(HodgeFiltration.trivial(flat.bundle)).level == 0


def test_filtration_validate_rejects_non_nested():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    fil = HodgeFiltration(
        flat.bundle,
        [col_span(flat.bundle, [0]), col_span(flat.bundle, [1])],
    )
    with pytest.raises(ValueError):
        fil.validate()


def test_filtration_rank_bookkeeping():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    flat = upper_shift_flat(curve, 3)
    fil = HodgeFiltration(
        flat.bundle,
        [col_span(flat.bundle, [1, 2]), col_span(flat.bundle, [2])],
    )
    assert [fil.rank_at(i) for i in range(-1, 4)] == [3, 3, 2, 1, 0]
    assert fil.step(0).rank == 3
    assert fil.step(3) is None


# -- Frobenius pullback ------------------------------------------------------


def test_frobenius_pullback_scales_splitting():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    E = Bundle.sum_of_lines(curve, (1, -1))
    theta = RingMatrix(
        d,
        [
            [LaurentPoly.zero(d), LaurentPoly.const(d, d.one)],
            [LaurentPoly.zero(d), LaurentPoly.zero(d)],
        ],
    )
    pulled = frobenius_pullback(HiggsBundle.from_chart0(E, theta))
    assert pulled.bundle.splitting_type() == [3, -3]
    assert pulled.bundle.degree() == 0
    assert pulled.theta[0] == theta


def test_frobenius_pullback_trivial_and_modulus_guard():
    d = Zmod(5, 1)
    curve = ProjectiveLine(d)
    pulled = frobenius_pullback(Bundle.free(curve, 2))
    assert pulled.transition == RingMatrix.identity(d, 2)
    W = Zmod(5, 2)
    with pytest.raises(WrongModulus):
        frobenius_pullback(Bundle.free(ProjectiveLine(W), 2))


def test_frobenius_pullback_gf_coefficients():
    d = GF(3, 2)
    curve = AffineLine(d)
    x = d.gen
    theta = RingMatrix(d, [[LaurentPoly.const(d, x)]])
    pulled = frobenius_pullback(HiggsBundle.from_chart0(Bundle.free(curve, 1), theta))
    assert pulled.theta[0].entry(0, 0) == LaurentPoly.const(d, d.frobenius(x))


# -- graded isomorphism search -----------------------------------------------


def test_graded_iso_identity_fast_path():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = single_map_graded(curve, None, LaurentPoly.const(d, d.one))
    cert = graded_higgs_isomorphic(G, G)
    assert cert is not None
    for per_chart in cert.blocks:
        for M in per_chart:
            assert M == RingMatrix.identity(d, 1)


def test_graded_iso_finds_scaling_intertwiner():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    one = LaurentPoly.const(d, d.one)
    two = LaurentPoly.const(d, d.coerce(2))
    A = single_map_graded(curve, None, one)
    B = single_map_graded(curve, None, two)
    cert = graded_higgs_isomorphic(A, B)
    assert cert is not None and cert.is_isomorphism()
    cert.validate(A, B)
    back = graded_higgs_isomorphic(B, A)
    assert back is not None and back.is_isomorphism()


def test_graded_iso_projective_scaling():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    A = single_map_graded(curve, (3, -3), LaurentPoly.var(d, 2))
    B = single_map_graded(
        curve, (3, -3), LaurentPoly.var(d, 2).scale(d.coerce(2))
    )
    cert = graded_higgs_isomorphic(A, B)
    assert cert is not None and cert.is_isomorphism()
    cert.validate(A, B)


def test_graded_iso_rejects_mismatches():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    one_grade_mixed = GradedHiggsBundle((Bundle.sum_of_lines(curve, (1, -1)),), ())
    one_grade_trivial = GradedHiggsBundle((Bundle.free(curve, 2),), ())
    assert graded_higgs_isomorphic(one_grade_mixed, one_grade_trivial) is None

    rank1 = GradedHiggsBundle((Bundle.free(curve, 1),), ())
    assert graded_higgs_isomorphic(one_grade_trivial, rank1) is None

    A = single_map_graded(curve, (3, -3), LaurentPoly.var(d, 2))
    assert graded_higgs_isomorphic(A, one_grade_trivial) is None

    # t^2 and t^3 maps admit no constant-block intertwiner
    B = single_map_graded(curve, (3, -3), LaurentPoly.var(d, 3))
    assert graded_higgs_isomorphic(A, B) is None


def test_graded_iso_budget_exhaustion():
    # End(O^2) is M_2(F_7): its kernel generators are the four matrix units,
    # all singular, and 7^4 combinations exceed any budget below, so the
    # search runs out in the kernel stage, then after one random draw
    A = _unipotent_trivial(7, rank=2)
    B = GradedHiggsBundle((Bundle.free(A.curve, 2),), ())
    for budget, stage in ((4, "kernel"), (5, "random")):
        with pytest.raises(SearchBudgetExceeded) as err:
            graded_higgs_isomorphic(A, B, budget=budget)
        assert err.value.bounds == {"stage": stage, "tried": budget, "kernel": 4}
    cert = graded_higgs_isomorphic(A, B, budget=6)
    assert cert is not None and cert.is_isomorphism()


def test_graded_iso_is_transitive_on_scalings():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    mk = lambda c: single_map_graded(curve, None, LaurentPoly.const(d, d.coerce(c)))
    A, B, C = mk(1), mk(2), mk(3)
    ab = graded_higgs_isomorphic(A, B)
    bc = graded_higgs_isomorphic(B, C)
    ac = graded_higgs_isomorphic(A, C)
    assert ab is not None and bc is not None and ac is not None


# -- conjugation-invariance of the grading -----------------------------------


def test_grading_invariant_under_frame_conjugation():
    rng = random.Random(11)
    d = Zmod(5, 1)
    curve = AffineLine(d)
    for _ in range(6):
        flat = upper_shift_flat(curve, 3)
        fil = HodgeFiltration(
            flat.bundle,
            [col_span(flat.bundle, [1, 2]), col_span(flat.bundle, [2])],
        )
        G1 = grade(flat, fil).graded

        Q = random_unimodular_poly(rng, d, 3, ops=3, max_deg=1)
        Qinv = Q.inverse()
        A_new = Qinv.mul(flat.A[0]).mul(Q).add(Qinv.mul(Q.derivative()))
        flat2 = flat_from_chart0(Bundle.free(curve, 3), A_new)
        steps = []
        for S in fil.steps:
            steps.append(
                Subbundle.from_chart0_span(flat2.bundle, Qinv.mul(S.basis[0]))
            )
        fil2 = HodgeFiltration(flat2.bundle, steps)
        DeRhamBundle(flat2, fil2).validate()
        G2 = grade(flat2, fil2).graded
        assert [P.rank for P in G2.pieces] == [P.rank for P in G1.pieces]
        cert = graded_higgs_isomorphic(G1, G2)
        assert cert is not None and cert.is_isomorphism()


def test_projective_transform_grading_degree_sum():
    rng = random.Random(23)
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    for _ in range(5):
        higgs = conjugate_higgs_frames(
            rng, random_graded_higgs(rng, curve, (1, 1))
        )
        H = inverse_cartier_1(higgs)
        sd = H.bundle.split_data()
        fil = HodgeFiltration(
            H.bundle,
            [Subbundle.from_chart0_span(H.bundle, sd.Qinv.columns([0]))],
        )
        if not is_transversal(H, fil):
            continue
        g = grade(H, fil)
        assert sum(P.degree() for P in g.graded.pieces) == H.bundle.degree()
        assert sum(P.rank for P in g.graded.pieces) == 2


# -- box sweep of the isomorphism decision ----------------------------------

# CPU seconds one isomorphism decision may take in the box sweep.
ISO_CPU_BOUND = 0.1


def _timed_iso(A, B):
    start = time.process_time()
    cert = graded_higgs_isomorphic(A, B)
    assert time.process_time() - start < ISO_CPU_BOUND
    return cert


def _reframed(rng, G):
    """G in random chart-0 frames, one per piece (constant on A^1, where
    the search looks for constant isomorphisms only)."""
    d, curve = G.domain, G.curve
    max_deg = 1 if curve.is_projective else 0
    frames = [random_unimodular_poly(rng, d, P.rank, ops=3, max_deg=max_deg) for P in G.pieces]
    inverses = [Q.inverse() for Q in frames]
    pieces = [
        Bundle(curve, P.rank, P.transition.mul(Qinv) if curve.is_projective else None)
        for P, Qinv in zip(G.pieces, inverses)
    ]
    maps = [
        per_chart(
            frames[k].mul(mats[0]).mul(inverses[k + 1]),
            chart1_form, pieces[k + 1], pieces[k], "reframed",
        )
        for k, mats in enumerate(G.maps)
    ]
    return GradedHiggsBundle(pieces, maps).validate()


def _scaled_map(rng, G):
    """G with one connecting map scaled by a random element, zero included;
    G itself when it has no map."""
    if not G.maps:
        return G
    k = rng.randrange(len(G.maps))
    c = rng.choice(list(G.domain.elements()))
    maps = [
        tuple(M.scale_const(c) for M in mats) if i == k else mats
        for i, mats in enumerate(G.maps)
    ]
    return GradedHiggsBundle(G.pieces, maps).validate()


def test_graded_iso_box_sweep_decides_within_bound():
    """Three seeded instances of each of the 27 box cells, on P^1 and on
    A^1, against a frame-changed copy (an isomorphism that validates) and
    against that copy with one connecting map scaled (None or a validating
    isomorphism), each decision within ISO_CPU_BOUND."""
    rng = random.Random(26)
    cells = _box_cells()
    assert len(cells) == 27
    decided = {"iso": 0, "none": 0}
    for p, rank, weight in cells:
        for curve in ("P1", "A1"):
            for G in generate(CorpusParams(p, rank, weight, 3, 7 + rank, curve=curve)):
                framed = _reframed(rng, G)
                cert = _timed_iso(G, framed)
                assert cert is not None and cert.is_isomorphism()
                cert.validate(G, framed)
                decided["iso"] += 1
                perturbed = _scaled_map(rng, framed)
                cert = _timed_iso(G, perturbed)
                if cert is None:
                    decided["none"] += 1
                else:
                    assert cert.is_isomorphism()
                    cert.validate(G, perturbed)
    assert decided["iso"] == 27 * 2 * 3
    assert decided["none"] >= 10


def _unipotent_trivial(p, rank=4):
    """O^rank with theta = 0, written with the unipotent transition that
    has t on the superdiagonal."""
    d = Zmod(p, 1)
    g = RingMatrix.identity(d, rank)
    for i in range(rank - 1):
        g.rows[i][i + 1] = LaurentPoly.var(d)
    return GradedHiggsBundle((Bundle(ProjectiveLine(d), rank, g),), ()).validate()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_graded_iso_unipotent_trivial_rank_four(p):
    G = _unipotent_trivial(p)
    free = GradedHiggsBundle((Bundle.free(G.curve, 4),), ())
    for A, B in ((G, free), (free, G)):
        cert = _timed_iso(A, B)
        assert cert is not None and cert.is_isomorphism()
        cert.validate(A, B)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_graded_iso_rejects_by_dimension(p):
    # pieces O(2) and O^3: dim Hom(A, B) = 9, dim End(A) = 7, dim End(B) = 10
    d = Zmod(p, 1)
    curve = ProjectiveLine(d)
    pieces = (Bundle.sum_of_lines(curve, (2,)), Bundle.free(curve, 3))
    A, B = (
        GradedHiggsBundle(
            pieces, (per_chart(const_matrix(d, [row]), chart1_form, pieces[1], pieces[0], "theta"),)
        ).validate()
        for row in ([1, 0, 0], [0, 0, 0])
    )
    for X, Y in ((A, B), (B, A)):
        start = time.process_time()
        assert graded_higgs_isomorphic(X, Y) is None
        assert time.process_time() - start < 0.05
