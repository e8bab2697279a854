"""Tests for the flow driver, periodic tuples, packing, and the relative
Frobenius reconstruction."""

import dataclasses
import random
from fractions import Fraction

import pytest

from hdflow.bundles import Bundle, Subbundle
from hdflow.cartier import inverse_cartier_1
from hdflow.corpus import CorpusParams, generate
from hdflow.curves import AffineLine, ProjectiveLine
from hdflow.errors import (
    BadMinimalPolynomial,
    CertificateFailed,
    NotNablaSemistable,
    NotPrimitive,
    PolicyFiltrationInvalid,
)
from hdflow.filtration import is_higgs_semistable, max_destabilizer_graded
from hdflow.flow import (
    FlowPolicy,
    PeriodicTuple,
    build_relative_frobenius,
    detect_period,
    direct_sum_graded,
    extend_graded,
    flow_step,
    lengthen_tuple,
    pack_endostructure,
    run_flow,
    shift_tuple,
    tuples_isomorphic,
    unpack_endostructure,
)
from hdflow.graded import (
    GradedHiggsBundle,
    GradedMap,
    HodgeFiltration,
    _identity_graded_map,
    graded_higgs_isomorphic,
)
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod

from oracles import random_laurent, random_split_transition, random_unimodular_poly


def one_grade(bundle):
    return GradedHiggsBundle((bundle,), ())


def trivial_graded(curve, rank):
    return one_grade(Bundle.free(curve, rank))


def const_matrix(d, rows):
    return RingMatrix(
        d, [[LaurentPoly.const(d, d.coerce(c)) for c in row] for row in rows]
    )


def const_graded_map(domain, ncharts, rows):
    M = const_matrix(domain, rows)
    return GradedMap(((tuple(M for _ in range(ncharts)),)))


def weight1_graded(curve, entry):
    """Two free line pieces with one connecting map (chart-consistent)."""
    d = curve.domain
    g0 = Bundle.free(curve, 1)
    g1 = Bundle.free(curve, 1)
    M0 = RingMatrix(d, [[entry]])
    if not curve.is_projective:
        return GradedHiggsBundle((g0, g1), ((M0,),))
    s_inv = LaurentPoly.var(d, -1)
    jac = curve.jacobian_factor()
    M1 = (
        g0.chart1_transition()
        .mul(M0.substitute(s_inv))
        .mul(g1.chart1_transition().inverse())
        .scale(jac)
    )
    return GradedHiggsBundle((g0, g1), ((M0, M1),))


def random_graded_object(rng, curve, grade_ranks, gap=2):
    """Random graded Higgs bundle; each connecting entry is a polynomial
    within the degree budget set by the splitting exponents."""
    d = curve.domain
    w = len(grade_ranks) - 1
    pieces = []
    for j, r in enumerate(grade_ranks):
        if curve.is_projective:
            exps = [(w - j) * gap for _ in range(r)]
            pieces.append(Bundle.sum_of_lines(curve, exps))
        else:
            pieces.append(Bundle.free(curve, r))
    maps = []
    for k in range(w):
        tgt, src = pieces[k], pieces[k + 1]
        cap = gap - 2 if curve.is_projective else 2
        M0 = RingMatrix(
            d,
            [
                [random_laurent(rng, d, 0, cap) for _ in range(src.rank)]
                for _ in range(tgt.rank)
            ],
        )
        if curve.is_projective:
            s_inv = LaurentPoly.var(d, -1)
            jac = curve.jacobian_factor()
            M1 = (
                tgt.chart1_transition()
                .mul(M0.substitute(s_inv))
                .mul(src.chart1_transition().inverse())
                .scale(jac)
            )
            maps.append((M0, M1))
        else:
            maps.append((M0,))
    return GradedHiggsBundle(pieces, tuple(maps)).validate()


def trivial_fil_spec(rank, curve_domain):
    """A level-zero filtration usable as a supplied policy entry."""
    return HodgeFiltration(Bundle.free(AffineLine(curve_domain), rank), ())


# -- flow steps --------------------------------------------------------------


def test_flow_step_fixed_point_trivial():
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for rank in (1, 2, 3):
            G = trivial_graded(curve, rank)
            H, fil, nxt = flow_step(G)
            assert H.A[0].is_zero() and fil.level == 0
            assert nxt.degree() == 0
            assert graded_higgs_isomorphic(nxt, G) is not None


def test_flow_step_degree_scaling_random():
    rng = random.Random(41)
    count = 0
    for p in (3, 5):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        if p == 3:
            shapes = [(1,), (2,), (1, 1), (2, 1)]
        else:
            shapes = [(3,), (1, 1, 1), (2, 2)]
        for shape in shapes:
            for _ in range(3):
                G = random_graded_object(rng, curve, shape)
                policy = FlowPolicy(
                    rule="supplied",
                    filtrations=(trivial_fil_spec(G.rank, d),),
                )
                H, fil, nxt = flow_step(G, policy)
                assert nxt.degree() == p * G.degree()
                assert nxt.rank == G.rank
                count += 1
    assert count >= 20


def test_flow_step_unstable_input_behaviour():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    G = one_grade(Bundle.sum_of_lines(curve, (1, -1)))
    with pytest.raises(NotNablaSemistable):
        flow_step(G)
    policy = FlowPolicy(rule="supplied", filtrations=(trivial_fil_spec(2, d),))
    H, fil, nxt = flow_step(G, policy)
    before = max_destabilizer_graded(G)
    after = max_destabilizer_graded(nxt)
    assert after.mu_max == d.p * before.mu_max


def test_flow_step_supplied_validation():
    # weight two needs p at least 4 for the nilpotency bound; unit chain maps
    # make the transversality failure below deterministic
    d = Zmod(5, 1)
    curve = AffineLine(d)
    one = LaurentPoly.one(d)
    piece = Bundle.free(curve, 1)
    step_map = (RingMatrix(d, [[one]]),)
    G = GradedHiggsBundle((piece, piece, piece), (step_map, step_map)).validate()
    H, _, _ = flow_step(
        G,
        FlowPolicy(rule="supplied", filtrations=(trivial_fil_spec(3, d),)),
    )
    e = [RingMatrix(d, [[LaurentPoly.one(d) if i == j else LaurentPoly.zero(d)]
                        for i in range(3)]) for j in range(3)]
    good = HodgeFiltration(
        H.bundle,
        [
            Subbundle.from_chart0_span(H.bundle, e[1].hstack(e[2])),
            Subbundle.from_chart0_span(H.bundle, e[2]),
        ],
    )
    bad = HodgeFiltration(
        H.bundle,
        [
            Subbundle.from_chart0_span(H.bundle, e[0].hstack(e[2])),
            Subbundle.from_chart0_span(H.bundle, e[2]),
        ],
    )
    flow_step(G, FlowPolicy(rule="supplied", filtrations=(good,)))
    with pytest.raises(PolicyFiltrationInvalid):
        flow_step(G, FlowPolicy(rule="supplied", filtrations=(bad,)))
    with pytest.raises(PolicyFiltrationInvalid):
        flow_step(G, FlowPolicy(rule="supplied", filtrations=()))


def test_policy_validation():
    with pytest.raises(ValueError):
        FlowPolicy(rule="other")
    with pytest.raises(ValueError):
        FlowPolicy(max_steps=0)
    with pytest.raises(ValueError):
        FlowPolicy(field_degree=0)


def _semistable_graded(rng, curve, rank, pieces):
    """O(a)^rank cut into graded pieces in random split frames, with zero
    connecting maps (the only ones a semistable object can carry)."""
    d = curve.domain
    a = rng.randint(-3, 3)
    cuts = sorted(rng.sample(range(1, rank), pieces - 1))
    ranks = [j - i for i, j in zip([0] + cuts, cuts + [rank])]
    parts = [Bundle(curve, r, random_split_transition(rng, d, [a] * r)) for r in ranks]
    maps = [
        (RingMatrix.zeros(d, r0, r1),) * 2 for r0, r1 in zip(ranks, ranks[1:])
    ]
    return GradedHiggsBundle(parts, maps).validate()


def test_canonical_step_refuses_unstable_and_flattens_semistable():
    """On the standard atlas a canonical step refuses every unstable G (two
    splitting degrees differ), and sends a semistable G of splitting type
    O(a)^n to one piece O(pa)^n with zero Higgs field."""
    rng = random.Random(23)
    refused = stepped = 0
    for p in (3, 5, 7):
        curve = ProjectiveLine(Zmod(p, 1))
        cases = [
            G
            for rank, weight in ((1, 0), (2, 1), (3, 1), (4, 1))
            for G in generate(CorpusParams(p, rank, weight, 3, 30 + p, max_exp=2))
        ]
        cases += [
            _semistable_graded(rng, curve, rank, rng.randint(1, min(rank, p - 1)))
            for rank in (2, 3, 4)
        ]
        for G in cases:
            degrees = {b for P in G.pieces for b in P.splitting_type()}
            if len(degrees) > 1:
                with pytest.raises(NotNablaSemistable):
                    flow_step(G)
                refused += 1
                continue
            (a,) = degrees
            H, fil, nxt = flow_step(G)
            assert fil.level == 0 and len(nxt.pieces) == 1 and nxt.maps == ()
            assert nxt.pieces[0].splitting_type() == [p * a] * G.rank
            assert all(M.is_zero() for M in nxt.total().theta)
            stepped += 1
    assert refused >= 15 and stepped >= 15


# -- traces ------------------------------------------------------------------


def test_run_flow_constant_trace():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    trace = run_flow(trivial_graded(curve, 2), FlowPolicy(max_steps=5))
    assert len(trace.stages) == 6
    assert trace.degrees() == [0] * 6
    assert trace.periodicity is not None
    assert (trace.periodicity.preperiod, trace.periodicity.period) == (0, 1)


def test_run_flow_degree_growth_no_period():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    trace = run_flow(one_grade(Bundle.line(curve, 1)), FlowPolicy(max_steps=3))
    assert trace.degrees() == [1, 3, 9, 27]
    assert trace.periodicity is None


def test_run_flow_preperiodic_weight_drop():
    # the canonical filtration after one step is trivial, so the weight-one
    # grading collapses; the trace stabilizes from the second term on
    d = Zmod(3, 1)
    cases = [
        weight1_graded(AffineLine(d), LaurentPoly.one(d)),
        weight1_graded(ProjectiveLine(d), LaurentPoly.zero(d)),
    ]
    for G in cases:
        trace = run_flow(G, FlowPolicy(max_steps=3))
        assert (trace.periodicity.preperiod, trace.periodicity.period) == (1, 1)


def test_run_flow_semistable_stages():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = weight1_graded(curve, LaurentPoly.const(d, 2))
    ok, _ = is_higgs_semistable(G)
    assert ok
    trace = run_flow(G, FlowPolicy(max_steps=4))
    for st in trace.stages:
        assert st.slope == Fraction(0)
        assert is_higgs_semistable(st.higgs)[0]


# -- period detection --------------------------------------------------------


def test_detect_period_alternating():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    A = trivial_graded(curve, 2)
    B = one_grade(Bundle.sum_of_lines(curve, (1, -1)))

    class FakeTrace:
        def higgs_terms(self):
            return [A, B, A, B]

    rep = detect_period(FakeTrace())
    assert (rep.preperiod, rep.period) == (0, 2)


def test_detect_period_short_trace_rejected():
    d = Zmod(3, 1)

    class FakeTrace:
        def higgs_terms(self):
            return [trivial_graded(ProjectiveLine(d), 1)]

    with pytest.raises(ValueError):
        detect_period(FakeTrace())


def test_detect_period_extension_field():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    trace = run_flow(
        trivial_graded(curve, 2), FlowPolicy(max_steps=2, field_degree=2)
    )
    rep = trace.periodicity
    assert (rep.preperiod, rep.period) == (0, 1)
    assert rep.phi.blocks[0][0].domain == GF(3, 2)


# -- periodic tuples ---------------------------------------------------------


def fil_spec_span(rank, domain, cols):
    """Filtration holder whose single step spans the given unit columns."""
    curve = AffineLine(domain)
    E = Bundle.free(curve, rank)
    B = RingMatrix(
        domain,
        [
            [
                LaurentPoly.one(domain) if i in cols and cols.index(i) == j
                else LaurentPoly.zero(domain)
                for j in range(len(cols))
            ]
            for i in range(rank)
        ],
    )
    return HodgeFiltration(E, [Subbundle.from_chart0_span(E, B)])


def simple_tuple(p=3, rank=2, periods=1, phi_rows=None, projective=True):
    d = Zmod(p, 1)
    curve = ProjectiveLine(d) if projective else AffineLine(d)
    G = trivial_graded(curve, rank)
    fils = tuple(trivial_fil_spec(rank, d) for _ in range(periods))
    if phi_rows is None:
        phi = _identity_graded_map(G)
    else:
        phi = const_graded_map(d, curve.ncharts, phi_rows)
    return PeriodicTuple(G, fils, phi).validate()


def test_periodic_tuple_validates():
    T = simple_tuple()
    assert T.period == 1
    assert len(T.stages()) == 2
    T2 = simple_tuple(periods=2, phi_rows=[[1, 1], [0, 1]])
    assert T2.period == 2


def test_periodic_tuple_rejects_bad_phi():
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    G = trivial_graded(curve, 2)
    bad = const_graded_map(d, 2, [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        PeriodicTuple(G, (trivial_fil_spec(2, d),), bad).validate()


def test_nontrivial_filtration_one_periodic():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = weight1_graded(curve, LaurentPoly.zero(d))
    fil = fil_spec_span(2, d, [0])
    policy = FlowPolicy(rule="supplied", max_steps=2, filtrations=(fil, fil))
    trace = run_flow(G, policy)
    assert (trace.periodicity.preperiod, trace.periodicity.period) == (0, 1)
    T = PeriodicTuple(G, (fil,), _identity_graded_map(G)).validate()
    assert T.filtrations[0].level == 1


def test_shift_and_lengthen_roundtrip():
    T = simple_tuple(phi_rows=[[1, 1], [0, 1]])
    S = shift_tuple(T)
    assert tuples_isomorphic(S, T) is not None

    assert lengthen_tuple(T, 1) is T
    L2 = lengthen_tuple(T, 2)
    assert L2.period == 2
    L3 = lengthen_tuple(T, 3)
    assert L3.period == 3

    T2 = simple_tuple(periods=2, phi_rows=[[0, 1], [1, 0]])
    S1 = shift_tuple(T2)
    S2 = shift_tuple(S1)
    assert tuples_isomorphic(S2, T2) is not None


# -- endomorphism packing ----------------------------------------------------


def test_pack_identity_small_fields():
    for p, f in ((3, 2), (3, 3), (5, 2)):
        K = GF(p, f)
        T = simple_tuple(p=p, periods=f, phi_rows=[[1, 1], [0, 1]])
        packed = pack_endostructure(T, K.gen, K)
        assert packed.carrier.period == 1
        assert packed.carrier.higgs.rank == 2 * f
        # the scalar ladder closes up: xi^{p^f} = xi
        xi = packed.xi
        assert K.pow(xi, p ** f) == xi
        for e in range(1, f):
            assert K.pow(xi, p ** e) != xi


def test_pack_rotation_block_identity_explicit():
    # the period-two shape: rotation times diag(xi^p, xi^{p^2}) equals
    # diag(xi, xi^p) times rotation, because xi^{p^2} folds back to xi
    K = GF(3, 2)
    xi = K.gen
    phi = K.coerce(2)
    rot = [[K.zero, phi], [K.one, K.zero]]
    lhs = [
        [K.mul(rot[i][j], [K.pow(xi, 3), K.pow(xi, 9)][j]) for j in range(2)]
        for i in range(2)
    ]
    rhs = [
        [K.mul([xi, K.pow(xi, 3)][i], rot[i][j]) for j in range(2)]
        for i in range(2)
    ]
    assert lhs == rhs
    assert K.pow(xi, 9) == xi


def test_pack_rejects_non_generators():
    K = GF(3, 2)
    T = simple_tuple(periods=2, phi_rows=[[1, 0], [0, 1]])
    with pytest.raises(NotPrimitive):
        pack_endostructure(T, K.one, K)
    with pytest.raises(NotPrimitive):
        pack_endostructure(T, 2, K)


def test_pack_unpack_roundtrip():
    for p, f in ((3, 2), (5, 2)):
        K = GF(p, f)
        T = simple_tuple(p=p, periods=f, phi_rows=[[1, 1], [0, 1]])
        packed = pack_endostructure(T, K.gen, K)
        back = unpack_endostructure(packed)
        assert back.period == f
        cert = tuples_isomorphic(
            back,
            PeriodicTuple(
                extend_graded(T.higgs, K),
                tuple(trivial_fil_spec(2, K) for _ in range(f)),
                _identity_graded_map(extend_graded(T.higgs, K)),
            ).validate(),
        )
        assert cert is not None


def test_pack_unpack_with_filtration():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = weight1_graded(curve, LaurentPoly.zero(d))
    fil = fil_spec_span(2, d, [0])
    T = PeriodicTuple(
        G, (fil, fil), _identity_graded_map(G)
    ).validate()
    K = GF(3, 2)
    packed = pack_endostructure(T, K.gen, K)
    assert packed.carrier.filtrations[0].level == 1
    back = unpack_endostructure(packed)
    assert back.period == 2
    assert [fil.level for fil in back.filtrations] == [1, 1]
    assert graded_higgs_isomorphic(back.higgs, extend_graded(G, K)) is not None


def test_unpack_rejects_small_orbit():
    K = GF(3, 2)
    T = simple_tuple(periods=2, phi_rows=[[1, 1], [0, 1]])
    packed = pack_endostructure(T, K.gen, K)
    tampered = dataclasses.replace(packed, xi=K.one)
    with pytest.raises(BadMinimalPolynomial):
        unpack_endostructure(tampered)


def test_unpack_rejects_wrong_spectrum():
    K = GF(3, 2)
    T = simple_tuple(periods=2, phi_rows=[[1, 1], [0, 1]])
    packed = pack_endostructure(T, K.gen, K)
    n = packed.carrier.higgs.rank
    scalar = GradedMap(
        (
            tuple(
                RingMatrix.identity(K, n)
                for _ in range(packed.carrier.higgs.curve.ncharts)
            ),
        )
    )
    tampered = dataclasses.replace(packed, endo=scalar)
    with pytest.raises(BadMinimalPolynomial):
        unpack_endostructure(tampered)


def test_pack_scalar_degree_one():
    K = GF(3, 1)
    T = simple_tuple(periods=1, phi_rows=[[1, 1], [0, 1]])
    packed = pack_endostructure(T, 2, K)
    assert packed.carrier.period == 1
    back = unpack_endostructure(packed)
    assert back.period == 1


def test_direct_sum_weight_mismatch():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    with pytest.raises(ValueError):
        direct_sum_graded(
            [trivial_graded(curve, 1), weight1_graded(curve, LaurentPoly.one(d))]
        )


# -- relative Frobenius ------------------------------------------------------


def test_relative_frobenius_rank_one():
    T = simple_tuple(rank=1)
    rf = build_relative_frobenius(T)
    assert rf.charts[0] == RingMatrix.identity(Zmod(3, 1), 1)
    assert rf.certificates == {
        "invertible": True,
        "horizontal": True,
        "taylor": True,
    }


def test_relative_frobenius_constant_phi():
    d = Zmod(5, 1)
    T = simple_tuple(p=5, phi_rows=[[1, 3], [0, 2]])
    rf = build_relative_frobenius(T)
    # constants are fixed by the p-power twist
    assert rf.charts[0] == const_matrix(d, [[1, 3], [0, 2]])


def test_relative_frobenius_nontrivial_filtration():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = weight1_graded(curve, LaurentPoly.zero(d))
    fil = fil_spec_span(2, d, [0])
    T = PeriodicTuple(G, (fil,), _identity_graded_map(G)).validate()
    rf = build_relative_frobenius(T)
    assert all(rf.certificates.values())


def test_relative_frobenius_conjugated_frames():
    rng = random.Random(19)
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    for _ in range(3):
        Q = random_unimodular_poly(rng, d, 2, ops=3, max_deg=1)
        E = Bundle(curve, 2, Q)
        G = one_grade(E)
        H, fil, nxt = flow_step(G)
        phi = graded_higgs_isomorphic(nxt, G)
        assert phi is not None
        T = PeriodicTuple(G, (fil,), phi).validate()
        rf = build_relative_frobenius(T)
        assert all(rf.certificates.values())
        assert rf.target.bundle.transition == H.bundle.transition


def _with_phi(T, blocks):
    """T with its period map replaced and its validated stages kept."""
    return dataclasses.replace(T, phi=GradedMap(blocks))


def test_relative_frobenius_part_1_rejects_a_singular_period_map():
    d = Zmod(5, 1)
    T = simple_tuple(p=5)
    zero = RingMatrix.zeros(d, 2, 2)
    with pytest.raises(CertificateFailed) as err:
        build_relative_frobenius(_with_phi(T, ((zero, zero),)))
    assert err.value.part == 1


def test_relative_frobenius_part_2_rejects_a_non_horizontal_period_map():
    # the grades of theta = 1 scaled by 1 and 2: unimodular, but the total
    # map fails to commute with the transform connection, whose only entry
    # is the pullback of theta
    d = Zmod(3, 1)
    curve = AffineLine(d)
    G = weight1_graded(curve, LaurentPoly.one(d))
    H = inverse_cartier_1(G.total())
    assert not H.A[0].is_zero()
    T = PeriodicTuple(
        G,
        (trivial_fil_spec(2, d),),
        GradedMap(((const_matrix(d, [[1]]),), (const_matrix(d, [[2]]),))),
        _stages=(G, G),
        _flats=(H,),
    )
    with pytest.raises(CertificateFailed) as err:
        build_relative_frobenius(T)
    assert err.value.part == 2


def test_relative_frobenius_part_3_rejects_a_chart_mismatched_period_map():
    # chart 1 scaled by 2 stays unimodular and horizontal, but no longer
    # is the chart-1 image of chart 0
    d = Zmod(5, 1)
    T = simple_tuple(p=5, phi_rows=[[1, 3], [0, 2]])
    M0, M1 = T.phi.blocks[0]
    with pytest.raises(CertificateFailed) as err:
        build_relative_frobenius(_with_phi(T, ((M0, M1.scale_const(2)),)))
    assert err.value.part == 3


def test_relative_frobenius_needs_period_one():
    T = simple_tuple(periods=2, phi_rows=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        build_relative_frobenius(T)
