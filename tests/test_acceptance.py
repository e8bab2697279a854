"""Acceptance runs: the headline guarantees of the package, each checked
with exact arithmetic end to end.  Where speed is part of the guarantee a
wall-clock bound is asserted alongside the algebraic identity."""

import random
import time

import pytest

from hdflow.bundles import Bundle, HiggsBundle
from hdflow.cartier import (
    inverse_cartier_1,
    lifting_change_transport,
    ov_sign_check,
    p_curvature,
    p_curvature_prediction,
)
from hdflow.corpus import (
    CorpusParams,
    generate,
    one_periodic_instances,
    random_lifting,
    random_nilpotent_higgs,
    random_witt_tuple,
)
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.errors import NotNablaSemistable
from hdflow.filtration import (
    check_window_descent,
    is_higgs_semistable,
    is_nabla_semistable,
    simpson_filtration,
)
from hdflow.flow import (
    FlowPolicy,
    PeriodicTuple,
    build_relative_frobenius,
    extend_graded,
    flow_step,
    pack_endostructure,
    run_flow,
    tuples_isomorphic,
    unpack_endostructure,
)
from hdflow.graded import (
    GradedHiggsBundle,
    GradedMap,
    HodgeFiltration,
    _identity_graded_map,
    grade,
)
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod
from hdflow.witt import (
    LiftingInputTuple,
    equivalence_check,
    filtration_steps_from_flag,
    gamma_relations_check,
    gn_construct,
    mod_reduction_check,
    sharp_construct,
    taylor_transition,
    w2_flow_step,
)


def _mat(ring, entries):
    """Rows of dicts {exponent: coefficient} (plain ints as constants)."""
    rows = []
    for r in entries:
        row = []
        for e in r:
            if isinstance(e, dict):
                row.append(LaurentPoly(ring, e))
            else:
                row.append(LaurentPoly.const(ring, ring.coerce(e)))
        rows.append(row)
    return RingMatrix(ring, rows)


def _fil0(domain, rank):
    """Level-zero filtration holder usable as a supplied policy entry."""
    return HodgeFiltration(Bundle.free(AffineLine(domain), rank), ())


def _const_graded_map(domain, ncharts, rows):
    M = RingMatrix(
        domain,
        [[LaurentPoly.const(domain, domain.coerce(c)) for c in row] for row in rows],
    )
    return GradedMap(((tuple(M for _ in range(ncharts)),)))


# -- 1: the transform of a trivial input is trivially flat -------------------


def test_trivial_input_transforms_to_trivial_flat_with_zero_p_curvature():
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for rank in (1, 2, 3, 4):
            t0 = time.monotonic()
            H = HiggsBundle.zero(Bundle.free(curve, rank))
            flat = inverse_cartier_1(H)
            assert flat.bundle.splitting_type() == [0] * rank
            assert flat.bundle.degree() == 0
            assert all(A.is_zero() for A in flat.A)
            assert all(M.is_zero() for M in p_curvature(flat))
            assert time.monotonic() - t0 < 1.0


# -- 2: one flow step multiplies degree by p ---------------------------------


def _projective_spec_boxes():
    for p in (3, 5, 7):
        boxes = [(1, 0), (2, 0), (2, 1), (3, 1), (4, 1)]
        if p >= 5:
            boxes += [(3, 2), (4, 3)]
        for rank, weight in boxes:
            yield p, rank, weight


def test_degree_multiplies_by_p_in_one_flow_step():
    t0 = time.monotonic()
    seed = 1100
    checked = 0
    for p, rank, weight in _projective_spec_boxes():
        params = CorpusParams(p=p, rank=rank, weight=weight, count=6, seed=seed)
        seed += 1
        d = Zmod(p, 1)
        policy = FlowPolicy(rule="supplied", filtrations=(_fil0(d, rank),))
        for G in generate(params):
            _, _, nxt = flow_step(G, policy)
            assert nxt.degree() == p * G.degree()
            checked += 1
    assert checked >= 100
    assert time.monotonic() - t0 < 10.0


# -- 3: p-curvature of the transform is the pulled-back input ----------------


def test_p_curvature_equals_frobenius_pullback_with_fixed_sign():
    rng = random.Random(303)
    checked = 0
    for i in range(51):
        p = (3, 5, 7)[i % 3]
        rank = 1 + i % 3
        curve = "P1" if i % 2 == 0 else "A1"
        H = random_nilpotent_higgs(rng, p, rank, curve=curve)
        flat = inverse_cartier_1(H)
        assert p_curvature(flat) == p_curvature_prediction(H)
        checked += 1
    assert checked >= 50


# -- 4: gluing transports compose as a cocycle -------------------------------


def test_lifting_change_cocycle_at_level_one():
    rng = random.Random(404)
    checked = 0
    for i in range(10):
        p = (3, 5, 7)[i % 3]
        curve = "P1" if i % 2 == 0 else "A1"
        H = random_nilpotent_higgs(rng, p, 2 + i % 2, curve=curve)
        for _ in range(5):
            lifts = [random_lifting(rng, H.bundle.curve) for _ in range(3)]
            t12, _, _ = lifting_change_transport(H, lifts[0], lifts[1])
            t23, _, _ = lifting_change_transport(H, lifts[1], lifts[2])
            t13, _, _ = lifting_change_transport(H, lifts[0], lifts[2])
            assert t13.phi == t23.compose(t12).phi
            checked += 1
    assert checked >= 50


def test_taylor_transition_cocycle_at_level_two():
    rng = random.Random(405)
    ring = Zmod(3, 2)
    curve = AffineLine(ring)
    shapes = [(1, 1), (2, 1), (1, 2)]
    checked = 0
    for j in range(6):
        tup = random_witt_tuple(rng, 3, 2, shapes[j % len(shapes)])
        tw = sharp_construct(tup)
        for _ in range(9):
            lifts = [
                FrobeniusLifting.standard(curve),
                random_lifting(rng, curve),
                random_lifting(rng, curve),
            ]
            g21 = taylor_transition(tw, lifts[0], lifts[1])
            g32 = taylor_transition(tw, lifts[1], lifts[2])
            g31 = taylor_transition(tw, lifts[0], lifts[2])
            assert g31 == g21.mul(g32)
            checked += 1
    assert checked >= 50


# -- 5: destabilizer descent terminates on semistable inputs -----------------


def _semistable_flat_instances():
    out = []
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for rank in (1, 2, 3, 4):
            for a in (0, 1):
                E = Bundle.sum_of_lines(curve, [a] * rank)
                out.append(inverse_cartier_1(HiggsBundle.zero(E)))
    rng = random.Random(505)
    for p in (3, 5, 7):
        for rank in (2, 3, 3):
            H = random_nilpotent_higgs(rng, p, rank, curve="A1")
            out.append(inverse_cartier_1(H))
    return out


def test_semistable_inputs_descend_and_certify():
    t0 = time.monotonic()
    instances = _semistable_flat_instances()
    assert len(instances) >= 30
    for flat in instances:
        fil, log = simpson_filtration(flat)
        check_window_descent(log)
        for prev, cur in zip(log, log[1:]):
            assert (cur.mu_max, cur.r_max) <= (prev.mu_max, prev.r_max)
            if cur.level == prev.level:
                assert (cur.mu_max, cur.r_max) < (prev.mu_max, prev.r_max)
        gr = grade(flat, fil).graded
        ok, witness = is_higgs_semistable(gr)
        assert ok and witness is None
    assert time.monotonic() - t0 < 60.0


# -- 6: the destabilized line sum is refused ---------------------------------


def test_unbalanced_line_sum_with_canonical_connection_is_refused():
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        E = Bundle.sum_of_lines(curve, [0, 1])
        flat = inverse_cartier_1(HiggsBundle.zero(E))
        assert sorted(flat.bundle.splitting_type(), reverse=True) == [p, 0]
        ok, witness = is_nabla_semistable(flat)
        assert not ok and witness is not None
        with pytest.raises(NotNablaSemistable):
            simpson_filtration(flat)


# -- 7: scalar packing commutes with the period rotation ---------------------


def test_rotation_commutes_with_conjugate_scalar_ladder():
    # the wrap entry folds the top power back: s acts by xi^{p^j} on the
    # j-th summand, and pushing it past the rotation twists the exponent
    for p, f in ((3, 2), (3, 3), (5, 2)):
        K = GF(p, f)
        xi = K.gen
        assert K.pow(xi, p**f) == xi
        for e in range(1, f):
            assert K.pow(xi, p**e) != xi
        wrap = K.coerce(2)
        rot = [[K.zero] * f for _ in range(f)]
        for i in range(1, f):
            rot[i][i - 1] = K.one
        rot[0][f - 1] = wrap
        shifted = [K.pow(xi, p ** (j + 1)) for j in range(f)]
        plain = [K.pow(xi, p**i) for i in range(f)]
        lhs = [[K.mul(rot[i][j], shifted[j]) for j in range(f)] for i in range(f)]
        rhs = [[K.mul(plain[i], rot[i][j]) for j in range(f)] for i in range(f)]
        assert lhs == rhs


def test_pack_unpack_round_trip_is_certified_isomorphic():
    for p, f in ((3, 2), (3, 3), (5, 2)):
        K = GF(p, f)
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        G = GradedHiggsBundle((Bundle.free(curve, 2),), ())
        fils = tuple(_fil0(d, 2) for _ in range(f))
        phi = _const_graded_map(d, curve.ncharts, [[1, 1], [0, 1]])
        T = PeriodicTuple(G, fils, phi).validate()
        packed = pack_endostructure(T, K.gen, K)
        back = unpack_endostructure(packed)
        assert back.period == f
        GK = extend_graded(G, K)
        reference = PeriodicTuple(
            GK, tuple(_fil0(K, 2) for _ in range(f)), _identity_graded_map(GK)
        ).validate()
        cert = tuples_isomorphic(back, reference)
        assert cert is not None


# -- 8: relative Frobenius on the one-periodic corpus ------------------------


def test_one_periodic_corpus_gets_full_frobenius_certificates():
    total = 0
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        for name, G in one_periodic_instances(p):
            T = PeriodicTuple(
                G, (_fil0(d, G.rank),), _identity_graded_map(G)
            ).validate()
            rf = build_relative_frobenius(T)
            assert rf.certificates == {
                "invertible": True,
                "horizontal": True,
                "taylor": True,
            }, name
            total += 1
    assert total == 12


# -- 9: the two carry constructions agree ------------------------------------


def test_carry_constructions_agree_and_divided_relations_hold():
    rng = random.Random(909)
    cases = []
    for j in range(16):
        shapes = [(1, 1), (2, 1), (1, 2), (2, 2)]
        cases.append((3, shapes[j % len(shapes)]))
    for j in range(16):
        shapes = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 1, 1)]
        cases.append((5, shapes[j % len(shapes)]))
    assert len(cases) >= 30
    for p, ranks in cases:
        tup = random_witt_tuple(rng, p, 2, ranks)
        tw = gn_construct(tup)
        sharp = sharp_construct(tup)
        L = equivalence_check(tw, sharp)
        assert L == RingMatrix.identity(tup.ring, tw.rank)
        report = gamma_relations_check(tw, rng, samples=2, m=1)
        assert len(report) == 6
        assert all(report.values()), report


# -- 10: the second-level transform reduces to the first-level one -----------


def test_two_level_transform_reduces_to_level_one_with_certificate():
    rng = random.Random(1010)
    checked = 0
    shapes = {
        3: [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)],
        5: [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1), (1, 1, 1, 1)],
    }
    for p, reps in ((3, 18), (5, 12)):
        for j in range(reps):
            tup = random_witt_tuple(rng, p, 2, shapes[p][j % len(shapes[p])])
            cert = mod_reduction_check(tup)
            assert cert.matches
            assert cert.char_p_agrees is True
            assert cert.matrix == RingMatrix.identity(
                Zmod(p, 1), sum(tup.ranks)
            )
            assert cert.ok
            checked += 1
    assert checked >= 30


# -- 11: the unit Higgs block is one-periodic at the second level ------------


def test_unit_higgs_block_is_one_periodic_at_second_level():
    t0 = time.monotonic()
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    theta = (_mat(ring, [[1]]),)
    abar = _mat(down, [[0, {2: 1}], [0, 0]])
    psibar = (_mat(down, [[1]]), _mat(down, [[{2: 1}]]))
    tup = LiftingInputTuple(ring, (1, 1), theta, abar, psibar)
    step = w2_flow_step(tup, filtration_steps_from_flag(tup, ring))
    assert step.periodic
    assert step.certificates["psi_grade0_identity"]
    assert step.psi == (_mat(ring, [[1]]), _mat(ring, [[{2: 1}]]))
    # closed forms, substituted independently of the flow machinery
    lift = FrobeniusLifting.standard(AffineLine(ring))
    u = lift.derivative_quotient(0, ring)
    pulled = tup.theta[0].substitute(lift.frobenius_image(0, ring)).scale(u)
    assert step.theta_next == (pulled,)
    assert step.theta_next == (_mat(ring, [[{2: 1}]]),)
    assert step.flat.A[0] == _mat(ring, [[0, {2: 1}], [0, {-1: 3}]])
    assert time.monotonic() - t0 < 5.0


# -- 12: the sign convention survives lifting changes ------------------------


def test_sign_convention_verified_on_random_nilpotent_instances():
    rng = random.Random(1212)
    checked = 0
    for i in range(51):
        p = (3, 5, 7)[i % 3]
        curve = "P1" if i % 2 == 0 else "A1"
        H = random_nilpotent_higgs(rng, p, 1 + i % 3, curve=curve)
        lifting = random_lifting(rng, H.bundle.curve) if i % 3 == 0 else None
        report = ov_sign_check(H, lifting)
        assert report.passed
        checked += 1
    assert checked >= 50


# -- 13: rank-2 semistable flows stay semistable -----------------------------


def _rank_two_semistable_instances():
    out = []
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        out.append((p, GradedHiggsBundle((Bundle.free(curve, 2),), ())))
        zero = RingMatrix.zeros(d, 1, 1)
        out.append(
            (
                p,
                GradedHiggsBundle(
                    (Bundle.free(curve, 1), Bundle.free(curve, 1)),
                    ((zero, zero),),
                ),
            )
        )
    for p, seeds in ((3, (21, 22, 23, 24, 25)), (5, (26, 27, 28, 29)), (7, (30, 31, 32, 33, 34))):
        for seed in seeds:
            params = CorpusParams(
                p=p, rank=2, weight=1, count=1, seed=seed, curve="A1"
            )
            out.extend((p, G) for G in generate(params))
    return out


def test_rank_two_flows_keep_every_higgs_term_semistable():
    instances = _rank_two_semistable_instances()
    assert len(instances) >= 20
    for p, G in instances:
        assert G.rank == 2 and G.degree() == 0
        assert is_higgs_semistable(G)[0]
        trace = run_flow(G, FlowPolicy(max_steps=4))
        terms = [stage.higgs for stage in trace.stages]
        assert len(terms) == 5
        for term in terms:
            ok, witness = is_higgs_semistable(term)
            assert ok and witness is None
            assert term.rank == 2 and term.degree() == 0
