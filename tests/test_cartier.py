"""Tests for the characteristic-p inverse transform and its p-curvature."""

import copy
import itertools
import random

import pytest

from hdflow import cartier
from hdflow.bundles import Bundle, FlatBundle, HiggsBundle
from hdflow.cartier import (
    check_nilpotency,
    frobenius_pullback_matrix,
    inverse_cartier_1,
    inverse_cartier_1_on_map,
    lifting_change_transport,
    ov_sign_check,
    p_curvature,
    p_curvature_prediction,
    pullback_higgs_matrices,
)
from hdflow.corpus import random_nilpotent_higgs
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.errors import ExponentTooLarge, WrongModulus
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod

from oracles import (
    conjugate_higgs_frames,
    map_from_chart0,
    nilpotency_index,
    nilpotent_matrix_exp,
    random_graded_higgs,
    random_laurent,
    respects_higgs,
    unshared_inverse_cartier_1,
    unshared_lifting_change_transport,
)


def upper_shift(domain, rank, value=None):
    """Strictly upper triangular single-band matrix: e_i -> value * e_{i-1}."""
    one = value if value is not None else domain.one
    rows = [
        [
            LaurentPoly.const(domain, one) if j == i + 1 else LaurentPoly.zero(domain)
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return RingMatrix(domain, rows)


def random_lifting(rng, curve, max_deg=2):
    hs = tuple(
        random_laurent(rng, curve.domain, 0, max_deg)
        for _ in range(curve.ncharts)
    )
    return FrobeniusLifting(curve, hs)


# -- trivial input -----------------------------------------------------------


def test_trivial_higgs_gives_trivial_flat_connection():
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for r in (1, 2, 4):
            E = Bundle.free(curve, r)
            higgs = HiggsBundle.zero(E)
            H = inverse_cartier_1(higgs)
            assert H.bundle.transition == RingMatrix.identity(d, r)
            assert H.bundle.degree() == 0
            for A in H.A:
                assert A.is_zero()
            for psi in p_curvature(H):
                assert psi.is_zero()


def test_trivial_higgs_affine():
    d = Zmod(5, 1)
    curve = AffineLine(d)
    higgs = HiggsBundle.zero(Bundle.free(curve, 3))
    H = inverse_cartier_1(higgs)
    assert H.A[0].is_zero()
    assert p_curvature(H)[0].is_zero()


# -- frozen connection matrices ----------------------------------------------


def test_affine_rank_two_connection_matrix():
    for p in (3, 5):
        d = Zmod(p, 1)
        curve = AffineLine(d)
        N = upper_shift(d, 2)
        higgs = HiggsBundle(Bundle.free(curve, 2), (N,))
        H = inverse_cartier_1(higgs)
        assert H.A[0] == N.scale(LaurentPoly.var(d, p - 1))


def test_affine_connection_with_shifted_lifting():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    N = upper_shift(d, 2)
    higgs = HiggsBundle(Bundle.free(curve, 2), (N,))
    lift = FrobeniusLifting(curve, (LaurentPoly.var(d),))
    H = inverse_cartier_1(higgs, lift)
    expected = N.scale(
        LaurentPoly(d, {2: d.one, 0: d.one})
    )
    assert H.A[0] == expected


def frozen_projective_higgs(d, c=None):
    """O(1) + O(-1) with the constant upper-right Higgs entry."""
    curve = ProjectiveLine(d)
    E = Bundle.sum_of_lines(curve, [1, -1])
    theta0 = upper_shift(d, 2, c if c is not None else d.one)
    return HiggsBundle.from_chart0(E, theta0)


def test_projective_transform_standard_atlas():
    d = Zmod(3, 1)
    higgs = frozen_projective_higgs(d)
    H = inverse_cartier_1(higgs)
    # transition is the pullback of the input transition, no correction
    assert H.bundle.transition == frobenius_pullback_matrix(higgs.bundle.transition)
    assert H.bundle.degree() == 0
    assert H.A[0] == upper_shift(d, 2).scale(LaurentPoly.var(d, 2))
    H.validate()


# -- degree scaling ----------------------------------------------------------


def test_transform_degree_scales_by_p():
    rng = random.Random(7)
    cases = 0
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        shapes = [(1, 1), (2, 1), (1, 2)]
        if p > 3:
            shapes.append((1, 1, 1))
        for shape in shapes:
            for base in (-2, 0, 1):
                higgs = random_graded_higgs(rng, curve, shape, base_exp=base)
                if rng.randrange(2):
                    higgs = conjugate_higgs_frames(rng, higgs)
                H = inverse_cartier_1(higgs)
                assert H.bundle.degree() == p * higgs.bundle.degree()
                cases += 1
    assert cases >= 20


# -- nontrivial atlases on the projective line -------------------------------


def test_transform_with_nontrivial_atlas_validates():
    rng = random.Random(11)
    for p in (3, 5):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for _ in range(6):
            higgs = random_graded_higgs(rng, curve, (1, 1), base_exp=-1)
            lift = random_lifting(rng, curve)
            H = inverse_cartier_1(higgs, lift)
            H.validate()
            pulled = pullback_higgs_matrices(higgs)
            z = lift.z_cross_chart(d)
            want = frobenius_pullback_matrix(higgs.bundle.transition).mul(
                nilpotent_matrix_exp(pulled[0].scale(z))
            )
            assert H.bundle.transition == want
            assert H.bundle.degree() == p * higgs.bundle.degree()


# -- p-curvature -------------------------------------------------------------


def test_p_curvature_frozen_rank_one_constant():
    for p, c in ((3, 2), (5, 2), (5, 3)):
        d = Zmod(p, 1)
        curve = AffineLine(d)
        A = RingMatrix(d, [[LaurentPoly.const(d, d.coerce(c))]])
        flat = FlatBundle(Bundle.free(curve, 1), (A,))
        psi = p_curvature(flat)[0]
        assert psi == RingMatrix(
            d, [[LaurentPoly.const(d, d.coerce(c ** p))]]
        )


def test_p_curvature_of_transform_matches_prediction():
    rng = random.Random(23)
    checked = 0
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        for curve in (ProjectiveLine(d), AffineLine(d)):
            shapes = [(1, 1), (2, 1)] if p == 3 else [(1, 1), (2, 1), (1, 1, 1)]
            for shape in shapes:
                higgs = random_graded_higgs(rng, curve, shape, base_exp=-1)
                for lift in (None, random_lifting(rng, curve, max_deg=1)):
                    H = inverse_cartier_1(higgs, lift)
                    psi = p_curvature(H)
                    want = p_curvature_prediction(higgs)
                    for c in range(curve.ncharts):
                        assert psi[c] == want[c]
                    checked += 1
    assert checked >= 20


def test_p_curvature_is_horizontal():
    rng = random.Random(31)
    d = Zmod(3, 1)
    curve = ProjectiveLine(d)
    higgs = random_graded_higgs(rng, curve, (2, 1), base_exp=-1)
    H = inverse_cartier_1(higgs, random_lifting(rng, curve))
    psi = p_curvature(H)
    for c in range(2):
        A = H.A[c]
        flatness = psi[c].derivative().add(A.mul(psi[c])).sub(psi[c].mul(A))
        assert flatness.is_zero()


def test_p_curvature_rejects_higher_precision():
    d = Zmod(3, 2)
    curve = AffineLine(d)
    flat = FlatBundle(
        Bundle.free(curve, 1), (RingMatrix.zeros(d, 1, 1),)
    )
    with pytest.raises(WrongModulus):
        p_curvature(flat)


# -- nilpotency bound --------------------------------------------------------


def test_nilpotency_bound_enforced():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    N = upper_shift(d, 3)  # index 3 = p, one too many
    higgs = HiggsBundle(Bundle.free(curve, 3), (N,))
    with pytest.raises(ExponentTooLarge):
        inverse_cartier_1(higgs)
    with pytest.raises(ExponentTooLarge):
        check_nilpotency(higgs)
    with pytest.raises(ExponentTooLarge):
        ov_sign_check(higgs)
    ok = HiggsBundle(Bundle.free(AffineLine(Zmod(5, 1)), 3), (upper_shift(Zmod(5, 1), 3),))
    assert check_nilpotency(ok) == 3


def test_non_nilpotent_rejected():
    d = Zmod(3, 1)
    curve = AffineLine(d)
    M = RingMatrix.identity(d, 2)
    higgs = HiggsBundle(Bundle.free(curve, 2), (M,))
    with pytest.raises(ExponentTooLarge):
        inverse_cartier_1(higgs)


# -- Taylor cocycle across lifting changes -----------------------------------


def taylor(higgs, lift_from, lift_to):
    """The chart-0 Taylor matrix exp(z * pullback of Theta), z = (F_from - F_to)/p."""
    return lifting_change_transport(higgs, lift_from, lift_to)[0].phi[0]


def test_taylor_cocycle_for_three_liftings():
    rng = random.Random(41)
    cases = 0
    for p in (3, 5):
        d = Zmod(p, 1)
        curve = AffineLine(d)
        rank = 2 if p == 3 else 3
        N = upper_shift(d, rank)
        higgs = HiggsBundle(Bundle.free(curve, rank), (N,))
        for _ in range(8):
            lifts = [random_lifting(rng, curve) for _ in range(3)]
            z21 = lifts[1].z_same_chart(lifts[0], 0, d)
            z32 = lifts[2].z_same_chart(lifts[1], 0, d)
            z31 = lifts[2].z_same_chart(lifts[0], 0, d)
            assert z31 == z21.add(z32)
            g21 = taylor(higgs, lifts[1], lifts[0])
            g32 = taylor(higgs, lifts[2], lifts[1])
            g31 = taylor(higgs, lifts[2], lifts[0])
            assert g31 == g21.mul(g32)
            cases += 1
    assert cases == 16


def test_lifting_change_transport_frozen():
    # two standard-curve atlases differing by h = t on chart 0, p = 3:
    # the comparison map is I + t * Theta on chart 0 and the identity on
    # chart 1.
    d = Zmod(3, 1)
    higgs = frozen_projective_higgs(d)
    curve = higgs.bundle.curve
    zero = LaurentPoly.zero(d)
    shifted = FrobeniusLifting(curve, (LaurentPoly.var(d), zero))
    std = FrobeniusLifting.standard(curve)
    iso, src, dst = lifting_change_transport(higgs, shifted, std)
    t = LaurentPoly.var(d)
    want0 = RingMatrix.identity(d, 2).add(upper_shift(d, 2).scale(t))
    assert iso.phi[0] == want0
    assert iso.phi[1] == RingMatrix.identity(d, 2)
    iso.validate()
    assert iso.is_isomorphism()
    assert iso.is_horizontal(src, dst)


def test_lifting_change_transport_random():
    rng = random.Random(47)
    for p in (3, 5):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        for _ in range(4):
            higgs = random_graded_higgs(rng, curve, (1, 1), base_exp=-1)
            la = random_lifting(rng, curve)
            lb = random_lifting(rng, curve)
            iso, src, dst = lifting_change_transport(higgs, la, lb)
            iso.validate()
            assert iso.is_isomorphism()
            assert iso.is_horizontal(src, dst)
            back, _, _ = lifting_change_transport(higgs, lb, la)
            for c in range(2):
                assert iso.phi[c].mul(back.phi[c]) == RingMatrix.identity(
                    d, higgs.bundle.rank
                )



def test_lifting_change_transport_error_order():
    # the liftings are compared first, then the Higgs field's nilpotency,
    # then the modulus of the level-one transform; inverse_cartier_1 asks
    # for the modulus first.  A failing nilpotency certificate stores no
    # state, so asking again raises the same error.
    d = Zmod(3, 2)
    curve = AffineLine(d)
    std = FrobeniusLifting.standard(curve)
    wild = HiggsBundle(Bundle.free(curve, 2), (RingMatrix.identity(d, 2),))
    with pytest.raises(ValueError, match="different curves"):
        elsewhere = FrobeniusLifting.standard(ProjectiveLine(d))
        lifting_change_transport(wild, std, elsewhere)
    for _ in range(2):
        with pytest.raises(ExponentTooLarge):
            lifting_change_transport(wild, std, std)
        assert wild._level_one is None
        with pytest.raises(WrongModulus):
            inverse_cartier_1(wild)
    higgs = frozen_projective_higgs(d)
    std = FrobeniusLifting.standard(higgs.bundle.curve)
    for _ in range(2):
        with pytest.raises(WrongModulus):
            lifting_change_transport(higgs, std, std)
        with pytest.raises(WrongModulus):
            inverse_cartier_1(higgs, std)
    field = Zmod(3, 1)
    wild = HiggsBundle(Bundle.free(AffineLine(field), 2), (RingMatrix.identity(field, 2),))
    for _ in range(2):
        with pytest.raises(ExponentTooLarge):
            inverse_cartier_1(wild)
        assert wild._level_one is None


def test_lifting_change_transport_work(monkeypatch):
    # one three-lifting cocycle on one bundle: one nilpotency certificate,
    # one pullback per Higgs matrix and one of the transition serve every
    # map and transform, each atlas's transform is built and validated once
    # and then shared, the exponentials only scale the stored powers, and
    # no chart-1 transition is inverted; a deep copy, as the benchmark
    # takes of every op input, keeps the shared state
    rng = random.Random(53)
    d = Zmod(5, 1)
    curve = ProjectiveLine(d)
    higgs = conjugate_higgs_frames(rng, random_graded_higgs(rng, curve, (1, 1, 1)))
    assert higgs.bundle.rank == 3 and nilpotency_index(higgs) == 3
    l0, l1, l2 = (random_lifting(rng, curve) for _ in range(3))
    calls, stack = [], ["transport"]

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append((name, stack[-1], args))
            stack.append(name)
            try:
                return original(*args)
            finally:
                stack.pop()

        monkeypatch.setattr(owner, name, counted)

    def spy_all():
        calls.clear()
        for owner, name in (
            (RingMatrix, "inverse"),
            (RingMatrix, "mul"),
            (FlatBundle, "validate"),
            (cartier, "frobenius_pullback_matrix"),
            (cartier._LevelOne, "__init__"),
            (cartier._LevelOne, "exp"),
            (cartier._LevelOne, "powers"),
        ):
            spy(owner, name)

    def named(name):
        return [(where, args) for what, where, args in calls if what == name]

    spy_all()
    t01, src0, dst1 = lifting_change_transport(higgs, l0, l1)
    t12, src1, dst2 = lifting_change_transport(higgs, l1, l2)
    t02, src0_again, dst2_again = lifting_change_transport(higgs, l0, l2)
    monkeypatch.undo()
    assert len(named("__init__")) == 1 and named("inverse") == []
    pulled = [
        id(args[0])
        for _, args in named("frobenius_pullback_matrix")
        if any(args[0] is T for T in higgs.theta)
    ]
    assert pulled == [id(T) for T in higgs.theta]
    transitions = [
        args
        for _, args in named("frobenius_pullback_matrix")
        if args[0] is higgs.bundle.transition
    ]
    assert len(transitions) == 1
    assert len(named("validate")) == 3
    assert len(named("exp")) == 2 * 3 + 3
    products = [where for where, _ in named("mul")]
    assert "exp" not in products
    # the certificate raises chart 0's powers to N^3 = 0 and chart 1's run
    # is raised to N^2 once
    assert products.count("__init__") == 2 and products.count("powers") == 1
    assert dst1 is src1 and src0_again is src0 and dst2_again is dst2
    assert t12.compose(t01).phi == t02.phi
    for iso, src, dst in ((t01, src0, dst1), (t12, src1, dst2), (t02, src0, dst2)):
        iso.validate()
        assert iso.is_isomorphism() and iso.is_horizontal(src, dst)

    twin = copy.deepcopy(higgs)
    spy_all()
    a = lifting_change_transport(twin, l0, l1)
    b = lifting_change_transport(twin, l1, l2)
    monkeypatch.undo()
    assert named("__init__") == [] and named("validate") == []
    assert [where for where, _ in named("mul")] == []
    assert a[2] is b[1] and a[1] is not src0
    assert (a[0].phi, a[1].A, a[2].bundle) == (t01.phi, src0.A, dst1.bundle)


def test_shared_transforms_match_unshared_oracle():
    # p in {3, 5, 7}, P^1 and A^1, ranks 1-3, each bundle of the largest
    # nilpotency index its rank and p allow; atlases None, the standard
    # lifting and two random ones; every transform and every ordered pair
    # of liftings, called in shuffled order on one bundle, against the
    # oracle that checks, pulls back and builds afresh on every call
    rng = random.Random(67)
    cases = 0
    for p in (3, 5, 7):
        for kind in ("P1", "A1"):
            for rank in (1, 2, 3):
                higgs = random_nilpotent_higgs(rng, p, rank, curve=kind)
                while nilpotency_index(higgs) < min(rank, p - 1):
                    higgs = random_nilpotent_higgs(rng, p, rank, curve=kind)
                curve = higgs.bundle.curve
                lifts = [FrobeniusLifting.standard(curve)]
                lifts += [random_lifting(rng, curve) for _ in range(2)]
                jobs = [(atlas,) for atlas in [None] + lifts]
                jobs += list(itertools.product(lifts, repeat=2))
                rng.shuffle(jobs)
                for job in jobs:
                    if len(job) == 1:
                        got = inverse_cartier_1(higgs, job[0])
                        want = unshared_inverse_cartier_1(higgs, job[0])
                        assert (got.bundle, got.A) == (want.bundle, want.A)
                        continue
                    got = lifting_change_transport(higgs, *job)
                    want = unshared_lifting_change_transport(higgs, *job)
                    assert got[0].phi == want[0].phi
                    for flat, ref in zip(got[1:], want[1:]):
                        assert (flat.bundle, flat.A) == (ref.bundle, ref.A)
                    cases += 1
    assert cases == 18 * 9


# -- functoriality -----------------------------------------------------------


def test_transform_on_maps_is_horizontal():
    d = Zmod(3, 1)
    higgs = frozen_projective_higgs(d)
    # an endomorphism respecting the Higgs field: a + b * Theta
    a, b = d.coerce(2), d.coerce(1)
    phi0 = RingMatrix.identity(d, 2).scale_const(a).add(
        higgs.theta[0].scale_const(b)
    )
    phi = map_from_chart0(higgs.bundle, higgs.bundle, phi0)
    assert respects_higgs(phi, higgs, higgs)
    lift = FrobeniusLifting(
        higgs.bundle.curve,
        (LaurentPoly.var(d), LaurentPoly.zero(d)),
    )
    H = inverse_cartier_1(higgs, lift)
    moved = inverse_cartier_1_on_map(phi, H, H)
    moved.validate()
    assert moved.is_horizontal(H, H)
    assert moved.is_isomorphism()


# -- sign convention check ---------------------------------------------------


def test_ov_sign_check_trivial():
    d = Zmod(3, 1)
    higgs = HiggsBundle.zero(Bundle.free(ProjectiveLine(d), 2))
    report = ov_sign_check(higgs)
    assert report.passed


def test_ov_sign_check_random():
    rng = random.Random(53)
    count = 0
    for p in (3, 5, 7):
        d = Zmod(p, 1)
        curve = ProjectiveLine(d)
        shapes = [(1, 1)] if p == 3 else [(1, 1), (1, 1, 1)]
        for shape in shapes:
            for _ in range(3):
                higgs = random_graded_higgs(rng, curve, shape, base_exp=-1)
                lift = random_lifting(rng, curve, max_deg=1)
                for use in (None, lift):
                    report = ov_sign_check(higgs, use)
                    assert report.gluing_matches
                    assert report.connection_matches
                    count += 1
    assert count >= 20


# -- coefficient-field Frobenius ---------------------------------------------


def test_gf_coefficient_transform():
    d = GF(3, 2)
    curve = ProjectiveLine(d)
    x = d.gen
    # Higgs entry with a non-fixed coefficient so the coefficient Frobenius
    # genuinely acts
    E = Bundle.sum_of_lines(curve, [1, -1])
    theta0 = upper_shift(d, 2, x)
    higgs = HiggsBundle.from_chart0(E, theta0)
    H = inverse_cartier_1(higgs)
    H.validate()
    assert H.bundle.degree() == 0
    # connection coefficient is x^3 = -x, not x
    frob_x = d.frobenius(x)
    assert frob_x == d.neg(x)
    assert H.A[0] == upper_shift(d, 2, frob_x).scale(LaurentPoly.var(d, 2))
    psi = p_curvature(H)
    want = p_curvature_prediction(higgs)
    for c in range(2):
        assert psi[c] == want[c]


def test_gf_random_instances():
    rng = random.Random(61)
    d = GF(3, 2)
    curve = ProjectiveLine(d)
    for _ in range(5):
        higgs = random_graded_higgs(rng, curve, (1, 1), base_exp=-1)
        H = inverse_cartier_1(higgs)
        assert H.bundle.degree() == 3 * higgs.bundle.degree()
        psi = p_curvature(H)
        want = p_curvature_prediction(higgs)
        assert psi[0] == want[0]


# -- atlas validation --------------------------------------------------------


def test_atlas_requires_matching_domain():
    d1 = Zmod(3, 1)
    d2 = Zmod(3, 2)
    higgs = HiggsBundle.zero(Bundle.free(AffineLine(d1), 2))
    lift2 = FrobeniusLifting.standard(AffineLine(d2))
    with pytest.raises(WrongModulus):
        inverse_cartier_1(higgs, lift2)


def test_atlas_rejected_over_field_extension():
    d = GF(3, 2)
    higgs = HiggsBundle.zero(Bundle.free(AffineLine(d), 1))
    lift = FrobeniusLifting.standard(AffineLine(Zmod(3, 1)))
    with pytest.raises(WrongModulus):
        inverse_cartier_1(higgs, lift)
