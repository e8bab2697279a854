"""Bundles on the line: degrees, splitting types, fields, maps, subsheaves."""

import random

import pytest

from hdflow.bundles import (
    Bundle,
    HiggsBundle,
    Subbundle,
    change_frame_connection,
    chart1_form,
    full_subbundle,
    hn_filtration,
    laurent_unit_exponent,
)
from hdflow.corpus import CorpusParams, _random_unimodular, generate
from hdflow.curves import AffineLine, ProjectiveLine
from hdflow.errors import ExponentTooLarge, NonInvertible
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod, birkhoff_factorize

import oracles


def P1(p, m=1):
    return ProjectiveLine(Zmod(p, m))


def test_line_bundle_degree_and_type():
    X = P1(3)
    for a in (-3, -1, 0, 2):
        L = Bundle.sum_of_lines(X, (a,))
        assert L.degree() == a
        assert L.splitting_type() == [a]
    E = Bundle.sum_of_lines(X, [2, 0, -1])
    assert E.degree() == 1
    assert E.splitting_type() == [2, 0, -1]


def test_splitting_type_invariant_under_frame_twists():
    X = P1(3)
    d = X.domain
    rng = random.Random(61)
    for _ in range(10):
        exps = sorted((rng.randrange(-2, 3) for _ in range(3)), reverse=True)
        U = oracles.random_unimodular_poly(rng, d, 3)
        V = oracles.random_unimodular_poly(rng, d, 3, inverse_var=True)
        g = V.mul(Bundle.sum_of_lines(X, exps).transition).mul(U)
        E = Bundle(X, 3, g)
        assert E.splitting_type() == exps
        assert E.degree() == sum(exps)


def test_direct_sum_degree_adds():
    X = P1(3)
    E = Bundle.sum_of_lines(X, [1, 0])
    F = Bundle.sum_of_lines(X, (-2,))
    S = E.direct_sum(F)
    assert S.rank == 3
    assert S.degree() == -1
    assert S.splitting_type() == [1, 0, -2]


def test_transition_must_be_invertible():
    X = P1(3)
    d = X.domain
    t = LaurentPoly.var(d)
    with pytest.raises(NonInvertible):
        Bundle(X, 1, RingMatrix(d, [[t.add(LaurentPoly.one(d))]]))


def test_higgs_from_chart0_frozen():
    # on O(1) + O(-1), the constant upper-right Higgs matrix extends, with
    # chart-1 matrix the negated constant
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    c = LaurentPoly.const(d, 2)
    zero = LaurentPoly.zero(d)
    theta0 = RingMatrix(d, [[zero, c], [zero, zero]])
    H = HiggsBundle.from_chart0(E, theta0).validate()
    assert H.theta[1] == RingMatrix(d, [[zero, c.neg()], [zero, zero]])


def test_higgs_that_fails_to_extend():
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    one = LaurentPoly.one(d)
    zero = LaurentPoly.zero(d)
    theta0 = RingMatrix(d, [[zero, zero], [one, zero]])
    with pytest.raises(ValueError):
        HiggsBundle.from_chart0(E, theta0)


def test_higgs_nilpotency_index():
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    zero = LaurentPoly.zero(d)
    one = LaurentPoly.one(d)
    H = HiggsBundle.from_chart0(E, RingMatrix(d, [[zero, one], [zero, zero]]))
    assert oracles.nilpotency_index(H) == 2
    assert oracles.nilpotency_index(H) is not None
    Z = HiggsBundle.zero(E)
    assert oracles.nilpotency_index(Z) == 1


def test_flat_trivial_bundle_only_zero_connection_extends():
    X = P1(3)
    d = X.domain
    E = Bundle.free(X, 2)
    zero_mat = RingMatrix.zeros(d, 2, 2)
    F = oracles.flat_from_chart0(E, zero_mat).validate()
    assert F.A[1].is_zero()
    const = oracles.const_matrix(d, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        oracles.flat_from_chart0(E, const)


def test_flat_gauge_term_cancels_pole():
    # O(1) + O(-1) admits a connection with nilpotent residue data: check a
    # hand-picked A_0 that extends thanks to the gauge term
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    zero = LaurentPoly.zero(d)
    one = LaurentPoly.one(d)
    # A_0 = [[0, 1], [0, 0]]: ghat A_0 ghat^-1 * (-s^-2) = [[0,-1],[0,0]],
    # polynomial; the gauge term for diagonal ghat is diag(-1/s, 1/s), not
    # polynomial, so this A_0 alone does not extend; combine instead a frame
    # where it does: verified by the from_chart0 constructor itself.
    A0 = RingMatrix(d, [[zero, one], [zero, zero]])
    with pytest.raises(ValueError):
        oracles.flat_from_chart0(E, A0)


def test_bundle_map_hom_of_lines():
    # Hom(O(d), O(a)) is spanned by t^k for 0 <= k <= a - d
    X = P1(3)
    d = X.domain
    src = Bundle.sum_of_lines(X, (1,))
    dst = Bundle.sum_of_lines(X, (2,))
    for k in (0, 1):
        phi0 = RingMatrix(d, [[LaurentPoly.var(d, k)]])
        m = oracles.map_from_chart0(src, dst, phi0).validate()
        assert m.phi[1].is_polynomial()
    with pytest.raises(ValueError):
        oracles.map_from_chart0(
            src, dst, RingMatrix(d, [[LaurentPoly.var(d, 2)]])
        )
    # no nonzero maps downhill
    with pytest.raises(ValueError):
        oracles.map_from_chart0(
            dst, src, RingMatrix(d, [[LaurentPoly.one(d)]])
        )


def test_bundle_map_composition_and_iso():
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [0, 0])
    rng = random.Random(67)
    Q = oracles.random_unimodular_poly(rng, d, 2, max_deg=0)
    m = oracles.map_from_chart0(E, E, Q).validate()
    assert m.is_isomorphism()
    mm = m.compose(m)
    assert mm.phi[0] == Q.mul(Q)
    not_iso = oracles.map_from_chart0(
        E, E, oracles.const_matrix(d, [[1, 0], [0, 0]])
    )
    assert not not_iso.is_isomorphism()


def test_map_respects_higgs_and_horizontal():
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    zero = LaurentPoly.zero(d)
    c = LaurentPoly.const(d, 1)
    H = HiggsBundle.from_chart0(E, RingMatrix(d, [[zero, c], [zero, zero]]))
    idm = oracles.map_from_chart0(E, E, RingMatrix.identity(d, 2)).validate()
    assert oracles.respects_higgs(idm, H, H)
    scale = oracles.map_from_chart0(
        E, E, oracles.const_matrix(d, [[1, 0], [0, 2]])
    )
    # diag(1,2) conjugates the upper-right entry nontrivially
    assert not oracles.respects_higgs(scale, H, H)
    T = Bundle.free(X, 2)
    Fz = oracles.flat_from_chart0(T, RingMatrix.zeros(d, 2, 2))
    assert oracles.map_from_chart0(T, T, RingMatrix.identity(d, 2)).is_horizontal(
        Fz, Fz
    )


def test_subbundle_coordinate_line():
    X = P1(3)
    d = X.domain
    E = Bundle.sum_of_lines(X, [1, -1])
    col = RingMatrix(d, [[LaurentPoly.one(d)], [LaurentPoly.zero(d)]])
    S = Subbundle.from_chart0_span(E, col).validate()
    assert S.rank == 1
    assert S.degree() == 1
    assert S.slope() == 1


def test_subbundle_tautological_line_in_rank_two():
    # the line generated by (1, t) inside the trivial rank-2 bundle is the
    # degree -1 subbundle
    X = P1(3)
    d = X.domain
    E = Bundle.free(X, 2)
    col = RingMatrix(d, [[LaurentPoly.one(d)], [LaurentPoly.var(d)]])
    S = Subbundle.from_chart0_span(E, col).validate()
    assert S.rank == 1
    assert S.degree() == -1


def test_subbundle_saturation():
    # generators t*(1,0) saturate to (1,0)
    X = P1(3)
    d = X.domain
    E = Bundle.free(X, 2)
    col = RingMatrix(d, [[LaurentPoly.var(d)], [LaurentPoly.zero(d)]])
    S = Subbundle.from_chart0_span(E, col).validate()
    assert S.degree() == 0
    e1 = RingMatrix(d, [[LaurentPoly.one(d)], [LaurentPoly.zero(d)]])
    assert S.contains_chart0(e1)


def test_subbundle_containment_and_equality():
    X = P1(3)
    d = X.domain
    E = Bundle.free(X, 2)
    one, zero, t = LaurentPoly.one(d), LaurentPoly.zero(d), LaurentPoly.var(d)
    S1 = Subbundle.from_chart0_span(E, RingMatrix(d, [[one], [t]]))
    S2 = Subbundle.from_chart0_span(
        E, RingMatrix(d, [[one.scale(2)], [t.scale(2)]])
    )
    assert oracles.same_as(S1, S2)
    full = full_subbundle(E)
    assert full.contains_chart0(S1.basis[0])
    assert not S1.contains_chart0(full.basis[0])


def test_hn_filtration_split_case():
    X = P1(3)
    E = Bundle.sum_of_lines(X, [1, 1, -2])
    steps = hn_filtration(E)
    assert [s.rank for s in steps] == [2, 3]
    assert [s.degree() for s in steps] == [2, 0]
    assert steps[1].contains_chart0(steps[0].basis[0])


def test_hn_filtration_twisted_frames():
    X = P1(3)
    d = X.domain
    rng = random.Random(71)
    base = Bundle.sum_of_lines(X, [2, 0, -1])
    for _ in range(5):
        U = oracles.random_unimodular_poly(rng, d, 3)
        V = oracles.random_unimodular_poly(rng, d, 3, inverse_var=True)
        E = Bundle(X, 3, V.mul(base.transition).mul(U))
        steps = hn_filtration(E)
        assert [s.rank for s in steps] == [1, 2, 3]
        assert [s.degree() for s in steps] == [2, 2, 1]
        for a, b in zip(steps, steps[1:]):
            assert b.contains_chart0(a.basis[0])
        for s in steps:
            s.validate()


def test_hn_semistable_is_one_step():
    X = P1(3)
    E = Bundle.sum_of_lines(X, [1, 1])
    steps = hn_filtration(E)
    assert len(steps) == 1 and steps[0].rank == 2


def test_nilpotent_matrix_exp_frozen():
    d = Zmod(3)
    z = LaurentPoly.var(d)
    M = RingMatrix(d, [[LaurentPoly.zero(d), z], [LaurentPoly.zero(d), LaurentPoly.zero(d)]])
    E = oracles.nilpotent_matrix_exp(M)
    assert E == RingMatrix.identity(d, 2).add(M)


def test_nilpotent_matrix_exp_index_p_boundary():
    d = Zmod(3)
    # full Jordan block of size 3: index 3 = p works (needs 1/2 only)
    M = oracles.const_matrix(d, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    E = oracles.nilpotent_matrix_exp(M)
    half = d.inv(d.coerce(2))
    expect = (
        RingMatrix.identity(d, 3)
        .add(M)
        .add(M.mul(M).scale_const(half))
    )
    assert E == expect
    # size 4: index 4 > p, the factorial 1/3 does not exist
    M4 = oracles.const_matrix(
        d, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    )
    with pytest.raises(ExponentTooLarge):
        oracles.nilpotent_matrix_exp(M4)


def test_nilpotent_exp_multiplicative_for_commuting():
    # exp((z1+z2) M) = exp(z1 M) exp(z2 M) for nilpotent M
    d = Zmod(5)
    rng = random.Random(73)
    N = oracles.const_matrix(d, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    for _ in range(10):
        z1 = oracles.random_poly(rng, d, 2)
        z2 = oracles.random_poly(rng, d, 2)
        lhs = oracles.nilpotent_matrix_exp(N.scale(z1.add(z2)))
        rhs = oracles.nilpotent_matrix_exp(N.scale(z1)).mul(
            oracles.nilpotent_matrix_exp(N.scale(z2))
        )
        assert lhs == rhs


def test_chart_rule_matches_hand_written_formula():
    # x_1(s) = g(1/s) x_0(1/s), and a matrix of 1-forms picks up dt/ds too;
    # checked on the split pieces and total of a corpus instance at p = 5 and
    # on that total seen through a random chart-0 frame (a non-diagonal g)
    d = Zmod(5)
    s_inv = LaurentPoly.var(d, -1)
    jac = LaurentPoly(d, {-2: d.neg(d.one)})

    def form_by_hand(M0, source, target):
        ghat_target = target.transition.substitute(s_inv)
        ghat_source = source.transition.substitute(s_inv)
        M1 = ghat_target.mul(M0.substitute(s_inv)).mul(ghat_source.inverse())
        return M1.scale(jac)

    G = generate(CorpusParams(p=5, rank=4, weight=2, count=1, seed=18))[0]
    assert [P.splitting_type() for P in G.pieces] == [[4], [1, -1], [-3]]
    for k, (M0, M1) in enumerate(G.maps):
        assert not M0.is_zero()
        source, target = G.pieces[k + 1], G.pieces[k]
        assert chart1_form(M0, source, target) == form_by_hand(M0, source, target)
        assert chart1_form(M0, source, target) == M1
    rng = random.Random(89)
    split = G.total()
    twisted = oracles.conjugate_higgs_frames(rng, split)
    g = twisted.bundle.transition
    off_diagonal = [g.entry(i, j) for i in range(4) for j in range(4) if i != j]
    assert not all(e.is_zero() for e in off_diagonal)
    for H in (split, twisted):
        E = H.bundle
        rows = [[oracles.random_laurent(rng, d, -2, 2) for _ in range(2)]
                for _ in range(4)]
        cols = RingMatrix(d, rows)
        by_hand = E.transition.substitute(s_inv).mul(cols.substitute(s_inv))
        assert E.to_chart1(cols) == by_hand
        theta0 = H.theta[0]
        assert chart1_form(theta0, E, E) == form_by_hand(theta0, E, E)


def test_change_frame_connection_gauge_consistency():
    # gauge transforming by Q then validating the chart-1 formula agrees with
    # transporting the already-built chart-1 matrix
    X = P1(3)
    d = X.domain
    rng = random.Random(79)
    E = Bundle.free(X, 2)
    F = oracles.flat_from_chart0(E, RingMatrix.zeros(d, 2, 2))
    Q = oracles.random_unimodular_poly(rng, d, 2)
    A0_new = change_frame_connection(F.A[0], Q, Q.inverse())
    # new bundle with transition g' = ghat-side unchanged: g Q^-1 in t coords
    gnew = E.transition.mul(Q.inverse())
    Enew = Bundle(X, 2, gnew)
    Fnew = oracles.flat_from_chart0(Enew, A0_new)
    Fnew.validate()


def test_affine_line_bundles_are_free():
    Y = AffineLine(Zmod(3))
    E = Bundle.free(Y, 2)
    assert E.degree() == 0
    d = Y.domain
    th = oracles.const_matrix(d, [[0, 1], [0, 0]])
    H = HiggsBundle.from_chart0(E, th).validate()
    assert len(H.theta) == 1


def test_laurent_unit_exponent():
    d = Zmod(3, 2)
    u = LaurentPoly(d, {2: 2, 5: 3})
    assert laurent_unit_exponent(u) == 2
    with pytest.raises(NonInvertible):
        laurent_unit_exponent(LaurentPoly(d, {0: 1, 1: 1}))


def test_bundle_over_gf_field():
    F = GF(3, 2)
    X = ProjectiveLine(F)
    E = Bundle.sum_of_lines(X, [1, 0])
    assert E.degree() == 1
    assert E.splitting_type() == [1, 0]


def _prime_field_image(U, d):
    """A unimodular matrix over Z/p read over the field d of characteristic p."""
    return RingMatrix(
        d,
        [
            [LaurentPoly(d, {e: d.coerce(c) for e, c in x.coeffs.items()}) for x in row]
            for row in U.rows
        ],
    )


def test_splitting_type_and_degree_match_the_factoring_oracle():
    # line bundles c t^e, sums of lines and framed bundles g U: the stored
    # determinant and the rank-1 rule give what factoring and expanding gave
    rng = random.Random(32)
    for d in [Zmod(p, 1) for p in (3, 5, 7)] + [GF(p, 2) for p in (3, 5, 7)]:
        X = ProjectiveLine(d)
        # _random_unimodular reads an integer modulus, so it draws U over
        # Z/p and GF(p, 2) reads it through its prime field
        Fp = Zmod(d.p, 1)
        cases = []
        for e in range(-6, 7):
            c = oracles.random_unit(rng, d)
            g = RingMatrix(d, [[LaurentPoly(d, {e: c})]])
            cases.append((1, g))
        for rank in (2, 3, 4):
            exps = [rng.randint(-6, 6) for _ in range(rank)]
            cases.append((rank, Bundle.sum_of_lines(X, exps).transition))
        for rank in (1, 2, 3, 4):
            exps = [rng.randint(-6, 6) for _ in range(rank)]
            g = Bundle.sum_of_lines(X, exps).transition
            U = _prime_field_image(_random_unimodular(rng, Fp, rank), d)
            cases.append((rank, g.mul(U)))
        for rank, g in cases:
            E, twin = Bundle(X, rank, g), Bundle(X, rank, g)
            assert E.degree() == oracles.expanded_degree(twin)
            assert E.splitting_type() == oracles.factored_splitting_type(twin)


def test_split_data_expands_no_determinant_of_the_transition(monkeypatch):
    # split_data hands birkhoff_factorize the determinant the bundle keeps,
    # so factoring a sum of lines (closed form) expands no det at all and a
    # framed g U (eliminated) expands one, the certificate det P.
    # birkhoff_factorize(G) alone still expands det G.
    rng = random.Random(34)
    d = Zmod(5, 1)
    X = ProjectiveLine(d)
    bundles = []
    for rank in (2, 3):
        g = Bundle.sum_of_lines(X, [rng.randint(-6, 6) for _ in range(rank)]).transition
        bundles += [Bundle(X, rank, g), Bundle(X, rank, g.mul(_random_unimodular(rng, d, rank)))]
    expanded = []
    det = RingMatrix.det
    monkeypatch.setattr(RingMatrix, "det", lambda M: expanded.append(M) or det(M))
    split = [E.split_data() for E in bundles]
    assert expanded == [X.to_other_chart(frames.Phat) for frames in split[1::2]]
    for E, frames in zip(bundles, split):
        assert birkhoff_factorize(E.transition).exponents == frames.exponents
    assert sum(M is E.transition for M in expanded for E in bundles) == len(bundles)


def test_line_bundle_splitting_type_keeps_its_errors():
    cases = (
        (
            Bundle.free(AffineLine(Zmod(3)), 1),
            ValueError,
            "splitting data only exists on the projective line",
        ),
        (
            Bundle.free(P1(3, 2), 1),
            NonInvertible,
            "birkhoff factorization requires field coefficients",
        ),
    )
    for line, kind, message in cases:
        for read in (Bundle.splitting_type, oracles.factored_splitting_type):
            with pytest.raises(kind) as err:
                read(line)
            assert type(err.value) is kind and str(err.value) == message
    affine = Bundle.free(AffineLine(Zmod(5)), 1)
    assert affine.degree() == oracles.expanded_degree(affine) == 0
