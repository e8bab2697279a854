"""Charts, coordinate changes, Frobenius liftings, and exact p-divisions."""

import pytest

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
