"""Property-based checks of the arithmetic core: ring laws, derivations,
substitution homomorphisms, unit inversion, and the linear solver, on
randomized inputs drawn by hypothesis."""

from itertools import product

from hypothesis import given, settings, strategies as st

from hdflow.ringmath import (
    GF,
    LaurentPoly,
    RingMatrix,
    Zmod,
    _substitute,
)
from hdflow.serialize import poly_from_json, poly_to_json

import oracles

RINGS = [Zmod(3, 1), Zmod(5, 1), Zmod(7, 1), Zmod(3, 2), Zmod(5, 2)]
FIELDS = [GF(3, 2), GF(3, 3), GF(5, 2)]


def _poly(ring, coeffs):
    return LaurentPoly(ring, dict(coeffs))


@st.composite
def ring_polys(draw, count, min_exp=-3, max_exp=4, max_terms=5):
    ring = draw(st.sampled_from(RINGS))
    polys = []
    for _ in range(count):
        coeffs = draw(
            st.dictionaries(
                st.integers(min_value=min_exp, max_value=max_exp),
                st.integers(min_value=0, max_value=ring.modulus - 1),
                max_size=max_terms,
            )
        )
        polys.append(_poly(ring, coeffs))
    return (ring, *polys)


@settings(deadline=None)
@given(ring_polys(3))
def test_laurent_ring_laws(data):
    ring, f, g, h = data
    assert f.add(g) == g.add(f)
    assert f.add(g).add(h) == f.add(g.add(h))
    assert f.mul(g) == g.mul(f)
    assert f.mul(g).mul(h) == f.mul(g.mul(h))
    assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))


# every Z/p^m the Witt lifts reach, m up to 3
WITT_RINGS = [Zmod(p, m) for p in (3, 5, 7) for m in (1, 2, 3)]


@st.composite
def wide_polys(draw, count, max_terms=30, rings=WITT_RINGS):
    """Polynomials of up to max_terms terms on windows that start at a
    negative or positive exponent and run from dense to several times wider
    than the term count; Z/p^m coefficients are unreduced ints."""
    ring = draw(st.sampled_from(rings))
    if isinstance(ring, Zmod):
        cell = st.integers(min_value=-2 * ring.modulus, max_value=2 * ring.modulus)
    else:
        cell = st.sampled_from(list(ring.elements()))
    polys = []
    for _ in range(count):
        lo = draw(st.integers(min_value=-40, max_value=10))
        width = draw(st.integers(min_value=0, max_value=3 * max_terms))
        size = draw(st.integers(min_value=0, max_value=max_terms))
        coeffs = draw(
            st.dictionaries(
                st.integers(min_value=lo, max_value=lo + width),
                cell,
                min_size=min(size, width + 1),
                max_size=size,
            )
        )
        polys.append(_poly(ring, coeffs))
    return (ring, *polys)


def _canonical(f):
    return all(0 < c < f.domain.modulus for c in f.coeffs.values())


@settings(deadline=None, max_examples=300)
@given(wide_polys(2))
def test_mul_and_add_match_the_schoolbook_loop(data):
    ring, f, g = data
    h = f.neg().add(g.scale(ring.p))  # shares f's support, cancels mod p^m
    for x, y in ((f, g), (g, f), (f, h), (h, f)):
        for got, want in (
            (x.mul(y), oracles.schoolbook_mul(x, y)),
            (x.add(y), oracles.schoolbook_add(x, y)),
            (x.sub(y), oracles.schoolbook_add(x, y.neg())),
        ):
            assert got.coeffs == want.coeffs
            assert _canonical(got)


@settings(deadline=None, max_examples=40)
@given(
    wide_polys(36, max_terms=40, rings=WITT_RINGS + FIELDS),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_matrix_product_entries_match_the_schoolbook_loop(data, n, k, m):
    # up to 40 terms an entry: products land on both sides of the packing
    # gate, and over Z/p^m the large ones multiply on packed slots
    ring, *polys = data
    A = RingMatrix(ring, [polys[i * k : (i + 1) * k] for i in range(n)])
    B = RingMatrix(ring, [polys[18 + j * m : 18 + (j + 1) * m] for j in range(k)])
    C = A.mul(B)
    for i in range(n):
        for j in range(m):
            want = LaurentPoly.zero(ring)
            for s in range(k):
                term = oracles.schoolbook_mul(A.rows[i][s], B.rows[s][j])
                want = oracles.schoolbook_add(want, term)
            assert C.rows[i][j].coeffs == want.coeffs


@settings(deadline=None)
@given(ring_polys(2))
def test_derivative_is_a_derivation(data):
    ring, f, g = data
    lhs = f.mul(g).derivative()
    rhs = f.derivative().mul(g).add(f.mul(g.derivative()))
    assert lhs == rhs


@settings(deadline=None)
@given(
    ring_polys(2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=1, max_value=6),
)
def test_substitution_of_unit_monomials_is_a_ring_map(data, e, c):
    ring, f, g = data
    if c % ring.p == 0:
        c += 1
    u = LaurentPoly.monomial(ring, ring.coerce(c), e if e else 1)
    fu, gu, sum_u, prod_u = _substitute([f, g, f.add(g), f.mul(g)], u)
    assert sum_u == fu.add(gu)
    assert prod_u == fu.mul(gu)


@settings(deadline=None)
@given(
    ring_polys(1, min_exp=-2, max_exp=3, max_terms=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=6),
)
def test_unit_laurent_polynomials_invert_exactly(data, e, c):
    ring, tail = data
    if c % ring.p == 0:
        c += 1
    lead = LaurentPoly.monomial(ring, ring.coerce(c), e)
    u = lead.add(tail.scale(ring.coerce(ring.p)))
    if not u.is_unit():
        return
    assert u.mul(u.inverse_unit()) == LaurentPoly.one(ring)


@settings(deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.data(),
)
def test_field_frobenius_is_a_ring_endomorphism(K, data):
    order = K.p**K.f
    pick = lambda: data.draw(st.integers(min_value=0, max_value=order - 1))
    table = list(K.elements())
    a, b = table[pick()], table[pick()]
    assert K.frobenius(K.add(a, b)) == K.add(K.frobenius(a), K.frobenius(b))
    assert K.frobenius(K.mul(a, b)) == K.mul(K.frobenius(a), K.frobenius(b))
    assert K.frobenius(a) == K.pow(a, K.p)


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(RINGS), st.data())
def test_matrix_multiplication_associates(ring, data):
    size = 2
    entry = st.dictionaries(
        st.integers(min_value=-1, max_value=2),
        st.integers(min_value=0, max_value=ring.modulus - 1),
        max_size=2,
    )

    def draw_matrix():
        return RingMatrix(
            ring,
            [
                [_poly(ring, data.draw(entry)) for _ in range(size)]
                for _ in range(size)
            ],
        )

    A, B, C = draw_matrix(), draw_matrix(), draw_matrix()
    assert A.mul(B).mul(C) == A.mul(B.mul(C))


# the one constant solver on every ring and on a non-prime field
SOLVER_CASES = RINGS + [GF(3, 2)]


@settings(deadline=None, max_examples=200)
@given(wide_polys(1, rings=SOLVER_CASES), st.data())
def test_derivative_and_scale_match_the_schoolbook_loop(data, draw):
    ring, f = data
    if isinstance(ring, Zmod):
        # an unreduced scalar, and p, which cancels every coefficient over
        # Z/p and those divisible by p^(m-1) over Z/p^m
        bound = 2 * ring.modulus
        scalars = [draw.draw(st.integers(-bound, bound)), ring.p]
    else:
        scalars = [draw.draw(st.sampled_from(list(ring.elements())))]
    got = f.derivative()
    assert got.coeffs == oracles.schoolbook_derivative(f).coeffs
    assert ring.zero not in got.coeffs.values()
    for c in scalars:
        got = f.scale(c)
        assert got.coeffs == oracles.schoolbook_scale(f, c).coeffs
        assert ring.zero not in got.coeffs.values()


def _matvec(domain, A, x):
    out = []
    for row in A:
        acc = domain.zero
        for a, v in zip(row, x):
            acc = domain.add(acc, domain.mul(a, v))
        out.append(acc)
    return out


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(SOLVER_CASES),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_linear_solver_output_verifies(domain, n, m, data):
    elements = list(domain.elements())
    cell = st.sampled_from(elements)
    A = [[data.draw(cell) for _ in range(m)] for _ in range(n)]
    x = [data.draw(cell) for _ in range(m)]
    b = _matvec(domain, A, x)
    sol = oracles.solve_dense(A, b, domain, m)
    if domain.is_field:
        # the homogeneous system has q^(ncols - rank) solutions, so the
        # kernel basis must have ncols - rank vectors
        homogeneous = sum(
            1
            for v in product(elements, repeat=m)
            if _matvec(domain, A, v) == [domain.zero] * n
        )
        assert homogeneous == len(elements) ** len(sol.kernel)
    assert _matvec(domain, A, sol.particular) == b
    for vec in sol.kernel:
        assert _matvec(domain, A, vec) == [domain.zero] * n


@settings(deadline=None)
@given(ring_polys(1))
def test_poly_json_round_trip(data):
    ring, f = data
    doc = poly_to_json(f)
    assert poly_from_json(ring, doc, "/poly") == f


@settings(deadline=None)
@given(ring_polys(2, min_exp=-2, max_exp=3))
def test_reduction_one_level_down_is_a_ring_map(data):
    ring, f, g = data
    if ring.m == 1:
        return
    down = Zmod(ring.p, ring.m - 1)
    assert f.add(g).reduce_to(down) == f.reduce_to(down).add(g.reduce_to(down))
    assert f.mul(g).reduce_to(down) == f.reduce_to(down).mul(g.reduce_to(down))
