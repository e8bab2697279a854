"""Exact arithmetic over Z/p^m, F_{p^f}, and Laurent polynomial rings.

Elements of Z/p^m are plain ints in [0, p^m); elements of F_{p^f} are tuples
of f ints in [0, p).  Both coefficient domains expose the same small protocol
(zero/one/add/mul/neg/is_unit/inv/coeff_frobenius, poly_add/poly_dot on
whole coefficient dicts, an in-place axpy y += f x on sparse vectors
{index: entry}) so polynomials, matrices and the constant solver are generic
over them.

Conventions fixed here and relied on everywhere else:
  * Laurent polynomials are dicts {exponent: coefficient} with no zero
    coefficients stored; the zero polynomial is the empty dict.  Every
    coefficient is reduced (a least residue for Z/p^m).  LaurentPoly's
    constructor enforces this; LaurentPoly._trusted skips the check.  Its
    callers (LaurentPoly add, mul, neg, shift and derivative, and
    _products) build only reduced nonzero coefficients: the domains'
    poly_add and poly_dot, and _products' unpacking, reduce every sum they
    store and drop zeros.  Nothing reads the order of a coefficient dict.
  * A unit of Z/p^m[t, 1/t] is (unit coefficient) * t^e plus p-nilpotent
    junk; inversion uses the finite geometric series.
  * A constant linear system is a list of sparse rows {column: entry} of
    reduced nonzero entries, the right-hand side at column ncols;
    WindowSystem builds them, solve_linear_mod copies them before it
    eliminates, and its particular solution and kernel vectors are zero-free
    dicts over columns 0..ncols-1, combined by the domains' axpy.
  * birkhoff_factorize(G) returns P, a, Q, Q^-1 with G = P*diag(t^-a_1..t^-a_r)*Q
    and a_1 >= ... >= a_r, where P is unimodular over polynomials in 1/t and
    Q is unimodular over polynomials in t.  The exponent list is the splitting
    type of the transition matrix G and sum(a) = -(exponent of det G).  A
    monomial G (one nonzero c t^e per row, any rank) splits in closed form,
    every certificate checked entry by entry, det against sgn * prod c t^e.
  * RingMatrix.mul, witt's divided step and _substitute's composites are
    _products.  Over Z/p^m, when operands of ta and tb terms in all give
    ta tb >= PACK_PAIRS n k m (an n x k by k x m product), it multiplies by
    Kronecker substitution: each operand entry is packed once, through
    array in sys.byteorder, into an int of w-bit slots (w = 32 or 64),
    coefficient e in slot e - (lowest exponent); an output entry is the sum
    of its packed products shifted to its lowest exponent, times h when
    given, unpacked once and reduced mod p^m, zeros dropped, ascending.
    Slot bound, N = p^m: slot s of an entry sums f_u g_v, u + v = s, over
    its k pairs (f, g) of residues in [0, N-1].  In one pair u fixes v, so
    at most min(|f|, |g|) products land there, over all pairs at most
    min(ta, tb), each at most (N-1)^2: the slot holds at most
    B = (N-1)^2 min(ta, tb), and h multiplies B by at most |h| (N-1).  The
    divided step's derivative is the pair (1, dX/dt), counted in ta and tb.
    When B < 2^w no slot carries into the next, so the slots are the exact
    coefficients; B >= 2^64 (p^m may reach 2^64) takes poly_dot, as does
    F_{p^f}.
"""

import itertools
import random
import sys
from array import array

from .errors import (
    CertificateFailed, NoSolution, NonInvertible, NotDivisible, SearchBudgetExceeded,
)


# ---------------------------------------------------------------------------
# coefficient domains


class Zmod:
    """The ring Z/p^m with elements stored as least nonnegative residues."""

    def __init__(self, p, m=1):
        if p < 2 or m < 1:
            raise ValueError("need a prime p >= 2 and m >= 1")
        self.p = p
        self.m = m
        self.modulus = p ** m
        self.zero = 0
        self.one = 1 % self.modulus

    def __eq__(self, other):
        return isinstance(other, Zmod) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash(("Zmod", self.p, self.m))

    def __repr__(self):
        return "Zmod(%d, %d)" % (self.p, self.m)

    @property
    def is_field(self):
        return self.m == 1

    def coerce(self, n):
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def poly_add(self, f, g):
        """Sum of two coefficient dicts, one reduction per touched exponent."""
        out = dict(f)
        for e, c in g.items():
            s = (out.get(e, 0) + c) % self.modulus
            if s:
                out[e] = s
            else:
                del out[e]
        return out

    def poly_dot(self, pairs):
        """Sum of the products of (f, g) coefficient-dict pairs: plain int
        sums per exponent, each reduced once, zeros dropped."""
        sums = {}
        get = sums.get
        for f, g in pairs:
            g = g.items()
            for e1, c1 in f.items():
                for e2, c2 in g:
                    e = e1 + e2
                    sums[e] = get(e, 0) + c1 * c2
        out = {}
        for e, s in sums.items():
            s %= self.modulus
            if s:
                out[e] = s
        return out

    def axpy(self, x, f, y):
        """y += f x in place on sparse vectors {index: entry}: raw ints, one
        reduction per entry of x, zeros dropped."""
        mod = self.modulus
        get = y.get
        for j, a in x.items():
            s = (get(j, 0) + f * a) % mod
            if s:
                y[j] = s
            else:
                y.pop(j, None)

    def poly_derivative(self, f):
        """Coefficient dict of the t-derivative: raw ints, one reduction per
        coefficient, zeros dropped."""
        mod = self.modulus
        return {e - 1: v for e, c in f.items() if (v := c * e % mod)}

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NonInvertible("%d is not a unit mod %d^%d" % (a, self.p, self.m))
        return pow(a, -1, self.modulus)

    def is_nilpotent(self, a):
        return a % self.p == 0

    def valuation(self, a):
        """p-adic valuation of the residue; m for zero."""
        if a % self.modulus == 0:
            return self.m
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def coeff_frobenius(self, a):
        return a % self.modulus

    def shift_down(self, a, k, target):
        """Divide by p^k exactly: maps p^k * (Z/p^m) onto Z/p^(m-k)."""
        if target.p != self.p or target.m > self.m - k:
            raise ValueError("bad target ring for shift_down")
        a = a % self.modulus
        if a % (self.p ** k) != 0:
            raise NotDivisible("%d not divisible by %d^%d" % (a, self.p, k))
        return (a // (self.p ** k)) % target.modulus

    def reduce_to(self, target, a):
        if target.p != self.p or target.m > self.m:
            raise ValueError("bad target ring for reduce_to")
        return a % target.modulus

    def serialize(self, a):
        return a % self.modulus

    def elements(self):
        """Residues 0..modulus-1 in increasing order."""
        return iter(range(self.modulus))


def _list_poly_mulmod(a, b, p, modulus):
    """Multiply in F_p[x]/(x^f + modulus(x)), dense coefficient tuples."""
    f = len(modulus)
    prod = [0] * (2 * f - 1) if f > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(f):
                prod[k - f + i] = (prod[k - f + i] - c * modulus[i]) % p
    return tuple(prod[:f])


def _gf_pow(a, e, p, modulus):
    f = len(modulus)
    result = tuple(1 if i == 0 else 0 for i in range(f))
    base = a
    while e:
        if e & 1:
            result = _list_poly_mulmod(result, base, p, modulus)
        base = _list_poly_mulmod(base, base, p, modulus)
        e >>= 1
    return result


def _list_poly_gcd_is_one(a, b, p):
    """gcd test over F_p[x] on dense coefficient lists (lowest degree first)."""

    def norm(u):
        u = [c % p for c in u]
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = norm(a), norm(b)
    while b:
        # a mod b
        a = list(a)
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b) and a:
            c = (a[-1] * inv) % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            a = norm(a)
        a, b = b, a
    return len(a) == 1


def _find_irreducible(p, f):
    """Lexicographically least monic irreducible of degree f over F_p, the
    scan ordering coefficients from the top power down (x^2 + 1 for p=3)."""
    if f == 1:
        return (0,)

    def is_irreducible(mod):
        x = tuple(1 if i == 1 else 0 for i in range(f))
        if _gf_pow(x, p ** f, p, mod) != x:
            return False
        for q in set(_prime_factors(f)):
            d = f // q
            xd = _gf_pow(x, p ** d, p, mod)
            diff = [(xd[i] - x[i]) % p for i in range(f)]
            full = list(mod) + [1]
            if not _list_poly_gcd_is_one(full, diff, p):
                return False
        return True

    for idx in range(p ** f):
        digits = []
        k = idx
        for _ in range(f):
            digits.append(k % p)
            k //= p
        # most significant digit (slowest varying) sits on the top power, so
        # the coefficient tuple (m_0..m_{f-1}) is just the digits in order
        mod = tuple(digits)
        if is_irreducible(mod):
            return mod
    raise CertificateFailed("no irreducible modulus found", part="irreducible-modulus")


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """The field F_{p^f} presented as F_p[x]/(x^f + m_{f-1}x^{f-1}+...+m_0).

    modulus stores (m_0..m_{f-1}) of the lexicographically least irreducible
    monic polynomial (top coefficients compared first).  Elements are tuples
    (a_0..a_{f-1}) meaning sum a_i x^i.
    """

    def __init__(self, p, f):
        self.p = p
        self.f = f
        self.m = 1
        self.modulus = _find_irreducible(p, f)
        self.zero = tuple(0 for _ in range(f))
        self.one = tuple(1 if i == 0 else 0 for i in range(f))
        self.gen = tuple(1 if i == 1 else 0 for i in range(f)) if f > 1 else (1,)

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash(("GF", self.p, self.f, self.modulus))

    def __repr__(self):
        return "GF(%d, %d)" % (self.p, self.f)

    @property
    def is_field(self):
        return True

    def coerce(self, n):
        if isinstance(n, tuple):
            if len(n) != self.f:
                raise ValueError("wrong tuple length for GF element")
            return tuple(c % self.p for c in n)
        return tuple((n % self.p) if i == 0 else 0 for i in range(self.f))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return _list_poly_mulmod(a, b, self.p, self.modulus)

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def poly_add(self, f, g):
        """Zmod.poly_add through the field's own add."""
        out = dict(f)
        for e, c in g.items():
            s = self.add(out.get(e, self.zero), c)
            if s == self.zero:
                del out[e]
            else:
                out[e] = s
        return out

    def poly_dot(self, pairs):
        """Zmod.poly_dot through the field's own add and mul."""
        out = {}
        for f, g in pairs:
            for e1, c1 in f.items():
                for e2, c2 in g.items():
                    e = e1 + e2
                    s = self.add(out.get(e, self.zero), self.mul(c1, c2))
                    if s == self.zero:
                        del out[e]
                    else:
                        out[e] = s
        return out

    def axpy(self, x, f, y):
        """Zmod.axpy through the field's own add and mul."""
        for j, a in x.items():
            y[j] = self.add(y.get(j, self.zero), self.mul(f, a))
            if y[j] == self.zero:
                del y[j]

    def poly_derivative(self, f):
        """Zmod.poly_derivative through the field's own mul."""
        out = {e - 1: self.mul(c, self.coerce(e)) for e, c in f.items()}
        return {e: v for e, v in out.items() if v != self.zero}

    def is_unit(self, a):
        return any(x % self.p for x in a)

    def is_nilpotent(self, a):
        return not self.is_unit(a)

    def inv(self, a):
        if not self.is_unit(a):
            raise NonInvertible("zero has no inverse in %r" % self)
        return _gf_pow(a, self.p ** self.f - 2, self.p, self.modulus)

    def pow(self, a, e):
        if e < 0:
            return _gf_pow(self.inv(a), -e, self.p, self.modulus)
        return _gf_pow(a, e, self.p, self.modulus)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def coeff_frobenius(self, a):
        return self.frobenius(a)

    def elements(self):
        for idx in range(self.p ** self.f):
            coeffs = []
            k = idx
            for _ in range(self.f):
                coeffs.append(k % self.p)
                k //= self.p
            yield tuple(coeffs)

    def serialize(self, a):
        return list(a)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Laurent polynomial over a coefficient domain, canonical sparse form."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain, coeffs=None):
        self.domain = domain
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                c = domain.coerce(c)
                if c != domain.zero:
                    cleaned[e] = c
        self.coeffs = cleaned

    @staticmethod
    def _trusted(domain, coeffs):
        """Wrap a dict that already holds reduced, nonzero coefficients."""
        out = object.__new__(LaurentPoly)
        out.domain = domain
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, domain):
        return cls._trusted(domain, {})

    @classmethod
    def const(cls, domain, c):
        return cls(domain, {0: c})

    @classmethod
    def one(cls, domain):
        return cls._trusted(domain, {0: domain.one})

    @classmethod
    def var(cls, domain, e=1):
        return cls(domain, {e: domain.one})

    @classmethod
    def monomial(cls, domain, c, e):
        return cls(domain, {e: c})

    def is_zero(self):
        return not self.coeffs

    def is_polynomial(self):
        return all(e >= 0 for e in self.coeffs)

    def is_constant(self):
        return all(e == 0 for e in self.coeffs)

    def constant_term(self):
        return self.coeffs.get(0, self.domain.zero)

    def degree(self):
        """Max exponent carrying a nonzero coefficient; None for zero."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        """Min exponent carrying a nonzero coefficient; None for zero."""
        return min(self.coeffs) if self.coeffs else None

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.domain == other.domain
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.domain, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            "%r*t^%d" % (self.coeffs[e], e) for e in sorted(self.coeffs)
        )

    def add(self, other):
        d = self.domain
        return LaurentPoly._trusted(d, d.poly_add(self.coeffs, other.coeffs))

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        d = self.domain
        return LaurentPoly._trusted(d, {e: d.neg(c) for e, c in self.coeffs.items()})

    def mul(self, other):
        d = self.domain
        if not (self.coeffs and other.coeffs):
            return LaurentPoly._trusted(d, {})
        return LaurentPoly._trusted(d, d.poly_dot(((self.coeffs, other.coeffs),)))

    def scale(self, c):
        d = self.domain
        out = {}
        d.axpy(self.coeffs, d.coerce(c), out)
        return LaurentPoly._trusted(d, out)

    def shift(self, k):
        d = self.domain
        return LaurentPoly._trusted(d, {e + k: c for e, c in self.coeffs.items()})

    def derivative(self):
        d = self.domain
        return LaurentPoly._trusted(d, d.poly_derivative(self.coeffs))

    def rescale(self, k):
        """self(t^k) for a nonzero integer k: the exponent map e -> k e."""
        return LaurentPoly._trusted(self.domain, {k * e: c for e, c in self.coeffs.items()})

    def coeff_map(self, fn):
        return LaurentPoly(self.domain, {e: fn(c) for e, c in self.coeffs.items()})

    def coeff_frobenius(self):
        return self.coeff_map(self.domain.coeff_frobenius)

    def is_unit(self):
        """Unit of the Laurent ring: a unique unit coefficient, the rest
        nilpotent (for a field: a single monomial)."""
        d = self.domain
        unit_slots = [e for e, c in self.coeffs.items() if d.is_unit(c)]
        if len(unit_slots) != 1:
            return False
        if d.is_field:
            return len(self.coeffs) == 1
        return all(
            d.is_nilpotent(c) for e, c in self.coeffs.items() if e != unit_slots[0]
        )

    def inverse_unit(self):
        d = self.domain
        unit_slots = [e for e, c in self.coeffs.items() if d.is_unit(c)]
        if len(unit_slots) != 1:
            raise NonInvertible("not a unit Laurent polynomial: %r" % self)
        e0 = unit_slots[0]
        lead = LaurentPoly.monomial(d, d.inv(self.coeffs[e0]), -e0)
        rest = self.mul(lead)
        tail = rest.sub(LaurentPoly.one(d))
        if tail.is_zero():
            return lead
        if d.is_field:
            raise NonInvertible("not a unit Laurent polynomial: %r" % self)
        acc = LaurentPoly.one(d)
        term = LaurentPoly.one(d)
        for _ in range(getattr(d, "m", 1)):
            term = term.mul(tail).neg()
            if term.is_zero():
                break
            acc = acc.add(term)
        inv = lead.mul(acc)
        if not inv.mul(self).sub(LaurentPoly.one(d)).is_zero():
            raise NonInvertible("unit inversion failed for %r" % self)
        return inv

    def p_divide(self, k, target):
        """Divide every coefficient by p^k exactly, landing in target."""
        d = self.domain
        return LaurentPoly(
            target, {e: d.shift_down(c, k, target) for e, c in self.coeffs.items()}
        )

    def reduce_to(self, target):
        d = self.domain
        return LaurentPoly(
            target, {e: d.reduce_to(target, c) for e, c in self.coeffs.items()}
        )

    def lift_to(self, target):
        """Reinterpret least-residue coefficients in a larger ring."""
        return LaurentPoly(target, dict(self.coeffs))


# packing gate: coefficient pairs per output entry, on average (see above)
PACK_PAIRS = 64
_SLOT_CODES = {array(code).itemsize: code for code in "QLI"}
_BIG_ENDIAN = sys.byteorder == "big"
_chain = itertools.chain.from_iterable


def _pack(f, code):
    """(lowest exponent e0, int) of a nonzero coefficient dict, coefficient
    e in slot e - e0, slots the width of the array typecode."""
    if len(f) == 1:
        (term,) = f.items()
        return term
    lo = min(f)
    dense = [0] * (max(f) - lo + 1)
    for e, c in f.items():
        dense[e - lo] = c
    dense = array(code, dense)
    if _BIG_ENDIAN:
        dense.byteswap()
    return lo, int.from_bytes(dense.tobytes(), "little")


def _products(d, rows, cols, h=None):
    """Rows of the Laurent polynomials h * sum_k f_k g_k (h = 1 when None)
    of each sparse row [(k, f_k)], f_k nonzero, against each column
    [g_0, g_1, ...] of coefficient dicts: on packed slots when the module
    docstring's gate and slot bound allow, else one poly_dot an entry."""
    zero, trusted = LaurentPoly._trusted(d, {}), LaurentPoly._trusted
    size = 0
    if cols and isinstance(d, Zmod) and h != {}:
        ta = sum([len(f) for row in rows for _, f in row])
        tb = sum(map(len, _chain(cols)))
        if ta * tb >= PACK_PAIRS * len(rows) * len(cols) * len(cols[0]):
            bound = (d.modulus - 1) ** 2 * min(ta, tb)
            if h is not None:
                bound *= (d.modulus - 1) * len(h)
            size = 4 if bound >> 32 == 0 else 8 if bound >> 64 == 0 else 0
    if not size:
        dot, out = d.poly_dot, []
        for row in rows:
            new = []
            for col in cols:
                pairs = [(f, col[k]) for k, f in row if col[k]]
                if h is not None:
                    pairs = ((dot(pairs), h),)
                new.append(trusted(d, dot(pairs)) if pairs else zero)
            out.append(new)
        return out
    code, bits, mod = _SLOT_CODES[size], 8 * size, d.modulus
    lh, ph = _pack(h, code) if h else (0, 1)
    cols = [[_pack(g, code) if g else None for g in col] for col in cols]
    out = []
    for row in rows:
        row = [(k, _pack(f, code)) for k, f in row]
        new = []
        for col in cols:
            terms = [(la + col[k][0], pa * col[k][1]) for k, (la, pa) in row if col[k]]
            if not terms:
                new.append(zero)
                continue
            lo = min(e for e, _ in terms)
            acc = sum([p << bits * (e - lo) for e, p in terms]) * ph
            slots = array(code, acc.to_bytes(-(-acc.bit_length() // bits) * size, "little"))
            if _BIG_ENDIAN:
                slots.byteswap()
            new.append(trusted(d, {e: c % mod for e, c in enumerate(slots, lo + lh) if c % mod}))
        out.append(new)
    return out


def _substitute(polys, image):
    """Compose each polynomial with image through one table of the powers
    image^e, built by repeated multiplication out to the extreme exponents
    (by the inverse unit for negative e); the composites sum_e c_e image^e
    are one _products of the coefficient rows against the table."""
    d = image.domain
    exps = [e for f in polys for e in f.coeffs]
    table = {0: {0: d.one}}
    for sign, top in ((1, max(exps, default=0)), (-1, -min(exps, default=0))):
        if top > 0:
            step = (image if sign > 0 else image.inverse_unit()).coeffs
            power = table[0]
            for e in range(1, top + 1):
                power = table[sign * e] = d.poly_dot(((power, step),))
    low = min(table)
    rows = [[(e - low, {0: c}) for e, c in f.coeffs.items()] for f in polys]
    column = [table[e] for e in range(low, max(table) + 1)]
    return [new[0] for new in _products(d, rows, [column])]


def random_poly(rng, ring, max_deg):
    """Uniform residues mod ring.modulus as the coefficients of 1 up to
    t^max_deg, drawn lowest exponent first."""
    return LaurentPoly(ring, {e: rng.randrange(ring.modulus) for e in range(max_deg + 1)})


# ---------------------------------------------------------------------------
# matrices


def block_starts(sizes):
    """Offsets of consecutive blocks of the given sizes, with the total size
    last: block I spans [starts[I], starts[I + 1])."""
    starts = [0]
    for n in sizes:
        starts.append(starts[-1] + n)
    return starts


class RingMatrix:
    """Dense matrix with LaurentPoly entries over a shared domain."""

    __slots__ = ("domain", "rows", "nrows", "ncols")

    def __init__(self, domain, rows):
        self.domain = domain
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @staticmethod
    def _trusted(domain, rows):
        """Wrap a fresh rectangular list of rows without copying it."""
        out = object.__new__(RingMatrix)
        out.domain, out.rows = domain, rows
        out.nrows, out.ncols = len(rows), len(rows[0]) if rows else 0
        return out

    @classmethod
    def identity(cls, domain, n):
        one = LaurentPoly.one(domain)
        zero = LaurentPoly.zero(domain)
        return cls._trusted(
            domain, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, domain, nrows, ncols):
        zero = LaurentPoly.zero(domain)
        return cls._trusted(domain, [[zero for _ in range(ncols)] for _ in range(nrows)])

    @classmethod
    def diagonal(cls, domain, entries):
        n = len(entries)
        zero = LaurentPoly.zero(domain)
        return cls._trusted(
            domain,
            [[entries[i] if i == j else zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def from_blocks(cls, domain, row_sizes, col_sizes, blocks):
        """Matrix cut into blocks of the given row and column sizes; blocks
        maps (I, J) to the block there, and absent blocks are zero."""
        rs, cs = block_starts(row_sizes), block_starts(col_sizes)
        M = cls.zeros(domain, rs[-1], cs[-1])
        for (I, J), B in blocks.items():
            if B.nrows != row_sizes[I] or (B.nrows and B.ncols != col_sizes[J]):
                raise ValueError(
                    "block (%d, %d) is %dx%d, the layout wants %dx%d"
                    % (I, J, B.nrows, B.ncols, row_sizes[I], col_sizes[J])
                )
            for i, row in enumerate(B.rows):
                M.rows[rs[I] + i][cs[J] : cs[J + 1]] = row
        return M

    @classmethod
    def block_diagonal(cls, domain, blocks):
        """The given blocks along the diagonal, zero elsewhere."""
        return cls.from_blocks(
            domain,
            [B.nrows for B in blocks],
            [B.ncols for B in blocks],
            {(I, I): B for I, B in enumerate(blocks)},
        )

    def block(self, sizes, I, J):
        """Block (I, J) of the square layout cut by sizes."""
        starts = block_starts(sizes)
        return RingMatrix._trusted(
            self.domain,
            [
                row[starts[J] : starts[J + 1]]
                for row in self.rows[starts[I] : starts[I + 1]]
            ],
        )

    def is_block_lower(self, sizes, k):
        """Every block (I, J) with J > I + k is zero."""
        starts = block_starts(sizes)
        return all(
            e.is_zero()
            for I in range(len(sizes))
            for row in self.rows[starts[I] : starts[I + 1]]
            for e in row[starts[min(I + k + 1, len(sizes))] :]
        )

    def entry(self, i, j):
        return self.rows[i][j]

    def copy(self):
        return RingMatrix(self.domain, [list(r) for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.domain == other.domain
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        return "RingMatrix(%dx%d over %r)" % (self.nrows, self.ncols, self.domain)

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def add(self, other):
        return RingMatrix._trusted(
            self.domain,
            [
                [self.rows[i][j].add(other.rows[i][j]) for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
        )

    def sub(self, other):
        return RingMatrix._trusted(
            self.domain,
            [
                [self.rows[i][j].sub(other.rows[i][j]) for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
        )

    def neg(self):
        return self.map_entries(lambda e: e.neg())

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %r * %r" % (self, other))
        rows = [[(k, a.coeffs) for k, a in enumerate(row) if a.coeffs] for row in self.rows]
        cols = [[e.coeffs for e in col] for col in zip(*other.rows)]
        return RingMatrix._trusted(self.domain, _products(self.domain, rows, cols))

    def scale(self, poly):
        return self.map_entries(lambda e: e.mul(poly))

    def scale_const(self, c):
        return self.map_entries(lambda e: e.scale(c))

    def map_entries(self, fn):
        return RingMatrix._trusted(self.domain, [[fn(e) for e in r] for r in self.rows])

    def substitute(self, image):
        """Every entry composed with image, sharing one table of its powers."""
        entries = iter(_substitute([e for row in self.rows for e in row], image))
        return self.map_entries(lambda e: next(entries))

    def rescale(self, k):
        return self.map_entries(lambda e: e.rescale(k))

    def derivative(self):
        return self.map_entries(lambda e: e.derivative())

    def coeff_frobenius(self):
        return self.map_entries(lambda e: e.coeff_frobenius())

    def reduce_to(self, target):
        return RingMatrix._trusted(
            target, [[e.reduce_to(target) for e in row] for row in self.rows]
        )

    def lift_to(self, target):
        return RingMatrix._trusted(
            target, [[e.lift_to(target) for e in row] for row in self.rows]
        )

    def p_divide(self, k, target):
        return RingMatrix._trusted(
            target, [[e.p_divide(k, target) for e in row] for row in self.rows]
        )

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("hstack height mismatch")
        return RingMatrix(
            self.domain, [self.rows[i] + other.rows[i] for i in range(self.nrows)]
        )

    def submatrix(self, row_idx, col_idx):
        return RingMatrix._trusted(
            self.domain, [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    def columns(self, col_idx):
        return self.submatrix(range(self.nrows), list(col_idx))

    def _minors(self):
        """minor(rows, cols) over one memo table seeded with the entries as
        1 x 1 minors; it takes increasing index tuples of equal length and
        expands along the first row, so det and the cofactors share work."""
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        d, rows, one = self.domain, self.rows, LaurentPoly.one(self.domain)
        memo = {((i,), (j,)): e for i, row in enumerate(rows) for j, e in enumerate(row)}
        full = tuple(range(self.nrows))

        def minor(rs=full, cs=full):  # minor() is the determinant
            if (rs, cs) not in memo:
                pairs = []
                for pos, j in enumerate(cs):
                    a = rows[rs[0]][j]
                    if a.coeffs:
                        sub = minor(rs[1:], cs[:pos] + cs[pos + 1:])
                        pairs.append(((a.neg() if pos % 2 else a).coeffs, sub.coeffs))
                memo[rs, cs] = LaurentPoly._trusted(d, d.poly_dot(pairs)) if cs else one
            return memo[rs, cs]

        return minor

    def det(self):
        return self._minors()()

    def adjugate(self):
        return self._adjugate(self._minors())

    def _adjugate(self, minor):
        full = tuple(range(self.nrows))

        def cofactor(i, j):
            c = minor(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
            return c.neg() if (i + j) % 2 else c

        return self._trusted(self.domain, [[cofactor(i, j) for i in full] for j in full])

    def is_unimodular(self):
        """Square with a unit constant determinant (the 0 x 0 matrix
        included)."""
        if self.nrows != self.ncols:
            return False
        det = self.det()
        return det.is_constant() and self.domain.is_unit(det.constant_term())

    def inverse(self):
        minor = self._minors()
        return self._inverse(minor(), minor)

    def _inverse(self, det, minor):
        if not det.is_unit():
            raise NonInvertible("matrix determinant %r is not a unit" % det)
        dinv = det.inverse_unit()
        return self._adjugate(minor).map_entries(lambda e: e.mul(dinv))

    def is_polynomial(self):
        return all(e.is_polynomial() for row in self.rows for e in row)

    def min_valuation(self):
        vals = [e.valuation() for row in self.rows for e in row if not e.is_zero()]
        return min(vals) if vals else None

    def shift_all(self, k):
        return self.map_entries(lambda e: e.shift(k))


# ---------------------------------------------------------------------------
# polynomial matrix normal forms over a field (F_p or F_{p^f})


def poly_divmod(a, b):
    """Univariate division with remainder over a coefficient field."""
    d = a.domain
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q = LaurentPoly.zero(d)
    r = a
    db = b.degree()
    lb_inv = d.inv(b.coeffs[db])
    while not r.is_zero() and r.degree() >= db:
        dr = r.degree()
        term = LaurentPoly.monomial(d, d.mul(r.coeffs[dr], lb_inv), dr - db)
        q = q.add(term)
        r = r.sub(term.mul(b))
    return q, r


class SmithForm:
    """L * M * R = D over F[t]: L, R unimodular polynomial matrices (the
    accumulated row and column operations), Linv = L^-1; D diagonal with
    monic invariant factors, the first `rank` of them nonzero."""

    def __init__(self, L, Linv, D, R, rank):
        self.L = L
        self.Linv = Linv
        self.D = D
        self.R = R
        self.rank = rank

    def invariant_factors(self):
        size = min(self.D.nrows, self.D.ncols)
        return [self.D.rows[i][i] for i in range(size)]


def smith_form_poly(M):
    """Smith normal form over F[t].  L, R and L^-1 are accumulated on
    identities as the elimination applies them; L^-1 takes each row
    operation's inverse as a column operation."""
    d = M.domain
    if not d.is_field:
        raise ValueError("smith_form_poly needs a field coefficient domain")
    if not M.is_polynomial():
        raise ValueError("smith_form_poly needs polynomial entries")
    A = M.copy()
    n, m = A.nrows, A.ncols
    Lacc = RingMatrix.identity(d, n)   # row ops applied to identity: A = Lacc*M*Racc
    Lcols = RingMatrix.identity(d, n).rows   # the columns of Lacc^-1
    Racc = RingMatrix.identity(d, m)

    def row_combine(i, j, q):
        # row_i -= q * row_j; on Lacc^-1, col_j += q * col_i
        A.rows[i] = [A.rows[i][c].sub(q.mul(A.rows[j][c])) for c in range(m)]
        Lacc.rows[i] = [Lacc.rows[i][c].sub(q.mul(Lacc.rows[j][c])) for c in range(n)]
        Lcols[j] = [a.add(q.mul(b)) for a, b in zip(Lcols[j], Lcols[i])]

    def col_combine(j, k, q):
        # col_j -= q * col_k
        for r in range(n):
            A.rows[r][j] = A.rows[r][j].sub(q.mul(A.rows[r][k]))
        for r in range(m):
            Racc.rows[r][j] = Racc.rows[r][j].sub(q.mul(Racc.rows[r][k]))

    def row_swap(i, j):
        A.rows[i], A.rows[j] = A.rows[j], A.rows[i]
        Lacc.rows[i], Lacc.rows[j] = Lacc.rows[j], Lacc.rows[i]
        Lcols[i], Lcols[j] = Lcols[j], Lcols[i]

    def col_swap(i, j):
        for r in range(n):
            A.rows[r][i], A.rows[r][j] = A.rows[r][j], A.rows[r][i]
        for r in range(m):
            Racc.rows[r][i], Racc.rows[r][j] = Racc.rows[r][j], Racc.rows[r][i]

    def row_divide(i, lead):
        # row_i /= lead; on Lacc^-1, col_i *= lead
        c = d.inv(lead)
        A.rows[i] = [e.scale(c) for e in A.rows[i]]
        Lacc.rows[i] = [e.scale(c) for e in Lacc.rows[i]]
        Lcols[i] = [e.scale(lead) for e in Lcols[i]]

    size = min(n, m)
    guard = 0
    while True:
        guard += 1
        if guard > 2000:
            raise CertificateFailed(
                "smith form failed to stabilize", part="smith-stabilization"
            )
        k = 0
        while k < size:
            best = None
            for i in range(k, n):
                for j in range(k, m):
                    e = A.rows[i][j]
                    if not e.is_zero() and (best is None or e.degree() < best[2]):
                        best = (i, j, e.degree())
            if best is None:
                break
            bi, bj, _ = best
            if bi != k:
                row_swap(k, bi)
            if bj != k:
                col_swap(k, bj)
            while True:
                pivot = A.rows[k][k]
                moved = False
                for i in range(k + 1, n):
                    e = A.rows[i][k]
                    if e.is_zero():
                        continue
                    q, r = poly_divmod(e, pivot)
                    row_combine(i, k, q)
                    if not r.is_zero():
                        row_swap(k, i)
                        moved = True
                        break
                if moved:
                    continue
                for j in range(k + 1, m):
                    e = A.rows[k][j]
                    if e.is_zero():
                        continue
                    q, r = poly_divmod(e, pivot)
                    col_combine(j, k, q)
                    if not r.is_zero():
                        col_swap(k, j)
                        moved = True
                        break
                if not moved:
                    break
            lead = A.rows[k][k].coeffs[A.rows[k][k].degree()]
            if lead != d.one:
                row_divide(k, lead)
            k += 1
        # enforce the divisibility chain
        fixed = True
        for k in range(size - 1):
            a = A.rows[k][k]
            b = A.rows[k + 1][k + 1]
            if a.is_zero() or b.is_zero():
                continue
            _, r = poly_divmod(b, a)
            if not r.is_zero():
                col_combine(k, k + 1, LaurentPoly.one(d).neg())
                fixed = False
                break
        if fixed:
            break

    rank = sum(1 for k in range(size) if not A.rows[k][k].is_zero())
    Linv = RingMatrix._trusted(d, [list(row) for row in zip(*Lcols)])
    return SmithForm(Lacc, Linv, A, Racc, rank)


def poly_solve(M, v):
    """Solve M x = v over F[t] (v a matrix of columns); None if unsolvable.
    A saturated M has constant invariant factors, so its solve over
    F[t, 1/t] of a v with poles is this solve of t^k v, shifted back by k."""
    sf = smith_form_poly(M)
    w = sf.L.mul(v)
    d = M.domain
    size = min(M.nrows, M.ncols)
    y = RingMatrix.zeros(d, M.ncols, v.ncols)
    for i in range(M.nrows):
        di = sf.D.rows[i][i] if i < size else LaurentPoly.zero(d)
        for j in range(v.ncols):
            wi = w.rows[i][j]
            if di.is_zero():
                if not wi.is_zero():
                    return None
                continue
            if wi.is_zero():
                continue
            q, r = poly_divmod(wi, di)
            if not r.is_zero():
                return None
            y.rows[i][j] = q
    return sf.R.mul(y)


def poly_kernel(M):
    """Basis (columns) of the kernel of M over F[t]."""
    sf = smith_form_poly(M)
    size = min(M.nrows, M.ncols)
    return sf.R.columns(
        j for j in range(M.ncols) if j >= size or sf.D.rows[j][j].is_zero()
    )


def saturation_basis(M):
    """Basis of the saturation of the column span of M in the ambient free
    F[t]-module: the first `rank` columns of L^-1 from the Smith form."""
    sf = smith_form_poly(M)
    return sf.Linv.columns(range(sf.rank))


def unimodular_completion(B):
    """Complete a saturated polynomial basis B to a square unimodular matrix
    [B | C] over F[t]."""
    sf = smith_form_poly(B)
    for i in range(B.ncols):
        e = sf.D.rows[i][i]
        if e.is_zero() or e.degree() != 0:
            raise NonInvertible("basis not saturated; invariant factor %r" % e)
    extra = sf.Linv.columns(range(B.ncols, B.nrows))
    return B.hstack(extra)


# ---------------------------------------------------------------------------
# constant linear algebra over Z/p^m and fields


class LinearSolution:
    """Particular solution plus a kernel basis, each a sparse vector
    {column: entry} over columns 0..ncols-1 that stores no zero."""

    def __init__(self, particular, kernel):
        self.particular = particular
        self.kernel = kernel


class WindowSystem:
    """Linear equations whose unknowns are the coefficients of a list of
    Laurent matrices on monomial windows.

    windows[b][i][j] lists the exponents entry (i, j) of matrix b may carry;
    unknown (b, i, j, e) is the coefficient of t^e there, and unknowns are
    numbered block by block, row-major, exponents in window order.
    Equations are named by sortable keys; each is one sparse row {column:
    entry}, accumulated in the domain with the right-hand side at column
    ncols, and rows() lists them in sorted key order.  The add_* matrix
    methods write whole products of X_b entrywise, equation
    prefix + (i, j, e) taking the t^e coefficient of entry (i, j).
    """

    def __init__(self, domain, windows):
        self.domain = domain
        self.windows = windows
        self.index = {}
        for b, block in enumerate(windows):
            for i, row in enumerate(block):
                for j, exps in enumerate(row):
                    for e in exps:
                        self.index[(b, i, j, e)] = len(self.index)
        self.coeffs = {}

    @classmethod
    def square(cls, domain, sizes, exps):
        """Square blocks of the given sizes, every entry on one window."""
        return cls(domain, [[[exps] * n for _ in range(n)] for n in sizes])

    @property
    def ncols(self):
        return len(self.index)

    def add(self, eq, unknown, coef):
        """Add coef times unknown (b, i, j, e) to the left side of eq."""
        d = self.domain
        coef = d.coerce(coef)
        if coef != d.zero:
            d.axpy({self.index[unknown]: coef}, d.one, self.coeffs.setdefault(eq, {}))

    def add_rhs(self, eq, value):
        """Add value to the right side of eq."""
        d = self.domain
        d.axpy({self.ncols: d.coerce(value)}, d.one, self.coeffs.setdefault(eq, {}))

    def add_derivative(self, prefix, b, coef=1):
        """Add coef dX_b: its (i, j) entry's t^e coefficient goes to the left
        side of equation prefix + (i, j, e)."""
        d = self.domain
        coef = d.coerce(coef)
        for i, row in enumerate(self.windows[b]):
            for j, exps in enumerate(row):
                for e in exps:
                    c = d.mul(coef, d.coerce(e))
                    self.add(prefix + (i, j, e - 1), (b, i, j, e), c)

    def add_product(self, prefix, b, left=None, right=None, coef=1):
        """Add coef left X_b, or coef X_b right, to the left sides of the
        equations prefix + (i, j, e), keyed like add_derivative."""
        if (left is None) == (right is None):
            raise ValueError("give exactly one of left and right")
        d = self.domain
        coef = d.coerce(coef)
        for i, row in enumerate(self.windows[b]):
            for j, exps in enumerate(row):
                if left is not None:
                    # X_b[i][j] meets left[r][i] in entry (r, j)
                    terms = [((r, j), left.rows[r][i]) for r in range(left.nrows)]
                else:
                    terms = [((i, k), right.rows[j][k]) for k in range(right.ncols)]
                for (r, k), f in terms:
                    for eb, cb in f.coeffs.items():
                        c = d.mul(coef, cb)
                        for e in exps:
                            self.add(prefix + (r, k, e + eb), (b, i, j, e), c)

    def add_rhs_matrix(self, prefix, M, coef=1):
        """Add coef M to the right sides, entry (i, j) at t^e going to
        equation prefix + (i, j, e)."""
        d = self.domain
        coef = d.coerce(coef)
        for i, row in enumerate(M.rows):
            for j, f in enumerate(row):
                for e, c in f.coeffs.items():
                    self.add_rhs(prefix + (i, j, e), d.mul(coef, c))

    def rows(self):
        """The equations' sparse rows, in sorted key order."""
        return [self.coeffs[key] for key in sorted(self.coeffs)]

    def matrices(self, vec):
        """The unknown matrices with the coefficients of a sparse solution
        vector."""
        d = self.domain
        get = vec.get
        out = []
        for b, block in enumerate(self.windows):
            out.append(
                RingMatrix(
                    d,
                    [
                        [
                            LaurentPoly(
                                d, {e: get(self.index[(b, i, j, e)], d.zero) for e in exps}
                            )
                            for j, exps in enumerate(row)
                        ]
                        for i, row in enumerate(block)
                    ],
                )
            )
        return out


def _pivot_quotient(a, piv, part):
    """a / piv for a pivot p^val of least valuation in its block: exact."""
    if a % piv:
        raise CertificateFailed("pivot valuation violated", part=part)
    return a // piv


def solve_linear_mod(rows, domain, ncols):
    """Solve a sparse system over Z/p^m or F_{p^f} by diagonalization.

    rows: list of dicts {column: entry} of reduced nonzero entries, the
    right-hand side at column ncols (absent when zero); each row is copied,
    never changed.  Returns a LinearSolution with a particular solution and
    a kernel basis generating all solutions; raises NoSolution when none
    exists.

    Each step pivots on the first row holding a unit, at its leftmost unit;
    failing that (only Z/p^m with m >= 2 has nonzero non-units) on an entry
    of least p-adic valuation, first in row-major order.  Row operations
    clear the pivot column below the pivot; column operations clear the
    pivot row and are recorded in a transform x = C y whose columns are
    read off as kernel vectors.  The columns of C are sparse dicts too, and
    the domain's axpy, which drops the zeros it makes, does every row and
    column operation: a step touches no zero entry.
    """
    d = domain
    zero, is_unit, axpy = d.zero, d.is_unit, d.axpy
    M = [dict(row) for row in rows]
    n, m = len(M), ncols
    C = [{j: d.one} for j in range(m)]

    diag = []
    start = 0  # rows k..start-1 hold no unit, nor will they: non-units are an ideal
    for k in range(min(n, m)):
        best = None
        for i in range(max(k, start), n):
            units = [j for j, a in M[i].items() if j < m and is_unit(a)]
            if units:
                best = (0, i, min(units))
                start = i + 1
                break
        else:
            start = n
        if best is None and not d.is_field:
            for i in range(k, n):
                for j, a in M[i].items():
                    if j < m:
                        cand = (d.valuation(a), i, j)
                        if best is None or cand < best:
                            best = cand
                if best is not None and best[0] == 1:
                    break  # the least valuation of a nonzero non-unit
        if best is None:
            break
        val, bi, bj = best
        M[k], M[bi] = M[bi], M[k]
        if bj != k:
            for row in M[k:]:
                a, b = row.pop(k, zero), row.pop(bj, zero)
                row.update((j, x) for j, x in ((k, b), (bj, a)) if x != zero)
            C[k], C[bj] = C[bj], C[k]
        # normalize the pivot to p^val
        piv = d.p ** val
        uinv = d.inv(M[k][k] // piv if val else M[k][k])
        pivot_row = M[k] = {j: d.mul(uinv, x) for j, x in M[k].items()}
        # rows below the pivot hold no entry left of column k
        for row in M[k + 1 :]:
            a = row.get(k)
            if a is not None:
                f = _pivot_quotient(a, piv, "pivot-column") if val else a
                axpy(pivot_row, d.neg(f), row)
        for j, a in pivot_row.items():
            if k < j < m:
                f = _pivot_quotient(a, piv, "pivot-row") if val else a
                axpy(C[k], d.neg(f), C[j])
        diag.append(val)

    # solve diag(p^val) y = rhs and map back through x = C y
    particular, kernel = {}, []
    for i, val in enumerate(diag):
        y = M[i].get(m, zero)
        if val:
            piv = d.p ** val
            if y % piv:
                raise NoSolution("no solution: rhs has valuation below pivot")
            y //= piv
            kernel.append({})
            axpy(C[i], d.modulus // piv, kernel[-1])
        if y != zero:
            axpy(C[i], y, particular)
    if any(m in M[i] for i in range(len(diag), n)):
        raise NoSolution("no solution: inconsistent zero row")
    return LinearSolution(particular, kernel + C[len(diag) :])


def unit_search(domain, kernel, check, budget):
    """The first combination of the kernel vectors that check accepts; check
    accepts units only, and a unit stays one modulo the nilradical, so a
    vector of nilpotent entries is never checked and the coefficients are
    residues: 0..p-1 over Z/p^m, every element of a field.  Each generator
    is tried in order.  Then NoSolution proves that none passes when every
    generator is nilpotent, or after every residue combination when they
    fit in the budget left (zero last); otherwise random.Random(0) draws
    one residue per generator until the budget is spent, and it raises
    SearchBudgetExceeded.  Both errors' bounds name the stage, the
    candidates tried and the kernel size; a negative budget is refused."""
    if budget < 0:
        raise ValueError("a search budget must be non-negative")
    d, k = domain, len(kernel)
    residues = list(d.elements()) if d.is_field else list(range(d.p))
    if all(d.is_nilpotent(c) for vec in kernel for c in vec.values()):
        combos, stage = (), "kernel"
    elif len(residues) ** k <= budget - k:
        combos, stage = itertools.product(residues[1:] + residues[:1], repeat=k), "enumerate"
    else:
        rng = random.Random(0)
        draw = lambda: [residues[rng.randrange(len(residues))] for _ in kernel]
        combos, stage = iter(draw, None), "random"

    def combine(combo):
        vec = {}
        for g, c in zip(kernel, combo):
            d.axpy(g, c, vec)
        return vec

    tried = 0
    for vec in itertools.chain(kernel, map(combine, combos)):
        if tried == budget:
            error = SearchBudgetExceeded
            break
        tried += 1
        if not all(d.is_nilpotent(c) for c in vec.values()) and check(vec):
            return vec
    else:
        error = NoSolution
    bounds = {"stage": stage if tried > k else "kernel", "tried": tried, "kernel": k}
    raise error("no unit among %d candidates" % tried, bounds=bounds)


# ---------------------------------------------------------------------------
# Birkhoff factorization over a field (Laurent matrices)


class BirkhoffFactorization:
    """G = P * diag(t^-a_1..t^-a_r) * Q, exponents descending; P unimodular
    over polynomials in 1/t, Q unimodular over polynomials in t, Qinv = Q^-1."""

    def __init__(self, P, exponents, Q, Qinv, domain):
        self.P = P
        self.exponents = exponents
        self.Q = Q
        self.Qinv = Qinv
        self.domain = domain

    def middle(self):
        d = self.domain
        return RingMatrix.diagonal(d, [LaurentPoly.var(d, -a) for a in self.exponents])

    def verify(self, G):
        return self.P.mul(self.middle()).mul(self.Q) == G


def _is_poly_in_inverse(M):
    return all(e.is_zero() or e.degree() <= 0 for row in M.rows for e in row)


def _monomial_split(G):
    """For G with one nonzero entry in every row: the column of each row's
    entry, and the rows in the order of P's columns (ascending valuation,
    ties in row order); None for any other G."""
    cols, vals = [], []
    for row in G.rows:
        hit = [j for j, e in enumerate(row) if e.coeffs]
        if len(hit) != 1:
            return None
        cols += hit
        vals.append(min(row[hit[0]].coeffs))
    return cols, sorted(range(len(cols)), key=vals.__getitem__)


def _closed_form(G, det, cols, order):
    """The split of a monomial G read off _monomial_split's cols and order,
    P_ik = 1 where i = order[k], certified on scalars: order and cols are
    permutations, so P is a permutation matrix (over F[1/t], det +-1) and
    G's columns form a permutation pi; row i of G is its entry c t^e alone,
    so it is t^e times row k of Q (G = P D Q); Q's entry c is constant with
    c c^-1 = 1 (Q Qinv = I); det is sgn(pi) prod c t^(sum e)."""
    d, n, r = G.domain, G.nrows, list(range(G.nrows))
    if sorted(order) != r or sorted(cols) != r:
        raise NonInvertible("factor is not unimodular")
    zero, one = LaurentPoly.zero(d), LaurentPoly.one(d)
    P, Q, Qinv = [[zero] * n for _ in r], [[zero] * n for _ in r], [[zero] * n for _ in r]
    c, s, exponents = d.one, 0, []
    for k, i in enumerate(order):
        row, j = G.rows[i], cols[i]
        if [e for e in row if e.coeffs] != [row[j]]:
            raise NonInvertible("birkhoff re-multiplication check failed")
        if len(row[j].coeffs) != 1:
            raise NonInvertible("right factor escaped polynomials in t")
        (e, x), = row[j].coeffs.items()
        y = d.inv(x)
        if d.mul(x, y) != d.one:
            raise NonInvertible("factor is not unimodular")
        P[i][k] = one
        Q[k][j], Qinv[j][k] = LaurentPoly._trusted(d, {0: x}), LaurentPoly._trusted(d, {0: y})
        c, s = d.mul(c, x), s + e
        exponents.append(-e)
    if n > 1 and sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2:
        c = d.neg(c)
    if det.coeffs != {s: c}:
        raise NonInvertible("birkhoff re-multiplication check failed")
    P, Q, Qinv = RingMatrix._trusted(d, P), RingMatrix._trusted(d, Q), RingMatrix._trusted(d, Qinv)
    return BirkhoffFactorization(P, exponents, Q, Qinv, d)


def _eliminate(G, det):
    """Row operations over F[1/t] until the constant terms of the stripped
    rows are invertible: the columns of P0 with G = P0 M, the row
    valuations of M and its rows stripped of them."""
    d, n = G.domain, G.nrows
    M = G.copy()
    Pcols = RingMatrix.identity(d, n).rows   # columns of P0: G = P0 * M, P0 over F[1/t]

    def row_valuations():
        vals = []
        for i in range(n):
            row_vals = [e.valuation() for e in M.rows[i] if not e.is_zero()]
            if not row_vals:
                raise NonInvertible("zero row in an invertible matrix")
            vals.append(min(row_vals))
        return vals

    init_sum = sum(row_valuations())
    guard_max = det.degree() - init_sum + n + 2
    for _ in range(max(guard_max, 2)):
        vals = row_valuations()
        # left null vector of the constant terms of the stripped rows: the
        # nullspace of the transpose, whose row j holds column j's terms
        const_cols = [{} for _ in range(n)]
        for i in range(n):
            for j, e in enumerate(M.rows[i]):
                if vals[i] in e.coeffs:
                    const_cols[j][i] = e.coeffs[vals[i]]
        null = solve_linear_mod(const_cols, d, n).kernel
        if not null:
            break
        c = null[0]
        support = [i for i in range(n) if i in c]
        i0 = min(support, key=lambda i: (vals[i], i))
        new_row = [LaurentPoly.zero(d) for _ in range(n)]
        # row_i0 <- sum of w_i row_i; on P0, col_i0 /= c[i0], col_i -= w_i col_i0
        cinv = d.inv(c[i0])
        Pcols[i0] = [e.scale(cinv) for e in Pcols[i0]]
        for i in support:
            w = LaurentPoly.monomial(d, c[i], vals[i0] - vals[i])
            for j in range(n):
                new_row[j] = new_row[j].add(w.mul(M.rows[i][j]))
            if i != i0:
                Pcols[i] = [a.sub(w.mul(b)) for a, b in zip(Pcols[i], Pcols[i0])]
        M.rows[i0] = new_row
    else:
        raise NonInvertible("birkhoff reduction failed to terminate")

    vals = row_valuations()
    return Pcols, vals, [[e.shift(-v) for e in row] for row, v in zip(M.rows, vals)]


def birkhoff_factorize(G, det=None):
    """Factor an invertible Laurent matrix over a field; exact and verified by
    re-multiplication before returning.  Raises NonInvertible unless det(G)
    is a unit monomial.  det is G's determinant when the caller already
    holds it (a Bundle keeps its transition's); None expands it.

    Method: strip each row's t-valuation; if the matrix of constant terms of
    the stripped rows is invertible over F we are done.  Otherwise a left
    null vector of that constant matrix yields a row operation with
    coefficients in F[1/t] (combining into the row of minimal valuation)
    that strictly raises that row's valuation.  The valuation sum is bounded
    above by the exponent of det(G), so this terminates.  P comes from the
    same elimination, each row operation's inverse applied as column
    operations; Qinv from the minor table that certifies Q unimodular.

    A monomial G (one nonzero c t^e in every row), of any rank, is already
    split: a = -e, P a permutation, Q constant and Qinv its transposed
    pattern of inverses.  _closed_form reads them off and checks each
    certificate on scalars, with no matrix product, minor table or
    identity; it also checks det against G's entries.
    """
    d = G.domain
    if not d.is_field:
        raise NonInvertible("birkhoff factorization requires field coefficients")
    n = G.nrows
    if n != G.ncols:
        raise NonInvertible("matrix is not square")
    if det is None:
        det = G.det()
    if len(det.coeffs) != 1:
        raise NonInvertible("determinant %r is not a unit monomial" % det)
    split = _monomial_split(G)
    if split:
        return _closed_form(G, det, *split)
    Pcols, vals, Qrows = _eliminate(G, det)
    exps = [-v for v in vals]
    order = sorted(range(n), key=lambda i: (-exps[i], i))
    P = RingMatrix._trusted(d, [[Pcols[order[c]][r] for c in range(n)] for r in range(n)])
    Q = RingMatrix._trusted(d, [Qrows[order[r]] for r in range(n)])
    exponents = [exps[i] for i in order]

    fact = BirkhoffFactorization(P, exponents, Q, None, d)
    if not fact.verify(G):
        raise NonInvertible("birkhoff re-multiplication check failed")
    if not _is_poly_in_inverse(P):
        raise NonInvertible("left factor escaped polynomials in 1/t")
    if not Q.is_polynomial():
        raise NonInvertible("right factor escaped polynomials in t")
    if not P.is_unimodular():
        raise NonInvertible("factor is not unimodular")
    minor = Q._minors()
    detq = minor()
    if not (detq.is_constant() and d.is_unit(detq.constant_term())):
        raise NonInvertible("factor is not unimodular")
    fact.Qinv = Q._inverse(detq, minor)
    return fact
