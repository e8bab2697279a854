"""Benchmark-side oracles that share no arithmetic with hdflow.ringmath.

Laurent polynomials here are plain dicts {exponent: residue} over Z/N, and
matrices are lists of rows of such dicts.  The only thing read from a
library object is its coefficient data, through to_dicts/to_dict.
"""

from fractions import Fraction


class OracleMismatch(Exception):
    """A benchmark output disagrees with an oracle or a required property."""


def require(cond, what):
    if not cond:
        raise OracleMismatch(what)


# -- schoolbook Laurent arithmetic over Z/N ----------------------------------


def to_dict(poly):
    return {e: int(c) for e, c in poly.coeffs.items()}


def to_dicts(M):
    return [[to_dict(e) for e in row] for row in M.rows]


def _clean(f, N):
    return {e: c % N for e, c in f.items() if c % N}


def padd(f, g, N):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return _clean(out, N)


def pscale(f, c, N):
    return _clean({e: v * c for e, v in f.items()}, N)


def pmul(f, g, N):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out, N)


def pderiv(f, N):
    return _clean({e - 1: e * c for e, c in f.items()}, N)


def madd(A, B, N):
    return [[padd(a, b, N) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mscale(A, c, N):
    return [[pscale(a, c, N) for a in row] for row in A]


def mmul(A, B, N):
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = {}
            for k, a in enumerate(row):
                if a and B[k][j]:
                    acc = padd(acc, pmul(a, B[k][j], N), N)
            out_row.append(acc)
        out.append(out_row)
    return out


def mderiv(A, N):
    return [[pderiv(a, N) for a in row] for row in A]


def mzero(A):
    return all(not a for row in A for a in row)


def mdet(A, N):
    """Laplace expansion along the first row; ranks here are at most 4."""
    n = len(A)
    if n == 1:
        return dict(A[0][0])
    acc = {}
    for j in range(n):
        if not A[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = pmul(A[0][j], mdet(minor, N), N)
        acc = padd(acc, term if j % 2 == 0 else pscale(term, -1, N), N)
    return acc


def is_laurent_unit(f, p, N):
    """Units of Z/p^n[t, 1/t]: one monomial with a unit coefficient plus a
    nilpotent (p-divisible) remainder."""
    unit_terms = [e for e, c in f.items() if c % p]
    return len(unit_terms) == 1


# -- second level: divided operators and intertwiners ------------------------


def p_connection_chain(B, hs, col, p, N):
    """nabla_{h_1} o ... o nabla_{h_k}(col) for nabla_h(v) = h (p dv + B v);
    the last derivation acts first."""
    v = col
    for h in reversed(hs):
        v = [[pmul(h, e[0], N)] for e in madd(mscale(mderiv(v, N), p, N), mmul(B, v, N), N)]
    return v


def check_scaling_relation(B, hs, col, gamma_value, m, p, N):
    """p^m gamma_m(v) equals the composite of p - 1 + m connection steps."""
    lhs = mscale(gamma_value, p ** m, N)
    rhs = p_connection_chain(B, hs, col, p, N)
    require(mzero(madd(lhs, mscale(rhs, -1, N), N)), "gamma scaling relation")


def check_intertwiner(Ba, Bb, L, p, N):
    """p dL + B_a L - L B_b = 0, and L is invertible."""
    defect = madd(
        madd(mscale(mderiv(L, N), p, N), mmul(Ba, L, N), N),
        mscale(mmul(L, Bb, N), -1, N),
        N,
    )
    require(mzero(defect), "intertwiner defect p dL + B_a L - L B_b")
    require(is_laurent_unit(mdet(L, N), p, N), "intertwiner is not invertible")


# -- the line: splitting types of diagonal transitions -----------------------


def diagonal_splitting_type(transition):
    """Line degrees of a bundle glued by a diagonal matrix of unit monomials
    (O(a) is glued by t^-a); None when the transition is not of that form."""
    T = to_dicts(transition)
    degrees = []
    for i, row in enumerate(T):
        for j, f in enumerate(row):
            if i != j and f:
                return None
        if len(row[i]) != 1:
            return None
        (e,) = row[i]
        degrees.append(-e)
    return sorted(degrees, reverse=True)


def splitting_bound_unstable(G):
    """Lower bound from the splitting type: the grade-0 piece receives the
    Higgs field and emits nothing, so its top split summand is invariant.
    True when that summand's slope exceeds the slope of G."""
    degrees = []
    for piece in G.pieces:
        tp = diagonal_splitting_type(piece.transition)
        require(tp is not None, "corpus piece is not a sum of lines")
        degrees.append(tp)
    mu = Fraction(sum(sum(tp) for tp in degrees), sum(len(tp) for tp in degrees))
    return degrees[0][0] > mu
