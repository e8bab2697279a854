"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: exhaustive enumeration, repeated
multiplication, definitional identities.  Slow is fine; these only run on
desk-sized inputs inside the test suite.  The last section holds checks of
library outputs against claims of the paper that the system itself never
certifies, so only the tests call them.
"""

import collections
import itertools
import random
import sys
from array import array
from fractions import Fraction
from math import ceil, floor

from hdflow import ringmath
from hdflow.bundles import (
    Bundle,
    BundleMap,
    FlatBundle,
    HiggsBundle,
    Subbundle,
    change_frame_connection,
    chart1_connection,
    chart1_map,
    frobenius_pullback_matrix,
    hn_filtration,
    laurent_unit_exponent,
    per_chart,
)
from hdflow.cartier import _atlas_data, _check_mod_p, pullback_higgs_matrices
from hdflow.errors import (
    CertificateFailed,
    ExponentTooLarge,
    NoLiftedFiltration,
    NoSolution,
    NonInvertible,
    NotDivisible,
    SearchBudgetExceeded,
    TransversalityViolated,
    WrongModulus,
)
from hdflow.filtration import DestabilizerReport, _lex_gt
from hdflow.graded import HodgeFiltration
from hdflow.ringmath import (
    BirkhoffFactorization,
    LaurentPoly,
    LinearSolution,
    RingMatrix,
    WindowSystem,
    Zmod,
    block_starts,
    smith_form_poly,
    solve_linear_mod,
)
from hdflow.witt import (
    PConnectionModule,
    TwistedFlatModule,
    _random_col,
    filtration_steps_from_flag,
    local_filtered_lifting,
    ptwist_matrix,
    taylor_coefficient,
    truncation_bound,
    w2_flow_step,
)


def enumerate_solutions_mod(A, b, modulus, limit=10 ** 4):
    """All x with A x = b over Z/modulus, by brute force enumeration."""
    n = len(A)
    m = len(A[0]) if n else 0
    assert modulus ** m <= limit, "search space too large for the oracle"
    out = []
    for x in itertools.product(range(modulus), repeat=m):
        if all(
            sum(A[i][j] * x[j] for j in range(m)) % modulus == b[i] % modulus
            for i in range(n)
        ):
            out.append(list(x))
    return out


def span_mod(particular, kernel, modulus, limit=10 ** 4):
    """The affine set particular + integer span of kernel over Z/modulus."""
    k = len(kernel)
    assert modulus ** k <= limit, "kernel span too large for the oracle"
    m = len(particular)
    seen = set()
    for coeffs in itertools.product(range(modulus), repeat=k):
        v = list(particular)
        for c, gen in zip(coeffs, kernel):
            for i in range(m):
                v[i] = (v[i] + c * gen[i]) % modulus
        seen.add(tuple(v))
    return sorted(list(t) for t in seen)


def gauss_jordan_solve(rows, rhs, field, ncols):
    """Solve a dense system over a field domain by Gauss-Jordan elimination.

    Pivots column by column on the first row holding a unit and reads the
    LinearSolution off the reduced row echelon form: the particular
    solution is zero on the free columns, and kernel vector k is one on the
    k-th free column and zero on the others.
    """
    n = len(rows)
    aug = [[field.coerce(x) for x in rows[i]] + [field.coerce(rhs[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        pr = next((i for i in range(r, n) if field.is_unit(aug[i][c])), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(x, inv) for x in aug[r]]
        for i in range(n):
            if i != r and field.is_unit(aug[i][c]):
                f = aug[i][c]
                aug[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(field.is_unit(aug[i][ncols]) for i in range(r, n)):
        raise NoSolution("oracle: inconsistent zero row")
    particular = [field.zero] * ncols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncols]
    kernel = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(aug[i][fc])
        kernel.append(v)
    return LinearSolution(particular, kernel)


def solve_dense(rows, rhs, domain, ncols):
    """solve_linear_mod on dense rows and a dense right side, its answers
    read back as dense lists: rows go in as {column: entry} dicts without
    zeros, the right side at column ncols, and each solution vector comes
    back with its zeros filled in."""
    zero = domain.zero
    sparse = [
        {j: x for j, x in enumerate(map(domain.coerce, [*row, r])) if x != zero}
        for row, r in zip(rows, rhs)
    ]
    sol = solve_linear_mod(sparse, domain, ncols)

    def dense(vec):
        return [vec.get(j, zero) for j in range(ncols)]

    return LinearSolution(dense(sol.particular), [dense(v) for v in sol.kernel])


def dense_rows(rows, domain, ncols):
    """The solver's sparse rows as dense rows and a dense right side."""
    zero = domain.zero
    return (
        [[row.get(j, zero) for j in range(ncols)] for row in rows],
        [row.get(ncols, zero) for row in rows],
    )


def _pivot_quotient(a, piv, part):
    """a / piv for a pivot p^val of least valuation in its block: exact."""
    if a % piv:
        raise CertificateFailed("pivot valuation violated", part=part)
    return a // piv


def dense_solve_linear_mod(rows, rhs, domain, ncols):
    """ringmath.solve_linear_mod as it was on dense rows, the reference for
    its outputs: the same pivots and operations on full-width lists, whose
    zeros every step touches.  Solve a dense system over Z/p^m or F_{p^f}
    by diagonalization.

    rows: list of ncols-long lists of domain elements; rhs: list.  Returns a
    LinearSolution with a particular solution and a kernel basis generating
    all solutions; raises NoSolution when none exists.

    Each step pivots on the first row holding a unit, at its leftmost unit;
    failing that (only Z/p^m with m >= 2 has nonzero non-units) on an entry
    of least p-adic valuation, first in row-major order.  Row operations
    clear the pivot column below the pivot; column operations clear the
    pivot row and are recorded in a transform x = C y whose columns are
    read off as kernel vectors.
    """
    d = domain
    zero, coerce, is_unit = d.zero, d.coerce, d.is_unit

    def axpy(x, f, y):
        # the dense vector y + f x
        return [d.add(b, d.mul(f, a)) for a, b in zip(x, y)]

    n, m = len(rows), ncols
    # augmented rows: column m holds the right-hand side
    M = [[coerce(x) for x in row] + [coerce(r)] for row, r in zip(rows, rhs)]
    C = [[d.one if i == j else zero for i in range(m)] for j in range(m)]

    def block_entries(k):
        # nonzero entries of the active block, in row-major order
        for i in range(k, n):
            for j, a in enumerate(M[i][k:m], k):
                if a != zero:
                    yield i, j, a

    diag = []
    for k in range(min(n, m)):
        best = next(((i, j, 0) for i, j, a in block_entries(k) if is_unit(a)), None)
        if best is None and not d.is_field:
            for i, j, a in block_entries(k):
                v = d.valuation(a)
                if best is None or v < best[2]:
                    best = (i, j, v)
                    if v == 1:
                        break  # the least valuation of a nonzero non-unit
        if best is None:
            break
        bi, bj, val = best
        M[k], M[bi] = M[bi], M[k]
        if bj != k:
            for row in M[k:]:
                row[k], row[bj] = row[bj], row[k]
            C[k], C[bj] = C[bj], C[k]
        # normalize the pivot to p^val
        piv = d.p ** val
        uinv = d.inv(M[k][k] // piv if val else M[k][k])
        pivot_row = M[k] = [d.mul(uinv, x) for x in M[k]]
        # rows below the pivot are zero left of column k: update their tails
        tail = pivot_row[k:]
        for row in M[k + 1 :]:
            a = row[k]
            if a != zero:
                f = _pivot_quotient(a, piv, "pivot-column") if val else a
                row[k:] = axpy(tail, d.neg(f), row[k:])
        for j in range(k + 1, m):
            a = pivot_row[j]
            if a != zero:
                f = _pivot_quotient(a, piv, "pivot-row") if val else a
                C[j] = axpy(C[k], d.neg(f), C[j])
        diag.append(val)

    # solve diag(p^val) y = rhs and map back through x = C y
    particular = [zero] * m
    kernel = []
    for i, val in enumerate(diag):
        y = M[i][m]
        if val:
            piv = d.p ** val
            if y % piv:
                raise NoSolution("no solution: rhs has valuation below pivot")
            y //= piv
            gen = d.modulus // piv
            kernel.append([d.mul(gen, c) for c in C[i]])
        if y != zero:
            particular = axpy(C[i], y, particular)
    if any(M[i][m] != zero for i in range(len(diag), n)):
        raise NoSolution("no solution: inconsistent zero row")
    kernel += C[len(diag):]
    return LinearSolution(particular, kernel)


def affine_span(domain, particular, kernel, limit=10 ** 4):
    """The set particular + span of kernel over a finite domain, as tuples."""
    elements = list(domain.elements())
    assert len(elements) ** len(kernel) <= limit, "kernel span too large for the oracle"
    seen = set()
    for coeffs in itertools.product(elements, repeat=len(kernel)):
        v = list(particular)
        for c, gen in zip(coeffs, kernel):
            v = [domain.add(x, domain.mul(c, g)) for x, g in zip(v, gen)]
        seen.add(tuple(v))
    return seen


def schoolbook_mul(f, g):
    """Laurent product through the domain protocol alone: one d.mul and one
    d.add per pair of terms, a sum dropped whenever it returns to zero."""
    d = f.domain
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            s = d.add(out.get(e, d.zero), d.mul(c1, c2))
            if s == d.zero:
                out.pop(e, None)
            else:
                out[e] = s
    return LaurentPoly(d, out)


def schoolbook_add(f, g):
    """Laurent sum through the domain protocol, one d.add per term of g."""
    d = f.domain
    out = dict(f.coeffs)
    for e, c in g.coeffs.items():
        s = d.add(out.get(e, d.zero), c)
        if s == d.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return LaurentPoly(d, out)


def schoolbook_derivative(f):
    """t-derivative through the domain protocol, one d.mul and one d.coerce
    per coefficient."""
    d = f.domain
    out = {}
    for e, c in f.coeffs.items():
        if e == 0:
            continue
        v = d.mul(c, d.coerce(e))
        if v != d.zero:
            out[e - 1] = v
    return LaurentPoly(d, out)


def schoolbook_scale(f, c):
    """f times a constant, one d.mul per coefficient."""
    d = f.domain
    c = d.coerce(c)
    return LaurentPoly(d, {e: d.mul(v, c) for e, v in f.coeffs.items()})


def solve_linear_mod_col_map(A, b, ring):
    """The Z/p^m solver with every output read through the full column
    transform: the same diagonalization as ringmath.solve_linear_mod (pivot
    of least valuation, first in row-major order), then x = col * y for the
    particular solution and for each unit direction of the kernel."""
    n = len(A)
    m = len(A[0]) if n else 0
    p, mod = ring.p, ring.modulus
    M = [[A[i][j] % mod for j in range(m)] for i in range(n)]
    rhs = [bi % mod for bi in b]
    col = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    diag = []
    k = 0
    while k < min(n, m):
        best = None
        for i in range(k, n):
            for j in range(k, m):
                a = M[i][j]
                if a % mod:
                    val = ring.valuation(a)
                    if best is None or val < best[2]:
                        best = (i, j, val)
        if best is None:
            break
        bi, bj, val = best
        M[k], M[bi] = M[bi], M[k]
        rhs[k], rhs[bi] = rhs[bi], rhs[k]
        if bj != k:
            for row in M + col:
                row[k], row[bj] = row[bj], row[k]
        uinv = pow((M[k][k] // p ** val) % mod, -1, mod)
        M[k] = [(uinv * x) % mod for x in M[k]]
        rhs[k] = (uinv * rhs[k]) % mod
        piv = p ** val
        for i in range(n):
            a = M[i][k]
            if i == k or a % mod == 0:
                continue
            if a % piv:
                raise CertificateFailed("pivot valuation violated", part="oracle")
            M[i] = [(x - (a // piv) * y) % mod for x, y in zip(M[i], M[k])]
            rhs[i] = (rhs[i] - (a // piv) * rhs[k]) % mod
        for j in range(m):
            a = M[k][j]
            if j == k or a % mod == 0:
                continue
            if a % piv:
                raise CertificateFailed("pivot valuation violated", part="oracle")
            for row in M + col:
                row[j] = (row[j] - (a // piv) * row[k]) % mod
        diag.append(val)
        k += 1
    y = [0] * m
    kernel_dirs = []
    for i, val in enumerate(diag):
        piv = p ** val
        if rhs[i] % piv:
            raise NoSolution("oracle: rhs has valuation below pivot")
        y[i] = (rhs[i] // piv) % (mod // piv) if val < ring.m else 0
        if val > 0:
            kernel_dirs.append((i, (mod // piv) % mod))
    if any(rhs[i] % mod for i in range(len(diag), n)):
        raise NoSolution("oracle: inconsistent zero row")

    def col_map(vec):
        return [sum(col[r][j] * vec[j] for j in range(m)) % mod for r in range(m)]

    def unit(j, gen):
        return [gen if i == j else 0 for i in range(m)]

    kernel = [col_map(unit(i, gen)) for i, gen in kernel_dirs]
    kernel += [col_map(unit(j, 1)) for j in range(len(diag), m)]
    return LinearSolution(col_map(y), kernel)


def unpruned_gamma_apply(A, ranks, m, hs, col):
    """The divided operator with every grade propagated: each grade-g part
    runs through all p - 1 + m steps, whatever its final p-power, and every
    coordinate is paid back, a vanishing p-power included."""
    ring = A.domain
    p = ring.p
    assert len(hs) == p - 1 + m
    starts = block_starts(ranks)
    slices = list(zip(starts, starts[1:]))
    rank = sum(ranks)
    state = {}
    for g, (a, b) in enumerate(slices):
        rows = [[LaurentPoly.zero(ring)] for _ in range(rank)]
        for i in range(a, b):
            rows[i] = [col.rows[i][0]]
        state[g] = RingMatrix(ring, rows)
    for r in range(p - 1 + m, 0, -1):
        shift = 1 if r > m else 0
        state = {
            s - shift: comp.derivative().add(A.mul(comp)).scale(hs[r - 1])
            for s, comp in state.items()
        }
    out = RingMatrix.zeros(ring, rank, 1)
    for s, comp in state.items():
        for g, (a, b) in enumerate(slices):
            for i in range(a, b):
                entry = comp.rows[i][0]
                if entry.is_zero():
                    continue
                if g < s:
                    raise CertificateFailed(
                        "divided-operator state escaped its slot", part="gamma"
                    )
                out.rows[i][0] = out.rows[i][0].add(
                    entry.scale(ring.coerce(p ** (g - s)))
                )
    return out


def unfused_gamma_apply(A, ranks, m, hs, X):
    """The divided operator with each step taken as four matrix passes,
    h (dX/dt + A X): derivative, product, sum and scaling, each reducing
    every entry it makes."""
    ring = A.domain
    p, n = ring.p, ring.m
    if len(hs) != p - 1 + m:
        raise ValueError("divided operator of weight m needs p-1+m derivations")
    starts = block_starts(ranks)
    slices = list(zip(starts, starts[1:]))
    rank, k = sum(ranks), X.ncols
    zero_row = [LaurentPoly.zero(ring)] * k
    state = {}
    for g, (a, b) in enumerate(slices):
        if g < p - n:
            continue
        if any(not e.is_zero() for row in X.rows[a:b] for e in row):
            state[g] = RingMatrix(
                ring, [X.rows[i] if a <= i < b else zero_row for i in range(rank)]
            )
    for r in range(p - 1 + m, 0, -1):
        h = hs[r - 1]
        shift = 1 if r > m else 0
        new_state = {}
        for s, comp in state.items():
            img = comp.derivative().add(A.mul(comp)).scale(h)
            key = s - shift
            if key in new_state:
                new_state[key] = new_state[key].add(img)
            else:
                new_state[key] = img
        state = new_state
    out = RingMatrix.zeros(ring, rank, k)
    for s, comp in state.items():
        rows = [zero_row] * rank
        for g, (a, b) in enumerate(slices):
            e = g - s
            if e >= n:
                continue
            if e < 0:
                if any(not x.is_zero() for row in comp.rows[a:b] for x in row):
                    raise CertificateFailed(
                        "divided-operator state escaped its slot", part="gamma"
                    )
                continue
            c = ring.coerce(p ** e)
            for i in range(a, b):
                rows[i] = [x.scale(c) for x in comp.rows[i]]
        out = out.add(RingMatrix(ring, rows))
    return out


def uncached_taylor_transition(tw, lift_target, lift_source):
    """The Taylor transition with every term rebuilt on each call: the nabla
    chain and each divided operator are recomputed, and each kept term is
    substituted on its own, with its own table of image powers."""
    ring = tw.ring
    p, n = ring.p, ring.m
    bound = truncation_bound(p, n)
    z = lift_source.z_same_chart(lift_target, 0, ring)
    image = lift_target.frobenius_image(0, ring)
    one = LaurentPoly.one(ring)
    rank = tw.rank
    G = RingMatrix.zeros(ring, rank, rank)
    zpow = LaurentPoly.one(ring)
    ident = current = RingMatrix.identity(ring, rank)
    fact = 1
    # the nabla chain feeds only the terms below p
    for j in range(bound):
        if j:
            zpow = zpow.mul(z)
        if j < p:
            if j:
                fact *= j
                current = tw.nabla(one, current)
            term = current.scale_const(ring.inv(ring.coerce(fact)))
        else:
            c = taylor_coefficient(ring, j)
            if c == 0:
                continue
            term = tw.gamma(j + 1 - p, [one] * j, ident).scale_const(c)
        G = G.add(term.substitute(image).scale(zpow))
    return G


def unshared_gamma_relations_check(tw, rng=None, samples=2, m=1):
    """Evaluate both sides of the six defining relations of the divided
    operators on sampled derivations and sections; every comparison is an
    exact identity mod p^n.  Returns a dict of booleans, one per relation.

    Every gamma on every side runs its own chain from the section, and the
    rng is drawn in the library's order, so both return the same report.
    """
    if rng is None:
        rng = random.Random(0)
    ring = tw.ring
    p = ring.p
    if m < 1:
        raise ValueError("the function and swap relations need m >= 1")
    report = {
        "scaling": True,
        "linearity": True,
        "function": True,
        "swap": True,
        "merge": True,
        "shift": True,
    }

    def nab_chain(hs, v):
        for h in reversed(hs):
            v = tw.nabla(h, v)
        return v

    for _ in range(samples):
        v = _random_col(rng, ring, tw.rank, 2)
        f = ringmath.random_poly(rng, ring, 2)

        hs = [ringmath.random_poly(rng, ring, 2) for _ in range(p - 1 + m)]
        lhs = tw.gamma(m, hs, v).scale_const(ring.coerce(p ** m))
        if lhs != nab_chain(hs, v):
            report["scaling"] = False

        a = ring.coerce(rng.randrange(ring.modulus))
        b = ring.coerce(rng.randrange(ring.modulus))
        extra = ringmath.random_poly(rng, ring, 2)
        slot = rng.randrange(p - 1 + m)
        mixed = list(hs)
        mixed[slot] = hs[slot].scale(a).add(extra.scale(b))
        lhs = tw.gamma(m, mixed, v)
        first = list(hs)
        second = list(hs)
        second[slot] = extra
        rhs = tw.gamma(m, first, v).scale_const(a).add(
            tw.gamma(m, second, v).scale_const(b)
        )
        if lhs != rhs:
            report["linearity"] = False

        lhs = tw.gamma(m, hs, v.scale(f))
        rhs = tw.gamma(m, hs, v).scale(f)
        for i in range(1, p - 1 + m):
            merged = (
                hs[: i - 1]
                + [hs[i - 1].mul(f.derivative()).mul(hs[i])]
                + hs[i + 1 :]
            )
            rhs = rhs.add(tw.gamma(m - 1, merged, v))
        tail = hs[-1].mul(f.derivative())
        rhs = rhs.add(tw.gamma(m - 1, hs[:-1], v.scale(tail)))
        if lhs != rhs:
            report["function"] = False

        i = rng.randrange(p - 2 + m)
        swapped = list(hs)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        bracket = hs[i].mul(hs[i + 1].derivative()).sub(
            hs[i + 1].mul(hs[i].derivative())
        )
        merged = hs[:i] + [bracket] + hs[i + 2 :]
        rhs = tw.gamma(m, swapped, v).add(tw.gamma(m - 1, merged, v))
        if tw.gamma(m, hs, v) != rhs:
            report["swap"] = False

        m1, m2 = 0, m
        both = [ringmath.random_poly(rng, ring, 2) for _ in range(2 * p - 2 + m1 + m2)]
        inner = tw.gamma(m2, both[p - 1 + m1 :], v)
        lhs = tw.gamma(m1, both[: p - 1 + m1], inner)
        rhs = tw.gamma(p - 1 + m1 + m2, both, v).scale_const(
            ring.coerce(p ** (p - 1))
        )
        if lhs != rhs:
            report["merge"] = False

        long_hs = [ringmath.random_poly(rng, ring, 2) for _ in range(p + m)]
        left = tw.gamma(m, long_hs[:-1], tw.nabla(long_hs[-1], v))
        mid = tw.nabla(long_hs[0], tw.gamma(m, long_hs[1:], v))
        right = tw.gamma(m + 1, long_hs, v).scale_const(ring.coerce(p))
        if left != mid or left != right:
            report["shift"] = False

    return report


def unshared_taylor_terms(tw, count):
    """The divided Taylor terms T_j, j < count, each divided term from its
    own gamma chain on the identity: nabla^j/j! below p, then p^(j+1-p)/j!
    times the weight j+1-p divided operator, None where that coefficient
    vanishes mod p^n."""
    ring, p, one = tw.ring, tw.p, LaurentPoly.one(tw.ring)
    current = RingMatrix.identity(ring, tw.rank)
    terms, fact = [current], 1
    for j in range(1, p):
        fact *= j
        current = tw.nabla(one, current)
        terms.append(current.scale_const(ring.inv(ring.coerce(fact))))
    ident = terms[0]
    for j in range(len(terms), count):
        c = taylor_coefficient(ring, j)
        terms.append(tw.gamma(j + 1 - p, [one] * j, ident).scale_const(c) if c else None)
    return terms[:count]


def uncached_adapted_dr_matrix(tup):
    """The adapted one-level-down connection rebuilt on every call, with the
    whole block-diagonal comparison inverted by det plus adjugate."""
    Psi = RingMatrix.block_diagonal(tup.down_ring, tup.psibar)
    return change_frame_connection(tup.abar, Psi, Psi.inverse())


def perturbed_construct(tup, perturbation, frame=None):
    """The twisted module of another filtered lifting of the same data:
    local_filtered_lifting plus p^(n-1) times the perturbation, rewritten in
    the frame when one is given, then twisted."""
    ring = tup.ring
    scale = ring.coerce(ring.p ** (tup.n - 1))
    A = local_filtered_lifting(tup).add(perturbation.scale_const(scale))
    if frame is not None:
        A = change_frame_connection(A, frame.inverse(), frame)
    B = ptwist_matrix(A, tup.ranks)
    return TwistedFlatModule(ring, tup.ranks, A, PConnectionModule(ring, tup.rank, B))


def slow_pow(field, a, e):
    """Field power by plain repeated multiplication."""
    out = field.one
    for _ in range(e):
        out = field.mul(out, a)
    return out


def slow_conjugate(field, a, j):
    """a^(p^j) with no Frobenius shortcut."""
    return slow_pow(field, a, field.p ** j)


def minimal_polynomial(field, a):
    """Monic minimal polynomial of a over F_p as (c_0..c_{d-1}) plus an
    implicit leading 1 of degree d."""
    powers = [field.one]
    for _ in range(field.f):
        powers.append(field.mul(powers[-1], a))
    for d in range(1, field.f + 1):
        # coordinate rows of sum_i c_i a^i = -a^d, right side at column d
        rows = []
        for coord in range(field.f):
            col = [powers[i][coord] for i in range(d)] + [-powers[d][coord] % field.p]
            rows.append({i: c for i, c in enumerate(col) if c})
        try:
            sol = solve_linear_mod(rows, Zmod(field.p), d).particular
        except NoSolution:
            continue
        return tuple(sol.get(i, 0) for i in range(d))
    raise CertificateFailed("no minimal polynomial", part="minimal-polynomial")


def laurent_power(f, n):
    """f^n by binary powering, through the inverse unit when n < 0."""
    if n < 0:
        return laurent_power(f.inverse_unit(), -n)
    out = LaurentPoly.one(f.domain)
    base = f
    while n:
        if n & 1:
            out = out.mul(base)
        base = base.mul(base)
        n >>= 1
    return out


def binary_power_substitute(f, image):
    """f(image) term by term, every power of image by binary powering."""
    out = LaurentPoly.zero(f.domain)
    for e, c in f.coeffs.items():
        out = out.add(laurent_power(image, e).scale(c))
    return out


def check_leibniz(f, g):
    """(fg)' == f'g + fg' checked exactly; returns bool."""
    lhs = f.mul(g).derivative()
    rhs = f.derivative().mul(g).add(f.mul(g.derivative()))
    return lhs == rhs


def check_birkhoff(fact, G):
    """Full validity oracle for a factorization of G: re-multiplication,
    ring membership, unimodularity, descending exponents, degree sum law."""
    d = fact.domain
    if not fact.verify(G):
        return False
    if any(
        not (e.is_zero() or e.degree() <= 0) for row in fact.P.rows for e in row
    ):
        return False
    if not fact.Q.is_polynomial():
        return False
    for T in (fact.P, fact.Q):
        dt = T.det()
        if not (dt.is_constant() and d.is_unit(dt.constant_term())):
            return False
    if list(fact.exponents) != sorted(fact.exponents, reverse=True):
        return False
    det = G.det()
    if len(det.coeffs) != 1:
        return False
    if sum(fact.exponents) != -det.degree():
        return False
    return True


def cofactor_det(M):
    """Determinant by expansion along the first row, with a memo of its own
    keyed by (first row, column tuple)."""
    n = M.nrows
    if n != M.ncols:
        raise ValueError("det of non-square matrix")
    if n == 0:
        return LaurentPoly.one(M.domain)
    memo = {}

    def minor(start_row, cols_list):
        key = (start_row, cols_list)
        if key in memo:
            return memo[key]
        if len(cols_list) == 1:
            val = M.rows[start_row][cols_list[0]]
        else:
            acc = LaurentPoly.zero(M.domain)
            for pos, j in enumerate(cols_list):
                a = M.rows[start_row][j]
                if a.is_zero():
                    continue
                rest = tuple(c for c in cols_list if c != j)
                term = a.mul(minor(start_row + 1, rest))
                if pos % 2:
                    term = term.neg()
                acc = acc.add(term)
            val = acc
        memo[key] = val
        return val

    return minor(0, tuple(range(n)))


def cofactor_adjugate(M):
    """Adjugate with every cofactor a separate cofactor_det."""
    n = M.nrows
    if n == 1:
        return RingMatrix.identity(M.domain, 1)
    out = RingMatrix.zeros(M.domain, n, n)
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != i]
            cols = [c for c in range(n) if c != j]
            cof = cofactor_det(M.submatrix(rows, cols))
            if (i + j) % 2:
                cof = cof.neg()
            out.rows[j][i] = cof
    return out


def adjugate_inverse(M):
    """Inverse as adjugate over determinant, the two computed separately."""
    d = cofactor_det(M)
    if not d.is_unit():
        raise NonInvertible("matrix determinant %r is not a unit" % d)
    dinv = d.inverse_unit()
    return cofactor_adjugate(M).map_entries(lambda e: e.mul(dinv))


def inverting_saturation_basis(M):
    """The first `rank` columns of L^-1, inverting all of the Smith form's L."""
    sf = smith_form_poly(M)
    return adjugate_inverse(sf.L).columns(range(sf.rank))


def inverting_unimodular_completion(B):
    """[B | C] with C read off the inverse of the Smith form's whole L."""
    sf = smith_form_poly(B)
    for i in range(B.ncols):
        e = sf.D.rows[i][i]
        if e.is_zero() or e.degree() != 0:
            raise NonInvertible("basis not saturated; invariant factor %r" % e)
    extra = adjugate_inverse(sf.L).columns(range(B.ncols, B.nrows))
    return B.hstack(extra)


def laurent_poly_solve(M, v):
    """Solve M x = v over F[t, 1/t] (v a matrix of columns); None if
    unsolvable.  The Smith form's quotients are divided with t-power
    denominators allowed.  For a saturated M every invariant factor is a
    constant, so this is poly_solve up to the shift that clears v's poles."""
    d = M.domain
    sf = smith_form_poly(M)
    w = sf.L.mul(v)
    y = RingMatrix.zeros(d, M.ncols, v.ncols)
    for i in range(M.nrows):
        di = sf.D.rows[i][i] if i < min(M.nrows, M.ncols) else LaurentPoly.zero(d)
        for j in range(v.ncols):
            wi = w.rows[i][j]
            if di.is_zero() or wi.is_zero():
                if not wi.is_zero():
                    return None
                continue
            val, wval = di.valuation(), wi.valuation()
            q, r = ringmath.poly_divmod(wi.shift(-wval), di.shift(-val))
            if not r.is_zero():
                return None
            y.rows[i][j] = q.shift(wval - val)
    return sf.R.mul(y)


def inverting_birkhoff_factorize(G):
    """Birkhoff factorization that accumulates P^-1 over the elimination and
    inverts it at the end, then inverts Q for Qinv, both by det plus
    adjugate."""
    d = G.domain
    if not d.is_field:
        raise NonInvertible("birkhoff factorization requires field coefficients")
    n = G.nrows
    if n != G.ncols:
        raise NonInvertible("matrix is not square")
    det = cofactor_det(G)
    if len(det.coeffs) != 1:
        raise NonInvertible("determinant %r is not a unit monomial" % det)

    M = G.copy()
    Linv = RingMatrix.identity(d, n)   # invariant: M = Linv * G, Linv over F[1/t]

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
        new_lrow = [LaurentPoly.zero(d) for _ in range(n)]
        for i in support:
            w = LaurentPoly.monomial(d, c[i], vals[i0] - vals[i])
            for j in range(n):
                new_row[j] = new_row[j].add(w.mul(M.rows[i][j]))
                new_lrow[j] = new_lrow[j].add(w.mul(Linv.rows[i][j]))
        M.rows[i0] = new_row
        Linv.rows[i0] = new_lrow
    else:
        raise NonInvertible("birkhoff reduction failed to terminate")

    vals = row_valuations()
    exps = [-v for v in vals]
    Qrows = [[M.rows[i][j].shift(-vals[i]) for j in range(n)] for i in range(n)]
    P0 = adjugate_inverse(Linv)

    order = sorted(range(n), key=lambda i: (-exps[i], i))
    P = RingMatrix(d, [[P0.rows[r][order[c]] for c in range(n)] for r in range(n)])
    Q = RingMatrix(d, [Qrows[order[r]] for r in range(n)])
    exponents = [exps[i] for i in order]
    return BirkhoffFactorization(P, exponents, Q, adjugate_inverse(Q), d)


def random_element(rng, domain):
    if hasattr(domain, "f") and domain.f > 1:
        return tuple(rng.randrange(domain.p) for _ in range(domain.f))
    return domain.coerce(rng.randrange(domain.p ** getattr(domain, "m", 1)))


def random_unit(rng, domain):
    while True:
        c = random_element(rng, domain)
        if domain.is_unit(c):
            return c


def random_laurent(rng, domain, min_exp, max_exp):
    coeffs = {}
    for e in range(min_exp, max_exp + 1):
        coeffs[e] = random_element(rng, domain)
    return LaurentPoly(domain, coeffs)


def random_poly(rng, domain, max_deg):
    return random_laurent(rng, domain, 0, max_deg)


def const_matrix(d, rows):
    return RingMatrix(
        d, [[LaurentPoly.const(d, d.coerce(c)) for c in row] for row in rows]
    )


def random_unimodular_poly(rng, domain, n, ops=4, max_deg=2, inverse_var=False):
    """Random unimodular matrix over F[t] (or over F[1/t] with
    inverse_var=True) as a product of elementary operations."""
    M = RingMatrix.identity(domain, n)
    sign = -1 if inverse_var else 1
    for _ in range(ops):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = LaurentPoly(
            domain,
            {sign * e: random_element(rng, domain) for e in range(0, max_deg + 1)},
        )
        for r in range(n):
            M.rows[r][j] = M.rows[r][j].add(q.mul(M.rows[r][i]))
    # random unit scalings and a permutation keep it unimodular
    for c in range(n):
        u = random_unit(rng, domain)
        for r in range(n):
            M.rows[r][c] = M.rows[r][c].scale(u)
    perm = list(range(n))
    rng.shuffle(perm)
    M = RingMatrix(domain, [[M.rows[r][perm[c]] for c in range(n)] for r in range(n)])
    return M


def random_split_transition(rng, domain, exponents, ops=4, max_deg=2):
    """Transition matrix with a known splitting type: P0 diag(t^-a) Q0."""
    n = len(exponents)
    P0 = random_unimodular_poly(rng, domain, n, ops=ops, max_deg=max_deg, inverse_var=True)
    Q0 = random_unimodular_poly(rng, domain, n, ops=ops, max_deg=max_deg)
    D = RingMatrix.diagonal(
        domain, [LaurentPoly.var(domain, -a) for a in exponents]
    )
    return P0.mul(D).mul(Q0)


def random_flag_frame(rng, ring, ranks):
    """Unipotent frame change that respects the flag of a graded shape:
    identity diagonal blocks, and below them polynomials of degree <= 1,
    drawn entry by entry in row order as the witt-lift benchmark draws its
    frame changes."""
    grade_of = [g for g, r in enumerate(ranks) for _ in range(r)]
    frame = RingMatrix.identity(ring, len(grade_of))
    for i, gi in enumerate(grade_of):
        for j, gj in enumerate(grade_of):
            if gi > gj:
                frame.rows[i][j] = LaurentPoly(
                    ring, {e: rng.randrange(ring.modulus) for e in (0, 1)}
                )
    return frame


def default_equivalence_window(tw_a, tw_b):
    """equivalence_check's default monomial window for two presentations:
    one below the exponents of both p-connection matrices (0 included) to
    two above them."""
    exps = [0] + [
        e
        for tw in (tw_a, tw_b)
        for row in tw.module.matrix.rows
        for x in row
        for e in x.coeffs
    ]
    return min(exps) - 1, max(exps) + 2


def random_graded_higgs(rng, curve, grade_ranks, base_exp=None, gap=2):
    """Nilpotent Higgs bundle on P^1 with a block-chain structure: grade g
    summands map into grade g+1 summands, whose line degrees sit `gap`
    higher, so the connecting entries are polynomials of small degree.
    Nilpotency index is at most the number of grades.  Returns the
    HiggsBundle built on the split transition; grades are listed in order.
    """
    domain = curve.domain
    k = len(grade_ranks)
    if base_exp is None:
        total = sum(grade_ranks)
        base_exp = -((k - 1) * gap * total) // (2 * total)
    exps = []
    grades = []
    for g, r in enumerate(grade_ranks):
        for _ in range(r):
            exps.append(base_exp + g * gap)
            grades.append(g)
    n = len(exps)
    if curve.is_projective:
        E = Bundle.sum_of_lines(curve, exps)
    else:
        E = Bundle.free(curve, n)
    rows = [[LaurentPoly.zero(domain) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if grades[i] == grades[j] + 1:
                max_deg = exps[i] - exps[j] - 2 if curve.is_projective else 2
                if max_deg >= 0:
                    rows[i][j] = random_laurent(rng, domain, 0, max_deg)
    theta0 = RingMatrix(domain, rows)
    return HiggsBundle.from_chart0(E, theta0)


def conjugate_higgs_frames(rng, higgs, ops=3, max_deg=1):
    """Re-express a Higgs bundle in random chart-0 frames (same object, a
    different-looking transition and Higgs matrix)."""
    d = higgs.bundle.domain
    n = higgs.bundle.rank
    Q = random_unimodular_poly(rng, d, n, ops=ops, max_deg=max_deg)
    g_new = higgs.bundle.transition.mul(Q.inverse())
    E_new = Bundle(higgs.bundle.curve, n, g_new)
    theta0_new = Q.mul(higgs.theta[0]).mul(Q.inverse())
    return HiggsBundle.from_chart0(E_new, theta0_new)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, what):
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                "%s enumeration passed %d candidates" % (what, self.limit),
                bounds={"stage": what, "tried": self.limit},
            )


def _min_degree_for(target, total_rank, mu_floor):
    """Smallest total degree that lex-beats `target` at this rank, while
    still exceeding the ambient slope floor."""
    need = floor(mu_floor * total_rank) + 1
    if target is None:
        return need
    mu, r = target
    if total_rank > r:
        beat = ceil(mu * total_rank)
    else:
        beat = floor(mu * total_rank) + 1
    return max(need, beat)


class SaturatingLinePool:
    """Saturated line subbundles of one bundle, generated lazily in
    descending degree for the reference scan: every enumerated coefficient
    vector in split coordinates (leading entry one, degree caps b_j - d) is
    saturated with Smith forms, and its line is kept unless an earlier line
    spans the same subsheaf.  Each vector spends one budget unit."""

    def __init__(self, bundle, budget):
        self.bundle = bundle
        self.budget = budget
        self.tp = bundle.splitting_type()
        self.sd = bundle.split_data()
        self.lines = []
        self.next_degree = self.tp[0]

    def ensure(self, low):
        d = self.bundle.domain
        els = list(d.elements())
        while self.next_degree >= low:
            deg = self.next_degree
            self.next_degree -= 1
            slots = [
                (j, e) for j, b in enumerate(self.tp) for e in range(b - deg + 1)
            ]
            for lead in range(len(slots)):
                for tail in itertools.product(els, repeat=len(slots) - lead - 1):
                    vec = [d.zero] * lead + [d.one] + list(tail)
                    self.budget.spend("line")
                    comps = [dict() for _ in self.tp]
                    for (j, e), c in zip(slots, vec):
                        if c != d.zero:
                            comps[j][e] = c
                    col = RingMatrix(d, [[LaurentPoly(d, c)] for c in comps])
                    S = Subbundle.from_chart0_span(self.bundle, self.sd.Qinv.mul(col))
                    if not any(same_as(S, L) for L in self.lines):
                        self.lines.append(S)
        return [L for L in self.lines if L.degree() >= low]


def _invariant_chain(G, chosen):
    """Whether the per-grade subbundles are closed under the connecting
    maps; chart-0 checks are exact because everything is saturated."""
    for k in range(len(G.maps)):
        src = chosen[k + 1]
        if src is None:
            continue
        image = G.maps[k][0].mul(src.basis[0])
        tgt = chosen[k]
        if tgt is None:
            if not image.is_zero():
                return False
        elif not tgt.contains_chart0(image):
            return False
    return True


def saturating_destabilizer_scan(G, budget_limit, first_hit):
    """Reference destabilizer search, a bounded exhaustive enumeration.

    Rank vectors (one rank per graded piece) are tried in descending order
    of their slope bound; for each, every pick of lines from the pieces'
    saturating pools is saturated afresh with from_chart0_span, its degree
    solved for, and kept if it is invariant under the connecting maps and
    lex-beats (slope, rank) of the best so far.  Returns the first hit or
    the lex-maximal DestabilizerReport, or None; raises
    SearchBudgetExceeded past budget_limit lines and picks."""
    if not G.curve.is_projective:
        return None
    mu_G = G.slope()
    tps = [P.splitting_type() for P in G.pieces]
    global_low = min(min(tp) for tp in tps)
    budget = _Budget(budget_limit)
    pools = {}

    vectors = []
    for rho in itertools.product(*(range(P.rank + 1) for P in G.pieces)):
        total = sum(rho)
        if total == 0 or total == G.rank:
            continue
        ub = Fraction(sum(sum(tps[i][: rho[i]]) for i in range(len(rho))), total)
        vectors.append((ub, total, rho))
    vectors.sort(key=lambda v: (-v[0], -v[1], v[2]))

    best = None
    for ub, total, rho in vectors:
        if ub <= mu_G:
            break
        if best is not None and not _lex_gt((ub, total), (best.mu_max, best.r_max)):
            continue
        target = None if best is None else (best.mu_max, best.r_max)
        need = _min_degree_for(target, total, mu_G)
        caps = []
        for i, r in enumerate(rho):
            caps.extend(tps[i][:r])
        total_cap = sum(caps)
        if total_cap < need:
            continue
        grade_pools = []
        feasible = True
        for i, r in enumerate(rho):
            if r == 0:
                grade_pools.append([()])
                continue
            low_i = max(global_low, need - (total_cap - min(tps[i][:r])))
            if i not in pools:
                pools[i] = SaturatingLinePool(G.pieces[i], budget)
            lines = pools[i].ensure(low_i)
            if len(lines) < r:
                feasible = False
                break
            grade_pools.append(list(itertools.combinations(lines, r)))
        if not feasible:
            continue
        for pick in itertools.product(*grade_pools):
            budget.spend("span")
            chosen = []
            ok = True
            for i, bunch in enumerate(pick):
                if not bunch:
                    chosen.append(None)
                    continue
                cols = bunch[0].basis[0]
                for L in bunch[1:]:
                    cols = cols.hstack(L.basis[0])
                W = Subbundle.from_chart0_span(G.pieces[i], cols)
                if W.rank != rho[i]:
                    ok = False
                    break
                chosen.append(W)
            if not ok:
                continue
            deg = sum(W.degree() for W in chosen if W is not None)
            mu = Fraction(deg, total)
            if mu <= mu_G:
                continue
            if best is not None and not _lex_gt((mu, total), (best.mu_max, best.r_max)):
                continue
            if not _invariant_chain(G, chosen):
                continue
            best = DestabilizerReport(tuple(chosen), mu, total)
            if first_hit:
                return best
    return best


def destabilizer_theta_closure(G):
    """Heuristic destabilizer: close the per-piece maximal-slope subbundles
    under the connecting maps and saturate.  A cross-check for the
    enumeration, never authoritative."""
    if not G.curve.is_projective:
        return None
    chosen = []
    for P in G.pieces:
        tp = P.splitting_type()
        if tp[0] > G.slope():
            chosen.append(hn_filtration(P)[0])
        else:
            chosen.append(None)
    changed = True
    while changed:
        changed = False
        for k in range(len(G.maps)):
            src = chosen[k + 1]
            if src is None:
                continue
            image = G.maps[k][0].mul(src.basis[0])
            if image.is_zero():
                continue
            tgt = chosen[k]
            if tgt is None:
                grown = Subbundle.from_chart0_span(G.pieces[k], image)
                chosen[k] = grown
                changed = True
            elif not tgt.contains_chart0(image):
                cols = tgt.basis[0].hstack(image)
                chosen[k] = Subbundle.from_chart0_span(G.pieces[k], cols)
                changed = True
    ranks = sum(S.rank for S in chosen if S is not None)
    if ranks == 0 or ranks == G.rank:
        return None
    deg = sum(S.degree() for S in chosen if S is not None)
    mu = Fraction(deg, ranks)
    if mu <= G.slope():
        return None
    return DestabilizerReport(tuple(chosen), mu, ranks)


def frobenius_pullback(obj):
    """Pullback along the p-power map of the base: t -> t^p in transitions
    and matrices, coefficients through the Frobenius.  Characteristic p only.
    Higgs and connection matrices carry no dF factor here, so the pulled
    matrices satisfy the chart rule only up to the factor the level-one
    transform later restores."""
    d = (obj.bundle if hasattr(obj, "bundle") else obj).domain
    if getattr(d, "m", 1) != 1:
        raise WrongModulus("Frobenius pullback is a characteristic-p operation")
    if isinstance(obj, Bundle):
        if not obj.curve.is_projective:
            return Bundle(obj.curve, obj.rank)
        return Bundle(obj.curve, obj.rank, frobenius_pullback_matrix(obj.transition))
    if isinstance(obj, HiggsBundle):
        return HiggsBundle(
            frobenius_pullback(obj.bundle),
            tuple(frobenius_pullback_matrix(T) for T in obj.theta),
        )
    if isinstance(obj, FlatBundle):
        return FlatBundle(
            frobenius_pullback(obj.bundle),
            tuple(frobenius_pullback_matrix(A) for A in obj.A),
        )
    raise TypeError("no Frobenius pullback for %r" % (obj,))


# ---------------------------------------------------------------------------
# the level-one transform without shared state: every call checks the Higgs
# field, pulls it back, multiplies out its exponentials and builds and
# validates its transforms afresh


def nilpotent_matrix_exp(M):
    """exp(M) for a nilpotent matrix; the nilpotency index must stay below p
    so every factorial in the series is invertible."""
    d = M.domain
    p = d.p
    acc = RingMatrix.identity(d, M.nrows)
    term = RingMatrix.identity(d, M.nrows)
    k = 0
    while True:
        term = term.mul(M)
        if term.is_zero():
            return acc
        k += 1
        if k >= p:
            raise ExponentTooLarge(
                "matrix is not nilpotent of index below p=%d" % p
            )
        inv_fact = d.coerce(1)
        for i in range(2, k + 1):
            inv_fact = d.mul(inv_fact, d.coerce(i))
        acc = acc.add(term.scale_const(d.inv(inv_fact)))


def nilpotency_index(higgs):
    """Least k with Theta^k = 0, or None if not nilpotent."""
    d = higgs.bundle.domain
    M = higgs.theta[0]
    power = RingMatrix.identity(d, higgs.bundle.rank)
    for k in range(higgs.bundle.rank + 1):
        if power.is_zero():
            return k
        power = power.mul(M)
    if power.is_zero():
        return higgs.bundle.rank + 1
    return None


def unshared_check_nilpotency(higgs):
    """Nilpotency index of the Higgs matrix; must stay below p."""
    idx = nilpotency_index(higgs)
    p = higgs.bundle.domain.p
    if idx is None or idx > p - 1:
        raise ExponentTooLarge(
            "Higgs field must be nilpotent of index at most p-1"
        )
    return idx


def unshared_inverse_cartier_1(higgs, lifting=None):
    """The inverse transform at level one: a flat bundle whose degree is p
    times the input degree.  The atlas defaults to the standard lifting."""
    _check_mod_p(higgs)
    unshared_check_nilpotency(higgs)
    return unshared_transform(higgs, pullback_higgs_matrices(higgs), lifting)


def unshared_transform(higgs, pulled, lifting):
    """The level-one transform of a checked Higgs bundle from its pulled
    Higgs matrices, validated on P^1."""
    u, z_cross = _atlas_data(higgs, lifting)
    A = tuple(pulled[c].scale(u[c]) for c in range(len(pulled)))
    curve = higgs.bundle.curve
    if not curve.is_projective:
        return FlatBundle(Bundle(curve, higgs.bundle.rank), A)
    tau = frobenius_pullback_matrix(higgs.bundle.transition)
    if z_cross is not None and not z_cross.is_zero():
        tau = tau.mul(nilpotent_matrix_exp(pulled[0].scale(z_cross)))
    return FlatBundle(Bundle(curve, higgs.bundle.rank, tau), A).validate()


def unshared_lifting_change_transport(higgs, lift_from, lift_to):
    """The isomorphism between the transforms for two atlases: chartwise
    exp(z * pullback of Theta) with z = (F_from - F_to)/p.  The Higgs field
    is checked and pulled back once, and the map and both transforms share
    the pulled matrices."""
    d = higgs.bundle.domain
    zs = [lift_from.z_same_chart(lift_to, c, d) for c in range(len(higgs.theta))]
    unshared_check_nilpotency(higgs)
    _check_mod_p(higgs)
    pulled = pullback_higgs_matrices(higgs)
    mats = tuple(nilpotent_matrix_exp(N.scale(z)) for N, z in zip(pulled, zs))
    src = unshared_transform(higgs, pulled, lift_from)
    dst = unshared_transform(higgs, pulled, lift_to)
    return BundleMap(src.bundle, dst.bundle, mats), src, dst


def factored_splitting_type(bundle):
    """Bundle.splitting_type when every rank went through split_data."""
    return list(bundle.split_data().exponents)


def expanded_degree(bundle):
    """Bundle.degree when it expanded the transition's determinant."""
    if not bundle.curve.is_projective:
        return 0
    return -laurent_unit_exponent(bundle.transition.det())


# ---------------------------------------------------------------------------
# constructors and comparisons that only the tests use: the library's
# FlatBundle.from_chart0, BundleMap.from_chart0, Subbundle.same_as,
# HodgeFiltration.__eq__ and TwistedFlatModule.n, as functions


def flat_from_chart0(bundle, a0):
    A = per_chart(a0, chart1_connection, bundle, bundle, "connection")
    return FlatBundle(bundle, A)


def map_from_chart0(source, target, phi0):
    return BundleMap(source, target, per_chart(phi0, chart1_map, source, target, "map"))


def same_as(sub, other):
    return (
        sub.rank == other.rank
        and sub.parent == other.parent
        and other.contains_chart0(sub.basis[0])
        and sub.contains_chart0(other.basis[0])
    )


def filtrations_equal(fil, other):
    return (
        isinstance(other, HodgeFiltration)
        and fil.parent == other.parent
        and fil.level == other.level
        and all(
            a.rank == b.rank and same_as(a, b)
            for a, b in zip(fil.steps, other.steps)
        )
    )


def modulus_power(tw):
    return tw.ring.m


# ---------------------------------------------------------------------------
# cross-checks of library outputs against the paper's claims


def respects_higgs(bundle_map, higgs_source, higgs_target):
    """phi is a map of Higgs bundles: phi Theta_A = Theta_B phi chartwise."""
    return all(
        bundle_map.phi[c].mul(higgs_source.theta[c])
        == higgs_target.theta[c].mul(bundle_map.phi[c])
        for c in range(len(bundle_map.phi))
    )


def level_at_most(module, bound, hs_samples, cols):
    """True when every (bound+1)-fold composite from the samples kills
    every sample column."""
    for hs in hs_samples:
        if len(hs) != bound + 1:
            raise ValueError("need bound+1 derivations per composite")
        for col in cols:
            v = col
            for h in reversed(hs):
                v = module.apply(h, v)
            if not v.is_zero():
                return False
    return True


def leibniz_check(module, f, cols):
    """nabla(f v) - f nabla(v) = p f' v, exactly, on the given columns."""
    one = LaurentPoly.one(module.ring)
    p = module.ring.coerce(module.ring.p)
    for col in cols:
        lhs = module.apply(one, col.scale(f)).sub(module.apply(one, col).scale(f))
        rhs = col.scale(f.derivative()).scale_const(p)
        if not lhs.sub(rhs).is_zero():
            return False
    return True


def equivalence_gamma_check(tw_a, tw_b, L, rng):
    """The intertwiner also carries the divided operators across: checks
    L gamma_b(v) = gamma_a(L v) on sampled derivations and sections."""
    ring = tw_a.ring
    p = ring.p
    for _ in range(3):
        for m in (0, 1):
            hs = [random_poly(rng, ring, 2) for _ in range(p - 1 + m)]
            v = _random_col(rng, ring, tw_a.rank, 2)
            lhs = L.mul(tw_b.gamma(m, hs, v))
            rhs = tw_a.gamma(m, hs, L.mul(v))
            if not lhs.sub(rhs).is_zero():
                return False
    return True



def filtration_lift_candidates(tup, coefficients, exponents):
    """Sweep one-parameter deformations of the coordinate flag by p^(n-1)
    monomials, one flag direction and one ambient row at a time; the
    deformed direction is changed in every step that contains it, so the
    steps stay nested.  Returns (entry, steps, flow step or None) per
    deformation, None when the flow step rejects the filtration."""
    ring = tup.ring
    ranks = tup.ranks
    rank = sum(ranks)
    starts = block_starts(ranks)
    grade_of = []
    for g, r in enumerate(ranks):
        grade_of.extend([g] * r)
    positions = [
        (d, i)
        for d in range(rank)
        if grade_of[d] >= 1
        for i in range(starts[grade_of[d]])
    ]
    entries = [()]
    entries += [
        ((d, i, c, e),)
        for (d, i) in positions
        for c in coefficients
        for e in exponents
    ]
    out = []
    for entry in entries:
        deltas = []
        for step in range(1, len(ranks)):
            start = starts[step]
            D = RingMatrix.zeros(ring, rank, rank - start)
            for (d, i, c, e) in entry:
                if d >= start:
                    D.rows[i][d - start] = LaurentPoly.monomial(
                        ring, ring.coerce(c), e
                    )
            deltas.append(D)
        scale = ring.coerce(ring.p ** (ring.m - 1))
        steps = tuple(
            S.add(D.scale_const(scale))
            for S, D in zip(filtration_steps_from_flag(tup, ring), deltas)
        )
        try:
            res = w2_flow_step(tup, steps)
        except (NoLiftedFiltration, TransversalityViolated):
            res = None
        out.append((entry, steps, res))
    return out


def horizontal_transport(flat, cols_a, cols_b):
    """Automorphism 1 + p^(n-1) S of a flat module, horizontal and carrying
    the first filtration onto the second; None when S on the monomial window
    t^-1..t^2 holds no such transport."""
    ring = flat.bundle.domain
    p, n = ring.p, ring.m
    field = Zmod(p, 1)
    rank = flat.bundle.rank
    Abar = flat.A[0].reduce_to(field)
    system = WindowSystem.square(field, [rank], range(-1, 3))
    # horizontality: dS + Abar S - S Abar = 0 over the residue field
    system.add_derivative(("h",), 0)
    system.add_product(("h",), 0, left=Abar)
    system.add_product(("h",), 0, right=Abar, coef=-1)
    # transport: columns of a, plus p^(n-1) S a, must lie in the span of b;
    # the difference (a - b) is p^(n-1) times a residue matrix
    for ncol in range(cols_a.ncols):
        col_a = cols_a.columns([ncol])
        try:
            diff = col_a.sub(cols_b.columns([ncol])).p_divide(n - 1, field)
        except NotDivisible:
            return None
        system.add_rhs_matrix(("t", ncol), diff, -1)
        system.add_product(("t", ncol), 0, right=col_a.reduce_to(field))
    rows = system.rows()
    if not rows:
        return None
    try:
        sol = solve_linear_mod(rows, field, system.ncols)
    except NoSolution:
        return None
    S = system.matrices(sol.particular)[0].lift_to(ring)
    U = RingMatrix.identity(ring, rank).add(
        S.scale_const(ring.coerce(p ** (n - 1)))
    )
    if not flat.covariant_derivative(U).sub(U.mul(flat.A[0])).is_zero():
        return None
    return U


def spy_packed_products(monkeypatch):
    """Count, by slot width in bytes, the operands each caller of
    ringmath._products packs: {(caller name, width): operands}.  A caller
    absent from the counts multiplied every product pair by pair."""
    packed = collections.Counter()
    pack = ringmath._pack

    def spy(f, code):
        frame = sys._getframe(1)
        while frame.f_code.co_name != "_products":
            frame = frame.f_back
        packed[frame.f_back.f_code.co_name, array(code).itemsize] += 1
        return pack(f, code)

    monkeypatch.setattr(ringmath, "_pack", spy)
    return packed
