"""Truncated-Witt stage of the inverse transform, on a single chart.

Everything here is chart-local: modules are free over Z/p^n[t, 1/t] with a
grade-ascending basis, the Hodge filtration is the coordinate flag, and all
p-adic bookkeeping is exact.  The module provides the two presentations of
the twisted module attached to a filtered lifting (choice-of-lifting and
glued-transversal-pieces), the divided operators that stand in for dividing
connection powers by factorials, the Frobenius pullback with its Taylor
transitions between liftings, and the full-precision flow step.

Conventions:
  * connection matrices act on coordinate columns, nabla(v) = dv + A v dt,
    and a p-connection reads nabla(v) = p dv + B v dt;
  * the block sending grade g to grade g' sits at row block g', column
    block g; grade-lowering blocks beyond one step must vanish;
  * rescaling block (g', g) of a filtered connection matrix by p^(g'-g+1)
    yields the p-connection matrix of the twisted module.
"""

import random
from dataclasses import dataclass, field

from .bundles import Bundle, FlatBundle, HiggsBundle, change_frame_connection
from .cartier import inverse_cartier_1
from .curves import AffineLine, FrobeniusLifting
from .errors import (
    CertificateFailed,
    LevelTooHigh,
    NoLiftedFiltration,
    NonInvertible,
    NoSolution,
    NotDivisible,
    SearchBudgetExceeded,
    TransversalityViolated,
    WrongModulus,
)
from .ringmath import (
    LaurentPoly,
    RingMatrix,
    WindowSystem,
    Zmod,
    _products,
    _substitute,
    block_starts,
    random_poly,
    solve_linear_mod,
    unit_search,
)

# Candidates unit_search may try for an invertible intertwiner on each
# window of equivalence_check's schedule before it moves to the next
# window, or gives up on the last.
EQUIVALENCE_BUDGET = 4000


# ---------------------------------------------------------------------------
# block layouts


def theta_total_matrix(ring, ranks, theta):
    """Total matrix of a graded map: the blocks one step below the diagonal
    in the grade-ascending layout, all other blocks zero."""
    blocks = {(g, g + 1): T for g, T in enumerate(theta)}
    return RingMatrix.from_blocks(ring, ranks, ranks, blocks)


def ptwist_matrix(A, ranks):
    """p-connection matrix of the twisted module: block (g', g) of the
    filtered connection matrix is rescaled by p^(g'-g+1); the grade-lowering
    blocks beyond one step must already vanish."""
    ring = A.domain
    if not A.is_block_lower(ranks, 1):
        raise TransversalityViolated("connection matrix drops more than one grade")
    blocks = {
        (gp, g): A.block(ranks, gp, g).scale_const(ring.coerce(ring.p ** (gp - g + 1)))
        for gp in range(len(ranks))
        for g in range(min(gp + 2, len(ranks)))
    }
    return RingMatrix.from_blocks(ring, ranks, ranks, blocks)


# ---------------------------------------------------------------------------
# p-connection modules and divided operators


@dataclass
class PConnectionModule:
    """Free module over one chart mod p^n with nabla(v) = p dv + B v dt.

    The Leibniz rule reads nabla(f v) = p df v + f nabla(v); integrability
    is automatic in one variable.
    """

    ring: Zmod
    rank: int
    matrix: RingMatrix

    def __post_init__(self):
        if not isinstance(self.ring, Zmod):
            raise WrongModulus("p-connection modules live over Z/p^n")
        if self.matrix.nrows != self.rank or self.matrix.ncols != self.rank:
            raise ValueError("p-connection matrix shape mismatch")
        if self.matrix.domain != self.ring:
            raise WrongModulus("p-connection matrix over the wrong ring")

    def apply(self, h, col):
        """nabla against the derivation h * d/dt."""
        p = self.ring.coerce(self.ring.p)
        return col.derivative().scale_const(p).add(self.matrix.mul(col)).scale(h)


def _divided_step(A, h, X):
    """h (dX/dt + A X): one _products of the rows of [A | I] against the
    columns of [X; dX/dt], each entry times h."""
    d, k, one = A.domain, A.ncols, {0: A.domain.one}
    rows = [[(j, a.coeffs) for j, a in enumerate(arow) if a.coeffs] + [(k + i, one)]
            for i, arow in enumerate(A.rows)]
    cols = [[e.coeffs for e in col] + [d.poly_derivative(e.coeffs) for e in col]
            for col in zip(*X.rows)]
    return RingMatrix._trusted(d, _products(d, rows, cols, h.coeffs))


def _live_parts(ranks, X):
    """The grade parts of X that a divided operator propagates: part g keeps
    the grade-g rows of X and zeros elsewhere, for each grade g >= p - n
    whose rows are not all zero."""
    ring = X.domain
    starts = block_starts(ranks)
    zero_row = [LaurentPoly.zero(ring)] * X.ncols
    parts = {}
    for g, (a, b) in enumerate(zip(starts, starts[1:])):
        if g >= ring.p - ring.m and any(not e.is_zero() for row in X.rows[a:b] for e in row):
            parts[g] = RingMatrix(
                ring, [X.rows[i] if a <= i < b else zero_row for i in range(starts[-1])]
            )
    return parts


def _fold(A, hs, parts):
    """h (d/dt + A) on every part for each h in hs, the last first, so that
    _fold(A, hs, parts) == _fold(A, hs[:k], _fold(A, hs[k:], parts))."""
    for h in reversed(hs):
        parts = {g: _divided_step(A, h, comp) for g, comp in parts.items()}
    return parts


def _pay_back(ring, ranks, parts, k):
    """Sum of the folded parts, as a rank x k matrix, each paid back its
    slot deficit: the part that started at grade g0 ends in slot
    g0 - (p - 1), so its row-grade-g coordinates are scaled by
    p^(g - g0 + p - 1).  Coordinates whose exponent reaches n are skipped,
    and a nonzero coordinate below the slot fails the certificate."""
    p, n = ring.p, ring.m
    starts = block_starts(ranks)
    zero_row = [LaurentPoly.zero(ring)] * k
    out = RingMatrix.zeros(ring, starts[-1], k)
    for g0, comp in parts.items():
        rows = [zero_row] * starts[-1]
        for g, (a, b) in enumerate(zip(starts, starts[1:])):
            e = g - g0 + p - 1
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


def gamma_apply(A, ranks, m, hs, X):
    """Divided operator of order (p - 1 + m) on the columns of X, each a
    section of the twisted module, evaluated without ever dividing by p.

    A section's grade-g part starts in slot g; the first p - 1 steps apply
    h (d/dt + A) and drop one slot, the last m apply the same expression
    without the drop (these are the steps already divided by p), and the
    final slot deficit is paid back as explicit p-powers.  As exactly p - 1
    steps drop a slot, the pay-back does not depend on m: the operator is
    _pay_back of _fold over hs of _live_parts(X), and a chain folded over
    hs[k:] resumes over hs[:k] at any weight, which is how the Taylor terms
    and gamma_relations_check share their chains.  A part with g0 < p - n
    vanishes mod p^n in every row and is never propagated (nor could it
    fail the slot certificate, its exponent being at least n on every row
    grade); when the top grade is below p - n the operator is zero.  Each
    step is _divided_step: one _products of [A | I] against [X; dX/dt],
    times h, reduced once per entry.
    """
    ring = A.domain
    if len(hs) != ring.p - 1 + m:
        raise ValueError("divided operator of weight m needs p-1+m derivations")
    return _pay_back(ring, ranks, _fold(A, hs, _live_parts(ranks, X)), X.ncols)


@dataclass
class TwistedFlatModule:
    """A p-connection module together with the filtered lifting it twists
    and the divided operators that the lifting makes available."""

    ring: Zmod
    ranks: tuple
    lift: RingMatrix
    module: PConnectionModule
    _taylor: list = field(default=None, init=False, repr=False, compare=False)

    @property
    def p(self):
        return self.ring.p

    @property
    def rank(self):
        return sum(self.ranks)

    def nabla(self, h, col):
        return self.module.apply(h, col)

    def gamma(self, m, hs, col):
        return gamma_apply(self.lift, self.ranks, m, hs, col)

    def _taylor_terms(self, count):
        """Divided Taylor terms T_j, j < count, built once: nabla^j/j! below p,
        then p^(j+1-p)/j! times the weight j+1-p divided operator (None where
        that coefficient vanishes mod p^n), all on the identity.  Every
        divided term comes from one h = 1 chain on the live parts of the
        identity: T_j is the coefficient times the pay-back of the state
        after j steps, and the chain stops at the last nonzero coefficient."""
        ring, p, one = self.ring, self.p, LaurentPoly.one(self.ring)
        if self._taylor is None or len(self._taylor) < count:
            current = RingMatrix.identity(ring, self.rank)
            terms, fact = [current], 1
            for j in range(1, p):
                fact *= j
                current = self.nabla(one, current)
                terms.append(current.scale_const(ring.inv(ring.coerce(fact))))
            state, steps = _live_parts(self.ranks, terms[0]), 0
            for j in range(p, count):
                c, term = taylor_coefficient(ring, j), None
                if c:
                    state, steps = _fold(self.lift, [one] * (j - steps), state), j
                    term = _pay_back(ring, self.ranks, state, self.rank).scale_const(c)
                terms.append(term)
            self._taylor = terms
        return self._taylor[:count]


# ---------------------------------------------------------------------------
# input data for one truncated-Witt step


@dataclass
class LiftingInputTuple:
    """Input for one full-precision step: a graded Higgs module mod p^n, the
    one-level-down de Rham side presented on the coordinate flag, and the
    grading comparison between them.

    theta[g] maps grade g+1 to grade g.  At n = 1 the de Rham data is absent
    and the input degenerates to the graded Higgs module alone.  A tuple is
    a value: do not reassign its fields after construction.
    """

    ring: Zmod
    ranks: tuple
    theta: tuple
    abar: object = None
    psibar: object = None
    frob_frame: object = None
    _psidet: list = field(default=None, init=False, repr=False, compare=False)
    _adapted: RingMatrix = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.ring, Zmod):
            raise WrongModulus("input tuples live over Z/p^n")
        self.ranks = tuple(int(r) for r in self.ranks)
        if not self.ranks or any(r <= 0 for r in self.ranks):
            raise ValueError("graded piece ranks must be positive")
        if self.weight > self.p - 2:
            raise LevelTooHigh(
                "weight %d exceeds p-2 = %d" % (self.weight, self.p - 2)
            )
        self.theta = tuple(self.theta)
        if len(self.theta) != self.weight:
            raise ValueError("one Higgs block per adjacent grade pair required")
        for g, T in enumerate(self.theta):
            if T.domain != self.ring:
                raise WrongModulus("Higgs block over the wrong ring")
            if T.nrows != self.ranks[g] or T.ncols != self.ranks[g + 1]:
                raise ValueError("Higgs block shape mismatch at grade %d" % g)
        if self.n == 1:
            if self.abar is not None or self.psibar is not None:
                raise ValueError("one-level inputs carry no de Rham data")
            return
        if self.abar is None or self.psibar is None:
            raise ValueError("full-precision inputs need the de Rham side")
        down = self.down_ring
        if self.abar.domain != down:
            raise WrongModulus("de Rham matrix must live one level down")
        if self.abar.nrows != self.rank or self.abar.ncols != self.rank:
            raise ValueError("de Rham matrix shape mismatch")
        if not self.abar.is_block_lower(self.ranks, 1):
            raise TransversalityViolated("de Rham matrix drops more than one grade")
        self.psibar = tuple(self.psibar)
        if len(self.psibar) != len(self.ranks):
            raise ValueError("one comparison block per grade required")
        self._psidet = []
        for g, P in enumerate(self.psibar):
            if P.domain != down:
                raise WrongModulus("comparison block over the wrong ring")
            if P.nrows != self.ranks[g] or P.ncols != self.ranks[g]:
                raise ValueError("comparison block shape mismatch at grade %d" % g)
            self._psidet.append(P.det())
            if not self._psidet[-1].is_unit():
                raise NonInvertible("comparison block at grade %d is singular" % g)
        for g in range(self.weight):
            lhs = self.psibar[g].mul(self.abar.block(self.ranks, g, g + 1))
            rhs = self.theta[g].reduce_to(down).mul(self.psibar[g + 1])
            if not lhs.sub(rhs).is_zero():
                raise CertificateFailed(
                    "grading comparison does not carry the graded connection "
                    "to the Higgs field",
                    part="psi-compat",
                )
        if self.frob_frame is not None:
            W = self.frob_frame
            if W.domain != down:
                raise WrongModulus("frame matrix must live one level down")
            if W.nrows != self.rank or W.ncols != self.rank:
                raise ValueError("frame matrix shape mismatch")
            if not W.is_block_lower(self.ranks, 0):
                raise ValueError("frame matrix must respect the flag")
            if not W.det().is_unit():
                raise NonInvertible("frame matrix is singular")

    @property
    def p(self):
        return self.ring.p

    @property
    def n(self):
        return self.ring.m

    @property
    def weight(self):
        return len(self.ranks) - 1

    @property
    def rank(self):
        return sum(self.ranks)

    @property
    def down_ring(self):
        return Zmod(self.p, self.n - 1)

    def theta_total(self):
        return theta_total_matrix(self.ring, self.ranks, self.theta)


def reduce_tuple(tup):
    """The same input one level of precision down."""
    if tup.n == 1:
        raise WrongModulus("already at one level of precision")
    down = tup.down_ring
    theta = tuple(T.reduce_to(down) for T in tup.theta)
    if tup.n == 2:
        return LiftingInputTuple(down, tup.ranks, theta)
    dd = Zmod(tup.p, tup.n - 2)
    return LiftingInputTuple(
        down,
        tup.ranks,
        theta,
        tup.abar.reduce_to(dd),
        tuple(P.reduce_to(dd) for P in tup.psibar),
        None if tup.frob_frame is None else tup.frob_frame.reduce_to(dd),
    )


# ---------------------------------------------------------------------------
# the two presentations of the twisted module


def adapted_dr_matrix(tup):
    """The one-level-down connection rewritten in the frame where the
    grading comparison becomes the identity: conjugation by the block
    diagonal of the comparison, plus the frame derivative term.  Computed
    once, dividing each block's adjugate by the determinant validation took,
    and cached on the tuple: do not mutate the returned matrix."""
    if tup._adapted is None:
        down = tup.down_ring
        Psi = RingMatrix.block_diagonal(down, tup.psibar)
        inv = [P.adjugate().scale(d.inverse_unit()) for P, d in zip(tup.psibar, tup._psidet)]
        Psinv = RingMatrix.block_diagonal(down, inv)
        tup._adapted = change_frame_connection(tup.abar, Psi, Psinv)
    return tup._adapted


def local_filtered_lifting(tup):
    """Filtered connection matrix mod p^n reducing to the adapted one-level-
    down matrix and whose grade-lowering blocks are exactly the Higgs blocks.

    Lifts of the diagonal-and-below blocks use least residues; the choice is
    invisible after the twist.
    """
    ring = tup.ring
    if tup.n == 1:
        return tup.theta_total()
    ranks = tup.ranks
    adapted = adapted_dr_matrix(tup)
    blocks = {
        (gp, g): adapted.block(ranks, gp, g).lift_to(ring)
        for gp in range(len(ranks))
        for g in range(gp + 1)
    }
    blocks.update({(g, g + 1): T for g, T in enumerate(tup.theta)})
    return RingMatrix.from_blocks(ring, ranks, ranks, blocks)


def gn_construct(tup, frame=None):
    """Twisted module from the filtered lifting of local_filtered_lifting;
    frame rewrites the lifting in another flag-respecting basis.  Any other
    lifting of the same data gives the same p-connection matrix."""
    ring = tup.ring
    A = local_filtered_lifting(tup)
    if frame is not None:
        if frame.domain != ring:
            raise WrongModulus("frame over the wrong ring")
        if not frame.is_block_lower(tup.ranks, 0):
            raise ValueError("frame must respect the flag")
        try:
            finv = frame.inverse()
        except NonInvertible:
            raise NonInvertible("frame is singular") from None
        A = change_frame_connection(A, finv, frame)
    B = ptwist_matrix(A, tup.ranks)
    return TwistedFlatModule(ring, tup.ranks, A, PConnectionModule(ring, tup.rank, B))


def sharp_construct(tup):
    """Twisted module from the glued transversal pieces.

    Each filtration step is glued to the graded piece it surjects onto; a
    stored block is pushed up one level per p-factor it picks up, so block
    (g', g) of the result carries p^(g'-g+1) times the canonical lift while
    the grade-lowering blocks stay the exact Higgs blocks.  No choices
    remain free.
    """
    ring = tup.ring
    p = ring.p
    ranks = tup.ranks
    A = local_filtered_lifting(tup)
    blocks = {(g, g + 1): T for g, T in enumerate(tup.theta)}
    if tup.n > 1:
        for g in range(len(ranks)):
            carry = p
            for gp in range(g, len(ranks)):
                blocks[(gp, g)] = A.block(ranks, gp, g).scale_const(ring.coerce(carry))
                carry = (carry * p) % ring.modulus
    B = RingMatrix.from_blocks(ring, ranks, ranks, blocks)
    return TwistedFlatModule(ring, ranks, A, PConnectionModule(ring, tup.rank, B))


def equivalence_check(tw_a, tw_b):
    """Explicit isomorphism intertwining two presentations of the twisted
    module: an invertible L with p dL + B_a L = L B_b, found by exact linear
    algebra over Z/p^n on a monomial window.  It tries -k..k for k = 1, 2,
    4, ..., clamped to the default window, and returns the first invertible
    L; the default window runs from one below the exponents of B_a and B_b
    (0 included) to two above them, and is the last one tried.

    Raises NoSolution when no L on the last window solves the equation or
    unit_search proves that none there is invertible, and
    SearchBudgetExceeded when unit_search spends EQUIVALENCE_BUDGET
    candidates without finding one; unit_search's errors carry its stage,
    work and kernel size and the window in their bounds, and every error
    also lists the windows tried."""
    if tw_a.ring != tw_b.ring or tw_a.ranks != tw_b.ranks:
        raise ValueError("presentations of different modules")
    Ba, Bb = tw_a.module.matrix, tw_b.module.matrix
    if Ba.sub(Bb).is_zero():
        return RingMatrix.identity(tw_a.ring, tw_a.rank)
    exps = [e for M in (Ba, Bb) for row in M.rows for x in row for e in x.coeffs]
    lo, hi = min(exps + [0]) - 1, max(exps + [0]) + 2
    windows, k = [], 1
    while not windows or windows[-1] != (lo, hi):
        windows.append((max(-k, lo), min(k, hi)))
        k *= 2
    for window in windows:
        try:
            return _window_intertwiner(tw_a.ring, Ba, Bb, window)
        except (NoSolution, SearchBudgetExceeded) as err:
            if window == windows[-1]:
                err.bounds["windows"] = windows
                raise


def _window_intertwiner(ring, Ba, Bb, window):
    """equivalence_check on one monomial window."""
    system = WindowSystem.square(ring, [Ba.nrows], range(window[0], window[1] + 1))
    p = ring.p
    system.add_derivative((), 0, p)
    system.add_product((), 0, left=Ba)
    system.add_product((), 0, right=Bb, coef=-1)
    gens = solve_linear_mod(system.rows(), ring, system.ncols).kernel
    if not gens:
        raise NoSolution("no intertwiner on the given monomial window",
                         bounds={"window": window})
    unit = lambda vec: system.matrices(vec)[0].det().is_unit()
    try:
        L = system.matrices(unit_search(ring, gens, unit, EQUIVALENCE_BUDGET))[0]
    except (NoSolution, SearchBudgetExceeded) as err:
        err.bounds["window"] = window
        raise
    defect = L.derivative().scale_const(ring.coerce(p)).add(Ba.mul(L)).sub(L.mul(Bb))
    if not defect.is_zero():
        raise CertificateFailed("intertwiner fails p dL + B_a L = L B_b", part="intertwiner")
    return L


# ---------------------------------------------------------------------------
# divided-operator relations


def _random_col(rng, ring, rank, deg):
    return RingMatrix(ring, [[random_poly(rng, ring, deg)] for _ in range(rank)])


def gamma_relations_check(tw, rng=None, samples=2, m=1):
    """Evaluate both sides of the six defining relations of the divided
    operators on sampled derivations and sections; every comparison is an
    exact identity mod p^n.  Returns a dict of booleans, one per relation.

    The pay-back does not depend on the weight, so sides share chains: hs
    is folded once, keeping the state after each suffix hs[k:], from which
    linearity's, function's and swap's other chains resume; merge's long
    chain resumes from inner's state and shift's right side from mid's.
    Every compared value equals a separate evaluation of its side.
    """
    if rng is None:
        rng = random.Random(0)
    ring, ranks = tw.ring, tw.ranks
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

    def resume(hs, state):
        return _pay_back(ring, ranks, _fold(tw.lift, hs, state), 1)

    for _ in range(samples):
        v = _random_col(rng, ring, tw.rank, 2)
        f = random_poly(rng, ring, 2)

        hs = [random_poly(rng, ring, 2) for _ in range(p - 1 + m)]
        # suffix[k]: the live parts of v after hs[k:]
        live = _live_parts(ranks, v)
        suffix = [live]
        for h in reversed(hs):
            suffix.insert(0, _fold(tw.lift, [h], suffix[0]))
        gam = resume([], suffix[0])
        if gam.scale_const(ring.coerce(p ** m)) != nab_chain(hs, v):
            report["scaling"] = False

        a = ring.coerce(rng.randrange(ring.modulus))
        b = ring.coerce(rng.randrange(ring.modulus))
        extra = random_poly(rng, ring, 2)
        slot = rng.randrange(p - 1 + m)
        mixed = hs[slot].scale(a).add(extra.scale(b))
        lhs = resume(hs[:slot] + [mixed], suffix[slot + 1])
        second = resume(hs[:slot] + [extra], suffix[slot + 1])
        if lhs != gam.scale_const(a).add(second.scale_const(b)):
            report["linearity"] = False

        lhs = tw.gamma(m, hs, v.scale(f))
        rhs = gam.scale(f)
        for i in range(1, p - 1 + m):
            merged = hs[: i - 1] + [hs[i - 1].mul(f.derivative()).mul(hs[i])]
            rhs = rhs.add(resume(merged, suffix[i + 1]))
        tail = hs[-1].mul(f.derivative())
        rhs = rhs.add(tw.gamma(m - 1, hs[:-1], v.scale(tail)))
        if lhs != rhs:
            report["function"] = False

        i = rng.randrange(p - 2 + m)
        bracket = hs[i].mul(hs[i + 1].derivative()).sub(
            hs[i + 1].mul(hs[i].derivative())
        )
        rhs = resume(hs[:i] + [hs[i + 1], hs[i]], suffix[i + 2]).add(
            resume(hs[:i] + [bracket], suffix[i + 2])
        )
        if gam != rhs:
            report["swap"] = False

        m1, m2 = 0, m
        both = [random_poly(rng, ring, 2) for _ in range(2 * p - 2 + m1 + m2)]
        inner = _fold(tw.lift, both[p - 1 + m1 :], live)
        lhs = tw.gamma(m1, both[: p - 1 + m1], resume([], inner))
        rhs = resume(both[: p - 1 + m1], inner).scale_const(ring.coerce(p ** (p - 1)))
        if lhs != rhs:
            report["merge"] = False

        long_hs = [random_poly(rng, ring, 2) for _ in range(p + m)]
        left = tw.gamma(m, long_hs[:-1], tw.nabla(long_hs[-1], v))
        state = _fold(tw.lift, long_hs[1:], live)
        mid = tw.nabla(long_hs[0], resume([], state))
        right = resume(long_hs[:1], state).scale_const(ring.coerce(p))
        if left != mid or left != right:
            report["shift"] = False

    return report


# ---------------------------------------------------------------------------
# Frobenius pullback and Taylor transitions


def truncation_bound(p, n):
    """Static degree past which every Taylor term vanishes mod p^n: from
    v_p(j!) <= j/(p-1), the coefficient p^(j+1-p)/j! has valuation at least
    n once j reaches (p-1) + n*p."""
    return (p - 1) + n * p


def taylor_coefficient(ring, j):
    """p^(j+1-p)/j! as an exact element of Z/p^n, for j >= p."""
    p, n = ring.p, ring.m
    if j < p:
        raise ValueError("plain factorial inversion applies below j = p")
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    e = j + 1 - p - v
    if e < 0:
        raise CertificateFailed(
            "divided Taylor coefficient fails p-integrality", part="taylor"
        )
    if e >= n:
        return ring.coerce(0)
    fact = 1
    for k in range(2, j + 1):
        fact *= k
    unit = fact // (p ** v)
    return ring.mul(ring.coerce(p ** e), ring.inv(ring.coerce(unit)))


def fn_apply(tw, lifting=None):
    """Frobenius pullback of a twisted module: a genuine connection whose
    matrix is (dF/p) times the p-connection matrix with the lifted Frobenius
    substituted for the coordinate."""
    ring = tw.ring
    curve = AffineLine(ring)
    if lifting is None:
        lifting = FrobeniusLifting.standard(curve)
    if lifting.curve != curve:
        raise WrongModulus("lifting stored at a different precision than the input")
    u = lifting.derivative_quotient(0, ring)
    image = lifting.frobenius_image(0, ring)
    A = tw.module.matrix.substitute(image).scale(u)
    return FlatBundle(Bundle(curve, tw.rank), (A,))


def taylor_transition(tw, lift_target, lift_source):
    """Transition between the Frobenius pullbacks under two liftings: the
    divided Taylor series in z = (F_source - F_target)/p, with the terms of
    degree >= p carried by the divided operators, truncated at the static
    bound.  The terms are per module, built once and shared by every
    transition; the liftings enter only through z and the substituted
    image.  The powers of z stop at the last kept term, and each entry of
    the sum is one poly_dot over the kept terms, reduced once."""
    ring = tw.ring
    z = lift_source.z_same_chart(lift_target, 0, ring)
    image = lift_target.frobenius_image(0, ring)
    terms = tw._taylor_terms(truncation_bound(ring.p, ring.m))
    zpows = [LaurentPoly.one(ring)]
    for _ in range(max(j for j, term in enumerate(terms) if term is not None)):
        zpows.append(zpows[-1].mul(z))
    kept = [(term, zpow) for term, zpow in zip(terms, zpows) if term is not None]
    # one table of image powers for every entry of every kept term
    subs = _substitute([e for term, _ in kept for row in term.rows for e in row], image)
    size = tw.rank * tw.rank
    sums = [
        ring.poly_dot([(e.coeffs, zpow.coeffs) for e, (_, zpow) in zip(subs[i::size], kept)])
        for i in range(size)
    ]
    rows = [sums[i : i + tw.rank] for i in range(0, size, tw.rank)]
    return RingMatrix._trusted(ring, [[LaurentPoly._trusted(ring, e) for e in r] for r in rows])


# ---------------------------------------------------------------------------
# the composite transform and its reduction certificate


def cn_inverse(tup):
    """Full-precision inverse transform: glue the transversal pieces into
    the twisted module, then pull back through the standard lifted
    Frobenius."""
    return fn_apply(sharp_construct(tup))


@dataclass
class WittReductionCert:
    """Exact comparison of the transform with its one-level-down shadow.

    matches: the transform's connection matrix, reduced one level, equals
    that of the reduced input's transform.  matrix: the frame change
    between the two, which is the identity, as both are computed in the
    standard frame.  char_p_agrees: at the bottom level, the reduced
    transform equals the level-one inverse Cartier transform; None above
    it."""

    matrix: RingMatrix
    matches: bool
    char_p_agrees: object

    @property
    def ok(self):
        if self.char_p_agrees is None:
            return self.matches
        return self.matches and self.char_p_agrees


def mod_reduction_check(tup):
    """Certify that the full-precision transform reduces, matrix for matrix,
    to the transform of the reduced input; at the bottom level the reduced
    transform is also compared against the one-chart level-one transform."""
    if tup.n == 1:
        raise WrongModulus("nothing below one level of precision")
    down = tup.down_ring
    full = cn_inverse(tup)
    rtup = reduce_tuple(tup)
    base = cn_inverse(rtup)
    reduced = full.A[0].reduce_to(down)
    matches = reduced.sub(base.A[0]).is_zero()
    char_p = None
    if down.m == 1:
        total = rtup.theta_total()
        higgs = HiggsBundle.from_chart0(Bundle(AffineLine(down), tup.rank), total)
        level_one = inverse_cartier_1(higgs)
        char_p = base.A[0].sub(level_one.A[0]).is_zero()
    ident = RingMatrix.identity(down, tup.rank)
    cert = WittReductionCert(ident, matches, char_p)
    if not cert.ok:
        raise CertificateFailed(
            "transform does not reduce to its one-level-down shadow",
            part="reduction",
        )
    return cert


# ---------------------------------------------------------------------------
# filtration handling on the transform output


def _flag_reduction_ok(cols_list, ranks, down_ring):
    """Columns of each step must reduce into the coordinate flag with full
    rank: rows below the step's grade vanish mod p^(n-1) and the stacked
    diagonal blocks are invertible."""
    starts = block_starts(ranks)
    for step, S in enumerate(cols_list, start=1):
        Sbar = S.reduce_to(down_ring)
        cut = starts[step]
        for i in range(cut):
            for j in range(Sbar.ncols):
                if not Sbar.rows[i][j].is_zero():
                    return False
        block = Sbar.submatrix(range(cut, Sbar.nrows), range(Sbar.ncols))
        if block.nrows != block.ncols or not block.det().is_unit():
            return False
    return True


def _adapted_frame(cols_list, ranks, ring):
    """Square frame whose grade-g block of columns is drawn from filtration
    step g (its leading columns), with unit columns at grade 0."""
    rank = sum(ranks)
    base = RingMatrix.zeros(ring, rank, ranks[0])
    for j in range(ranks[0]):
        base.rows[j][j] = LaurentPoly.one(ring)
    Q = base
    for g in range(1, len(ranks)):
        Q = Q.hstack(cols_list[g - 1].columns(range(ranks[g])))
    return Q


def filtration_steps_from_flag(tup, ring):
    """Column matrices over ring of the coordinate flag of tup's grading."""
    ranks = tup.ranks
    rank = sum(ranks)
    starts = block_starts(ranks)
    out = []
    for step in range(1, len(ranks)):
        start = starts[step]
        S = RingMatrix.zeros(ring, rank, rank - start)
        for j in range(rank - start):
            S.rows[start + j][j] = LaurentPoly.one(ring)
        out.append(S)
    return tuple(out)


@dataclass
class WittFlowStep:
    """One full-precision flow step: the transform, the next graded Higgs
    blocks, and the grading comparison that certifies one-periodicity when
    it exists."""

    flat: FlatBundle
    ranks: tuple
    theta_next: tuple
    psi: object
    periodic: bool
    certificates: dict


def w2_flow_step(tup, fil_steps):
    """Run one flow step at full precision: transform, grade along the
    supplied filtration, and search for a grading comparison onto the input
    that reduces to the one-level-down comparison.

    fil_steps lists the column matrices of the filtration steps from step 1
    upward (step 0 is everything); they must reduce to the coordinate flag
    one level down and satisfy the one-step transversality bound.
    """
    ring = tup.ring
    if tup.n < 2:
        raise WrongModulus("flow steps at full precision start at two levels")
    down = tup.down_ring
    flat = cn_inverse(tup)
    A2 = flat.A[0]
    ranks = tup.ranks
    fil_steps = tuple(fil_steps)
    if len(fil_steps) != len(ranks) - 1:
        raise NoLiftedFiltration("one column matrix per filtration step required")
    starts = block_starts(ranks)
    for step, S in enumerate(fil_steps, start=1):
        if S.domain != ring:
            raise WrongModulus("filtration columns over the wrong ring")
        want = tup.rank - starts[step]
        if S.nrows != tup.rank or S.ncols != want:
            raise NoLiftedFiltration(
                "filtration step %d has the wrong number of columns" % step
            )
    if not _flag_reduction_ok(fil_steps, ranks, down):
        raise NoLiftedFiltration(
            "filtration does not reduce to the coordinate flag"
        )
    Q = _adapted_frame(fil_steps, ranks, ring)
    try:
        Qinv = Q.inverse()
    except NonInvertible:
        raise NoLiftedFiltration("filtration steps do not complete to a frame") from None
    for step, S in enumerate(fil_steps, start=1):
        T = Qinv.mul(S)
        cut = starts[step]
        for i in range(cut):
            for j in range(T.ncols):
                if not T.rows[i][j].is_zero():
                    raise NoLiftedFiltration(
                        "filtration steps are not nested in the adapted frame"
                    )
    Aad = change_frame_connection(A2, Qinv, Q)
    if not Aad.is_block_lower(ranks, 1):
        raise TransversalityViolated(
            "filtration violates the one-step transversality bound"
        )
    theta_next = tuple(Aad.block(ranks, g, g + 1) for g in range(len(ranks) - 1))

    certificates = {}
    rlift = FrobeniusLifting.standard(AffineLine(down))
    ubar = rlift.derivative_quotient(0, down)
    canonical = (
        tup.theta_total()
        .reduce_to(down)
        .substitute(rlift.frobenius_image(0, down))
        .scale(ubar)
    )
    if tup.frob_frame is not None:
        W = tup.frob_frame
        Winv = W.inverse()
        moved = change_frame_connection(canonical, Winv, W)
        if not moved.sub(tup.abar).is_zero():
            raise CertificateFailed(
                "stored frame does not carry the canonical matrix to the "
                "de Rham side",
                part="frame",
            )
        base_blocks = [
            tup.psibar[g].mul(Winv.block(ranks, g, g))
            for g in range(len(ranks))
        ]
        certificates["baseline"] = "framed"
    elif tup.abar.sub(canonical).is_zero():
        base_blocks = list(tup.psibar)
        certificates["baseline"] = "canonical"
    else:
        base_blocks = None
        certificates["baseline"] = "unpinned"

    psi, periodic = _solve_grading_comparison(
        tup, theta_next, base_blocks, certificates
    )
    return WittFlowStep(flat, ranks, theta_next, psi, periodic, certificates)


def _solve_grading_comparison(tup, theta_next, base_blocks, certificates):
    """Blocks psi_g with psi_g theta'_g = theta_g psi_{g+1}, reducing to the
    given baseline one level down; linear in the p^(n-1)-corrections, so the
    search is exact field linear algebra on the monomial window t^-2..t^4."""
    ring = tup.ring
    p, n = ring.p, ring.m
    down = tup.down_ring
    field = Zmod(p, 1)
    ranks = tup.ranks
    if base_blocks is None:
        base = [RingMatrix.identity(down, r) for r in ranks]
    else:
        base = base_blocks
    psi0 = [B.lift_to(ring) for B in base]
    # psi0_g theta'_g - theta_g psi0_{g+1}, divided by p^(n-1)
    try:
        defect = [
            psi0[g]
            .mul(theta_next[g])
            .sub(tup.theta[g].mul(psi0[g + 1]))
            .p_divide(n - 1, field)
            for g in range(len(ranks) - 1)
        ]
    except NotDivisible:
        certificates["psi_residual"] = False
        return None, False
    certificates["psi_residual"] = True
    system = WindowSystem.square(field, ranks, range(-2, 5))
    # equations (g, i, j, e): delta_g theta'_g - theta_g delta_{g+1} = -defect_g
    # for the corrections psi_g = psi0_g + p^(n-1) delta_g
    for g, D in enumerate(defect):
        system.add_rhs_matrix((g,), D, -1)
        system.add_product((g,), g, right=theta_next[g].reduce_to(field))
        system.add_product((g,), g + 1, left=tup.theta[g].reduce_to(field), coef=-1)
    try:
        vec = solve_linear_mod(system.rows(), field, system.ncols).particular
    except NoSolution:
        return None, False
    scale = ring.coerce(p ** (n - 1))
    blocks = [
        P.add(delta.lift_to(ring).scale_const(scale))
        for P, delta in zip(psi0, system.matrices(vec))
    ]
    for g in range(len(ranks) - 1):
        if not blocks[g].mul(theta_next[g]).sub(tup.theta[g].mul(blocks[g + 1])).is_zero():
            return None, False
    for B in blocks:
        if not B.det().is_unit():
            return None, False
    certificates["psi_grade0_identity"] = (
        blocks[0].sub(RingMatrix.identity(ring, ranks[0])).is_zero()
    )
    return tuple(blocks), True
