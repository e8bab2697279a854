"""Flow driver: iterate the inverse transform under a filtration policy.

A flow step sends a graded Higgs bundle through the level-one inverse
transform, picks a transversal filtration (Simpson's canonical one, which
is trivial on the line, or one supplied by the caller), and reads off the
next graded Higgs bundle.  Degree multiplies by p at every step, so a
periodic flow forces degree zero; periodicity is certified by an explicit
graded isomorphism found within a declared search field and trace horizon.
On P^1 with the standard atlas the transform has p times the splitting
type of G, so a canonical step refuses every unstable G, and a semistable
G (type O(a)^n, zero Higgs field) steps to one piece O(pa)^n with zero
Higgs field.

Periodic tuples of period f can be folded into one-periodic objects over
F_{p^f} carrying a multiplication endomorphism (one scalar block per flow
stage, rotated by the period isomorphism); unfolding recovers the stages as
eigenspaces.  One-periodic tuples yield a per-chart relative Frobenius with
three exact certificates: invertibility, horizontality against the two
transform connections, and cross-chart compatibility through the twisted
gluing.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .bundles import (
    Bundle,
    BundleMap,
    Subbundle,
    frobenius_pullback_matrix,
)
from .cartier import inverse_cartier_1, inverse_cartier_1_on_map
from .errors import (
    BadMinimalPolynomial,
    CertificateFailed,
    HdflowError,
    NotPrimitive,
    PolicyFiltrationInvalid,
)
from .filtration import _simpson
from .graded import (
    DEFAULT_ISO_BUDGET,
    DeRhamBundle,
    GradedHiggsBundle,
    GradedMap,
    HodgeFiltration,
    _identity_graded_map,
    grade,
    graded_higgs_isomorphic,
    reduce_filtration,
)
from .ringmath import (
    GF,
    LaurentPoly,
    RingMatrix,
    poly_kernel,
    poly_solve,
    solve_linear_mod,
)


# ---------------------------------------------------------------------------
# policies, stages, traces


@dataclass(frozen=True)
class FlowPolicy:
    """How each step chooses its filtration, how long to run, and the field
    degree used when searching for period isomorphisms."""

    rule: str = "canonical"
    max_steps: int = 1
    field_degree: int = 1
    filtrations: tuple = ()

    def __post_init__(self):
        if self.rule not in ("canonical", "supplied"):
            raise ValueError("rule must be 'canonical' or 'supplied'")
        if self.max_steps < 1:
            raise ValueError("a flow needs at least one step")
        if self.field_degree < 1:
            raise ValueError("the search field degree must be positive")


@dataclass
class FlowStage:
    """One stage: the graded object entering the step, its transform and
    filtration (None on the final, unexpanded stage), and its invariants."""

    higgs: GradedHiggsBundle
    flat: object
    filtration: object
    degree: int
    slope: Fraction


@dataclass
class PeriodReport:
    preperiod: int
    period: int
    phi: GradedMap


@dataclass
class FlowTrace:
    stages: tuple
    periodicity: object

    def higgs_terms(self):
        return [st.higgs for st in self.stages]


def _adopt_filtration(flat, fil_spec):
    """Re-express a supplied filtration on the transform's own bundle and
    check nesting plus transversality."""
    try:
        steps = [
            Subbundle.from_chart0_span(flat.bundle, S.basis[0])
            for S in fil_spec.steps
        ]
        fil = HodgeFiltration(flat.bundle, steps)
        fil.validate()
        fil = reduce_filtration(fil)
        DeRhamBundle(flat, fil).validate()
    except (HdflowError, ValueError) as err:
        raise PolicyFiltrationInvalid(str(err))
    return fil


def flow_step(G, policy=None, step_index=0):
    """One step: transform, filter per policy, take the graded object.

    A canonical step keeps the graded object its Simpson filtration built
    and decided.  Degree scaling by p is certified."""
    if policy is None:
        policy = FlowPolicy()
    G.validate()
    H = inverse_cartier_1(G.total())
    if policy.rule == "canonical":
        fil, nxt = _simpson(H)
    else:
        if step_index >= len(policy.filtrations):
            raise PolicyFiltrationInvalid(
                "no filtration supplied for step %d" % step_index
            )
        fil = _adopt_filtration(H, policy.filtrations[step_index])
        nxt = grade(H, fil).graded
    if nxt.degree() != G.domain.p * G.degree():
        raise CertificateFailed(
            "step %d sends degree %d to %d" % (step_index, G.degree(), nxt.degree()),
            part="degree-scaling",
        )
    return H, fil, nxt


def run_flow(G0, policy=None, budget=DEFAULT_ISO_BUDGET):
    """Iterate flow_step for policy.max_steps steps, record every stage,
    certify degree scaling throughout, and attach a periodicity report
    whose isomorphism searches try at most budget candidates each.

    Under the canonical policy every later graded term is semistable:
    each step's Simpson filtration certifies its graded object
    ("simpson-trivial")."""
    if policy is None:
        policy = FlowPolicy()
    stages = []
    cur = G0
    for i in range(policy.max_steps):
        H, fil, nxt = flow_step(cur, policy, step_index=i)
        stages.append(FlowStage(cur, H, fil, cur.degree(), cur.slope()))
        cur = nxt
    stages.append(FlowStage(cur, None, None, cur.degree(), cur.slope()))
    terms = [st.higgs for st in stages]
    return FlowTrace(tuple(stages), detect_period(terms, policy.field_degree, budget))


# ---------------------------------------------------------------------------
# scalar extension


def extend_graded(G, K):
    """Base change a graded Higgs bundle to a larger coefficient field with
    the same characteristic."""
    if G.domain == K:
        return G
    if K.p != G.domain.p:
        raise ValueError("scalar extension must preserve the characteristic")
    curve = type(G.curve)(K)
    pieces = [
        Bundle(curve, P.rank, curve.glued(RingMatrix.lift_to, P.transition, K))
        for P in G.pieces
    ]
    maps = tuple(tuple(M.lift_to(K) for M in per) for per in G.maps)
    return GradedHiggsBundle(pieces, maps)


def extend_graded_map(phi, K):
    return GradedMap(tuple(tuple(M.lift_to(K) for M in per) for per in phi.blocks))


# ---------------------------------------------------------------------------
# periodicity


def detect_period(terms, f_search=1, budget=DEFAULT_ISO_BUDGET):
    """Smallest (preperiod, period) among the graded terms of a flow that
    are isomorphic over the degree-f_search extension, with the certifying
    map; None when no pair matches."""
    if len(terms) < 2:
        raise ValueError("periodicity needs a trace of length at least two")
    d = terms[0].domain
    if f_search > 1:
        K = GF(d.p, f_search)
        terms = [extend_graded(E, K) for E in terms]
    n = len(terms)
    for f in range(1, n):
        for e in range(n - f):
            if terms[e].degree() != terms[e + f].degree():
                continue
            phi = graded_higgs_isomorphic(terms[e + f], terms[e], budget=budget)
            if phi is not None:
                if terms[e].degree() != 0:
                    raise CertificateFailed(
                        "periodic term of degree %d" % terms[e].degree(),
                        part="period-degree",
                    )
                return PeriodReport(e, f, phi)
    return None


# ---------------------------------------------------------------------------
# periodic tuples


@dataclass
class PeriodicTuple:
    """(E, theta, Fil_0, ..., Fil_{f-1}, phi): the filtrations drive f flow
    steps from E and phi identifies the final graded term with E."""

    higgs: GradedHiggsBundle
    filtrations: tuple
    phi: GradedMap
    _stages: tuple = dataclass_field(default=None, init=False, repr=False, compare=False)
    _flats: tuple = dataclass_field(default=None, init=False, repr=False, compare=False)

    @property
    def period(self):
        return len(self.filtrations)

    def validate(self):
        if self.period < 1:
            raise ValueError("a periodic tuple needs at least one filtration")
        stages = [self.higgs]
        flats = []
        fils = []
        cur = self.higgs
        for i in range(self.period):
            H = inverse_cartier_1(cur.total())
            fil = _adopt_filtration(H, self.filtrations[i])
            flats.append(H)
            fils.append(fil)
            cur = grade(H, fil).graded
            stages.append(cur)
        self.phi.validate(stages[-1], stages[0])
        if not self.phi.is_isomorphism():
            raise ValueError("the period map fails to be an isomorphism")
        if self.higgs.degree() != 0:
            raise CertificateFailed(
                "periodic tuple of degree %d" % self.higgs.degree(),
                part="period-degree",
            )
        self._stages = tuple(stages)
        self._flats = tuple(flats)
        self.filtrations = tuple(fils)
        return self

    def stages(self):
        if self._stages is None:
            self.validate()
        return self._stages


def compose_graded_maps(outer, inner):
    """Blockwise composite, outer after inner."""
    return GradedMap(
        tuple(
            tuple(po[c].mul(pi[c]) for c in range(len(po)))
            for po, pi in zip(outer.blocks, inner.blocks)
        )
    )


def total_map(phi, A, B):
    """The map of total Higgs bundles underlying a graded map, blocks laid
    out in grade order to match GradedHiggsBundle.total()."""
    mats = tuple(
        RingMatrix.block_diagonal(A.domain, [per[c] for per in phi.blocks])
        for c in range(A.curve.ncharts)
    )
    return BundleMap(A.total().bundle, B.total().bundle, mats)


def _transport_filtration(psi_graded, src_graded, tgt_graded, tgt_flat, fil):
    """Pull a filtration on the transform of tgt_graded back to the
    transform of src_graded along the transform of a graded isomorphism."""
    H_src = inverse_cartier_1(src_graded.total())
    Psi = inverse_cartier_1_on_map(
        total_map(psi_graded, src_graded, tgt_graded), H_src, tgt_flat
    )
    inv0 = Psi.phi[0].inverse()
    steps = [
        Subbundle.from_chart0_span(H_src.bundle, inv0.mul(S.basis[0]))
        for S in fil.steps
    ]
    new_fil = HodgeFiltration(H_src.bundle, steps)
    DeRhamBundle(H_src, new_fil).validate()
    return H_src, new_fil


def tuples_isomorphic(T1, T2):
    """Bounded tuple-isomorphism certificate: equal periods, matching
    filtration rank profiles, and an isomorphism of the starting graded
    objects; returns the certifying map or None."""
    if T1.period != T2.period:
        return None
    T1.stages()
    T2.stages()
    prof1 = [
        [fil.rank_at(i) for i in range(1, fil.level + 1)] for fil in T1.filtrations
    ]
    prof2 = [
        [fil.rank_at(i) for i in range(1, fil.level + 1)] for fil in T2.filtrations
    ]
    if prof1 != prof2:
        return None
    return graded_higgs_isomorphic(T1.higgs, T2.higgs)


# ---------------------------------------------------------------------------
# endomorphism packing


@dataclass
class PackedEndostructure:
    """One-periodic tuple over F_{p^f} carrying the scalar-block
    endomorphism."""

    carrier: PeriodicTuple
    endo: GradedMap
    xi: object
    field: object


def _frobenius_orbit(K, xi):
    """The Frobenius orbit of xi, which must have exact length [K : F_p]."""
    orbit = [xi]
    for e in range(1, K.f):
        nxt = K.frobenius(orbit[-1])
        if nxt == xi:
            raise NotPrimitive(
                "element already returns after %d Frobenius twists" % e
            )
        orbit.append(nxt)
    if K.frobenius(orbit[-1]) != xi:
        raise NotPrimitive("Frobenius orbit escapes the declared field")
    return orbit


def _scalar_block(K, scalars, ranks):
    """Block-diagonal constant matrix with scalars[i] on a rank-ranks[i]
    identity block."""
    return RingMatrix.diagonal(
        K, [LaurentPoly.const(K, c) for c, r in zip(scalars, ranks) for _ in range(r)]
    )


def direct_sum_graded(summands):
    """Grade-wise direct sum of graded Higgs bundles of equal weight."""
    w = summands[0].weight
    if any(G.weight != w for G in summands):
        raise ValueError("direct sum needs summands of equal weight")
    pieces = [
        summands[0].pieces[j].direct_sum(*(G.pieces[j] for G in summands[1:]))
        for j in range(w + 1)
    ]
    d = summands[0].domain
    maps = tuple(
        tuple(
            RingMatrix.block_diagonal(d, [G.maps[k][c] for G in summands])
            for c in range(summands[0].curve.ncharts)
        )
        for k in range(w)
    )
    return GradedHiggsBundle(pieces, maps)


def pack_endostructure(T, xi, K):
    """Fold a period-f tuple into a one-periodic tuple over K = F_{p^f} with
    the multiplication endomorphism s; the commutation of s with the block
    rotation is verified as an exact matrix identity.

    The element xi must generate the degree-f extension: its Frobenius
    orbit has length exactly f, and the top twist returns to xi."""
    stages0 = T.stages()
    f = T.period
    p = T.higgs.domain.p
    if K.p != p or K.f != f:
        raise ValueError("the packing field must be F_{p^period}")
    xi = K.coerce(xi)
    scalars = _frobenius_orbit(K, xi)

    stages = [extend_graded(E, K) for E in stages0]
    phi_K = extend_graded_map(T.phi, K)
    w = stages[0].weight
    if any(E.weight != w for E in stages[:f]):
        raise ValueError("stages must share a weight to pack")
    big = direct_sum_graded(stages[:f])
    piece_ranks = [
        [stages[i].pieces[j].rank for j in range(w + 1)] for i in range(f)
    ]

    ncharts = big.curve.ncharts
    s_blocks = tuple(
        (_scalar_block(K, scalars, [piece_ranks[i][j] for i in range(f)]),) * ncharts
        for j in range(w + 1)
    )
    s = GradedMap(s_blocks)
    s.validate(big, big)

    # block rotation from the flow output (summand i carries stage i+1)
    rot_src = direct_sum_graded(stages[1 : f + 1])
    rot_blocks = []
    for j in range(w + 1):
        row_sizes = [piece_ranks[i][j] for i in range(f)]
        src_ranks = [stages[i + 1].pieces[j].rank for i in range(f)]
        shift = {(i + 1, i): RingMatrix.identity(K, src_ranks[i]) for i in range(f - 1)}
        rot_blocks.append(
            tuple(
                RingMatrix.from_blocks(
                    K, row_sizes, src_ranks, {**shift, (0, f - 1): phi_K.blocks[j][c]}
                )
                for c in range(ncharts)
            )
        )
    rot = GradedMap(tuple(rot_blocks))
    rot.validate(rot_src, big)
    if not rot.is_isomorphism():
        raise HdflowError("the block rotation fails to be an isomorphism")

    # exact commutation identity: rot . (flow image of s) == s . rot
    flow_scalars = [K.frobenius(c) for c in scalars]
    s_flow_blocks = tuple(
        (_scalar_block(K, flow_scalars, [E.pieces[j].rank for E in stages[1 : f + 1]]),)
        * ncharts
        for j in range(w + 1)
    )
    s_flow = GradedMap(s_flow_blocks)
    s_flow.validate(rot_src, rot_src)
    lhs = compose_graded_maps(rot, s_flow)
    rhs = compose_graded_maps(s, rot)
    if lhs.blocks != rhs.blocks:
        raise HdflowError("endomorphism fails to commute with the rotation")

    # block filtration on the transform of the sum
    H_big = inverse_cartier_1(big.total())
    level = max(fil.level for fil in T.filtrations)
    # summand i's total coordinates inside the grade-major layout of the sum
    grade_major = [piece_ranks[i][j] for j in range(w + 1) for i in range(f)]
    embeds = [
        RingMatrix.from_blocks(
            K,
            grade_major,
            piece_ranks[i],
            {
                (j * f + i, j): RingMatrix.identity(K, piece_ranks[i][j])
                for j in range(w + 1)
            },
        )
        for i in range(f)
    ]
    steps = []
    for k in range(1, level + 1):
        cols = None
        for i in range(f):
            S = T.filtrations[i].step(k)
            if S is None:
                continue
            part = embeds[i].mul(S.basis[0].lift_to(K))
            cols = part if cols is None else cols.hstack(part)
        if cols is None:
            break
        steps.append(Subbundle.from_chart0_span(H_big.bundle, cols))
    fil_big = HodgeFiltration(H_big.bundle, steps)
    DeRhamBundle(H_big, fil_big).validate()

    out = grade(H_big, fil_big).graded
    chi = graded_higgs_isomorphic(out, rot_src)
    if chi is None:
        raise HdflowError("no identification of the packed flow output")
    phi_packed = compose_graded_maps(rot, chi)
    carrier = PeriodicTuple(big, (fil_big,), phi_packed).validate()
    return PackedEndostructure(carrier, s, xi, K)


# ---------------------------------------------------------------------------
# endomorphism unpacking


def _span_intersection_coords(B1, B2):
    """Columns u with B2 u in span(B1), spanning the intersection in B2's
    coordinates; None when the intersection is zero."""
    combined = B1.hstack(B2.neg())
    ker = poly_kernel(combined)
    if ker.ncols == 0:
        return None
    u = ker.submatrix(
        range(B1.ncols, B1.ncols + B2.ncols), range(ker.ncols)
    )
    if u.is_zero():
        return None
    return u


def _constant_entries(M):
    rows = []
    for i in range(M.nrows):
        row = []
        for j in range(M.ncols):
            e = M.entry(i, j)
            if any(k != 0 for k in e.coeffs):
                raise BadMinimalPolynomial(
                    "endomorphism blocks must be constant"
                )
            row.append(e.constant_term())
        rows.append(row)
    return rows


def _eigenspace_columns(K, M, lam):
    """Constant kernel basis of (M - lam) as a matrix, or None."""
    rows = _constant_entries(M)
    n = len(rows)
    for i, row in enumerate(rows):
        row[i] = K.sub(row[i], lam)
    shifted = [{j: x for j, x in enumerate(row) if x != K.zero} for row in rows]
    basis = solve_linear_mod(shifted, K, n).kernel
    if not basis:
        return None
    return RingMatrix(
        K,
        [
            [LaurentPoly.const(K, v.get(i, K.zero)) for v in basis]
            for i in range(n)
        ],
    )


def _restrict_map(basis_tgt, basis_src, M):
    """Solve basis_tgt . C = M . basis_src for the restricted block."""
    sol = poly_solve(basis_tgt, M.mul(basis_src))
    if sol is None:
        raise BadMinimalPolynomial(
            "eigenspaces are not preserved by the connecting maps"
        )
    return sol


def unpack_endostructure(packed):
    """Decompose a packed one-periodic tuple into eigenspaces of its
    endomorphism, recovering a tuple whose period is the field degree.

    The endomorphism must act with the full Frobenius orbit of xi as
    spectrum — equivalently its minimal polynomial is the irreducible
    degree-f polynomial of xi; anything smaller is rejected."""
    carrier = packed.carrier
    carrier.stages()
    K = packed.field
    f = K.f
    big = carrier.higgs
    s = packed.endo
    s.validate(big, big)
    orbit = _frobenius_orbit_checked(K, packed.xi)

    w = big.weight
    ncharts = big.curve.ncharts
    # eigen-decomposition per grade; completeness certifies the spectrum
    eig = []
    for i in range(f):
        per_grade = []
        for j in range(w + 1):
            cols = _eigenspace_columns(K, s.blocks[j][0], orbit[i])
            per_grade.append(cols)
        eig.append(per_grade)
    for j in range(w + 1):
        got = sum(
            0 if eig[i][j] is None else eig[i][j].ncols for i in range(f)
        )
        if got != big.pieces[j].rank:
            raise BadMinimalPolynomial(
                "eigenspaces of the declared spectrum do not fill grade %d"
                % j
            )

    # stage 0..f-1 graded objects from the eigen-bases
    summands = []
    embeds_total = []
    for i in range(f):
        pieces = []
        subs = []
        for j in range(w + 1):
            cols = eig[i][j]
            if cols is None:
                raise BadMinimalPolynomial(
                    "an eigenvalue is missing from grade %d" % j
                )
            V = Subbundle.from_chart0_span(big.pieces[j], cols)
            subs.append(V)
            g = big.curve.glued(V.induced_transition)
            pieces.append(Bundle(big.curve, V.rank, g))
        maps = []
        for k in range(w):
            per_chart = []
            for c in range(ncharts):
                per_chart.append(
                    _restrict_map(
                        subs[k].basis[c],
                        subs[k + 1].basis[c],
                        big.maps[k][c],
                    )
                )
            maps.append(tuple(per_chart))
        G_i = GradedHiggsBundle(pieces, tuple(maps)).validate()
        summands.append(G_i)
        # total-coordinate embedding of the summand into big
        embeds_total.append(
            RingMatrix.block_diagonal(K, [V.basis[0] for V in subs])
        )

    # filtrations: cut the packed filtration along the transformed
    # eigenspaces (eigenvalue orbit advances by one Frobenius twist)
    fil_big = carrier.filtrations[0]
    fils = []
    flats = []
    for i in range(f):
        H_i = inverse_cartier_1(summands[i].total())
        flats.append(H_i)
        Q_i = frobenius_pullback_matrix(embeds_total[i])
        steps = []
        for k in range(1, fil_big.level + 1):
            B = fil_big.step(k).basis[0]
            u = _span_intersection_coords(B, Q_i)
            if u is None:
                break
            steps.append(Subbundle.from_chart0_span(H_i.bundle, u))
        fil_i = HodgeFiltration(H_i.bundle, steps)
        DeRhamBundle(H_i, fil_i).validate()
        fils.append(fil_i)

    # walk the stages: transport each recovered filtration to the actual
    # flow presentation along a certified stage identification
    cur = summands[0]
    out_fils = []
    for i in range(f):
        if i == 0:
            chi = _identity_graded_map(cur)
        else:
            chi = graded_higgs_isomorphic(cur, summands[i])
            if chi is None:
                raise BadMinimalPolynomial(
                    "stage %d fails to match its eigenspace" % i
                )
        H_cur, fil_cur = _transport_filtration(
            chi, cur, summands[i], flats[i], fils[i]
        )
        out_fils.append(fil_cur)
        cur = grade(H_cur, fil_cur).graded
    phi = graded_higgs_isomorphic(cur, summands[0])
    if phi is None:
        raise BadMinimalPolynomial("the recovered tuple fails to close up")
    return PeriodicTuple(summands[0], tuple(out_fils), phi).validate()


def _frobenius_orbit_checked(K, xi):
    try:
        return _frobenius_orbit(K, xi)
    except NotPrimitive as err:
        raise BadMinimalPolynomial(str(err))


# ---------------------------------------------------------------------------
# relative Frobenius


@dataclass
class RelativeFrobenius:
    """Per-chart matrices of the reconstructed relative Frobenius, with the
    two flat bundles it intertwines and the passed certificate labels."""

    charts: tuple
    source: object
    target: object
    certificates: dict


def build_relative_frobenius(T):
    """Per-chart relative Frobenius of a one-periodic tuple.

    Certificates, all exact, on the transform of the period map as a
    BundleMap: (1) each chart matrix is invertible (is_isomorphism), (2)
    the horizontality square against the two transform connections
    commutes (is_horizontal), (3) the chart matrices agree across the
    twisted gluing (validate).  A failure names the certificate that
    broke."""
    if T.period != 1:
        raise ValueError("the relative Frobenius needs a one-periodic tuple")
    stages = T.stages()
    E0, E1 = stages[0], stages[1]
    H = T._flats[0]
    source = inverse_cartier_1(E1.total())
    F = inverse_cartier_1_on_map(total_map(T.phi, E1, E0), source, H)
    if not F.is_isomorphism():
        raise CertificateFailed("a chart matrix is not invertible", part=1)
    if not F.is_horizontal(source, H):
        raise CertificateFailed("horizontality fails on a chart", part=2)
    try:
        F.validate()
    except ValueError:
        raise CertificateFailed("chart matrices disagree across the gluing", part=3)
    return RelativeFrobenius(
        F.phi,
        source,
        H,
        {"invertible": True, "horizontal": True, "taylor": True},
    )
