"""Hodge filtrations, their gradings, and graded Higgs bundles.

A filtration is a descending chain of saturated subbundles
Fil^0 = V > Fil^1 > ... > Fil^n > 0 stored by its proper steps.  grade,
a filtration's transversality and gluing certificate, works in adapted
frames: per chart, a unimodular frame whose column blocks run through the
filtration from the deepest step outward, in which the transition must be
block triangular and the connection block subdiagonal; the graded pieces and
the induced grade-lowering maps are read off as blocks.

The induced maps are O-linear and satisfy the Higgs-type chart rule with
the piece transitions, which is re-verified exactly on construction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    Bundle,
    HiggsBundle,
    change_frame_connection,
    chart1_form,
    chart1_map,
    check_per_chart,
    full_subbundle,
    per_chart,
)
from .errors import NoSolution, TransversalityViolated
from .ringmath import (
    RingMatrix,
    WindowSystem,
    poly_solve,
    solve_linear_mod,
    unimodular_completion,
    unit_search,
)

# Candidates unit_search may try for graded_higgs_isomorphic, the one
# isomorphism decision behind period detection and the periodic tuples.
DEFAULT_ISO_BUDGET = 200000


class HodgeFiltration:
    """Descending flag of saturated subbundles; steps hold Fil^1..Fil^n."""

    def __init__(self, parent, steps=()):
        self.parent = parent
        self.steps = tuple(steps)
        for S in self.steps:
            if S.parent != parent:
                raise ValueError("filtration step has a different parent")

    @classmethod
    def trivial(cls, parent):
        return cls(parent, ())

    @property
    def level(self):
        return len(self.steps)

    def rank_at(self, i):
        """rank of Fil^i with the standard extension by V and 0."""
        if i <= 0:
            return self.parent.rank
        if i > self.level:
            return 0
        return self.steps[i - 1].rank

    def step(self, i):
        """Fil^i as a subbundle, None meaning the zero sheaf."""
        if i <= 0:
            return full_subbundle(self.parent)
        if i > self.level:
            return None
        return self.steps[i - 1]

    def validate(self):
        prev = full_subbundle(self.parent)
        for S in self.steps:
            S.validate()
            if S.rank == 0 or not prev.contains_chart0(S.basis[0]):
                raise ValueError("filtration steps are not nested")
            prev = S
        return self

    def is_strict(self):
        ranks = [self.parent.rank] + [S.rank for S in self.steps]
        return all(a > b for a, b in zip(ranks, ranks[1:]))


def reduce_filtration(filtration):
    """Drop redundant steps (equal to the previous one or to the whole
    space), keeping the grading up to index shift; idempotent, and the
    result is anchored: Fil^0 = V and Fil^1 is proper."""
    out = []
    prev_rank = filtration.parent.rank
    for S in filtration.steps:
        if S.rank == prev_rank:
            continue
        out.append(S)
        prev_rank = S.rank
    return HodgeFiltration(filtration.parent, out)


def transversality_offender(flat, filtration):
    """First index i with nabla(Fil^i) not inside Fil^{i-1} tensor forms,
    or None; the chart-0 check is exact because the steps are saturated."""
    for i in range(1, filtration.level + 1):
        image = flat.covariant_derivative(filtration.steps[i - 1].basis[0])
        if not filtration.step(i - 1).contains_chart0(image):
            return i
    return None


def is_transversal(flat, filtration):
    return transversality_offender(flat, filtration) is None


class _Undecided:
    """Marks an undecided graded object; a class, so that copies keep it."""


class GradedHiggsBundle:
    """Graded pieces E^0..E^w with grade-lowering maps theta^i: E^i ->
    E^{i-1} tensor forms; maps[k] holds theta^{k+1} per chart.

    A value: do not reassign or mutate its pieces or maps after
    construction.  _destabilizer holds the filtration module's report,
    decided once (None when semistable)."""

    def __init__(self, pieces, maps):
        self.pieces = tuple(pieces)
        self.maps = tuple(tuple(m) for m in maps)
        self._destabilizer = _Undecided
        if not self.pieces:
            raise ValueError("a graded object needs at least one piece")
        self.curve = self.pieces[0].curve
        if len(self.maps) != len(self.pieces) - 1:
            raise ValueError("one connecting map per adjacent grade pair")
        for k, mats in enumerate(self.maps):
            shape = self.pieces[k].rank, self.pieces[k + 1].rank
            self.curve.check_charts(mats, *shape, "matrix", "connecting map")

    @property
    def weight(self):
        return len(self.pieces) - 1

    @property
    def domain(self):
        return self.curve.domain

    @property
    def rank(self):
        return sum(P.rank for P in self.pieces)

    def degree(self):
        return sum(P.degree() for P in self.pieces)

    def slope(self):
        return Fraction(self.degree(), self.rank)

    def validate(self):
        if self.weight > self.domain.p - 2:
            raise ValueError("grading weight exceeds p-2")
        for k, mats in enumerate(self.maps):
            source, target = self.pieces[k + 1], self.pieces[k]
            what = "grade-%d connecting map" % (k + 1)
            check_per_chart(mats, chart1_form, source, target, what)
        return self

    def total(self):
        """The underlying Higgs bundle: block-diagonal transition in grade
        order 0..w, block-superdiagonal Higgs matrix."""
        d = self.domain
        ranks = [P.rank for P in self.pieces]
        thetas = tuple(
            RingMatrix.from_blocks(
                d, ranks, ranks, {(k, k + 1): per[c] for k, per in enumerate(self.maps)}
            )
            for c in range(self.curve.ncharts)
        )
        blocks = [P.transition for P in self.pieces]
        g = self.curve.glued(RingMatrix.block_diagonal, d, blocks)
        return HiggsBundle(Bundle(self.curve, self.rank, g), thetas)

    def __eq__(self, other):
        return (
            isinstance(other, GradedHiggsBundle)
            and self.pieces == other.pieces
            and self.maps == other.maps
        )


class Grading:
    """Adapted-frame data of a graded flat bundle.

    frames[c] is the unimodular chart-c frame whose columns run through the
    filtration deepest-first: grade i occupies columns [rank Fil^{i+1},
    rank Fil^i).
    """

    def __init__(self, flat, filtration, frames, graded):
        self.flat = flat
        self.filtration = filtration
        self.frames = frames
        self.graded = graded


def _adapted_frame(filtration, chart):
    """Unimodular frame whose leading column blocks span the filtration
    steps, deepest step first."""
    parent = filtration.parent
    d = parent.domain
    n = filtration.level
    if n == 0:
        return RingMatrix.identity(d, parent.rank)
    ad = filtration.steps[n - 1].basis[chart]
    for i in range(n - 1, 0, -1):
        B = filtration.steps[i - 1].basis[chart]
        coords = poly_solve(B, ad)
        if coords is None:
            raise ValueError("filtration steps are not nested")
        ad = B.mul(unimodular_completion(coords))
    return unimodular_completion(ad)


def grade(flat, filtration):
    """Graded Higgs bundle of a transversal filtration, which it certifies,
    with the adapted frames exposed for later lifting of graded data."""
    bundle = flat.bundle
    if not filtration.is_strict():
        raise ValueError("grade needs a strictly decreasing filtration")
    n = filtration.level
    frames = tuple(
        _adapted_frame(filtration, c) for c in range(bundle.curve.ncharts)
    )
    # a trivial filtration's frames are identities, their own inverses
    inverses = frames if n == 0 else tuple(T.inverse() for T in frames)
    aprime = tuple(
        change_frame_connection(A, Tinv, T)
        for A, T, Tinv in zip(flat.A, frames, inverses)
    )

    blocks = [
        list(range(filtration.rank_at(i + 1), filtration.rank_at(i)))
        for i in range(n + 1)
    ]
    # the least a with a nonzero block (a, b), b > a + 1, names offender a + 2
    for a in range(n - 1):
        for b in range(a + 2, n + 1):
            if any(not A.submatrix(blocks[a], blocks[b]).is_zero() for A in aprime):
                raise TransversalityViolated(
                    "nabla(Fil^%d) escapes Fil^%d" % (a + 2, a + 1)
                )

    transitions = bundle.curve.glued(
        _piece_transitions, bundle, frames, inverses, blocks
    ) or [None] * len(blocks)
    pieces = tuple(
        Bundle(bundle.curve, len(b), g) for b, g in zip(blocks, transitions)
    )

    maps = tuple(
        tuple(
            aprime[c].submatrix(blocks[i - 1], blocks[i])
            for c in range(bundle.curve.ncharts)
        )
        for i in range(1, n + 1)
    )
    graded = GradedHiggsBundle(pieces, maps).validate()
    return Grading(flat, filtration, frames, graded)


def _piece_transitions(bundle, frames, inverses, blocks):
    """The graded pieces' transitions: the diagonal blocks of the transition
    in the adapted frames, which must be block upper triangular."""
    gprime_hat = inverses[1].mul(bundle.to_chart1(frames[0]))
    for b in range(len(blocks)):
        for a in range(b):
            if not gprime_hat.submatrix(blocks[a], blocks[b]).is_zero():
                raise ValueError("filtration charts do not glue")
    return [
        bundle.curve.to_other_chart(gprime_hat.submatrix(b, b)) for b in blocks
    ]


# ---------------------------------------------------------------------------
# isomorphism search for graded objects


@dataclass
class GradedMap:
    """Grade-preserving map between graded Higgs bundles: one matrix per
    grade per chart, in the original piece frames."""

    blocks: tuple

    def validate(self, A, B):
        if len(self.blocks) != len(A.pieces) or len(A.pieces) != len(B.pieces):
            raise ValueError("grade count mismatch")
        for i, mats in enumerate(self.blocks):
            for M in mats:
                if M.nrows != B.pieces[i].rank or M.ncols != A.pieces[i].rank:
                    raise ValueError("block shape mismatch at grade %d" % i)
            what = "grade-%d block" % i
            check_per_chart(mats, chart1_map, A.pieces[i], B.pieces[i], what)
        for k in range(len(A.maps)):
            for c in range(A.curve.ncharts):
                left = self.blocks[k][c].mul(A.maps[k][c])
                right = B.maps[k][c].mul(self.blocks[k + 1][c])
                if left != right:
                    raise ValueError(
                        "map fails to intertwine the grade-%d component" % (k + 1)
                    )
        return self

    def is_isomorphism(self):
        return all(M.is_unimodular() for mats in self.blocks for M in mats)


def _identity_graded_map(A):
    n = A.curve.ncharts
    return GradedMap(tuple((RingMatrix.identity(A.domain, P.rank),) * n for P in A.pieces))


def _split_frames(G):
    """Per grade the splitting type, the chart-0 frame onto the split frame
    and its inverse, and the connecting maps in the split frames; where
    bundles are free, zero types and identity frames."""
    return G.curve.glued(_factored_frames, G) or _free_frames(G)


def _free_frames(G):
    Q = [RingMatrix.identity(G.domain, P.rank) for P in G.pieces]
    return [[0] * P.rank for P in G.pieces], Q, Q, [m[0] for m in G.maps]


def _factored_frames(G):
    sd = [P.split_data() for P in G.pieces]
    maps = [sd[k].Q.mul(m[0]).mul(sd[k + 1].Qinv) for k, m in enumerate(G.maps)]
    return [list(s.exponents) for s in sd], [s.Q for s in sd], [s.Qinv for s in sd], maps


def graded_higgs_isomorphic(A, B, budget=DEFAULT_ISO_BUDGET):
    """A grade-preserving isomorphism intertwining the maps, or None.

    Hom(A, B) is the kernel of a linear system in the split-frame entries
    of the grade blocks, of degrees up to the splitting gaps (constants on
    A^1).  An isomorphism phi makes Hom(A, B) = phi End(A) = End(B) phi.
    None comes only with a proof: the grade counts, piece ranks, splitting
    types or kernel dimensions differ, or unit_search proves that no
    combination is a unit; what it finds, GradedMap.validate certifies."""
    if len(A.pieces) != len(B.pieces):
        return None
    if A == B:
        return _identity_graded_map(A)
    d = A.domain
    if any(PA.rank != PB.rank for PA, PB in zip(A.pieces, B.pieces)):
        return None
    types, to_split_A, _, maps_A = _split_frames(A)
    types_B, _, from_split_B, maps_B = _split_frames(B)
    if types != types_B:
        return None

    def hom(maps_X, maps_Y):
        # equation (k, r, c, e): the t^e coefficient of entry (r, c) of
        # phi^{k} theta_X^{k+1} - theta_Y^{k+1} phi^{k+1}
        windows = [[[range(a - b + 1) for b in tp] for a in tp] for tp in types]
        system = WindowSystem(d, windows)
        for k in range(len(maps_X)):
            system.add_product((k,), k, right=maps_X[k])
            system.add_product((k,), k + 1, left=maps_Y[k], coef=-1)
        return system, solve_linear_mod(system.rows(), d, system.ncols).kernel

    system, kernel = hom(maps_A, maps_B)
    if any(len(hom(m, m)[1]) != len(kernel) for m in (maps_A, maps_B)):
        return None
    units = lambda vec: all(M.is_unimodular() for M in system.matrices(vec))
    try:
        vec = unit_search(d, kernel, units, budget)
    except NoSolution:
        return None
    blocks = []
    for i, (M, PA, PB) in enumerate(zip(system.matrices(vec), A.pieces, B.pieces)):
        phi0 = from_split_B[i].mul(M).mul(to_split_A[i])
        blocks.append(per_chart(phi0, chart1_map, PA, PB, "grade-%d block" % i))
    return GradedMap(tuple(blocks)).validate(A, B)
