"""Hodge filtrations, their gradings, and graded Higgs bundles.

A filtration is a descending chain of saturated subbundles
Fil^0 = V > Fil^1 > ... > Fil^n > 0 stored by its proper steps.  Grading a
flat bundle along a transversal filtration is done in adapted frames: per
chart, a unimodular frame whose column blocks run through the filtration
from the deepest step outward, so that the transition becomes block
triangular and the connection block subdiagonal; the graded pieces and the
induced grade-lowering maps are read off as blocks.

The induced maps are O-linear and satisfy the Higgs-type chart rule with
the piece transitions, which is re-verified exactly on construction.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    Bundle,
    FlatBundle,
    HiggsBundle,
    change_frame_connection,
    chart1_form,
    chart1_map,
    check_per_chart,
    full_subbundle,
    per_chart,
)
from .errors import SearchBudgetExceeded, TransversalityViolated
from .ringmath import (
    RingMatrix,
    WindowSystem,
    poly_solve,
    solve_linear_mod,
    unimodular_completion,
)

# Candidates tried by graded_higgs_isomorphic, the one isomorphism search
# behind period detection and the periodic-tuple operations.
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

    def __eq__(self, other):
        return (
            isinstance(other, HodgeFiltration)
            and self.parent == other.parent
            and self.level == other.level
            and all(
                a.rank == b.rank and a.same_as(b)
                for a, b in zip(self.steps, other.steps)
            )
        )


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


@dataclass
class DeRhamBundle:
    """Flat bundle with a transversal Hodge filtration."""

    flat: FlatBundle
    filtration: HodgeFiltration

    def validate(self):
        if self.filtration.parent != self.flat.bundle:
            raise ValueError("filtration belongs to a different bundle")
        self.filtration.validate()
        bad = transversality_offender(self.flat, self.filtration)
        if bad is not None:
            raise TransversalityViolated(
                "nabla(Fil^%d) escapes Fil^%d" % (bad, bad - 1)
            )
        return self


class GradedHiggsBundle:
    """Graded pieces E^0..E^w with grade-lowering maps theta^i: E^i ->
    E^{i-1} tensor forms; maps[k] holds theta^{k+1} per chart."""

    def __init__(self, pieces, maps):
        self.pieces = tuple(pieces)
        self.maps = tuple(tuple(m) for m in maps)
        if not self.pieces:
            raise ValueError("a graded object needs at least one piece")
        self.curve = self.pieces[0].curve
        if len(self.maps) != len(self.pieces) - 1:
            raise ValueError("one connecting map per adjacent grade pair")
        for k, mats in enumerate(self.maps):
            if len(mats) != self.curve.ncharts:
                raise ValueError("one matrix per chart required")
            for M in mats:
                if (
                    M.nrows != self.pieces[k].rank
                    or M.ncols != self.pieces[k + 1].rank
                ):
                    raise ValueError("connecting map shape mismatch")

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
        g = None
        if self.curve.is_projective:
            g = RingMatrix.block_diagonal(d, [P.transition for P in self.pieces])
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
        coords = poly_solve(B, ad, laurent_denominators=True)
        if coords is None or not coords.is_polynomial():
            raise ValueError("filtration steps are not nested")
        ad = B.mul(unimodular_completion(coords))
    return unimodular_completion(ad)


def grade(flat, filtration):
    """Graded Higgs bundle of a transversal filtration, with the adapted
    frames exposed for later lifting of graded data."""
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
    for c in range(bundle.curve.ncharts):
        for b in range(n + 1):
            for a in range(b - 1):
                chunk = aprime[c].submatrix(blocks[a], blocks[b])
                if not chunk.is_zero():
                    raise TransversalityViolated(
                        "nabla(Fil^%d) escapes Fil^%d" % (b, b - 1)
                    )

    if bundle.curve.is_projective:
        gprime_hat = inverses[1].mul(bundle.to_chart1(frames[0]))
        for b in range(n + 1):
            for a in range(b):
                chunk = gprime_hat.submatrix(blocks[a], blocks[b])
                if not chunk.is_zero():
                    raise ValueError("filtration charts do not glue")
        pieces = tuple(
            Bundle(
                bundle.curve,
                len(blocks[i]),
                bundle.curve.to_other_chart(
                    gprime_hat.submatrix(blocks[i], blocks[i])
                ),
            )
            for i in range(n + 1)
        )
    else:
        pieces = tuple(
            Bundle(bundle.curve, len(blocks[i])) for i in range(n + 1)
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
    d = A.domain
    return GradedMap(
        tuple(
            tuple(
                RingMatrix.identity(d, P.rank)
                for _ in range(A.curve.ncharts)
            )
            for P in A.pieces
        )
    )


def graded_higgs_isomorphic(A, B, budget=DEFAULT_ISO_BUDGET):
    """Search for a grade-preserving isomorphism intertwining the maps.

    The unknowns are the split-frame entries of each grade block, with
    degrees bounded by the splitting gaps; the intertwining relations are a
    linear system over the coefficient field, and candidates from the
    solution space are tried in a fixed element order, so the returned
    certificate is the first valid one in that order.  None means no
    isomorphism exists with coefficients in the instance's field.
    """
    if len(A.pieces) != len(B.pieces):
        return None
    if A == B:
        return _identity_graded_map(A)
    d = A.domain
    for PA, PB in zip(A.pieces, B.pieces):
        if PA.rank != PB.rank:
            return None
        if A.curve.is_projective and PA.splitting_type() != PB.splitting_type():
            return None
    if not A.curve.is_projective:
        types = [[0] * P.rank for P in A.pieces]
        to_split_A = [RingMatrix.identity(d, P.rank) for P in A.pieces]
        from_split_B = list(to_split_A)
        maps_A = [m[0] for m in A.maps]
        maps_B = [m[0] for m in B.maps]
    else:
        types = [P.splitting_type() for P in A.pieces]
        sd_A = [P.split_data() for P in A.pieces]
        sd_B = [P.split_data() for P in B.pieces]
        to_split_A = [sd.Q for sd in sd_A]
        from_split_B = [sd.Qinv for sd in sd_B]
        maps_A = [
            sd_A[k].Q.mul(A.maps[k][0]).mul(sd_A[k + 1].Qinv)
            for k in range(len(A.maps))
        ]
        maps_B = [
            sd_B[k].Q.mul(B.maps[k][0]).mul(sd_B[k + 1].Qinv)
            for k in range(len(B.maps))
        ]

    # unknowns: per grade, per split-frame entry, the monomials up to the
    # splitting gap
    system = WindowSystem(
        d,
        [[[range(a - b + 1) for b in tp] for a in tp] for tp in types],
    )

    # linear equations (k, r, c, e): the t^e coefficient of entry (r, c) of
    # phi^{k} theta_A^{k+1} - theta_B^{k+1} phi^{k+1}
    for k in range(len(maps_A)):
        system.add_product((k,), k, right=maps_A[k])
        system.add_product((k,), k + 1, left=maps_B[k], coef=-1)
    kernel = solve_linear_mod(system.rows(), d, system.ncols).kernel
    if not kernel:
        return None

    tried = 0
    for combo in itertools.product(d.elements(), repeat=len(kernel)):
        tried += 1
        if tried > budget:
            raise SearchBudgetExceeded(
                "isomorphism search exceeded %d candidates" % budget
            )
        coeffs = {}
        for v, gen in zip(combo, kernel):
            if v != d.zero:
                d.axpy(gen, v, coeffs)
        if coeffs:
            mats = system.matrices(coeffs)
            if all(M.is_unimodular() for M in mats):
                blocks = []
                for i, (M, PA, PB) in enumerate(zip(mats, A.pieces, B.pieces)):
                    phi0 = from_split_B[i].mul(M).mul(to_split_A[i])
                    what = "grade-%d block" % i
                    blocks.append(per_chart(phi0, chart1_map, PA, PB, what))
                return GradedMap(tuple(blocks)).validate(A, B)
    return None
