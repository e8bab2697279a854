"""Seeded generation of valid flow inputs.

The admissible parameter box is small by design: p in {3, 5, 7}, total
rank at most 4, grading weight at most p - 2, splitting exponents bounded
by 6 in absolute value.  Everything here is driven by random.Random(seed)
only, so a (parameters, seed) pair always regenerates the same corpus,
and every emitted instance passes its own validate().
"""

import random
from dataclasses import dataclass

from .bundles import Bundle, HiggsBundle, chart1_form, lines_transition, per_chart
from .curves import CURVES, UNKNOWN_CURVE, FrobeniusLifting, ProjectiveLine
from .graded import GradedHiggsBundle
from .ringmath import LaurentPoly, RingMatrix, Zmod, random_poly
from .witt import LiftingInputTuple

ALLOWED_PRIMES = (3, 5, 7)
MAX_RANK = 4
MAX_EXPONENT = 6


class CorpusParamError(ValueError):
    """Requested parameters fall outside the supported box."""


@dataclass(frozen=True)
class CorpusParams:
    """Sampling box for one corpus: everything needed to regenerate it."""

    p: int
    rank: int
    weight: int
    count: int
    seed: int
    curve: str = ProjectiveLine.tag
    max_exp: int = MAX_EXPONENT

    def __post_init__(self):
        if self.p not in ALLOWED_PRIMES:
            raise CorpusParamError("p must be one of %s" % (ALLOWED_PRIMES,))
        if not 1 <= self.rank <= MAX_RANK:
            raise CorpusParamError("rank must lie in 1..%d" % MAX_RANK)
        if self.weight < 0 or self.weight > self.p - 2:
            raise CorpusParamError(
                "weight must lie in 0..p-2 = 0..%d" % (self.p - 2)
            )
        if self.weight + 1 > self.rank:
            raise CorpusParamError("need rank >= weight + 1 for positive pieces")
        if self.count < 1:
            raise CorpusParamError("count must be positive")
        if self.curve not in CURVES:
            raise CorpusParamError(UNKNOWN_CURVE)
        if not 0 <= self.max_exp <= MAX_EXPONENT:
            raise CorpusParamError(
                "splitting exponents are capped at %d" % MAX_EXPONENT
            )


def _composition(rng, total, parts):
    """Random composition of total into the given number of positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _random_unimodular(rng, ring, n):
    """Product of elementary row operations: unit diagonal scalings and
    polynomial shears, hence unimodular over the polynomial ring."""
    M = RingMatrix.identity(ring, n)
    for _ in range(4):
        if n == 1 or rng.random() < 0.3:
            i = rng.randrange(n)
            u = rng.randrange(1, ring.p) + ring.p * rng.randrange(
                ring.modulus // ring.p if ring.modulus > ring.p else 1
            )
            E = RingMatrix.identity(ring, n)
            rows = [
                [E.entry(a, b) for b in range(n)] for a in range(n)
            ]
            rows[i][i] = LaurentPoly.const(ring, ring.coerce(u))
            M = RingMatrix(ring, rows).mul(M)
        else:
            i, j = rng.sample(range(n), 2)
            E = RingMatrix.identity(ring, n)
            rows = [[E.entry(a, b) for b in range(n)] for a in range(n)]
            rows[i][j] = random_poly(rng, ring, rng.randrange(3))
            M = RingMatrix(ring, rows).mul(M)
    return M


# ---------------------------------------------------------------------------
# graded Higgs instances


def _graded_instance(rng, params, ring, curve):
    ranks = _composition(rng, params.rank, params.weight + 1)
    exps = [
        [rng.randint(-params.max_exp, params.max_exp) for _ in range(r)]
        for r in ranks
    ]
    pieces = [Bundle(curve, len(e), curve.glued(lines_transition, ring, e)) for e in exps]
    maps = []
    for k in range(params.weight):
        rows = []
        for i in range(ranks[k]):
            row = []
            for j in range(ranks[k + 1]):
                dmax = exps[k][i] - exps[k + 1][j] - 2 if curve.is_projective else 2
                row.append(random_poly(rng, ring, dmax))
            rows.append(row)
        M0 = RingMatrix(ring, rows)
        source, target = pieces[k + 1], pieces[k]
        maps.append(per_chart(M0, chart1_form, source, target, "connecting map"))
    return GradedHiggsBundle(pieces, maps).validate()


def generate(params):
    """The corpus for one parameter box: count validated instances."""
    rng = random.Random(params.seed)
    ring = Zmod(params.p, 1)
    curve = CURVES[params.curve](ring)
    return [_graded_instance(rng, params, ring, curve) for _ in range(params.count)]


def one_periodic_instances(p):
    """Named sub-corpus of instances whose canonical flow has period
    (0, 1): trivial-type graded objects, whose transform is again
    trivial and whose canonical filtration is the trivial one."""
    if p not in ALLOWED_PRIMES:
        raise CorpusParamError("p must be one of %s" % (ALLOWED_PRIMES,))
    ring = Zmod(p, 1)
    curve = ProjectiveLine(ring)
    out = []
    for r in range(1, MAX_RANK + 1):
        G = GradedHiggsBundle([Bundle.free(curve, r)], ())
        out.append(("trivial-rank-%d" % r, G.validate()))
    return out


# ---------------------------------------------------------------------------
# plain Higgs bundles (nilpotent by construction)


def random_nilpotent_higgs(rng, p, rank, curve=ProjectiveLine.tag):
    """A nilpotent Higgs bundle: the total object of a random graded
    instance with splitting exponents bounded by 3, frame-twisted on the
    affine line where frames are free."""
    weight = rng.randint(0 if rank == 1 else 1, min(p - 2, rank - 1))
    params = CorpusParams(
        p=p,
        rank=rank,
        weight=weight,
        count=1,
        seed=rng.randrange(2**30),
        curve=curve,
        max_exp=3,
    )
    inner = random.Random(params.seed)
    ring = Zmod(p, 1)
    crv = CURVES[curve](ring)
    H = _graded_instance(inner, params, ring, crv).total()
    if not crv.is_projective:
        Q = _random_unimodular(rng, ring, rank)
        theta0 = Q.mul(H.theta[0]).mul(Q.inverse())
        H = HiggsBundle(H.bundle, (theta0,))
    return H


# ---------------------------------------------------------------------------
# lifting input tuples for the truncated-Witt stage


def random_witt_tuple(rng, p, n, ranks):
    """A valid lifting input: unit-determinant graded frames, the
    grade-raising part of the reduced connection forced compatible with
    them, and free lower blocks, all drawn with entries of degree at most 1."""
    ring = Zmod(p, n)
    theta = tuple(
        _nonzero_matrix(rng, ring, ranks[g], ranks[g + 1])
        for g in range(len(ranks) - 1)
    )
    if n == 1:
        return LiftingInputTuple(ring, tuple(ranks), theta)
    down = Zmod(p, n - 1)
    psibar = tuple(_random_unimodular(rng, down, r) for r in ranks)
    blocks = {
        (g, g + 1): psibar[g].inverse().mul(theta[g].reduce_to(down)).mul(psibar[g + 1])
        for g in range(len(ranks) - 1)
    }
    # draws in the order gc, then gr >= gc, then row, then column
    for gc in range(len(ranks)):
        for gr in range(gc, len(ranks)):
            blocks[(gr, gc)] = RingMatrix(
                down,
                [
                    [random_poly(rng, down, 1) for _ in range(ranks[gc])]
                    for _ in range(ranks[gr])
                ],
            )
    abar = RingMatrix.from_blocks(down, ranks, ranks, blocks)
    return LiftingInputTuple(
        ring, tuple(ranks), theta, abar=abar, psibar=psibar
    )


def _nonzero_matrix(rng, ring, nr, nc):
    while True:
        M = RingMatrix(
            ring,
            [[random_poly(rng, ring, 1) for _ in range(nc)] for _ in range(nr)],
        )
        if any(
            M.entry(i, j).coeffs for i in range(nr) for j in range(nc)
        ):
            return M


def random_lifting(rng, curve):
    """A coordinate-power lifting perturbed by a random polynomial h of
    degree at most 2 on every chart, in that chart's own coordinate."""
    ring = curve.domain
    hs = tuple(random_poly(rng, ring, 2) for _ in range(curve.ncharts))
    return FrobeniusLifting(curve, hs)
