"""Curves, their charts, and Frobenius liftings of the line.

ProjectiveLine and AffineLine own every fact that depends on the curve;
other modules ask the curve and never test its kind.  A curve kind supplies:
  * tag, its documents' 'curve' field (CURVES maps tags to classes);
  * ncharts and check_charts: a field keeps one matrix per chart;
  * over_charts(M0, rule, *args): a field's per-chart matrices from its
    chart-0 matrix M0, with rule(M0, *args) giving chart 1;
  * bundle_transition(rank, g): a bundle's transition, validated, with its
    determinant and degree;
  * glued(make, *args): make(*args) where two charts are glued, so that
    bundles carry transitions; None where every bundle is free;
  * document_transition_error(raw): why a document's transition entry does
    not fit, or None;
  * is_projective: properness, so that degree and splitting type exist;
    tests/test_curves.py lists its few readers outside this module.

The projective line carries two charts with coordinates t and s = 1/t;
sections transform by v_1(s) = [g(t) v_0(t)] at t = 1/s, and the 1-form basis
transforms by dt = -s^{-2} ds (symmetrically ds = -t^{-2} dt).  A bundle's
transition is the identity unless given, with det a Laurent unit c t^-deg.
The affine line has one chart, coordinate t, and every bundle on it is free.

A Frobenius lifting assigns to each chart a polynomial h with
F(t) = t^p + p*h(t); h is stored over the working ring Z/p^m and determines
F modulo p^{m+1}.  The division-by-p helpers (dF/p and the z-difference of
two liftings) are exact and land back in Z/p^m.
"""

from dataclasses import dataclass, field

from .errors import NonInvertible, WrongModulus
from .ringmath import LaurentPoly, RingMatrix, Zmod


def laurent_unit_exponent(poly):
    """The exponent of the unique unit-coefficient slot of a Laurent unit."""
    d = poly.domain
    slots = [e for e, c in poly.coeffs.items() if d.is_unit(c)]
    if len(slots) != 1:
        raise NonInvertible("%r is not a Laurent unit" % poly)
    return slots[0]


class _Line:
    """A curve over a coefficient domain; equal when kind and domain agree."""

    def __init__(self, domain):
        self.domain = domain

    def __eq__(self, other):
        return type(other) is type(self) and self.domain == other.domain

    def __hash__(self):
        return hash((self.tag, self.domain))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.domain)

    def check_charts(self, mats, nrows, ncols, noun, what):
        """Raise ValueError unless mats holds one nrows x ncols matrix per
        chart; noun and what name the matrices in the two errors."""
        if len(mats) != self.ncharts:
            raise ValueError("one %s per chart required" % noun)
        for M in mats:
            if M.nrows != nrows or M.ncols != ncols:
                raise ValueError("%s shape mismatch" % what)


class ProjectiveLine(_Line):
    """P^1 over a coefficient domain, as two glued affine charts."""

    tag = "P1"
    ncharts = 2
    is_projective = True

    def to_other_chart(self, obj):
        """Rewrite a Laurent polynomial or matrix in the other chart's
        coordinate (t -> 1/s; the change is an involution that negates
        exponents).  The only place the library inverts the coordinate."""
        return obj.rescale(-1)

    def jacobian_factor(self):
        """d(old coordinate)/d(new coordinate) written in the new coordinate:
        dt/ds = -s^-2 (and symmetrically ds/dt = -t^-2)."""
        d = self.domain
        return LaurentPoly(d, {-2: d.neg(d.one)})

    def over_charts(self, M0, rule, *args):
        return (M0, rule(M0, *args))

    def glued(self, make, *args):
        return make(*args)

    def bundle_transition(self, rank, g):
        if g is None:
            g = RingMatrix.identity(self.domain, rank)
        if g.nrows != rank or g.ncols != rank:
            raise ValueError("transition shape does not match rank")
        if g.domain != self.domain:
            raise ValueError("transition over the wrong coefficient domain")
        det = g.det()
        if not det.is_unit():
            raise NonInvertible("transition determinant is not a unit")
        return g, det, -laurent_unit_exponent(det)

    def document_transition_error(self, raw):
        return "projective bundles need a transition" if raw is None else None


class AffineLine(_Line):
    """A^1 over a coefficient domain: one chart, coordinate t."""

    tag = "A1"
    ncharts = 1
    is_projective = False

    def over_charts(self, M0, rule, *args):
        return (M0,)

    def glued(self, make, *args):
        return None

    def bundle_transition(self, rank, g):
        if g is not None:
            raise ValueError("affine-line bundles are free: no transition")
        return None, None, 0

    def document_transition_error(self, raw):
        return None if raw is None else "affine bundles are free: transition must be null"


CURVES = {kind.tag: kind for kind in (ProjectiveLine, AffineLine)}
UNKNOWN_CURVE = "curve must be %s" % " or ".join(map(repr, CURVES))


@dataclass(frozen=True)
class FrobeniusLifting:
    """Chart-by-chart lifting t -> t^p + p*h(t) of the p-power map.

    h entries are polynomial LaurentPoly objects in the chart's own
    coordinate, over a Zmod(p, m) working ring.
    """

    curve: object
    h: tuple = field(default=())

    def __post_init__(self):
        ring = self.curve.domain
        if not isinstance(ring, Zmod):
            raise WrongModulus("Frobenius liftings need a Z/p^m coefficient ring")
        if len(self.h) != self.curve.ncharts:
            raise ValueError("one h polynomial per chart required")
        for poly in self.h:
            if poly.domain != ring:
                raise WrongModulus("h polynomial over the wrong ring")
            if not poly.is_polynomial():
                raise ValueError("h must be polynomial in the chart coordinate")

    @classmethod
    def standard(cls, curve):
        """The lifting with h = 0 on every chart (t -> t^p)."""
        zero = LaurentPoly.zero(curve.domain)
        return cls(curve, tuple(zero for _ in range(curve.ncharts)))

    @property
    def p(self):
        return self.curve.domain.p

    def h_at(self, chart, ring):
        poly = self.h[chart]
        if ring.m <= poly.domain.m:
            return poly.reduce_to(ring)
        return poly.lift_to(ring)

    def frobenius_image(self, chart, ring):
        """F(t) = t^p + p*h(t) over ring; well defined for ring precision up
        to one more than the stored precision of h."""
        if ring.m > self.curve.domain.m + 1:
            raise WrongModulus("lifting stored at too low a precision")
        p = self.p
        h = self.h_at(chart, ring)
        return LaurentPoly.var(ring, p).add(h.scale(ring.coerce(p)))

    def derivative_quotient(self, chart, ring):
        """(dF/dt)/p = t^(p-1) + h'(t), exactly, over ring."""
        if ring.m > self.curve.domain.m:
            raise WrongModulus("lifting stored at too low a precision")
        p = self.p
        hprime = self.h_at(chart, ring).derivative()
        return LaurentPoly.var(ring, p - 1).add(hprime)

    def z_same_chart(self, other, chart, ring):
        """(F_self - F_other)/p on a shared chart: equals h_self - h_other."""
        if self.curve != other.curve:
            raise ValueError("liftings live on different curves")
        return self.h_at(chart, ring).sub(other.h_at(chart, ring))

    def z_cross_chart(self, ring):
        """(F_0(t) - Fhat_1(t))/p on the overlap of P^1, in the chart-0
        coordinate, where Fhat_1(t) = 1/F_1(1/t) is the chart-1 lifting
        rewritten through the coordinate change."""
        if not self.curve.is_projective:
            raise ValueError("cross-chart difference needs two charts")
        if ring.m > self.curve.domain.m:
            raise WrongModulus("lifting stored at too low a precision")
        p = self.p
        big = Zmod(p, ring.m + 1)
        f0 = LaurentPoly.var(big, p).add(self.h_at(0, ring).lift_to(big).scale(p))
        h1 = self.h_at(1, ring).lift_to(big)
        f1_in_t = LaurentPoly.var(big, -p).add(
            self.curve.to_other_chart(h1).scale(p)
        )
        fhat1 = f1_in_t.inverse_unit()
        return f0.sub(fhat1).p_divide(1, ring)
