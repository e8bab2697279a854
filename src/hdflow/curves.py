"""Charts, coordinate changes, and Frobenius liftings for the line.

The projective line carries two charts with coordinates t and s = 1/t;
sections transform by v_1(s) = [g(t) v_0(t)] at t = 1/s, and the 1-form basis
transforms by dt = -s^{-2} ds (symmetrically ds = -t^{-2} dt).  The affine
line has a single chart with coordinate t.

A Frobenius lifting assigns to each chart a polynomial h with
F(t) = t^p + p*h(t); h is stored over the working ring Z/p^m and determines
F modulo p^{m+1}.  The division-by-p helpers (dF/p and the z-difference of
two liftings) are exact and land back in Z/p^m.
"""

from dataclasses import dataclass, field

from .errors import WrongModulus
from .ringmath import LaurentPoly, Zmod


class ProjectiveLine:
    """P^1 over a coefficient domain, as two glued affine charts."""

    ncharts = 2
    is_projective = True

    def __init__(self, domain):
        self.domain = domain

    def __eq__(self, other):
        return isinstance(other, ProjectiveLine) and self.domain == other.domain

    def __hash__(self):
        return hash(("P1", self.domain))

    def __repr__(self):
        return "ProjectiveLine(%r)" % (self.domain,)

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


class AffineLine:
    """A^1 over a coefficient domain: one chart, coordinate t."""

    ncharts = 1
    is_projective = False

    def __init__(self, domain):
        self.domain = domain

    def __eq__(self, other):
        return isinstance(other, AffineLine) and self.domain == other.domain

    def __hash__(self):
        return hash(("A1", self.domain))

    def __repr__(self):
        return "AffineLine(%r)" % (self.domain,)


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
