"""Vector bundles on the line, with Higgs fields, connections, and maps.

Data model: a bundle is its rank plus the transition its curve validates
(curves.py says which curves glue charts and which have free bundles only),
a Laurent matrix g in the chart-0 coordinate t with sections satisfying
x_1(s) = [g(t) x_0(t)] at t = 1/s.  The line bundle of degree a has
transition t^-a, and the splitting type is the descending exponent list of
the two-sided monomial factorization of g.  A bundle keeps the det g its
curve certifies a unit, so degree expands no second one; a line bundle over
a field is O(deg), so its splitting type factors nothing.

Matrix-valued fields attach one matrix per chart, written in that chart's
own coordinate.  The chart rule is written once: ProjectiveLine's
to_other_chart is the one substitution t -> 1/s, Bundle.to_chart1 reads
chart-0 columns in chart 1 as ghat(s) cols(1/s) with ghat(s) = g(1/s),
chart1_map gives the chart-1 matrix of a map, chart1_form that of a
matrix of 1-forms and chart1_connection that of a connection:
  * a map phi: E -> F has phi_1(s) = ghat_F(s) phi_0(1/s) ghat_E(s)^-1;
  * Higgs field theta = Theta(t) dt, O-linear, so
    Theta_1(s) = -s^-2 * ghat(s) Theta_0(1/s) ghat(s)^-1;
  * connection nabla = d + A(t) dt, with the gauge term
    A_1(s) = -s^-2 * ghat A_0(1/s) ghat^-1 + ghat * d(ghat^-1)/ds.

per_chart turns a chart-0 matrix and one of these rules into the per-chart
tuple and rejects a pole on any chart; check_per_chart asks that a stored
tuple is exactly what per_chart gives, with the rule multiplied through by
ghat_source, so that a passing check inverts nothing.
HiggsBundle.from_chart0 and the validate of every field (Higgs,
connection, map, graded connecting map, graded map) go through these two,
and every isomorphism test through RingMatrix.is_unimodular (square, with
a unit constant determinant).

Frame changes by a polynomial-unimodular Q(t) act on coordinates as
x' = Q x, on Higgs matrices by Q Theta Q^-1, and on connection matrices by
Q A Q^-1 + Q dQ^-1/dt.
"""

from .curves import laurent_unit_exponent
from .errors import ZeroSubsheaf
from .ringmath import (
    LaurentPoly,
    RingMatrix,
    birkhoff_factorize,
    poly_solve,
    saturation_basis,
    smith_form_poly,
)


def frobenius_pullback_matrix(M):
    """Coefficients through the domain Frobenius, coordinate to the p-th
    power."""
    return M.coeff_frobenius().rescale(M.domain.p)


def lines_transition(domain, exponents):
    """The transition diag(t^-a) of the sum of the lines O(a)."""
    return RingMatrix.diagonal(domain, [LaurentPoly.var(domain, -a) for a in exponents])


def chart1_map(M0, source, target):
    """The chart-1 matrix forced by the chart-0 matrix M0 of a map from
    source to target: ghat_target(s) M0(1/s) ghat_source(s)^-1."""
    return target.to_chart1(M0).mul(source.chart1_transition().inverse())


def chart1_form(M0, source, target):
    """The chart-1 matrix forced by the chart-0 matrix M0 of 1-forms with
    values in maps from source to target: chart1_map times dt/ds."""
    return chart1_map(M0, source, target).scale(target.curve.jacobian_factor())


def chart1_connection(A0, source, target):
    """The chart-1 matrix forced by the chart-0 matrix A0 of a connection on
    source, which is also its target (the argument keeps the shape of the
    other chart rules): the gauge transform of A0(1/s) dt/ds by ghat."""
    curve = source.curve
    a0_hat = curve.to_other_chart(A0).scale(curve.jacobian_factor())
    ghat = source.chart1_transition()
    return change_frame_connection(a0_hat, ghat, ghat.inverse())


def per_chart(M0, rule, source, target, what):
    """The per-chart matrices of a field with chart-0 matrix M0, as the
    curve spreads it over its charts with rule one of chart1_map,
    chart1_form and chart1_connection.  A pole on any chart raises
    ValueError."""
    mats = source.curve.over_charts(M0, rule, source, target)
    if not M0.is_polynomial():
        raise ValueError("%s matrix has a pole" % what)
    if not mats[-1].is_polynomial():
        raise ValueError("%s matrix fails to extend over infinity" % what)
    return mats


def check_per_chart(mats, rule, source, target, what):
    """Raise ValueError unless the stored per-chart matrices are exactly
    what per_chart makes of their chart-0 matrix.  A pass of
    _glued_charts_agree inverts nothing; per_chart words the error."""
    if source.curve.glued(_glued_charts_agree, mats, rule, source, target):
        return
    if per_chart(mats[0], rule, source, target, what) != tuple(mats):
        raise ValueError("%s matrices disagree on the overlap" % what)


def _glued_charts_agree(mats, rule, source, target):
    """The chart rule times ghat_source, a certified unit: polynomial (M0, M1)
    agree iff M1 ghat_source is ghat_target M0(1/s) for chart1_map, that
    times dt/ds for chart1_form, and that minus ghat' for chart1_connection
    (ghat d(ghat^-1)/ds ghat = -ghat')."""
    M0, M1 = mats
    ghat = source.chart1_transition()
    want = target.to_chart1(M0)
    if rule is not chart1_map:
        want = want.scale(target.curve.jacobian_factor())
    if rule is chart1_connection:
        want = want.sub(ghat.derivative())
    return M0.is_polynomial() and M1.is_polynomial() and M1.mul(ghat) == want


def change_frame_connection(A, Q, Qinv):
    """Q A Q^-1 + Q dQ^-1/dt for a frame change x' = Q x."""
    return Q.mul(A).mul(Qinv).add(Q.mul(Qinv.derivative()))


class Bundle:
    """A vector bundle on the line, with the transition in t that its curve
    validates (None where bundles are free).  A value: do not reassign its
    transition; _det and _degree are the curve's certified reading of it."""

    def __init__(self, curve, rank, transition=None):
        self.curve = curve
        self.rank = rank
        self._split = None
        self.transition, self._det, self._degree = curve.bundle_transition(rank, transition)

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, curve, rank):
        return cls(curve, rank)

    @classmethod
    def sum_of_lines(cls, curve, exponents):
        return cls(curve, len(exponents), lines_transition(curve.domain, exponents))

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Bundle)
            and self.curve == other.curve
            and self.rank == other.rank
            and self.transition == other.transition
        )

    def __repr__(self):
        return "Bundle(rank=%d on %r)" % (self.rank, self.curve)

    @property
    def domain(self):
        return self.curve.domain

    def chart1_transition(self):
        """ghat(s) = g(1/s), the transition read in the chart-1 coordinate."""
        return self.curve.to_other_chart(self.transition)

    def to_chart1(self, cols):
        """Chart-0 columns of sections read in chart 1: ghat(s) cols(1/s)."""
        return self.chart1_transition().mul(self.curve.to_other_chart(cols))

    def degree(self):
        """-(t-exponent of the stored det g); 0 where bundles are free."""
        return self._degree

    def splitting_type(self):
        """split_data's descending exponents; a field's line bundle is O(degree)."""
        if self.rank == 1 and self.curve.is_projective and self.domain.is_field:
            return [self.degree()]
        return list(self.split_data().exponents)

    def split_data(self):
        """Birkhoff data diagonalizing the transition (field domains only)."""
        if self._split is None:
            if not self.curve.is_projective:
                raise ValueError("splitting data only exists on the projective line")
            fact = birkhoff_factorize(self.transition, self._det)
            self._split = SplitFrames(self, fact)
        return self._split

    def direct_sum(self, *others):
        """The direct sum of self and others, blocks in that order."""
        if any(E.curve != self.curve for E in others):
            raise ValueError("direct sum needs a shared curve")
        summands = (self,) + others
        blocks = [E.transition for E in summands]
        g = self.curve.glued(RingMatrix.block_diagonal, self.domain, blocks)
        return Bundle(self.curve, sum(E.rank for E in summands), g)


class SplitFrames:
    """Frame change splitting a bundle into a sum of line bundles.

    New coordinates x0' = Q x0 and x1' = Phat^-1 x1 turn the transition into
    diag(t^-a_i) with descending a_i.
    """

    def __init__(self, bundle, fact):
        self.exponents = list(fact.exponents)
        self.Q = fact.Q
        self.Qinv = fact.Qinv
        self.Phat = bundle.curve.to_other_chart(fact.P)


class HiggsBundle:
    """Bundle plus one Higgs matrix per chart (theta = Theta dt).

    A value: do not reassign its bundle or Higgs matrices after
    construction.  _level_one is the state the inverse transform fills on
    first use (cartier._state)."""

    def __init__(self, bundle, theta):
        self.bundle = bundle
        self.theta = tuple(theta)
        self._level_one = None
        r = bundle.rank
        bundle.curve.check_charts(self.theta, r, r, "Higgs matrix", "Higgs matrix")

    @classmethod
    def from_chart0(cls, bundle, theta0):
        """Build from the chart-0 matrix; on P^1 the chart-1 matrix is forced,
        and both must be polynomial."""
        return cls(bundle, per_chart(theta0, chart1_form, bundle, bundle, "Higgs"))

    @classmethod
    def zero(cls, bundle):
        z = RingMatrix.zeros(bundle.domain, bundle.rank, bundle.rank)
        return cls(bundle, tuple(z for _ in range(bundle.curve.ncharts)))

    def validate(self):
        check_per_chart(self.theta, chart1_form, self.bundle, self.bundle, "Higgs")
        return self


class FlatBundle:
    """Bundle plus one connection matrix per chart (nabla = d + A dt)."""

    def __init__(self, bundle, A):
        self.bundle = bundle
        self.A = tuple(A)
        r = bundle.rank
        bundle.curve.check_charts(self.A, r, r, "connection matrix", "connection matrix")

    def validate(self):
        E = self.bundle
        check_per_chart(self.A, chart1_connection, E, E, "connection")
        return self

    def covariant_derivative(self, cols, chart=0):
        """nabla applied to the columns cols of a chart's sections against
        its coordinate field: cols' + A cols."""
        return cols.derivative().add(self.A[chart].mul(cols))


class BundleMap:
    """Map of bundles: one polynomial matrix per chart."""

    def __init__(self, source, target, phi):
        self.source = source
        self.target = target
        self.phi = tuple(phi)
        source.curve.check_charts(self.phi, target.rank, source.rank, "matrix", "map")

    def validate(self):
        check_per_chart(self.phi, chart1_map, self.source, self.target, "map")
        return self

    def compose(self, earlier):
        """self after earlier."""
        if earlier.target != self.source:
            raise ValueError("composition mismatch")
        return BundleMap(
            earlier.source,
            self.target,
            tuple(a.mul(b) for a, b in zip(self.phi, earlier.phi)),
        )

    def is_isomorphism(self):
        return all(M.is_unimodular() for M in self.phi)

    def is_horizontal(self, flat_source, flat_target):
        """phi commutes with the connections:
        dphi/dt + A_B phi - phi A_A = 0 on every chart."""
        return all(
            flat_target.covariant_derivative(M, c).sub(M.mul(A)).is_zero()
            for c, (M, A) in enumerate(zip(self.phi, flat_source.A))
        )


class Subbundle:
    """Saturated subbundle, as a polynomial basis per chart.

    basis[c] is a (parent rank) x r polynomial matrix whose columns span the
    subsheaf's sections over chart c; each basis must be saturated, and
    where charts are glued the spans must match on the overlap.
    """

    def __init__(self, parent, basis):
        self.parent = parent
        self.basis = tuple(basis)
        r = self.basis[0].ncols
        for B in self.basis:
            if B.nrows != parent.rank or B.ncols != r:
                raise ValueError("subbundle basis shape mismatch")
        if r == 0:
            raise ZeroSubsheaf("a subbundle needs at least one generator")
        self.rank = r

    @classmethod
    def from_chart0_span(cls, parent, columns):
        """Saturated subbundle generated by Laurent column spans on chart 0."""
        if columns.ncols == 0:
            raise ZeroSubsheaf("empty generating set")
        B0 = saturation_basis(_clear_denominators(columns))
        if B0.ncols == 0:
            raise ZeroSubsheaf("generators span the zero subsheaf")
        return cls(parent, parent.curve.over_charts(B0, _chart1_span, parent))

    def validate(self):
        for B in self.basis:
            if not B.is_polynomial():
                raise ValueError("subbundle basis has a pole")
            sf = smith_form_poly(B)
            factors = sf.invariant_factors()
            if len(factors) < B.ncols or any(
                f.is_zero() or f.degree() != 0 for f in factors
            ):
                raise ValueError("subbundle basis is not saturated")
        self.parent.curve.glued(_check_spans_glue, self)
        return self

    def induced_transition(self):
        """ghat_S(s) with x_1 = ghat_S(s) x_0(1/s) in subbundle coordinates."""
        w = self.parent.to_chart1(self.basis[0])
        h = poly_solve(self.basis[1], w, laurent_denominators=True)
        if h is None:
            raise ValueError("subbundle charts do not glue")
        return h

    def degree(self):
        """The degree of the induced transition; 0 where bundles are free."""
        return self.parent.curve.glued(_glued_degree, self) or 0

    def slope(self):
        from fractions import Fraction

        return Fraction(self.degree(), self.rank)

    def contains_chart0(self, columns):
        """Do the given Laurent chart-0 columns lie in the subsheaf span?"""
        return (
            poly_solve(
                self.basis[0], _clear_denominators(columns), laurent_denominators=True
            )
            is not None
        )


def _chart1_span(B0, parent):
    """The saturated chart-1 span of the chart-0 basis B0, of its rank."""
    B1 = saturation_basis(_clear_denominators(parent.to_chart1(B0)))
    if B1.ncols != B0.ncols:
        raise ZeroSubsheaf("chart spans have different ranks")
    return B1


def _check_spans_glue(sub):
    """Raise ValueError unless each chart's span lies in the other's."""
    parent, B0, B1 = sub.parent, sub.basis[0], sub.basis[1]
    w = _clear_denominators(parent.to_chart1(B0))
    if poly_solve(B1, w, laurent_denominators=True) is None:
        raise ValueError("chart-0 span escapes the chart-1 span")
    back = _clear_denominators(
        parent.transition.inverse().mul(parent.curve.to_other_chart(B1))
    )
    if poly_solve(B0, back, laurent_denominators=True) is None:
        raise ValueError("chart-1 span escapes the chart-0 span")


def _glued_degree(sub):
    return laurent_unit_exponent(sub.induced_transition().det())


def _clear_denominators(M):
    """Scale a Laurent column matrix by a power of t to make it polynomial."""
    v = M.min_valuation()
    if v is None or v >= 0:
        return M
    return M.shift_all(-v)


def full_subbundle(bundle):
    """The bundle as a subbundle of itself (identity bases)."""
    I = RingMatrix.identity(bundle.domain, bundle.rank)
    return Subbundle(bundle, tuple(I for _ in range(bundle.curve.ncharts)))


def hn_filtration(bundle):
    """Harder-Narasimhan filtration of a plain bundle on P^1, computed from
    the splitting frames: 0 < E_1 < ... < E_k = E with strictly decreasing
    slopes, each step a sum of equal-degree line bundles, saturated from
    the leading columns of Qinv and Phat as read."""
    sd = bundle.split_data()
    exps = sd.exponents
    steps = []
    cut = 0
    while cut < len(exps):
        value = exps[cut]
        while cut < len(exps) and exps[cut] == value:
            cut += 1
        if cut == len(exps):
            steps.append(full_subbundle(bundle))
            break
        B0 = saturation_basis(_clear_denominators(sd.Qinv.columns(range(cut))))
        B1 = saturation_basis(_clear_denominators(sd.Phat.columns(range(cut))))
        steps.append(Subbundle(bundle, (B0, B1)))
    return steps
