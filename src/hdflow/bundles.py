"""Vector bundles on the line, with Higgs fields, connections, and maps.

Data model: a bundle on the projective line is its rank plus one transition
matrix g, stored as a Laurent matrix in the chart-0 coordinate t; sections
satisfy x_1(s) = [g(t) x_0(t)] at t = 1/s.  A bundle on the affine line is
free and carries no transition.  The line bundle of degree a has transition
t^-a, so deg(E) = -(t-exponent of det g), and the splitting type is the
descending exponent list of the two-sided monomial factorization of g.

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
tuple is exactly what per_chart gives.  The from_chart0 and validate of
every field (Higgs, connection, map, graded connecting map, graded map) go
through these two, and every isomorphism test through
RingMatrix.is_unimodular (square, with a unit constant determinant).

Frame changes by a polynomial-unimodular Q(t) act on coordinates as
x' = Q x, on Higgs matrices by Q Theta Q^-1, and on connection matrices by
Q A Q^-1 + Q dQ^-1/dt.
"""

from .errors import ExponentTooLarge, NonInvertible, WrongModulus, ZeroSubsheaf
from .ringmath import (
    LaurentPoly,
    RingMatrix,
    birkhoff_factorize,
    poly_solve,
    saturation_basis,
    smith_form_poly,
)


def laurent_unit_exponent(poly):
    """The exponent of the unique unit-coefficient slot of a Laurent unit."""
    d = poly.domain
    slots = [e for e, c in poly.coeffs.items() if d.is_unit(c)]
    if len(slots) != 1:
        raise NonInvertible("%r is not a Laurent unit" % poly)
    return slots[0]


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


def frobenius_pullback_matrix(M):
    """Coefficients through the domain Frobenius, coordinate to the p-th
    power."""
    return M.coeff_frobenius().rescale(M.domain.p)


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
    """The per-chart matrices of a field with chart-0 matrix M0: (M0,) on
    A^1, and on P^1 (M0, rule(M0, source, target)) with rule one of
    chart1_map, chart1_form and chart1_connection.  A pole on any chart
    raises ValueError."""
    mats = (M0, rule(M0, source, target)) if source.curve.is_projective else (M0,)
    if not M0.is_polynomial():
        raise ValueError("%s matrix has a pole" % what)
    if not mats[-1].is_polynomial():
        raise ValueError("%s matrix fails to extend over infinity" % what)
    return mats


def check_per_chart(mats, rule, source, target, what):
    """Raise ValueError unless the stored per-chart matrices are exactly
    what per_chart makes of their chart-0 matrix."""
    if per_chart(mats[0], rule, source, target, what) != tuple(mats):
        raise ValueError("%s matrices disagree on the overlap" % what)


def change_frame_higgs(theta, Q, Qinv):
    """Q Theta Q^-1 for a frame change x' = Q x."""
    return Q.mul(theta).mul(Qinv)


def change_frame_connection(A, Q, Qinv):
    """Q A Q^-1 + Q dQ^-1/dt for a frame change x' = Q x."""
    return Q.mul(A).mul(Qinv).add(Q.mul(Qinv.derivative()))


class Bundle:
    """A vector bundle on the line (transition in t; None means free)."""

    def __init__(self, curve, rank, transition=None):
        self.curve = curve
        self.rank = rank
        self.transition = transition
        self._split = None
        if curve.is_projective:
            if transition is None:
                self.transition = RingMatrix.identity(curve.domain, rank)
            g = self.transition
            if g.nrows != rank or g.ncols != rank:
                raise ValueError("transition shape does not match rank")
            if g.domain != curve.domain:
                raise ValueError("transition over the wrong coefficient domain")
            if not g.det().is_unit():
                raise NonInvertible("transition determinant is not a unit")
        else:
            if transition is not None:
                raise ValueError("affine-line bundles are free: no transition")

    # -- constructors -------------------------------------------------------

    @classmethod
    def free(cls, curve, rank):
        return cls(curve, rank)

    @classmethod
    def line(cls, curve, a):
        d = curve.domain
        return cls(curve, 1, RingMatrix(d, [[LaurentPoly.var(d, -a)]]))

    @classmethod
    def sum_of_lines(cls, curve, exponents):
        d = curve.domain
        return cls(
            curve,
            len(exponents),
            RingMatrix.diagonal(d, [LaurentPoly.var(d, -a) for a in exponents]),
        )

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
        if not self.curve.is_projective:
            return 0
        return -laurent_unit_exponent(self.transition.det())

    def splitting_type(self):
        return list(self.split_data().exponents)

    def split_data(self):
        """Birkhoff data diagonalizing the transition (field domains only)."""
        if self._split is None:
            if not self.curve.is_projective:
                raise ValueError("splitting data only exists on the projective line")
            fact = birkhoff_factorize(self.transition)
            self._split = SplitFrames(self, fact)
        return self._split

    def is_trivial_type(self):
        if not self.curve.is_projective:
            return True
        return all(a == 0 for a in self.splitting_type())

    def direct_sum(self, other):
        if self.curve != other.curve:
            raise ValueError("direct sum needs a shared curve")
        if not self.curve.is_projective:
            return Bundle(self.curve, self.rank + other.rank)
        g = RingMatrix.block_diagonal(
            self.domain, [self.transition, other.transition]
        )
        return Bundle(self.curve, self.rank + other.rank, g)

    def twist(self, k):
        """Tensor with the degree-k line bundle."""
        if not self.curve.is_projective:
            return self
        tw = LaurentPoly.var(self.domain, -k)
        return Bundle(self.curve, self.rank, self.transition.scale(tw))


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
    """Bundle plus one Higgs matrix per chart (theta = Theta dt)."""

    def __init__(self, bundle, theta):
        self.bundle = bundle
        self.theta = tuple(theta)
        if len(self.theta) != bundle.curve.ncharts:
            raise ValueError("one Higgs matrix per chart required")
        for T in self.theta:
            if T.nrows != bundle.rank or T.ncols != bundle.rank:
                raise ValueError("Higgs matrix shape mismatch")

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

    def nilpotency_index(self):
        """Least k with Theta^k = 0, or None if not nilpotent."""
        d = self.bundle.domain
        M = self.theta[0]
        power = RingMatrix.identity(d, self.bundle.rank)
        for k in range(self.bundle.rank + 1):
            if power.is_zero():
                return k
            power = power.mul(M)
        if power.is_zero():
            return self.bundle.rank + 1
        return None

    def is_nilpotent(self):
        return self.nilpotency_index() is not None


class FlatBundle:
    """Bundle plus one connection matrix per chart (nabla = d + A dt)."""

    def __init__(self, bundle, A):
        self.bundle = bundle
        self.A = tuple(A)
        if len(self.A) != bundle.curve.ncharts:
            raise ValueError("one connection matrix per chart required")
        for M in self.A:
            if M.nrows != bundle.rank or M.ncols != bundle.rank:
                raise ValueError("connection matrix shape mismatch")

    @classmethod
    def from_chart0(cls, bundle, a0):
        A = per_chart(a0, chart1_connection, bundle, bundle, "connection")
        return cls(bundle, A)

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
        if len(self.phi) != source.curve.ncharts:
            raise ValueError("one matrix per chart required")
        for M in self.phi:
            if M.nrows != target.rank or M.ncols != source.rank:
                raise ValueError("map shape mismatch")

    @classmethod
    def from_chart0(cls, source, target, phi0):
        return cls(source, target, per_chart(phi0, chart1_map, source, target, "map"))

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

    def respects_higgs(self, higgs_source, higgs_target):
        """phi is a map of Higgs bundles: phi Theta_A = Theta_B phi chartwise."""
        return all(
            self.phi[c].mul(higgs_source.theta[c])
            == higgs_target.theta[c].mul(self.phi[c])
            for c in range(len(self.phi))
        )

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
    subsheaf's sections over chart c; on P^1 the two spans must match on the
    overlap and each basis must be saturated.
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
        if not parent.curve.is_projective:
            return cls(parent, (B0,))
        B1 = saturation_basis(_clear_denominators(parent.to_chart1(B0)))
        if B1.ncols != B0.ncols:
            raise ZeroSubsheaf("chart spans have different ranks")
        return cls(parent, (B0, B1))

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
        parent = self.parent
        if parent.curve.is_projective:
            w = _clear_denominators(parent.to_chart1(self.basis[0]))
            if poly_solve(self.basis[1], w, laurent_denominators=True) is None:
                raise ValueError("chart-0 span escapes the chart-1 span")
            back = _clear_denominators(
                parent.transition.inverse().mul(
                    parent.curve.to_other_chart(self.basis[1])
                )
            )
            if poly_solve(self.basis[0], back, laurent_denominators=True) is None:
                raise ValueError("chart-1 span escapes the chart-0 span")
        return self

    def induced_transition(self):
        """ghat_S(s) with x_1 = ghat_S(s) x_0(1/s) in subbundle coordinates."""
        w = self.parent.to_chart1(self.basis[0])
        h = poly_solve(self.basis[1], w, laurent_denominators=True)
        if h is None:
            raise ValueError("subbundle charts do not glue")
        return h

    def degree(self):
        if not self.parent.curve.is_projective:
            return 0
        return laurent_unit_exponent(self.induced_transition().det())

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

    def same_as(self, other):
        return (
            self.rank == other.rank
            and self.parent == other.parent
            and other.contains_chart0(self.basis[0])
            and self.contains_chart0(other.basis[0])
        )


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
    slopes, each step a sum of equal-degree line bundles."""
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
        sel = RingMatrix.identity(bundle.domain, bundle.rank).columns(range(cut))
        B0 = saturation_basis(_clear_denominators(sd.Qinv.mul(sel)))
        B1 = saturation_basis(_clear_denominators(sd.Phat.mul(sel)))
        steps.append(Subbundle(bundle, (B0, B1)))
    return steps
