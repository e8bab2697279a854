"""The characteristic-p inverse transform from Higgs bundles to flat bundles.

Construction, chart by chart: pull the bundle back along the p-power map
(coefficients through the domain Frobenius, coordinate through t -> t^p) and
put on it the connection A = (dF/p) * (pullback of Theta), where F is the
chosen chart lifting of the p-power map.  Across charts the pullback
transitions are corrected by the Taylor matrix exp(z * pullback of Theta),
with z the p-divided difference of the liftings on the overlap; the whole sum
is finite because Theta is nilpotent of index below p.

Everything returned is validated structurally; the p-curvature law and the
transform's degree scaling by p are checked in the test suite and exposed
here as predicted values.

Sign conventions, frozen: the connection uses the plus sign
(A = +(dF/p) Theta-pullback), the gluing uses exp(+z Theta-pullback), and the
p-curvature of the transform comes out as minus the Theta-pullback.  The
opposite convention is the same construction run at -theta; ov_sign_check
verifies that statement by evaluating both sides through independent code
paths.
"""

from dataclasses import dataclass

from .bundles import (
    Bundle,
    BundleMap,
    FlatBundle,
    HiggsBundle,
    frobenius_pullback_matrix,
    nilpotent_matrix_exp,
)
from .curves import FrobeniusLifting
from .errors import ExponentTooLarge, WrongModulus
from .ringmath import LaurentPoly, RingMatrix, Zmod


def check_nilpotency(higgs):
    """Nilpotency index of the Higgs matrix; must stay below p."""
    idx = higgs.nilpotency_index()
    p = higgs.bundle.domain.p
    if idx is None or idx > p - 1:
        raise ExponentTooLarge(
            "Higgs field must be nilpotent of index at most p-1"
        )
    return idx


def pullback_higgs_matrices(higgs):
    """Per-chart pullback of the Higgs matrices (no dF factor)."""
    return tuple(frobenius_pullback_matrix(T) for T in higgs.theta)


def _atlas_data(higgs, lifting):
    """Per-chart (dF/p, z-to-standard) and the cross-chart z, resolved from
    the atlas; a missing atlas means the standard one (h = 0)."""
    d = higgs.bundle.domain
    ncharts = higgs.bundle.curve.ncharts
    p = d.p
    if lifting is None:
        u = tuple(LaurentPoly.var(d, p - 1) for _ in range(ncharts))
        z_cross = LaurentPoly.zero(d) if ncharts == 2 else None
        return u, z_cross
    if not isinstance(d, Zmod):
        raise WrongModulus("explicit atlases need a Z/p^m coefficient domain")
    if lifting.curve.domain != d:
        raise WrongModulus("atlas stored at a different precision than the input")
    u = tuple(lifting.derivative_quotient(c, d) for c in range(ncharts))
    z_cross = lifting.z_cross_chart(d) if ncharts == 2 else None
    return u, z_cross


def inverse_cartier_1(higgs, lifting=None):
    """The inverse transform at level one: a flat bundle whose degree is p
    times the input degree.  The atlas defaults to the standard lifting."""
    d = higgs.bundle.domain
    if getattr(d, "m", 1) != 1:
        raise WrongModulus("the level-one transform needs coefficients mod p")
    check_nilpotency(higgs)
    u, z_cross = _atlas_data(higgs, lifting)
    pulled = pullback_higgs_matrices(higgs)
    A = tuple(pulled[c].scale(u[c]) for c in range(len(pulled)))
    curve = higgs.bundle.curve
    if not curve.is_projective:
        H = Bundle(curve, higgs.bundle.rank)
        return FlatBundle(H, A)
    tau = frobenius_pullback_matrix(higgs.bundle.transition)
    if z_cross is not None and not z_cross.is_zero():
        tau = tau.mul(nilpotent_matrix_exp(pulled[0].scale(z_cross)))
    H = Bundle(curve, higgs.bundle.rank, tau)
    return FlatBundle(H, A).validate()


def inverse_cartier_1_on_map(phi, transformed_source, transformed_target):
    """Transport a map of Higgs bundles through the transform: chartwise the
    Frobenius pullback of the map matrices."""
    new_phi = tuple(frobenius_pullback_matrix(M) for M in phi.phi)
    return BundleMap(
        transformed_source.bundle, transformed_target.bundle, new_phi
    )


def p_curvature(flat):
    """Per-chart matrix of the p-th iterate of the connection derivative
    against the chart coordinate field (whose p-th power vanishes)."""
    d = flat.bundle.domain
    if getattr(d, "m", 1) != 1:
        raise WrongModulus("p-curvature is a characteristic-p computation")
    p = d.p
    out = []
    for c in range(flat.bundle.curve.ncharts):
        B = RingMatrix.identity(d, flat.bundle.rank)
        for _ in range(p):
            B = flat.covariant_derivative(B, c)
        out.append(B)
    return tuple(out)


def p_curvature_prediction(higgs):
    """The transform's p-curvature under the frozen sign: minus the
    Frobenius pullback of the Higgs matrices."""
    return tuple(M.neg() for M in pullback_higgs_matrices(higgs))


def taylor_gluing_matrix(higgs, chart, z):
    """The Taylor transport exp(z * pullback of Theta) on one chart."""
    check_nilpotency(higgs)
    N = frobenius_pullback_matrix(higgs.theta[chart])
    return nilpotent_matrix_exp(N.scale(z))


def lifting_change_transport(higgs, lift_from, lift_to):
    """The isomorphism between the transforms for two atlases: chartwise
    exp(z * pullback of Theta) with z = (F_from - F_to)/p."""
    d = higgs.bundle.domain
    ncharts = higgs.bundle.curve.ncharts
    mats = []
    for c in range(ncharts):
        z = lift_from.z_same_chart(lift_to, c, d)
        mats.append(taylor_gluing_matrix(higgs, c, z))
    src = inverse_cartier_1(higgs, lift_from)
    dst = inverse_cartier_1(higgs, lift_to)
    return BundleMap(src.bundle, dst.bundle, tuple(mats)), src, dst


def _exp_second_path(M, domain):
    """Independent truncated-exponential evaluation: precompute the powers,
    then fold with explicit factorial inverses from the top down."""
    powers = [RingMatrix.identity(domain, M.nrows)]
    while not powers[-1].is_zero():
        powers.append(powers[-1].mul(M))
        if len(powers) > domain.p + 1:
            raise ExponentTooLarge("matrix is not nilpotent of index below p")
    powers.pop()
    acc = RingMatrix.zeros(domain, M.nrows, M.nrows)
    fact = 1
    for k, P in enumerate(powers):
        if k:
            fact *= k
        acc = acc.add(P.scale_const(domain.inv(domain.coerce(fact))))
    return acc


@dataclass
class OvSignReport:
    """Comparison of the frozen plus convention against the opposite one."""

    gluing_matches: bool
    connection_matches: bool
    checked_charts: int

    @property
    def passed(self):
        return self.gluing_matches and self.connection_matches


def ov_sign_check(higgs, lifting=None):
    """Verify that the opposite sign convention is this construction at
    -theta: the gluing exp(-z * pullback of (-Theta)) equals our Taylor
    matrix (evaluated through a second code path), and the connection
    'canonical minus (dF/p) pullback of (-Theta)' equals our connection."""
    check_nilpotency(higgs)
    d = higgs.bundle.domain
    u, z_cross = _atlas_data(higgs, lifting)
    neg = HiggsBundle(higgs.bundle, tuple(T.neg() for T in higgs.theta))
    pulled = pullback_higgs_matrices(higgs)
    pulled_neg = pullback_higgs_matrices(neg)

    zs = []
    ncharts = higgs.bundle.curve.ncharts
    if lifting is not None:
        std = FrobeniusLifting.standard(lifting.curve)
        for c in range(ncharts):
            zs.append((c, lifting.z_same_chart(std, c, d)))
    if z_cross is not None:
        zs.append((0, z_cross))
    if not zs:
        zs.append((0, LaurentPoly.var(d)))

    gluing_ok = True
    for chart, z in zs:
        ours = nilpotent_matrix_exp(pulled[chart].scale(z))
        theirs = _exp_second_path(pulled_neg[chart].scale(z.neg()), d)
        if ours != theirs:
            gluing_ok = False

    connection_ok = True
    for c in range(ncharts):
        ours = pulled[c].scale(u[c])
        theirs = RingMatrix.zeros(d, higgs.bundle.rank, higgs.bundle.rank).sub(
            pulled_neg[c].scale(u[c])
        )
        if ours != theirs:
            connection_ok = False

    return OvSignReport(gluing_ok, connection_ok, ncharts)
