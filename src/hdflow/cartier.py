"""The characteristic-p inverse transform from Higgs bundles to flat bundles.

Construction, chart by chart: pull the bundle back along the p-power map
(coefficients through the domain Frobenius, coordinate through t -> t^p) and
put on it the connection A = (dF/p) * (pullback of Theta), where F is the
chosen chart lifting of the p-power map.  Across charts the pullback
transitions are corrected by the Taylor matrix exp(z * pullback of Theta),
with z the p-divided difference of the liftings on the overlap; the whole sum
is finite because Theta is nilpotent of index below p.

Each Higgs bundle keeps one level-one state, filled by its nilpotency
certificate: per chart the Frobenius pullbacks N, N^2, ... of the nonzero
powers of its Higgs matrix, its pulled transition and its transforms by
atlas.  Every Taylor matrix exp(z N) is read off that table as
I + sum (z^k/k!) N^k, and each atlas's transform is built and validated
once per bundle and then shared.

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
)
from .curves import FrobeniusLifting
from .errors import ExponentTooLarge, WrongModulus
from .ringmath import LaurentPoly, RingMatrix, Zmod


def check_nilpotency(higgs):
    """Nilpotency index of the Higgs matrix; must stay below p."""
    return _state(higgs).index


class _LevelOne:
    """A Higgs bundle's level-one state: the Frobenius pullback N of each
    chart's Higgs matrix, the runs [N, ..., N^(index-1)] of its nonzero
    powers, the validated transforms by atlas (None or a lifting) and the
    pulled transition tau they share, filled by the first transform.

    Building it is the nilpotency certificate: chart 0's powers must vanish
    by the index min(rank + 1, p - 1).  The other charts' runs are raised on
    first use, so a one-shot transform multiplies no more than the
    certificate."""

    def __init__(self, higgs):
        self.pulled = pullback_higgs_matrices(higgs)
        bound = min(higgs.bundle.rank + 1, higgs.bundle.domain.p - 1)
        run = [self.pulled[0]]
        while not run[-1].is_zero():
            if len(run) >= bound:
                raise ExponentTooLarge(
                    "Higgs field must be nilpotent of index at most p-1"
                )
            run.append(run[-1].mul(run[0]))
        run.pop()
        self.index = len(run) + 1
        self.runs = [run] + [[N] if run else [] for N in self.pulled[1:]]
        self.transforms = {}
        self.tau = None

    def powers(self, chart):
        """chart's run [N, ..., N^(index-1)], raised on first use."""
        run = self.runs[chart]
        while len(run) < self.index - 1:
            run.append(run[-1].mul(run[0]))
        return run

    def exp(self, chart, z):
        """exp(z N) = I + sum (z^k/k!) N^k for chart's pulled matrix N:
        scalings of the stored powers, no matrix product."""
        d = z.domain
        acc = RingMatrix.identity(d, self.pulled[chart].nrows)
        zk, fact = LaurentPoly.one(d), 1
        for k, P in enumerate(self.powers(chart), 1):
            zk, fact = zk.mul(z), fact * k
            acc = acc.add(P.scale(zk.scale(d.inv(d.coerce(fact)))))
        return acc

    def transition(self, bundle, z):
        """A transform's transition: the pulled transition of bundle, kept
        as tau, times the Taylor matrix exp(z N) of chart 0 unless z is 0."""
        if self.tau is None:
            self.tau = frobenius_pullback_matrix(bundle.transition)
        return self.tau if z.is_zero() else self.tau.mul(self.exp(0, z))


def _state(higgs):
    """The bundle's level-one state, filled on first use; a failing
    certificate stores nothing."""
    if higgs._level_one is None:
        higgs._level_one = _LevelOne(higgs)
    return higgs._level_one


def _check_mod_p(higgs):
    if getattr(higgs.bundle.domain, "m", 1) != 1:
        raise WrongModulus("the level-one transform needs coefficients mod p")


def pullback_higgs_matrices(higgs):
    """Per-chart pullback of the Higgs matrices (no dF factor)."""
    return tuple(frobenius_pullback_matrix(T) for T in higgs.theta)


def _atlas_data(higgs, lifting):
    """Per-chart (dF/p, z-to-standard) and the cross-chart z (None unless
    charts are glued) of the atlas, the standard one (h = 0) if missing."""
    d = higgs.bundle.domain
    curve = higgs.bundle.curve
    p = d.p
    if lifting is None:
        u = tuple(LaurentPoly.var(d, p - 1) for _ in range(curve.ncharts))
        return u, curve.glued(LaurentPoly.zero, d)
    if not isinstance(d, Zmod):
        raise WrongModulus("explicit atlases need a Z/p^m coefficient domain")
    if lifting.curve.domain != d:
        raise WrongModulus("atlas stored at a different precision than the input")
    u = tuple(lifting.derivative_quotient(c, d) for c in range(curve.ncharts))
    return u, curve.glued(lifting.z_cross_chart, d)


def inverse_cartier_1(higgs, lifting=None):
    """The inverse transform at level one: a flat bundle whose degree is p
    times the input degree.  The atlas defaults to the standard lifting."""
    _check_mod_p(higgs)
    check_nilpotency(higgs)
    return _transform(higgs, lifting)


def _transform(higgs, lifting):
    """The level-one transform of a checked Higgs bundle for an atlas, read
    off its state; built once per atlas, and validated where charts glue."""
    state = _state(higgs)
    flat = state.transforms.get(lifting)
    if flat is not None:
        return flat
    u, z_cross = _atlas_data(higgs, lifting)
    A = tuple(N.scale(u[c]) for c, N in enumerate(state.pulled))
    E = higgs.bundle
    tau = E.curve.glued(state.transition, E, z_cross)
    flat = FlatBundle(Bundle(E.curve, E.rank, tau), A)
    E.curve.glued(flat.validate)
    state.transforms[lifting] = flat
    return flat


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


def lifting_change_transport(higgs, lift_from, lift_to):
    """The isomorphism between the transforms for two atlases: chartwise
    exp(z * pullback of Theta) with z = (F_from - F_to)/p.  The Higgs field
    is checked and pulled back once per bundle, the map's exponentials are
    read off its power table, and both transforms are the bundle's shared
    ones for their atlases."""
    d = higgs.bundle.domain
    zs = [lift_from.z_same_chart(lift_to, c, d) for c in range(len(higgs.theta))]
    check_nilpotency(higgs)
    _check_mod_p(higgs)
    mats = tuple(_state(higgs).exp(c, z) for c, z in enumerate(zs))
    src = _transform(higgs, lift_from)
    dst = _transform(higgs, lift_to)
    return BundleMap(src.bundle, dst.bundle, mats), src, dst


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

    @property
    def passed(self):
        return self.gluing_matches and self.connection_matches


def ov_sign_check(higgs, lifting=None):
    """Verify that the opposite sign convention is this construction at
    -theta: the gluing exp(-z * pullback of (-Theta)) equals our Taylor
    matrix (ours read off the bundle's power table, theirs through a
    second code path), and the connection 'canonical minus (dF/p) pullback
    of (-Theta)' equals our connection."""
    state = _state(higgs)
    d = higgs.bundle.domain
    u, z_cross = _atlas_data(higgs, lifting)
    neg = HiggsBundle(higgs.bundle, tuple(T.neg() for T in higgs.theta))
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
        ours = state.exp(chart, z)
        theirs = _exp_second_path(pulled_neg[chart].scale(z.neg()), d)
        if ours != theirs:
            gluing_ok = False

    connection_ok = True
    for c in range(ncharts):
        ours = state.pulled[c].scale(u[c])
        theirs = RingMatrix.zeros(d, higgs.bundle.rank, higgs.bundle.rank).sub(
            pulled_neg[c].scale(u[c])
        )
        if ours != theirs:
            connection_ok = False

    return OvSignReport(gluing_ok, connection_ok)
