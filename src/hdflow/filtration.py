"""Semistability tests, maximal destabilizers, and Simpson's filtration.

On P^1 every answer is read off splitting types; nothing is searched.  The
connecting maps of a graded Higgs bundle G take values in Omega = O(-2).
Let a be the top splitting degree over its pieces and F the sum of their
degree-a summands.  A map O(a) -> O(b - 2) with b <= a is zero, so the maps
kill F, and every subsheaf has slope at most a, equal only inside F.
Hence G is semistable iff all its splitting degrees equal a; otherwise F is
both the first witness and the (slope, rank)-maximal destabilizer.  For a
flat bundle the top split summand is invariant under every connection, so
connection-semistable means a constant splitting type, and Simpson's
filtration on the line is the trivial one.  On A^1 every slope is zero.
Line-bundle pieces are read off their degree: a piece of rank one is
split only when _top_part reads its frame, and then in closed form.  Top
parts are the leading columns of the split frames, read, not multiplied out.
Each graded object is decided once and keeps its report (None if semistable).
"""

from dataclasses import dataclass
from fractions import Fraction

from .bundles import Subbundle, hn_filtration
from .errors import (
    CertificateFailed,
    NotNablaSemistable,
    SemistableInput,
    WrongModulus,
)
from .graded import HodgeFiltration, _Undecided, grade


@dataclass
class DestabilizerReport:
    """Graded, saturated, map-invariant subobject with lex-maximal
    (slope, rank); pieces[i] is a subbundle of grade i or None for zero."""

    pieces: tuple
    mu_max: Fraction
    r_max: int


def _lex_gt(a, b):
    return a[0] > b[0] or (a[0] == b[0] and a[1] > b[1])


def _top_part(P, tp, a):
    """The degree-a summands of a piece of descending splitting type tp, or
    None: one is the first split-frame line, saturated as it stands; more
    are the first Harder-Narasimhan step (the whole piece if tp is constant)."""
    k = tp.count(a)
    if k == 0:
        return None
    if k > 1:
        return hn_filtration(P)[0]
    sd = P.split_data()
    return Subbundle(P, (sd.Qinv.columns(range(1)), sd.Phat.columns(range(1))))


def _top_destabilizer(G):
    """F as G's maximal destabilizer, or None when G is semistable.
    Certified: the maps kill F's chart-0 basis ("top-invariant"), and F's
    slope a exceeds that of G ("top-slope")."""
    tps = [P.splitting_type() for P in G.pieces]
    a = max(tp[0] for tp in tps)
    if all(tp[-1] == a for tp in tps):
        return None
    pieces = tuple(_top_part(P, tp, a) for P, tp in zip(G.pieces, tps))
    for k, mats in enumerate(G.maps):
        src = pieces[k + 1]
        if src is not None and not mats[0].mul(src.basis[0]).is_zero():
            raise CertificateFailed(
                "a connecting map does not kill the top summands", part="top-invariant"
            )
    if a * G.rank <= G.degree():
        raise CertificateFailed(
            "the top summands do not destabilize", part="top-slope"
        )
    return DestabilizerReport(
        pieces, Fraction(a), sum(S.rank for S in pieces if S is not None)
    )


def _decision(G):
    """G's _top_destabilizer report, decided on first use and stored on G;
    None where bundles are free, as every slope is zero."""
    if G._destabilizer is _Undecided:
        G._destabilizer = G.curve.glued(_top_destabilizer, G)
    return G._destabilizer


def is_higgs_semistable(G, budget=None):
    """Semistability of a graded Higgs bundle, decided once per G, with the
    maximal destabilizer as witness when it fails.  budget is unused, as in
    max_destabilizer_graded and simpson_filtration: the benchmark passes it."""
    report = _decision(G)
    if report is None:
        return True, None
    return False, report


def max_destabilizer_graded(G, budget=None):
    """The (slope, rank)-lexicographically maximal graded invariant
    saturated subobject of an unstable graded Higgs bundle: the report
    is_higgs_semistable returns as witness, decided once per G."""
    report = _decision(G)
    if report is None:
        raise SemistableInput("no destabilizing subobject exists")
    return report


# ---------------------------------------------------------------------------
# connection-semistability


def _nabla_invariant(flat, sub):
    return sub.contains_chart0(flat.covariant_derivative(sub.basis[0]))


def is_nabla_semistable(flat):
    """Connection-semistability, with the top split summand as witness
    when the splitting type is not constant; the witness is re-verified."""
    bundle = flat.bundle
    if getattr(bundle.domain, "m", 1) != 1:
        raise WrongModulus("semistability is a characteristic-p question")
    W = bundle.curve.glued(_top_summand, flat)
    return W is None, W


def _top_summand(flat):
    """The top split summand of a non-constant splitting type, certified
    connection-invariant and destabilizing; None for a constant type."""
    bundle = flat.bundle
    tp = bundle.splitting_type()
    if tp[0] == tp[-1]:
        return None
    W = hn_filtration(bundle)[0]
    if not _nabla_invariant(flat, W):
        raise CertificateFailed(
            "top split summand is not connection-invariant", part="nabla-invariant"
        )
    if W.slope() <= Fraction(bundle.degree(), bundle.rank):
        raise CertificateFailed(
            "top split summand does not destabilize", part="destabilizing-slope"
        )
    return W


# ---------------------------------------------------------------------------
# Simpson's filtration


@dataclass
class DescentRecord:
    mu_max: Fraction
    r_max: int
    level: int

    @property
    def key(self):
        return (self.mu_max, self.r_max)


def check_window_descent(log):
    """Monotone never-increase per step, plus a strict lexicographic drop
    across every complete window whose length is the filtration level at
    its start; windows cut short by termination count as descended."""
    for a, b in zip(log, log[1:]):
        if _lex_gt(b.key, a.key):
            raise CertificateFailed(
                "lexicographic increase across a step", part="step-descent"
            )
    for i, rec in enumerate(log):
        j = i + max(rec.level, 1)
        if j < len(log) and not _lex_gt(rec.key, log[j].key):
            raise CertificateFailed(
                "no strict descent within a level-%d window" % rec.level,
                part="window-descent",
            )


def simpson_filtration(flat, budget=None):
    """Simpson's filtration of a connection-semistable flat bundle, the
    trivial one, and its empty descent log; a connection-unstable bundle is
    refused.  A destabilizer of the trivial grading raises CertificateFailed
    "simpson-trivial"; _simpson also returns the graded object it decides."""
    return _simpson(flat)[0], ()


def _simpson(flat):
    """Simpson's filtration and its graded object, decided semistable."""
    ok, witness = is_nabla_semistable(flat)
    if not ok:
        raise NotNablaSemistable(
            "an invariant subbundle of slope %s destabilizes" % witness.slope(),
            witness=witness,
        )
    fil = HodgeFiltration.trivial(flat.bundle)
    graded = grade(flat, fil).graded
    if _decision(graded) is not None:
        raise CertificateFailed(
            "the trivial grading of a connection-semistable bundle is unstable",
            part="simpson-trivial",
        )
    return fil, graded
