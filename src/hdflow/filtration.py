"""Semistability tests, maximal destabilizers, and the filtration descent.

The destabilizer search is a bounded exhaustive enumeration: candidate line
subbundles of each graded piece are generated degree by degree, descending,
inside the window [lowest splitting exponent, highest splitting exponent],
and rank-rho subobjects are saturated spans of rho enumerated lines.  Every
candidate subobject of a graded Higgs bundle is graded and checked for
invariance under the connecting maps; slope bounds prune rank patterns that
cannot beat the best candidate found so far, which keeps the scan small on
the semistable inputs that dominate in practice.

Connection-semistability on the projective line reduces to a splitting-type
check: the top split summand of a flat bundle is always invariant, because
its second fundamental form lives in a negative-degree Hom space.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import ceil, floor

from .bundles import Subbundle, hn_filtration
from .errors import (
    CertificateFailed,
    IterationBudgetExceeded,
    NotNablaSemistable,
    SearchBudgetExceeded,
    SemistableInput,
    WrongModulus,
)
from .graded import (
    DeRhamBundle,
    HodgeFiltration,
    grade,
    is_transversal,
    reduce_filtration,
)
from .ringmath import LaurentPoly, RingMatrix, poly_gcd

DEFAULT_SEARCH_BUDGET = 200000
DEFAULT_MAX_ITER = 64


@dataclass
class DestabilizerReport:
    """Graded, saturated, map-invariant subobject with lex-maximal
    (slope, rank); pieces[i] is a subbundle of grade i or None for zero."""

    pieces: tuple
    mu_max: Fraction
    r_max: int

    def degree(self):
        return sum(S.degree() for S in self.pieces if S is not None)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, what):
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                "%s enumeration passed %d candidates" % (what, self.limit)
            )


def _projective_vectors(field, nslots):
    """Nonzero coefficient vectors with leading entry one, in a fixed order."""
    els = list(field.elements())
    for lead in range(nslots):
        free = nslots - lead - 1
        for tail in product(els, repeat=free):
            yield (
                [field.zero] * lead + [field.one] + list(tail)
            )


class _LinePool:
    """Lazily generated saturated line subbundles of one bundle, kept as
    (degree, line) in descending degree.

    In split coordinates E = O(b_1) + ... + O(b_n), a vector v enumerated
    at degree d (leading entry one, deg v_j <= b_j - d) maps O(d) into E.
    Its line is saturated of degree exactly d iff gcd(v_j) = 1 (no zero on
    chart 0) and some v_j has degree exactly b_j - d (no zero at infinity);
    its chart bases are then Qinv v and Phat w with w_j = s^(b_j - d)
    v_j(1/s), the bytes a saturation would return.  Any other vector
    saturates to a line of higher degree, which the pool kept earlier from
    its own exact vector, so it is skipped after spending its budget
    unit.  ensure hands out (degree, line) pairs: each line is saturated
    of exact degree d by construction, so callers use both as they are."""

    def __init__(self, bundle, budget):
        self.bundle = bundle
        self.budget = budget
        self.tp = bundle.splitting_type()
        self.sd = bundle.split_data()
        self.lines = []
        self.next_degree = self.tp[0]

    def ensure(self, low):
        d = self.bundle.domain
        while self.next_degree >= low:
            dd = self.next_degree
            self.next_degree -= 1
            caps = [b - dd for b in self.tp]
            slots = [
                (j, e)
                for j, cap in enumerate(caps)
                if cap >= 0
                for e in range(cap + 1)
            ]
            for vec in _projective_vectors(d, len(slots)):
                self.budget.spend("line")
                comps = [dict() for _ in self.tp]
                for (j, e), c in zip(slots, vec):
                    if c != d.zero:
                        comps[j][e] = c
                if not any(cap in comp for comp, cap in zip(comps, caps)):
                    continue
                v = [LaurentPoly(d, comp) for comp in comps]
                if reduce(poly_gcd, v).degree() != 0:
                    continue
                w = [
                    LaurentPoly(d, {cap - e: c for e, c in comp.items()})
                    for comp, cap in zip(comps, caps)
                ]
                basis = (
                    self.sd.Qinv.mul(RingMatrix(d, [[f] for f in v])),
                    self.sd.Phat.mul(RingMatrix(d, [[f] for f in w])),
                )
                self.lines.append((dd, Subbundle(self.bundle, basis)))
        return [(deg, S) for deg, S in self.lines if deg >= low]


def _invariant_chain(G, chosen):
    """Whether the per-grade subbundles are closed under the connecting
    maps; chart-0 checks are exact because everything is saturated."""
    for k in range(len(G.maps)):
        src = chosen[k + 1]
        if src is None:
            continue
        image = G.maps[k][0].mul(src.basis[0])
        tgt = chosen[k]
        if tgt is None:
            if not image.is_zero():
                return False
        elif not tgt.contains_chart0(image):
            return False
    return True


def _lex_gt(a, b):
    return a[0] > b[0] or (a[0] == b[0] and a[1] > b[1])


def _min_degree_for(target, total_rank, mu_floor):
    """Smallest total degree that lex-beats `target` at this rank, while
    still exceeding the ambient slope floor."""
    need = floor(mu_floor * total_rank) + 1
    if target is None:
        return need
    mu, r = target
    if total_rank > r:
        beat = ceil(mu * total_rank)
    else:
        beat = floor(mu * total_rank) + 1
    return max(need, beat)


def _destabilizer_scan(G, budget_limit, first_hit):
    """Core enumeration shared by the semistability test and the maximal
    destabilizer; returns the lex-best DestabilizerReport or None.  A pick's
    one-line bunch is the pool's line with the pool's degree, exact because
    the pool builds each line saturated of that degree; a larger bunch is
    saturated as the span of its lines and its degree solved for."""
    if not G.curve.is_projective:
        return None
    mu_G = G.slope()
    tps = [P.splitting_type() for P in G.pieces]
    global_low = min(min(tp) for tp in tps)
    budget = _Budget(budget_limit)
    pools = {}

    vectors = []
    for rho in product(*(range(P.rank + 1) for P in G.pieces)):
        total = sum(rho)
        if total == 0 or total == G.rank:
            continue
        ub = Fraction(
            sum(sum(tps[i][: rho[i]]) for i in range(len(rho))), total
        )
        vectors.append((ub, total, rho))
    vectors.sort(key=lambda v: (-v[0], -v[1], v[2]))

    best = None
    for ub, total, rho in vectors:
        if ub <= mu_G:
            break
        if best is not None and not _lex_gt(
            (ub, total), (best.mu_max, best.r_max)
        ):
            continue
        target = None if best is None else (best.mu_max, best.r_max)
        need = _min_degree_for(target, total, mu_G)
        caps = []
        for i, r in enumerate(rho):
            caps.extend(tps[i][:r])
        total_cap = sum(caps)
        if total_cap < need:
            continue
        grade_pools = []
        feasible = True
        for i, r in enumerate(rho):
            if r == 0:
                grade_pools.append([()])
                continue
            low_i = max(
                global_low, need - (total_cap - min(tps[i][:r]))
            )
            if i not in pools:
                pools[i] = _LinePool(G.pieces[i], budget)
            lines = pools[i].ensure(low_i)
            if len(lines) < r:
                feasible = False
                break
            grade_pools.append(list(combinations(lines, r)))
        if not feasible:
            continue
        for pick in product(*grade_pools):
            budget.spend("span")
            chosen, deg, ok = [], 0, True
            for i, bunch in enumerate(pick):
                W, dd = None, 0
                if len(bunch) == 1:
                    dd, W = bunch[0]
                elif bunch:
                    cols = reduce(RingMatrix.hstack, [L.basis[0] for _, L in bunch])
                    W = Subbundle.from_chart0_span(G.pieces[i], cols)
                    if W.rank != rho[i]:
                        ok = False
                        break
                    dd = W.degree()
                chosen.append(W)
                deg += dd
            if not ok:
                continue
            mu = Fraction(deg, total)
            if mu <= mu_G:
                continue
            if best is not None and not _lex_gt(
                (mu, total), (best.mu_max, best.r_max)
            ):
                continue
            if not _invariant_chain(G, chosen):
                continue
            best = DestabilizerReport(tuple(chosen), mu, total)
            if first_hit:
                return best
    return best


def is_higgs_semistable(G, budget=DEFAULT_SEARCH_BUDGET):
    """Semistability of a graded Higgs bundle, with a destabilizing witness
    when it fails; affine models carry only slope-zero subobjects and are
    always semistable."""
    report = _destabilizer_scan(G, budget, first_hit=True)
    if report is None:
        return True, None
    return False, report


def max_destabilizer_graded(G, budget=DEFAULT_SEARCH_BUDGET):
    """The (slope, rank)-lexicographically maximal graded invariant
    saturated subobject of an unstable graded Higgs bundle."""
    report = _destabilizer_scan(G, budget, first_hit=False)
    if report is None:
        raise SemistableInput("no destabilizing subobject exists")
    return report


# ---------------------------------------------------------------------------
# connection-semistability


def _nabla_invariant(flat, sub):
    return sub.contains_chart0(flat.covariant_derivative(sub.basis[0]))


def is_nabla_semistable(flat):
    """Connection-semistability with a witness.

    On the projective line the top split summand is invariant under every
    connection, so a non-constant splitting type always yields an invariant
    destabilizer; a constant type bounds every subbundle slope by the total
    slope, so no enumeration is needed either way.  The witness certificate
    is re-verified exactly.
    """
    bundle = flat.bundle
    if getattr(bundle.domain, "m", 1) != 1:
        raise WrongModulus("semistability is a characteristic-p question")
    if not bundle.curve.is_projective:
        return True, None
    tp = bundle.splitting_type()
    if tp[0] == tp[-1]:
        return True, None
    W = hn_filtration(bundle)[0]
    if not _nabla_invariant(flat, W):
        raise CertificateFailed(
            "top split summand is not connection-invariant", part="nabla-invariant"
        )
    if W.slope() <= Fraction(bundle.degree(), bundle.rank):
        raise CertificateFailed(
            "top split summand does not destabilize", part="destabilizing-slope"
        )
    return False, W


# ---------------------------------------------------------------------------
# the descent operator and its iteration


def xi_step(derham, grading=None, report=None, budget=DEFAULT_SEARCH_BUDGET):
    """One descent step: push the maximal destabilizer of the grading into
    the filtration.  The new step i+1 is the preimage of I^i under
    Fil^i -> Gr^i, i.e. Fil^{i+1} plus a lift of I^i through the adapted
    frame; the short exact sequence bookkeeping is certified grade by
    grade."""
    flat = derham.flat
    fil = derham.filtration
    g = grading if grading is not None else grade(flat, fil)
    rep = report if report is not None else max_destabilizer_graded(
        g.graded, budget
    )
    bundle = flat.bundle
    n = fil.level

    def i_rank(i):
        if 0 <= i <= n and rep.pieces[i] is not None:
            return rep.pieces[i].rank
        return 0

    steps = []
    for idx in range(1, n + 2):
        i = idx - 1
        parts = []
        old = fil.step(idx)
        if idx <= n:
            parts.append(fil.steps[idx - 1].basis[0])
        if rep.pieces[i] is not None:
            parts.append(g.piece_to_ambient(i, rep.pieces[i].basis[0]))
        if not parts:
            break
        cols = parts[0]
        for extra in parts[1:]:
            cols = cols.hstack(extra)
        S = Subbundle.from_chart0_span(bundle, cols)
        if not fil.step(i).contains(S):
            raise CertificateFailed(
                "new step %d escapes Fil^%d" % (idx, i), part="step-nested"
            )
        if old is not None and not S.contains(old):
            raise CertificateFailed(
                "new step %d loses Fil^%d" % (idx, idx), part="step-contains-old"
            )
        if S.rank != fil.rank_at(idx) + i_rank(i):
            raise CertificateFailed(
                "new step %d has rank %d" % (idx, S.rank), part="step-rank"
            )
        steps.append(S)
    new_fil = HodgeFiltration(bundle, steps)
    for i in range(n + 1):
        lhs = new_fil.rank_at(i) - new_fil.rank_at(i + 1)
        rhs = (fil.rank_at(i) - fil.rank_at(i + 1) - i_rank(i)) + i_rank(i - 1)
        if lhs != rhs:
            raise CertificateFailed(
                "grade %d has rank %d, expected %d" % (i, lhs, rhs), part="graded-rank"
            )
    if not is_transversal(flat, new_fil):
        raise CertificateFailed("new filtration is not transversal", part="transversal")
    return new_fil


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


def simpson_filtration(flat, budget=DEFAULT_SEARCH_BUDGET):
    """Iterate the descent operator from the trivial filtration until the
    grading is semistable; requires connection-semistability up front, and
    returns the reduced filtration together with the iteration log.  More
    than DEFAULT_MAX_ITER descent steps raise IterationBudgetExceeded."""
    ok, witness = is_nabla_semistable(flat)
    if not ok:
        raise NotNablaSemistable(
            "an invariant subbundle of slope %s destabilizes" % witness.slope(),
            witness=witness,
        )
    fil = HodgeFiltration.trivial(flat.bundle)
    log = []
    while True:
        g = grade(flat, fil)
        report = _destabilizer_scan(g.graded, budget, first_hit=False)
        if report is None:
            check_window_descent(log)
            return fil, tuple(log)
        rec = DescentRecord(report.mu_max, report.r_max, max(fil.level, 1))
        log.append(rec)
        check_window_descent(log)
        if len(log) > DEFAULT_MAX_ITER:
            raise IterationBudgetExceeded(
                "no semistable grading within %d steps; log %s"
                % (DEFAULT_MAX_ITER, [(str(r.mu_max), r.r_max) for r in log])
            )
        fil = reduce_filtration(
            xi_step(
                DeRhamBundle(flat, fil), grading=g, report=report, budget=budget
            )
        )
