"""The three workloads: seeded inputs, the timed operations, their checks.

Each workload's setup(seed) returns a list of Op.  A round runs every op
once, in order; runs repeat whole rounds, so every round attempts the same
operations on the same inputs.  An op's input is deep-copied before each
execution, outside its timing, so objects that cache derived data (a
bundle's split frames) start every round in the state set-up left them in.

Library calls go through module attributes (witt.gn_construct, not a
name imported from witt), so the tracer's wrappers see them.
"""

import copy
import itertools
import random
from fractions import Fraction

from hdflow import (
    bundles,
    cartier,
    corpus,
    curves,
    errors,
    filtration,
    flow,
    graded,
    ringmath,
    serialize,
    witt,
)

from oracles import (
    check_intertwiner,
    check_scaling_relation,
    diagonal_splitting_type,
    require,
    splitting_bound_unstable,
    to_dict,
    to_dicts,
)

PRIMES = (3, 5, 7)

# One search budget for every semistability decision and descent.  Large
# enough that every seeded decision in the sampled box (rank <= 2, splitting
# exponents |a| <= 3) completes; the fixed box instances of rank 3 and 4 at
# |a| <= 6 include ones that exhaust it on every run.
SEARCH_BUDGET = 100
SEEDED_MAX_EXP = 3
FIXED_BOX_SEED = 0

# Seeded instances per cell: enough that the latency quantiles do not hinge
# on one instance near the median.
WITT_TUPLES_PER_SHAPE = 2
NILPOTENT_PER_CELL = 12
STEPS_PER_CELL = 8
RANK_TWO_SEEDED = 16
DECISIONS_PER_CELL = 320
DESCENTS_PER_KIND = 12


class Op:
    """One timed operation: fn(copy of arg) -> output, then check(output,
    full), untimed, every round.  full is true on the first round only,
    where the schoolbook oracles run too."""

    __slots__ = ("name", "kind", "fn", "arg", "check")

    def __init__(self, name, kind, fn, arg, check):
        self.name = name
        self.kind = kind
        self.fn = fn
        self.arg = arg
        self.check = check

    def fresh_input(self):
        return copy.deepcopy(self.arg)


def _rng(*parts):
    return random.Random(":".join(str(x) for x in parts))


def _shapes(p):
    """Every graded shape of weight <= p - 2 and total rank <= 4."""
    out = []

    def grow(prefix, left):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == p - 1:
            return
        for r in range(1, left + 1):
            grow(prefix + [r], left - r)

    grow([], 4)
    return out


def _projective_box(max_rank=4):
    """Every (p, rank, weight) of the documented corpus box."""
    for p in PRIMES:
        for rank in range(1, max_rank + 1):
            for weight in range(0, min(p - 2, rank - 1) + 1):
                yield p, rank, weight


def _ring_poly(ring, coeffs):
    return ringmath.LaurentPoly(ring, {e: ring.coerce(c) for e, c in coeffs.items()})


# ---------------------------------------------------------------------------
# witt-lift


def _flag_frame(rng, ring, ranks):
    """Random unipotent frame that respects the flag: identity diagonal
    blocks, random polynomials of degree <= 1 in the blocks below the
    diagonal."""
    grade_of = [g for g, r in enumerate(ranks) for _ in range(r)]
    n = len(grade_of)
    Q = ringmath.RingMatrix.identity(ring, n)
    for i in range(n):
        for j in range(n):
            if grade_of[i] > grade_of[j]:
                Q.rows[i][j] = _ring_poly(
                    ring, {e: rng.randrange(ring.modulus) for e in (0, 1)})
    return Q


def _witt_case(seed, p, n, ranks, k):
    rng = _rng("witt-lift", seed, p, n, ranks, k)
    tup = corpus.random_witt_tuple(rng, p, n, ranks)
    ring = tup.ring
    line = curves.AffineLine(ring)
    m = 1
    return {
        "tup": tup,
        "frame": _flag_frame(rng, ring, ranks),
        "lifts": [corpus.random_lifting(rng, line) for _ in range(3)],
        "relation_seed": rng.randrange(2 ** 31),
        "m": m,
        "hs": [
            _ring_poly(ring, {e: rng.randrange(ring.modulus) for e in range(3)})
            for _ in range(p - 1 + m)
        ],
        "col": ringmath.RingMatrix(
            ring,
            [
                [_ring_poly(ring, {e: rng.randrange(ring.modulus) for e in range(3)})]
                for _ in range(sum(ranks))
            ],
        ),
    }


def _witt_run(case):
    tup = case["tup"]
    ring = tup.ring
    tw = witt.gn_construct(tup)
    sharp = witt.sharp_construct(tup)
    same = witt.equivalence_check(tw, sharp)
    relations = witt.gamma_relations_check(
        tw, random.Random(case["relation_seed"]), samples=1, m=1
    )
    gamma_value = tw.gamma(case["m"], case["hs"], case["col"])
    cert = witt.mod_reduction_check(tup)
    l0, l1, l2 = case["lifts"]
    g01 = witt.taylor_transition(sharp, l0, l1)
    g12 = witt.taylor_transition(sharp, l1, l2)
    g02 = witt.taylor_transition(sharp, l0, l2)
    composite = g01.mul(g12)
    step = None
    if tup.n == 2:
        step = witt.w2_flow_step(tup, witt.filtration_steps_from_flag(tup, ring))
    return {
        "case": case, "tw": tw, "sharp": sharp, "same": same, "relations": relations,
        "gamma": gamma_value, "cert": cert, "g02": g02, "composite": composite,
        "step": step,
    }


def _witt_check(out, full):
    case = out["case"]
    tup = case["tup"]
    ring = tup.ring
    p, N = ring.p, ring.modulus
    ident = ringmath.RingMatrix.identity(ring, tup.rank)
    require(out["tw"].module.matrix == out["sharp"].module.matrix,
            "the two constructions disagree")
    require(out["same"] == ident, "construction intertwiner is not the identity")
    require(len(out["relations"]) == 6 and all(out["relations"].values()),
            "divided-operator relations: %r" % (out["relations"],))
    require(out["cert"].ok, "reduction certificate failed")
    require(out["cert"].matrix == ringmath.RingMatrix.identity(tup.down_ring, tup.rank),
            "reduction certificate is not the identity")
    require(out["g02"] == out["composite"], "Taylor transitions break the cocycle")
    step = out["step"]
    if step is not None:
        require(step.ranks == tup.ranks and len(step.theta_next) == tup.weight,
                "W2 flow step changed the graded shape")
    if full:
        check_scaling_relation(
            to_dicts(out["tw"].module.matrix),
            [to_dict(h) for h in case["hs"]],
            to_dicts(case["col"]), to_dicts(out["gamma"]), case["m"], p, N,
        )


def _frame_change_run(case):
    """equivalence_check as users call it, on its default monomial window."""
    tw = witt.gn_construct(case["tup"])
    framed = witt.gn_construct(case["tup"], frame=case["frame"])
    return {"tw": tw, "framed": framed, "L": witt.equivalence_check(tw, framed)}


def _frame_change_check(out, full):
    ring = out["tw"].ring
    require(out["L"].det().is_unit(), "frame-change intertwiner is not invertible")
    if full:
        check_intertwiner(
            to_dicts(out["tw"].module.matrix), to_dicts(out["framed"].module.matrix),
            to_dicts(out["L"]), ring.p, ring.modulus,
        )


def _unit_block_case():
    """The unit Higgs block of the acceptance suite: one-periodic at the
    second level with a closed-form step."""
    ring = ringmath.Zmod(3, 2)
    down = ringmath.Zmod(3, 1)

    def mat(r, rows):
        return ringmath.RingMatrix(
            r, [[_ring_poly(r, e if isinstance(e, dict) else {0: e}) for e in row]
                for row in rows],
        )

    tup = witt.LiftingInputTuple(
        ring, (1, 1), (mat(ring, [[1]]),), mat(down, [[0, {2: 1}], [0, 0]]),
        (mat(down, [[1]]), mat(down, [[{2: 1}]])),
    )
    expected = {
        "psi": (mat(ring, [[1]]), mat(ring, [[{2: 1}]])),
        "theta_next": (mat(ring, [[{2: 1}]]),),
        "A": mat(ring, [[0, {2: 1}], [0, {-1: 3}]]),
    }
    return {"tup": tup, "expected": expected}


def _unit_block_run(case):
    tup = case["tup"]
    step = witt.w2_flow_step(tup, witt.filtration_steps_from_flag(tup, tup.ring))
    return {"case": case, "step": step}


def _unit_block_check(out, full):
    step, want = out["step"], out["case"]["expected"]
    require(step.periodic and step.certificates["psi_grade0_identity"],
            "unit Higgs block is not one-periodic")
    require(step.psi == want["psi"], "unit block: grading comparison")
    require(step.theta_next == want["theta_next"], "unit block: next Higgs block")
    require(step.flat.A[0] == want["A"], "unit block: connection matrix")


def setup_witt_lift(seed):
    ops = [Op("unit-block", "w2-closed-form", _unit_block_run, _unit_block_case(),
              _unit_block_check)]
    frame_ops = []
    for p in PRIMES:
        for n in (2, 3):
            for ranks, k in itertools.product(_shapes(p), range(WITT_TUPLES_PER_SHAPE)):
                name = "p%d-n%d-%s-%d" % (p, n, "-".join(map(str, ranks)), k)
                case = _witt_case(seed, p, n, ranks, k)
                ops.append(Op(name, "lift", _witt_run, case, _witt_check))
                # A frame change of a one-piece shape is the identity.  On
                # the default window the solve costs about as much as all
                # the tuple's other steps, so it is sampled at p^2 only,
                # once per shape.
                if n == 2 and len(ranks) > 1 and k == 0:
                    frame_ops.append(Op("frame-" + name, "frame-change",
                                        _frame_change_run, case, _frame_change_check))
    return ops + frame_ops


# ---------------------------------------------------------------------------
# level-one


def _fil0(domain, rank):
    """Level-zero filtration, usable as a supplied policy entry."""
    return graded.HodgeFiltration(bundles.Bundle.free(curves.AffineLine(domain), rank), ())


def _nilpotent_run(case):
    H = case["higgs"]
    l0, l1, l2 = case["lifts"]
    flat = cartier.inverse_cartier_1(H)
    pcurv = cartier.p_curvature(flat)
    predicted = cartier.p_curvature_prediction(H)
    t01, _, _ = cartier.lifting_change_transport(H, l0, l1)
    t12, _, _ = cartier.lifting_change_transport(H, l1, l2)
    t02, _, _ = cartier.lifting_change_transport(H, l0, l2)
    composite = t12.compose(t01)
    sign = cartier.ov_sign_check(H, l1)
    docs = []
    for to_json, from_json, obj in (
        (serialize.higgs_to_json, serialize.higgs_from_json, H),
        (serialize.flat_to_json, serialize.flat_from_json, flat),
    ):
        first = serialize.canonical_bytes(to_json(obj))
        back = from_json(serialize.parse_bytes(first))
        docs.append((first, serialize.canonical_bytes(to_json(back))))
    return {"case": case, "flat": flat, "pcurv": pcurv, "predicted": predicted,
            "t02": t02, "composite": composite, "sign": sign, "docs": docs}


def _nilpotent_check(out, full):
    H = out["case"]["higgs"]
    require(out["pcurv"] == out["predicted"], "p-curvature is not the pulled-back field")
    require(out["t02"].phi == out["composite"].phi, "gluing transports break the cocycle")
    require(out["sign"].passed, "sign-convention check failed")
    for first, again in out["docs"]:
        require(first == again, "serialization round trip is not byte-identical")
    if full and H.bundle.curve.is_projective:
        tin = diagonal_splitting_type(H.bundle.transition)
        tout = diagonal_splitting_type(out["flat"].bundle.transition)
        if tin is not None and tout is not None:
            p = H.bundle.domain.p
            require(sum(tout) == p * sum(tin), "transform degree is not p times the input's")


def _graded_step_run(case):
    G, policy = case
    return flow.flow_step(G, policy)


def _rank_two_run(G):
    trace = flow.run_flow(G, flow.FlowPolicy(max_steps=4, field_degree=2))
    return trace


def _rank_two_check(trace, full):
    terms = trace.higgs_terms()
    require(len(terms) == 5, "rank-2 flow did not run four steps")
    for term in terms:
        require(term.rank == 2 and term.degree() == 0, "rank-2 term left degree 0")
        ok, witness = filtration.is_higgs_semistable(term)
        require(ok and witness is None, "rank-2 flow term is not semistable")


def _identity_graded_map(G):
    blocks = []
    for P in G.pieces:
        I = ringmath.RingMatrix.identity(G.domain, P.rank)
        blocks.append(tuple(I for _ in range(G.curve.ncharts)))
    return graded.GradedMap(tuple(blocks))


def _one_periodic_run(G):
    d = G.domain
    T = flow.PeriodicTuple(G, (_fil0(d, G.rank),), _identity_graded_map(G)).validate()
    return flow.build_relative_frobenius(T)


def _one_periodic_check(rf, full):
    require(rf.certificates == {"invertible": True, "horizontal": True, "taylor": True},
            "relative-Frobenius certificates")


def _pack_case(p, f):
    K = ringmath.GF(p, f)
    d = ringmath.Zmod(p, 1)
    curve = curves.ProjectiveLine(d)
    G = graded.GradedHiggsBundle((bundles.Bundle.free(curve, 2),), ())
    M = ringmath.RingMatrix(d, [[_ring_poly(d, {0: c}) for c in row]
                                for row in ((1, 1), (0, 1))])
    phi = graded.GradedMap((tuple(M for _ in range(curve.ncharts)),))
    return {"K": K, "G": G, "phi": phi, "f": f}


def _pack_run(case):
    K, G, f = case["K"], case["G"], case["f"]
    d = G.domain
    T = flow.PeriodicTuple(G, tuple(_fil0(d, 2) for _ in range(f)), case["phi"]).validate()
    packed = flow.pack_endostructure(T, K.gen, K)
    back = flow.unpack_endostructure(packed)
    GK = flow.extend_graded(G, K)
    reference = flow.PeriodicTuple(
        GK, tuple(_fil0(K, 2) for _ in range(f)), _identity_graded_map(GK)
    ).validate()
    return {"f": f, "back": back, "iso": flow.tuples_isomorphic(back, reference)}


def _pack_check(out, full):
    require(out["back"].period == out["f"], "unpacked tuple has the wrong period")
    require(out["iso"] is not None, "pack/unpack does not round-trip")


def setup_level_one(seed):
    ops = []
    for p in PRIMES:
        for curve in ("P1", "A1"):
            for rank in (1, 2, 3):
                rng = _rng("level-one", seed, p, curve, rank)
                for j in range(NILPOTENT_PER_CELL):
                    H = corpus.random_nilpotent_higgs(rng, p, rank, curve=curve)
                    lifts = [corpus.random_lifting(rng, H.bundle.curve) for _ in range(3)]
                    ops.append(Op("nilpotent-p%d-%s-r%d-%d" % (p, curve, rank, j), "cartier",
                                  _nilpotent_run, {"higgs": H, "lifts": lifts},
                                  _nilpotent_check))
    for k, (p, rank, weight) in enumerate(_projective_box()):
        params = corpus.CorpusParams(p=p, rank=rank, weight=weight,
                                     count=STEPS_PER_CELL, seed=seed * 1000 + k)
        for j, G in enumerate(corpus.generate(params)):
            policy = flow.FlowPolicy(rule="supplied", filtrations=(_fil0(G.domain, rank),))
            ops.append(Op("step-p%d-r%d-w%d-%d" % (p, rank, weight, j), "flow-step",
                          _graded_step_run, (G, policy), _degree_scaling_check(p, G)))
    for p in PRIMES:
        d = ringmath.Zmod(p, 1)
        line = curves.ProjectiveLine(d)
        zero = ringmath.RingMatrix.zeros(d, 1, 1)
        fixed = [
            graded.GradedHiggsBundle((bundles.Bundle.free(line, 2),), ()),
            graded.GradedHiggsBundle(
                (bundles.Bundle.free(line, 1), bundles.Bundle.free(line, 1)),
                ((zero, zero),)),
        ]
        params = corpus.CorpusParams(p=p, rank=2, weight=1, count=RANK_TWO_SEEDED,
                                     seed=seed * 1000 + 500 + p, curve="A1")
        for j, G in enumerate(fixed + corpus.generate(params)):
            ops.append(Op("rank2-p%d-%d" % (p, j), "run-flow", _rank_two_run, G,
                          _rank_two_check))
        for name, G in corpus.one_periodic_instances(p):
            ops.append(Op("frobenius-p%d-%s" % (p, name), "relative-frobenius",
                          _one_periodic_run, G, _one_periodic_check))
    for p, f in ((3, 2), (3, 3), (5, 2)):
        ops.append(Op("pack-p%d-f%d" % (p, f), "pack-unpack", _pack_run,
                      _pack_case(p, f), _pack_check))
    return ops


def _degree_scaling_check(p, G):
    want = p * G.degree()

    def check(out, full):
        _, _, nxt = out
        require(nxt.degree() == want, "flow step did not multiply the degree by p")
    return check


# ---------------------------------------------------------------------------
# semistability


def _decide_run(G):
    ok, witness = filtration.is_higgs_semistable(G, budget=SEARCH_BUDGET)
    report = None
    if not ok:
        report = filtration.max_destabilizer_graded(G, budget=SEARCH_BUDGET)
    return {"G": G, "ok": ok, "witness": witness, "report": report}


def _verify_witness(G, rep, mu):
    for k, per_chart in enumerate(G.maps):
        src = rep.pieces[k + 1]
        if src is None:
            continue
        image = per_chart[0].mul(src.basis[0])
        tgt = rep.pieces[k]
        if tgt is None:
            require(image.is_zero(), "destabilizer is not invariant")
        else:
            require(tgt.contains_chart0(image), "destabilizer is not invariant")
    chosen = [S for S in rep.pieces if S is not None]
    rank = sum(S.rank for S in chosen)
    deg = sum(S.degree() for S in chosen)
    require(0 < rank < G.rank and rank == rep.r_max, "destabilizer rank misreported")
    require(Fraction(deg, rank) == rep.mu_max, "destabilizer slope misreported")
    require(rep.mu_max > mu, "destabilizer slope does not exceed the slope")


def _decide_check(out, full):
    G = out["G"]
    mu = G.slope()
    if out["ok"]:
        require(not splitting_bound_unstable(G),
                "reported semistable, but the splitting type proves it unstable")
        return
    _verify_witness(G, out["witness"], mu)
    _verify_witness(G, out["report"], mu)
    require((out["report"].mu_max, out["report"].r_max)
            >= (out["witness"].mu_max, out["witness"].r_max),
            "maximal destabilizer is beaten by the first witness")


def _descend_run(case):
    try:
        fil, log = filtration.simpson_filtration(case["flat"], budget=SEARCH_BUDGET)
    except errors.NotNablaSemistable as refusal:
        return {"case": case, "refused": refusal}
    return {"case": case, "fil": fil, "log": log}


def _descend_check(out, full):
    case = out["case"]
    flat = case["flat"]
    if flat.bundle.curve.is_projective:
        tp = diagonal_splitting_type(flat.bundle.transition)
        require(tp is not None, "transform transition is not diagonal")
        constant = tp[0] == tp[-1]
    else:
        constant = True
    if case.get("zero_of") is not None:
        a, rank = case["zero_of"]
        p = flat.bundle.domain.p
        require(tp == [p * a] * rank, "zero Higgs field: splitting type is not (pa)^r")
        require(all(A.is_zero() for A in flat.A), "zero Higgs field: connection is not zero")
    if not constant:
        require("refused" in out, "non-constant splitting type was not refused")
        return
    require("refused" not in out, "constant splitting type was refused")
    filtration.check_window_descent(out["log"])
    gr = graded.grade(flat, out["fil"]).graded
    require(filtration.is_higgs_semistable(gr)[0], "descent did not end gr-semistable")


def setup_semistability(seed):
    ops = []
    for p in PRIMES:
        for rank, weight in ((1, 0), (2, 0), (2, 1)):
            params = corpus.CorpusParams(
                p=p, rank=rank, weight=weight, count=DECISIONS_PER_CELL,
                seed=seed * 1000 + 10 * p + 3 * rank + weight, max_exp=SEEDED_MAX_EXP)
            for j, G in enumerate(corpus.generate(params)):
                ops.append(Op("decide-p%d-r%d-w%d-%d" % (p, rank, weight, j),
                              "decision", _decide_run, G, _decide_check))
    for p, rank, weight in _projective_box():
        params = corpus.CorpusParams(p=p, rank=rank, weight=weight, count=1,
                                     seed=FIXED_BOX_SEED)
        ops.append(Op("box-p%d-r%d-w%d" % (p, rank, weight), "decision",
                      _decide_run, corpus.generate(params)[0], _decide_check))
    for p in PRIMES:
        d = ringmath.Zmod(p, 1)
        line = curves.ProjectiveLine(d)
        for rank in (1, 2, 3, 4):
            for a in (-1, 0, 1):
                E = bundles.Bundle.sum_of_lines(line, [a] * rank)
                flat = cartier.inverse_cartier_1(bundles.HiggsBundle.zero(E))
                ops.append(Op("descend-p%d-O(%d)^%d" % (p, a, rank), "descent",
                              _descend_run, {"flat": flat, "zero_of": (a, rank)},
                              _descend_check))
        rng = _rng("semistability", seed, p)
        for i in range(DESCENTS_PER_KIND):
            H = corpus.random_nilpotent_higgs(rng, p, 2 + i % 3, curve="A1")
            ops.append(Op("descend-p%d-affine-%d" % (p, i), "descent", _descend_run,
                          {"flat": cartier.inverse_cartier_1(H)}, _descend_check))
        params = corpus.CorpusParams(p=p, rank=2, weight=1, count=DESCENTS_PER_KIND,
                                     seed=seed * 1000 + 700 + p)
        for i, G in enumerate(corpus.generate(params)):
            ops.append(Op("descend-p%d-projective-%d" % (p, i), "descent", _descend_run,
                          {"flat": cartier.inverse_cartier_1(G.total())}, _descend_check))
    return ops


WORKLOADS = {
    "witt-lift": setup_witt_lift,
    "level-one": setup_level_one,
    "semistability": setup_semistability,
}
