"""Byte-identity guard for the canonical artifacts.

Each case runs the command line in-process on a fixed, seeded input (or a
library routine whose output the command line serializes) and pins the
sha256 of the bytes it writes.  A change to the linear algebra that picks a
different particular solution or kernel basis shows up here as a changed
digest, even when every mathematical certificate still passes.

The inputs were chosen so the pinned bytes depend on solver details:
  * the p = 3 flow-step tuple has a grading comparison psi whose particular
    solution differs between the row-first pivots of solve_linear_mod and
    plain Gauss-Jordan elimination;
  * the graded isomorphisms are searched over a kernel basis and the
    Birkhoff factors are built from a left null vector, both returned by
    solve_linear_mod; on these inputs Gauss-Jordan returns the same
    vectors, so those digests pin the search and the factorization, not
    the pivot order.
"""

import hashlib
import random

import pytest
from click.testing import CliRunner

from hdflow.cli import main
from hdflow.corpus import (
    CorpusParams,
    generate,
    random_lifting,
    random_nilpotent_higgs,
    random_witt_tuple,
)
from hdflow.bundles import Bundle, HiggsBundle, Subbundle, chart1_map, hn_filtration
from hdflow.cartier import inverse_cartier_1
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.filtration import is_higgs_semistable, max_destabilizer_graded
from hdflow.flow import PeriodicTuple, pack_endostructure, unpack_endostructure
from hdflow.graded import (
    GradedHiggsBundle,
    GradedMap,
    HodgeFiltration,
    grade,
    graded_higgs_isomorphic,
)
from hdflow.ringmath import (
    GF,
    LaurentPoly,
    RingMatrix,
    Zmod,
    birkhoff_factorize,
    poly_kernel,
)
from hdflow.serialize import (
    canonical_bytes,
    flat_to_json,
    graded_to_json,
    matrix_to_json,
    witt_tuple_to_json,
)
from hdflow.witt import (
    LiftingInputTuple,
    equivalence_check,
    filtration_steps_from_flag,
    gn_construct,
    horizontal_transport,
    local_filtered_lifting,
    mod_reduction_check,
    ptwist_matrix,
    sharp_construct,
    taylor_transition,
    w2_flow_step,
)


def _mat(ring, entries):
    """Rows of dicts {exponent: coefficient}; ints are constants."""
    return RingMatrix(
        ring,
        [
            [LaurentPoly(ring, x if isinstance(x, dict) else {0: x}) for x in row]
            for row in entries
        ],
    )


def _tuple_p3():
    """Ranks (2, 1) over Z/9; psi's particular solution depends on the
    solver's pivot order."""
    ring, down = Zmod(3, 2), Zmod(3, 1)
    theta = (_mat(ring, [[{-1: 6, 0: 1}], [{-1: 6, 0: 4}]]),)
    abar = _mat(down, [[0, 0, {2: 1}], [0, 0, {2: 1}], [0, 0, 0]])
    psibar = (_mat(down, [[1, 0], [0, 1]]), _mat(down, [[{2: 1}]]))
    return LiftingInputTuple(ring, (2, 1), theta, abar, psibar)


def _tuple_p5():
    """Ranks (1, 1, 1) over Z/25 with p-adic corrections in both blocks."""
    ring, down = Zmod(5, 2), Zmod(5, 1)
    theta = (_mat(ring, [[12]]), _mat(ring, [[{-1: 20, 0: 24}]]))
    abar = _mat(down, [[0, {4: 2}, 0], [0, 0, {4: 4}], [0, 0, 0]])
    psibar = (_mat(down, [[1]]), _mat(down, [[{4: 1}]]), _mat(down, [[{8: 1}]]))
    return LiftingInputTuple(ring, (1, 1, 1), theta, abar, psibar)


def _rank_two_a1():
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=1, curve="A1")
    return graded_to_json(generate(params)[0])


def _nilpotent_transform(seed, p, curve):
    """The inverse Cartier transform of a seeded rank-2 nilpotent field."""
    H = random_nilpotent_higgs(random.Random(seed), p, 2, curve=curve)
    return flat_to_json(inverse_cartier_1(H))


def _invoke_cli(tmp_path, monkeypatch, args, doc=None):
    """Run one command with --out artifact.json; return its result."""
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "input.json").write_bytes(canonical_bytes(doc))
        args = args + ["--input", "input.json"]
    return CliRunner().invoke(main, args + ["--out", "artifact.json"])


def _run_cli(tmp_path, monkeypatch, args, doc=None):
    """Run one command writing artifact.json, return (artifact, manifest)."""
    result = _invoke_cli(tmp_path, monkeypatch, args, doc)
    assert result.exit_code == 0, result.output
    return (
        (tmp_path / "artifact.json").read_bytes(),
        (tmp_path / "artifact.json.manifest.json").read_bytes(),
    )


def _digest(data):
    return hashlib.sha256(data).hexdigest()


CLI_CASES = {
    "witt-flow-step-p3": (["witt", "flow-step"], lambda: witt_tuple_to_json(_tuple_p3())),
    "witt-flow-step-p5": (["witt", "flow-step"], lambda: witt_tuple_to_json(_tuple_p5())),
    "flow-run-rank2-a1": (
        ["flow", "run", "--steps", "2", "--field-degree", "2"],
        _rank_two_a1,
    ),
    "check-cocycle": (["check", "--suite", "cocycle", "--seed", "7"], None),
    "check-gamma-relations": (
        ["check", "--suite", "gamma-relations", "--seed", "7"],
        None,
    ),
    "filtration-compute-p1": (
        ["filtration", "compute"],
        lambda: _nilpotent_transform(302, 3, "P1"),
    ),
    "filtration-compute-a1": (
        ["filtration", "compute"],
        lambda: _nilpotent_transform(300, 3, "A1"),
    ),
}

CLI_DIGESTS = {
    "witt-flow-step-p3": (
        "b72dc590bab9bcb0b51e719b006e0656cd249086ac71c4119afb4dbbc247f8c8",
        "139d8afbbc79be4dc4911228d0c3557c54834e38cdf3a93bf58aafb1e1acf334",
    ),
    "witt-flow-step-p5": (
        "27c4dc4e5917416ec9e2a1a7f3d83d5fba1feb2f4813b85c5cca7dcaafc41083",
        "dcf0f1c9990e533087a6d7253e61922dc2bb802b1b52610550e46b3da18ad5b3",
    ),
    "flow-run-rank2-a1": (
        "35a1ca6a76bbe14aa3bc29af37e351a13447466341189325a9c3da115da7029a",
        "29d747ed00814b8f3b9fef68327c2834cb664555db13d178f211f10f9129c4e2",
    ),
    "check-cocycle": (
        "c45bc88755c1b8219aa5fd29c8d8679c04868c6ccadc939e4f52ca280b4b2282",
        "1909a4738f3f7f847f6669c73bc146a0676457a543487c7f1afe211b1a111fe2",
    ),
    "check-gamma-relations": (
        "2646841241a4efc6857c15f6647375976fb5e1b4c380545adf70fcd3ba85258b",
        "2ec6fb90517163396ee59f20aa7a38f57cc50949b37072d3782df54833beb2fc",
    ),
    "filtration-compute-p1": (
        "beddb5670b7960e81eeb719af4206559d67344299d6eb1dc451b124a104aac3a",
        "a12aef83ce06c5c07cdca969a4923b5d1bb29db5de0e6151666e79454a0ece82",
    ),
    "filtration-compute-a1": (
        "beddb5670b7960e81eeb719af4206559d67344299d6eb1dc451b124a104aac3a",
        "50058fe1bdcd2fa76a59d3f78e0400c588e24790e85b9355e21940f1c3d0590b",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_artifacts_are_byte_identical(name, tmp_path, monkeypatch):
    args, make_doc = CLI_CASES[name]
    doc = None if make_doc is None else make_doc()
    artifact, manifest = _run_cli(tmp_path, monkeypatch, list(args), doc)
    assert (_digest(artifact), _digest(manifest)) == CLI_DIGESTS[name]


def test_filtration_compute_refusal_is_byte_identical(tmp_path, monkeypatch):
    # a connection-unstable input writes no artifact, so its error object
    # is what gets pinned
    doc = _nilpotent_transform(300, 3, "P1")
    result = _invoke_cli(tmp_path, monkeypatch, ["filtration", "compute"], doc)
    assert result.exit_code == 1
    assert not (tmp_path / "artifact.json").exists()
    assert _digest(result.output.encode("ascii")) == (
        "4c9cd88fcbe00c7b5b45f2b52b901db28d9b8d2265b9810be802059961c0bdc2"
    )


def test_flow_step_emits_psi_on_multi_piece_tuples():
    for tup in (_tuple_p3(), _tuple_p5()):
        step = w2_flow_step(tup, filtration_steps_from_flag(tup, tup.ring))
        assert len(tup.ranks) > 1 and step.psi is not None


def _pack_round_trip_bytes():
    p, f = 3, 2
    K = GF(p, f)
    d = Zmod(p, 1)
    curve = ProjectiveLine(d)
    G = GradedHiggsBundle((Bundle.free(curve, 2),), ())
    M = _mat(d, [[1, 1], [0, 1]])
    phi = GradedMap((tuple(M for _ in range(curve.ncharts)),))
    fil0 = HodgeFiltration(Bundle.free(AffineLine(d), 2), ())
    T = PeriodicTuple(G, tuple(fil0 for _ in range(f)), phi).validate()
    back = unpack_endostructure(pack_endostructure(T, K.gen, K))
    H = back.higgs
    doc = {
        "pieces": [matrix_to_json(P.transition) for P in H.pieces],
        "maps": [[matrix_to_json(M) for M in per] for per in H.maps],
        "phi": [[matrix_to_json(B) for B in per] for per in back.phi.blocks],
    }
    return canonical_bytes(doc)


def _equivalence_bytes():
    """Intertwiner for a constant flag-respecting frame change at p^2."""
    ring = Zmod(3, 2)
    tup = _tuple_p3()
    frame = _mat(ring, [[1, 0, 0], [2, 1, 0], [1, 4, 1]])
    L = equivalence_check(
        gn_construct(tup), gn_construct(tup, frame=frame), min_exp=-1, max_exp=1
    )
    return canonical_bytes(matrix_to_json(L))


def _default_window_equivalence_bytes():
    """Intertwiner on equivalence_check's default window for a degree-1
    unipotent flag-respecting frame change: p = 5, ranks (2, 2), n = 2,
    drawn like the witt-lift benchmark's frame-change case at seed 1, whose
    window system (397 equations, 240 unknowns) is that round's largest."""
    rng = random.Random("witt-lift:1:5:2:(2, 2):0")
    tup = random_witt_tuple(rng, 5, 2, (2, 2))
    ring = tup.ring
    frame = RingMatrix.identity(ring, 4)
    for i in (2, 3):
        for j in (0, 1):
            frame.rows[i][j] = LaurentPoly(
                ring, {e: rng.randrange(ring.modulus) for e in (0, 1)}
            )
    L = equivalence_check(gn_construct(tup), gn_construct(tup, frame=frame))
    return canonical_bytes(matrix_to_json(L))


def _taylor_transition_bytes():
    """Taylor transition at p^3 between two non-standard liftings of the
    Frobenius, on the glued module of a seeded ranks (1, 2) tuple over Z/27."""
    tup = random_witt_tuple(random.Random(5), 3, 3, (1, 2))
    ring = tup.ring
    line = AffineLine(ring)
    target = FrobeniusLifting(line, (LaurentPoly(ring, {0: 4, 1: 13, 2: 25}),))
    source = FrobeniusLifting(line, (LaurentPoly(ring, {0: 20, 2: 7, 3: 1}),))
    G = taylor_transition(sharp_construct(tup), target, source)
    return canonical_bytes(matrix_to_json(G))


def _taylor_cocycle_bytes():
    """The three Taylor transitions among three random liftings, at p = 5
    and p^3, on one glued module of a seeded ranks (1, 2, 1) tuple over
    Z/125: weight 2 reaches p - n, so the divided-operator terms are
    nonzero, and all three calls share the module."""
    rng = random.Random(12)
    tup = random_witt_tuple(rng, 5, 3, (1, 2, 1))
    line = AffineLine(tup.ring)
    l0, l1, l2 = (random_lifting(rng, line) for _ in range(3))
    tw = sharp_construct(tup)
    pairs = ((l0, l1), (l1, l2), (l0, l2))
    return canonical_bytes([matrix_to_json(taylor_transition(tw, a, b)) for a, b in pairs])


def _witt_construct_bytes():
    """Both twisted modules (lifting and p-connection matrices) and the
    reduction certificate of two seeded tuples whose grading comparisons
    have several blocks: p = 7, n = 2, ranks (2, 2) and p = 5, n = 3,
    ranks (1, 2, 1)."""
    doc = []
    for seed, p, n, ranks in ((3, 7, 2, (2, 2)), (8, 5, 3, (1, 2, 1))):
        tup = random_witt_tuple(random.Random(seed), p, n, ranks)
        cert = mod_reduction_check(tup)
        doc.append(
            {
                "modules": [
                    [matrix_to_json(tw.lift), matrix_to_json(tw.module.matrix)]
                    for tw in (gn_construct(tup), sharp_construct(tup))
                ],
                "reduction": [
                    matrix_to_json(cert.matrix),
                    cert.matches,
                    cert.horizontal,
                    cert.invertible,
                    cert.char_p_agrees,
                ],
            }
        )
    return canonical_bytes(doc)


def _transport_bytes():
    """Horizontal transport between the flag and a constant deformation of
    it, on the weight-one unit tuple over Z/9."""
    ring, down = Zmod(3, 2), Zmod(3, 1)
    tup = LiftingInputTuple(
        ring,
        (1, 1),
        (_mat(ring, [[1]]),),
        _mat(down, [[0, {2: 1}], [0, 0]]),
        (_mat(down, [[1]]), _mat(down, [[{2: 1}]])),
    )
    flag = filtration_steps_from_flag(tup, ring)
    base = w2_flow_step(tup, flag)
    moved = flag[0].add(_mat(ring, [[3], [0]]))
    U = horizontal_transport(base.flat, flag[0], moved)
    return canonical_bytes(matrix_to_json(U))


def _kernel_basis_bytes():
    """Graded isomorphisms (a one-dimensional intertwiner space on A^1, and
    an empty system on a ragged window over P^1) and a Birkhoff
    factorization that needs a left null vector."""
    d = Zmod(5)
    line = AffineLine(d)
    pieces = (Bundle.free(line, 2), Bundle.free(line, 1))
    A = GradedHiggsBundle(pieces, ((_mat(d, [[1], [{1: 1}]]),),))
    B = GradedHiggsBundle(pieces, ((_mat(d, [[2], [{0: 1, 1: 1}]]),),))
    proj = ProjectiveLine(d)
    split = Bundle.sum_of_lines(proj, (1, -1))
    frame = _mat(d, [[1, {1: 1}], [0, 1]])
    moved = Bundle(proj, 2, split.transition.mul(frame.inverse()))
    C = GradedHiggsBundle((split,), ())
    D = GradedHiggsBundle((moved,), ())
    fact = birkhoff_factorize(_mat(d, [[1, {-1: 1}], [{1: 1}, 2]]))
    doc = {
        "iso-a1": [
            [matrix_to_json(M) for M in per]
            for per in graded_higgs_isomorphic(A, B).blocks
        ],
        "iso-p1": [
            [matrix_to_json(M) for M in per]
            for per in graded_higgs_isomorphic(C, D).blocks
        ],
        "birkhoff": [matrix_to_json(fact.P), fact.exponents, matrix_to_json(fact.Q)],
    }
    return canonical_bytes(doc)


def _block_layout_bytes():
    """Outputs assembled block by block from grade-block layouts: twisted
    modules under a perturbed lifting and a frame change, the glued
    transversal pieces, a p-twist, the total Higgs bundle of a graded P^1
    instance, and a seeded lifting input."""
    ring3, ring5 = Zmod(3, 2), Zmod(5, 2)
    cases = [
        gn_construct(
            _tuple_p3(),
            perturbation=_mat(ring3, [[1, {1: 2}, 0], [0, 2, 0], [{-1: 1}, 1, 2]]),
            frame=_mat(ring3, [[1, 0, 0], [2, 1, 0], [1, {1: 4}, 1]]),
        ),
        gn_construct(
            _tuple_p5(),
            perturbation=_mat(ring5, [[2, 0, 0], [{1: 1}, 3, 0], [1, {2: 4}, 1]]),
            frame=_mat(ring5, [[1, 0, 0], [{1: 3}, 1, 0], [2, 1, 1]]),
        ),
        sharp_construct(_tuple_p3()),
        sharp_construct(_tuple_p5()),
    ]
    twisted = [[matrix_to_json(tw.lift), matrix_to_json(tw.module.matrix)] for tw in cases]
    seeded = random_witt_tuple(random.Random(0), 5, 3, (1, 2, 1))
    params = CorpusParams(p=5, rank=4, weight=2, count=2, seed=4)
    totals = [G.total() for G in generate(params)]
    doc = {
        "twisted": twisted,
        "ptwist": matrix_to_json(
            ptwist_matrix(local_filtered_lifting(seeded), seeded.ranks)
        ),
        "totals": [
            [[matrix_to_json(T) for T in H.theta], matrix_to_json(H.bundle.transition)]
            for H in totals
        ],
        "witt-tuple": witt_tuple_to_json(seeded),
    }
    return canonical_bytes(doc)


def _smith_layer_bytes():
    """Outputs read off Smith forms over F_p[t]: saturated chart bases of
    subbundle spans on P^1 corpus pieces, the HN filtration of a bundle of
    splitting type (2, 0, -1) in twisted frames, maximal destabilizers of
    two unstable corpus instances and of that bundle, the adapted frames
    of a projective transform's grading, and a polynomial kernel."""
    d3, d5 = Zmod(3), Zmod(5)

    def bases(S):
        return None if S is None else [matrix_to_json(B) for B in S.basis]

    piece = generate(CorpusParams(p=3, rank=3, weight=1, count=1, seed=4))[0].pieces[1]
    wide = generate(CorpusParams(p=5, rank=4, weight=1, count=1, seed=2))[0]
    wide = max(wide.pieces, key=lambda P: P.rank)
    spans = [
        Subbundle.from_chart0_span(piece, _mat(d3, [[{-1: 1, 0: 2}], [{0: 1, 3: 1}]])),
        Subbundle.from_chart0_span(
            wide,
            _mat(d5, [[{0: 1, 1: 2}, 1]] + [[{1: 3}, {-2: 1, 0: 4}]] * (wide.rank - 1)),
        ),
    ]

    proj3 = ProjectiveLine(d3)
    left = _mat(d3, [[1, 0, 0], [{-1: 2}, 1, 0], [{-2: 1}, {-1: 1}, 1]])
    right = _mat(d3, [[1, {1: 1, 2: 2}, 0], [0, 1, 0], [{1: 2}, {0: 1, 1: 1}, 1]])
    split = Bundle.sum_of_lines(proj3, (2, 0, -1))
    twisted = Bundle(proj3, 3, left.mul(split.transition).mul(right))

    unstable = [
        generate(CorpusParams(p=3, rank=3, weight=1, count=1, seed=seed))[0]
        for seed in (2, 6)
    ]
    unstable.append(GradedHiggsBundle((twisted,), ()))
    reports = [max_destabilizer_graded(G) for G in unstable]

    frame = _mat(d3, [[1, {1: 2}], [{0: 1, 1: 1}, {0: 1, 1: 2, 2: 2}]])
    E = Bundle.sum_of_lines(proj3, (1, -1))
    theta = _mat(d3, [[0, 1], [0, 0]])
    E_new = Bundle(proj3, 2, E.transition.mul(frame.inverse()))
    H = inverse_cartier_1(
        HiggsBundle.from_chart0(E_new, frame.mul(theta).mul(frame.inverse()))
    )
    frames = grade(H, HodgeFiltration(H.bundle, [hn_filtration(H.bundle)[0]])).frames

    M = _mat(d5, [[{0: 1, 1: 1}, {1: 1}, {0: 2, 2: 1}], [{0: 2, 1: 2}, {1: 2}, {0: 4, 2: 2}]])
    doc = {
        "spans": [bases(S) for S in spans],
        "hn": [bases(S) for S in hn_filtration(twisted)],
        "destabilizers": [
            [[bases(S) for S in rep.pieces], str(rep.mu_max), rep.r_max]
            for rep in reports
        ],
        "grading-frames": [matrix_to_json(T) for T in frames],
        "kernel": matrix_to_json(poly_kernel(M)),
    }
    return canonical_bytes(doc)


def _twisted_frames(G, left, right):
    """The same graded object in new frames: rank-2 pieces get transition
    left * g * right (left over F_p[1/t], right over F_p[t]) and the
    connecting maps follow the chart-0 frame change."""
    curve = G.curve
    frames = []
    pieces = []
    for P in G.pieces:
        if P.rank == 2:
            frames.append(right)
            pieces.append(Bundle(curve, 2, left.mul(P.transition).mul(right)))
        else:
            frames.append(RingMatrix.identity(G.domain, P.rank))
            pieces.append(P)
    maps = []
    for k, (M0, _) in enumerate(G.maps):
        M0 = frames[k].inverse().mul(M0).mul(frames[k + 1])
        M1 = chart1_map(M0, pieces[k + 1], pieces[k]).scale(curve.jacobian_factor())
        maps.append((M0, M1))
    return GradedHiggsBundle(pieces, maps).validate()


def _semistability_decisions_bytes():
    """Semistability decisions at the default search budget: the first
    witness and the maximal destabilizer (slope, rank and both chart bases
    of every piece) of seeded rank-2 and rank-3 P^1 corpus instances, of
    rank-3 box cells, and of one box cell re-expressed in twisted frames."""
    instances = []
    for p in (3, 5, 7):
        for weight in (0, 1):
            params = CorpusParams(
                p=p, rank=2, weight=weight, count=6, seed=10 * p + weight, max_exp=3
            )
            instances.extend(generate(params))
    instances.extend(
        generate(CorpusParams(p=5, rank=3, weight=1, count=4, seed=51, max_exp=2))
    )
    box = [
        generate(CorpusParams(p=p, rank=3, weight=weight, count=1, seed=0))[0]
        for p, weight in ((3, 0), (3, 1), (5, 2), (7, 2))
    ]
    instances.extend(box)
    d3 = Zmod(3)
    instances.append(
        _twisted_frames(
            box[1],
            _mat(d3, [[1, 0], [{-1: 2, -2: 1}, 1]]),
            _mat(d3, [[1, {0: 1, 1: 2}], [0, 1]]),
        )
    )

    def report(rep):
        if rep is None:
            return None
        pieces = [
            None if S is None else [matrix_to_json(B) for B in S.basis]
            for S in rep.pieces
        ]
        return [pieces, str(rep.mu_max), rep.r_max]

    doc = []
    for G in instances:
        ok, witness = is_higgs_semistable(G)
        maximal = None if ok else max_destabilizer_graded(G)
        doc.append([ok, report(witness), report(maximal)])
    return canonical_bytes(doc)


def _unitriangular(rng, ring, n, sign, lower):
    """Seeded unitriangular matrix whose off-diagonal entries are
    polynomials of degree <= 2 in t^sign."""
    M = RingMatrix.identity(ring, n)
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                M.rows[i][j] = LaurentPoly(
                    ring, {sign * e: rng.randrange(ring.modulus) for e in range(3)}
                )
    return M


def _inverse_layer_bytes():
    """Inverses read off eliminations and from the generic inverse: the
    Birkhoff frames (Q, Q^-1 and Phat) of a rank-3 bundle at p = 5 and a
    rank-4 bundle at p = 7, each a sum of lines seen through seeded frames
    over F_p[1/t] and F_p[t], and the inverses of two seeded 4 x 4
    unimodular matrices over Z/p^3 whose determinants are unit Laurent
    polynomials with nilpotent parts."""
    rng = random.Random(14)
    split = []
    for p, exps in ((5, (2, 0, -1)), (7, (3, 1, 1, -2))):
        d = Zmod(p)
        n = len(exps)
        left = _unitriangular(rng, d, n, -1, True)
        left = left.mul(_unitriangular(rng, d, n, -1, False))
        right = _unitriangular(rng, d, n, 1, False)
        right = right.mul(_unitriangular(rng, d, n, 1, True))
        lines = Bundle.sum_of_lines(ProjectiveLine(d), exps)
        sd = Bundle(lines.curve, n, left.mul(lines.transition).mul(right)).split_data()
        frames = [matrix_to_json(T) for T in (sd.Q, sd.Qinv, sd.Phat)]
        split.append([sd.exponents] + frames)
    inverses = []
    for p in (3, 5):
        ring = Zmod(p, 3)
        units = RingMatrix.diagonal(
            ring,
            [
                LaurentPoly(ring, {k: rng.randrange(1, p), k + 1: p * rng.randrange(p)})
                for k in (-1, 0, 2, 1)
            ],
        )
        M = _unitriangular(rng, ring, 4, 1, True).mul(units)
        M = M.mul(_unitriangular(rng, ring, 4, 1, False))
        inverses.append(matrix_to_json(M.inverse()))
    return canonical_bytes({"split": split, "inverse": inverses})


LIBRARY_CASES = {
    "semistability-decisions": _semistability_decisions_bytes,
    "inverse-layer": _inverse_layer_bytes,
    "smith-layer": _smith_layer_bytes,
    "block-layout": _block_layout_bytes,
    "kernel-bases": _kernel_basis_bytes,
    "pack-unpack-round-trip": _pack_round_trip_bytes,
    "equivalence-intertwiner": _equivalence_bytes,
    "equivalence-default-window": _default_window_equivalence_bytes,
    "taylor-transition-p3": _taylor_transition_bytes,
    "taylor-cocycle-p5-n3": _taylor_cocycle_bytes,
    "witt-construct": _witt_construct_bytes,
    "horizontal-transport": _transport_bytes,
}

LIBRARY_DIGESTS = {
    "semistability-decisions": "61770d6ac73ddebf94c3c405822c11818e97da734c297a4d82b911f07d7401d5",
    "inverse-layer": "723c87e036bd46017f4456222c0cd8892bffbb32c7daea3de4c07b34d69ab949",
    "smith-layer": "fa225450363ce1c0531598af69dbfeeb62f48de58d46240392c15478e274b5f8",
    "block-layout": "7420d281d84246bf321618d4a8e7e0740ae21049b5a41d285eb6c303fc4b0165",
    "kernel-bases": "24f529b68afc1968d4b6dcdffe7aa372b4af21c574cb76f654a73f838b121f72",
    "pack-unpack-round-trip": "b9da2046f027c4aa48f2bdfa3aeb24270a15b047950d71c610e1e126084ab5c4",
    "equivalence-intertwiner": "31d91814a0c158dc10491a341aed16206413964ea36c2fffef5a3983ce7a8ff8",
    "equivalence-default-window": "fade237c52da0865d83e14f57ca60140381ef5bdd998455fb6862c88296c414f",
    "taylor-transition-p3": "1de60a3b47d4bf0736726c1ce433d0fdd7938c70246fb960c98102dacaa4b8cf",
    "taylor-cocycle-p5-n3": "75c04f75fc10af21a116afa33bc48312634efbdaeb171824e22f9cc5e0a016d4",
    "witt-construct": "804dd75cba5b3a0e90604881dec767e52639a46ad8d829002a9ace51371914a5",
    "horizontal-transport": "5e4608b5b225b4ecd83aa37c5ee0996a09fed5910cb9978a3a3342d7718785cd",
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_outputs_are_byte_identical(name):
    assert _digest(LIBRARY_CASES[name]()) == LIBRARY_DIGESTS[name]
