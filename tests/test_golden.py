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
    the pivot order;
  * the monomial transitions (one nonzero c t^e in every row and column)
    already split, so their Birkhoff data depends only on the order of
    equal exponents and on where each coefficient and its inverse land.
"""

import hashlib
import random

import pytest
from click.testing import CliRunner

from hdflow import filtration, witt
from hdflow.cli import main
from hdflow.corpus import (
    CorpusParams,
    generate,
    random_lifting,
    random_nilpotent_higgs,
    random_witt_tuple,
)
from hdflow.bundles import (
    Bundle,
    HiggsBundle,
    Subbundle,
    chart1_form,
    chart1_map,
    hn_filtration,
)
from hdflow.cartier import inverse_cartier_1
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.filtration import is_higgs_semistable, max_destabilizer_graded
from hdflow.flow import (
    PeriodicTuple,
    extend_graded,
    pack_endostructure,
    unpack_endostructure,
)
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
    random_poly,
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
    gamma_apply,
    gn_construct,
    local_filtered_lifting,
    mod_reduction_check,
    ptwist_matrix,
    sharp_construct,
    taylor_transition,
    w2_flow_step,
)

from oracles import (
    default_equivalence_window,
    horizontal_transport,
    perturbed_construct,
    random_flag_frame,
    random_laurent,
    random_split_transition,
    random_unit,
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


def _seeded_witt_tuple(seed, p, n, ranks):
    return witt_tuple_to_json(random_witt_tuple(random.Random(seed), p, n, ranks))


def _rank_two_a1():
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=1, curve="A1")
    return graded_to_json(generate(params)[0])


def _rank_two_p1():
    """The first seed whose rank-2, weight-1 instance at p = 5 is
    semistable (pieces O(-5), O(-5), zero map): seed 1's is O(3) + O(6),
    which the canonical flow refuses."""
    params = CorpusParams(p=5, rank=2, weight=1, count=1, seed=2)
    return generate(params)[0]


def _line_p1():
    """gen-corpus --p 3 --rank 1 --weight 0 --count 1 --seed 2's instance:
    one line-bundle piece, decided semistable at every stage of a flow."""
    params = CorpusParams(p=3, rank=1, weight=0, count=1, seed=2)
    return graded_to_json(generate(params)[0])


def _supplied_a1():
    """Two free line pieces on A^1 at p = 3 with theta = [[1]], and
    Fil^1 = span(e_2) supplied at each of two steps: theta steps to t^2,
    then to t^8."""
    d = Zmod(3, 1)
    line = AffineLine(d)
    G = GradedHiggsBundle(
        (Bundle.free(line, 1), Bundle.free(line, 1)), ((_mat(d, [[1]]),),)
    )
    e2 = matrix_to_json(_mat(d, [[0], [1]]))
    return {
        "schema": "hdf/1",
        "type": "flow_input",
        "graded": graded_to_json(G),
        "filtrations": [{"steps": [e2]}, {"steps": [e2]}],
    }


def _rank_two_f9():
    """gen-corpus --p 3 --rank 2 --weight 1 --seed 2's instance, written
    over F_9."""
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=2)
    return graded_to_json(extend_graded(generate(params)[0], GF(3, 2)))


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
    "witt-lift-p3-n2": (["witt", "lift"], lambda: _seeded_witt_tuple(21, 3, 2, (2, 1))),
    "witt-lift-p7-n3": (
        ["witt", "lift"],
        lambda: _seeded_witt_tuple(22, 7, 3, (1, 2, 1, 1)),
    ),
    "flow-run-rank2-a1": (
        ["flow", "run", "--steps", "2", "--field-degree", "2"],
        _rank_two_a1,
    ),
    "flow-run-rank2-p1": (
        ["flow", "run", "--steps", "3"],
        lambda: graded_to_json(_rank_two_p1()),
    ),
    "flow-run-line-p1": (["flow", "run", "--steps", "2"], _line_p1),
    "flow-run-supplied-a1": (
        ["flow", "run", "--policy", "supplied", "--steps", "2"],
        _supplied_a1,
    ),
    "flow-run-rank2-f9": (["flow", "run", "--steps", "2"], _rank_two_f9),
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
    "filtration-compute-p1-graded": (
        ["filtration", "compute"],
        lambda: flat_to_json(inverse_cartier_1(_rank_two_p1().total())),
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
    "witt-lift-p3-n2": (
        "6aac8bb5979b0bfde0194985c0cf3d687f0b80ec719e7d5b81b8a32ac3e5467a",
        "b5ccf18d2aceb7c7682846cf93ef4bfc84eca1d18d0553b46d25a8ba5d75958b",
    ),
    "witt-lift-p7-n3": (
        "50826812d36178311d3cf989bd7565c5580b021114a3156a08fd89e366a74571",
        "26a9af7441a9e3fff6f5897de21e420b1610e6fe9260f937a567d4b28e698bcd",
    ),
    "flow-run-rank2-a1": (
        "35a1ca6a76bbe14aa3bc29af37e351a13447466341189325a9c3da115da7029a",
        "29d747ed00814b8f3b9fef68327c2834cb664555db13d178f211f10f9129c4e2",
    ),
    "flow-run-rank2-p1": (
        "5f6d574683337d4175dbe8ee61d599b1f471ccfb3008804af6824016c5aaf4a3",
        "45c68463c017ffdb4cd5ac0b09889165c8c0ed0e5a81c7dbe394c3fe7d76f2a6",
    ),
    "flow-run-line-p1": (
        "c754f7698a63273abd34c97251abef548b850456f70a8785529272957038b4ca",
        "368c9e11a1d485842d4fbe1fea4de541ad4987e18088c48ca0369dc1fd056d92",
    ),
    "flow-run-supplied-a1": (
        "02d43204eb1dd0b9c1012f94622130aa5aab38ac887fdb45c12b1141bb112d81",
        "7a9635f56aae436dd89c5e0d8974ff8f05ea20840f7fc488d279a92f8b72b6b0",
    ),
    "flow-run-rank2-f9": (
        "bebcac7573a56b35674fe0c9aa7eda6861b46f1db645eda3d6783925879eb326",
        "9d174c8e44124e5349c6c168f2294e0af88f718b43723c25ed88e54c15159183",
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
    "filtration-compute-p1-graded": (
        "beddb5670b7960e81eeb719af4206559d67344299d6eb1dc451b124a104aac3a",
        "57b49f63f9bf466a10478373af8e8e61342a3433662c16c8184af38ec2434e92",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_artifacts_are_byte_identical(name, tmp_path, monkeypatch):
    args, make_doc = CLI_CASES[name]
    doc = None if make_doc is None else make_doc()
    artifact, manifest = _run_cli(tmp_path, monkeypatch, list(args), doc)
    assert (_digest(artifact), _digest(manifest)) == CLI_DIGESTS[name]


def test_flow_run_decides_each_term_once(tmp_path, monkeypatch):
    """A three-step canonical flow run decides each later term once: the
    per-step certificates read the decisions its Simpson filtrations
    stored, and nothing decides the start."""
    calls = []
    top = filtration._top_destabilizer
    monkeypatch.setattr(filtration, "_top_destabilizer", lambda G: calls.append(G) or top(G))
    args, make_doc = CLI_CASES["flow-run-rank2-p1"]
    artifact, manifest = _run_cli(tmp_path, monkeypatch, list(args), make_doc())
    assert len(calls) == 3
    assert (_digest(artifact), _digest(manifest)) == CLI_DIGESTS["flow-run-rank2-p1"]


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
    Ba = gn_construct(tup).module.matrix
    Bb = gn_construct(tup, frame=frame).module.matrix
    L = witt._window_intertwiner(ring, Ba, Bb, (-1, 1))
    return canonical_bytes(matrix_to_json(L))


def _default_window_equivalence_bytes():
    """Intertwiner on equivalence_check's default window for a degree-1
    unipotent flag-respecting frame change: p = 5, ranks (2, 2), n = 2,
    drawn like the witt-lift benchmark's frame-change case at seed 1, whose
    default-window system (397 equations, 240 unknowns) is that round's
    largest.  It is solved on that window alone, the last one of
    equivalence_check's schedule."""
    rng = random.Random("witt-lift:1:5:2:(2, 2):0")
    tup = random_witt_tuple(rng, 5, 2, (2, 2))
    tw = gn_construct(tup)
    framed = gn_construct(tup, frame=random_flag_frame(rng, tup.ring, (2, 2)))
    lo, hi = default_equivalence_window(tw, framed)
    L = witt._window_intertwiner(tup.ring, tw.module.matrix, framed.module.matrix, (lo, hi))
    return canonical_bytes(matrix_to_json(L))


def _frame_change_p3_bytes():
    """Intertwiner equivalence_check returns without a window for the
    witt-lift benchmark's frame-change case p = 3, ranks (3, 1), n = 2 at
    seed 1: the one on -1..1, the first window of the schedule, which
    differs from the one on the default window."""
    rng = random.Random("witt-lift:1:3:2:(3, 1):0")
    tup = random_witt_tuple(rng, 3, 2, (3, 1))
    frame = random_flag_frame(rng, tup.ring, (3, 1))
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


def _taylor_transitions_p7_bytes():
    """The three Taylor transitions among three random liftings, at p = 7
    and p^3, on one glued module of a seeded ranks (1, 1, 1, 1, 1) tuple
    over Z/343: weight 4 reaches p - n, so the degree-7 divided-operator term
    is nonzero, and the last kept term (degree 9) lies far below the
    truncation bound 27."""
    rng = random.Random(7)
    tup = random_witt_tuple(rng, 7, 3, (1, 1, 1, 1, 1))
    line = AffineLine(tup.ring)
    l0, l1, l2 = (random_lifting(rng, line) for _ in range(3))
    tw = sharp_construct(tup)
    pairs = ((l0, l1), (l1, l2), (l0, l2))
    return canonical_bytes([matrix_to_json(taylor_transition(tw, a, b)) for a, b in pairs])


def _gamma_apply_bytes():
    """Divided operators of weight 1 and weight p on two columns of
    seeded sections, on the glued lifting of a p = 5, n = 3, ranks (1, 2, 1)
    tuple and of a p = 7, n = 3, ranks (1, 1, 1, 1, 1) tuple: the top grade
    reaches p - n, so every output is nonzero."""
    doc = []
    for p, n, ranks in ((5, 3, (1, 2, 1)), (7, 3, (1, 1, 1, 1, 1))):
        rng = random.Random(0)
        tup = random_witt_tuple(rng, p, n, ranks)
        ring = tup.ring
        tw = sharp_construct(tup)
        X = RingMatrix(
            ring, [[random_poly(rng, ring, 2) for _ in range(2)] for _ in range(tw.rank)]
        )
        for m in (1, p):
            hs = [random_poly(rng, ring, 2) for _ in range(p - 1 + m)]
            doc.append(matrix_to_json(gamma_apply(tw.lift, ranks, m, hs, X)))
    return canonical_bytes(doc)


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
        perturbed_construct(
            _tuple_p3(),
            _mat(ring3, [[1, {1: 2}, 0], [0, 2, 0], [{-1: 1}, 1, 2]]),
            frame=_mat(ring3, [[1, 0, 0], [2, 1, 0], [1, {1: 4}, 1]]),
        ),
        perturbed_construct(
            _tuple_p5(),
            _mat(ring5, [[2, 0, 0], [{1: 1}, 3, 0], [1, {2: 4}, 1]]),
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


def _monomial_split_bytes():
    """Birkhoff data of monomial transitions (one nonzero c t^e in every row
    and column): the split frames (exponents, Q, Q^-1, Phat) and the left
    factor P of sums of lines with unsorted and repeated exponents, of an
    anti-diagonal, of a permuted rank-4 matrix with coefficients other than
    one, and of one matrix over F_9."""
    cases = []
    for p, exps in ((3, (1,)), (3, (2, -1, 2)), (5, (0, 0)), (5, (-3, 4, 4, -3)),
                    (7, (3, -2, 3)), (7, (-1, 2, -1, 0))):
        cases.append(Bundle.sum_of_lines(ProjectiveLine(Zmod(p)), exps).transition)
    d5, d7, d9 = Zmod(5), Zmod(7), GF(3, 2)
    cases.append(_mat(d5, [[0, {-1: 2}], [{3: 3}, 0]]))
    cases.append(
        _mat(d7, [[0, 0, {2: 3}, 0], [{-1: 5}, 0, 0, 0], [0, 0, 0, 2], [0, {-3: 6}, 0, 0]])
    )
    u, v = (0, 1), (2, 1)
    cases.append(RingMatrix(d9, [
        [LaurentPoly.zero(d9), LaurentPoly.monomial(d9, u, 1), LaurentPoly.zero(d9)],
        [LaurentPoly.zero(d9), LaurentPoly.zero(d9), LaurentPoly.monomial(d9, v, -2)],
        [LaurentPoly.monomial(d9, u, 1), LaurentPoly.zero(d9), LaurentPoly.zero(d9)],
    ]))
    doc = []
    for G in cases:
        sd = Bundle(ProjectiveLine(G.domain), G.nrows, G).split_data()
        frames = [matrix_to_json(T) for T in (sd.Q, sd.Qinv, sd.Phat)]
        doc.append([sd.exponents] + frames + [matrix_to_json(birkhoff_factorize(G).P)])
    return canonical_bytes(doc)


def _destabilizer_frames_bytes():
    """Maximal destabilizers (both chart bases of every piece, slope and
    rank) of unstable graded objects at p = 5, 7 and over F_9 whose top
    piece is a line bundle c t^-a with c != 1 (under a nonzero connecting
    map), a rank-2 piece of type (a, b) in seeded non-monomial frames
    beside such a line, or a rank-3 piece of type (a, a, b); and the split
    frames of one line bundle over F_9."""
    rng = random.Random(35)
    doc = []
    for F, c, (a, b), (a2, b2), (a3, b3) in (
        (Zmod(5), 2, (2, -2), (3, -1), (1, -2)),
        (Zmod(7), 3, (3, -1), (2, 0), (0, -3)),
        (GF(3, 2), (2, 1), (1, -3), (1, -2), (2, 0)),
    ):
        X = ProjectiveLine(F)

        def line(deg, coeff=c):
            return Bundle(X, 1, RingMatrix(F, [[LaurentPoly.monomial(F, coeff, -deg)]]))

        top, low = line(a), Bundle.sum_of_lines(X, (b,))
        M0 = RingMatrix(F, [[random_laurent(rng, F, 0, a - b - 2)]])
        E2 = Bundle(X, 2, random_split_transition(rng, F, [a2, b2]))
        E3 = Bundle(X, 3, random_split_transition(rng, F, [a3, a3, b3]))
        objects = [
            GradedHiggsBundle((top, low), ((M0, chart1_form(M0, low, top)),)),
            GradedHiggsBundle((E2, line(a2)), ((RingMatrix.zeros(F, 2, 1),) * 2,)),
            GradedHiggsBundle((E3, line(b3)), ((RingMatrix.zeros(F, 3, 1),) * 2,)),
        ]
        for G in objects:
            rep = max_destabilizer_graded(G.validate())
            pieces = [
                None if S is None else [matrix_to_json(B) for B in S.basis]
                for S in rep.pieces
            ]
            doc.append([pieces, str(rep.mu_max), rep.r_max])
    d9 = GF(3, 2)
    G = RingMatrix(d9, [[LaurentPoly.monomial(d9, (2, 1), 2)]])
    sd = Bundle(ProjectiveLine(d9), 1, G).split_data()
    frames = [matrix_to_json(T) for T in (sd.Q, sd.Qinv, sd.Phat)]
    doc.append([sd.exponents] + frames + [matrix_to_json(birkhoff_factorize(G).P)])
    return canonical_bytes(doc)


def _monomial_splits_bytes():
    """Split frames (exponents, Q, Q^-1, Phat) and the left factor P, with
    and without the determinant, of seeded monomial transitions of rank 1 to
    4 over Z/5, Z/7 and F_9: coefficients other than one, exponents in
    -6..6 with repeats, and for rank >= 2 a column pattern other than the
    identity."""
    rng = random.Random(36)
    doc = []
    for F in (Zmod(5), Zmod(7), GF(3, 2)):
        X = ProjectiveLine(F)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                perm = list(range(n))
                while n > 1 and perm == sorted(perm):
                    rng.shuffle(perm)
                pool = [rng.randrange(-6, 7) for _ in range(n)]
                G = RingMatrix(F, [[LaurentPoly.zero(F)] * n for _ in range(n)])
                for i, j in enumerate(perm):
                    c = random_unit(rng, F)
                    while c == F.one:
                        c = random_unit(rng, F)
                    G.rows[i][j] = LaurentPoly.monomial(F, c, rng.choice(pool))
                sd = Bundle(X, n, G).split_data()
                frames = [matrix_to_json(T) for T in (sd.Q, sd.Qinv, sd.Phat)]
                lefts = [matrix_to_json(birkhoff_factorize(G, det).P) for det in (None, G.det())]
                doc.append([sd.exponents] + frames + lefts)
    return canonical_bytes(doc)


LIBRARY_CASES = {
    "destabilizer-frames": _destabilizer_frames_bytes,
    "monomial-split": _monomial_split_bytes,
    "monomial-splits": _monomial_splits_bytes,
    "semistability-decisions": _semistability_decisions_bytes,
    "inverse-layer": _inverse_layer_bytes,
    "smith-layer": _smith_layer_bytes,
    "block-layout": _block_layout_bytes,
    "kernel-bases": _kernel_basis_bytes,
    "pack-unpack-round-trip": _pack_round_trip_bytes,
    "equivalence-intertwiner": _equivalence_bytes,
    "equivalence-default-window": _default_window_equivalence_bytes,
    "equivalence-frame-change-p3": _frame_change_p3_bytes,
    "taylor-transition-p3": _taylor_transition_bytes,
    "taylor-cocycle-p5-n3": _taylor_cocycle_bytes,
    "taylor-transitions-p7-n3": _taylor_transitions_p7_bytes,
    "gamma-apply-weights": _gamma_apply_bytes,
    "witt-construct": _witt_construct_bytes,
    "horizontal-transport": _transport_bytes,
}

LIBRARY_DIGESTS = {
    "destabilizer-frames": "51c042104b866a9499c32150241b187b3437e2f46304e0040702b34c4bf3a6e9",
    "monomial-split": "e331e2b0186cbffba0d0b9d579270658f3cff01a8ded4981200052247ec9fdfc",
    "monomial-splits": "8191c1ca1787a228feef779b26a1553aab6aaea1d5d4ed634e8ff8c2f7d978dd",
    "semistability-decisions": "61770d6ac73ddebf94c3c405822c11818e97da734c297a4d82b911f07d7401d5",
    "inverse-layer": "723c87e036bd46017f4456222c0cd8892bffbb32c7daea3de4c07b34d69ab949",
    "smith-layer": "fa225450363ce1c0531598af69dbfeeb62f48de58d46240392c15478e274b5f8",
    "block-layout": "7420d281d84246bf321618d4a8e7e0740ae21049b5a41d285eb6c303fc4b0165",
    "kernel-bases": "8997e74e14056cd6ad22aa9824d4378d44a3a77c6791a667b860851ba37dcb06",
    "pack-unpack-round-trip": "b9da2046f027c4aa48f2bdfa3aeb24270a15b047950d71c610e1e126084ab5c4",
    "equivalence-intertwiner": "31d91814a0c158dc10491a341aed16206413964ea36c2fffef5a3983ce7a8ff8",
    "equivalence-default-window": "fade237c52da0865d83e14f57ca60140381ef5bdd998455fb6862c88296c414f",
    "equivalence-frame-change-p3": "cc7694add0a34c9a549226c81b694f84c5a84b259650e5e20f540ac2e8f5f72d",
    "taylor-transition-p3": "1de60a3b47d4bf0736726c1ce433d0fdd7938c70246fb960c98102dacaa4b8cf",
    "taylor-cocycle-p5-n3": "75c04f75fc10af21a116afa33bc48312634efbdaeb171824e22f9cc5e0a016d4",
    "taylor-transitions-p7-n3": "eea968ebf15b7f303859ca0e1b775e8fffe40706287b1a48312ba8bff3ead4e7",
    "gamma-apply-weights": "9d74b14e3a44209574ac08baa3cb8c518b9a73157a27c2f9727486e7173f6d76",
    "witt-construct": "9464288ecc6800fb6efb9e035194adfcd3d63ccd6ed7c52b5e6b6c3e5c7119f8",
    "horizontal-transport": "5e4608b5b225b4ecd83aa37c5ee0996a09fed5910cb9978a3a3342d7718785cd",
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_outputs_are_byte_identical(name):
    assert _digest(LIBRARY_CASES[name]()) == LIBRARY_DIGESTS[name]
