"""Tests for the canonical JSON layer: frozen encodings, round-trips,
rejection paths with located errors, and atomic writes."""

import json
import os
import random

import pytest

from hdflow.bundles import Bundle
from hdflow.cartier import inverse_cartier_1
from hdflow.corpus import CorpusParams, generate, random_witt_tuple
from hdflow.curves import AffineLine, FrobeniusLifting, ProjectiveLine
from hdflow.filtration import simpson_filtration
from hdflow.flow import extend_graded
from hdflow.graded import GradedHiggsBundle
from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod
from hdflow.serialize import (
    SCHEMA,
    SchemaError,
    bundle_from_json,
    bundle_to_json,
    canonical_bytes,
    error_object,
    filtration_from_json,
    filtration_to_json,
    flat_from_json,
    flat_to_json,
    graded_from_json,
    graded_to_json,
    higgs_from_json,
    higgs_to_json,
    lifting_from_json,
    lifting_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_bytes,
    poly_from_json,
    poly_to_json,
    run_manifest,
    sha256_hex,
    witt_tuple_from_json,
    witt_tuple_to_json,
    write_atomic,
)
from hdflow.witt import LiftingInputTuple

from oracles import filtrations_equal, random_laurent, random_split_transition


# -- canonical encoding, frozen by hand --------------------------------------


def test_canonical_bytes_frozen():
    assert canonical_bytes({"b": 2, "a": [1]}) == b'{"a":[1],"b":2}\n'
    assert canonical_bytes([]) == b"[]\n"


def test_canonical_bytes_key_order_invariance():
    one = {"x": 1, "y": [{"b": 2, "a": 3}]}
    two = {"y": [{"a": 3, "b": 2}], "x": 1}
    assert canonical_bytes(one) == canonical_bytes(two)


def test_sha256_frozen():
    assert (
        sha256_hex(b"")
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_bundle_document_frozen():
    ring = Zmod(3, 1)
    doc = bundle_to_json(Bundle.sum_of_lines(ProjectiveLine(ring), (1,)))
    assert canonical_bytes(doc) == (
        b'{"curve":"P1","m":1,"p":3,"rank":1,"schema":"hdf/1",'
        b'"transition":[[[[-1,1]]]],"type":"bundle"}\n'
    )


def test_poly_encoding_frozen():
    ring = Zmod(3, 1)
    f = LaurentPoly(ring, {2: 1, 0: 2})
    assert poly_to_json(f) == [[0, 2], [2, 1]]
    assert poly_to_json(LaurentPoly.zero(ring)) == []


# -- polynomials and matrices ------------------------------------------------


def test_poly_roundtrip_random():
    rng = random.Random(0)
    for _ in range(40):
        ring = Zmod(rng.choice([3, 5]), rng.randint(1, 3))
        f = random_laurent(rng, ring, -4, 5)
        back = poly_from_json(ring, poly_to_json(f), "/")
        assert back == f


def test_poly_rejects_out_of_range_residue():
    ring = Zmod(3, 1)
    with pytest.raises(SchemaError) as err:
        poly_from_json(ring, [[0, 3]], "/f")
    assert err.value.path == "/f/0"


def test_poly_rejects_repeated_exponent_and_bad_pairs():
    ring = Zmod(3, 1)
    with pytest.raises(SchemaError):
        poly_from_json(ring, [[0, 1], [0, 2]], "/")
    with pytest.raises(SchemaError):
        poly_from_json(ring, [[0]], "/")
    with pytest.raises(SchemaError):
        poly_from_json(ring, [[0, True]], "/")
    with pytest.raises(SchemaError):
        poly_from_json(ring, "nope", "/")


def test_matrix_roundtrip_and_shape_checks():
    ring = Zmod(5, 2)
    rng = random.Random(1)
    M = RingMatrix(
        ring,
        [[random_laurent(rng, ring, -2, 3) for _ in range(3)] for _ in range(2)],
    )
    back = matrix_from_json(ring, matrix_to_json(M), "/")
    assert back == M
    with pytest.raises(SchemaError):
        matrix_from_json(ring, matrix_to_json(M), "/", shape=(3, 2))
    with pytest.raises(SchemaError):
        matrix_from_json(ring, [[[], []], [[]]], "/")
    with pytest.raises(SchemaError):
        matrix_from_json(ring, [], "/")


def test_matrix_encoding_over_extension_field():
    K = GF(3, 2)
    M = RingMatrix(
        K,
        [
            [LaurentPoly(K, {0: (1, 2), -1: (0, 1)}), LaurentPoly.zero(K)],
            [LaurentPoly.one(K), LaurentPoly(K, {2: (2, 0)})],
        ],
    )
    assert matrix_to_json(M) == [
        [[[-1, [0, 1]], [0, [1, 2]]], []],
        [[[0, [1, 0]]], [[2, [2, 0]]]],
    ]


def test_all_residues_least_nonnegative():
    """Every integer leaf of an emitted document other than exponents and
    moduli lies in [0, p^m)."""
    tup = random_witt_tuple(random.Random(7), 3, 2, (1, 2))
    doc = witt_tuple_to_json(tup)

    def walk_matrix(mat, modulus):
        for row in mat:
            for cell in row:
                for e, c in cell:
                    assert 0 <= c < modulus

    walk_matrix(doc["abar"], 3)
    for M in doc["theta"]:
        walk_matrix(M, 9)
    for M in doc["psibar"]:
        walk_matrix(M, 3)


# -- parse and tag handling --------------------------------------------------


def test_parse_bytes_reports_position():
    with pytest.raises(SchemaError) as err:
        parse_bytes(b"{broken")
    assert "line 1" in err.value.message
    assert err.value.path == "/"


def test_tag_rejections():
    ring = Zmod(3, 1)
    doc = bundle_to_json(Bundle.free(AffineLine(ring), 2))
    wrong_schema = dict(doc, schema="hdf/2")
    with pytest.raises(SchemaError) as err:
        bundle_from_json(wrong_schema)
    assert err.value.path == "/schema"
    wrong_type = dict(doc, type="higgs_bundle")
    with pytest.raises(SchemaError) as err:
        bundle_from_json(wrong_type)
    assert err.value.path == "/type"
    with pytest.raises(SchemaError):
        bundle_from_json({"schema": SCHEMA})


# -- bundles, Higgs, flat ----------------------------------------------------


def test_bundle_roundtrip_split_transition():
    rng = random.Random(3)
    ring = Zmod(3, 1)
    curve = ProjectiveLine(ring)
    g = random_split_transition(rng, ring, (2, 0, -1))
    E = Bundle(curve, 3, g)
    back = bundle_from_json(bundle_to_json(E))
    assert back.transition == E.transition
    assert back.splitting_type() == E.splitting_type()


def test_bundle_rejects_non_unit_transition():
    ring = Zmod(3, 1)
    doc = bundle_to_json(Bundle.free(ProjectiveLine(ring), 1))
    doc["transition"] = [[[[0, 1], [1, 1]]]]
    with pytest.raises(SchemaError) as err:
        bundle_from_json(doc)
    assert err.value.path == "/transition"
    assert err.value.message == "transition determinant is not a unit"


def test_bundle_affine_rejects_transition():
    ring = Zmod(3, 1)
    doc = bundle_to_json(Bundle.free(AffineLine(ring), 1))
    doc["transition"] = [[[[0, 1]]]]
    with pytest.raises(SchemaError):
        bundle_from_json(doc)


def test_higgs_roundtrip_and_chart_rule_rejection():
    params = CorpusParams(p=3, rank=3, weight=1, count=1, seed=5)
    H = generate(params)[0].total()
    doc = higgs_to_json(H)
    back = higgs_from_json(doc)
    assert back.theta == H.theta
    assert back.bundle.transition == H.bundle.transition
    broken = json.loads(canonical_bytes(doc))
    broken["theta"][1][0][0] = [[0, 1]]
    with pytest.raises(SchemaError) as err:
        higgs_from_json(broken)
    assert err.value.path == "/theta"


def test_flat_roundtrip():
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=9)
    flat = inverse_cartier_1(generate(params)[0].total())
    back = flat_from_json(flat_to_json(flat))
    assert back.A == flat.A
    assert back.bundle.transition == flat.bundle.transition


def test_lifting_roundtrip_tagged():
    ring = Zmod(3, 2)
    curve = ProjectiveLine(ring)
    l = FrobeniusLifting(
        curve,
        (
            LaurentPoly(ring, {1: 2, 2: 1}),
            LaurentPoly(ring, {0: 1}),
        ),
    )
    doc = lifting_to_json(l)
    assert doc["type"] == "frobenius_lifting"
    assert (doc["curve"], doc["p"], doc["m"]) == ("P1", 3, 2)
    back = lifting_from_json(doc)
    assert back.h == l.h
    assert back.curve == curve


def test_lifting_rejects_repeated_and_missing_charts():
    doc = {"schema": SCHEMA, "type": "frobenius_lifting", "curve": "P1", "p": 3, "m": 2}
    twice = dict(doc, liftings=[{"chart": 0, "h": [[1, 2]]}, {"chart": 0, "h": [[2, 1]]}])
    with pytest.raises(SchemaError) as err:
        lifting_from_json(twice)
    assert err.value.path == "/liftings/1/chart"
    with pytest.raises(SchemaError) as err:
        lifting_from_json(dict(doc, liftings=[]))
    assert err.value.path == "/liftings"


# -- graded objects and filtrations ------------------------------------------


def test_graded_roundtrip_all_params():
    for seed, (p, rank, weight) in enumerate(
        [(3, 2, 1), (5, 4, 2), (7, 4, 3), (3, 4, 1)]
    ):
        params = CorpusParams(p=p, rank=rank, weight=weight, count=2, seed=seed)
        for G in generate(params):
            back = graded_from_json(graded_to_json(G))
            assert back == G
            assert (
                canonical_bytes(graded_to_json(back))
                == canonical_bytes(graded_to_json(G))
            )


def test_graded_roundtrip_over_extension_field():
    G = generate(CorpusParams(p=3, rank=3, weight=1, count=1, seed=0))[0]
    assert "f" not in graded_to_json(G)
    K = GF(3, 2)
    lifted = extend_graded(G, K)
    # the maps times the generator x have coefficients off the prime field
    maps = tuple(tuple(M.scale_const(K.gen) for M in per) for per in lifted.maps)
    GK = GradedHiggsBundle(lifted.pieces, maps)
    doc = graded_to_json(GK)
    assert (doc["p"], doc["m"], doc["f"]) == (3, 1, 2)
    assert doc["maps"][0][0][0][0][0] == [0, [0, 1]]
    back = graded_from_json(doc)
    assert back.domain == K
    assert back == GK
    assert canonical_bytes(graded_to_json(back)) == canonical_bytes(doc)
    for bad in (1, [1], [1, 3], [1, True], "1"):
        mutated = json.loads(json.dumps(doc))
        mutated["maps"][0][0][0][0][0][1] = bad
        with pytest.raises(SchemaError, match="2 least nonnegative residues mod 3") as err:
            graded_from_json(mutated)
        assert err.value.path == "/maps/0/0/0/0/0"


@pytest.mark.parametrize(
    "key, value, where",
    [("f", 0, "/f"), ("f", 11, "/f"), ("f", "2", "/f"), ("m", 2, "/m"), ("p", 9, "/p")],
)
def test_graded_rejects_a_bad_extension_field(key, value, where):
    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=2))[0]
    doc = graded_to_json(extend_graded(G, GF(3, 2)))
    doc[key] = value
    with pytest.raises(SchemaError) as err:
        graded_from_json(doc)
    assert err.value.path == where


def test_graded_rejects_map_count_mismatch():
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=5)
    doc = graded_to_json(generate(params)[0])
    doc["maps"] = []
    with pytest.raises(SchemaError) as err:
        graded_from_json(doc)
    assert err.value.path == "/maps"


def test_graded_rejects_empty_pieces():
    with pytest.raises(SchemaError):
        graded_from_json(
            {
                "schema": SCHEMA,
                "type": "graded_higgs",
                "curve": "A1",
                "p": 3,
                "m": 1,
                "pieces": [],
                "maps": [],
            }
        )


def test_filtration_roundtrip_on_transform():
    ring = Zmod(3, 1)
    curve = ProjectiveLine(ring)
    G = GradedHiggsBundle([Bundle.free(curve, 2)], ())
    flat = inverse_cartier_1(G.total())
    fil, _ = simpson_filtration(flat)
    doc = filtration_to_json(fil)
    back = filtration_from_json(flat.bundle, doc)
    assert filtrations_equal(back, fil)


def test_filtration_rejects_wrong_ambient_rank():
    ring = Zmod(3, 1)
    E = Bundle.free(AffineLine(ring), 2)
    doc = {
        "schema": SCHEMA,
        "type": "filtration",
        "steps": [[[[[0, 1]]], [[[0, 1]]], [[]]]],
    }
    with pytest.raises(SchemaError) as err:
        filtration_from_json(E, doc)
    assert err.value.path == "/steps/0"


# -- witt tuples -------------------------------------------------------------


def test_witt_tuple_roundtrip_both_levels():
    rng = random.Random(21)
    for p, n, ranks in [(3, 1, (1, 1)), (3, 2, (1, 2)), (5, 2, (1, 1, 1))]:
        tup = random_witt_tuple(rng, p, n, ranks)
        doc = witt_tuple_to_json(tup)
        back = witt_tuple_from_json(doc)
        assert back.theta == tup.theta
        assert back.abar == tup.abar
        assert back.psibar == tup.psibar
        assert (
            canonical_bytes(witt_tuple_to_json(back)) == canonical_bytes(doc)
        )


def test_witt_tuple_rejects_level_mismatches():
    rng = random.Random(22)
    tup = random_witt_tuple(rng, 3, 2, (1, 1))
    doc = witt_tuple_to_json(tup)
    bad = json.loads(canonical_bytes(doc))
    bad["down_m"] = 2
    with pytest.raises(SchemaError) as err:
        witt_tuple_from_json(bad)
    assert err.value.path == "/down_m"
    level1 = witt_tuple_to_json(random_witt_tuple(rng, 3, 1, (1, 1)))
    level1["abar"] = doc["abar"]
    with pytest.raises(SchemaError) as err:
        witt_tuple_from_json(level1)
    assert err.value.path == "/abar"


def test_witt_tuple_roundtrip_keeps_the_frobenius_frame():
    rng = random.Random(24)
    for p, n, ranks in [(5, 2, (2, 2)), (5, 3, (1, 2, 1))]:
        tup = random_witt_tuple(rng, p, n, ranks)
        down = tup.down_ring
        # a random unipotent frame that respects the flag
        frame = RingMatrix.identity(down, tup.rank)
        for i in range(ranks[0], tup.rank):
            for j in range(i):
                frame.rows[i][j] = random_laurent(rng, down, -1, 1)
        framed = LiftingInputTuple(
            tup.ring, tup.ranks, tup.theta, tup.abar, tup.psibar, frame
        )
        doc = witt_tuple_to_json(framed)
        assert "frob_frame" not in witt_tuple_to_json(tup)
        back = witt_tuple_from_json(json.loads(canonical_bytes(doc)))
        assert back == framed
        assert back.frob_frame == frame
        assert canonical_bytes(witt_tuple_to_json(back)) == canonical_bytes(doc)


def test_witt_tuple_rejects_a_frobenius_frame_at_level_one():
    rng = random.Random(25)
    level1 = witt_tuple_to_json(random_witt_tuple(rng, 3, 1, (1, 1)))
    level1["frob_frame"] = [[[[0, 1]], []], [[], [[0, 1]]]]
    with pytest.raises(SchemaError) as err:
        witt_tuple_from_json(level1)
    assert err.value.path == "/frob_frame"


def test_witt_tuple_rejects_incompatible_frames():
    rng = random.Random(23)
    tup = random_witt_tuple(rng, 3, 2, (1, 1))
    doc = json.loads(canonical_bytes(witt_tuple_to_json(tup)))
    doc["psibar"][1] = [[[[1, 1]]]]
    with pytest.raises(SchemaError):
        witt_tuple_from_json(doc)


# -- reports and files -------------------------------------------------------


def test_error_object_shape():
    doc = error_object("contract", "missing field", "/maps/0")
    assert doc["schema"] == SCHEMA
    assert doc["type"] == "error"
    assert doc["location"] == "/maps/0"


def test_run_manifest_shape_and_determinism():
    doc = run_manifest(
        ["check"],
        sha256_hex(b"payload"),
        {"p": 3, "seed": 0},
        ["out.json"],
        [("a", True, None), ("b", False, {"trial": 1})],
    )
    assert doc["checks"][1] == {
        "name": "b",
        "passed": False,
        "counterexample": {"trial": 1},
    }
    again = run_manifest(
        ["check"],
        sha256_hex(b"payload"),
        {"p": 3, "seed": 0},
        ["out.json"],
        [("a", True, None), ("b", False, {"trial": 1})],
    )
    assert canonical_bytes(doc) == canonical_bytes(again)


def test_write_atomic_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "doc.json"
    write_atomic(str(target), b"first\n")
    write_atomic(str(target), b"second\n")
    assert target.read_bytes() == b"second\n"
    assert os.listdir(tmp_path) == ["doc.json"]
