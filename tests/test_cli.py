"""Tests for the command line: exit-code contract, located error objects,
spec'd example behaviors, byte determinism, and the reparse property."""

import copy
import dataclasses
import json
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from hdflow import witt
from hdflow.cli import main
from hdflow.corpus import CorpusParams, generate, random_lifting, random_witt_tuple
from hdflow.cartier import inverse_cartier_1
from hdflow.bundles import Bundle, HiggsBundle
from hdflow.curves import ProjectiveLine
from hdflow.graded import GradedHiggsBundle
from hdflow.ringmath import LaurentPoly, RingMatrix, Zmod
from hdflow.serialize import (
    canonical_bytes,
    flat_from_json,
    flat_to_json,
    graded_from_json,
    graded_to_json,
    higgs_to_json,
    lifting_to_json,
    parse_bytes,
    witt_tuple_to_json,
)

from oracles import const_matrix, nilpotency_index
from test_graded import _unipotent_trivial
from test_witt import framed_unit_tuple, one_periodic_unit_tuple


runner = CliRunner()


def invoke(args, **kwargs):
    return runner.invoke(main, args, **kwargs)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(canonical_bytes(doc))
    return str(path)


def trivial_graded_doc(p=3, rank=2):
    ring = Zmod(p, 1)
    curve = ProjectiveLine(ring)
    return graded_to_json(GradedHiggsBundle([Bundle.free(curve, rank)], ()))


def line_graded_doc(p=3, a=1):
    ring = Zmod(p, 1)
    curve = ProjectiveLine(ring)
    return graded_to_json(GradedHiggsBundle([Bundle.sum_of_lines(curve, (a,))], ()))


# -- flow run ----------------------------------------------------------------


def test_flow_run_trivial_constant_trace(tmp_path):
    path = write_doc(tmp_path, "triv.json", trivial_graded_doc())
    result = invoke(["flow", "run", "--input", path, "--steps", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["type"] == "flow_trace"
    assert [s["degree"] for s in doc["stages"]] == [0, 0, 0]
    assert doc["period"] == {"preperiod": 0, "period": 1}
    for stage in doc["stages"][:-1]:
        assert stage["certificates"]["degree_scaling"]
        assert stage["certificates"]["p_curvature_pullback"]
    assert doc["stages"][-1]["certificates"] is None


def test_flow_run_degree_one_grows_without_period(tmp_path):
    path = write_doc(tmp_path, "line.json", line_graded_doc(p=3, a=1))
    result = invoke(["flow", "run", "--input", path, "--steps", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [s["degree"] for s in doc["stages"]] == [1, 3, 9]
    assert doc["period"] is None


def test_flow_run_malformed_json_located(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    result = invoke(["flow", "run", "--input", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert err["type"] == "error"
    assert err["code"] == "contract"
    assert err["location"] == "/"


def test_flow_run_wrong_document_type(tmp_path):
    ring = Zmod(3, 1)
    H = HiggsBundle.zero(Bundle.free(ProjectiveLine(ring), 2))
    path = write_doc(tmp_path, "higgs.json", higgs_to_json(H))
    result = invoke(["flow", "run", "--input", path])
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "/type"


@pytest.mark.parametrize("p", [4, 9, 15])
def test_flow_run_composite_p_located(p, tmp_path):
    # Z/p^m with a composite p is no coefficient ring the library supports
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=4, curve="A1")
    doc = graded_to_json(generate(params)[0])
    doc["p"] = p
    path = write_doc(tmp_path, "composite.json", doc)
    result = invoke(["flow", "run", "--input", path, "--steps", "1"])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("contract", "/p")
    assert "prime" in err["message"]


@pytest.mark.parametrize("key, value", [("p", 10 ** 14 + 31), ("m", 10 ** 7), ("p", 65537)])
def test_flow_run_oversized_ring_located(key, value, tmp_path):
    # a prime p past MAX_FIELD_SIZE is refused before its trial division,
    # and an m with p^m past MAX_MODULUS before p ** m is computed
    params = CorpusParams(p=3, rank=2, weight=1, count=1, seed=4, curve="A1")
    doc = graded_to_json(generate(params)[0])
    doc[key] = value
    path = write_doc(tmp_path, "oversized.json", doc)
    start = time.process_time()
    result = invoke(["flow", "run", "--input", path, "--steps", "1"])
    assert time.process_time() - start < 0.1
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("contract", "/" + key)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flow_run_unipotent_trivial_rank_four(p, tmp_path):
    # O^4 written with t on the superdiagonal of its transition: its first
    # step is O^4 in the standard frame, so the period search must find an
    # isomorphism in End(O^4) = M_4(F_p)
    path = write_doc(tmp_path, "unipotent.json", graded_to_json(_unipotent_trivial(p)))
    start = time.process_time()
    result = invoke(["flow", "run", "--input", path, "--steps", "1"])
    assert time.process_time() - start < 1.0
    assert result.exit_code == 0
    assert json.loads(result.output)["period"] == {"period": 1, "preperiod": 0}


def test_flow_run_missing_field_located(tmp_path):
    doc = trivial_graded_doc()
    del doc["pieces"]
    path = write_doc(tmp_path, "broken.json", doc)
    result = invoke(["flow", "run", "--input", path])
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "/pieces"


@pytest.mark.parametrize("curve", ["A1", "P1"])
def test_flow_run_rejects_a_connecting_map_with_a_pole(curve, tmp_path):
    # t^-1 from O(0) to O(1) (x) forms reads -1 on chart 1 of P^1, so the
    # pole on chart 0 is the document's only fault
    ring = Zmod(3, 1)
    t_inv = RingMatrix(ring, [[LaurentPoly.var(ring, -1)]])
    if curve == "A1":
        from hdflow.curves import AffineLine

        line = AffineLine(ring)
        pieces, maps = [Bundle.free(line, 1)] * 2, ((t_inv,),)
    else:
        line = ProjectiveLine(ring)
        minus_one = const_matrix(ring, [[2]])
        pieces = [Bundle.sum_of_lines(line, (1,)), Bundle.sum_of_lines(line, (0,))]
        maps = ((t_inv, minus_one),)
    G = GradedHiggsBundle(pieces, maps)
    path = write_doc(tmp_path, "pole.json", graded_to_json(G))
    result = invoke(["flow", "run", "--input", path])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("contract", "/maps")


def test_flow_run_supplied_policy_needs_filtrations(tmp_path):
    path = write_doc(tmp_path, "triv.json", trivial_graded_doc())
    result = invoke(
        ["flow", "run", "--input", path, "--policy", "supplied"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "/filtrations"


def test_flow_run_supplied_trivial_filtration(tmp_path):
    doc = {
        "schema": "hdf/1",
        "type": "flow_input",
        "graded": trivial_graded_doc(),
        "filtrations": [{"steps": []}],
    }
    path = write_doc(tmp_path, "supplied.json", doc)
    result = invoke(
        ["flow", "run", "--input", path, "--policy", "supplied", "--steps", "1"]
    )
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert [s["degree"] for s in out["stages"]] == [0, 0]


def test_flow_run_rejects_a_step_span_of_the_wrong_rank(tmp_path):
    # three rows for a rank-2 object: a malformed document, located at the
    # step as filtration_from_json locates it
    doc = {
        "schema": "hdf/1",
        "type": "flow_input",
        "graded": trivial_graded_doc(),
        "filtrations": [{"steps": [[[[[0, 1]]], [[]], [[]]]]}],
    }
    path = write_doc(tmp_path, "supplied.json", doc)
    result = invoke(
        ["flow", "run", "--input", path, "--policy", "supplied", "--steps", "1"]
    )
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("contract", "/filtrations/0/steps/0")
    assert err["message"] == "step spans live in a rank-2 bundle"


def test_flow_run_writes_artifact_and_manifest(tmp_path):
    path = write_doc(tmp_path, "triv.json", trivial_graded_doc())
    out = str(tmp_path / "trace.json")
    result = invoke(["flow", "run", "--input", path, "--out", out])
    assert result.exit_code == 0
    assert result.output == ""
    trace = json.loads(Path(out).read_text())
    assert trace["type"] == "flow_trace"
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["command"] == ["flow", "run"]
    assert manifest["parameters"]["p"] == 3
    assert manifest["parameters"]["policy"] == "canonical"
    assert manifest["outputs"] == [out]
    assert all(c["passed"] for c in manifest["checks"])
    first = Path(out).read_bytes(), Path(out + ".manifest.json").read_bytes()
    invoke(["flow", "run", "--input", path, "--out", out])
    second = Path(out).read_bytes(), Path(out + ".manifest.json").read_bytes()
    assert first == second


def test_flow_run_bad_flags(tmp_path):
    path = write_doc(tmp_path, "triv.json", trivial_graded_doc())
    assert invoke(["flow", "run", "--input", path, "--steps", "0"]).exit_code == 2
    assert (
        invoke(
            ["flow", "run", "--input", path, "--policy", "sideways"]
        ).exit_code
        == 2
    )
    assert invoke(["flow", "run", "--input", str(tmp_path / "no.json")]).exit_code == 2


def test_flow_run_budget_reaches_the_one_period_search(tmp_path, monkeypatch):
    from hdflow import flow

    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=4, curve="A1"))[0]
    path = write_doc(tmp_path, "a1.json", graded_to_json(G))
    budgets = []
    real = flow.detect_period

    def spy(terms, f_search=1, budget=flow.DEFAULT_ISO_BUDGET):
        budgets.append(budget)
        return real(terms, f_search, budget)

    monkeypatch.setattr(flow, "detect_period", spy)
    result = invoke(["flow", "run", "--input", path, "--steps", "2", "--budget", "1"])
    assert result.exit_code == 0, result.output
    assert budgets == [1]


def test_flow_run_budget_error_reports_stage_tried_and_kernel(tmp_path):
    # End(O^2) at p = 7 has four singular generators, so the period search
    # spends a budget of 4 in its kernel stage
    doc = graded_to_json(_unipotent_trivial(7, rank=2))
    path = write_doc(tmp_path, "unipotent.json", doc)
    result = invoke(["flow", "run", "--input", path, "--steps", "1", "--budget", "4"])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("invariant", "/")
    assert err["message"].startswith("SearchBudgetExceeded: ")
    assert err["bounds"] == {"stage": "kernel", "tried": 4, "kernel": 4}
    assert "part" not in err


def test_witt_flow_step_certificate_error_reports_its_part(tmp_path):
    # a stored frame that does not carry the canonical matrix to the de
    # Rham side fails the frame certificate
    tup = framed_unit_tuple()
    tup = dataclasses.replace(tup, frob_frame=const_matrix(tup.down_ring, [[1, 0], [0, 1]]))
    path = write_doc(tmp_path, "framed.json", witt_tuple_to_json(tup))
    result = invoke(["witt", "flow-step", "--input", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["message"].startswith("CertificateFailed: ")
    assert err["part"] == "frame" and "bounds" not in err


# -- cartier apply -----------------------------------------------------------


def test_cartier_apply_validates_transform(tmp_path):
    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=4))[0]
    path = write_doc(tmp_path, "h.json", higgs_to_json(G.total()))
    result = invoke(["cartier", "apply", "--input", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["type"] == "cartier_output"
    assert doc["validation"]["degree_scaling"] is True
    assert doc["validation"]["p_curvature_pullback"] is True
    assert doc["validation"]["degree"] == 3 * G.degree()
    assert flat_from_json(doc["flat"]).bundle.rank == 2


def test_cartier_apply_with_explicit_lifting(tmp_path):
    from hdflow.corpus import random_lifting
    from hdflow.serialize import lifting_to_json

    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=6))[0]
    H = G.total()
    lifting = random_lifting(random.Random(2), H.bundle.curve)
    doc = {
        "schema": "hdf/1",
        "type": "cartier_input",
        "higgs": higgs_to_json(H),
        "lifting": lifting_to_json(lifting),
    }
    path = write_doc(tmp_path, "ci.json", doc)
    result = invoke(["cartier", "apply", "--input", path])
    assert result.exit_code == 0
    assert json.loads(result.output)["validation"]["p_curvature_pullback"]


def test_cartier_apply_rejects_a_lifting_with_a_pole(tmp_path):
    from hdflow.serialize import lifting_to_json
    from hdflow.curves import FrobeniusLifting

    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=6))[0]
    H = G.total()
    lifting = lifting_to_json(FrobeniusLifting.standard(H.bundle.curve))
    lifting["liftings"][1]["h"] = [[-1, 1]]
    doc = {
        "schema": "hdf/1",
        "type": "cartier_input",
        "higgs": higgs_to_json(H),
        "lifting": lifting,
    }
    path = write_doc(tmp_path, "ci.json", doc)
    result = invoke(["cartier", "apply", "--input", path])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("contract", "/lifting/liftings")


def test_cartier_apply_rejects_non_nilpotent(tmp_path):
    from hdflow.curves import AffineLine

    ring = Zmod(3, 1)
    E = Bundle.free(AffineLine(ring), 1)
    H = HiggsBundle(E, (RingMatrix(ring, [[LaurentPoly.one(ring)]]),))
    path = write_doc(tmp_path, "nn.json", higgs_to_json(H))
    result = invoke(["cartier", "apply", "--input", path])
    assert result.exit_code == 1
    assert json.loads(result.output)["code"] == "invariant"


@pytest.mark.parametrize("m", [2, 3, 7])
def test_cartier_apply_rejects_a_modulus_above_p(tmp_path, m):
    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=6))[0]
    doc = higgs_to_json(G.total())
    doc["m"] = m
    path = write_doc(tmp_path, "h.json", doc)
    result = invoke(["cartier", "apply", "--input", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert (err["code"], err["location"]) == ("invariant", "/")
    assert err["message"].startswith("WrongModulus: ")


# -- filtration compute ------------------------------------------------------


def test_filtration_compute_semistable(tmp_path):
    ring = Zmod(3, 1)
    G = GradedHiggsBundle([Bundle.free(ProjectiveLine(ring), 2)], ())
    flat = inverse_cartier_1(G.total())
    path = write_doc(tmp_path, "flat.json", flat_to_json(flat))
    result = invoke(["filtration", "compute", "--input", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certificates"] == {
        "filtration_transversal": True,
        "gr_semistable": True,
    }
    assert doc["log"] == []


def test_filtration_compute_refuses_unstable(tmp_path):
    ring = Zmod(3, 1)
    H = HiggsBundle.zero(Bundle.sum_of_lines(ProjectiveLine(ring), (0, 1)))
    flat = inverse_cartier_1(H)
    assert flat.bundle.splitting_type() == [3, 0]
    path = write_doc(tmp_path, "unstable.json", flat_to_json(flat))
    result = invoke(["filtration", "compute", "--input", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["code"] == "invariant"
    assert "NotNablaSemistable" in err["message"]


def test_filtration_compute_ignores_the_search_budget(tmp_path):
    # a bundle the descent accepts is already semistable in its trivial
    # grading, so the descent never searches and records no budget
    ring = Zmod(3, 1)
    G = GradedHiggsBundle([Bundle.free(ProjectiveLine(ring), 2)], ())
    flat = inverse_cartier_1(G.total())
    path = write_doc(tmp_path, "flat.json", flat_to_json(flat))
    out = str(tmp_path / "fil.json")
    result = invoke(["filtration", "compute", "--input", path, "--out", out])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["parameters"]["budget"] is None


# -- witt subcommands --------------------------------------------------------


def test_witt_lift_agrees_across_constructions(tmp_path):
    tup = random_witt_tuple(random.Random(31), 3, 2, (1, 1))
    path = write_doc(tmp_path, "tup.json", witt_tuple_to_json(tup))
    result = invoke(["witt", "lift", "--input", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["type"] == "witt_lift_output"
    assert doc["certificates"]["carry_construction_agrees"] is True
    assert doc["m"] == 2 and doc["p"] == 3
    assert doc["adapted"] is not None


def test_witt_lift_modulus_flag_mismatch(tmp_path):
    tup = random_witt_tuple(random.Random(32), 3, 2, (1, 1))
    path = write_doc(tmp_path, "tup.json", witt_tuple_to_json(tup))
    result = invoke(
        ["witt", "lift", "--input", path, "--modulus-power", "3"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "/m"


def test_witt_flow_step_one_periodic_example(tmp_path):
    ring = Zmod(3, 2)
    tup = one_periodic_unit_tuple(ring)
    path = write_doc(tmp_path, "unit.json", witt_tuple_to_json(tup))
    result = invoke(["witt", "flow-step", "--input", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["periodic"] is True
    assert doc["certificates"]["baseline"] == "canonical"
    assert doc["certificates"]["psi_grade0_identity"] is True
    assert doc["theta_next"] == [[[[[2, 1]]]]]
    assert doc["psi"] == [[[[[0, 1]]]], [[[[2, 1]]]]]


def test_witt_flow_step_reads_the_frobenius_frame(tmp_path):
    tup = framed_unit_tuple()
    path = write_doc(tmp_path, "framed.json", witt_tuple_to_json(tup))
    result = invoke(["witt", "flow-step", "--input", path])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certificates"]["baseline"] == "framed"
    assert doc["periodic"] is True


def test_witt_flow_step_exits_0_whatever_its_checks_say(tmp_path):
    # the step reports its certificates; a failed one does not fail the run
    tup = random_witt_tuple(random.Random(1), 3, 2, (1, 1))
    path = write_doc(tmp_path, "tup.json", witt_tuple_to_json(tup))
    out = str(tmp_path / "step.json")
    result = invoke(["witt", "flow-step", "--input", path, "--out", out])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    checks = {c["name"]: c["passed"] for c in manifest["checks"]}
    assert checks["psi_residual"] is False


def test_witt_flow_step_needs_level_two(tmp_path):
    tup = random_witt_tuple(random.Random(33), 3, 1, (1, 1))
    path = write_doc(tmp_path, "tup1.json", witt_tuple_to_json(tup))
    result = invoke(["witt", "flow-step", "--input", path])
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "/m"


@pytest.mark.parametrize("command", [["cartier", "apply"], ["witt", "lift"]])
def test_unreadable_input_is_a_contract_error(command, tmp_path):
    result = invoke(command + ["--input", str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert err["code"] == "contract"
    assert err["location"] == "args/input"


# -- check -------------------------------------------------------------------


def test_check_suites_pass():
    for suite, extra in (
        ("cocycle", []),
        ("gamma-relations", []),
        # p = 5 draws a weight-3 shape, whose operator is nonzero mod 25
        ("gamma-relations", ["--p", "5"]),
        ("p-curvature", []),
        ("degree-scaling", []),
        ("ov-sign", []),
    ):
        result = invoke(["check", "--suite", suite, "--seed", "3"] + extra)
        assert result.exit_code == 0, (suite, result.output)
        doc = json.loads(result.output)
        assert doc["counts"]["failed"] == 0
        assert doc["counts"]["passed"] == len(doc["checks"])
        assert doc["suite"] == suite


@pytest.mark.parametrize("power", ["2", "3"])
def test_check_gamma_relations_p7_compares_nonzero_outputs(power, monkeypatch):
    # a p = 7 operator is nonzero mod p^n only on grades >= 7 - n, so the
    # suite is live only if it draws the weight-5 shape; every divided
    # operator output, shared chain or not, is a pay-back
    outputs = []
    real = witt._pay_back

    def spy(*args):
        out = real(*args)
        outputs.append(out)
        return out

    monkeypatch.setattr(witt, "_pay_back", spy)
    result = invoke(
        ["check", "--suite", "gamma-relations", "--p", "7", "--modulus-power", power]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["counts"]["failed"] == 0
    assert any(not out.is_zero() for out in outputs)


def test_check_unknown_suite():
    result = invoke(["check", "--suite", "nonsense"])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert err["location"] == "args/suite"
    assert "cocycle" in err["message"]


def test_check_rejects_unsupported_prime():
    result = invoke(["check", "--suite", "cocycle", "--p", "4"])
    assert result.exit_code == 2
    assert json.loads(result.output)["location"] == "args/p"


@pytest.mark.parametrize("power", ["-1", "0"])
def test_check_rejects_a_modulus_power_below_one(power, tmp_path):
    out = tmp_path / "check.json"
    result = invoke(
        [
            "check", "--suite", "gamma-relations",
            "--modulus-power", power, "--out", str(out),
        ]
    )
    assert result.exit_code == 2, result.output
    err = json.loads(result.output)
    assert err["code"] == "contract"
    assert err["location"] == "args/modulus-power"
    assert not out.exists()


def test_check_deterministic_given_seed():
    a = invoke(["check", "--suite", "gamma-relations", "--seed", "12"])
    b = invoke(["check", "--suite", "gamma-relations", "--seed", "12"])
    assert a.output == b.output
    c = invoke(["check", "--suite", "gamma-relations", "--seed", "13"])
    assert c.exit_code == 0
    assert a.output != c.output


def test_check_prime_restriction_applies():
    result = invoke(["check", "--suite", "p-curvature", "--seed", "1", "--p", "5"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["counts"]["failed"] == 0


def test_check_ignores_the_search_budget(tmp_path):
    # no suite searches, so the manifest records no budget
    out = str(tmp_path / "check.json")
    result = invoke(["check", "--suite", "p-curvature", "--out", out])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["parameters"]["budget"] is None


# -- gen-corpus --------------------------------------------------------------


def test_gen_corpus_example_parameters():
    result = invoke(
        [
            "gen-corpus",
            "--p", "3", "--rank", "2", "--weight", "1",
            "--count", "10", "--seed", "7",
        ]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["type"] == "corpus"
    assert len(doc["instances"]) == 10
    for inst in doc["instances"]:
        G = graded_from_json(inst)
        G.validate()
        assert G.rank == 2


def test_gen_corpus_rank4_nilpotency():
    result = invoke(
        [
            "gen-corpus",
            "--p", "5", "--rank", "4", "--weight", "3",
            "--count", "5", "--seed", "1",
        ]
    )
    assert result.exit_code == 0
    for inst in json.loads(result.output)["instances"]:
        H = graded_from_json(inst).total()
        assert nilpotency_index(H) <= 4


def test_gen_corpus_rejects_excess_weight():
    result = invoke(
        ["gen-corpus", "--p", "3", "--rank", "3", "--weight", "2"]
    )
    assert result.exit_code == 2
    assert json.loads(result.output)["code"] == "contract"


def test_gen_corpus_deterministic():
    args = [
        "gen-corpus",
        "--p", "7", "--rank", "3", "--weight", "2",
        "--count", "4", "--seed", "21",
    ]
    assert invoke(args).output == invoke(args).output


# -- the reparse property ----------------------------------------------------


def test_emitted_documents_reparse(tmp_path):
    """Every emitted document parses back and passes its type's loader."""
    outputs = []
    path = write_doc(tmp_path, "triv.json", trivial_graded_doc())
    outputs.append(invoke(["flow", "run", "--input", path]).output)
    G = generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=4))[0]
    hp = write_doc(tmp_path, "h.json", higgs_to_json(G.total()))
    outputs.append(invoke(["cartier", "apply", "--input", hp]).output)
    outputs.append(invoke(["check", "--suite", "cocycle", "--seed", "1"]).output)
    outputs.append(
        invoke(
            ["gen-corpus", "--p", "3", "--rank", "2", "--weight", "1",
             "--count", "2", "--seed", "3"]
        ).output
    )
    for text in outputs:
        doc = parse_bytes(text.encode())
        assert doc["schema"] == "hdf/1"
        if doc["type"] == "flow_trace":
            for stage in doc["stages"]:
                G2 = graded_from_json(stage["higgs"])
                G2.validate()
                if stage["transform"] is not None:
                    flat_from_json(stage["transform"])
        elif doc["type"] == "cartier_output":
            flat_from_json(doc["flat"])
        elif doc["type"] == "corpus":
            for inst in doc["instances"]:
                graded_from_json(inst).validate()


# -- mutated documents -------------------------------------------------------

# Values of the wrong type or out of range for most fields of a document.
WRONG_VALUES = (None, True, 0, -1, 7, 1.5, "x", [], {}, [[-1, 1]], [[0, 1]], [[1, 2]])
DELETED = object()
MUTANTS_PER_INPUT = 200


def _mutants(doc):
    """(path, value) for each dict field and each of the first two items of
    each list in doc, paired with DELETED and with every wrong value."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            slots = list(node)
        elif isinstance(node, list):
            slots = range(min(2, len(node)))
        else:
            return
        for key in slots:
            out.extend((path + (key,), value) for value in (DELETED,) + WRONG_VALUES)
            walk(node[key], path + (key,))

    walk(doc, ())
    return out


def _mutate(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def _sweep_inputs():
    """One valid document per command, two for flow run: one it steps and
    one it refuses."""
    graded = [
        generate(CorpusParams(p=3, rank=2, weight=1, count=1, seed=4, curve=curve))[0]
        for curve in ("A1", "P1")
    ]
    H = graded[1].total()
    cartier_input = {
        "schema": "hdf/1",
        "type": "cartier_input",
        "higgs": higgs_to_json(H),
        "lifting": lifting_to_json(random_lifting(random.Random(2), H.bundle.curve)),
    }
    tup = random_witt_tuple(random.Random(31), 3, 2, (1, 1))
    return [
        (["flow", "run"], graded_to_json(graded[0])),
        (["flow", "run"], graded_to_json(graded[1])),
        (["cartier", "apply"], cartier_input),
        (["filtration", "compute"], flat_to_json(inverse_cartier_1(H))),
        (["witt", "lift"], witt_tuple_to_json(tup)),
        (["witt", "flow-step"], witt_tuple_to_json(one_periodic_unit_tuple(Zmod(3, 2)))),
    ]


def test_mutated_documents_end_in_an_exit_code_not_a_traceback(tmp_path):
    """Fields deleted or replaced by wrong values, a seeded sample per
    command: every run exits 0, 1 or 2 without an uncaught exception, and a
    failing run prints an error object."""
    rng = random.Random(0)
    path = tmp_path / "mutant.json"
    for command, doc in _sweep_inputs():
        mutants = _mutants(doc)
        for where, value in rng.sample(mutants, MUTANTS_PER_INPUT):
            path.write_bytes(canonical_bytes(_mutate(doc, where, value)))
            result = invoke(command + ["--input", str(path)])
            case = (command, where, "deleted" if value is DELETED else value)
            assert result.exception is None or isinstance(
                result.exception, SystemExit
            ), case
            assert result.exit_code in (0, 1, 2), case
            if result.exit_code:
                assert json.loads(result.output)["type"] == "error", case
