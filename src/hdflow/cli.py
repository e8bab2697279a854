"""Command-line front end.

Every subcommand reads canonical JSON, writes canonical JSON, and keeps
the determinism contract: identical (command, input, seed) always
produce identical output bytes.  Exit codes are 0 when every asserted
invariant holds, 1 when a mathematical invariant fails on well-formed
input, and 2 for malformed documents or unusable flags; contract
failures are reported as machine-readable error objects carrying a
location path.  Only `flow run` searches, so only it takes --budget.
"""

import functools
import random

import click

from . import corpus, serialize
from .cartier import (
    inverse_cartier_1,
    lifting_change_transport,
    ov_sign_check,
    p_curvature,
    p_curvature_prediction,
)
from .curves import CURVES, ProjectiveLine
from .errors import HdflowError
from .filtration import _simpson, is_higgs_semistable
from .flow import FlowPolicy, run_flow
from .graded import DEFAULT_ISO_BUDGET, is_transversal
from .serialize import (
    SchemaError,
    canonical_bytes,
    cartier_input_from_json,
    error_object,
    filtration_to_json,
    flat_from_json,
    flow_input_from_json,
    flow_trace_to_json,
    graded_to_json,
    matrix_to_json,
    parse_bytes,
    run_manifest,
    sha256_hex,
    witt_tuple_from_json,
    write_atomic,
)
from .witt import (
    adapted_dr_matrix,
    filtration_steps_from_flag,
    gamma_relations_check,
    gn_construct,
    sharp_construct,
    w2_flow_step,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONTRACT = 2


# ---------------------------------------------------------------------------
# shared plumbing


def _print_doc(doc):
    click.echo(canonical_bytes(doc).decode("ascii"), nl=False)


def _fail(code, message, location, exit_code):
    _print_doc(error_object(code, message, location))
    raise SystemExit(exit_code)


def _read_doc(path, loader):
    """(input bytes, loader(parsed document)); an unreadable file or a
    malformed document exits 2 with a located error object."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        _fail("contract", "cannot read input: %s" % err, "args/input", EXIT_CONTRACT)
    try:
        return data, loader(parse_bytes(data))
    except SchemaError as err:
        _fail("contract", err.message, err.path, EXIT_CONTRACT)


def _base_params(**updates):
    """The manifest parameter block: every slot present, unused slots null."""
    params = {
        "p": None,
        "modulus_power": None,
        "field_degree": None,
        "steps": None,
        "policy": None,
        "seed": None,
        "budget": None,
    }
    params.update(updates)
    return params


def _checks(certificates):
    """Manifest checks of a certificate dict's boolean entries, by name."""
    return [
        (name, value, None)
        for name, value in sorted(certificates.items())
        if isinstance(value, bool)
    ]


def _emit(doc, out_path, command, input_bytes, parameters, checks, exit_code=None):
    """Write the artifact (stdout without --out, atomic file with it) and
    its manifest alongside the file, then exit with exit_code, by default
    0 when every check passed and 1 otherwise."""
    if out_path:
        write_atomic(out_path, canonical_bytes(doc))
        manifest = run_manifest(
            command,
            sha256_hex(input_bytes) if input_bytes is not None else None,
            parameters,
            [out_path],
            checks,
        )
        write_atomic(out_path + ".manifest.json", canonical_bytes(manifest))
    else:
        _print_doc(doc)
    if exit_code is None:
        exit_code = EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_INVARIANT
    raise SystemExit(exit_code)


def _guard(fn):
    """Map mathematical failures on well-formed input to exit code 1; the
    error object carries the failure's part and bounds when it has them."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HdflowError as err:
            doc = error_object("invariant", "%s: %s" % (type(err).__name__, err))
            for key in ("part", "bounds"):
                if getattr(err, key, None) is not None:
                    doc[key] = getattr(err, key)
            _print_doc(doc)
            raise SystemExit(EXIT_INVARIANT)

    return inner


# ---------------------------------------------------------------------------
# command group


@click.group()
def main():
    """Exact Higgs-de Rham flow computations on the line."""


@main.group()
def flow():
    """Run flows and inspect their traces."""


@main.group()
def cartier():
    """Characteristic-p inverse Cartier transform."""


@main.group()
def filtration():
    """Canonical filtration search."""


@main.group()
def witt():
    """Truncated-Witt lifting stage."""


# ---------------------------------------------------------------------------
# flow run


def _trace_certificates(trace, rule):
    """Per-step invariant recomputation, independent of the flow engine's
    own in-line certificates; graded_semistable reads the decision stored
    on each graded term."""
    p = trace.stages[0].higgs.domain.p
    certs = []
    for i, stage in enumerate(trace.stages):
        if stage.flat is None:
            certs.append(None)
            continue
        entry = {}
        try:
            stage.flat.validate()
            entry["transform_valid"] = True
        except (HdflowError, ValueError):
            entry["transform_valid"] = False
        entry["p_curvature_pullback"] = p_curvature(
            stage.flat
        ) == p_curvature_prediction(stage.higgs.total())
        entry["filtration_transversal"] = is_transversal(
            stage.flat, stage.filtration
        )
        if stage.higgs.curve.is_projective:
            entry["degree_scaling"] = (
                trace.stages[i + 1].degree == p * stage.degree
            )
        if rule == "canonical":
            entry["graded_semistable"] = is_higgs_semistable(
                trace.stages[i + 1].higgs
            )[0]
        certs.append(entry)
    return certs


@flow.command("run")
@click.option("--input", "input_path", required=True, help="graded Higgs JSON")
@click.option("--steps", type=int, default=1, show_default=True)
@click.option(
    "--policy",
    type=click.Choice(["canonical", "supplied"]),
    default="canonical",
    show_default=True,
)
@click.option("--field-degree", type=int, default=1, show_default=True)
@click.option("--budget", type=int, default=None)
@click.option("--out", "out_path", default=None)
@_guard
def flow_run(input_path, steps, policy, field_degree, budget, out_path):
    """Iterate the flow and emit the trace with per-step certificates."""
    if steps < 1:
        _fail("contract", "--steps must be positive", "args/steps", EXIT_CONTRACT)
    if field_degree < 1:
        _fail(
            "contract",
            "--field-degree must be positive",
            "args/field-degree",
            EXIT_CONTRACT,
        )
    if budget is not None and budget < 0:
        _fail("contract", "--budget must be non-negative", "args/budget", EXIT_CONTRACT)
    data, (G, fil_specs) = _read_doc(input_path, flow_input_from_json)
    f = getattr(G.domain, "f", 1)
    if f > 1 and field_degree not in (1, f):
        message = "--field-degree on an F_{p^%d} document must be 1 or %d" % (f, f)
        _fail("contract", message, "args/field-degree", EXIT_CONTRACT)
    if policy == "supplied" and len(fil_specs) < steps:
        _fail(
            "contract",
            "supplied policy needs one filtration per step (%d given, %d needed)"
            % (len(fil_specs), steps),
            "/filtrations",
            EXIT_CONTRACT,
        )
    policy_obj = FlowPolicy(
        rule=policy,
        max_steps=steps,
        field_degree=field_degree,
        filtrations=fil_specs,
    )
    trace = run_flow(G, policy_obj, DEFAULT_ISO_BUDGET if budget is None else budget)
    certs = _trace_certificates(trace, policy)
    doc = flow_trace_to_json(trace, certs)
    checks = []
    for i, entry in enumerate(certs):
        if entry is None:
            continue
        for name, passed in sorted(entry.items()):
            checks.append(
                (
                    "step-%d/%s" % (i, name),
                    passed,
                    None if passed else {"stage": i, "check": name},
                )
            )
    params = _base_params(
        p=G.domain.p,
        modulus_power=G.domain.m,
        field_degree=field_degree,
        steps=steps,
        policy=policy,
        budget=budget,
    )
    _emit(doc, out_path, ["flow", "run"], data, params, checks)


# ---------------------------------------------------------------------------
# cartier apply


@cartier.command("apply")
@click.option("--input", "input_path", required=True, help="Higgs bundle JSON")
@click.option("--out", "out_path", default=None)
@_guard
def cartier_apply(input_path, out_path):
    """Inverse transform of a nilpotent Higgs bundle, with validation."""
    data, (H, lifting) = _read_doc(input_path, cartier_input_from_json)
    flat = inverse_cartier_1(H, lifting=lifting)
    p = H.bundle.domain.p
    validation = {
        "degree": flat.bundle.degree(),
        "p_curvature_pullback": p_curvature(flat) == p_curvature_prediction(H),
    }
    if H.bundle.curve.is_projective:
        validation["degree_scaling"] = (
            flat.bundle.degree() == p * H.bundle.degree()
        )
    doc = {
        "schema": serialize.SCHEMA,
        "type": "cartier_output",
        "flat": serialize.flat_to_json(flat),
        "validation": validation,
    }
    params = _base_params(p=p, modulus_power=H.bundle.domain.m)
    _emit(doc, out_path, ["cartier", "apply"], data, params, _checks(validation))


# ---------------------------------------------------------------------------
# filtration compute


@filtration.command("compute")
@click.option("--input", "input_path", required=True, help="flat bundle JSON")
@click.option("--out", "out_path", default=None)
@_guard
def filtration_compute(input_path, out_path):
    """Simpson's filtration, certified trivial on the line, and its empty log."""
    data, flat = _read_doc(input_path, flat_from_json)
    fil, graded = _simpson(flat)
    certificates = {
        "gr_semistable": is_higgs_semistable(graded)[0],
        "filtration_transversal": is_transversal(flat, fil),
    }
    doc = {
        "schema": serialize.SCHEMA,
        "type": "filtration_output",
        "filtration": filtration_to_json(fil),
        "log": [],
        "certificates": certificates,
    }
    params = _base_params(p=flat.bundle.domain.p, modulus_power=flat.bundle.domain.m)
    _emit(doc, out_path, ["filtration", "compute"], data, params, _checks(certificates))


# ---------------------------------------------------------------------------
# witt lift / witt flow-step


@witt.command("lift")
@click.option("--input", "input_path", required=True, help="lifting tuple JSON")
@click.option("--modulus-power", type=int, default=None)
@click.option("--out", "out_path", default=None)
@_guard
def witt_lift(input_path, modulus_power, out_path):
    """Lift the tuple to its twisted flat module, two ways, and compare."""
    data, tup = _read_doc(input_path, witt_tuple_from_json)
    if modulus_power is not None and modulus_power != tup.n:
        _fail(
            "contract",
            "--modulus-power %d does not match the document modulus %d"
            % (modulus_power, tup.n),
            "/m",
            EXIT_CONTRACT,
        )
    tw = gn_construct(tup)
    sharp = sharp_construct(tup)
    certificates = {
        "carry_construction_agrees": tw.lift == sharp.lift
        and tw.module.matrix == sharp.module.matrix
    }
    doc = {
        "schema": serialize.SCHEMA,
        "type": "witt_lift_output",
        "p": tup.p,
        "m": tup.n,
        "ranks": list(tup.ranks),
        "adapted": matrix_to_json(adapted_dr_matrix(tup)) if tup.n > 1 else None,
        "lift": matrix_to_json(tw.lift),
        "twisted": matrix_to_json(tw.module.matrix),
        "certificates": certificates,
    }
    params = _base_params(p=tup.p, modulus_power=tup.n)
    _emit(doc, out_path, ["witt", "lift"], data, params, _checks(certificates))


@witt.command("flow-step")
@click.option("--input", "input_path", required=True, help="lifting tuple JSON")
@click.option("--out", "out_path", default=None)
@_guard
def witt_flow_step(input_path, out_path):
    """One flow step at modulus p^2 along the canonical flag filtration."""
    data, tup = _read_doc(input_path, witt_tuple_from_json)
    if tup.n != 2:
        _fail(
            "contract",
            "flow-step runs at modulus power 2, document has %d" % tup.n,
            "/m",
            EXIT_CONTRACT,
        )
    steps = filtration_steps_from_flag(tup, tup.ring)
    step = w2_flow_step(tup, steps)
    doc = {
        "schema": serialize.SCHEMA,
        "type": "witt_flow_step_output",
        "p": tup.p,
        "m": tup.n,
        "ranks": list(step.ranks),
        "flat": matrix_to_json(step.flat.A[0]),
        "theta_next": [matrix_to_json(M) for M in step.theta_next],
        "psi": [matrix_to_json(M) for M in step.psi]
        if step.psi is not None
        else None,
        "periodic": bool(step.periodic),
        "certificates": dict(step.certificates),
    }
    params = _base_params(p=tup.p, modulus_power=tup.n)
    checks = _checks(step.certificates)
    # the step reports its certificates; a failed one does not fail the run
    _emit(doc, out_path, ["witt", "flow-step"], data, params, checks, EXIT_OK)


# ---------------------------------------------------------------------------
# check suites


def _prime_trials(suite, count, p_opt, trial):
    """Checks '<suite>-NN' of trial(p, i) for i < count, p cycling through
    (p_opt,) or (3, 5, 7); trial returns the verdict and the fields its
    counterexample adds to the trial number and p."""
    primes = (p_opt,) if p_opt else (3, 5, 7)
    checks = []
    for i in range(count):
        p = primes[i % len(primes)]
        ok, fields = trial(p, i)
        counterexample = None if ok else dict(fields, trial=i, p=p)
        checks.append(("%s-%02d" % (suite, i), ok, counterexample))
    return checks


def _suite_cocycle(rng, p_opt, m_opt):
    """Transport between transforms at three atlases composes exactly."""

    def trial(p, i):
        rank = rng.randint(2, 3)
        kind = tuple(CURVES)[i % 2]
        H = corpus.random_nilpotent_higgs(rng, p, rank, curve=kind)
        lifts = [corpus.random_lifting(rng, H.bundle.curve) for _ in range(3)]
        t12, _, _ = lifting_change_transport(H, lifts[0], lifts[1])
        t23, _, _ = lifting_change_transport(H, lifts[1], lifts[2])
        t13, _, _ = lifting_change_transport(H, lifts[0], lifts[2])
        return t13.phi == t23.compose(t12).phi, {"curve": kind}

    return _prime_trials("cocycle", 12, p_opt, trial)


def _suite_gamma_relations(rng, p_opt, m_opt):
    """The six divided-operator relations on random lifted tuples.

    The operator vanishes mod p^n on a shape whose top grade is below
    p - n, so only shapes reaching p - n test more than zeros: at p = 5 the
    weight-3 shape is the live one mod p^2, and at p = 7 only the weight-5
    shape, of rank 6 and outside the corpus box, is live mod p^2 and p^3."""
    p = p_opt if p_opt else 3
    n = 2 if m_opt is None else m_opt
    if p == 3:
        shapes = ((1, 1), (2, 1), (1, 2))
    elif p == 5:
        shapes = ((1, 1), (2, 1), (1, 1, 1), (1, 1, 1, 1))
    else:
        shapes = ((1, 1), (2, 1), (1, 1, 1), (1,) * 6)
    checks = []
    for trial in range(6):
        ranks = shapes[trial % len(shapes)]
        tup = corpus.random_witt_tuple(rng, p, n, ranks)
        tw = gn_construct(tup)
        relations = gamma_relations_check(tw, rng=rng)
        for name in sorted(relations):
            ok = relations[name]
            checks.append(
                (
                    "gamma-%s-%02d" % (name, trial),
                    ok,
                    None if ok else {"trial": trial, "ranks": list(ranks)},
                )
            )
    return checks


def _suite_p_curvature(rng, p_opt, m_opt):
    """Transform p-curvature equals the pulled-back field, fixed sign."""

    def trial(p, i):
        rank = rng.randint(1, 3)
        kind = tuple(CURVES)[i % 2]
        H = corpus.random_nilpotent_higgs(rng, p, rank, curve=kind)
        flat = inverse_cartier_1(H)
        return p_curvature(flat) == p_curvature_prediction(H), {"curve": kind}

    return _prime_trials("p-curvature", 10, p_opt, trial)


def _suite_degree_scaling(rng, p_opt, m_opt):
    """One transform multiplies the degree by p."""

    def trial(p, i):
        rank = rng.randint(1, 4)
        weight = rng.randint(0 if rank == 1 else 1, min(p - 2, rank - 1))
        params = corpus.CorpusParams(
            p=p, rank=rank, weight=weight, count=1, seed=rng.randrange(2**30)
        )
        G = corpus.generate(params)[0]
        flat = inverse_cartier_1(G.total())
        return flat.bundle.degree() == p * G.degree(), {"degree": G.degree()}

    return _prime_trials("degree-scaling", 10, p_opt, trial)


def _suite_ov_sign(rng, p_opt, m_opt):
    """The frozen sign convention against its mirror, both code paths."""

    def trial(p, i):
        rank = rng.randint(1, 3)
        kind = tuple(CURVES)[i % 2]
        H = corpus.random_nilpotent_higgs(rng, p, rank, curve=kind)
        lifting = corpus.random_lifting(rng, H.bundle.curve) if i % 3 else None
        return ov_sign_check(H, lifting=lifting).passed, {"curve": kind}

    return _prime_trials("ov-sign", 10, p_opt, trial)


SUITES = {
    "cocycle": _suite_cocycle,
    "gamma-relations": _suite_gamma_relations,
    "p-curvature": _suite_p_curvature,
    "degree-scaling": _suite_degree_scaling,
    "ov-sign": _suite_ov_sign,
}


@main.command("check")
@click.option("--suite", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--p", "p_opt", type=int, default=None)
@click.option("--modulus-power", type=int, default=None)
@click.option("--out", "out_path", default=None)
@_guard
def check(suite, seed, p_opt, modulus_power, out_path):
    """Run one named invariant suite, deterministically in the seed."""
    if suite not in SUITES:
        _fail(
            "contract",
            "unknown suite '%s'; available: %s"
            % (suite, ", ".join(sorted(SUITES))),
            "args/suite",
            EXIT_CONTRACT,
        )
    if p_opt is not None and p_opt not in corpus.ALLOWED_PRIMES:
        _fail(
            "contract",
            "--p must be one of %s" % (corpus.ALLOWED_PRIMES,),
            "args/p",
            EXIT_CONTRACT,
        )
    if modulus_power is not None and modulus_power < 1:
        _fail(
            "contract",
            "--modulus-power must be positive",
            "args/modulus-power",
            EXIT_CONTRACT,
        )
    rng = random.Random(seed)
    entries = SUITES[suite](rng, p_opt, modulus_power)
    failed = [e for e in entries if not e[1]]
    doc = {
        "schema": serialize.SCHEMA,
        "type": "check_report",
        "suite": suite,
        "seed": seed,
        "counts": {"passed": len(entries) - len(failed), "failed": len(failed)},
        "checks": [
            {"name": name, "passed": passed, "counterexample": counterexample}
            for name, passed, counterexample in entries
        ],
    }
    params = _base_params(p=p_opt, modulus_power=modulus_power, seed=seed)
    _emit(doc, out_path, ["check"], None, params, entries)


# ---------------------------------------------------------------------------
# gen-corpus


@main.command("gen-corpus")
@click.option("--p", type=int, required=True)
@click.option("--rank", type=int, required=True)
@click.option("--weight", type=int, required=True)
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--curve", type=click.Choice(list(CURVES)), default=ProjectiveLine.tag, show_default=True
)
@click.option("--out", "out_path", default=None)
@_guard
def gen_corpus(p, rank, weight, count, seed, curve, out_path):
    """Generate a reproducible corpus of valid graded Higgs bundles."""
    try:
        params = corpus.CorpusParams(
            p=p, rank=rank, weight=weight, count=count, seed=seed, curve=curve
        )
    except corpus.CorpusParamError as err:
        _fail("contract", str(err), "args", EXIT_CONTRACT)
    instances = corpus.generate(params)
    doc = {
        "schema": serialize.SCHEMA,
        "type": "corpus",
        "params": {
            "p": p,
            "rank": rank,
            "weight": weight,
            "count": count,
            "seed": seed,
            "curve": curve,
            "max_exp": params.max_exp,
        },
        "instances": [graded_to_json(G) for G in instances],
    }
    checks = [("instance-%02d-valid" % i, True, None) for i in range(len(instances))]
    manifest_params = _base_params(
        p=p, seed=seed, rank=rank, weight=weight, count=count, curve=curve
    )
    _emit(doc, out_path, ["gen-corpus"], None, manifest_params, checks)


if __name__ == "__main__":
    main()
