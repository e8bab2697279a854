"""Canonical JSON for every object the command line reads or writes.

One schema family, tagged "hdf/1".  Encoding is canonical: keys sorted,
minimal separators, one trailing newline, so identical values produce
identical bytes.  Residue-ring coefficients always appear as their least
nonnegative residues, polynomials as exponent/coefficient pair lists
sorted by exponent, matrices as row-major nested arrays.  Every document
carries its modulus explicitly; loaders re-check shapes and track a
location path so malformed input can be reported at the offending field.
"""

import hashlib
import json
import os
import tempfile

from .bundles import Bundle, FlatBundle, HiggsBundle, Subbundle
from .curves import AffineLine, FrobeniusLifting, ProjectiveLine
from .graded import GradedHiggsBundle, HodgeFiltration
from .ringmath import LaurentPoly, RingMatrix, Zmod
from .witt import LiftingInputTuple

SCHEMA = "hdf/1"


class SchemaError(Exception):
    """Malformed or contract-violating document; path locates the field."""

    def __init__(self, message, path="/"):
        super().__init__("%s (at %s)" % (message, path))
        self.message = message
        self.path = path


# ---------------------------------------------------------------------------
# canonical bytes, digests, atomic files


def canonical_bytes(doc):
    """Canonical encoding: sorted keys, tight separators, newline end."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("ascii")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def write_atomic(path, data):
    """Write bytes to path via a same-directory temp file and rename, so
    readers never observe a partial document."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hdf-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_bytes(data):
    """Parse JSON bytes; parse failures become SchemaError with the
    parser's line/column folded into the message and a root path."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError("input is not UTF-8: %s" % err, "/")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(
            "invalid JSON: %s at line %d column %d"
            % (err.msg, err.lineno, err.colno),
            "/",
        )


# ---------------------------------------------------------------------------
# field access with location tracking


def _typed(value, types, path, what):
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise SchemaError("%s has the wrong JSON type" % what, path)
    return value


def _field(obj, key, path, types=None):
    _typed(obj, dict, path, "document node")
    child = path.rstrip("/") + "/" + key
    if key not in obj:
        raise SchemaError("missing field '%s'" % key, child)
    value = obj[key]
    if types is not None:
        _typed(value, types, child, "field '%s'" % key)
    return value


def _int_field(obj, key, path):
    value = _field(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            "field '%s' must be an integer" % key, path.rstrip("/") + "/" + key
        )
    return value


def require_tag(doc, expected_type, path="/"):
    if _field(doc, "schema", path, str) != SCHEMA:
        raise SchemaError("unsupported schema tag", path.rstrip("/") + "/schema")
    kind = _field(doc, "type", path, str)
    if expected_type is not None and kind != expected_type:
        raise SchemaError(
            "expected a '%s' document, found '%s'" % (expected_type, kind),
            path.rstrip("/") + "/type",
        )
    return kind


# ---------------------------------------------------------------------------
# scalars, polynomials, matrices


def poly_to_json(f):
    d = f.domain
    return sorted([int(e), d.serialize(c)] for e, c in f.coeffs.items())


def poly_from_json(ring, data, path):
    _typed(data, list, path, "polynomial")
    coeffs = {}
    for i, pair in enumerate(data):
        here = "%s/%d" % (path, i)
        _typed(pair, list, here, "coefficient pair")
        if len(pair) != 2:
            raise SchemaError("coefficient pair needs [exponent, value]", here)
        e, c = pair
        if isinstance(e, bool) or not isinstance(e, int):
            raise SchemaError("exponent must be an integer", here)
        if isinstance(c, bool) or not isinstance(c, int):
            raise SchemaError("coefficient must be an integer", here)
        if not 0 <= c < ring.modulus:
            raise SchemaError(
                "coefficient %d is not a least nonnegative residue mod %d"
                % (c, ring.modulus),
                here,
            )
        if e in coeffs:
            raise SchemaError("repeated exponent %d" % e, here)
        if c:
            coeffs[e] = ring.coerce(c)
    return LaurentPoly(ring, coeffs)


def matrix_to_json(M):
    return [[poly_to_json(M.entry(i, j)) for j in range(M.ncols)] for i in range(M.nrows)]


def matrix_from_json(ring, data, path, shape=None):
    _typed(data, list, path, "matrix")
    if not data:
        raise SchemaError("matrix needs at least one row", path)
    rows = []
    width = None
    for i, row in enumerate(data):
        here = "%s/%d" % (path, i)
        _typed(row, list, here, "matrix row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError("ragged matrix rows", here)
        rows.append(
            [poly_from_json(ring, cell, "%s/%d" % (here, j)) for j, cell in enumerate(row)]
        )
    if width == 0:
        raise SchemaError("matrix needs at least one column", path)
    if shape is not None and (len(rows), width) != shape:
        raise SchemaError(
            "matrix shape %dx%d does not match the expected %dx%d"
            % (len(rows), width, shape[0], shape[1]),
            path,
        )
    return RingMatrix(ring, rows)


# ---------------------------------------------------------------------------
# curves and Frobenius liftings


def _ring_and_curve(doc, path):
    p = _int_field(doc, "p", path)
    m = _int_field(doc, "m", path)
    if p < 2:
        raise SchemaError("p must be a prime >= 2", path.rstrip("/") + "/p")
    if m < 1:
        raise SchemaError("m must be positive", path.rstrip("/") + "/m")
    ring = Zmod(p, m)
    kind = _field(doc, "curve", path, str)
    if kind == "P1":
        return ring, ProjectiveLine(ring)
    if kind == "A1":
        return ring, AffineLine(ring)
    raise SchemaError(
        "curve must be 'P1' or 'A1'", path.rstrip("/") + "/curve"
    )


def lifting_to_json(lifting):
    ring = lifting.curve.domain
    return {
        "schema": SCHEMA,
        "type": "frobenius_lifting",
        "curve": "P1" if lifting.curve.is_projective else "A1",
        "p": ring.p,
        "m": ring.m,
        "liftings": [
            {"chart": i, "h": poly_to_json(h)} for i, h in enumerate(lifting.h)
        ],
    }


def lifting_from_json(doc, path="/"):
    require_tag(doc, "frobenius_lifting", path)
    ring, curve = _ring_and_curve(doc, path)
    entries = _field(doc, "liftings", path, list)
    hs = [None] * curve.ncharts
    for i, entry in enumerate(entries):
        here = "%s/liftings/%d" % (path.rstrip("/"), i)
        chart = _int_field(entry, "chart", here)
        if not 0 <= chart < curve.ncharts:
            raise SchemaError("chart index out of range", here + "/chart")
        if hs[chart] is not None:
            raise SchemaError("chart listed twice", here + "/chart")
        hs[chart] = poly_from_json(ring, _field(entry, "h", here, list), here + "/h")
    if None in hs:
        raise SchemaError("every chart needs a lifting", path.rstrip("/") + "/liftings")
    return FrobeniusLifting(curve, tuple(hs))


# ---------------------------------------------------------------------------
# bundles, Higgs bundles, flat bundles


def _bundle_body(bundle):
    ring = bundle.curve.domain
    body = {
        "curve": "P1" if bundle.curve.is_projective else "A1",
        "p": ring.p,
        "m": ring.m,
        "rank": bundle.rank,
        "transition": matrix_to_json(bundle.transition)
        if bundle.curve.is_projective
        else None,
    }
    return body


def _bundle_from_body(doc, path):
    ring, curve = _ring_and_curve(doc, path)
    rank = _int_field(doc, "rank", path)
    if rank < 1:
        raise SchemaError("rank must be positive", path.rstrip("/") + "/rank")
    raw = _field(doc, "transition", path)
    tpath = path.rstrip("/") + "/transition"
    if curve.is_projective:
        if raw is None:
            raise SchemaError("projective bundles need a transition", tpath)
        g = matrix_from_json(ring, raw, tpath, shape=(rank, rank))
        if not g.det().is_unit():
            raise SchemaError("transition determinant is not a unit", tpath)
        return Bundle(curve, rank, g)
    if raw is not None:
        raise SchemaError("affine bundles are free: transition must be null", tpath)
    return Bundle(curve, rank)


def bundle_to_json(bundle):
    doc = {"schema": SCHEMA, "type": "bundle"}
    doc.update(_bundle_body(bundle))
    return doc


def bundle_from_json(doc, path="/"):
    require_tag(doc, "bundle", path)
    return _bundle_from_body(doc, path)


def _charts_field(doc, key, curve, ring, shape, path):
    raw = _field(doc, key, path, list)
    here = path.rstrip("/") + "/" + key
    if len(raw) != curve.ncharts:
        raise SchemaError("need one matrix per chart", here)
    return tuple(
        matrix_from_json(ring, M, "%s/%d" % (here, c), shape=shape)
        for c, M in enumerate(raw)
    )


def higgs_to_json(higgs):
    doc = {"schema": SCHEMA, "type": "higgs_bundle"}
    doc.update(_bundle_body(higgs.bundle))
    doc["theta"] = [matrix_to_json(M) for M in higgs.theta]
    return doc


def higgs_from_json(doc, path="/"):
    require_tag(doc, "higgs_bundle", path)
    bundle = _bundle_from_body(doc, path)
    ring = bundle.curve.domain
    theta = _charts_field(
        doc, "theta", bundle.curve, ring, (bundle.rank, bundle.rank), path
    )
    higgs = HiggsBundle(bundle, theta)
    try:
        higgs.validate()
    except Exception as err:
        raise SchemaError(
            "Higgs field fails validation: %s" % err, path.rstrip("/") + "/theta"
        )
    return higgs


def flat_to_json(flat):
    doc = {"schema": SCHEMA, "type": "flat_bundle"}
    doc.update(_bundle_body(flat.bundle))
    doc["connection"] = [matrix_to_json(M) for M in flat.A]
    return doc


def flat_from_json(doc, path="/"):
    require_tag(doc, "flat_bundle", path)
    bundle = _bundle_from_body(doc, path)
    ring = bundle.curve.domain
    A = _charts_field(
        doc, "connection", bundle.curve, ring, (bundle.rank, bundle.rank), path
    )
    flat = FlatBundle(bundle, A)
    try:
        flat.validate()
    except Exception as err:
        raise SchemaError(
            "connection fails validation: %s" % err,
            path.rstrip("/") + "/connection",
        )
    return flat


# ---------------------------------------------------------------------------
# graded Higgs bundles


def graded_to_json(G):
    ring = G.domain
    doc = {
        "schema": SCHEMA,
        "type": "graded_higgs",
        "curve": "P1" if G.curve.is_projective else "A1",
        "p": ring.p,
        "m": ring.m,
        "pieces": [
            {
                "rank": P.rank,
                "transition": matrix_to_json(P.transition)
                if G.curve.is_projective
                else None,
            }
            for P in G.pieces
        ],
        "maps": [[matrix_to_json(M) for M in per_chart] for per_chart in G.maps],
    }
    return doc


def graded_from_json(doc, path="/"):
    require_tag(doc, "graded_higgs", path)
    ring, curve = _ring_and_curve(doc, path)
    raw_pieces = _field(doc, "pieces", path, list)
    if not raw_pieces:
        raise SchemaError(
            "a graded object needs at least one piece",
            path.rstrip("/") + "/pieces",
        )
    pieces = []
    for k, body in enumerate(raw_pieces):
        here = "%s/pieces/%d" % (path.rstrip("/"), k)
        shell = dict(_typed(body, dict, here, "piece"))
        shell["curve"] = doc.get("curve")
        shell["p"] = doc.get("p")
        shell["m"] = doc.get("m")
        pieces.append(_bundle_from_body(shell, here))
    raw_maps = _field(doc, "maps", path, list)
    if len(raw_maps) != len(pieces) - 1:
        raise SchemaError(
            "need one connecting map per adjacent grade pair",
            path.rstrip("/") + "/maps",
        )
    maps = []
    for k, per_chart in enumerate(raw_maps):
        here = "%s/maps/%d" % (path.rstrip("/"), k)
        _typed(per_chart, list, here, "per-chart maps")
        if len(per_chart) != curve.ncharts:
            raise SchemaError("need one matrix per chart", here)
        shape = (pieces[k].rank, pieces[k + 1].rank)
        maps.append(
            tuple(
                matrix_from_json(ring, M, "%s/%d" % (here, c), shape=shape)
                for c, M in enumerate(per_chart)
            )
        )
    G = GradedHiggsBundle(pieces, maps)
    try:
        G.validate()
    except Exception as err:
        raise SchemaError(
            "graded object fails validation: %s" % err,
            path.rstrip("/") + "/maps",
        )
    return G


# ---------------------------------------------------------------------------
# filtrations (relative to an ambient bundle)


def filtration_to_json(fil):
    return {
        "schema": SCHEMA,
        "type": "filtration",
        "steps": [matrix_to_json(S.basis[0]) for S in fil.steps],
    }


def filtration_from_json(bundle, doc, path="/"):
    require_tag(doc, "filtration", path)
    raw = _field(doc, "steps", path, list)
    ring = bundle.curve.domain
    steps = []
    for i, cols in enumerate(raw):
        here = "%s/steps/%d" % (path.rstrip("/"), i)
        M = matrix_from_json(ring, cols, here)
        if M.nrows != bundle.rank:
            raise SchemaError(
                "step spans live in a rank-%d bundle" % bundle.rank, here
            )
        try:
            steps.append(Subbundle.from_chart0_span(bundle, M))
        except Exception as err:
            raise SchemaError("step does not span a subbundle: %s" % err, here)
    fil = HodgeFiltration(bundle, steps)
    try:
        fil.validate()
    except Exception as err:
        raise SchemaError("filtration fails validation: %s" % err, path)
    return fil


# ---------------------------------------------------------------------------
# graded-to-Witt input tuples (explicit moduli on both levels)


def witt_tuple_to_json(tup):
    doc = {
        "schema": SCHEMA,
        "type": "witt_tuple",
        "p": tup.p,
        "m": tup.n,
        "down_m": tup.n - 1 if tup.n > 1 else None,
        "ranks": list(tup.ranks),
        "theta": [matrix_to_json(M) for M in tup.theta],
        "abar": matrix_to_json(tup.abar) if tup.abar is not None else None,
        "psibar": [matrix_to_json(M) for M in tup.psibar]
        if tup.psibar is not None
        else None,
    }
    if tup.frob_frame is not None:
        doc["frob_frame"] = matrix_to_json(tup.frob_frame)
    return doc


def witt_tuple_from_json(doc, path="/"):
    require_tag(doc, "witt_tuple", path)
    p = _int_field(doc, "p", path)
    n = _int_field(doc, "m", path)
    if p < 2:
        raise SchemaError("p must be a prime >= 2", path.rstrip("/") + "/p")
    if n < 1:
        raise SchemaError("m must be positive", path.rstrip("/") + "/m")
    ring = Zmod(p, n)
    down_m = _field(doc, "down_m", path)
    if n == 1:
        if down_m is not None:
            raise SchemaError(
                "down_m must be null at modulus p^1", path.rstrip("/") + "/down_m"
            )
    elif down_m != n - 1:
        raise SchemaError(
            "down_m must equal m-1", path.rstrip("/") + "/down_m"
        )
    down = Zmod(p, n - 1) if n > 1 else None
    ranks = _field(doc, "ranks", path, list)
    for i, r in enumerate(ranks):
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise SchemaError(
                "ranks must be positive integers",
                "%s/ranks/%d" % (path.rstrip("/"), i),
            )
    ranks = tuple(ranks)
    raw_theta = _field(doc, "theta", path, list)
    if len(raw_theta) != max(len(ranks) - 1, 0):
        raise SchemaError(
            "need one grade-raising block per adjacent grade pair",
            path.rstrip("/") + "/theta",
        )
    theta = tuple(
        matrix_from_json(
            ring,
            M,
            "%s/theta/%d" % (path.rstrip("/"), g),
            shape=(ranks[g], ranks[g + 1]),
        )
        for g, M in enumerate(raw_theta)
    )
    total = sum(ranks)

    def down_square(key, raw):
        if raw is None:
            return None
        where = path.rstrip("/") + "/" + key
        if down is None:
            raise SchemaError("%s must be null at modulus p^1" % key, where)
        return matrix_from_json(down, raw, where, shape=(total, total))

    raw_abar = _field(doc, "abar", path)
    raw_psibar = _field(doc, "psibar", path)
    abar = down_square("abar", raw_abar)
    # optional: written only for tuples that carry a Frobenius frame
    frob_frame = down_square("frob_frame", doc.get("frob_frame"))
    psibar = None
    if raw_psibar is not None:
        if down is None:
            raise SchemaError(
                "psibar must be null at modulus p^1",
                path.rstrip("/") + "/psibar",
            )
        _typed(raw_psibar, list, path.rstrip("/") + "/psibar", "psibar")
        if len(raw_psibar) != len(ranks):
            raise SchemaError(
                "need one psibar block per grade", path.rstrip("/") + "/psibar"
            )
        psibar = tuple(
            matrix_from_json(
                down,
                M,
                "%s/psibar/%d" % (path.rstrip("/"), g),
                shape=(ranks[g], ranks[g]),
            )
            for g, M in enumerate(raw_psibar)
        )
    try:
        return LiftingInputTuple(ring, ranks, theta, abar, psibar, frob_frame)
    except Exception as err:
        raise SchemaError("tuple fails validation: %s" % err, path)


# ---------------------------------------------------------------------------
# reports: manifests, error objects, traces


def error_object(code, message, location="/"):
    return {
        "schema": SCHEMA,
        "type": "error",
        "code": code,
        "message": message,
        "location": location,
    }


def run_manifest(command, input_digest, parameters, outputs, checks):
    """Deterministic provenance record: no clocks, no host state; reruns
    with identical inputs serialize to identical bytes."""
    return {
        "schema": SCHEMA,
        "type": "run_manifest",
        "command": list(command),
        "input_digest": input_digest,
        "parameters": dict(parameters),
        "outputs": list(outputs),
        "checks": [
            {
                "name": name,
                "passed": bool(passed),
                "counterexample": counterexample,
            }
            for name, passed, counterexample in checks
        ],
    }


def fraction_to_json(q):
    return [q.numerator, q.denominator]


def flow_trace_to_json(trace, certificates):
    """Trace document: one entry per stage, certificates per executed
    step, and the period report when one was found."""
    stages = []
    for i, stage in enumerate(trace.stages):
        entry = {
            "higgs": graded_to_json(stage.higgs),
            "degree": stage.degree,
            "slope": fraction_to_json(stage.slope),
            "transform": flat_to_json(stage.flat)
            if stage.flat is not None
            else None,
            "filtration": filtration_to_json(stage.filtration)
            if stage.filtration is not None
            else None,
            "certificates": certificates[i] if i < len(certificates) else None,
        }
        stages.append(entry)
    period = None
    if trace.periodicity is not None:
        period = {
            "preperiod": trace.periodicity.preperiod,
            "period": trace.periodicity.period,
        }
    return {
        "schema": SCHEMA,
        "type": "flow_trace",
        "stages": stages,
        "period": period,
    }


_LOADERS = {
    "frobenius_lifting": lambda doc: lifting_from_json(doc),
    "bundle": lambda doc: bundle_from_json(doc),
    "higgs_bundle": lambda doc: higgs_from_json(doc),
    "flat_bundle": lambda doc: flat_from_json(doc),
    "graded_higgs": lambda doc: graded_from_json(doc),
    "witt_tuple": lambda doc: witt_tuple_from_json(doc),
}


def load_document(doc, expected_type=None):
    """Dispatch a parsed document to its typed loader; report-style
    documents (traces, manifests, corpora) validate tag only."""
    kind = require_tag(doc, expected_type)
    if kind in _LOADERS:
        return _LOADERS[kind](doc)
    return doc
