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
from .errors import NonInvertible
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


def _child(path, key):
    return path.rstrip("/") + "/" + key


def _field(obj, key, path, types=None):
    _typed(obj, dict, path, "document node")
    child = _child(path, key)
    if key not in obj:
        raise SchemaError("missing field '%s'" % key, child)
    value = obj[key]
    if types is not None:
        _typed(value, types, child, "field '%s'" % key)
    return value


def _int_field(obj, key, path):
    value = _field(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("field '%s' must be an integer" % key, _child(path, key))
    return value


def _checked(build, what, path):
    """build(), with any failure reported as '<what> fails validation'."""
    try:
        return build()
    except Exception as err:
        raise SchemaError("%s fails validation: %s" % (what, err), path)


def require_tag(doc, expected_type, path="/"):
    if _field(doc, "schema", path, str) != SCHEMA:
        raise SchemaError("unsupported schema tag", _child(path, "schema"))
    kind = _field(doc, "type", path, str)
    if expected_type is not None and kind != expected_type:
        raise SchemaError(
            "expected a '%s' document, found '%s'" % (expected_type, kind),
            _child(path, "type"),
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


def _matrices(ring, raw, path, shapes, each):
    """A list of matrices, one of each shape in turn; a list of the wrong
    length is reported as needing one <each>."""
    _typed(raw, list, path, "matrix list")
    if len(raw) != len(shapes):
        raise SchemaError("need one %s" % each, path)
    return tuple(
        matrix_from_json(ring, M, "%s/%d" % (path, i), shape=shape)
        for i, (M, shape) in enumerate(zip(raw, shapes))
    )


# ---------------------------------------------------------------------------
# curves and Frobenius liftings


def _ring(doc, path):
    p = _int_field(doc, "p", path)
    m = _int_field(doc, "m", path)
    if p < 2:
        raise SchemaError("p must be a prime >= 2", _child(path, "p"))
    if m < 1:
        raise SchemaError("m must be positive", _child(path, "m"))
    return Zmod(p, m)


def _curve(doc, path):
    ring = _ring(doc, path)
    kind = _field(doc, "curve", path, str)
    if kind == "P1":
        return ProjectiveLine(ring)
    if kind == "A1":
        return AffineLine(ring)
    raise SchemaError("curve must be 'P1' or 'A1'", _child(path, "curve"))


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
    curve = _curve(doc, path)
    entries = _field(doc, "liftings", path, list)
    hs = [None] * curve.ncharts
    for i, entry in enumerate(entries):
        here = _child(path, "liftings/%d" % i)
        chart = _int_field(entry, "chart", here)
        if not 0 <= chart < curve.ncharts:
            raise SchemaError("chart index out of range", here + "/chart")
        if hs[chart] is not None:
            raise SchemaError("chart listed twice", here + "/chart")
        h = _field(entry, "h", here, list)
        hs[chart] = poly_from_json(curve.domain, h, here + "/h")
    where = _child(path, "liftings")
    if None in hs:
        raise SchemaError("every chart needs a lifting", where)
    return _checked(lambda: FrobeniusLifting(curve, tuple(hs)), "lifting", where)


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


def _bundle_from_body(doc, path, curve):
    """The bundle on curve with the rank and transition that doc gives."""
    rank = _int_field(doc, "rank", path)
    if rank < 1:
        raise SchemaError("rank must be positive", _child(path, "rank"))
    raw = _field(doc, "transition", path)
    tpath = _child(path, "transition")
    if curve.is_projective:
        if raw is None:
            raise SchemaError("projective bundles need a transition", tpath)
        g = matrix_from_json(curve.domain, raw, tpath, shape=(rank, rank))
        try:
            return Bundle(curve, rank, g)
        except NonInvertible:
            raise SchemaError("transition determinant is not a unit", tpath)
    if raw is not None:
        raise SchemaError("affine bundles are free: transition must be null", tpath)
    return Bundle(curve, rank)


def bundle_to_json(bundle):
    doc = {"schema": SCHEMA, "type": "bundle"}
    doc.update(_bundle_body(bundle))
    return doc


def bundle_from_json(doc, path="/"):
    require_tag(doc, "bundle", path)
    return _bundle_from_body(doc, path, _curve(doc, path))


def _bundle_and_charts(doc, path, kind, key):
    """The bundle of a '<kind>' document and its rank-by-rank matrices,
    one per chart, under key."""
    require_tag(doc, kind, path)
    bundle = _bundle_from_body(doc, path, _curve(doc, path))
    square = ((bundle.rank, bundle.rank),) * bundle.curve.ncharts
    raw, here = _field(doc, key, path), _child(path, key)
    return bundle, _matrices(bundle.curve.domain, raw, here, square, "matrix per chart")


def higgs_to_json(higgs):
    doc = {"schema": SCHEMA, "type": "higgs_bundle"}
    doc.update(_bundle_body(higgs.bundle))
    doc["theta"] = [matrix_to_json(M) for M in higgs.theta]
    return doc


def higgs_from_json(doc, path="/"):
    higgs = HiggsBundle(*_bundle_and_charts(doc, path, "higgs_bundle", "theta"))
    _checked(higgs.validate, "Higgs field", _child(path, "theta"))
    return higgs


def flat_to_json(flat):
    doc = {"schema": SCHEMA, "type": "flat_bundle"}
    doc.update(_bundle_body(flat.bundle))
    doc["connection"] = [matrix_to_json(M) for M in flat.A]
    return doc


def flat_from_json(doc, path="/"):
    flat = FlatBundle(*_bundle_and_charts(doc, path, "flat_bundle", "connection"))
    _checked(flat.validate, "connection", _child(path, "connection"))
    return flat


def cartier_input_from_json(doc):
    """A bare Higgs document, or a wrapper that adds a Frobenius lifting
    (null for the standard one): (higgs, lifting)."""
    kind = require_tag(doc, None)
    if kind == "higgs_bundle":
        return higgs_from_json(doc), None
    if kind != "cartier_input":
        raise SchemaError(
            "cartier apply expects a 'higgs_bundle' or 'cartier_input' document",
            "/type",
        )
    H = higgs_from_json(_field(doc, "higgs", "/"), "/higgs")
    raw = _field(doc, "lifting", "/")
    return H, None if raw is None else lifting_from_json(raw, "/lifting")


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
    curve = _curve(doc, path)
    raw_pieces = _field(doc, "pieces", path, list)
    if not raw_pieces:
        raise SchemaError(
            "a graded object needs at least one piece", _child(path, "pieces")
        )
    pieces = []
    for k, body in enumerate(raw_pieces):
        here = _child(path, "pieces/%d" % k)
        pieces.append(_bundle_from_body(_typed(body, dict, here, "piece"), here, curve))
    raw_maps = _field(doc, "maps", path, list)
    if len(raw_maps) != len(pieces) - 1:
        raise SchemaError(
            "need one connecting map per adjacent grade pair", _child(path, "maps")
        )
    maps = []
    for k, per_chart in enumerate(raw_maps):
        here = _child(path, "maps/%d" % k)
        shapes = ((pieces[k].rank, pieces[k + 1].rank),) * curve.ncharts
        maps.append(_matrices(curve.domain, per_chart, here, shapes, "matrix per chart"))
    G = GradedHiggsBundle(pieces, maps)
    _checked(G.validate, "graded object", _child(path, "maps"))
    return G


class _SpanSpec:
    def __init__(self, basis0):
        self.basis = (basis0,)


class _FiltrationSpec:
    def __init__(self, spans):
        self.steps = tuple(_SpanSpec(M) for M in spans)


def flow_input_from_json(doc):
    """A bare graded document, or a wrapper that adds one supplied
    filtration per step as chart-0 span matrices: (graded, filtrations)."""
    kind = require_tag(doc, None)
    if kind == "graded_higgs":
        return graded_from_json(doc), ()
    if kind != "flow_input":
        raise SchemaError(
            "flow run expects a 'graded_higgs' or 'flow_input' document",
            "/type",
        )
    G = graded_from_json(_field(doc, "graded", "/"), "/graded")
    specs = []
    for i, fil in enumerate(_field(doc, "filtrations", "/", list)):
        here = "/filtrations/%d" % i
        steps = _field(fil, "steps", here, list)
        specs.append(
            _FiltrationSpec(
                matrix_from_json(G.domain, cols, "%s/steps/%d" % (here, j))
                for j, cols in enumerate(steps)
            )
        )
    return G, tuple(specs)


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
        here = _child(path, "steps/%d" % i)
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
    _checked(fil.validate, "filtration", path)
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
    ring = _ring(doc, path)
    n = ring.m
    down_m = _field(doc, "down_m", path)
    if n == 1:
        if down_m is not None:
            raise SchemaError(
                "down_m must be null at modulus p^1", _child(path, "down_m")
            )
    elif down_m != n - 1:
        raise SchemaError("down_m must equal m-1", _child(path, "down_m"))
    down = Zmod(ring.p, n - 1) if n > 1 else None
    ranks = _field(doc, "ranks", path, list)
    for i, r in enumerate(ranks):
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            here = _child(path, "ranks/%d" % i)
            raise SchemaError("ranks must be positive integers", here)
    ranks = tuple(ranks)
    theta = _matrices(
        ring,
        _field(doc, "theta", path),
        _child(path, "theta"),
        list(zip(ranks, ranks[1:])),
        "grade-raising block per adjacent grade pair",
    )
    total = sum(ranks)

    def below(key, raw, shapes=None):
        """Matrices one level down: one square of the total rank, or one
        of each shape."""
        if raw is None:
            return None
        where = _child(path, key)
        if down is None:
            raise SchemaError("%s must be null at modulus p^1" % key, where)
        if shapes is None:
            return matrix_from_json(down, raw, where, shape=(total, total))
        return _matrices(down, raw, where, shapes, "psibar block per grade")

    raw_abar = _field(doc, "abar", path)
    raw_psibar = _field(doc, "psibar", path)
    abar = below("abar", raw_abar)
    # optional: written only for tuples that carry a Frobenius frame
    frob_frame = below("frob_frame", doc.get("frob_frame"))
    psibar = below("psibar", raw_psibar, [(r, r) for r in ranks])
    return _checked(
        lambda: LiftingInputTuple(ring, ranks, theta, abar, psibar, frob_frame),
        "tuple",
        path,
    )


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
    "frobenius_lifting": lifting_from_json,
    "bundle": bundle_from_json,
    "higgs_bundle": higgs_from_json,
    "flat_bundle": flat_from_json,
    "graded_higgs": graded_from_json,
    "witt_tuple": witt_tuple_from_json,
}


def load_document(doc, expected_type=None):
    """Dispatch a parsed document to its typed loader; report-style
    documents (traces, manifests, corpora) validate tag only."""
    kind = require_tag(doc, expected_type)
    if kind in _LOADERS:
        return _LOADERS[kind](doc)
    return doc
