"""Spans around hdflow's layer boundaries, installed from outside the package.

install() wraps the public functions and methods of each measured module and
rebinds every hdflow module attribute (and module-level dict value) that
referred to an original, so callers that imported a name see the wrapper
too.  Every call of a wrapped function records one span: name, start, end
and parent span.  Spans stay in memory (compact arrays) until the run ends;
self times are derived from them afterwards.

Coefficient-level methods (Zmod, GF) and LaurentPoly accessors are left
unwrapped: their cost is self time of the ringmath operation that calls
them.  LaurentPoly construction is counted, not timed.
"""

import importlib
import inspect
import sys
import time
from array import array

# Measured layers, in dependency order.  curves (chart data) and errors (no
# work) are not measured; cli is plumbing over serialize.
LAYERS = (
    "ringmath", "bundles", "cartier", "graded", "filtration",
    "flow", "witt", "serialize", "corpus",
)

# Span groups reported by name; every other wrapped callable is named
# "<layer>.<qualname>" and counts only towards its layer.
GROUPS = {
    "ringmath": {
        "LaurentPoly.mul": "laurent_mul",
        "LaurentPoly.add": "laurent_add",
        "RingMatrix.mul": "matrix_mul",
        "RingMatrix.det": "det_inverse",
        "RingMatrix.adjugate": "det_inverse",
        "RingMatrix.inverse": "det_inverse",
        "smith_form_poly": "smith_form",
        "solve_linear_mod": "solve",
        "poly_solve": "solve",
        "field_solve": "solve",
        "field_nullspace": "solve",
        "birkhoff_factorize": "birkhoff",
    },
    "bundles": {
        "Subbundle.from_chart0_span": "subbundle_span",
        "Subbundle.same_as": "same_as",
    },
    "cartier": {
        "inverse_cartier_1": "inverse_cartier_1",
        "p_curvature": "p_curvature",
        "lifting_change_transport": "lifting_change_transport",
    },
    "graded": {
        "grade": "grade",
        "graded_higgs_isomorphic": "isomorphic",
    },
    "filtration": {
        "is_higgs_semistable": "semistable",
        "max_destabilizer_graded": "semistable",
        "simpson_filtration": "simpson",
    },
    "flow": {
        "flow_step": "flow_step",
        "detect_period": "detect_period",
        "build_relative_frobenius": "relative_frobenius",
        "pack_endostructure": "pack_unpack",
        "unpack_endostructure": "pack_unpack",
    },
    "witt": {
        "gamma_apply": "gamma_apply",
        "gamma_relations_check": "gamma_relations",
        "gn_construct": "construct",
        "sharp_construct": "construct",
        "equivalence_check": "equivalence",
        "taylor_transition": "taylor_transition",
        "mod_reduction_check": "mod_reduction",
        "w2_flow_step": "w2_flow_step",
    },
}

# Only these ringmath methods are spans; the rest are accessors, predicates
# or constructors too small to time without swamping what they measure.
RINGMATH_METHODS = {
    "LaurentPoly": (
        "mul", "add", "sub", "neg", "scale", "shift", "power", "derivative",
        "substitute", "coeff_map", "coeff_frobenius", "inverse_unit",
        "p_divide", "reduce_to", "lift_to",
    ),
    "RingMatrix": None,  # every public method except entry
}


def _group_name(layer, qualname):
    if layer == "serialize":
        short = qualname.rsplit(".", 1)[-1]
        if short == "canonical_bytes" or short.endswith("_to_json"):
            return "serialize.emit"
        if short in ("parse_bytes", "load_document") or short.endswith("_from_json"):
            return "serialize.parse"
    if layer == "corpus":
        return "corpus.generate"
    group = GROUPS.get(layer, {}).get(qualname)
    return "%s.%s" % (layer, group if group else qualname)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.layer_of = []
        self.counts = {"laurent_new": 0, "term_pairs": 0, "emit_bytes": 0}
        self.paused = [False]
        self._patches = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]

    def clear(self):
        """Drop recorded spans and counts; the wrappers keep these arrays."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.stack[:] = [-1]
        for k in self.counts:
            self.counts[k] = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(name.split(".", 1)[0]))
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, extra=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        paused = self.paused
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if extra is not None:
                extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _extra_for(self, name):
        counts = self.counts
        if name == "ringmath.laurent_mul":
            def pairs(args, result):
                counts["term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
            return pairs
        if name == "serialize.emit":
            def emitted(args, result):
                if isinstance(result, bytes):
                    counts["emit_bytes"] += len(result)
            return emitted
        return None

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every measured layer of the imported hdflow package."""
        modules = {L: importlib.import_module("hdflow." + L) for L in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = _group_name(layer, attr)
                    replaced[obj] = self._span(obj, name, self._extra_for(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        self._wrap_laurent_init(modules["ringmath"].LaurentPoly)
        for mod in [m for n, m in sys.modules.items() if n.startswith("hdflow")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            self._patches.append((obj, key, value))
                            obj[key] = replaced[value]

    def _wrap_class(self, layer, cls):
        if layer == "ringmath":
            if cls.__name__ not in RINGMATH_METHODS:
                return
            allowed = RINGMATH_METHODS[cls.__name__]
        else:
            allowed = None
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or (allowed is not None and attr not in allowed):
                continue
            if layer == "ringmath" and attr == "entry":
                continue
            qual = "%s.%s" % (cls.__name__, attr)
            name = _group_name(layer, qual)
            if isinstance(raw, classmethod):
                new = classmethod(self._span(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._span(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._span(raw, name, self._extra_for(name))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def _wrap_laurent_init(self, cls):
        orig = cls.__init__
        counts = self.counts
        paused = self.paused

        def init(self, domain, coeffs=None):
            if not paused[0]:
                counts["laurent_new"] += 1
            orig(self, domain, coeffs)

        self._patches.append((cls, "__init__", orig))
        cls.__init__ = init

    def uninstall(self):
        for target, key, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patches = []

    # -- derived metrics -----------------------------------------------------

    def summary(self):
        """Per-name calls and self time, per-layer busy and self time.

        A span's self time is its duration minus the durations of its direct
        children.  A layer's busy time sums the spans with no enclosing span
        of the same layer; its self time sums the self times of its spans.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        layer_of = self.layer_of
        excl = [0.0] * n
        mask = [0] * n
        calls = [0] * len(self.names)
        name_self = [0.0] * len(self.names)
        layer_busy = [0.0] * len(LAYERS)
        layer_self = [0.0] * len(LAYERS)
        for i in range(n):
            d = ends[i] - starts[i]
            excl[i] += d
            par = parents[i]
            layer = layer_of[names[i]]
            if par >= 0:
                excl[par] -= d
                mask[i] = mask[par] | (1 << layer_of[names[par]])
            if not mask[i] & (1 << layer):
                layer_busy[layer] += d
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            name_self[nid] += excl[i]
            layer_self[layer_of[nid]] += excl[i]
        per_name = {
            self.names[k]: (calls[k], name_self[k]) for k in range(len(self.names))
        }
        per_layer = {
            L: (layer_busy[k], layer_self[k]) for k, L in enumerate(LAYERS)
        }
        return per_name, per_layer, dict(self.counts)
