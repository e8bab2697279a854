"""Every library function is entered by the system, every defaulted
parameter is set by it, every stored field is read, every import is used,
and every oracle serves a test.

A library function is used only when a system path enters it: the command
line or the benchmark.  A census runs a fixed sample of both under
sys.setprofile and records every code object of src/hdflow that starts a
frame: every command on fixed inputs (each flow policy, an F_{p^f} graded
object, located contract failures, each check suite at p = 3, gen-corpus),
then each benchmark workload's set-up at seed 1 and the first and last op
of each op kind with its check (the smallest and the largest case of the
kind).  Code objects are keyed by (file, co_firstlineno) and named through
the AST, nested functions included; Python 3.10 has no co_qualname.  Tests
are not part of the sample, so a function that only tests call is flagged;
it gets a caller in the system, moves to tests/oracles.py if it only
cross-checks the library, or goes.  Exempt are dunders and the definitions
in NOT_ENTERED, each with its reason; a named one that the sample enters
fails the census too, so the list only shrinks.

The same rule holds for parameters: a defaulted parameter of a library
function, method or constructor is set only when some call in src/hdflow
or bench/ passes it, by keyword or by position; a value that only tests
set gives the entry point a second code path that the system never takes.
A constructor is called by its class name, and every dataclass field with
a default counts as one of its parameters.  A function that the system
passes as a value, rather than calls, and the definitions in NOT_ENTERED
are called from outside the scan, so all of their parameters count as set.
Exempt are the parameters in SET_BY_TESTS, each with its reason.

Stored fields and imports are checked against tests too: a field that only
a test reads (an error payload such as CertificateFailed.part) is still
part of what the library reports.
"""

import ast
import contextlib
import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hdflow

PACKAGE = Path(hdflow.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]
TESTS = ROOT / "tests"
SEARCHED = ("src", "tests", "bench")
CALLERS = ("src", "bench")

# Definitions that no path of the system sample enters, by qualified name
# ("module.Class.method", "module.function.nested"), each with its reason.
# ROADMAP items name the inputs that will reach them.
NOT_ENTERED = {
    # halves of the document format whose other halves the command line uses
    "serialize.bundle_to_json": "writes the 'bundle' document that bundle_from_json reads",
    "serialize.bundle_from_json": "reads the 'bundle' document type that README lists",
    "serialize.lifting_to_json": "writes the Frobenius liftings that 'cartier apply' reads",
    "serialize.witt_tuple_to_json": "writes the inputs of 'witt lift' and 'witt flow-step'",
    "serialize.filtration_from_json": "reads the filtrations that 'filtration compute' writes",
    # the coefficient protocol (item 5)
    "ringmath.GF.axpy": "no sampled path combines coefficient vectors over F_{p^f}",
    "ringmath.GF.is_nilpotent": "no sampled unit search or unit test runs over F_{p^f}",
    "ringmath.GF.elements": "no sampled unit search enumerates F_{p^f}",
    "ringmath.Zmod.add": "generic code adds coefficients only over F_{p^f}; the oracles call it",
    "ringmath.Zmod.sub": "generic code subtracts only over F_{p^f}; the oracles call it",
    # supplied P^1 filtrations with non-trivial steps (items 5 and 8)
    "ringmath.smith_form_poly.row_combine": "no sampled span needs a row reduction",
    "ringmath.smith_form_poly.col_combine": "no sampled span needs a column reduction",
    "ringmath.smith_form_poly.col_swap": "no sampled span needs a column swap",
    "ringmath.RingMatrix.shift_all": "clears a chart-1 span's pole, which no sampled span has",
    "ringmath.poly_kernel": "only _span_intersection_coords asks for a kernel",
    "flow._span_intersection_coords": "cuts filtration steps; sampled packings have none",
    "flow._restrict_map": "restricts connecting maps; sampled packings have one grade",
    # the benchmark's descent check, on logs that are empty on the line (item 4)
    "filtration.DescentRecord.key": "orders the records of a descent log",
    "filtration._lex_gt": "compares the records of a descent log",
}

# Defaulted parameters, as (function, parameter), that only tests set.
SET_BY_TESTS = {
    ("fn_apply", "lifting"): "tests certify the Taylor transitions between the "
    "pullbacks under two liftings against the pullbacks themselves",
}


def _searched_files(tops=SEARCHED):
    for top in tops:
        yield from sorted((ROOT / top).rglob("*.py"))


def _caller_trees():
    return [ast.parse(path.read_text(), filename=str(path)) for path in _searched_files(CALLERS)]


def test_searched_trees_are_found():
    assert all((ROOT / top).is_dir() for top in SEARCHED)


FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions():
    """{(path, first line, name): qualified name} for every function, method
    and nested function in the library.  The first line is the one its code
    object reports as co_firstlineno: its first decorator's, or its def's."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION_NODES + (ast.ClassDef,)):
                if isinstance(child, FUNCTION_NODES):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path, path.stem + ".")
    return found


def _cli_sample():
    """(arguments, input document or None, exit code) of every command on
    fixed inputs.  Building the inputs is not part of the sample.  They are
    built here, not taken from the other test modules, because those import
    tests/oracles.py, whose module name bench/oracles.py shares."""
    from hdflow.cartier import inverse_cartier_1
    from hdflow.bundles import Bundle
    from hdflow.cli import SUITES
    from hdflow.corpus import (
        CorpusParams,
        generate,
        random_lifting,
        random_nilpotent_higgs,
        random_witt_tuple,
    )
    from hdflow.curves import AffineLine, ProjectiveLine
    from hdflow.flow import extend_graded
    from hdflow.graded import GradedHiggsBundle
    from hdflow.ringmath import GF, LaurentPoly, RingMatrix, Zmod
    from hdflow.serialize import (
        flat_to_json,
        graded_to_json,
        higgs_to_json,
        lifting_to_json,
        witt_tuple_to_json,
    )
    from hdflow.witt import LiftingInputTuple

    def nilpotent_transform(seed):
        higgs = random_nilpotent_higgs(random.Random(seed), 3, 2, curve="P1")
        return flat_to_json(inverse_cartier_1(higgs))

    def instance(p, rank, weight, seed, curve="P1"):
        params = CorpusParams(p=p, rank=rank, weight=weight, count=1, seed=seed, curve=curve)
        return generate(params)[0]

    def mat(ring, rows):
        """Rows of {exponent: coefficient} dicts."""
        return RingMatrix(ring, [[LaurentPoly(ring, e) for e in row] for row in rows])

    d = Zmod(3, 1)
    line = AffineLine(d)
    unipotent = GradedHiggsBundle(
        (Bundle.free(line, 1), Bundle.free(line, 1)), ((mat(d, [[{0: 1}]]),),)
    )

    def supplied(step, graded=unipotent):
        """Two steps of graded, by default the A^1 unipotent object, each
        filtered by step."""
        return {
            "schema": "hdf/1",
            "type": "flow_input",
            "graded": graded_to_json(graded),
            "filtrations": [{"steps": [step]}, {"steps": [step]}],
        }

    # O^4 written with t on the superdiagonal of its transition
    g = RingMatrix.identity(d, 4)
    for i in range(3):
        g.rows[i][i + 1] = LaurentPoly.var(d)
    unipotent_o4 = GradedHiggsBundle((Bundle(ProjectiveLine(d), 4, g),), ())
    o2_on_p1 = GradedHiggsBundle((Bundle.free(ProjectiveLine(d), 2),), ())
    # ranks (2, 1) over Z/9 with a nonzero grading-comparison defect
    ring, down = Zmod(3, 2), Zmod(3, 1)
    comparison = LiftingInputTuple(
        ring,
        (2, 1),
        (mat(ring, [[{-1: 6, 0: 1}], [{-1: 6, 0: 4}]]),),
        mat(down, [[{}, {}, {2: 1}], [{}, {}, {2: 1}], [{}, {}, {}]]),
        (mat(down, [[{0: 1}, {}], [{}, {0: 1}]]), mat(down, [[{2: 1}]])),
    )
    rng = random.Random(1)
    higgs = random_nilpotent_higgs(rng, 3, 2, curve="P1")
    semistable = instance(5, 2, 1, 2)
    transform = flat_to_json(inverse_cartier_1(semistable.total()))
    # a chart-1 connection that chart 0 does not force
    disagreeing = copy.deepcopy(transform)
    disagreeing["connection"][1][0][0] = [[0, 1]]
    supplied_flow = ["flow", "run", "--policy", "supplied", "--steps", "2"]
    runs = [
        (["gen-corpus", "--p", "3", "--rank", "2", "--weight", "1", "--seed", "2"], None, 0),
        (["gen-corpus", "--p", "3", "--rank", "1", "--weight", "0", "--curve", "A1"], None, 0),
        (["flow", "run", "--steps", "3"], graded_to_json(semistable), 0),
        (["flow", "run", "--steps", "2"], graded_to_json(instance(3, 1, 0, 2)), 0),
        (
            ["flow", "run", "--steps", "2", "--field-degree", "2"],
            graded_to_json(instance(3, 2, 1, 1, "A1")),
            0,
        ),
        (
            ["flow", "run", "--steps", "2"],
            graded_to_json(extend_graded(instance(3, 2, 1, 2), GF(3, 2))),
            0,
        ),
        # the period search tries units of End(O^4)
        (["flow", "run", "--steps", "1"], graded_to_json(unipotent_o4), 0),
        (supplied_flow, supplied([[[]], [[[0, 1]]]]), 0),
        # the same line spanned by 2 e_2, whose Smith form divides its lead
        (supplied_flow, supplied([[[]], [[[0, 2]]]]), 0),
        # the line of e_2 in O^2 on P^1, whose chart spans must glue
        (supplied_flow, supplied([[[]], [[[0, 1]]]], o2_on_p1), 0),
        # three rows for a rank-2 object
        (supplied_flow, supplied([[[]], [[[0, 1]]], [[]]]), 2),
        (["cartier", "apply"], higgs_to_json(higgs), 0),
        (
            ["cartier", "apply"],
            {
                "schema": "hdf/1",
                "type": "cartier_input",
                "higgs": higgs_to_json(higgs),
                "lifting": lifting_to_json(random_lifting(rng, higgs.bundle.curve)),
            },
            0,
        ),
        (["filtration", "compute"], transform, 0),
        (["filtration", "compute"], disagreeing, 2),
        # a transition that is not monomial, and a connection-unstable one
        (["filtration", "compute"], nilpotent_transform(302), 0),
        (["filtration", "compute"], nilpotent_transform(300), 1),
        (["witt", "lift"], witt_tuple_to_json(random_witt_tuple(rng, 7, 3, (1, 2, 1, 1))), 0),
        (["witt", "flow-step"], witt_tuple_to_json(comparison), 0),
    ]
    runs += [(["check", "--suite", suite, "--p", "3", "--seed", "1"], None, 0) for suite in SUITES]
    return runs


def _system_sample():
    """Run the system sample: every command of _cli_sample, then each
    benchmark workload's set-up at seed 1 and the first and the last op of
    each op kind with its check, as the benchmark's warm-up runs an op.
    Returns the (path, first line, name) of every library code object it
    entered.  The commands write their files into the working directory.

    Runs in a fresh interpreter (see test_every_function_is_entered), so no
    cache filled by an earlier test hides an entry, and bench/oracles.py is
    imported under its own name, which tests/oracles.py also has.  The
    library is imported here, not at the top of this file, because what its
    import runs (decorators such as cli._guard) is part of the sample."""
    from click.testing import CliRunner

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    @contextlib.contextmanager
    def recording():
        sys.setprofile(record)
        try:
            yield
        finally:
            sys.setprofile(None)

    sys.path.insert(0, str(ROOT / "bench"))
    with recording():
        from hdflow.cli import main
        import workloads
    from hdflow.errors import SearchBudgetExceeded
    from hdflow.serialize import canonical_bytes

    runs = _cli_sample()
    with recording():
        for args, doc, code in runs:
            if doc is not None:
                with open("input.json", "wb") as handle:
                    handle.write(canonical_bytes(doc))
                args = args + ["--input", "input.json"]
            result = CliRunner().invoke(main, args + ["--out", "out.json"])
            if result.exit_code != code:
                raise AssertionError("%s exited %d: %s" % (args, result.exit_code, result.output))
        for setup in workloads.WORKLOADS.values():
            kinds = {}
            for op in setup(1):
                kinds.setdefault(op.kind, []).append(op)
            for ops in kinds.values():
                for op in ops[:1] + ops[1:][-1:]:
                    try:
                        op.check(op.fn(op.fresh_input()), True)
                    except SearchBudgetExceeded:
                        pass
    sources = {str(path) for path in SOURCES}
    return sorted(
        (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
        for c in entered
        if os.path.realpath(c.co_filename) in sources
    )


def test_every_function_is_entered(tmp_path):
    """Every library function, method and nested function is entered by
    the system sample, unless NOT_ENTERED names it; a named one that the
    sample enters has to leave the list."""
    env = dict(os.environ)
    paths = [str(PACKAGE.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, __file__],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    definitions = _definitions()
    entered = {definitions.get(tuple(key)) for key in json.loads(proc.stdout)}
    names = set(definitions.values())
    assert sorted(set(NOT_ENTERED) - names) == []
    assert sorted(set(NOT_ENTERED) & entered) == []
    missed = sorted(
        name
        for name in names - entered - set(NOT_ENTERED)
        if not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__"))
    )
    assert missed == []


def _is_init_false(value):
    """A dataclass field(...) declared with init=False."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def _signatures():
    """(path, label, callee, names, defaulted) for every library callable:
    the name a call uses, its parameters in positional order and the
    defaulted ones among them, as (name, line)."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner.update((id(fn), cls) for fn in cls.body if isinstance(fn, FUNCTION_NODES))
            if _is_dataclass(cls):
                fields = [
                    node
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and not _is_init_false(node.value)
                ]
                names = [node.target.id for node in fields]
                defaulted = [(node.target.id, node.lineno) for node in fields if node.value]
                yield path, cls.name, cls.name, names, defaulted
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTION_NODES):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            names = [a.arg for a in positional + args.kwonlyargs]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            if cls is not None and fn.name == "__init__":
                callee = label = cls.name
            else:
                callee = fn.name
                label = fn.name if cls is None else "%s.%s" % (cls.name, fn.name)
            yield path, label, callee, names, [(a.arg, a.lineno) for a in defaulted]


def _passed_arguments(trees):
    """{callee: (most positional arguments, keywords)} over every call the
    given modules make, and every name they read other than as the function
    of a call, which is how a function is passed as a value; a call that
    unpacks *args or **kwargs passes everything."""
    passed, values, funcs = {}, set(), set()
    everything = float("inf")
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            funcs.add(id(node.func))
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            count, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = max(count, everything if starred else len(node.args))
            keywords = keywords | {k.arg for k in node.keywords}
            passed[name] = (count, keywords)
        for node in ast.walk(tree):
            if id(node) in funcs or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                values.add(node.id)
            elif isinstance(node, ast.Attribute):
                values.add(node.attr)
    return passed, values


def _environment_reads(tree):
    """Lines where a module reads an environment variable."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno


def test_every_parameter_is_set():
    """Every defaulted parameter has a caller in the system that sets it,
    and no setting comes from the environment instead."""
    passed, values = _passed_arguments(_caller_trees())
    classes = {
        node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    defined = {(label, name) for _, label, _, _, params in _signatures() for name, _ in params}
    assert sorted(SET_BY_TESTS.keys() - defined) == []
    unset = []
    for path, label, callee, names, defaulted in _signatures():
        if "%s.%s" % (path.stem, label) in NOT_ENTERED:
            continue
        if callee in values and callee not in classes:
            continue
        count, keywords = passed.get(callee, (0, set()))
        if None in keywords:
            continue
        for name, line in defaulted:
            if names.index(name) < count or name in keywords:
                continue
            if (label, name) not in SET_BY_TESTS:
                unset.append("%s:%d %s(%s)" % (path.name, line, label, name))
    for path in SOURCES:
        for line in _environment_reads(ast.parse(path.read_text())):
            unset.append("%s:%d environment" % (path.name, line))
    assert unset == []


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _library_fields():
    """(path, line, class, name) for every dataclass field and every
    attribute a library __init__ assigns on self."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        yield path, node.lineno, cls.name, node.target.id
            for fn in cls.body:
                if not (isinstance(fn, FUNCTION_NODES) and fn.name == "__init__"):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        yield path, node.lineno, cls.name, node.attr


def _loaded_names():
    """Attribute names read as obj.name or through getattr(obj, "name")."""
    names = set()
    for path in _searched_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def test_every_field_is_read():
    """A stored value that nothing reads is dead state: every dataclass
    field and every attribute an __init__ sets is read somewhere."""
    loaded = _loaded_names()
    unread = sorted(
        "%s:%d %s.%s" % (path.name, line, cls, name)
        for path, line, cls, name in _library_fields()
        if name not in loaded
    )
    assert unread == []


def _imported_names(tree):
    """(line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


def _exported_names(tree):
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def test_every_import_is_used():
    """A library or test module reads every name it imports, unless it
    re-exports the name through __all__."""
    unused = []
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = _exported_names(tree)
        unused += [
            "%s:%d %s" % (path.name, line, name)
            for line, name in _imported_names(tree)
            if name not in read and name not in exported
        ]
    assert unused == []


def _names_read(tree):
    """Every name a module reads: bare, as an attribute, or imported from
    the oracles module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
            names.update(alias.name for alias in node.names)
    return names


def test_every_oracle_is_used():
    """Every top-level definition in tests/oracles.py is used by another test
    module, directly or through oracles that are, so code moved there out of
    the library cannot rot unseen."""
    oracles = TESTS / "oracles.py"
    uses = {
        node.name: _names_read(node)
        for node in ast.parse(oracles.read_text()).body
        if isinstance(node, FUNCTION_NODES + (ast.ClassDef,))
    }
    reached = set()
    for path in sorted(TESTS.rglob("*.py")):
        if path != oracles:
            reached |= _names_read(ast.parse(path.read_text())) & uses.keys()
    todo = list(reached)
    while todo:
        new = uses[todo.pop()] & uses.keys() - reached
        reached |= new
        todo += new
    assert sorted(uses.keys() - reached) == []


if __name__ == "__main__":
    print(json.dumps(_system_sample()))
