"""hdflow benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload witt-lift --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; hdflow is imported from ./src.
Load is a closed loop with one client: each operation starts when the
previous one has ended, and a run repeats whole rounds of the workload's
operations until --seconds have passed.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  A wrong
answer exits nonzero without printing a result.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from gauge import NEIGHBOURS, Gauge
from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_REPEATS = 7
# gauge samples after each set-up repetition
SETUP_SAMPLES = 3
# an untraced run completes at least this many operations, so that ten or
# more latencies lie beyond op_ms_p90
MIN_OPS = 100
# share of a traced run spent on untraced rounds, the overhead baseline
UNTRACED_SHARE = 1.0 / 3.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, span group or counter, field): field is "calls", "self_s" or a
# counter kept by the tracer.
GROUP_METRICS = (
    ("ringmath.laurent_mul.calls", "ringmath.laurent_mul", "calls"),
    ("ringmath.laurent_mul.self_s", "ringmath.laurent_mul", "self_s"),
    ("ringmath.laurent_mul.term_pairs", None, "term_pairs"),
    ("ringmath.laurent_add.calls", "ringmath.laurent_add", "calls"),
    ("ringmath.laurent_add.self_s", "ringmath.laurent_add", "self_s"),
    ("ringmath.laurent_new.calls", None, "laurent_new"),
    ("ringmath.matrix_mul.calls", "ringmath.matrix_mul", "calls"),
    ("ringmath.matrix_mul.self_s", "ringmath.matrix_mul", "self_s"),
    ("ringmath.det_inverse.calls", "ringmath.det_inverse", "calls"),
    ("ringmath.det_inverse.self_s", "ringmath.det_inverse", "self_s"),
    ("ringmath.smith_form.calls", "ringmath.smith_form", "calls"),
    ("ringmath.smith_form.self_s", "ringmath.smith_form", "self_s"),
    ("ringmath.solve.calls", "ringmath.solve", "calls"),
    ("ringmath.solve.self_s", "ringmath.solve", "self_s"),
    ("ringmath.birkhoff.self_s", "ringmath.birkhoff", "self_s"),
    ("bundles.subbundle_span.calls", "bundles.subbundle_span", "calls"),
    ("bundles.subbundle_span.self_s", "bundles.subbundle_span", "self_s"),
    ("bundles.same_as.calls", "bundles.same_as", "calls"),
    ("bundles.same_as.self_s", "bundles.same_as", "self_s"),
    ("cartier.inverse_cartier_1.calls", "cartier.inverse_cartier_1", "calls"),
    ("cartier.inverse_cartier_1.self_s", "cartier.inverse_cartier_1", "self_s"),
    ("cartier.p_curvature.self_s", "cartier.p_curvature", "self_s"),
    ("cartier.lifting_change_transport.self_s", "cartier.lifting_change_transport", "self_s"),
    ("graded.grade.self_s", "graded.grade", "self_s"),
    ("graded.isomorphic.calls", "graded.isomorphic", "calls"),
    ("graded.isomorphic.self_s", "graded.isomorphic", "self_s"),
    ("filtration.semistable.calls", "filtration.semistable", "calls"),
    ("filtration.semistable.self_s", "filtration.semistable", "self_s"),
    ("filtration.simpson.calls", "filtration.simpson", "calls"),
    ("filtration.simpson.self_s", "filtration.simpson", "self_s"),
    ("flow.flow_step.self_s", "flow.flow_step", "self_s"),
    ("flow.detect_period.self_s", "flow.detect_period", "self_s"),
    ("flow.relative_frobenius.self_s", "flow.relative_frobenius", "self_s"),
    ("flow.pack_unpack.self_s", "flow.pack_unpack", "self_s"),
    ("witt.gamma_apply.calls", "witt.gamma_apply", "calls"),
    ("witt.gamma_apply.self_s", "witt.gamma_apply", "self_s"),
    ("witt.gamma_relations.self_s", "witt.gamma_relations", "self_s"),
    ("witt.construct.self_s", "witt.construct", "self_s"),
    ("witt.equivalence.self_s", "witt.equivalence", "self_s"),
    ("witt.taylor_transition.calls", "witt.taylor_transition", "calls"),
    ("witt.taylor_transition.self_s", "witt.taylor_transition", "self_s"),
    ("witt.mod_reduction.self_s", "witt.mod_reduction", "self_s"),
    ("witt.w2_flow_step.self_s", "witt.w2_flow_step", "self_s"),
    ("serialize.emit.self_s", "serialize.emit", "self_s"),
    ("serialize.emit.bytes", None, "emit_bytes"),
    ("serialize.parse.self_s", "serialize.parse", "self_s"),
)

TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def per_layer_specs():
    specs = []
    for layer in LAYERS:
        specs += [("%s.busy_s" % layer, "s"), ("%s.self_s" % layer, "s")]
    specs += [(name, _unit(name)) for name, _, _ in GROUP_METRICS]
    specs.append(("corpus.generate.self_s", "s"))
    specs += list(TRACE_METRICS)
    return specs


def _fresh_import():
    """Import the benchmark's workloads, and through them every hdflow
    layer, as if for the first time; return (start, seconds taken)."""
    for name in list(sys.modules):
        if name in ("hdflow", "workloads", "oracles") or name.startswith("hdflow."):
            del sys.modules[name]
    t0 = time.perf_counter()
    import workloads  # noqa: F401

    return t0, time.perf_counter() - t0


def import_library(gauge):
    """Import hdflow from this checkout's src, never from elsewhere,
    SETUP_REPEATS times afresh; return each import's (start, seconds).
    The last import is the one the run uses."""
    if not (SRC / "hdflow" / "__init__.py").is_file():
        sys.exit("bench: no hdflow package under %s; run from a source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    gauge.sample(NEIGHBOURS)
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(_fresh_import())
        gauge.sample(SETUP_SAMPLES)
    import hdflow

    if Path(hdflow.__file__).resolve().parent != (SRC / "hdflow").resolve():
        sys.exit("bench: hdflow was imported from %s, not from %s" % (hdflow.__file__, SRC))
    return times


def scaled(gauge, timed):
    """Scale (start, seconds) pairs to the gauge's reference speed."""
    return [seconds * gauge.factors(t0)[0] for t0, seconds in timed]


class Failure(Exception):
    """The operations that exhausted the search budget changed between
    rounds."""


class RunState:
    """What a run has measured so far, across its untraced and traced
    phases."""

    def __init__(self):
        self.first_round = True
        self.failing = None  # op names that failed in the first round
        self.failure_classes = {}
        self.attempted = 0
        self.failed = 0


def run_rounds(ops, seconds, state, tracer=None, min_ops=0, gauge=None):
    """Repeat whole rounds until `seconds` have passed and `min_ops`
    operations have completed; at least one round.
    Returns per-round wall and CPU times (sums over the round's timed
    operations) and the latencies of completed operations, scaled to the
    gauge's reference speed when a gauge is given (raw otherwise)."""
    from hdflow.errors import SearchBudgetExceeded

    clock, cpu = time.perf_counter, time.process_time
    records = []  # (round, start, wall, cpu, completed)
    rounds = done = 0
    start = clock()
    while True:
        failing = set()
        for op in ops:
            arg = op.fresh_input()
            if tracer is not None:
                tracer.paused[0] = False
            c0, t0 = cpu(), clock()
            try:
                out = op.fn(arg)
                err = None
            except SearchBudgetExceeded as exc:
                err = exc
            t1, c1 = clock(), cpu()
            if tracer is not None:
                tracer.paused[0] = True
            records.append((rounds, t0, t1 - t0, c1 - c0, err is None))
            state.attempted += 1
            if err is not None:
                state.failed += 1
                failing.add(op.name)
                state.failure_classes[op.name] = type(err).__name__
            else:
                done += 1
                op.check(out, state.first_round)
            if gauge is not None:
                gauge.maybe_sample()
        if state.failing is None:
            state.failing = failing
        elif failing != state.failing:
            raise Failure("budget failures changed between rounds: %s vs %s"
                          % (sorted(failing), sorted(state.failing)))
        state.first_round = False
        rounds += 1
        if clock() - start >= seconds and done >= min_ops:
            break
    if gauge is not None:
        gauge.sample()
    walls, cpus, latencies = [0.0] * rounds, [0.0] * rounds, []
    for k, t0, wall, cpu_time, completed in records:
        fw, fc = gauge.factors(t0) if gauge is not None else (1.0, 1.0)
        walls[k] += wall * fw
        cpus[k] += cpu_time * fc
        if completed:
            latencies.append(wall * fw)
    return walls, cpus, latencies


def set_up(setup, seed, gauge):
    """Generate the inputs and warm up on the first op of every kind; done
    SETUP_REPEATS times, the last inputs are kept.  Returns the ops and
    each repetition's (start, seconds).  A budget failure in the warm-up
    is left to the timed rounds, which count it."""
    from hdflow.errors import SearchBudgetExceeded

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = setup(seed)
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.check(op.fn(op.fresh_input()), True)
                except SearchBudgetExceeded:
                    pass
        times.append((t0, time.perf_counter() - t0))
        gauge.sample(SETUP_SAMPLES)
    return ops, times


def end_to_end(import_times, setup_times, walls, cpus, latencies):
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p90": 1000.0 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup_summary, traced_summary, rounds, untraced_walls, traced_walls):
    s_names, s_layers, _ = setup_summary
    names, layers, counts = traced_summary
    out = {}
    for layer in LAYERS:
        if layer == "corpus":
            busy, own = s_layers[layer]
            busy, own = busy / SETUP_REPEATS, own / SETUP_REPEATS
        else:
            busy, own = layers[layer]
            busy, own = busy / rounds, own / rounds
        out["%s.busy_s" % layer] = busy
        out["%s.self_s" % layer] = own
    for metric, group, field in GROUP_METRICS:
        if group is None:
            value = counts[field]
        else:
            calls, own = names.get(group, (0, 0.0))
            value = calls if field == "calls" else own
        out[metric] = value / rounds
    out["corpus.generate.self_s"] = s_names.get("corpus.generate", (0, 0.0))[1] / SETUP_REPEATS
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead"] = traced / untraced
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gauge = Gauge()
    import_times = import_library(gauge)
    from oracles import OracleMismatch
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit("bench: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    setup = WORKLOADS[args.workload]
    state = RunState()
    try:
        if not args.trace:
            ops, setup_times = set_up(setup, args.seed, gauge)
            walls, cpus, latencies = run_rounds(ops, args.seconds, state, min_ops=MIN_OPS,
                                                gauge=gauge)
            metrics = end_to_end(scaled(gauge, import_times), scaled(gauge, setup_times),
                                 walls, cpus, latencies)
            units = dict(END_TO_END)
        else:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            ops, _ = set_up(setup, args.seed, gauge)
            setup_summary = tracer.summary()
            tracer.clear()
            tracer.uninstall()
            t0 = time.perf_counter()
            untraced_walls, _, _ = run_rounds(ops, args.seconds * UNTRACED_SHARE, state)
            left = args.seconds - (time.perf_counter() - t0)
            tracer.install()
            tracer.paused[0] = True
            traced_walls, _, _ = run_rounds(ops, left, state, tracer)
            tracer.uninstall()
            metrics = per_layer(setup_summary, tracer.summary(), len(traced_walls),
                                untraced_walls, traced_walls)
            units = dict(per_layer_specs())
    except (OracleMismatch, AssertionError, Failure) as exc:
        sys.exit("bench: %s: check failed: %s" % (args.workload, exc))

    classes = sorted(set(state.failure_classes.values()))
    print("bench: %s seed %d: %d attempted, %d failed %s %s; gauge kernel median %.3f ms"
          % (args.workload, args.seed, state.attempted, state.failed, classes,
             sorted(state.failing or ()), 1000 * statistics.median(gauge.walls)),
          file=sys.stderr)
    result = {
        "correct": True,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
