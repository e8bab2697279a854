"""The benchmark's own tests: a short run of every workload.

    python3 bench/smoke.py

For each workload this checks that
  * the output has exactly the keys correct, attempted, failed, metrics, and
    every metric carries a number and the unit BENCHMARK.json gives it;
  * the printed metric names equal the end_to_end (untraced) and per_layer
    (traced) names in BENCHMARK.json;
  * two traced runs with the same seed give the same deterministic counts
    (the *.calls counts, term_pairs, serialize.emit.bytes) and the same
    share of failed operations;
  * a run with a second seed passes every correctness check.
Exits nonzero, naming what broke, when any of these fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SECONDS = 0.5
SEED = 1
HELD_OUT_SEED = 4242


def run(workload, seed, seconds, trace):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                    proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_format(result, specs, what):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], what
    assert result["correct"] is True, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], what
    want = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    assert set(got) == set(want), "%s: metric names differ from BENCHMARK.json: %s" % (
        what, sorted(set(got) ^ set(want)))
    for name, entry in got.items():
        assert sorted(entry) == ["unit", "value"], (what, name)
        assert entry["unit"] == want[name], (what, name, entry["unit"])
        assert isinstance(entry["value"], (int, float)), (what, name)


def deterministic(result):
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if name.endswith(".calls") or name.endswith(".term_pairs")
        or name == "serialize.emit.bytes"
    }


def main():
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        try:
            plain = run(workload, SEED, SECONDS, 0)
            check_format(plain, SPEC["end_to_end"], workload)
            traced = [run(workload, SEED, SECONDS, 1) for _ in range(2)]
            for t in traced:
                check_format(t, SPEC["per_layer"], workload + " traced")
            a, b = (deterministic(t) for t in traced)
            diff = sorted(k for k in a if a[k] != b[k])
            assert not diff, "%s: counts differ between traced runs: %s" % (workload, diff)
            shares = {r["failed"] / r["attempted"] for r in [plain] + traced}
            assert len(shares) == 1, "%s: failed share differs: %s" % (workload, shares)
            other = run(workload, HELD_OUT_SEED, SECONDS, 0)
            check_format(other, SPEC["end_to_end"], workload + " held-out seed")
            print("ok   %-14s attempted %d failed %d" % (workload, plain["attempted"],
                                                        plain["failed"]))
        except (AssertionError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
            print("FAIL %-14s %s" % (workload, exc))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
