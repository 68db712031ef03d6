"""Self-tests of the benchmark itself (about six minutes).

    python3 servebench/selftest.py

1. The checks catch a single wrong row: one short run per workload,
   then each kind of served answer -- a view read, a magic read, the
   initial, final and recovered views, a pushed delta and the
   ``repro run`` output -- is corrupted by one row in turn, and every
   corruption must be reported while the untouched run passes.
2. Traced counts repeat exactly: two traced runs of one seed must
   report the same per-layer counts and the same per-request counter
   deltas (``serve.wal.fsyncs`` excepted: under ``--fsync interval``
   it follows the wall clock).

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import run as bench  # noqa: E402
from layers import COUNTS  # noqa: E402
from oracle import ORACLES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 1.0


def corruptions(log: bench.RunLog):
    """``(label, corrupted copy)`` for one wrong row in each answer kind."""
    bogus_node = "not-a-node"
    bogus_row = next(iter(log.final_view[1]))

    def wrong(rows: set) -> set:
        """Drop one row, or add a bogus one to an empty answer."""
        rows = set(rows)
        if rows:
            rows.remove(sorted(rows)[0])
        else:
            rows.add((bogus_node,) * len(bogus_row))
        return rows

    for kind in ("view", "magic_src", "magic_pair", "magic_all"):
        indices = [
            i for i, r in enumerate(log.records)
            if r.kind == kind and r.block is not None and r.rows is not None
        ]
        if indices:
            bad = copy.deepcopy(log)
            bad.records[indices[0]].rows = wrong(bad.records[indices[0]].rows)
            yield f"{kind} read", bad
    bad = copy.deepcopy(log)
    epoch, rows = bad.initial_view
    bad.initial_view = (epoch, wrong(rows))
    yield "initial view", bad
    bad = copy.deepcopy(log)
    epoch, rows = bad.final_view
    bad.final_view = (epoch, wrong(rows))
    yield "final view", bad
    bad = copy.deepcopy(log)
    acked, epoch, rows = bad.recovered[-1]
    bad.recovered[-1] = (acked, epoch, wrong(rows))
    yield "recovered view", bad
    bad = copy.deepcopy(log)
    acked, epoch, rows = bad.recovered[0]
    bad.recovered[0] = (acked, epoch - 1, rows)
    yield "recovered epoch", bad
    bad = copy.deepcopy(log)
    event = bad.deltas[0]
    event["added"] = event["added"][1:] or [[bogus_node] * len(bogus_row)]
    yield "pushed delta", bad
    bad = copy.deepcopy(log)
    bad.evaluations[0] = wrong(bad.evaluations[0])
    yield "repro run output", bad


def test_checks_catch_one_wrong_row(name: str) -> list[str]:
    workload = WORKLOADS[name]
    work = os.path.join(BENCH_DIR, ".work", f"selftest-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        log, __ = bench.drive(workload, SEED, SECONDS, False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    oracle = ORACLES[workload.goal](log.nodes)
    failures = []
    clean = bench.check(log, oracle)
    if clean:
        failures.append(f"{name}: untouched run reported {clean}")
    for label, bad in corruptions(log):
        problems = bench.check(bad, oracle)
        print(f"  {name}: corrupted {label}: {problems[:1]}")
        if not problems:
            failures.append(f"{name}: a wrong row in the {label} passed")
    return failures


def traced(name: str) -> tuple[dict, list]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", name, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    ops_file = os.path.join(
        BENCH_DIR, ".work", f"trace-{name}-{SEED}.ops.jsonl"
    )
    with open(ops_file, encoding="utf-8") as handle:
        ops = [json.loads(line) for line in handle]
    for op in ops:
        op["counters"].pop("serve.wal.fsyncs", None)
    return {k: metrics[k]["value"] for k in COUNTS}, ops


def test_traced_counts_repeat(name: str) -> list[str]:
    first, first_ops = traced(name)
    second, second_ops = traced(name)
    print(f"  {name}: counts {first}")
    failures = []
    if first != second:
        failures.append(f"{name}: counts differ: {first} vs {second}")
    if first_ops != second_ops:
        failures.append(f"{name}: per-request counter deltas differ")
    return failures


def main() -> int:
    failures = []
    for name in WORKLOADS:
        print(f"checks catch one wrong row: {name}")
        failures += test_checks_catch_one_wrong_row(name)
        print(f"traced counts repeat: {name}")
        failures += test_traced_counts_repeat(name)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
