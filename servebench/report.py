"""Reconcile layer times with end-to-end figures, and price tracing.

    python3 servebench/report.py --workload q21-write --seed 1 [--seconds 14]

Runs the workload three times untraced and three times traced on one
seed, alternating, and prints

* each end-to-end metric's median untraced and traced (the tracing
  overhead);
* for each request latency, the layer medians of the last traced run
  that make it up, and the share of the traced figure they account for
  (the rest is the asyncio loop, transport and client-side decoding);
* for set-up, recovery and batch evaluation, the time the top-level
  layer spans of each such process cover (median or fastest, as the
  metric takes), against the traced figure; the rest is interpreter
  start-up, process exit and output;
* the per-layer metrics of the last traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PAIRS = 3

#: request latency -> [(layer metric, times per request)].
PARTS = {
    "read_p50_ms": [("protocol.decode_ms", 1), ("view.read_ms", 1),
                    ("protocol.encode_ms", 1)],
    "magic_p50_ms": [("protocol.decode_ms", 1), ("view.magic_ms", 1),
                     ("protocol.encode_ms", 1)],
    "insert_p50_ms": [("protocol.decode_ms", 1), ("incremental.insert_ms", 1),
                      ("view.publish_ms", 1), ("wal.append_ms", 1),
                      ("protocol.encode_ms", 2)],
    "delete_p50_ms": [("protocol.decode_ms", 1), ("incremental.delete_ms", 1),
                      ("view.publish_ms", 1), ("wal.append_ms", 1),
                      ("protocol.encode_ms", 2)],
}

#: process metric -> (the process roles it times, its statistic).
ROLES = {
    "setup_s": (("serve", "setup"), statistics.median),
    "recover_s": (("recover",), min),
    "eval_s": (("eval",), min),
}


def bench(workload: str, seed: int, seconds: float, trace: int):
    """One run: ``(end-to-end metrics, as measured or None, per-layer
    metrics or None)``; a traced run reports its end-to-end metrics on
    standard error, at the reference speed and as measured."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        return values, None, None
    found = {}
    for line in proc.stderr.splitlines():
        for key, marker in (
            ("scaled", "servebench: end-to-end (traced): "),
            ("raw", "servebench: end-to-end as measured (traced): "),
        ):
            if line.startswith(marker):
                metrics = json.loads(line[len(marker):])
                found[key] = {k: v["value"] for k, v in metrics.items()}
    return found["scaled"], found["raw"], values


def covered_ms(span_file: str) -> dict:
    """Per process role, each process's top-level layer time before it
    decodes its first request (that is, before it serves)."""
    with open(span_file, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    served = {}
    for record in records:
        if record["kind"] == "protocol.decode":
            root = record["parent"]
            served[root] = min(served.get(root, record["start"]),
                               record["start"])
    by_role: dict = {}
    roots = {r["span"]: r["role"] for r in records if r["depth"] == 0}
    totals = dict.fromkeys(roots, 0.0)
    for record in records:
        if record["depth"] == 1 and record["start"] < served.get(
            record["parent"], float("inf")
        ):
            totals[record["parent"]] += record["duration_ms"]
    for root, total in totals.items():
        by_role.setdefault(roots[root], []).append(total)
    return by_role


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    args = parser.parse_args(argv)
    plain, traced = [], []
    for __ in range(PAIRS):
        plain.append(bench(args.workload, args.seed, args.seconds, 0)[0])
        end_to_end, measured, layers = bench(
            args.workload, args.seed, args.seconds, 1
        )
        traced.append(end_to_end)
    print(f"{args.workload}, seed {args.seed}, medians of {PAIRS} runs each")
    print(f"{'metric':<16}{'untraced':>12}{'traced':>12}{'overhead':>10}")
    for name in plain[0]:
        off = statistics.median(run[name] for run in plain)
        on = statistics.median(run[name] for run in traced)
        print(f"{name:<16}{off:>12.3f}{on:>12.3f}{on / off - 1:>+10.1%}")
    print()
    print("last traced run, as measured:")
    print(f"{'metric':<16}{'traced ms':>12}{'layers ms':>12}{'share':>8}  parts")
    for name, parts in PARTS.items():
        whole = measured[name]
        total = sum(layers[part] * times for part, times in parts)
        names = " + ".join(
            part if times == 1 else f"{times}x {part}" for part, times in parts
        )
        print(f"{name:<16}{whole:>12.2f}{total:>12.2f}{total / whole:>8.0%}"
              f"  {names}")
    covered = covered_ms(
        os.path.join(
            BENCH_DIR, ".work", f"trace-{args.workload}-{args.seed}.jsonl"
        )
    )
    for name, (roles, statistic) in ROLES.items():
        whole = measured[name] * 1000.0
        total = statistic([ms for role in roles for ms in covered[role]])
        print(f"{name:<16}{whole:>12.2f}{total:>12.2f}{total / whole:>8.0%}"
              f"  top-level spans of {'/'.join(roles)} processes")
    print()
    print("per-layer metrics of the last traced run:")
    for name, value in layers.items():
        print(f"  {name:<32}{value:>14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
