"""Per-layer metrics of a traced run, from the launcher's span files.

Each traced process (``launch.py``) leaves one span file whose root
span names its role: ``setup`` (set-up servers), ``serve`` (the traffic
server), ``recover`` (``--resume`` servers) or ``eval`` (``repro run``).
This module merges them into one file ``repro profile --from`` reads
and reduces them to the ``per_layer`` metrics of ``BENCHMARK.json``:
times are medians over calls, counts are means per call.
"""

from __future__ import annotations

import json
import statistics

#: name -> (unit, better), in BENCHMARK.json order.
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "io.load_ms": ("ms", "lower"),
    "evaluation.fixpoint_ms": ("ms", "lower"),
    "evaluation.rule_firings": ("count", "lower"),
    "evaluation.index_probes": ("count", "lower"),
    "incremental.seed_ms": ("ms", "lower"),
    "incremental.insert_ms": ("ms", "lower"),
    "incremental.insert_touched": ("count", "lower"),
    "incremental.delete_ms": ("ms", "lower"),
    "incremental.delete_touched": ("count", "lower"),
    "incremental.delete_kept_ratio": ("ratio", "higher"),
    "view.publish_ms": ("ms", "lower"),
    "view.read_ms": ("ms", "lower"),
    "view.rows_scanned_per_row": ("rows/row", "lower"),
    "view.magic_ms": ("ms", "lower"),
    "magic.rewrite_ms": ("ms", "lower"),
    "magic.fixpoint_ms": ("ms", "lower"),
    "magic.demand_ratio": ("ratio", "lower"),
    "protocol.decode_ms": ("ms", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "protocol.read_bytes": ("bytes", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.record_bytes": ("bytes", "lower"),
    "wal.fsyncs": ("per_100_writes", "lower"),
    "wal.rotate_ms": ("ms", "lower"),
    "wal.scan_ms": ("ms", "lower"),
    "wal.replayed": ("count", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "server.query_p50_ms": ("ms", "lower"),
    "server.insert_p50_ms": ("ms", "lower"),
    "server.delete_p50_ms": ("ms", "lower"),
}

#: Per-layer metrics that are counts, not times: two traced runs of one
#: seed must report them identically (fsyncs follow the wall clock).
COUNTS = (
    "evaluation.rule_firings",
    "evaluation.index_probes",
    "incremental.insert_touched",
    "incremental.delete_touched",
    "incremental.delete_kept_ratio",
    "view.rows_scanned_per_row",
    "magic.demand_ratio",
    "protocol.read_bytes",
    "wal.record_bytes",
    "wal.replayed",
    "checkpoint.bytes",
)


def load_processes(paths: list[str]) -> list[list[dict]]:
    processes = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            processes.append([json.loads(line) for line in handle])
    return processes


def merge(processes: list[list[dict]], out: str) -> None:
    """One span file for all processes, span ids made unique."""
    offset = 0
    with open(out, "w", encoding="utf-8") as handle:
        for records in processes:
            for record in records:
                shifted = dict(record, span=record["span"] + offset)
                if record["parent"] is not None:
                    shifted["parent"] = record["parent"] + offset
                handle.write(json.dumps(shifted) + "\n")
            offset += len(records)


class Spans:
    """Span records by kind, with self times, filtered by role."""

    def __init__(self, processes: list[list[dict]]) -> None:
        self.by_kind: dict[str, list[dict]] = {}
        for records in processes:
            role = records[0]["role"]
            child_time: dict[int, float] = {}
            for record in records:
                record["role"] = role
                record["ms"] = (record["end"] - record["start"]) * 1000.0
                if record["parent"] is not None:
                    child_time[record["parent"]] = (
                        child_time.get(record["parent"], 0.0) + record["ms"]
                    )
            for record in records:
                record["self_ms"] = record["ms"] - child_time.get(
                    record["span"], 0.0
                )
                self.by_kind.setdefault(record["kind"], []).append(record)

    def get(self, kind: str, roles=None, **match) -> list[dict]:
        return [
            record
            for record in self.by_kind.get(kind, [])
            if (roles is None or record["role"] in roles)
            and all(record.get(k) == v for k, v in match.items())
        ]


def _median(records, field="ms") -> float:
    values = [record[field] for record in records]
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _counter(record, *names) -> int:
    counters = record.get("counters", {})
    return sum(counters.get(name, 0) for name in names)


def layer_metrics(timings: dict, base: str) -> dict:
    """The per-layer metrics; writes ``base.jsonl`` (spans of every
    process) and ``base.ops.jsonl`` (per-request counter deltas)."""
    processes = load_processes(timings["trace_files"])
    merge(processes, base + ".jsonl")
    with open(base + ".ops.jsonl", "w", encoding="utf-8") as handle:
        for path in timings["trace_files"]:
            with open(path + ".ops.jsonl", encoding="utf-8") as ops:
                handle.write(ops.read())
    spans = Spans(processes)
    serve = ("serve",)
    loads = [
        sum(
            r["end"] - r["start"]
            for r in records
            if r["kind"] in ("io.load_program", "io.load_graph")
        )
        * 1000.0
        for records in processes
    ]
    fixpoints = spans.get("evaluation.fixpoint")
    inserts = spans.get("incremental.apply", serve, update="insert")
    deletes = spans.get("incremental.apply", serve, update="delete")
    overdeleted = sum(r["overdeleted"] for r in deletes)
    magic = spans.get("view.query_magic", serve)
    reads = spans.get("view.query_view", serve, bound=True)
    appends = spans.get("wal.append", serve)
    verbs = timings["stats"]["verbs"]
    values = {
        "cli.import_ms": _median(spans.get("cli.import")),
        "io.load_ms": statistics.median(loads),
        "evaluation.fixpoint_ms": _median(fixpoints),
        "evaluation.rule_firings": _mean(
            _counter(r, "datalog.rule_firings") for r in fixpoints
        ),
        "evaluation.index_probes": _mean(
            _counter(r, "index.probes", "index.delta_probes")
            for r in fixpoints
        ),
        "incremental.seed_ms": _median(
            spans.get("incremental.session"), "self_ms"
        ),
        "incremental.insert_ms": _median(inserts),
        "incremental.insert_touched": _mean(
            _counter(r, "incremental.delta_tuples_touched") for r in inserts
        ),
        "incremental.delete_ms": _median(deletes),
        "incremental.delete_touched": _mean(
            _counter(r, "incremental.delta_tuples_touched") for r in deletes
        ),
        "incremental.delete_kept_ratio": (
            (overdeleted - sum(r["rederived"] for r in deletes)) / overdeleted
            if overdeleted
            else 1.0
        ),
        "view.publish_ms": _median(spans.get("view.apply", serve), "self_ms"),
        "view.read_ms": _median(reads),
        "view.rows_scanned_per_row": sum(r["scanned"] for r in reads)
        / max(1, sum(r["returned"] for r in reads)),
        "view.magic_ms": _median(magic),
        "magic.rewrite_ms": _median(spans.get("magic.rewrite", serve)),
        "magic.fixpoint_ms": _median(spans.get("magic.fixpoint", serve)),
        "magic.demand_ratio": _mean(
            r["derived"] / r["view_tuples"] for r in magic
        ),
        "protocol.decode_ms": _median(spans.get("protocol.decode", serve)),
        "protocol.encode_ms": _median(spans.get("protocol.encode", serve)),
        "protocol.read_bytes": _mean(
            r["bytes"] for r in spans.get("protocol.encode", serve, read="view")
        ),
        "wal.append_ms": _median(appends),
        "wal.record_bytes": _mean(r["bytes"] for r in appends),
        "wal.fsyncs": 100.0
        * sum(_counter(r, "serve.wal.fsyncs") for r in appends)
        / max(1, len(appends)),
        "wal.rotate_ms": _median(spans.get("wal.rotate", serve)),
        "wal.scan_ms": _median(spans.get("wal.scan", ("recover",))),
        "wal.replayed": _mean(
            r["replayed"] for r in spans.get("wal.recover", ("recover",))
        ),
        "checkpoint.save_ms": _median(spans.get("checkpoint.save")),
        "checkpoint.load_ms": _median(spans.get("checkpoint.load")),
        "checkpoint.bytes": _mean(
            r["bytes"] for r in spans.get("checkpoint.save")
        ),
        "server.query_p50_ms": verbs["query"]["p50_ms"],
        "server.insert_p50_ms": verbs["insert"]["p50_ms"],
        "server.delete_p50_ms": verbs["delete"]["p50_ms"],
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, __) in PER_LAYER.items()
    }
