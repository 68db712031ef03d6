"""Traced launcher: run ``repro.cli.main`` with timing spans around each layer.

Usage::

    python3 servebench/launch.py OUT.jsonl ROLE CLI-ARGS...

behaves like ``python3 -m repro CLI-ARGS...`` but first wraps the
public entry points of every layer (at the attribute each caller looks
up) in spans, turns on the ``repro.obs.metrics`` registry, and attaches
to each span the counter deltas it saw.  On exit -- or on ``SIGUSR1``,
which the benchmark sends just before it SIGKILLs the traffic server --
it writes:

* ``OUT.jsonl``: the spans, in the JSONL shape ``repro profile --from``
  reads, under one root span for the process (``role`` attribute);
* ``OUT.ops.jsonl``: per served request, the counter deltas between its
  decode and the next request's decode.

The file is written to a temporary name and renamed, so its presence
means it is complete.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys
import time

_started = time.perf_counter()
import repro.cli  # noqa: E402  (timed: the fresh-interpreter import)

_import_seconds = time.perf_counter() - _started

from repro.obs import metrics as _metrics  # noqa: E402


def counters() -> dict:
    return _metrics.metrics.snapshot()["counters"]


def delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


class Tracer:
    """Flat span records with parent links; one open-span stack.

    Also keeps per-request counter deltas: the client is closed-loop,
    so everything between two request decodes belongs to the first.
    """

    def __init__(self, role: str) -> None:
        self.stack: list[dict] = []
        self.records: list[dict] = []
        self.ops: list[dict] = []
        self.request: dict | None = None  # the request being served
        self.request_counters = counters()
        self.root = self.open("process", role=role)
        self.root["start"] = _started
        imported = self.open("cli.import")
        self.close(imported)
        imported["start"] = _started
        imported["end"] = _started + _import_seconds

    def open(self, kind: str, **attributes) -> dict:
        parent = self.stack[-1] if self.stack else None
        record = {
            "span": len(self.records),
            "parent": None if parent is None else parent["span"],
            "depth": len(self.stack),
            "kind": kind,
            "start": time.perf_counter(),
            "end": None,
            **attributes,
        }
        self.records.append(record)
        self.stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        while self.stack and self.stack[-1] is not record:
            self.stack.pop()
        if self.stack:
            self.stack.pop()

    def inside(self, kind: str) -> bool:
        return any(record["kind"] == kind for record in self.stack)

    def next_request(self, request: dict | None) -> None:
        """Close the current request's counter deltas; start ``request``."""
        now = counters()
        if self.request is not None:
            self.request["counters"] = delta(self.request_counters, now)
            self.ops.append(self.request)
        self.request, self.request_counters = request, now

    def write(self, path: str) -> None:
        now = time.perf_counter()
        temporary = path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            for record in self.records:
                out = dict(record)
                if out["end"] is None:
                    out["end"] = now
                out["duration_ms"] = (out["end"] - out["start"]) * 1000.0
                handle.write(json.dumps(out, default=repr) + "\n")
        with open(path + ".ops.jsonl", "w", encoding="utf-8") as handle:
            for op in self.ops:
                handle.write(json.dumps(op) + "\n")
        os.replace(temporary, path)


def wrap(owner, name: str, kind, tracer: Tracer, annotate=None,
         count: bool = True) -> None:
    """Replace ``owner.name`` by a spanned call of the original.

    ``kind`` is a span kind or a function of the tracer giving one;
    ``annotate(record, args, kwargs, result)`` adds attributes after
    the call; ``count`` attaches the registry's counter deltas.
    """
    original = getattr(owner, name)

    def spanned(*args, **kwargs):
        label = kind(tracer) if callable(kind) else kind
        before = counters() if count else None
        record = tracer.open(label)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(record)
        if count:
            changed = delta(before, counters())
            if changed:
                record["counters"] = changed
        if annotate is not None:
            annotate(record, args, kwargs, result)
        return result

    setattr(owner, name, spanned)


def install(tracer: Tracer) -> None:
    from repro.datalog import evaluation, incremental, magic
    from repro.datalog.incremental import IncrementalSession
    from repro.guard import MaintenanceCheckpoint
    from repro.serve import protocol, wal
    from repro.serve.view import LiveView
    from repro.serve.wal import WriteAheadLog

    def idb_size(relations) -> int:
        return sum(len(rows) for rows in relations.values())

    # repro.io: program and graph load, as the CLI looks them up.
    wrap(repro.cli, "_load_program_or_library", "io.load_program", tracer)
    wrap(repro.cli, "load_digraph", "io.load_graph", tracer)

    # repro.datalog.evaluation: every fixpoint, wherever it is called
    # from; under a magic read it is the magic program's fixpoint.
    def fixpoint_kind(tracer: Tracer) -> str:
        if tracer.inside("view.query_magic"):
            return "magic.fixpoint"
        return "evaluation.fixpoint"

    def fixpoint_size(record, args, kwargs, result):
        record["tuples"] = idb_size(result.relations)

    for module in (repro.cli, incremental, evaluation):
        wrap(module, "evaluate", fixpoint_kind, tracer, fixpoint_size)

    # repro.datalog.incremental / provenance: seeding and maintenance.
    wrap(IncrementalSession, "__init__", "incremental.session", tracer)

    def maintenance(record, args, kwargs, result):
        record["update"] = result.kind
        record["overdeleted"] = idb_size(result.overdeleted)
        record["rederived"] = idb_size(result.rederived)

    wrap(IncrementalSession, "apply", "incremental.apply", tracer, maintenance)

    # repro.serve.view: publish, view reads, magic reads.
    wrap(LiveView, "apply", "view.apply", tracer)

    def view_read(record, args, kwargs, result):
        snapshot = args[1] if len(args) > 1 else kwargs["snapshot"]
        bind = args[2] if len(args) > 2 else kwargs.get("bind")
        record["scanned"] = len(snapshot.goal_rows)
        record["returned"] = len(result)
        record["bound"] = any(entry is not None for entry in bind or ())

    wrap(LiveView, "query_view", "view.query_view", tracer, view_read)

    def magic_read(record, args, kwargs, result):
        snapshot = args[1] if len(args) > 1 else kwargs["snapshot"]
        record["view_tuples"] = idb_size(snapshot.relations)
        record["derived"] = idb_size(result.result.relations)

    wrap(LiveView, "query_magic", "view.query_magic", tracer, magic_read)

    # repro.datalog.magic: the rewrite (query() imports it per call).
    wrap(magic, "magic_rewrite", "magic.rewrite", tracer)

    # repro.serve.protocol: request decode and message encode.
    def decoded(record, args, kwargs, result):
        tracer.next_request({
            "id": result.get("id"),
            "op": result["op"],
            "magic": result.get("magic"),
            "bound": any(b is not None for b in result.get("bind") or ()),
        })
        record["request"] = result.get("id")
        record["op"] = result["op"]

    wrap(protocol, "parse_request", "protocol.decode", tracer, decoded,
         count=False)

    def encoded(record, args, kwargs, result):
        message = args[0]
        record["bytes"] = len(result)
        if message.get("op") == "query":
            # The benchmark's own whole-view reads are not view reads.
            if message.get("magic"):
                record["read"] = "magic"
            elif tracer.request and tracer.request["bound"]:
                record["read"] = "view"
            else:
                record["read"] = "full"

    wrap(protocol, "encode", "protocol.encode", tracer, encoded, count=False)

    # repro.serve.wal: append, rotation, recovery scan and replay.
    def appended(record, args, kwargs, result):
        record["bytes"] = len(args[1].to_payload()) + 8

    wrap(WriteAheadLog, "append", "wal.append", tracer, appended)
    wrap(WriteAheadLog, "rotate", "wal.rotate", tracer)
    wrap(wal, "scan_wal", "wal.scan", tracer)

    def recovered(record, args, kwargs, result):
        record["replayed"] = result[2].replayed

    wrap(wal, "recover", "wal.recover", tracer, recovered)

    # repro.guard: maintenance checkpoints.
    def saved(record, args, kwargs, result):
        record["bytes"] = os.path.getsize(args[1])

    wrap(MaintenanceCheckpoint, "save", "checkpoint.save", tracer, saved)
    load = MaintenanceCheckpoint.__dict__["load"].__func__

    def load_spanned(cls, path):
        record = tracer.open("checkpoint.load")
        try:
            return load(cls, path)
        finally:
            tracer.close(record)

    MaintenanceCheckpoint.load = classmethod(load_spanned)


def main() -> int:
    out, role, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    _metrics.enable_metrics()
    tracer = Tracer(role)
    install(tracer)
    written = []

    def dump(*__) -> None:
        if not written:
            written.append(True)
            tracer.next_request(None)
            tracer.close(tracer.root)
            tracer.write(out)

    signal.signal(signal.SIGUSR1, dump)
    atexit.register(dump)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
