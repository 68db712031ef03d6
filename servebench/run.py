"""Serve-and-evaluate benchmark for ``repro serve`` and ``repro run``.

One run of one workload:

1. starts the real ``repro serve`` CLI on a seeded graph;
2. sends a seeded, fixed sequence of requests from one single-threaded
   client over one subscribed connection (closed loop): an untimed
   warm-up, then timed blocks of whole rounds;
3. pauses after each block to time, while the traffic server idles, one
   ``serve --resume`` from a copy of its checkpoint and WAL, one fresh
   ``serve`` set-up and one batch ``repro run`` of the final graph;
4. SIGKILLs the server and restarts it with ``--resume``;
5. after timing stops, checks every answer -- reads, pushed deltas, the
   final and recovered views and the batch output -- against
   computations made apart from the program (``oracle.py``).

Usage (from the repository root)::

    python3 servebench/run.py --workload tc-read --seed 1 --seconds 14 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``).
Progress, per-kind op counts and mismatches go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Every timing is scaled to a host on which :func:`calibrate` takes
#: this many seconds (between requests on a slow stretch of the
#: reference machine; fast stretches read 0.6-1.1 ms).
REFERENCE_SPEED = 1.4e-3
#: Batch runs timed in each pause.
EVALS_PER_PAUSE = 2
#: Bound on any single wait for a child process.
WAIT_SECONDS = 120.0
#: The whole run must end well inside the 180 s a run may take.
RUN_DEADLINE = 170


def log(message: str) -> None:
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def calibrate() -> float:
    """Seconds a fixed pure-Python task takes now: the host's speed.

    The shared host runs this process at speeds up to 3x apart for
    stretches of ten seconds to minutes; timings scaled by
    ``REFERENCE_SPEED`` / this figure, taken at about the same moment,
    compare across those stretches.
    """
    started = time.perf_counter()
    counts: dict = {}
    seen = set()
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
    return time.perf_counter() - started


def scaled(seconds: float, speeds: list | None) -> float:
    """``seconds`` at the reference speed, given the calibrations of
    the block it was measured in (``None``: as measured)."""
    if speeds is None:
        return seconds
    return seconds * REFERENCE_SPEED / statistics.median(speeds)


class RunFailed(Exception):
    """The benchmark could not complete (no result is printed)."""


@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    kind: str
    block: int | None  # timed block, None in the warm-up
    bind: tuple | None = None
    edge: tuple | None = None
    seconds: float = 0.0
    speed: float = 0.0  # a calibration just before the request
    epoch: int | None = None
    rows: set | None = None
    error: str | None = None


@dataclass
class RunLog:
    """Everything the checks need, gathered while the clock runs."""

    nodes: list
    initial_edges: list
    final_edges: frozenset  # the graph once every planned write applied
    records: list = field(default_factory=list)
    initial_view: tuple | None = None  # (epoch, rows) before traffic
    final_view: tuple | None = None  # (epoch, rows) after traffic
    deltas: list = field(default_factory=list)  # pushed delta events
    last_acked: int = 0
    # (last acknowledged epoch, recovered epoch, rows | None) per resume
    recovered: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)  # ``repro run`` rows


# -- child processes ----------------------------------------------------------


class Children:
    """Every process the run starts; all are reaped on exit."""

    def __init__(self, env: dict, work: str, trace_dir: str | None) -> None:
        self.env = env
        self.work = work
        self.trace_dir = trace_dir
        self.procs: list[subprocess.Popen] = []
        self.trace_files: list[str] = []

    def command(self, role: str, cli_args: list) -> list:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *cli_args]
        out = os.path.join(
            self.trace_dir, f"{len(self.trace_files):02d}-{role}.jsonl"
        )
        self.trace_files.append(out)
        launcher = os.path.join(BENCH_DIR, "launch.py")
        return [sys.executable, launcher, out, role, *cli_args]

    def spawn(self, role: str, cli_args: list) -> subprocess.Popen:
        stderr = open(os.path.join(self.work, f"{role}.stderr"), "ab")
        try:
            proc = subprocess.Popen(
                self.command(role, cli_args),
                stdout=subprocess.PIPE,
                stderr=stderr,
                stdin=subprocess.DEVNULL,
                env=self.env,
                cwd=ROOT,
            )
        finally:
            stderr.close()
        self.procs.append(proc)
        return proc

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def wait_serving(proc: subprocess.Popen) -> int:
    """Block until the server prints its ``repro: serving`` line; the port."""
    deadline = time.monotonic() + WAIT_SECONDS
    buffer = b""
    fd = proc.stdout.fileno()
    while True:
        while b"\n" in buffer:
            line, __, buffer = buffer.partition(b"\n")
            text = line.decode("utf-8", "replace")
            if text.startswith("repro: serving "):
                return int(text.rsplit(":", 1)[1])
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("server did not start in time")
        ready, __, __ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RunFailed(
                    f"server exited with {proc.wait()} before serving"
                )
            buffer += chunk


def stop(proc: subprocess.Popen, port: int) -> None:
    """Ask a server to shut down and wait for it."""
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", port, timeout=WAIT_SECONDS) as client:
        client.shutdown()
    proc.wait(timeout=WAIT_SECONDS)


def remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed("no VmHWM in /proc status")


# -- the run -----------------------------------------------------------------


def rows_of(response: dict) -> set:
    return {tuple(row) for row in response["rows"]}


def send(client, op) -> dict:
    if op.kind in ("insert", "delete"):
        method = client.insert if op.kind == "insert" else client.delete
        return method("E", list(op.edge))
    return client.query(list(op.bind), magic=op.kind != "view")


def drive(workload, seed: int, seconds: float, trace: bool, work: str):
    """Run one workload end to end; returns ``(run_log, timings)``."""
    from repro.serve.client import ServeClient, ServeConnectionError, ServeError
    from workloads import build, graph_text

    nodes, initial, warmup, blocks, final = build(workload, seed, seconds)
    graph = os.path.join(work, "graph.txt")
    final_graph = os.path.join(work, "final.txt")
    for path, edges in ((graph, initial), (final_graph, final)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(graph_text(nodes, edges))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    trace_dir = os.path.join(work, "trace") if trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    children = Children(env, work, trace_dir)
    run = RunLog(nodes=nodes, initial_edges=initial, final_edges=frozenset(final))
    timings: dict = {"setup": [], "recover": [], "eval": []}
    ckpt = os.path.join(work, "view.ckpt")
    wal = os.path.join(work, "view.wal")
    side_ckpt = os.path.join(work, "side.ckpt")
    side_wal = os.path.join(work, "side.wal")

    def serve_args(checkpoint: str, log: str) -> list:
        return [
            "serve", workload.program, graph,
            "--checkpoint", checkpoint, "--wal", log, "--fsync", "off",
            "--checkpoint-every", str(workload.checkpoint_every),
        ]

    finished: list = []  # blocks sent so far

    def scale_block() -> int:
        """The block whose calibrations scale a process timed now: the
        one just sent (the first, before any)."""
        return finished[-1] if finished else 0

    def start(role: str, args: list, samples: list):
        """Spawn a server; time it from spawn to its serving line."""
        started = time.perf_counter()
        proc = children.spawn(role, args)
        port = wait_serving(proc)
        samples.append((time.perf_counter() - started, scale_block()))
        return proc, port

    def dismiss(proc: subprocess.Popen, port: int) -> None:
        """End a server timed for its start.  A traced one shuts down
        so that it writes its spans; an untraced one is killed, which
        saves the clean shutdown's few hundred milliseconds."""
        if trace_dir:
            stop(proc, port)
        else:
            proc.kill()
            proc.wait(timeout=WAIT_SECONDS)

    def recover(role: str, checkpoint: str, log: str, rows: bool) -> None:
        """Time ``serve --resume`` on ``checkpoint`` + ``log``."""
        proc, port = start(
            role, serve_args(checkpoint, log) + ["--resume"], timings["recover"]
        )
        with ServeClient("127.0.0.1", port, timeout=WAIT_SECONDS) as c:
            epoch = c.ping()["epoch"]
            view = rows_of(c.query(None)) if rows else None
        run.recovered.append((run.last_acked, epoch, view))
        dismiss(proc, port)

    def pause() -> None:
        """Untimed by the traffic clock, between two blocks: one
        recovery from a copy of the live checkpoint + WAL (the server is
        idle and flushes every record, so the copy is what a SIGKILL
        would leave), one fresh set-up and ``EVALS_PER_PAUSE`` batch
        evaluations."""
        for path, copy in ((ckpt, side_ckpt), (wal, side_wal)):
            shutil.copyfile(path, copy)
        recover("recover", side_ckpt, side_wal, rows=False)
        remove(side_ckpt, side_wal)
        proc, port = start(
            "setup", serve_args(side_ckpt, side_wal), timings["setup"]
        )
        dismiss(proc, port)
        remove(side_ckpt, side_wal)
        for __ in range(EVALS_PER_PAUSE):
            started = time.perf_counter()
            proc = children.spawn(
                "eval", ["run", workload.program, final_graph]
            )
            output = proc.communicate(timeout=WAIT_SECONDS)[0]
            timings["eval"].append(
                (time.perf_counter() - started, scale_block())
            )
            if proc.returncode != 0:
                raise RunFailed(f"repro run exited with {proc.returncode}")
            run.evaluations.append(parse_run_output(output.decode("utf-8")))

    try:
        # Untimed: compile the package's bytecode once.
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env, cwd=ROOT, check=True, timeout=WAIT_SECONDS,
        )
        server, port = start("serve", serve_args(ckpt, wal), timings["setup"])
        serve_trace = children.trace_files[-1] if trace_dir else None
        client = ServeClient("127.0.0.1", port, timeout=WAIT_SECONDS)
        client.subscribe(workload.goal)
        response = client.query(None)
        run.initial_view = (response["epoch"], rows_of(response))
        broken = None
        plan = [(None, op) for op in warmup] + [
            (number, op) for number, block in enumerate(blocks) for op in block
        ]
        for index, (block, op) in enumerate(plan):
            record = Record(index, op.kind, block, op.bind, op.edge)
            run.records.append(record)
            record.speed = calibrate()
            started = time.perf_counter()
            try:
                response = send(client, op)
            except ServeError as exc:
                record.error = f"{exc.code}: {exc}"
            except (ServeConnectionError, OSError) as exc:
                raise RunFailed(f"lost the connection: {exc}") from exc
            else:
                record.seconds = time.perf_counter() - started
                record.epoch = response["epoch"]
                if op.kind in ("insert", "delete"):
                    run.last_acked = response["epoch"]
                else:
                    record.rows = rows_of(response)
            if block is not None and (
                index + 1 == len(plan) or plan[index + 1][0] != block
            ):
                finished.append(block)
                pause()

        # Untimed: peak memory before any benchmark-only request, the
        # server's own latency figures, the final view, and any deltas
        # still in flight (a ping flushes them).
        timings["peak_rss_mb"] = peak_rss_mb(server.pid)
        timings["stats"] = client.stats()
        response = client.query(None)
        run.final_view = (response["epoch"], rows_of(response))
        client.ping()
        run.deltas = list(client.events)
        if trace_dir:
            dump_trace(server, serve_trace)
        server.kill()
        server.wait(timeout=WAIT_SECONDS)
        client.close()
        recover("recover", ckpt, wal, rows=True)
        speeds: dict = {}
        for record in run.records:
            if record.block is not None:
                speeds.setdefault(record.block, []).append(record.speed)
        log(
            "calibration ms per block: "
            + ", ".join(
                f"{statistics.median(v) * 1000:.3f}" for v in speeds.values()
            )
        )
        for name in ("setup", "recover", "eval"):
            log(
                f"{name} s, as measured: "
                + ", ".join(f"{s:.3f}" for s, __ in timings[name])
            )
    finally:
        children.reap()
    timings["trace_files"] = children.trace_files
    return run, timings


def dump_trace(server: subprocess.Popen, path: str) -> None:
    """Have the traced traffic server write its spans before the kill."""
    server.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + WAIT_SECONDS
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RunFailed("traced server wrote no span file")
        time.sleep(0.01)


def parse_run_output(text: str) -> set:
    rows = set()
    for line in text.splitlines():
        if line and not line.startswith("%"):
            rows.add(tuple(line.split("\t")))
    return rows


# -- checks -------------------------------------------------------------------


def check(run: RunLog, oracle) -> list[str]:
    """Every mismatch between what was served and ``oracle``."""
    from oracle import OracleDisagreement

    problems: list[str] = []
    edges = set(map(tuple, run.initial_edges))
    history = [frozenset(edges)]  # edge set at each epoch
    cache: dict = {}

    def expected(epoch: int, bind: tuple) -> set:
        key = (epoch, bind[0])
        if key not in cache:
            cache[key] = oracle.rows(history[epoch], bind[0])
        return {
            row
            for row in cache[key]
            if all(b is None or b == x for b, x in zip(bind, row))
        }

    for record in run.records:
        if record.error is not None:
            continue
        where = f"op {record.index} ({record.kind} {record.bind or record.edge})"
        if record.kind in ("insert", "delete"):
            if record.kind == "insert":
                edges.add(record.edge)
            else:
                edges.discard(record.edge)
            history.append(frozenset(edges))
            if record.epoch != len(history) - 1:
                problems.append(
                    f"{where}: acknowledged epoch {record.epoch}, "
                    f"expected {len(history) - 1}"
                )
            continue
        if record.epoch != len(history) - 1:
            problems.append(
                f"{where}: answered at epoch {record.epoch}, "
                f"expected {len(history) - 1}"
            )
        elif record.rows != expected(record.epoch, record.bind):
            problems.append(f"{where}: wrong rows at epoch {record.epoch}")
    last = len(history) - 1
    initial_epoch, initial_rows = run.initial_view
    if initial_epoch != 0 or initial_rows != oracle.full(history[0]):
        problems.append("initial view differs from the oracle at epoch 0")
    final_epoch, final_rows = run.final_view
    try:
        truth = oracle.full(history[last], final=True)
    except OracleDisagreement as exc:
        return problems + [str(exc)]
    if final_epoch != last or final_rows != truth:
        problems.append(f"final view differs from the oracle at epoch {last}")
    folded = set(initial_rows)
    epochs = []
    for event in run.deltas:
        epochs.append(event.get("epoch"))
        if event.get("event") != "delta":
            problems.append(f"unexpected push event {event.get('event')}")
            continue
        folded -= {tuple(row) for row in event["removed"]}
        folded |= {tuple(row) for row in event["added"]}
    if epochs != list(range(1, last + 1)):
        problems.append(f"pushed delta epochs {epochs} are not 1..{last}")
    if folded != final_rows:
        problems.append("folding the pushed deltas does not give the final view")
    for acked, epoch, rows in run.recovered:
        if epoch != acked:
            problems.append(
                f"recovered epoch {epoch}, last acknowledged {acked}"
            )
        if rows is not None and rows != truth:
            problems.append("recovered view differs from the oracle")
    if run.final_edges != history[last]:
        # A write failed, so the planned final graph was never served.
        truth = oracle.full(run.final_edges, final=True)
    for rows in run.evaluations:
        if rows != truth:
            problems.append("repro run output differs from the oracle")
    return problems


# -- metrics --------------------------------------------------------------------


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(run: RunLog, timings: dict, as_measured: bool = False) -> dict:
    """The end-to-end metrics, every timing at the reference speed
    (or, with ``as_measured``, unscaled).

    A request is scaled by the median calibration of its block (the
    requests between two pauses), a process by that of the block just
    sent (a process's own start and exit leave too few calibrations;
    back-to-back ones run on warm caches and read fast).  ``recover_s`` and ``eval_s`` are the fastest of their
    samples, spread over the pauses; ``setup_s`` the median.
    """
    timed = [r for r in run.records if r.block is not None and r.error is None]
    speeds: dict = {}
    for record in timed:
        speeds.setdefault(record.block, []).append(record.speed)
    if as_measured:
        speeds = dict.fromkeys(speeds)
    latency = {
        id(r): scaled(r.seconds, speeds[r.block]) * 1000.0 for r in timed
    }

    def ms(kinds, q=0.5):
        return quantile([latency[id(r)] for r in timed if r.kind in kinds], q)

    def process(name: str) -> list:
        return [scaled(s, speeds[block]) for s, block in timings[name]]

    metrics = {
        "setup_s": (statistics.median(process("setup")), "s"),
        "throughput_ops": (1000.0 * len(timed) / sum(latency.values()), "ops/s"),
        "read_p50_ms": (ms({"view"}), "ms"),
        "read_p90_ms": (ms({"view"}, 0.9), "ms"),
        "magic_p50_ms": (ms({"magic_src", "magic_pair", "magic_all"}), "ms"),
        "insert_p50_ms": (ms({"insert"}), "ms"),
        "delete_p50_ms": (ms({"delete"}), "ms"),
        "recover_s": (min(process("recover")), "s"),
        "eval_s": (min(process("eval")), "s"),
        "peak_rss_mb": (timings["peak_rss_mb"], "MB"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def op_counts(run: RunLog) -> dict:
    counts: dict = {}
    for record in run.records:
        entry = counts.setdefault(record.kind, [0, 0])
        entry[0] += 1
        entry[1] += record.error is not None
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        log(f"no program source under {SRC}; run from a full checkout")
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from oracle import ORACLES
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r} ({', '.join(WORKLOADS)})")
        return 2
    workload = WORKLOADS[args.workload]

    def expire(*__):
        raise RunFailed(f"run exceeded {RUN_DEADLINE} s")

    # One processor for the client and every process it starts: they
    # take turns (closed loop), and the calibrations then measure the
    # processor the server and the batch runs use.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_DEADLINE)
    work = os.path.join(
        BENCH_DIR, ".work", f"{workload.name}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(work)
    try:
        run, timings = drive(
            workload, args.seed, args.seconds, bool(args.trace), work
        )
        signal.alarm(0)
        started = time.perf_counter()
        problems = check(run, ORACLES[workload.goal](run.nodes))
        log(f"checks {time.perf_counter() - started:.2f} s")
        metrics = end_to_end(run, timings)
        if args.trace:
            from layers import layer_metrics

            log(f"end-to-end (traced): {json.dumps(metrics)}")
            raw = end_to_end(run, timings, as_measured=True)
            log(f"end-to-end as measured (traced): {json.dumps(raw)}")
            metrics = layer_metrics(
                timings,
                os.path.join(
                    BENCH_DIR, ".work", f"trace-{workload.name}-{args.seed}"
                ),
            )
    except RunFailed as exc:
        log(f"run failed: {exc}")
        return 1
    finally:
        signal.alarm(0)
    for problem in problems:
        log(f"MISMATCH {problem}")
    counts = op_counts(run)
    for kind, (attempted, failed) in sorted(counts.items()):
        log(f"ops {kind}: {attempted} attempted, {failed} failed")
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": sum(a for a, __ in counts.values()),
        "failed": sum(f for __, f in counts.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
