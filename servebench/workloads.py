"""The benchmark's seeded inputs: graphs, op sequences and the workload table.

Everything here is a pure function of the workload seed, so the same
seed gives the same graph and the same requests on every machine.  The
program under test only ever sees the generated graph file and the wire
requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Op kinds.  ``view`` reads filter the served materialised view; the
#: ``magic_*`` reads ask for demand-driven evaluation of one binding.
VIEW = "view"
MAGIC_SRC = "magic_src"  # TC: bind the source only
MAGIC_PAIR = "magic_pair"  # TC: bind source and target
MAGIC_ALL = "magic_all"  # Q_{2,1}: bind all four positions, distinct
INSERT = "insert"  # a random absent edge
DELETE = "delete"  # the next initial edge, in a seeded order
RESTORE = "restore"  # re-insert the edge the last delete removed
WRITES = (INSERT, DELETE, RESTORE)

#: Timed blocks per run; the run pauses after each to time processes.
BLOCKS = 4


@dataclass(frozen=True)
class Op:
    kind: str
    bind: tuple | None = None  # reads: one entry per goal position
    edge: tuple | None = None  # writes: the E row


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # library program name, as a user passes it to the CLI
    goal: str
    arity: int
    # seeded rng -> (nodes, edges, the edges deletes may take, the
    # nodes inserted edges join)
    make_graph: Callable[[random.Random], tuple[list, list, list, list]]
    # Untimed op kinds, run before the timed rounds.  They hold one
    # write, so with a checkpoint every ``checkpoint_every`` epochs the
    # WAL holds exactly one write (a round's last) at every round
    # boundary: every recovery replays the same kind of suffix.
    warmup: tuple
    round_ops: tuple  # the op kinds of one round, in send order
    round_seconds: float  # one round's length on the reference machine

    @property
    def checkpoint_every(self) -> int:
        """Writes per round: the server checkpoints once a round."""
        return sum(kind in WRITES for kind in self.round_ops)

    def rounds_per_block(self, seconds: float) -> int:
        """Whole rounds per block, so that the ``BLOCKS`` blocks fill
        about ``seconds`` at the reference speed (at least one each).

        The count depends only on ``seconds``, never on how fast the
        program runs, so two commits always answer the same requests.
        """
        return max(1, round(seconds / (BLOCKS * self.round_seconds)))


def interleave(filler: str, count: int, specials: list[str]) -> tuple:
    """``count`` filler ops with ``specials`` spread evenly among them."""
    total = count + len(specials)
    slots = {
        (2 * i + 1) * total // (2 * len(specials)): kind
        for i, kind in enumerate(specials)
    }
    ops = []
    for position in range(total):
        ops.append(slots.get(position, filler))
    return tuple(ops)


def _permutation_edges(nodes: list, copies: int, rng: random.Random) -> set:
    """Union of ``copies`` random permutations: every node gets exactly
    ``copies`` out- and in-edges, with no self-loops or duplicates."""
    edges: set = set()
    for __ in range(copies):
        while True:
            image = nodes[:]
            rng.shuffle(image)
            pairs = set(zip(nodes, image))
            if all(u != v for u, v in pairs) and not pairs & edges:
                edges |= pairs
                break
    return edges


def _strongly_connected(nodes: list, edges: set) -> bool:
    forward: dict = {node: [] for node in nodes}
    backward: dict = {node: [] for node in nodes}
    for u, v in edges:
        forward[u].append(v)
        backward[v].append(u)
    for adjacency in (forward, backward):
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(nodes):
            return False
    return True


def tc_graph(rng: random.Random) -> tuple[list, list, list, list]:
    """200 nodes, 600 edges, one giant strongly connected component.

    180 core nodes carry three random permutations (strongly connected,
    redrawn until it is); 10 source nodes each get 3 edges into the
    core and 10 sink nodes 3 edges from it.  So the closure has exactly
    190 * 190 = 36100 ``S`` tuples on every seed: reads, magic reads
    and deletes do the same amount of work whatever the seed, while
    sources and sinks keep the view short of all pairs.

    Deletes take core edges only.  A source or sink edge touches 190
    tuples, not 36100, and with four deletes a run two such draws (5%
    of runs) put ``delete_p50_ms`` at ~17 ms instead of ~1.8 s.
    Inserts join core nodes only, so the closure keeps its size: an
    edge out of a sink or into a source adds up to 190 tuples, and the
    share of such draws moved ``insert_p50_ms`` between seeds.
    """
    labels = [f"v{i}" for i in range(200)]
    rng.shuffle(labels)
    core, sources, sinks = labels[:180], labels[180:190], labels[190:]
    while True:
        edges = _permutation_edges(core, 3, rng)
        if _strongly_connected(core, edges):
            break
    deletable = sorted(edges)
    for node in sources:
        edges |= {(node, v) for v in rng.sample(core, 3)}
    for node in sinks:
        edges |= {(u, node) for u in rng.sample(core, 3)}
    return sorted(labels), sorted(edges), deletable, sorted(core)


def q21_graph(rng: random.Random) -> tuple[list, list, list, list]:
    """The circulant digraph C_12(1, 5) under a seeded labelling.

    Node ``i`` has edges to ``i + 1`` and ``i + 5`` (mod 12): 24 edges,
    and ``Q_2_1`` holds for 10440 of the 13200 candidate tuples.
    Multiplying by 5 swaps the two jumps, so every edge looks alike and
    each single-edge delete removes the same 1943 tuples.  On plain
    random graphs of this size one delete costs anywhere from 0.15 to
    1.8 s depending on the edge, which moved ``delete_p50_ms`` and
    ``recover_s`` by 2x between seeds; here the seed changes labels and
    request choices, not the amount of work.
    """
    labels = [f"v{i}" for i in range(12)]
    rng.shuffle(labels)
    edges = {
        (labels[i], labels[(i + jump) % 12])
        for i in range(12)
        for jump in (1, 5)
    }
    return sorted(labels), sorted(edges), sorted(edges), sorted(labels)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="tc-read",
            program="transitive-closure",
            goal="S",
            arity=2,
            make_graph=tc_graph,
            warmup=(VIEW, MAGIC_SRC, MAGIC_PAIR, INSERT, VIEW, VIEW, MAGIC_PAIR),
            # 46 ops: 32 view reads, 4 magic reads (9%), 10 writes (22%):
            # six inserts of new edges, and two deletes each restored
            # later.  The round's ninth write is a delete, so the
            # checkpoint lands there; its last is a restore, so the WAL
            # holds an insert at every round boundary.  Magic reads bind
            # the source alone three times in four: those all cost the
            # same, so the median falls among them (see README).
            round_ops=interleave(
                VIEW,
                32,
                [INSERT, MAGIC_SRC, INSERT, DELETE, MAGIC_SRC, INSERT,
                 RESTORE, MAGIC_PAIR, INSERT, INSERT, INSERT, MAGIC_SRC,
                 DELETE, RESTORE],
            ),
            round_seconds=7.7,
        ),
        Workload(
            name="q21-write",
            program="q-2-1",
            goal="Q_2_1",
            arity=4,
            make_graph=q21_graph,
            warmup=(VIEW, MAGIC_ALL, DELETE, VIEW, MAGIC_ALL),
            # 22 ops: restore the edge the last round (or the warm-up)
            # deleted, delete the next initial edge, 16 view reads
            # binding ``s`` and 4 magic reads.  The WAL holds that delete
            # at every round boundary.
            round_ops=(RESTORE,)
            + (VIEW, VIEW, VIEW, MAGIC_ALL) * 2
            + (DELETE,)
            + (VIEW, VIEW, VIEW, MAGIC_ALL) * 2
            + (VIEW,) * 4,
            round_seconds=1.55,
        ),
    )
}


def make_ops(
    workload: Workload,
    kinds: tuple,
    nodes: list,
    edges: set,
    deletable: list,
    joinable: list,
    rng: random.Random,
) -> list[Op]:
    """Concrete requests for ``kinds``; ``edges`` is updated in place.

    Inserts add an absent edge and deletes remove a present one, so
    every write changes the graph and bumps the served epoch by one.
    Inserts join two ``joinable`` nodes.  Deletes take the
    ``deletable`` initial edges in a seeded order, and
    a restore puts the last deleted edge back, so the graph stays near
    its initial shape however many rounds run.
    """
    ops = []
    free = (None,) * (workload.arity - 1)
    victims = list(deletable)
    rng.shuffle(victims)
    deleted = []
    for kind in kinds:
        if kind == VIEW:
            ops.append(Op(kind, bind=(rng.choice(nodes),) + free))
        elif kind == MAGIC_SRC:
            ops.append(Op(kind, bind=(rng.choice(nodes), None)))
        elif kind == MAGIC_PAIR:
            ops.append(Op(kind, bind=tuple(rng.sample(nodes, 2))))
        elif kind == MAGIC_ALL:
            ops.append(Op(kind, bind=tuple(rng.sample(nodes, 4))))
        elif kind == INSERT:
            while True:
                edge = tuple(rng.sample(joinable, 2))
                if edge not in edges:
                    break
            edges.add(edge)
            ops.append(Op(INSERT, edge=edge))
        elif kind == DELETE:
            edge = victims.pop(0)
            victims.append(edge)
            edges.remove(edge)
            deleted.append(edge)
            ops.append(Op(DELETE, edge=edge))
        elif kind == RESTORE:
            edge = deleted.pop()
            edges.add(edge)
            ops.append(Op(INSERT, edge=edge))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return ops


def build(workload: Workload, seed: int, seconds: float):
    """``(nodes, initial_edges, warmup_ops, blocks, final_edges)`` for
    one run; ``blocks`` is a list of timed op lists, with a pause after
    each, and ``final_edges`` the graph once every op has applied."""
    rng = random.Random(f"{workload.name}:{seed}")
    nodes, initial, deletable, joinable = workload.make_graph(rng)
    edges = set(initial)
    per_block = workload.round_ops * workload.rounds_per_block(seconds)
    count = BLOCKS
    ops = make_ops(
        workload,
        workload.warmup + per_block * count,
        nodes,
        edges,
        deletable,
        joinable,
        rng,
    )
    warmup, timed = ops[: len(workload.warmup)], ops[len(workload.warmup):]
    size = len(per_block)
    blocks = [timed[i * size:(i + 1) * size] for i in range(count)]
    return nodes, initial, warmup, blocks, edges


def graph_text(nodes: list, edges) -> str:
    """The graph in ``repro.io.graph_format`` syntax."""
    lines = [f"node {node}" for node in nodes]
    lines += [f"edge {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"
