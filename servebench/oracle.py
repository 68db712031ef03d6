"""Answers computed apart from the served program, to check it against.

* Transitive closure (Example 2.2): ``S(x, y)`` iff ``y`` is reachable
  from ``x`` by a path of at least one edge -- a breadth-first search.
* ``Q_{2,1}`` (Theorem 6.1): ``Q_2_1(s, s1, s2, t1)``.
  - Tuples whose ``s, s1, s2`` are pairwise distinct: two node-disjoint
    ``t1``-avoiding paths from ``s`` to ``s1`` and ``s2``, which is
    max-flow / Menger (:func:`repro.flow.has_node_disjoint_paths_to_targets`).
  - The rest: the program's rules only ever derive ``s1 == s`` among
    them (``s1 == s2`` and ``s2 == s`` fail its inequalities), and the
    naive engine -- the reference engine whose rounds are the paper's
    stages -- gives them.

  Max-flow on every tuple costs about 0.13 s per bound source and the
  naive engine about 8 s per graph, too slow for every epoch a read
  saw.  So reads are checked against two graph searches that follow the
  same definitions (:func:`q21_distinct_rows`, :func:`q21_repeated_rows`),
  and on the final graph -- where the served view, the recovered view
  and ``repro run`` are checked -- the answer is max-flow plus the naive
  engine, which must also agree with both searches.  So every run checks
  the searches against the reference computations once.
"""

from __future__ import annotations

from collections import deque

from repro.datalog.evaluation import evaluate
from repro.datalog.library import q_program
from repro.flow.disjoint_paths import has_node_disjoint_paths_to_targets
from repro.graphs.digraph import DiGraph


class OracleDisagreement(Exception):
    """The reference computations disagree with each other."""


def _adjacency(nodes, edges) -> dict:
    adjacency: dict = {node: [] for node in nodes}
    for u, v in edges:
        adjacency[u].append(v)
    return adjacency


def _reach(adjacency, source, banned=frozenset()) -> set:
    """Nodes reachable from ``source`` by at least one edge, never
    entering ``banned``."""
    seen: set = set()
    queue = deque([source])
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen and nxt not in banned:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def q21_distinct_rows(nodes, adjacency, s) -> set:
    """The ``Q_2_1(s, s1, s2, t)`` tuples with ``s, s1, s2`` distinct.

    By Menger's theorem two disjoint paths from ``s`` to ``{s1, s2}``
    avoiding ``t`` exist iff both are reachable in ``G - t`` and no
    single node ``v`` (``s1`` and ``s2`` included) cuts ``s`` off from
    both of them.
    """
    rows = set()
    for t in nodes:
        if t == s:
            continue
        reachable = _reach(adjacency, s, {t})
        cuts = [
            _reach(adjacency, s, {t, v}) for v in nodes if v not in (s, t)
        ]
        for s1 in reachable:
            for s2 in reachable:
                if s1 != s2 and s not in (s1, s2) and all(
                    s1 in left or s2 in left for left in cuts
                ):
                    rows.add((s, s1, s2, t))
    return rows


def q21_repeated_rows(nodes, adjacency, s) -> set:
    """The ``Q_2_1(s, s, x, t)`` tuples, from the rules' meaning.

    ``Q_1_2(s, s, u, t)`` holds iff ``s`` is on a cycle avoiding ``u``
    and ``t`` (and ``s`` is neither), so ``Q_2_1(s, s, x, t)`` holds iff
    ``s != t`` and ``x`` is reachable from ``s`` through nodes ``u`` that
    are not ``s`` or ``t`` and leave such a cycle intact.
    """
    rows = set()
    for t in nodes:
        if t == s:
            continue
        allowed = {
            u
            for u in nodes
            if u not in (s, t) and s in _reach(adjacency, s, {u, t})
        }
        banned = frozenset(nodes) - allowed
        for x in _reach(adjacency, s, banned):
            rows.add((s, s, x, t))
    return rows


class TcOracle:
    goal = "S"

    def __init__(self, nodes) -> None:
        self.nodes = list(nodes)

    def rows(self, edges, source) -> set:
        adjacency = _adjacency(self.nodes, edges)
        return {(source, y) for y in _reach(adjacency, source)}

    def full(self, edges, final: bool = False) -> set:
        adjacency = _adjacency(self.nodes, edges)
        return {
            (x, y) for x in self.nodes for y in _reach(adjacency, x)
        }


class Q21Oracle:
    goal = "Q_2_1"

    def __init__(self, nodes) -> None:
        self.nodes = list(nodes)
        self._final: dict = {}  # edge set -> reference answer

    def rows(self, edges, s) -> set:
        adjacency = _adjacency(self.nodes, edges)
        return q21_distinct_rows(
            self.nodes, adjacency, s
        ) | q21_repeated_rows(self.nodes, adjacency, s)

    def full(self, edges, final: bool = False) -> set:
        """Every tuple; on the final graph from max-flow and the naive
        engine, cross-checked against the searches."""
        searched = set()
        for s in self.nodes:
            searched |= self.rows(edges, s)
        if not final:
            return searched
        key = frozenset(edges)
        if key not in self._final:
            self._final[key] = self._reference(edges, searched)
        return self._final[key]

    def _reference(self, edges, searched) -> set:
        graph = DiGraph(self.nodes, sorted(edges))
        flow = {
            (s, s1, s2, t)
            for s in self.nodes
            for s1 in self.nodes
            for s2 in self.nodes
            if len({s, s1, s2}) == 3
            for t in self.nodes
            if has_node_disjoint_paths_to_targets(graph, s, [s1, s2], [t])
        }
        naive = set(
            evaluate(
                q_program(2, 1), graph.to_structure(), method="naive"
            ).goal_relation
        )
        reference = flow | {row for row in naive if len(set(row[:3])) < 3}
        if reference != searched or naive != reference:
            raise OracleDisagreement(
                "the oracles disagree on the final graph: searches vs "
                f"max-flow + naive on {len(reference ^ searched)} tuples, "
                f"naive vs max-flow on {len(naive ^ reference)}"
            )
        return reference


ORACLES = {"S": TcOracle, "Q_2_1": Q21Oracle}
