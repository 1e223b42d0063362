"""A test-only copy of the A* alignment search as it stood before the
search read its successors from precomputed per-graph move tables.

It builds every successor as a tuple and looks each move's cost up by
kind, in the documented tie-break order: synchronous moves (edge order),
then model moves (edge order), then the log move. The search in
alarmsift.alignment must return an equal Alignment, and raise BudgetError
at the same budget with the same cost lower bound.
"""
from __future__ import annotations

import heapq
from typing import Sequence

from alarmsift.alignment import DEFAULT_BUDGET, Alignment, Move, MoveKind
from alarmsift.errors import BudgetError, DataError
from alarmsift.petri import PetriNet

_MOVE_COST = {
    MoveKind.SYNCHRONOUS: 0,
    MoveKind.LOG_ONLY: 1,
    MoveKind.MODEL_ONLY: 1,
    MoveKind.MODEL_SILENT: 0,
}


def reference_align(
    net: PetriNet, trace: Sequence[str], budget: int = DEFAULT_BUDGET
) -> Alignment:
    graph = net.reachability()
    if not graph.bounded:
        raise DataError("net exceeds the exploration cap")
    if graph.final is None:
        raise DataError("final marking is unreachable from the initial marking")
    trace = tuple(trace)
    h = [0] * (len(trace) + 1)
    for i in range(len(trace) - 1, -1, -1):
        h[i] = h[i + 1] + (0 if trace[i] in net.labels else 1)
    goal_pos = len(trace)
    width = goal_pos + 1
    goal = graph.final * width + goal_pos

    counter = 0
    frontier: list[tuple[int, int, int, int]] = [(h[0], h[0], counter, 0)]
    best_g: dict[int, int] = {0: 0}
    came_from: dict[int, tuple[int, MoveKind, str | None, str | None]] = {}
    expansions = 0

    while True:
        f, _, _, state = heapq.heappop(frontier)
        marking, pos = divmod(state, width)
        g = best_g[state]
        if f > g + h[pos]:
            continue
        if state == goal:
            moves: list[Move] = []
            while state:
                state, kind, label, tid = came_from[state]
                moves.append(Move(kind, label, tid))
            moves.reverse()
            return Alignment(moves=tuple(moves), cost=g)
        expansions += 1
        if expansions > budget:
            raise BudgetError(
                f"alignment search exceeded {budget} expansions",
                cost_lower_bound=f,
            )

        edges = graph.edges[marking]
        succs: list[tuple[int, MoveKind, str | None, str | None]] = []
        if pos < goal_pos:
            label = trace[pos]
            succs = [
                (k * width + pos + 1, MoveKind.SYNCHRONOUS, label, t.tid)
                for t, k in edges if t.label == label
            ]
        succs += [
            (k * width + pos, MoveKind.MODEL_SILENT if t.silent else MoveKind.MODEL_ONLY,
             t.label, t.tid)
            for t, k in edges
        ]
        if pos < goal_pos:
            succs.append((state + 1, MoveKind.LOG_ONLY, label, None))

        for nxt, kind, move_label, tid in succs:
            ng = g + _MOVE_COST[kind]
            if ng < best_g.get(nxt, ng + 1):
                best_g[nxt] = ng
                came_from[nxt] = (state, kind, move_label, tid)
                counter += 1
                nh = h[nxt % width]
                heapq.heappush(frontier, (ng + nh, nh, counter, nxt))
