"""Optimal trace/net alignments and misalignment profiles.

Alignments are computed with best-first search over the synchronous
product of a trace and a workflow net's reachability graph, whose states
are (marking id, trace position) pairs. Costs are the standard unit
scheme: synchronous and silent-model moves are free, log-only and
model-only moves cost 1. The admissible heuristic is the number of
remaining trace labels that no net transition can ever match.

Tie-breaking is deterministic: successors are generated preferring
synchronous moves, then silent model moves, then visible model moves in
(label, index) order (the graph's edge order), then the log move;
equal-cost frontier entries pop in generation order. Synchronous
successors come from the graph's by_label table, model moves from its
edges; Moves are built only along the returned path.

Aligners keep alignments in a memo keyed by the net (PetriNet.key), the
budget and the events, so each distinct (net, trace) is searched once per
memo. Each Aligner has a memo of its own, except that the Aligners of one
evaluate call's runs share one; nothing is kept at module level. A cached
result is the one a fresh search returns, so tie-breaks and outputs are
unchanged. A search that exceeds its budget is not cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifacts import read_csv, read_table, write_csv
from .errors import BudgetError, DataError
from .events import Fragment
from .flowmeter import parse_event_label
from .petri import MAX_MARKINGS, PetriNet, Transition

DEFAULT_BUDGET = 1_000_000


class MoveKind(str, Enum):
    SYNCHRONOUS = "sync"
    LOG_ONLY = "log"
    MODEL_ONLY = "model"
    MODEL_SILENT = "model-silent"


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    label: str | None = None
    tid: str | None = None  # firing transition; absent for log-only moves


@dataclass(frozen=True)
class Alignment:
    moves: tuple[Move, ...]
    cost: int

    def misaligned(self) -> tuple[Move, ...]:
        return tuple(
            m for m in self.moves
            if m.kind in (MoveKind.LOG_ONLY, MoveKind.MODEL_ONLY)
        )


def _suffix_unmatchable(trace: Sequence[str], net_labels: frozenset[str]) -> list[int]:
    # h[i] = number of events at positions >= i that no transition matches;
    # each of those must eventually be a log move, so h is admissible and
    # consistent.
    h = [0] * (len(trace) + 1)
    for i in range(len(trace) - 1, -1, -1):
        h[i] = h[i + 1] + (0 if trace[i] in net_labels else 1)
    return h


def align(net: PetriNet, trace: Sequence[str], budget: int = DEFAULT_BUDGET) -> Alignment:
    """Minimal-cost alignment between a trace and a workflow net.

    Raises DataError up front when the net is unbounded or its final
    marking is unreachable, and BudgetError (carrying the best known cost
    lower bound) when the expansion budget is exhausted.
    """
    graph = net.reachability()
    if not graph.bounded:
        raise DataError(f"net exceeds the exploration cap of {MAX_MARKINGS} markings")
    if graph.final is None:
        raise DataError("final marking is unreachable from the initial marking")
    trace = tuple(trace)
    h = _suffix_unmatchable(trace, net.labels)
    goal_pos = len(trace)
    # State marking_id * width + pos; the start state is 0.
    width = goal_pos + 1
    goal = graph.final * width + goal_pos
    edges, by_label = graph.edges, graph.by_label

    counter = 0
    frontier: list[tuple[int, int, int, int]] = [(h[0], h[0], counter, 0)]
    best_g: dict[int, int] = {0: 0}
    # state -> (previous state, fired transition or None for a log move) of
    # the cheapest move into it; Moves are built only for the returned path.
    came_from: dict[int, tuple[int, Transition | None]] = {}
    expansions = 0

    while True:  # the final marking is reachable, so the goal is too
        f, _, _, state = heappop(frontier)
        marking, pos = divmod(state, width)
        g = best_g[state]
        if f > g + h[pos]:
            continue  # stale entry
        if state == goal:
            moves: list[Move] = []
            while state:
                prev, t = came_from[state]
                if t is None:
                    moves.append(Move(MoveKind.LOG_ONLY, trace[prev % width]))
                else:  # synchronous when it advanced the trace position
                    kind = (MoveKind.SYNCHRONOUS if state % width != prev % width
                            else MoveKind.MODEL_SILENT if t.silent else MoveKind.MODEL_ONLY)
                    moves.append(Move(kind, t.label, t.tid))
                state = prev
            moves.reverse()
            return Alignment(moves=tuple(moves), cost=g)
        expansions += 1
        if expansions > budget:
            raise BudgetError(
                f"alignment search exceeded {budget} expansions",
                cost_lower_bound=f,
            )

        # Successors in tie-break order, each kept only when it strictly
        # improves the best cost known for its state: synchronous moves
        # (cost 0), model moves (0 if silent, else 1), the log move (1).
        if pos < goal_pos:
            nh = h[pos + 1]
            for t, k in by_label[marking].get(trace[pos], ()):
                nxt = k * width + pos + 1
                if g < best_g.get(nxt, g + 1):
                    best_g[nxt] = g
                    came_from[nxt] = (state, t)
                    counter += 1
                    heappush(frontier, (g + nh, nh, counter, nxt))
        nh = h[pos]
        for t, k in edges[marking]:
            nxt = k * width + pos
            ng = g if t.label is None else g + 1
            if ng < best_g.get(nxt, ng + 1):
                best_g[nxt] = ng
                came_from[nxt] = (state, t)
                counter += 1
                heappush(frontier, (ng + nh, nh, counter, nxt))
        if pos < goal_pos:
            nxt, ng, nh = state + 1, g + 1, h[pos + 1]
            if ng < best_g.get(nxt, ng + 1):
                best_g[nxt] = ng
                came_from[nxt] = (state, None)
                counter += 1
                heappush(frontier, (ng + nh, nh, counter, nxt))


#: Alignments shared by Aligners: (net key, budget) -> events -> Alignment.
AlignmentMemo = dict[tuple[tuple, int], dict[tuple[str, ...], Alignment]]


class Aligner:
    """The one owner of alignment results for one set of nets.

    Calling it on a fragment returns the alignment of the fragment's events
    against its state's net. Results are kept in memo, a memo of its own
    unless one is given, under the net's key, the budget and the events.
    So Aligners sharing a memo search each distinct (net, trace) once: the
    runs of one evaluate call share one, and a net that a later run mines
    again reuses the earlier run's results. Each search gets the full
    budget; a BudgetError propagates and is never cached, so the same
    fragment searches again on the next call. Raises DataError for a state
    without a net.
    """

    def __init__(
        self,
        nets: Mapping[int, PetriNet],
        budget: int = DEFAULT_BUDGET,
        memo: AlignmentMemo | None = None,
    ):
        self.nets = nets
        self.budget = budget
        memo = {} if memo is None else memo
        self._results = {
            state: memo.setdefault((net.key, budget), {}) for state, net in nets.items()
        }

    def __call__(self, frag: Fragment) -> Alignment:
        results = self._results.get(frag.state)
        if results is None:
            raise DataError(f"no net for state {frag.state}")
        alignment = results.get(frag.events)
        if alignment is None:
            # The module global, looked up at call time, so that a wrapped
            # align sees every search.
            alignment = align(self.nets[frag.state], frag.events, self.budget)
            results[frag.events] = alignment
        return alignment


def profile_flow(
    fragments: Iterable[Fragment], aligner: Aligner
) -> tuple[dict[str, float], list[tuple[Fragment, Alignment]]]:
    """Raw per-flow misaligned-move counts plus each fragment with its
    alignment, as the aligner returns it.

    Raises DataError for a fragment whose state has no net. Training gives
    every state a net (an empty log mines discover([])), and load_bundle
    rejects a bundle that lacks one.
    """
    profile: dict[str, float] = {}
    aligned: list[tuple[Fragment, Alignment]] = []
    for frag in fragments:
        alignment = aligner(frag)
        aligned.append((frag, alignment))
        for move in alignment.misaligned():
            profile[move.label] = profile.get(move.label, 0.0) + 1.0
    return profile, aligned


def profile_reference(
    per_flow_fragments: Sequence[Sequence[Fragment]], aligner: Aligner
) -> dict[str, float]:
    """Reference profile: the mean of the per-flow profiles (profile_flow,
    with the given aligner) of the given flows, one fragment list each.
    Silent model moves are never counted."""
    return mean_profile([profile_flow(fragments, aligner)[0] for fragments in per_flow_fragments])


def mean_profile(profiles: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Per label, in label order, the mean count over profiles; a label that
    a profile lacks counts 0 there. No profile gives the empty profile."""
    # Integral counts summed, then divided once: the mean stays exact.
    totals: dict[str, float] = {}
    for profile in profiles:
        for label, count in profile.items():
            totals[label] = totals.get(label, 0.0) + count
    return {label: totals[label] / len(profiles) for label in sorted(totals)}


# --- persistence ----------------------------------------------------------

PROFILE_CSV_SCHEMA = "alarmsift-profile/1"
ALIGNMENTS_SCHEMA = "alarmsift-alignments/1"


def write_profile_csv(profile: Mapping[str, float], path: str | Path) -> None:
    rows = ([label, repr(float(profile[label]))] for label in sorted(profile))
    write_csv(path, ["event_type", "count"], rows, schema=PROFILE_CSV_SCHEMA, lineterminator="\n")


def _count(row: dict) -> float:
    label = row["event_type"]
    parse_event_label(label)
    count = float(row["count"])
    if not 0 <= count < math.inf:
        raise ValueError(f"count {row['count']!r} is not finite and >= 0")
    return count


def read_profile_csv(path: str | Path) -> dict[str, float]:
    """Reads write_profile_csv's file with artifacts.read_table; an event
    type must be an event label (flowmeter.parse_event_label) and may occur
    once, and a count must be finite and >= 0."""
    return read_table(path, read_csv(path, PROFILE_CSV_SCHEMA), "event_type", _count)


def fragment_alignment_record(frag: Fragment, alignment: Alignment) -> dict:
    return {
        "flow_id": frag.flow_id,
        "state": frag.state,
        "fragment": frag.index,
        "cost": alignment.cost,
        "missing_net": False,  # kept for alarmsift-alignments/1: every state has a net
        "moves": [
            {"kind": m.kind.value, "label": m.label, "tid": m.tid}
            for m in alignment.moves
        ],
    }
