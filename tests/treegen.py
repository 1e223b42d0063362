"""Random process trees, trace sampling, the brute-force alignment oracle
(uniform-cost search over the synchronous product, no heuristic), and an
alignment's log projection.

The oracle deliberately shares only the net data model with the package;
the firing rule and the search are independent implementations.
"""
from __future__ import annotations

import heapq
import random
from collections import Counter

from alarmsift.alignment import Alignment, MoveKind
from alarmsift.discovery import (
    EXCLUSIVE, LOOP, PARALLEL, SEQUENCE, ProcessTree, leaf, tau,
)
from alarmsift.petri import PetriNet


def random_tree(rng: random.Random, alphabet: list[str], max_depth: int = 3) -> ProcessTree:
    if max_depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return tau()
        return leaf(rng.choice(alphabet))
    op = rng.choice((SEQUENCE, EXCLUSIVE, PARALLEL, LOOP))
    arity = rng.choice((2, 2, 3))
    children = tuple(random_tree(rng, alphabet, max_depth - 1) for _ in range(arity))
    return ProcessTree(op=op, children=children)


def sample_trace(tree: ProcessTree, rng: random.Random, loop_cap: int = 3) -> tuple[str, ...]:
    if tree.is_leaf:
        return (tree.label,) if tree.label is not None else ()
    if tree.op == SEQUENCE:
        out: tuple[str, ...] = ()
        for child in tree.children:
            out += sample_trace(child, rng, loop_cap)
        return out
    if tree.op == EXCLUSIVE:
        return sample_trace(rng.choice(tree.children), rng, loop_cap)
    if tree.op == PARALLEL:
        plays = [list(sample_trace(c, rng, loop_cap)) for c in tree.children]
        merged: list[str] = []
        while any(plays):
            idx = rng.choice([i for i, p in enumerate(plays) if p])
            merged.append(plays[idx].pop(0))
        return tuple(merged)
    if tree.op == LOOP:
        out = sample_trace(tree.children[0], rng, loop_cap)
        redos = tree.children[1:]
        for _ in range(loop_cap):
            if not redos or rng.random() >= 0.4:
                break
            out += sample_trace(rng.choice(redos), rng, loop_cap)
            out += sample_trace(tree.children[0], rng, loop_cap)
        return out
    raise AssertionError(f"unknown operator {tree.op}")


def firing_rule(net: PetriNet):
    """The firing rule recomputed from net.arcs: a function from a dict
    marking to each enabled transition with the dict marking it leads to."""
    pre = {t.tid: Counter() for t in net.transitions}
    post = {t.tid: Counter() for t in net.transitions}
    for src, dst in net.arcs:
        if src in post:
            post[src][dst] += 1
        else:
            pre[dst][src] += 1

    def fire(marking: dict[str, int]):
        out = []
        for t in net.transitions:
            if all(marking.get(p, 0) >= n for p, n in pre[t.tid].items()):
                nxt = Counter(marking)
                nxt.subtract(pre[t.tid])
                nxt.update(post[t.tid])
                out.append((t, {p: n for p, n in nxt.items() if n}))
        return out
    return fire


def oracle_align_cost(net: PetriNet, trace, cap: int = 500_000) -> int | None:
    """Uniform-cost search over (marking, position); returns the optimal
    alignment cost, or None when the goal is unreachable."""
    trace = tuple(trace)
    fire = firing_rule(net)
    # Markings as frozensets of (place, tokens) items, so states hash.
    start = (frozenset(net.initial_marking.items()), 0)
    goal = (frozenset(net.final_marking.items()), len(trace))
    dist = {start: 0}
    heap: list[tuple[int, int, tuple]] = [(0, 0, start)]
    counter = 0
    popped = 0
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist.get(state, d + 1):
            continue
        if state == goal:
            return d
        popped += 1
        if popped > cap:
            raise RuntimeError("oracle cap exceeded")
        marking, pos = state
        succs: list[tuple[tuple, int]] = []
        for t, fired in fire(dict(marking)):
            fired = frozenset(fired.items())
            succs.append(((fired, pos), 0 if t.silent else 1))
            if pos < len(trace) and t.label == trace[pos]:
                succs.append(((fired, pos + 1), 0))
        if pos < len(trace):
            succs.append(((marking, pos + 1), 1))
        for nxt, cost in succs:
            nd = d + cost
            if nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, nxt))
    return None


def perturb_trace(trace: tuple[str, ...], rng: random.Random, alphabet: list[str]) -> tuple[str, ...]:
    events = list(trace)
    for _ in range(rng.randint(1, 3)):
        action = rng.random()
        if action < 0.35 and events:
            events.pop(rng.randrange(len(events)))
        elif action < 0.7:
            pool = alphabet + ["zz1", "zz2"]
            events.insert(rng.randint(0, len(events)), rng.choice(pool))
        elif len(events) >= 2:
            i = rng.randrange(len(events) - 1)
            events[i], events[i + 1] = events[i + 1], events[i]
    return tuple(events[:10])


def log_projection(alignment: Alignment) -> tuple[str, ...]:
    """The labels of the log-side moves, which must equal the aligned trace."""
    return tuple(
        m.label for m in alignment.moves
        if m.kind in (MoveKind.SYNCHRONOUS, MoveKind.LOG_ONLY)
    )
