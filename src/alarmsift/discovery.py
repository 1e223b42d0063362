"""Vanilla inductive miner: directly-follows cuts over a trace multiset,
recursive splitting, flower fall-through, and process-tree to workflow-net
conversion with canonical node naming.

Cut search order is exclusive -> sequence -> parallel -> loop; the first
maximal cut wins. Every split preserves replayability of the generating
log, so each discovered net replays its own log at zero alignment cost.
Connected components and directly-follows reachability both come from
petri.reachable.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DataError
from .petri import PetriNet, Transition, reachable

SEQUENCE = "seq"
EXCLUSIVE = "xor"
PARALLEL = "par"
LOOP = "loop"


@dataclass(frozen=True)
class ProcessTree:
    """Operator node (seq/xor/par/loop) or leaf (activity label / silent)."""

    op: str | None = None
    label: str | None = None
    children: tuple["ProcessTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def __str__(self) -> str:
        if self.is_leaf:
            return self.label if self.label is not None else "tau"
        return f"{self.op}({', '.join(str(c) for c in self.children)})"


def leaf(label: str) -> ProcessTree:
    return ProcessTree(label=label)


def tau() -> ProcessTree:
    return ProcessTree()


Log = Counter  # multiset of event tuples


def _directly_follows(log: Log) -> tuple[dict[str, set[str]], set[str], set[str]]:
    dfg: dict[str, set[str]] = {}
    starts: set[str] = set()
    ends: set[str] = set()
    for trace in log:
        starts.add(trace[0])
        ends.add(trace[-1])
        for a, b in zip(trace, trace[1:]):
            dfg.setdefault(a, set()).add(b)
    return dfg, starts, ends


def _components(nodes: Sequence[str], adjacency: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Connected components over an undirected adjacency, deterministic order."""
    seen: set[str] = set()
    comps: list[tuple[str, ...]] = []
    for start in nodes:
        if start not in seen:
            comp = reachable([start], adjacency.__getitem__)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return sorted(comps)


def _undirected(nodes: Sequence[str], dfg: dict[str, set[str]]) -> dict[str, set[str]]:
    """The directly-follows graph restricted to nodes, without directions."""
    adjacency: dict[str, set[str]] = {a: set() for a in nodes}
    for a in nodes:
        for b in dfg.get(a, ()):
            if b in adjacency:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency


def _xor_cut(alphabet, dfg, starts, ends):
    comps = _components(alphabet, _undirected(alphabet, dfg))
    return comps if len(comps) >= 2 else None


def _seq_cut(alphabet, dfg, starts, ends):
    reach = {a: reachable(dfg.get(a, ()), lambda b: dfg.get(b, ())) for a in alphabet}

    def reaches(x: set[str], y: set[str]) -> bool:
        return any(reach[a] & y for a in x)

    # Groups stay ordered by least member. Start from the strongly connected
    # components, then merge the first pair of groups that are pairwise
    # unreachable or mutually reachable, and start again, until a strict
    # chain of groups remains.
    groups: list[set[str]] = []
    for a in alphabet:
        if not any(a in g for g in groups):
            groups.append({a} | {b for b in reach[a] if a in reach[b]})
    while True:
        for i, j in combinations(range(len(groups)), 2):
            if reaches(groups[i], groups[j]) == reaches(groups[j], groups[i]):
                groups[i] |= groups.pop(j)
                break
        else:
            break
    if len(groups) < 2:
        return None
    ordered = sorted(groups, key=lambda x: -sum(1 for y in groups if y is not x and reaches(x, y)))
    for i, x in enumerate(ordered):  # defensive: require a strict chain
        for y in ordered[i + 1:]:
            if not reaches(x, y) or reaches(y, x):
                return None
    return [tuple(sorted(g)) for g in ordered]


def _par_cut(alphabet, dfg, starts, ends):
    must_join: dict[str, set[str]] = {a: set() for a in alphabet}
    for i, a in enumerate(alphabet):
        for b in alphabet[i + 1:]:
            if not (b in dfg.get(a, ()) and a in dfg.get(b, ())):
                must_join[a].add(b)
                must_join[b].add(a)
    comps = _components(alphabet, must_join)
    if len(comps) < 2:
        return None
    valid = [c for c in comps if set(c) & starts and set(c) & ends]
    invalid = [c for c in comps if not (set(c) & starts and set(c) & ends)]
    if not valid:
        return None
    for bad in invalid:
        valid[0] = tuple(sorted(set(valid[0]) | set(bad)))
    comps = sorted(valid)
    return comps if len(comps) >= 2 else None


def _loop_cut(alphabet, dfg, starts, ends):
    body = set(starts) | set(ends)
    while True:
        rest = [a for a in alphabet if a not in body]
        if not rest:
            return None
        comps = _components(rest, _undirected(rest, dfg))
        grew = False
        for comp in comps:
            comp_set = set(comp)
            ok = True
            for a in body:
                for b in dfg.get(a, ()):
                    if b in comp_set and a not in ends:
                        ok = False  # entering a redo part from a non-end
            for a in comp_set:
                for b in dfg.get(a, ()):
                    if b in body and b not in starts:
                        ok = False  # leaving a redo part into a non-start
            if not ok:
                body |= comp_set
                grew = True
        if not grew:
            return [tuple(sorted(body))] + comps


def _split_xor(log: Log, classes) -> list[Log]:
    of_class = {a: i for i, cls in enumerate(classes) for a in cls}
    sublogs = [Counter() for _ in classes]
    for trace, count in log.items():
        idx = of_class[trace[0]]
        if any(of_class[e] != idx for e in trace):
            raise AssertionError("exclusive-choice split saw a class-mixing trace")
        sublogs[idx][trace] += count
    return sublogs


def _split_seq(log: Log, classes) -> list[Log]:
    sublogs = [Counter() for _ in classes]
    for trace, count in log.items():
        for i, cls in enumerate(classes):
            cls_set = set(cls)
            sublogs[i][tuple(e for e in trace if e in cls_set)] += count
    return sublogs


def _split_loop(log: Log, classes) -> list[Log]:
    body = set(classes[0])
    of_redo = {a: i for i, cls in enumerate(classes) if i > 0 for a in cls}
    sublogs = [Counter() for _ in classes]
    for trace, count in log.items():
        segment: list[str] = []
        seg_class = 0 if trace[0] in body else of_redo[trace[0]]
        if seg_class != 0:
            raise AssertionError("loop split saw a trace starting outside the body")
        for event in trace:
            cls = 0 if event in body else of_redo[event]
            if cls != seg_class:
                sublogs[seg_class][tuple(segment)] += count
                segment = []
                seg_class = cls
            segment.append(event)
        if seg_class != 0:
            raise AssertionError("loop split saw a trace ending outside the body")
        sublogs[seg_class][tuple(segment)] += count
    return sublogs


_CUTS = (
    (EXCLUSIVE, _xor_cut, _split_xor),
    (SEQUENCE, _seq_cut, _split_seq),
    (PARALLEL, _par_cut, _split_seq),  # same projection; order within class kept
    (LOOP, _loop_cut, _split_loop),
)


def _flower(alphabet: Sequence[str]) -> ProcessTree:
    return ProcessTree(op=LOOP, children=(tau(), *(leaf(a) for a in alphabet)))


def _im(log: Log) -> ProcessTree:
    if not log:
        return tau()
    nonempty = Counter({t: c for t, c in log.items() if t})
    if not nonempty:
        return tau()
    if len(nonempty) < len(log):
        return ProcessTree(op=EXCLUSIVE, children=(tau(), _im(nonempty)))
    alphabet = tuple(sorted({a for t in nonempty for a in t}))
    if len(alphabet) == 1 and all(len(t) == 1 for t in nonempty):
        return leaf(alphabet[0])
    dfg, starts, ends = _directly_follows(nonempty)
    for op, finder, splitter in _CUTS:
        classes = finder(alphabet, dfg, starts, ends)
        if classes and len(classes) >= 2:
            sublogs = splitter(nonempty, classes)
            return ProcessTree(op=op, children=tuple(_im(s) for s in sublogs))
    return _flower(alphabet)


def mine_tree(traces: Iterable[Sequence[str]]) -> ProcessTree:
    """Mines a process tree from a multiset of traces."""
    return _im(Counter(tuple(t) for t in traces))


def tree_to_net(tree: ProcessTree) -> PetriNet:
    """Converts a process tree to a sound workflow net.

    Node ids are derived from the tree path, so equal trees give
    byte-identical nets (and PNML files).
    """
    places: list[str] = ["source", "sink"]
    transitions: list[Transition] = []
    arcs: list[tuple[str, str]] = []

    def add_place(name: str) -> str:
        places.append(name)
        return name

    def add_transition(tid: str, label: str | None) -> str:
        transitions.append(Transition(tid=tid, label=label))
        return tid

    def build(n: ProcessTree, path: str, pin: str, pout: str) -> None:
        if n.is_leaf:
            tid = add_transition(f"t{path}", n.label)
            arcs.append((pin, tid))
            arcs.append((tid, pout))
            return
        if n.op == SEQUENCE:
            cur = pin
            for i, child in enumerate(n.children):
                nxt = pout if i == len(n.children) - 1 else add_place(f"p{path}_{i}")
                build(child, f"{path}_{i}", cur, nxt)
                cur = nxt
            return
        if n.op == EXCLUSIVE:
            for i, child in enumerate(n.children):
                build(child, f"{path}_{i}", pin, pout)
            return
        if n.op == PARALLEL:
            split = add_transition(f"tsplit{path}", None)
            join = add_transition(f"tjoin{path}", None)
            arcs.append((pin, split))
            arcs.append((join, pout))
            for i, child in enumerate(n.children):
                branch_in = add_place(f"p{path}_{i}i")
                branch_out = add_place(f"p{path}_{i}o")
                arcs.append((split, branch_in))
                arcs.append((branch_out, join))
                build(child, f"{path}_{i}", branch_in, branch_out)
            return
        if n.op == LOOP:
            enter = add_transition(f"tenter{path}", None)
            exit_ = add_transition(f"texit{path}", None)
            pa = add_place(f"p{path}_a")
            pb = add_place(f"p{path}_b")
            arcs.append((pin, enter))
            arcs.append((enter, pa))
            arcs.append((pb, exit_))
            arcs.append((exit_, pout))
            build(n.children[0], f"{path}_0", pa, pb)
            for i, redo in enumerate(n.children[1:], start=1):
                build(redo, f"{path}_{i}", pb, pa)
            return
        raise DataError(f"unknown tree operator {n.op!r}")

    build(tree, "0", "source", "sink")
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking={"source": 1},
        final_marking={"sink": 1},
    )


def discover(traces: Iterable[Sequence[str]]) -> PetriNet:
    """Mines a workflow net from a trace multiset (state event log).

    An empty log yields the trivial net source -> silent -> sink.
    """
    return tree_to_net(mine_tree(traces))
