"""Vanilla inductive miner: directly-follows cuts over a trace multiset,
recursive splitting, flower fall-through, and process-tree to workflow-net
conversion with canonical node naming.

Cut search order is exclusive -> sequence -> parallel -> loop; the first
maximal cut wins. Every split preserves replayability of the generating
log, so each discovered net replays its own log at zero alignment cost.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError
from .petri import PetriNet, Transition

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
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in sorted(adjacency.get(cur, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def _xor_cut(alphabet, dfg, starts, ends):
    undirected: dict[str, set[str]] = {a: set() for a in alphabet}
    for a, succs in dfg.items():
        for b in succs:
            undirected[a].add(b)
            undirected[b].add(a)
    comps = _components(alphabet, undirected)
    return comps if len(comps) >= 2 else None


def _reachability(alphabet, dfg) -> dict[str, set[str]]:
    reach = {a: set(dfg.get(a, ())) for a in alphabet}
    changed = True
    while changed:
        changed = False
        for a in alphabet:
            extra = set()
            for b in reach[a]:
                extra |= reach.get(b, set())
            if not extra <= reach[a]:
                reach[a] |= extra
                changed = True
    return reach


def _seq_cut(alphabet, dfg, starts, ends):
    reach = _reachability(alphabet, dfg)
    parent = {a: a for a in alphabet}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # Merge strongly connected pairs, then keep merging groups that are
    # pairwise unreachable or mutually reachable until a strict chain of
    # groups remains.
    for a in alphabet:
        for b in alphabet:
            if a < b and b in reach[a] and a in reach[b]:
                union(a, b)
    while True:
        groups: dict[str, list[str]] = {}
        for a in alphabet:
            groups.setdefault(find(a), []).append(a)
        reps = sorted(groups)

        def group_reaches(x, y):
            return any(b in reach[a] for a in groups[x] for b in groups[y])

        merged = False
        for i, x in enumerate(reps):
            for y in reps[i + 1:]:
                fwd, bwd = group_reaches(x, y), group_reaches(y, x)
                if fwd == bwd:  # incomparable or mutually reachable
                    union(x, y)
                    merged = True
                    break
            if merged:
                break
        if not merged:
            break
    if len(groups) < 2:
        return None
    ordered = sorted(
        reps,
        key=lambda x: -sum(1 for y in reps if y != x and group_reaches(x, y)),
    )
    for i, x in enumerate(ordered):  # defensive: require a strict chain
        for y in ordered[i + 1:]:
            if not group_reaches(x, y) or group_reaches(y, x):
                return None
    return [tuple(sorted(groups[x])) for x in ordered]


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
        undirected: dict[str, set[str]] = {a: set() for a in rest}
        for a in rest:
            for b in dfg.get(a, ()):
                if b in undirected:
                    undirected[a].add(b)
                    undirected[b].add(a)
        comps = _components(rest, undirected)
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
            if not comps:
                return None
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
