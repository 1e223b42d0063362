"""Petri net data model: firing semantics, the reachability graph,
workflow-shape and soundness checks, and PNML serialization.

Nets here are workflow nets: a unique source place carrying the single
initial token, a unique sink place carrying the single final token, and
every node on a path between them. Arcs have unit weight: a net holds each
(source, target) arc at most once, and PetriNet refuses a repeated one.

A net keeps one order, whatever its declaration order: places, transitions
(by tid, so index order is tid order) and arcs sorted, markings in place
order. export_pnml writes it, import_pnml reads only a file that
export_pnml writes back, so each copy in it (a place's name, an arc's id)
is checked, and PetriNet.key holds it for == and the alignment memo.

Each net's reachable markings are explored once, breadth-first, into a
ReachabilityGraph that alignment and the soundness check read. A marking's
edges run silent transitions first by index, then visible ones by (label,
index): the alignment tie-break.

reachable(start, successors) is the one walk of an explicit graph: the
workflow-shape check, the soundness check's option to complete and the
inductive miner's cuts all call it.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from .artifacts import write_xml, xml_bytes
from .errors import DataError, SchemaError

PNML_NET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None = None  # None = silent

    @property
    def silent(self) -> bool:
        return self.label is None


Node = TypeVar("Node", bound=Hashable)

#: Reachable markings a net may have; reachability() reports a net with
#: more as unbounded.
MAX_MARKINGS = 50_000


@dataclass(frozen=True)
class ReachabilityGraph:
    """A net's reachable markings as place-count tuples. Marking ids index
    markings and edges; id 0 is the initial marking. edges[i] holds each
    (transition, next id) enabled at markings[i], in enabled_indexes
    order; by_label[i] maps each visible label to its edges of edges[i],
    in that order. final is the final marking's id, None when it is
    unreachable. An unbounded net (more than MAX_MARKINGS markings) has a
    graph with bounded False and no markings."""
    markings: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[Transition, int], ...], ...]
    by_label: tuple[Mapping[str, tuple[tuple[Transition, int], ...]], ...]
    final: int | None
    bounded: bool


class PetriNet:
    """Immutable place/transition net with unit-weight arcs, kept in the module's one order."""

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[Transition],
        arcs: Iterable[tuple[str, str]],
        initial_marking: Mapping[str, int],
        final_marking: Mapping[str, int],
    ):
        self.places: tuple[str, ...] = tuple(sorted(places))
        self.transitions: tuple[Transition, ...] = tuple(sorted(transitions, key=lambda t: t.tid))
        self.arcs: tuple[tuple[str, str], ...] = tuple(sorted(arcs))
        self.initial_marking = dict(sorted((p, c) for p, c in initial_marking.items() if c))
        self.final_marking = dict(sorted((p, c) for p, c in final_marking.items() if c))
        self.key: tuple = (
            self.places, self.transitions, self.arcs,
            tuple(self.initial_marking.items()), tuple(self.final_marking.items()),
        )

        places = {p: i for i, p in enumerate(self.places)}
        tids = {t.tid: j for j, t in enumerate(self.transitions)}
        if len(places) != len(self.places) or len(tids) != len(self.transitions):
            raise DataError("duplicate place or transition ids")
        if places.keys() & tids.keys():
            raise DataError("place and transition ids must be disjoint")
        pre: list[list[int]] = [[] for _ in self.transitions]
        post: list[list[int]] = [[] for _ in self.transitions]
        for src, dst in self.arcs:
            if src in places and dst in tids:
                table, j, i = pre, tids[dst], places[src]
            elif src in tids and dst in places:
                table, j, i = post, tids[src], places[dst]
            else:
                raise DataError(f"arc ({src}, {dst}) is not place<->transition")
            if i in table[j]:
                raise DataError(f"arc ({src}, {dst}) is repeated; arcs have unit weight")
            table[j].append(i)
        for p, count in [*self.initial_marking.items(), *self.final_marking.items()]:
            if p not in places:
                raise DataError(f"marking references unknown place {p}")
            if count < 0:
                raise DataError(f"marking puts {count} tokens on place {p}")
        self._pre: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ps)) for ps in pre)
        self._post: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ps)) for ps in post)
        self.labels: frozenset[str] = frozenset(
            t.label for t in self.transitions if t.label is not None
        )
        self._order: tuple[int, ...] = tuple(sorted(
            range(len(self.transitions)),
            key=lambda j: (not self.transitions[j].silent, self.transitions[j].label or "", j),
        ))
        self._graph: ReachabilityGraph | None = None

    def marking_tuple(self, marking: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(marking.get(p, 0) for p in self.places)

    def enabled_indexes(self, m: tuple[int, ...]) -> list[int]:
        """Enabled transitions: silent ones by index, then visible ones by
        (label, index)."""
        return [j for j in self._order if all(m[p] >= 1 for p in self._pre[j])]

    def fire_index(self, m: tuple[int, ...], j: int) -> tuple[int, ...]:
        out = list(m)
        for p in self._pre[j]:
            out[p] -= 1
        for p in self._post[j]:
            out[p] += 1
        return tuple(out)

    def reachability(self) -> ReachabilityGraph:
        """The net's reachability graph, explored on the first call and kept."""
        if self._graph is None:
            initial = self.marking_tuple(self.initial_marking)
            ids = {initial: 0}
            markings = [initial]
            edges: list[tuple[tuple[Transition, int], ...]] = []
            by_label: list[dict[str, tuple[tuple[Transition, int], ...]]] = []
            for m in markings:  # appended to while iterated: breadth-first
                if len(markings) > MAX_MARKINGS:
                    self._graph = ReachabilityGraph((), (), (), None, False)
                    return self._graph
                out = []
                grouped: dict[str, tuple[tuple[Transition, int], ...]] = {}
                for j in self.enabled_indexes(m):
                    nxt = self.fire_index(m, j)
                    k = ids.get(nxt)
                    if k is None:
                        k = ids[nxt] = len(markings)
                        markings.append(nxt)
                    t = self.transitions[j]
                    out.append((t, k))
                    if t.label is not None:
                        grouped[t.label] = grouped.get(t.label, ()) + ((t, k),)
                edges.append(tuple(out))
                by_label.append(grouped)
            final = ids.get(self.marking_tuple(self.final_marking))
            self._graph = ReachabilityGraph(
                tuple(markings), tuple(edges), tuple(by_label), final, True
            )
        return self._graph

    def __eq__(self, other) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return self.key == other.key

    def __repr__(self) -> str:
        return (
            f"PetriNet(|P|={len(self.places)}, |T|={len(self.transitions)}, "
            f"|F|={len(self.arcs)})"
        )


def reachable(start: Iterable[Node], successors: Callable[[Node], Iterable[Node]]) -> set[Node]:
    """Every node reachable from start along successors, start included."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for nxt in successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def workflow_shape_errors(net: PetriNet) -> list[str]:
    """Checks the workflow-net shape; returns human-readable violations."""
    errors: list[str] = []
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for src, dst in net.arcs:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    sources = [p for p in net.places if p not in pred]
    sinks = [p for p in net.places if p not in succ]
    if len(sources) != 1:
        errors.append(f"expected one source place, found {sources}")
    if len(sinks) != 1:
        errors.append(f"expected one sink place, found {sinks}")
    if sources and net.initial_marking != {sources[0]: 1}:
        errors.append("initial marking is not one token on the source place")
    if sinks and net.final_marking != {sinks[0]: 1}:
        errors.append("final marking is not one token on the sink place")
    if sources and sinks:
        fwd = reachable([sources[0]], lambda n: succ.get(n, ()))
        bwd = reachable([sinks[0]], lambda n: pred.get(n, ()))
        nodes = set(net.places) | {t.tid for t in net.transitions}
        off_path = sorted(nodes - (fwd & bwd))
        if off_path:
            errors.append(f"nodes not on a source-to-sink path: {off_path}")
    return errors


def check_soundness(net: PetriNet) -> list[str]:
    """Soundness issues of a net, read off its reachability graph; an empty
    list means sound.

    Checks that the graph is bounded, that the final marking is reachable,
    proper completion (no reachable marking strictly covers the final
    marking), the option to complete (the final marking is reachable from
    every reachable marking) and the absence of dead transitions.
    """
    graph = net.reachability()
    if not graph.bounded:
        return [f"exploration cap of {MAX_MARKINGS} markings exceeded"]
    issues: list[str] = []
    if graph.final is None:
        issues.append("final marking unreachable from the initial marking")
    final = net.marking_tuple(net.final_marking)
    for m in graph.markings:
        if m != final and all(a >= b for a, b in zip(m, final)):
            issues.append(f"improper completion: marking {m} covers the final marking")
            break
    # Option to complete: walk predecessor lists back from the final marking.
    preds: list[list[int]] = [[] for _ in graph.markings]
    for i, out in enumerate(graph.edges):
        for _, k in out:
            preds[k].append(i)
    can_finish = reachable([] if graph.final is None else [graph.final], preds.__getitem__)
    stuck = len(graph.markings) - len(can_finish)
    if stuck:
        issues.append(f"{stuck} reachable marking(s) cannot reach the final marking")
    fired = {t.tid for out in graph.edges for t, _ in out}
    dead = sorted(t.tid for t in net.transitions if t.tid not in fired)
    if dead:
        issues.append(f"dead transitions: {dead}")
    return issues


# --- PNML ----------------------------------------------------------------

def _pnml_tree(net: PetriNet, net_id: str) -> ET.Element:
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", {"id": net_id, "type": PNML_NET_TYPE})
    page = ET.SubElement(net_el, "page", {"id": "page0"})
    for p in net.places:
        p_el = ET.SubElement(page, "place", {"id": p})
        name = ET.SubElement(p_el, "name")
        ET.SubElement(name, "text").text = p
        if net.initial_marking.get(p):
            im = ET.SubElement(p_el, "initialMarking")
            ET.SubElement(im, "text").text = str(net.initial_marking[p])
    for t in net.transitions:
        t_el = ET.SubElement(page, "transition", {"id": t.tid})
        if t.label is not None:
            name = ET.SubElement(t_el, "name")
            ET.SubElement(name, "text").text = t.label
    for i, (src, dst) in enumerate(net.arcs):
        ET.SubElement(page, "arc", {"id": f"a{i}", "source": src, "target": dst})
    finals = ET.SubElement(net_el, "finalmarkings")
    marking_el = ET.SubElement(finals, "marking")
    for p in net.final_marking:
        ref = ET.SubElement(marking_el, "place", {"idref": p})
        ET.SubElement(ref, "text").text = str(net.final_marking[p])
    return root


def export_pnml(net: PetriNet, path: str | Path, net_id: str = "net0") -> None:
    """Deterministic PNML with a finalmarkings extension element."""
    write_xml(_pnml_tree(net, net_id), path)


def import_pnml(path: str | Path, net_id: str = "net0") -> PetriNet:
    """The net in path, which export_pnml(net, path, net_id) must write back
    as canonical XML, whitespace around texts ignored as read_json ignores
    JSON layout; else raises SchemaError naming the file."""
    try:
        data = Path(path).read_bytes()
        root = ET.fromstring(data)
        net = PetriNet(
            [p_el.attrib["id"] for p_el in root.iterfind("net/page/place")],
            # An empty name reads as none, which export_pnml does not write back.
            [Transition(t_el.attrib["id"], t_el.findtext("name/text") or None)
             for t_el in root.iterfind("net/page/transition")],
            [(a_el.attrib["source"], a_el.attrib["target"])
             for a_el in root.iterfind("net/page/arc")],
            {p_el.attrib["id"]: int(p_el.findtext("initialMarking/text"))
             for p_el in root.iterfind("net/page/place[initialMarking]")},
            {ref.attrib["idref"]: int(ref.findtext("text"))
             for ref in root.iterfind("net/finalmarkings/marking/place")},
        )
    except (ET.ParseError, OSError, LookupError, TypeError, ValueError, DataError) as exc:
        raise SchemaError(f"{path}: not a readable PNML net: {exc!r}") from exc
    written = xml_bytes(_pnml_tree(net, net_id))
    if ET.canonicalize(written, strip_text=True) != ET.canonicalize(data, strip_text=True):
        raise SchemaError(f"{path}: not what export_pnml writes for the net read from it")
    return net
