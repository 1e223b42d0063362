"""TCP event abstraction: traces, sliding-window state clustering, state logs.

Every packet becomes one event labeled by direction plus its flag
combination ("C_to_S_SYN", "S_to_C_ACK+PSH", ...; "NONE" for a flagless
data segment). Sliding windows over each trace are clustered with k-means
into states; maximal runs of equal state split a trace into contiguous
fragments whose concatenation reproduces the original trace.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_schema_json, write_jsonl, write_schema_json, write_xml
from .errors import DataError, SchemaError
# The event-label codec lives in flowmeter, next to Direction; it is
# re-exported here as part of the event layer's API.
from .flowmeter import (
    EMPTY_FLAGS_LABEL,
    FLAG_ORDER,
    Flow,
    FlowRecord,
    event_label,
    featurize,
    flags_label,
    parse_event_label,
)

PARAMS_SCHEMA = "alarmsift-extraction/1"
STATE_LOGS_SCHEMA = "alarmsift-state-logs/1"


@dataclass(frozen=True)
class Trace:
    """Ordered TCP event sequence of one flow."""

    flow_id: str
    events: tuple[str, ...]


def to_trace(flow: Flow) -> Trace:
    if not flow.packets:
        raise DataError(f"flow {flow.flow_id} has no packets")
    return Trace(
        flow_id=flow.flow_id,
        events=tuple(event_label(p.direction, p.flags) for p in flow.packets),
    )


def flow_to_record(flow: Flow) -> FlowRecord:
    """Features + trace for one assembled flow."""
    return FlowRecord(
        flow_id=flow.flow_id,
        truth=flow.truth,
        features=featurize(flow),
        events=to_trace(flow).events,
        client=flow.client,
        server=flow.server,
        first_ts=flow.first_ts,
        last_ts=flow.last_ts,
    )


@dataclass(frozen=True)
class ExtractionParams:
    """Clustering configuration; alphabet and centroids are set by fit."""

    clusters: int = 2
    window: int = 3
    seed: int = 0
    alphabet: tuple[str, ...] | None = None
    centroids: np.ndarray | None = None

    def __post_init__(self):
        if self.clusters < 1:
            raise DataError("cluster count must be >= 1")
        if self.window < 1:
            raise DataError("window length must be >= 1")

    @property
    def fitted(self) -> bool:
        return self.centroids is not None


@dataclass(frozen=True)
class Fragment:
    """A contiguous piece of one source trace, tagged with its state."""

    flow_id: str
    state: int
    index: int
    events: tuple[str, ...]


@dataclass
class StateEventLog:
    state: int
    fragments: list[Fragment]


def _alphabet_index(alphabet: Sequence[str]) -> dict[str, int]:
    return {label: i for i, label in enumerate(alphabet)}


def _window_slices(events: Sequence[str], window: int) -> list[Sequence[str]]:
    if len(events) <= window:
        return [events]
    return [events[i:i + window] for i in range(len(events) - window + 1)]


def _count_vectors(windows: list[Sequence[str]], index: dict[str, int]) -> np.ndarray:
    # A trailing OTHER dimension counts the labels unseen at fit time. That
    # leaves the nearest-centroid decision unchanged (the same offset is
    # added to every distance) while keeping their presence visible.
    dim = len(index) + 1
    out = np.zeros((len(windows), dim))
    other = dim - 1
    for row, win in enumerate(windows):
        for label in win:
            out[row, index.get(label, other)] += 1.0
    return out


def _kmeans(vectors: np.ndarray, k: int, seed: int, max_iter: int = 300) -> np.ndarray:
    """Seeded k-means++ initialization plus Lloyd iterations."""
    rng = np.random.default_rng(seed)
    n = len(vectors)
    first = int(rng.integers(n))
    centroids = [vectors[first]]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids.append(vectors[pick])
        d2 = np.minimum(d2, ((vectors - centroids[-1]) ** 2).sum(axis=1))
    cents = np.array(centroids)
    for _ in range(max_iter):
        dist = ((vectors[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new = cents.copy()
        for j in range(k):
            members = vectors[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster on the point worst served by its
                # current centroid; deterministic (first argmax).
                far = int(dist[np.arange(n), assign].argmax())
                new[j] = vectors[far]
        if np.array_equal(new, cents):
            break
        cents = new
    return cents


def fit_states(traces: Iterable[Trace], params: ExtractionParams) -> ExtractionParams:
    """Clusters sliding-window count vectors; returns fitted params.

    State ids are canonicalized by sorting centroids lexicographically, so
    equal inputs produce identical state numbering.
    """
    traces = list(traces)
    if not traces:
        raise DataError("cannot fit states on an empty trace set")
    alphabet = tuple(sorted({label for t in traces for label in t.events}))
    index = _alphabet_index(alphabet)
    windows: list[Sequence[str]] = []
    for trace in traces:
        windows.extend(_window_slices(trace.events, params.window))
    vectors = _count_vectors(windows, index)
    distinct = np.unique(vectors, axis=0)
    if len(distinct) < params.clusters:
        raise DataError(
            f"only {len(distinct)} distinct window vectors for k={params.clusters}; "
            "use a smaller cluster count"
        )
    cents = _kmeans(vectors, params.clusters, params.seed)
    if len(np.unique(cents, axis=0)) < params.clusters:
        raise DataError(
            f"clustering collapsed below k={params.clusters} distinct centroids; "
            "use a smaller cluster count"
        )
    order = np.lexsort(cents.T[::-1])
    return replace(params, alphabet=alphabet, centroids=cents[order])


def _nearest_state(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    dist = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return dist.argmin(axis=1)  # ties resolve to the lowest state id


def assign_states(trace: Trace, params: ExtractionParams) -> list[int]:
    """Per-event state: event i takes the state of the window starting at i;
    the final window-1 events inherit the last window's state."""
    if not params.fitted:
        raise DataError("extraction params are not fitted")
    index = _alphabet_index(params.alphabet)
    windows = _window_slices(trace.events, params.window)
    states = _nearest_state(_count_vectors(windows, index), params.centroids)
    n = len(trace.events)
    return [int(states[min(i, len(states) - 1)]) for i in range(n)]


def split_by_state(trace: Trace, params: ExtractionParams) -> list[Fragment]:
    """Maximal runs of equal state become fragments, in trace order."""
    states = assign_states(trace, params)
    fragments: list[Fragment] = []
    start = 0
    for i in range(1, len(states) + 1):
        if i == len(states) or states[i] != states[start]:
            fragments.append(
                Fragment(
                    flow_id=trace.flow_id,
                    state=states[start],
                    index=len(fragments),
                    events=trace.events[start:i],
                )
            )
            start = i
    return fragments


def unseen_labels(trace: Trace, params: ExtractionParams) -> tuple[str, ...]:
    """Labels of the trace outside the fitted alphabet (OTHER-mapped)."""
    if not params.fitted:
        raise DataError("extraction params are not fitted")
    known = set(params.alphabet)
    return tuple(sorted({e for e in trace.events if e not in known}))


def build_logs(traces: Iterable[Trace], params: ExtractionParams) -> dict[int, StateEventLog]:
    """Groups fragments of all traces by state; empty states are retained."""
    logs = {state: StateEventLog(state, []) for state in range(params.clusters)}
    for trace in traces:
        for frag in split_by_state(trace, params):
            logs[frag.state].fragments.append(frag)
    return logs


# --- persistence ---------------------------------------------------------

def save_params(params: ExtractionParams, path: str | Path) -> None:
    if not params.fitted:
        raise DataError("refusing to persist unfitted extraction params")
    write_schema_json(path, PARAMS_SCHEMA, {
        "clusters": params.clusters,
        "window": params.window,
        "seed": params.seed,
        "alphabet": list(params.alphabet),
        "centroids": [[float(v) for v in row] for row in params.centroids],
    })


def load_params(path: str | Path) -> ExtractionParams:
    payload = read_schema_json(path, PARAMS_SCHEMA)
    for key in ("clusters", "window", "seed"):
        if type(payload.get(key)) is not int:
            raise SchemaError(f"{path}: key {key!r} is missing or not an integer")
    try:
        params = ExtractionParams(
            clusters=payload["clusters"],
            window=payload["window"],
            seed=payload["seed"],
            alphabet=tuple(payload["alphabet"]),
            centroids=np.array(payload["centroids"], dtype=float),
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise SchemaError(f"{path}: malformed extraction params: {exc!r}") from exc
    # One row per state, one column per alphabet label plus the OTHER one.
    shape = (params.clusters, len(params.alphabet) + 1)
    if params.centroids.shape != shape or not np.isfinite(params.centroids).all():
        raise SchemaError(f"{path}: centroids must be a finite {shape[0]} x {shape[1]} matrix")
    return params


def export_xes(log: StateEventLog, path: str | Path) -> None:
    """One XES log per state; the event concept:name is the event label."""
    root = ET.Element("log", {"xes.version": "1849-2016", "xes.features": ""})
    ET.SubElement(root, "extension", {
        "name": "Concept", "prefix": "concept",
        "uri": "http://www.xes-standard.org/concept.xesext",
    })
    ET.SubElement(root, "string", {"key": "concept:name", "value": f"state-{log.state}"})
    for frag in log.fragments:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {
            "key": "concept:name", "value": f"{frag.flow_id}#{frag.index}",
        })
        for label in frag.events:
            event_el = ET.SubElement(trace_el, "event")
            ET.SubElement(event_el, "string", {"key": "concept:name", "value": label})
    write_xml(root, path)


def export_logs_jsonl(logs: dict[int, StateEventLog], path: str | Path) -> None:
    write_jsonl(path, STATE_LOGS_SCHEMA, (
        {"state": state, "flow_id": frag.flow_id, "fragment": frag.index,
         "events": list(frag.events)}
        for state in sorted(logs) for frag in logs[state].fragments
    ))
