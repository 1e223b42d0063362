"""TCP event abstraction: sliding-window state clustering and state logs.

A trace is a flow's events as a plain tuple of labels, one per packet:
direction plus flag combination ("C_to_S_SYN", "S_to_C_ACK+PSH", ...;
"NONE" for a flagless data segment; flowmeter.event_label). Sliding
windows over the traces are clustered with k-means into states; maximal
runs of equal state split a trace into contiguous fragments whose
concatenation reproduces the trace. A window's label counts are the
difference of two rows of the trace's one-hot prefix sums, and a window
equally near two centroids takes the lower state. A state's log is the
list of its fragments: build_logs returns the logs as a
dict[int, list[Fragment]] keyed by state, empty states included.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_json, write_jsonl, write_schema_json, write_xml
from .errors import DataError
from .flowmeter import EVENT_LABELS, Flow, FlowRecord, event_label, featurize, parse_event_label

PARAMS_SCHEMA = "alarmsift-extraction/1"
STATE_LOGS_SCHEMA = "alarmsift-state-logs/1"
_KMEANS_MAX_ITER = 300


# Labelling a packet is one lookup; event_label raises for what the table lacks.
_LABEL_KEY = attrgetter("direction", "flags")


def flow_to_record(flow: Flow) -> FlowRecord:
    """Features + trace for one assembled flow; featurize raises DataError
    for a flow without packets, and event_label for untracked flags."""
    return FlowRecord(
        flow_id=flow.flow_id,
        truth=flow.truth,
        features=featurize(flow),
        events=tuple([
            EVENT_LABELS.get(key) or event_label(*key) for key in map(_LABEL_KEY, flow.packets)
        ]),
    )


def _check_sizes(clusters: int, window: int) -> None:
    if clusters < 1:
        raise DataError("cluster count must be >= 1")
    if window < 1:
        raise DataError("window length must be >= 1")


@dataclass(frozen=True)
class ExtractionParams:
    """A fitted state clustering, as fit_states returns and load_params
    reads it: one centroid row per state over the alphabet plus OTHER."""

    clusters: int
    window: int
    seed: int
    alphabet: tuple[str, ...]
    centroids: np.ndarray

    def __post_init__(self):
        _check_sizes(self.clusters, self.window)


@dataclass(frozen=True)
class Fragment:
    """A contiguous piece of one source trace, tagged with its state."""

    flow_id: str
    state: int
    index: int
    events: tuple[str, ...]


def _alphabet_index(alphabet: Sequence[str]) -> dict[str, int]:
    return {label: i for i, label in enumerate(alphabet)}


def _window_counts(events: Sequence[str], index: dict[str, int], window: int) -> np.ndarray:
    """Row i counts the labels of events[i:i + window]; a trace no longer
    than the window is one row. A trailing OTHER column counts the labels
    outside index: it adds the same offset to every centroid distance, so
    it leaves the nearest state unchanged while keeping them visible."""
    other = len(index)
    onehot = np.zeros((len(events) + 1, other + 1))
    onehot[np.arange(1, len(events) + 1), [index.get(label, other) for label in events]] = 1.0
    sums = onehot.cumsum(axis=0)  # whole numbers, so the differences are exact
    width = min(window, len(events))
    return sums[width:] - sums[:len(sums) - width]


def _sq_dist(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _kmeans(vectors: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++ initialization plus Lloyd iterations."""
    rng = np.random.default_rng(seed)
    n = len(vectors)
    first = int(rng.integers(n))
    centroids = [vectors[first]]
    d2 = ((vectors - centroids[0]) ** 2).sum(axis=1)
    # fit_states passes at least k distinct integral vectors, and a vector
    # already chosen has d2 == 0, so d2 sums to at least 1 until k are chosen.
    for _ in range(1, k):
        pick = int(rng.choice(n, p=d2 / d2.sum()))
        centroids.append(vectors[pick])
        d2 = np.minimum(d2, ((vectors - centroids[-1]) ** 2).sum(axis=1))
    cents = np.array(centroids)
    for _ in range(_KMEANS_MAX_ITER):
        dist = _sq_dist(vectors, cents)
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


def fit_states(
    sequences: Iterable[Sequence[str]], clusters: int, window: int, seed: int
) -> ExtractionParams:
    """Clusters the sliding-window count vectors of the traces into
    `clusters` states.

    State ids are canonicalized by sorting centroids lexicographically, so
    equal inputs produce identical state numbering.
    """
    _check_sizes(clusters, window)
    sequences = list(sequences)
    if not sequences:
        raise DataError("cannot fit states on an empty trace set")
    alphabet = tuple(sorted({label for events in sequences for label in events}))
    index = _alphabet_index(alphabet)
    vectors = np.concatenate([_window_counts(events, index, window) for events in sequences])
    distinct = len(set(map(tuple, vectors.tolist())))
    if distinct < clusters:
        raise DataError(
            f"only {distinct} distinct window vectors for k={clusters}; "
            "use a smaller cluster count"
        )
    cents = _kmeans(vectors, clusters, seed)
    if len(set(map(tuple, cents.tolist()))) < clusters:
        raise DataError(
            f"clustering collapsed below k={clusters} distinct centroids; "
            "use a smaller cluster count"
        )
    order = np.lexsort(cents.T[::-1])
    return ExtractionParams(clusters, window, seed, alphabet, cents[order])


def assign_states(events: Sequence[str], params: ExtractionParams) -> list[int]:
    """Per-event state: event i takes the state of the window starting at i;
    the final window-1 events inherit the last window's state. Ties go to
    the lowest state id."""
    counts = _window_counts(events, _alphabet_index(params.alphabet), params.window)
    states = _sq_dist(counts, params.centroids).argmin(axis=1).tolist()
    # The empty trace has one (empty) window but no event.
    return states[:len(events)] + states[-1:] * (len(events) - len(states))


def split_by_state(
    flow_id: str, events: tuple[str, ...], params: ExtractionParams
) -> list[Fragment]:
    """Maximal runs of equal state become fragments, in trace order."""
    fragments: list[Fragment] = []
    start = 0
    for state, run in groupby(assign_states(events, params)):
        end = start + sum(1 for _ in run)
        fragments.append(Fragment(flow_id, state, len(fragments), events[start:end]))
        start = end
    return fragments


def unseen_labels(events: Sequence[str], params: ExtractionParams) -> tuple[str, ...]:
    """Labels of the trace outside the fitted alphabet (OTHER-mapped)."""
    known = set(params.alphabet)
    return tuple(sorted({e for e in events if e not in known}))


def build_logs(
    per_flow_fragments: Iterable[list[Fragment]], params: ExtractionParams
) -> dict[int, list[Fragment]]:
    """Groups split traces' fragments by state, in input order; every state
    has a log, empty ones included."""
    logs: dict[int, list[Fragment]] = {state: [] for state in range(params.clusters)}
    for fragments in per_flow_fragments:
        for frag in fragments:
            logs[frag.state].append(frag)
    return logs


# --- persistence ---------------------------------------------------------

def _params_payload(params: ExtractionParams) -> dict:
    return {
        "clusters": params.clusters,
        "window": params.window,
        "seed": params.seed,
        "alphabet": list(params.alphabet),
        "centroids": [[float(v) for v in row] for row in params.centroids],
    }


def save_params(params: ExtractionParams, path: str | Path) -> None:
    write_schema_json(path, PARAMS_SCHEMA, _params_payload(params))


def load_params(path: str | Path) -> ExtractionParams:
    """Reads save_params's file, valid exactly when _params_payload writes it
    back (artifacts.read_json), the alphabet is sorted, distinct event labels
    (flowmeter.parse_event_label) and the centroids are a finite clusters x
    (alphabet + OTHER) matrix in [0, window]; else raises SchemaError."""
    return read_json(path, PARAMS_SCHEMA, _params_from, _params_payload)


def _params_from(payload: dict) -> ExtractionParams:
    params = ExtractionParams(
        clusters=int(payload["clusters"]),
        window=int(payload["window"]),
        seed=int(payload["seed"]),
        alphabet=tuple(str(label) for label in payload["alphabet"]),
        centroids=np.array([[float(v) for v in row] for row in payload["centroids"]]),
    )
    if list(params.alphabet) != sorted(set(params.alphabet)):
        raise ValueError("the alphabet must be sorted and distinct")
    for label in params.alphabet:
        parse_event_label(label)  # DataError for a string that is not an event label
    # One row per state, one column per alphabet label plus the OTHER one.
    shape = (params.clusters, len(params.alphabet) + 1)
    if params.centroids.shape != shape or not np.isfinite(params.centroids).all():
        raise ValueError(f"centroids must be a finite {shape[0]} x {shape[1]} matrix")
    # A centroid is a mean of window label counts.
    if ((params.centroids < 0) | (params.centroids > params.window)).any():
        raise ValueError(f"centroid entries must lie in [0, {params.window}]")
    return params


def export_xes(state: int, fragments: list[Fragment], path: str | Path) -> None:
    """One XES log per state; the event concept:name is the event label."""
    root = ET.Element("log", {"xes.version": "1849-2016", "xes.features": ""})
    ET.SubElement(root, "extension", {
        "name": "Concept", "prefix": "concept",
        "uri": "http://www.xes-standard.org/concept.xesext",
    })
    ET.SubElement(root, "string", {"key": "concept:name", "value": f"state-{state}"})
    for frag in fragments:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {
            "key": "concept:name", "value": f"{frag.flow_id}#{frag.index}",
        })
        for label in frag.events:
            event_el = ET.SubElement(trace_el, "event")
            ET.SubElement(event_el, "string", {"key": "concept:name", "value": label})
    write_xml(root, path)


def export_logs_jsonl(logs: dict[int, list[Fragment]], path: str | Path) -> None:
    write_jsonl(path, STATE_LOGS_SCHEMA, (
        {"state": state, "flow_id": frag.flow_id, "fragment": frag.index,
         "events": list(frag.events)}
        for state in sorted(logs) for frag in logs[state]
    ))
