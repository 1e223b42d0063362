"""A test-only copy of the state split and the label parser as they stood
before window counts came from prefix sums and labels from one table.

Windows are cut as slices of the trace and counted with a Python loop per
label; k-means and state assignment each compute their own squared
distances; fit_states counts distinct rows with np.unique; split_by_state
walks an index over the per-event states; parse_event_label parses the
label by hand. The result types are the package's own: alarmsift.events
must return np.array_equal window rows and centroids and equal states and
fragments, and alarmsift.flowmeter.parse_event_label an equal result or
the same DataError message.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from alarmsift.errors import DataError
from alarmsift.events import ExtractionParams, Fragment
from alarmsift.flowmeter import Direction

_FLAG_ORDER = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
_EMPTY_FLAGS_LABEL = "NONE"
_DIRECTION_PREFIXES = tuple(d.value for d in Direction)
_KMEANS_MAX_ITER = 300


def alphabet_index(alphabet: Sequence[str]) -> dict[str, int]:
    return {label: i for i, label in enumerate(alphabet)}


def window_slices(events: Sequence[str], window: int) -> list[Sequence[str]]:
    if len(events) <= window:
        return [events]
    return [events[i:i + window] for i in range(len(events) - window + 1)]


def count_vectors(windows: list[Sequence[str]], index: dict[str, int]) -> np.ndarray:
    dim = len(index) + 1
    out = np.zeros((len(windows), dim))
    other = dim - 1
    for row, win in enumerate(windows):
        for label in win:
            out[row, index.get(label, other)] += 1.0
    return out


def _kmeans(vectors: np.ndarray, k: int, seed: int) -> np.ndarray:
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
    for _ in range(_KMEANS_MAX_ITER):
        dist = ((vectors[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new = cents.copy()
        for j in range(k):
            members = vectors[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
                far = int(dist[np.arange(n), assign].argmax())
                new[j] = vectors[far]
        if np.array_equal(new, cents):
            break
        cents = new
    return cents


def reference_fit_states(
    sequences: Iterable[Sequence[str]], clusters: int, window: int, seed: int
) -> ExtractionParams:
    if clusters < 1:
        raise DataError("cluster count must be >= 1")
    if window < 1:
        raise DataError("window length must be >= 1")
    sequences = list(sequences)
    if not sequences:
        raise DataError("cannot fit states on an empty trace set")
    alphabet = tuple(sorted({label for events in sequences for label in events}))
    index = alphabet_index(alphabet)
    windows: list[Sequence[str]] = []
    for events in sequences:
        windows.extend(window_slices(events, window))
    vectors = count_vectors(windows, index)
    distinct = np.unique(vectors, axis=0)
    if len(distinct) < clusters:
        raise DataError(
            f"only {len(distinct)} distinct window vectors for k={clusters}; "
            "use a smaller cluster count"
        )
    cents = _kmeans(vectors, clusters, seed)
    if len(np.unique(cents, axis=0)) < clusters:
        raise DataError(
            f"clustering collapsed below k={clusters} distinct centroids; "
            "use a smaller cluster count"
        )
    order = np.lexsort(cents.T[::-1])
    return ExtractionParams(clusters, window, seed, alphabet, cents[order])


def nearest_state(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    dist = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return dist.argmin(axis=1)


def reference_assign_states(events: Sequence[str], params: ExtractionParams) -> list[int]:
    index = alphabet_index(params.alphabet)
    windows = window_slices(events, params.window)
    states = nearest_state(count_vectors(windows, index), params.centroids)
    return [int(states[min(i, len(states) - 1)]) for i in range(len(events))]


def reference_split_by_state(
    flow_id: str, events: tuple[str, ...], params: ExtractionParams
) -> list[Fragment]:
    states = reference_assign_states(events, params)
    fragments: list[Fragment] = []
    start = 0
    for i in range(1, len(states) + 1):
        if i == len(states) or states[i] != states[start]:
            fragments.append(
                Fragment(
                    flow_id=flow_id,
                    state=states[start],
                    index=len(fragments),
                    events=events[start:i],
                )
            )
            start = i
    return fragments


def reference_parse_event_label(label: str) -> tuple[Direction, frozenset[str]]:
    for prefix in _DIRECTION_PREFIXES:
        if label.startswith(prefix + "_"):
            part = label[len(prefix) + 1:]
            if part == _EMPTY_FLAGS_LABEL:
                return Direction(prefix), frozenset()
            flags = part.split("+")
            if flags != [f for f in _FLAG_ORDER if f in set(flags)] or len(set(flags)) != len(flags):
                break
            return Direction(prefix), frozenset(flags)
    raise DataError(f"not a TCP event label: {label!r}")
