"""Event abstraction: labels, state clustering, trace splitting, exports."""
import itertools
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarmsift.errors import DataError
from alarmsift.events import (
    ExtractionParams,
    assign_states,
    build_logs,
    export_logs_jsonl,
    export_xes,
    fit_states,
    flow_to_record,
    load_params,
    save_params,
    split_by_state,
    unseen_labels,
    _kmeans,
    _window_counts,
)
from alarmsift.flowmeter import (
    Direction,
    Flow,
    FlowPacket,
    event_label,
    flags_label,
    parse_event_label,
)

from reference_events import (
    alphabet_index,
    count_vectors,
    reference_assign_states,
    reference_fit_states,
    reference_parse_event_label,
    reference_split_by_state,
    window_slices,
)


def _flow(events, flow_id="f0"):
    packets = tuple(
        FlowPacket(direction=d, flags=frozenset(flags), timestamp=1.0 + i * 0.1,
                   payload_len=0, total_len=60)
        for i, (d, flags) in enumerate(events)
    )
    return Flow(flow_id=flow_id, client=("10.0.0.1", 1234), server=("10.0.0.2", 80),
                packets=packets)


C2S, S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT


def test_label_construction():
    assert event_label(C2S, {"SYN"}) == "C_to_S_SYN"
    assert event_label(S2C, {"PSH", "ACK"}) == "S_to_C_ACK+PSH"
    assert event_label(S2C, {"ACK", "SYN"}) == "S_to_C_SYN+ACK"
    assert event_label(C2S, set()) == "C_to_S_NONE"
    assert flags_label({"URG", "FIN", "RST"}) == "FIN+RST+URG"


def test_label_bijection():
    flag_pool = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
    seen = set()
    for direction in (C2S, S2C):
        for r in range(len(flag_pool) + 1):
            for combo in itertools.combinations(flag_pool, r):
                label = event_label(direction, combo)
                assert label not in seen
                seen.add(label)
                back_dir, back_flags = parse_event_label(label)
                assert back_dir == direction
                assert back_flags == frozenset(combo)


def test_parse_rejects_garbage():
    for bad in ("X_to_Y_SYN", "C_to_S_", "C_to_S_ACK+SYN", "C_to_S_SYN+SYN", "noise"):
        with pytest.raises(DataError):
            parse_event_label(bad)


def test_untracked_flag_rejected():
    with pytest.raises(DataError):
        flags_label({"ECE"})


def test_to_trace_handshake():
    flow = _flow([(C2S, {"SYN"}), (S2C, {"SYN", "ACK"}), (C2S, {"ACK"})])
    assert flow_to_record(flow).events == ("C_to_S_SYN", "S_to_C_SYN+ACK", "C_to_S_ACK")


def test_to_trace_flagless_segment():
    flow = _flow([(C2S, set())])
    assert flow_to_record(flow).events == ("C_to_S_NONE",)


def _params_for(alphabet, centroids, window=1, clusters=None):
    return ExtractionParams(
        clusters=clusters or len(centroids),
        window=window,
        seed=0,
        alphabet=tuple(alphabet),
        centroids=np.array(centroids, dtype=float),
    )


def test_assign_and_split_run_lengths():
    # w=1 over alphabet (a, b): pure-a windows -> state 0, pure-b -> state 1.
    params = _params_for(("a", "b"), [[1, 0, 0], [0, 1, 0]])
    trace = ("a", "a", "b", "b", "a")
    assert assign_states(trace, params) == [0, 0, 1, 1, 0]
    frags = split_by_state("f", trace, params)
    assert [(f.state, f.events) for f in frags] == [
        (0, ("a", "a")), (1, ("b", "b")), (0, ("a",)),
    ]
    assert [f.index for f in frags] == [0, 1, 2]


def test_short_trace_is_one_window():
    params = _params_for(("a", "b"), [[2, 0, 0], [0, 2, 0]], window=3)
    trace = ("a", "b")  # shorter than the window
    frags = split_by_state("f", trace, params)
    assert len(frags) == 1
    assert frags[0].events == ("a", "b")


def test_tail_events_take_last_window_state():
    params = _params_for(("a", "b"), [[3, 0, 0], [0, 3, 0]], window=3)
    trace = ("a", "a", "a", "b", "b", "b")
    # Windows starting at 0..3 score [0, 0, 1, 1]; the final two events
    # inherit the last window's state.
    assert assign_states(trace, params) == [0, 0, 1, 1, 1, 1]


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_reassembly_invariant(events):
    params = _params_for(("a", "b"), [[3, 0, 0], [0, 3, 0]], window=3)
    trace = tuple(events)
    frags = split_by_state("f", trace, params)
    rebuilt = tuple(e for f in frags for e in f.events)
    assert rebuilt == trace
    assert [f.index for f in frags] == list(range(len(frags)))


def test_unseen_labels_map_to_other_without_changing_assignment():
    params = _params_for(("a", "b"), [[3, 0, 0], [0, 3, 0]], window=3)
    t1 = ("a", "zz1", "a", "b", "b", "b")
    t2 = ("a", "zz2", "a", "b", "b", "b")
    assert assign_states(t1, params) == assign_states(t2, params)
    assert unseen_labels(t1, params) == ("zz1",)


def test_fit_states_separates_two_populations():
    traces = [("a",) * 6] * 5 + [("b",) * 6] * 5
    params = fit_states(traces, clusters=2, window=3, seed=13)
    assert params.alphabet == ("a", "b")
    sa = set(assign_states(traces[0], params))
    sb = set(assign_states(traces[-1], params))
    assert len(sa) == 1 and len(sb) == 1 and sa != sb


def test_fit_states_k1_trivial_concatenation():
    traces = {"f1": ("a", "b", "a"), "f2": ("b", "b")}
    params = fit_states(traces.values(), clusters=1, window=2, seed=5)
    logs = build_logs([split_by_state(f, t, params) for f, t in traces.items()], params)
    assert set(logs) == {0}
    assert [f.events for f in logs[0]] == [("a", "b", "a"), ("b", "b")]


def test_fit_states_requires_k_distinct_windows():
    traces = [("a", "a", "a", "a")]
    with pytest.raises(DataError):
        fit_states(traces, clusters=2, window=2, seed=0)


def test_fit_states_refuses_collapsed_centroids(monkeypatch):
    monkeypatch.setattr("alarmsift.events._kmeans",
                        lambda vectors, k, seed: np.repeat(vectors[:1], k, axis=0))
    with pytest.raises(DataError, match="collapsed"):
        fit_states([("a",) * 6, ("b",) * 6], clusters=2, window=3, seed=0)


@pytest.mark.parametrize("clusters, window", [(0, 2), (2, 0)])
def test_fit_states_rejects_sizes_below_one(clusters, window):
    with pytest.raises(DataError, match="must be >= 1"):
        fit_states([("a", "b", "a", "b")], clusters=clusters, window=window, seed=0)


def test_kmeans_matches_bruteforce_partition():
    vectors = np.array(
        [[0, 0], [0, 1], [1, 0], [5, 5], [5, 6], [6, 5]], dtype=float
    )

    def wcss(groups):
        total = 0.0
        for g in groups:
            pts = vectors[list(g)]
            total += ((pts - pts.mean(axis=0)) ** 2).sum()
        return total

    best = None
    indices = range(len(vectors))
    for size in range(1, len(vectors)):
        for combo in itertools.combinations(indices, size):
            rest = tuple(i for i in indices if i not in combo)
            cost = wcss([combo, rest])
            if best is None or cost < best[0]:
                best = (cost, frozenset([frozenset(combo), frozenset(rest)]))

    cents = _kmeans(vectors, 2, seed=3)
    dist = ((vectors[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assign = dist.argmin(axis=1)
    got = frozenset(
        frozenset(int(i) for i in np.flatnonzero(assign == j)) for j in range(2)
    )
    assert got == best[1]


def test_fit_is_deterministic_and_persistable(tmp_path):
    labels = ("C_to_S_ACK", "S_to_C_ACK")  # load_params reads event labels only
    traces = [tuple(labels[j % 2] for j in range(i + 3)) for i in range(8)]
    p1 = fit_states(traces, clusters=2, window=3, seed=9)
    p2 = fit_states(traces, clusters=2, window=3, seed=9)
    assert np.array_equal(p1.centroids, p2.centroids)
    save_params(p1, tmp_path / "params.json")
    save_params(p2, tmp_path / "params2.json")
    assert (tmp_path / "params.json").read_bytes() == (tmp_path / "params2.json").read_bytes()
    loaded = load_params(tmp_path / "params.json")
    assert loaded.alphabet == p1.alphabet
    assert np.array_equal(loaded.centroids, p1.centroids)


def test_build_logs_retains_empty_states():
    params = _params_for(("a", "b"), [[3, 0, 0], [0, 3, 0]], window=3)
    logs = build_logs([split_by_state("f", ("a", "a", "a"), params)], params)
    assert set(logs) == {0, 1}
    assert logs[1] == []


def test_xes_and_jsonl_exports(tmp_path):
    params = _params_for(("a", "b"), [[1, 0, 0], [0, 1, 0]], window=1)
    logs = build_logs([split_by_state("flow-1", ("a", "b", "a"), params)], params)
    export_xes(0, logs[0], tmp_path / "state_0.xes")
    root = ET.parse(tmp_path / "state_0.xes").getroot()
    events = [
        el.attrib["value"]
        for el in root.findall("./trace/event/string[@key='concept:name']")
    ]
    assert events == ["a", "a"]
    names = [el.attrib["value"] for el in root.findall("./trace/string[@key='concept:name']")]
    assert names == ["flow-1#0", "flow-1#2"]

    export_logs_jsonl(logs, tmp_path / "logs.jsonl")
    lines = (tmp_path / "logs.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["schema"].startswith("alarmsift-state-logs/")
    rows = [json.loads(line) for line in lines[1:]]
    assert [(r["state"], tuple(r["events"])) for r in rows] == [
        (0, ("a",)), (0, ("a",)), (1, ("b",)),
    ]


# --- the frozen oracle: tests/reference_events.py ---------------------------

_POOL = "abcdef"
# Traces may hold labels outside the fitted alphabet ("y", "z": OTHER).
_ALPHABETS = st.sets(st.sampled_from(_POOL), min_size=1).map(sorted).map(tuple)
# A small grid makes equidistant and repeated centroid rows likely.
_GRID = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))


@st.composite
def _split_cases(draw):
    alphabet = draw(_ALPHABETS)
    trace = tuple(draw(st.lists(st.sampled_from(alphabet + ("y", "z")), max_size=40)))
    rows = draw(st.lists(st.lists(_GRID, min_size=len(alphabet) + 1, max_size=len(alphabet) + 1),
                         min_size=1, max_size=4))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # repeated rows tie
    params = _params_for(alphabet, rows, window=draw(st.integers(1, 6)))
    return trace, params


@given(_split_cases())
@settings(max_examples=400, deadline=None)
def test_state_split_matches_reference(case):
    trace, params = case
    index = alphabet_index(params.alphabet)
    assert np.array_equal(
        _window_counts(trace, index, params.window),
        count_vectors(window_slices(trace, params.window), index),
    )
    assert assign_states(trace, params) == reference_assign_states(trace, params)
    assert split_by_state("f", trace, params) == reference_split_by_state("f", trace, params)


def test_empty_trace_has_no_state_and_no_fragment():
    params = _params_for(("a", "b"), [[1, 0, 0], [0, 1, 0]], window=3)
    assert assign_states((), params) == reference_assign_states((), params) == []
    assert split_by_state("f", (), params) == reference_split_by_state("f", (), params) == []


def _fit_outcome(fit, traces, clusters, window, seed):
    try:
        return fit(traces, clusters, window, seed)
    except DataError as exc:
        return str(exc)


@given(
    st.lists(st.lists(st.sampled_from(_POOL[:4]), max_size=12).map(tuple), min_size=1, max_size=6),
    st.integers(1, 4), st.integers(1, 6), st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_fit_states_matches_reference(traces, clusters, window, seed):
    got = _fit_outcome(fit_states, traces, clusters, window, seed)
    expected = _fit_outcome(reference_fit_states, traces, clusters, window, seed)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.alphabet == expected.alphabet
        assert np.array_equal(got.centroids, expected.centroids)


_LABEL_PREFIXES = ("C_to_S_", "S_to_C_", "C_to_S", "S_to_C", "X_to_Y_", "c_to_s_", "")
_LABEL_TOKENS = ("SYN", "ACK", "FIN", "RST", "PSH", "URG", "NONE", "ECE", "", "syn")


def _label_outcome(parse, label):
    try:
        return parse(label)
    except DataError as exc:
        return str(exc)


@given(
    st.sampled_from(_LABEL_PREFIXES),
    st.lists(st.sampled_from(_LABEL_TOKENS), max_size=5),
    st.sampled_from(("+", "", "_")),
)
@settings(max_examples=500, deadline=None)
def test_parse_event_label_matches_reference(prefix, tokens, sep):
    label = prefix + sep.join(tokens)
    assert _label_outcome(parse_event_label, label) == _label_outcome(
        reference_parse_event_label, label
    )
