"""Flow assembly and feature statistics."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alarmsift.errors import DataError, SchemaError
from alarmsift.events import flow_to_record
from alarmsift.flowmeter import (
    FEATURE_NAMES,
    Direction,
    Flow,
    FlowPacket,
    assemble_flows,
    event_label,
    featurize,
    read_corpus,
    write_flow_events,
    write_flows_csv,
)
from alarmsift.pcap import PacketRecord, ingest_pcap

from capturecraft import handshake_fin_frames, ipv4_tcp_frame, pcap_bytes
from reference_flowmeter import reference_assemble_flows, reference_featurize


def _pkt(ts, src, dst, sport, dport, flags=(), payload=0, total=60):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        flags=frozenset(flags), payload_len=payload, total_len=total,
    )


def _conversation(ts0, client, server, cport, sport):
    return [
        _pkt(ts0, client, server, cport, sport, ("SYN",)),
        _pkt(ts0 + 0.01, server, client, sport, cport, ("SYN", "ACK")),
        _pkt(ts0 + 0.02, client, server, cport, sport, ("ACK",)),
    ]


def test_feature_list_is_fixed():
    assert len(FEATURE_NAMES) == 40
    assert len(set(FEATURE_NAMES)) == 40


def test_interleaved_conversations_partition():
    pkts = []
    c1 = _conversation(1.0, "10.0.0.1", "10.0.0.9", 1111, 80)
    c2 = _conversation(1.005, "10.0.0.1", "10.0.0.9", 2222, 80)
    for p1, p2 in zip(c1, c2):
        pkts.extend([p1, p2])
    flows = assemble_flows(pkts)
    assert len(flows) == 2
    assert sum(len(f.packets) for f in flows) == len(pkts)
    assert {f.client[1] for f in flows} == {1111, 2222}


def test_idle_timeout_splits_flow():
    pkts = _conversation(1.0, "10.0.0.1", "10.0.0.9", 1111, 80)
    pkts.append(_pkt(301.03, "10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",)))
    flows = assemble_flows(pkts, timeout=120.0)
    assert len(flows) == 2
    assert len(flows[0].packets) == 3 and len(flows[1].packets) == 1


def test_idle_gap_must_exceed_the_timeout_to_split():
    def gap_flows(second_ts):
        pkts = [_pkt(ts, "10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",)) for ts in (2.0, second_ts)]
        return assemble_flows(pkts, timeout=120.0)

    assert [len(f.packets) for f in gap_flows(122.0)] == [2]  # gap == timeout
    assert [len(f.packets) for f in gap_flows(math.nextafter(122.0, math.inf))] == [1, 1]


def test_fin_close_then_new_flow():
    client, server = "10.0.0.1", "10.0.0.9"
    pkts = [
        _pkt(1.0, client, server, 1111, 80, ("SYN",)),
        _pkt(1.1, server, client, 80, 1111, ("SYN", "ACK")),
        _pkt(1.2, client, server, 1111, 80, ("ACK",)),
        _pkt(2.0, client, server, 1111, 80, ("FIN", "ACK")),
        _pkt(2.1, server, client, 80, 1111, ("FIN", "ACK")),
        _pkt(2.2, client, server, 1111, 80, ("ACK",)),  # final ACK closes
        _pkt(3.0, client, server, 1111, 80, ("SYN",)),  # same key: new flow
    ]
    flows = assemble_flows(pkts)
    assert [len(f.packets) for f in flows] == [6, 1]


def test_rst_terminates_flow():
    pkts = _conversation(1.0, "10.0.0.1", "10.0.0.9", 1111, 80)
    pkts.append(_pkt(1.5, "10.0.0.9", "10.0.0.1", 80, 1111, ("RST",)))
    pkts.append(_pkt(1.6, "10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",)))
    flows = assemble_flows(pkts)
    assert [len(f.packets) for f in flows] == [4, 1]


def test_client_is_first_syn_sender():
    client, server = "10.0.0.1", "10.0.0.9"
    pkts = [
        _pkt(1.0, server, client, 80, 1111, ("ACK",), payload=10),  # stray first
        _pkt(1.1, client, server, 1111, 80, ("SYN",)),
    ]
    (flow,) = assemble_flows(pkts)
    assert flow.client == (client, 1111)
    assert [p.direction for p in flow.packets] == [
        Direction.SERVER_TO_CLIENT, Direction.CLIENT_TO_SERVER,
    ]


def test_client_falls_back_to_first_sender():
    pkts = [_pkt(1.0, "10.0.0.5", "10.0.0.9", 4444, 80, ("ACK",))]
    (flow,) = assemble_flows(pkts)
    assert flow.client == ("10.0.0.5", 4444)


def test_single_packet_features():
    pkts = [_pkt(1.0, "10.0.0.1", "10.0.0.2", 1111, 80, ("ACK",), total=60)]
    (flow,) = assemble_flows(pkts)
    features = dict(zip(FEATURE_NAMES, featurize(flow)))
    assert features["packets_total"] == 1
    assert features["bytes_total"] == 60
    assert features["pkt_len_std"] == 0.0
    assert features["duration"] == 0.0
    assert features["psh_count"] == 0.0


def test_handshake_fin_flag_counts(tmp_path):
    path = tmp_path / "hs.pcap"
    path.write_bytes(pcap_bytes(handshake_fin_frames()))
    result = ingest_pcap(path)
    (flow,) = assemble_flows(result.packets)
    features = dict(zip(FEATURE_NAMES, featurize(flow)))
    assert features["syn_count"] == 2
    assert features["fin_count"] == 2
    assert features["ack_count"] == 5
    assert features["packets_total"] == 6
    assert features["packets_c2s"] == 4 and features["packets_s2c"] == 2


def test_partition_invariant_random_traffic():
    rng = np.random.default_rng(5)
    pkts = []
    ts = 1.0
    for _ in range(300):
        ts += float(rng.uniform(0, 2))
        cport = int(rng.integers(1000, 1006))
        pkts.append(
            _pkt(ts, "10.0.0.1", "10.0.0.9", cport, 80,
                 ("ACK",) if rng.random() < 0.8 else ("SYN",))
        )
    flows = assemble_flows(pkts, timeout=5.0)
    assert sum(len(f.packets) for f in flows) == len(pkts)
    assert all(f.duration >= 0 for f in flows)
    assert [f.first_ts for f in flows] == sorted(f.first_ts for f in flows)


_TRACKED_FLAGS = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
_FLAG_SETS = st.frozensets(st.sampled_from(_TRACKED_FLAGS))


@given(st.lists(
    st.tuples(
        st.sampled_from(("10.0.0.1", "10.0.0.2", "10.0.0.3")), st.sampled_from((80, 1111)),
        st.sampled_from(("10.0.0.1", "10.0.0.2")), st.sampled_from((80, 1111)),
        _FLAG_SETS, st.floats(0.0, 5.0),
    ),
    max_size=40,
))
@settings(max_examples=150, deadline=None)
def test_assembly_equals_the_reference(rows):
    # Few endpoints, so flows share keys, close, time out and talk to
    # themselves.
    pkts, ts = [], 1.0
    for src, sport, dst, dport, flags, gap in rows:
        ts += gap
        pkts.append(_pkt(ts, src, dst, sport, dport, flags, payload=int(gap * 10), total=60))
    assert assemble_flows(pkts, timeout=4.0) == reference_assemble_flows(pkts, timeout=4.0)


_FLOW_PACKETS = st.builds(
    FlowPacket,
    direction=st.sampled_from(Direction),
    flags=st.one_of(_FLAG_SETS, st.just(frozenset())),
    timestamp=st.floats(0.0, 2e9),
    payload_len=st.integers(0, 9000),
    total_len=st.integers(0, 9000),
)


@st.composite
def _flows(draw):
    """A flow of 1-60 packets; some have one direction only."""
    packets = draw(st.lists(_FLOW_PACKETS, min_size=1, max_size=60))
    if draw(st.booleans()):
        packets = [dataclasses.replace(p, direction=packets[0].direction) for p in packets]
    if draw(st.booleans()):
        packets.sort(key=lambda p: p.timestamp)
    return Flow("f", ("10.0.0.1", 1111), ("10.0.0.2", 80), tuple(packets))


@given(_flows())
@settings(max_examples=200, deadline=None)
def test_features_and_labels_equal_the_reference(flow):
    assert np.array_equal(featurize(flow), reference_featurize(flow))
    assert flow_to_record(flow).events == tuple(
        event_label(p.direction, p.flags) for p in flow.packets
    )


def test_untracked_flags_still_raise_when_labelled():
    flow = Flow("f", ("10.0.0.1", 1111), ("10.0.0.2", 80), (
        FlowPacket(Direction.CLIENT_TO_SERVER, frozenset({"SYN", "ECE"}), 1.0, 0, 60),
    ))
    with pytest.raises(DataError, match="untracked TCP flags"):
        flow_to_record(flow)


def test_featurize_rejects_empty_flow():
    with pytest.raises((DataError, IndexError)):
        featurize(Flow("x", ("a", 1), ("b", 2), ()))


def test_timeout_must_be_positive():
    with pytest.raises(DataError):
        assemble_flows([], timeout=0)


def test_flow_csv_deterministic_and_round_trips(tmp_path):
    frames = handshake_fin_frames()
    result = ingest_pcap_write(tmp_path, frames)
    flows = assemble_flows(result.packets, truth="normal")
    records = [flow_to_record(f) for f in flows]

    write_flows_csv(flows, tmp_path / "flows1.csv")
    write_flows_csv(flows, tmp_path / "flows2.csv")
    assert (tmp_path / "flows1.csv").read_bytes() == (tmp_path / "flows2.csv").read_bytes()

    write_flow_events(flows, tmp_path / "events.jsonl")
    loaded = read_corpus(tmp_path / "flows1.csv", tmp_path / "events.jsonl")
    assert len(loaded) == len(records)
    assert loaded[0].flow_id == records[0].flow_id
    assert loaded[0].events == records[0].events
    assert np.allclose(loaded[0].features, records[0].features)
    assert loaded[0].truth == "normal"


def ingest_pcap_write(tmp_path, frames):
    path = tmp_path / "cap.pcap"
    path.write_bytes(pcap_bytes(frames))
    return ingest_pcap(path)


def test_flow_record_events_match_to_trace(tmp_path):
    frames = [
        (1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",))),
        (1.1, ipv4_tcp_frame("10.0.0.2", "10.0.0.1", 80, 1111, ("SYN", "ACK"))),
        (1.2, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("ACK", "PSH"), b"hi")),
    ]
    path = tmp_path / "c.pcap"
    path.write_bytes(pcap_bytes(frames))
    (flow,) = assemble_flows(ingest_pcap(path).packets)
    record = flow_to_record(flow)
    assert record.events == ("C_to_S_SYN", "S_to_C_SYN+ACK", "C_to_S_ACK+PSH")


@pytest.mark.parametrize("bad_flags", ["ACK+SYN", "SYN+SYN", "ECE", ""])
def test_read_corpus_rejects_corrupt_event_label(tmp_path, bad_flags):
    frames = handshake_fin_frames()
    flows = assemble_flows(ingest_pcap_write(tmp_path, frames).packets, truth="normal")
    write_flows_csv(flows, tmp_path / "flows.csv")
    write_flow_events(flows, tmp_path / "events.jsonl")
    header, first, *rest = (tmp_path / "events.jsonl").read_text().splitlines()
    row = json.loads(first)
    row["events"][0][1] = bad_flags
    (tmp_path / "events.jsonl").write_text("\n".join([header, json.dumps(row), *rest]) + "\n")
    with pytest.raises(SchemaError, match="events.jsonl"):
        read_corpus(tmp_path / "flows.csv", tmp_path / "events.jsonl")


def _without(key):
    def edit(line):
        row = json.loads(line)
        del row[key]
        return json.dumps(row)
    return edit


def _two_field_event(line):
    row = json.loads(line)
    row["events"][0] = row["events"][0][:2]
    return json.dumps(row)


def _no_events(line):
    row = json.loads(line)
    row["events"] = []
    return json.dumps(row)


def _last_feature(value):
    return lambda line: line.rsplit(",", 1)[0] + "," + value


def _column(column, value):
    # Columns: flow_id, client ip and port, server ip and port, first and
    # last ts, truth, then the features.
    return lambda line: ",".join(
        value if i == column else cell for i, cell in enumerate(line.split(","))
    )


def _truth(value):
    return _column(7, value)


@pytest.mark.parametrize("name, index, edit", [
    ("events.jsonl", 1, lambda line: line[:-1]),  # not valid JSON
    ("events.jsonl", 1, _without("flow_id")),
    ("events.jsonl", 1, _without("events")),
    ("events.jsonl", 1, _two_field_event),
    ("events.jsonl", 1, _no_events),  # every TCP flow has a packet
    ("flows.csv", 2, lambda line: line.rsplit(",", 1)[0]),  # one column short
    ("flows.csv", 2, _last_feature("n/a")),
    ("flows.csv", 2, _last_feature("nan")),
    ("flows.csv", 2, _truth("Normal")),
    ("flows.csv", 2, _truth("")),
    ("flows.csv", 2, _column(2, "http")),  # client port
    ("flows.csv", 2, _column(4, "")),  # server port
    ("flows.csv", 2, _column(5, "x")),  # first ts
    ("flows.csv", 2, _column(6, "1.0.0")),  # last ts
], ids=[
    "bad-json", "no-flow-id", "no-events", "two-field-event", "empty-events", "short-row",
    "non-numeric", "non-finite", "capitalized-truth", "empty-truth", "bad-client-port",
    "empty-server-port", "bad-first-ts", "bad-last-ts",
])
def test_read_corpus_rejects_malformed_rows(tmp_path, name, index, edit):
    flows = assemble_flows(ingest_pcap_write(tmp_path, handshake_fin_frames()).packets)
    write_flows_csv(flows, tmp_path / "flows.csv")
    write_flow_events(flows, tmp_path / "events.jsonl")
    lines = (tmp_path / name).read_text().splitlines()
    lines[index] = edit(lines[index])
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=rf"{name}: line {index + 1}: malformed row"):
        read_corpus(tmp_path / "flows.csv", tmp_path / "events.jsonl")
