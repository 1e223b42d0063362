"""Bidirectional TCP flow assembly, per-flow feature statistics, and the
event-label codec shared with the event layer.

A flow is a bidirectional conversation keyed by its unordered endpoint
pair. The client side is the sender of the first SYN-bearing packet,
falling back to the sender of the first packet when no SYN was captured.
A flow terminates on RST, on the final ACK after both directions sent
FIN, or when the idle gap exceeds the configured timeout (the next packet
with the same key starts a new flow).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, compress
from operator import attrgetter, not_
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import read_csv, read_jsonl, write_csv, write_jsonl
from .detector import TRUTH_LABELS, TRUTH_UNKNOWN
from .errors import DataError, SchemaError
from .pcap import PacketRecord

DEFAULT_FLOW_TIMEOUT = 120.0

FLOWS_CSV_SCHEMA = "alarmsift-flows/1"
FLOW_EVENTS_SCHEMA = "alarmsift-flow-events/1"


class Direction(str, Enum):
    CLIENT_TO_SERVER = "C_to_S"
    SERVER_TO_CLIENT = "S_to_C"


# --- event-label codec ------------------------------------------------------

FLAG_ORDER = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
EMPTY_FLAGS_LABEL = "NONE"

# The only source of event labels: each tracked flag set's label part and
# each (direction, flag set)'s event label; _PARSED_LABELS inverts the second.
_FLAGS_LABELS = {
    frozenset(flags): "+".join(flags) or EMPTY_FLAGS_LABEL
    for size in range(len(FLAG_ORDER) + 1)
    for flags in combinations(FLAG_ORDER, size)
}
EVENT_LABELS = {
    (direction, flags): f"{direction.value}_{part}"
    for direction in Direction for flags, part in _FLAGS_LABELS.items()
}
_PARSED_LABELS = {label: key for key, label in EVENT_LABELS.items()}


def flags_label(flags: Iterable[str]) -> str:
    """Canonical flag-combination part of an event label."""
    present = frozenset(flags)
    if present not in _FLAGS_LABELS:
        raise DataError(f"untracked TCP flags: {sorted(present.difference(FLAG_ORDER))}")
    return _FLAGS_LABELS[present]


def event_label(direction: Direction, flags: Iterable[str]) -> str:
    return f"{direction.value}_{flags_label(flags)}"


def parse_event_label(label: str) -> tuple[Direction, frozenset[str]]:
    """Inverse of event_label; the construction is a bijection."""
    if label not in _PARSED_LABELS:
        raise DataError(f"not a TCP event label: {label!r}")
    return _PARSED_LABELS[label]


Endpoint = tuple[str, int]


@dataclass(slots=True)
class FlowPacket:
    """A packet inside a flow, tagged with its direction."""

    direction: Direction
    flags: frozenset[str]
    timestamp: float
    payload_len: int
    total_len: int


@dataclass
class Flow:
    """One bidirectional TCP conversation.

    Attributes:
        flow_id: stable identifier, assigned in first-packet order.
        client: (ip, port) of the flow initiator.
        server: (ip, port) of the responder.
        packets: the flow's packets in capture order.
        truth: ground-truth label ("normal" | "attack" | "unknown").
    """

    flow_id: str
    client: Endpoint
    server: Endpoint
    packets: tuple[FlowPacket, ...]
    truth: str = TRUTH_UNKNOWN

    @property
    def first_ts(self) -> float:
        return self.packets[0].timestamp

    @property
    def last_ts(self) -> float:
        return self.packets[-1].timestamp

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts


class _FlowBuilder:
    __slots__ = ("packets", "fin_sides", "closed", "arrival")

    def __init__(self, arrival: int):
        self.packets: list[PacketRecord] = []
        self.fin_sides: set[Endpoint] = set()
        self.closed = False
        self.arrival = arrival

    def add(self, pkt: PacketRecord) -> None:
        both_fins_before = len(self.fin_sides) >= 2
        self.packets.append(pkt)
        flags = pkt.flags
        if "RST" in flags:
            self.closed = True
            return
        if "FIN" in flags:
            self.fin_sides.add((pkt.src_ip, pkt.src_port))
        if both_fins_before and "ACK" in flags:
            # Final ACK of the close handshake.
            self.closed = True

    def finalize(self, flow_id: str, truth: str) -> Flow:
        first = self.packets[0]
        client = first_src = (first.src_ip, first.src_port)
        for pkt in self.packets:
            if "SYN" in pkt.flags:
                client = (pkt.src_ip, pkt.src_port)
                break
        # The first packet's endpoint that is not the client (on a flow to
        # itself, the client).
        server = first_src if first_src != client else (first.dst_ip, first.dst_port)
        client_ip, client_port = client
        c2s, s2c = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
        packets = tuple([
            FlowPacket(
                c2s if pkt.src_port == client_port and pkt.src_ip == client_ip else s2c,
                pkt.flags, pkt.timestamp, pkt.payload_len, pkt.total_len,
            )
            for pkt in self.packets
        ])
        return Flow(flow_id, client, server, packets, truth)


def assemble_flows(
    packets: list[PacketRecord],
    timeout: float = DEFAULT_FLOW_TIMEOUT,
    id_prefix: str = "flow",
    truth: str = TRUTH_UNKNOWN,
) -> list[Flow]:
    """Partitions packets into flows; every packet lands in exactly one flow.

    Flows are returned ordered by first packet timestamp (arrival order
    breaking ties) and numbered in that order.
    """
    if timeout <= 0:
        raise DataError("flow timeout must be > 0")
    active: dict[tuple[Endpoint, Endpoint], _FlowBuilder] = {}
    done: list[_FlowBuilder] = []
    arrival = 0
    for pkt in packets:
        # The unordered endpoint pair, so both directions share a flow.
        src, dst = (pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)
        key = (src, dst) if src <= dst else (dst, src)
        builder = active.get(key)
        if builder is not None and pkt.timestamp - builder.packets[-1].timestamp > timeout:
            done.append(builder)
            builder = None
        if builder is None:
            builder = _FlowBuilder(arrival)
            arrival += 1
            active[key] = builder
        builder.add(pkt)
        if builder.closed:
            done.append(builder)
            del active[key]
    done.extend(active.values())
    done.sort(key=lambda b: (b.packets[0].timestamp, b.arrival))
    return [
        builder.finalize(f"{id_prefix}-{i:06d}", truth)
        for i, builder in enumerate(done)
    ]


# Fixed per-flow feature list. Cross-flow rates (flows per source per
# minute) are deliberately excluded: they are not a per-flow statistic.
FEATURE_NAMES: tuple[str, ...] = (
    "duration",
    "packets_total", "packets_c2s", "packets_s2c",
    "bytes_total", "bytes_c2s", "bytes_s2c",
    "payload_total", "payload_c2s", "payload_s2c",
    "syn_count", "ack_count", "fin_count", "rst_count", "psh_count", "urg_count",
    "pkt_len_mean", "pkt_len_std", "pkt_len_min", "pkt_len_max",
    "pkt_len_c2s_mean", "pkt_len_c2s_std", "pkt_len_c2s_min", "pkt_len_c2s_max",
    "pkt_len_s2c_mean", "pkt_len_s2c_std", "pkt_len_s2c_min", "pkt_len_s2c_max",
    "iat_mean", "iat_std",
    "iat_c2s_mean", "iat_c2s_std",
    "iat_s2c_mean", "iat_s2c_std",
    "packets_per_s", "bytes_per_s",
    "packet_ratio_s2c_c2s", "byte_ratio_s2c_c2s",
    "payload_mean_c2s", "payload_mean_s2c",
)


def _len_stats(lengths: np.ndarray) -> tuple[float, float, float, float]:
    if lengths.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (
        float(lengths.mean()),
        float(lengths.std()),
        float(lengths.min()),
        float(lengths.max()),
    )


def _iat_stats(times: np.ndarray) -> tuple[float, float]:
    if times.size < 2:
        return 0.0, 0.0
    gaps = np.diff(times)
    return float(gaps.mean()), float(gaps.std())


_PACKET_COLUMNS = attrgetter("direction", "flags", "timestamp", "payload_len", "total_len")


def featurize(flow: Flow) -> np.ndarray:
    """Computes the FEATURE_NAMES vector for one flow. Deterministic; the
    std of a single observation is 0."""
    if not flow.packets:
        raise DataError("cannot featurize an empty flow")
    directions, flag_sets, stamps, payloads, totals = zip(*map(_PACKET_COLUMNS, flow.packets))
    client_side = [d is Direction.CLIENT_TO_SERVER for d in directions]
    is_c2s = np.array(client_side, dtype=bool)
    lens = np.array(totals, dtype=float)
    times = np.array(stamps, dtype=float)
    lens_c, lens_s = lens[is_c2s], lens[~is_c2s]
    times_c, times_s = times[is_c2s], times[~is_c2s]
    packets_c = sum(client_side)
    packets_s = len(flow.packets) - packets_c
    payload_c = float(sum(compress(payloads, client_side)))
    payload_s = float(sum(compress(payloads, map(not_, client_side))))
    bytes_total, bytes_c, bytes_s = float(lens.sum()), float(lens_c.sum()), float(lens_s.sum())
    duration = flow.duration
    per_flag_set = Counter(flag_sets)
    flag_count = lambda f: float(sum(n for fs, n in per_flag_set.items() if f in fs))

    values = {
        "duration": duration,
        "packets_total": float(len(flow.packets)),
        "packets_c2s": float(packets_c),
        "packets_s2c": float(packets_s),
        "bytes_total": bytes_total,
        "bytes_c2s": bytes_c,
        "bytes_s2c": bytes_s,
        "payload_total": payload_c + payload_s,
        "payload_c2s": payload_c,
        "payload_s2c": payload_s,
        "syn_count": flag_count("SYN"),
        "ack_count": flag_count("ACK"),
        "fin_count": flag_count("FIN"),
        "rst_count": flag_count("RST"),
        "psh_count": flag_count("PSH"),
        "urg_count": flag_count("URG"),
    }
    for prefix, arr in (("pkt_len", lens), ("pkt_len_c2s", lens_c), ("pkt_len_s2c", lens_s)):
        mean, std, lo, hi = _len_stats(arr)
        values[f"{prefix}_mean"] = mean
        values[f"{prefix}_std"] = std
        values[f"{prefix}_min"] = lo
        values[f"{prefix}_max"] = hi
    for prefix, arr in (("iat", times), ("iat_c2s", times_c), ("iat_s2c", times_s)):
        mean, std = _iat_stats(arr)
        values[f"{prefix}_mean"] = mean
        values[f"{prefix}_std"] = std
    values["packets_per_s"] = len(flow.packets) / duration if duration > 0 else 0.0
    values["bytes_per_s"] = bytes_total / duration if duration > 0 else 0.0
    values["packet_ratio_s2c_c2s"] = packets_s / max(packets_c, 1)
    values["byte_ratio_s2c_c2s"] = bytes_s / max(bytes_c, 1.0)
    values["payload_mean_c2s"] = payload_c / max(packets_c, 1)
    values["payload_mean_s2c"] = payload_s / max(packets_s, 1)
    return np.array([values[name] for name in FEATURE_NAMES], dtype=float)


@dataclass
class FlowRecord:
    """The per-flow artifact the pipeline operates on: features + trace."""

    flow_id: str
    truth: str
    features: np.ndarray
    events: tuple[str, ...]


def write_flows_csv(flows: list[Flow], path: str | Path) -> None:
    """Writes the documented flows CSV (one row per flow, schema versioned);
    featurize raises DataError for a flow without packets."""
    header = ["flow_id", "client_ip", "client_port", "server_ip", "server_port",
              "first_ts", "last_ts", "truth", *FEATURE_NAMES]
    rows = (
        [flow.flow_id, *flow.client, *flow.server, float(flow.first_ts), float(flow.last_ts),
         flow.truth, *featurize(flow).tolist()]
        for flow in flows
    )
    write_csv(path, header, rows, schema=FLOWS_CSV_SCHEMA)


def write_flow_events(flows: list[Flow], path: str | Path) -> None:
    """Writes the flow-id -> ordered (direction, flags, timestamp) mapping."""
    write_jsonl(path, FLOW_EVENTS_SCHEMA, (
        {
            "flow_id": flow.flow_id,
            "truth": flow.truth,
            "events": [
                [p.direction.value, flags_label(p.flags), p.timestamp] for p in flow.packets
            ],
        }
        for flow in flows
    ))


# Flows CSV columns that read_corpus parses but does not keep.
_UNKEPT_COLUMNS = (("client_port", int), ("server_port", int), ("first_ts", float),
                   ("last_ts", float))


def read_corpus(flows_csv: str | Path, events_path: str | Path) -> list[FlowRecord]:
    """Loads FlowRecords back from the flows CSV plus the events file.

    An events row that is not valid JSON, lacks flow_id or events, has no
    events (every TCP flow has a packet), repeats a flow id, or has an
    event that is not a (direction, flags, timestamp) triple raises
    SchemaError naming the file and line; so does a flows CSV row with a
    missing column, a non-numeric value, a non-finite feature, a truth
    outside detector.TRUTH_LABELS or a repeated flow id. Every distinct
    event label must parse (parse_event_label); a label that does not
    raises SchemaError naming the events file, and so does a file that
    cannot be read. So does an events row that no flows CSV row names,
    such as from a cut-short CSV.
    """
    flows_csv, events_path = Path(flows_csv), Path(events_path)
    events: dict[str, tuple[str, ...]] = {}
    for lineno, row in read_jsonl(events_path, FLOW_EVENTS_SCHEMA):
        try:
            if row["flow_id"] in events:
                raise SchemaError(
                    f"{events_path}: line {lineno}: repeated flow id {row['flow_id']!r}"
                )
            events[row["flow_id"]] = tuple(
                f"{direction}_{flags}" for direction, flags, _ts in row["events"]
            )
            if not events[row["flow_id"]]:
                raise ValueError("a flow has at least one event")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{events_path}: line {lineno}: malformed row: {exc!r}") from exc
    for label in sorted({label for trace in events.values() for label in trace}):
        try:
            parse_event_label(label)
        except DataError as exc:
            raise SchemaError(f"{events_path}: {exc}") from exc
    records: list[FlowRecord] = []
    seen: set[str] = set()
    with read_csv(flows_csv, FLOWS_CSV_SCHEMA) as reader:
        for row in reader:
            try:
                flow_id = row["flow_id"]
                if flow_id not in events:
                    raise DataError(f"{flows_csv}: flow {flow_id} missing from events file")
                if flow_id in seen:
                    raise SchemaError(
                        f"{flows_csv}: line {reader.line_num + 1}: repeated flow id {flow_id!r}"
                    )
                seen.add(flow_id)
                if row["truth"] not in TRUTH_LABELS:
                    raise ValueError(f"truth {row['truth']!r} is not one of {TRUTH_LABELS}")
                features = np.array([float(row[name]) for name in FEATURE_NAMES])
                if not np.isfinite(features).all():
                    raise ValueError("feature values must be finite")
                for name, parse in _UNKEPT_COLUMNS:
                    parse(row[name])  # checked, not kept: no stage reads it
                records.append(FlowRecord(flow_id, row["truth"], features, events[flow_id]))
            except (KeyError, TypeError, ValueError) as exc:
                # The schema comment precedes the lines the reader counts.
                raise SchemaError(
                    f"{flows_csv}: line {reader.line_num + 1}: malformed row: {exc!r}"
                ) from exc
    orphans = [flow_id for flow_id in events if flow_id not in seen]
    if orphans:
        raise SchemaError(
            f"{events_path}: {len(orphans)} flow id(s) missing from {flows_csv}, "
            f"first {orphans[0]!r}"
        )
    return records
