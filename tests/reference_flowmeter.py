"""A test-only copy of flow assembly and featurize as they stood before
they became one pass over the packets.

Assembly calls pair_key per packet and finds the server through a set of
the first packet's endpoints. featurize filters the packets per direction
into lists, builds each length and time array from its own list, and
counts each flag in its own pass. The result types are the package's own:
alarmsift.flowmeter.assemble_flows must return equal flows, and featurize
an np.array_equal vector.
"""
from __future__ import annotations

import numpy as np

from alarmsift.errors import DataError
from alarmsift.flowmeter import (
    DEFAULT_FLOW_TIMEOUT,
    FEATURE_NAMES,
    Direction,
    Endpoint,
    Flow,
    FlowPacket,
)
from alarmsift.pcap import PacketRecord


def pair_key(a: Endpoint, b: Endpoint) -> tuple[Endpoint, Endpoint]:
    """Canonical unordered endpoint pair: pair_key(A, B) == pair_key(B, A)."""
    return (a, b) if a <= b else (b, a)


class _FlowBuilder:
    def __init__(self, arrival: int):
        self.packets: list[PacketRecord] = []
        self.fin_sides: set[Endpoint] = set()
        self.closed = False
        self.arrival = arrival

    def add(self, pkt: PacketRecord) -> None:
        both_fins_before = len(self.fin_sides) >= 2
        self.packets.append(pkt)
        if "RST" in pkt.flags:
            self.closed = True
            return
        if "FIN" in pkt.flags:
            self.fin_sides.add((pkt.src_ip, pkt.src_port))
        if both_fins_before and "ACK" in pkt.flags:
            self.closed = True

    def finalize(self, flow_id: str, truth: str) -> Flow:
        client: Endpoint | None = None
        for pkt in self.packets:
            if "SYN" in pkt.flags:
                client = (pkt.src_ip, pkt.src_port)
                break
        if client is None:
            first = self.packets[0]
            client = (first.src_ip, first.src_port)
        first = self.packets[0]
        endpoints = {(first.src_ip, first.src_port), (first.dst_ip, first.dst_port)}
        endpoints.discard(client)
        server = endpoints.pop() if endpoints else client
        packets = tuple(
            FlowPacket(
                direction=(
                    Direction.CLIENT_TO_SERVER
                    if (pkt.src_ip, pkt.src_port) == client
                    else Direction.SERVER_TO_CLIENT
                ),
                flags=pkt.flags,
                timestamp=pkt.timestamp,
                payload_len=pkt.payload_len,
                total_len=pkt.total_len,
            )
            for pkt in self.packets
        )
        return Flow(flow_id=flow_id, client=client, server=server, packets=packets, truth=truth)


def reference_assemble_flows(
    packets: list[PacketRecord],
    timeout: float = DEFAULT_FLOW_TIMEOUT,
    id_prefix: str = "flow",
    truth: str = "unknown",
) -> list[Flow]:
    if timeout <= 0:
        raise DataError("flow timeout must be > 0")
    active: dict[tuple[Endpoint, Endpoint], _FlowBuilder] = {}
    done: list[_FlowBuilder] = []
    arrival = 0
    for pkt in packets:
        key = pair_key((pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port))
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


def reference_featurize(flow: Flow) -> np.ndarray:
    if not flow.packets:
        raise DataError("cannot featurize an empty flow")
    c2s = [p for p in flow.packets if p.direction is Direction.CLIENT_TO_SERVER]
    s2c = [p for p in flow.packets if p.direction is Direction.SERVER_TO_CLIENT]
    lens = np.array([p.total_len for p in flow.packets], dtype=float)
    lens_c = np.array([p.total_len for p in c2s], dtype=float)
    lens_s = np.array([p.total_len for p in s2c], dtype=float)
    times = np.array([p.timestamp for p in flow.packets], dtype=float)
    times_c = np.array([p.timestamp for p in c2s], dtype=float)
    times_s = np.array([p.timestamp for p in s2c], dtype=float)
    duration = flow.duration
    payload_c = float(sum(p.payload_len for p in c2s))
    payload_s = float(sum(p.payload_len for p in s2c))
    flag_count = lambda f: float(sum(1 for p in flow.packets if f in p.flags))

    values = {
        "duration": duration,
        "packets_total": float(len(flow.packets)),
        "packets_c2s": float(len(c2s)),
        "packets_s2c": float(len(s2c)),
        "bytes_total": float(lens.sum()),
        "bytes_c2s": float(lens_c.sum()) if lens_c.size else 0.0,
        "bytes_s2c": float(lens_s.sum()) if lens_s.size else 0.0,
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
    values["bytes_per_s"] = float(lens.sum()) / duration if duration > 0 else 0.0
    values["packet_ratio_s2c_c2s"] = len(s2c) / max(len(c2s), 1)
    values["byte_ratio_s2c_c2s"] = float(lens_s.sum() if lens_s.size else 0.0) / max(
        float(lens_c.sum()) if lens_c.size else 0.0, 1.0
    )
    values["payload_mean_c2s"] = payload_c / max(len(c2s), 1)
    values["payload_mean_s2c"] = payload_s / max(len(s2c), 1)
    return np.array([values[name] for name in FEATURE_NAMES], dtype=float)
