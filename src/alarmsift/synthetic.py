"""Desk-scale synthetic traffic generator.

Produces flows directly (packets with direction tags), bypassing PCAP.
Two profiles are supported:

* normal: handshake, a few request/response exchanges with large server
  data bursts, clean FIN close. Targets the bulk-download regime (packet
  length around 1.1-1.4 kB, roughly 200 packets per flow).
* slowloris: handshake, then a sparse client-side ACK+PSH trickle with
  tiny payloads spread over tens of seconds, terminated by a server RST
  instead of a close handshake. Targets the low-and-slow regime (about
  14 packets per flow, packet length around 70 bytes).

Each profile is one _PROFILES row (builder, start spacing, truth, id
prefix). Packets of one kind share one flag set, as captured packets share
pcap's.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .detector import TRUTH_ATTACK, TRUTH_NORMAL
from .errors import DataError
from .flowmeter import Direction, Flow, FlowPacket, write_flow_events, write_flows_csv

PROFILE_NORMAL = "normal"
PROFILE_SLOWLORIS = "slowloris"

_SERVER = ("192.168.0.10", 80)

_SYN_LEN = 74
_ACK_LEN = 66
_FIN_LEN = 66
_RST_LEN = 60
_DATA_LEN = 1514
_DATA_PAYLOAD = 1448
_START_TIME = 1_700_000_000.0

_C2S, _S2C = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
_SYN = frozenset({"SYN"})
_SYN_ACK = frozenset({"SYN", "ACK"})
_ACK = frozenset({"ACK"})
_ACK_PSH = frozenset({"ACK", "PSH"})
_FIN_ACK = frozenset({"FIN", "ACK"})
_RST_ACK = frozenset({"RST", "ACK"})


class _Clock:
    def __init__(self, start: float):
        self.now = start

    def tick(self, gap: float) -> float:
        self.now += max(gap, 1e-4)
        return self.now


def _handshake(clock: _Clock, rng: np.random.Generator) -> list[FlowPacket]:
    return [
        FlowPacket(_C2S, _SYN, clock.now, 0, _SYN_LEN),
        FlowPacket(_S2C, _SYN_ACK, clock.tick(rng.uniform(0.0005, 0.003)), 0, _SYN_LEN),
        FlowPacket(_C2S, _ACK, clock.tick(rng.uniform(0.0005, 0.003)), 0, _ACK_LEN),
    ]


def _normal_flow(rng: np.random.Generator, start: float) -> list[FlowPacket]:
    clock = _Clock(start)
    packets = _handshake(clock, rng)
    requests = int(rng.integers(2, 5))
    for _ in range(requests):
        req_payload = int(rng.integers(250, 700))
        packets.append(FlowPacket(_C2S, _ACK_PSH, clock.tick(rng.uniform(0.05, 0.3)),
                                  req_payload, _ACK_LEN + req_payload))
        rounds = int(rng.integers(8, 26))
        for _ in range(rounds):
            for _ in range(3):
                packets.append(FlowPacket(_S2C, _ACK_PSH, clock.tick(rng.uniform(0.08, 0.4)),
                                          _DATA_PAYLOAD, _DATA_LEN))
            packets.append(FlowPacket(_C2S, _ACK, clock.tick(rng.uniform(0.01, 0.1)), 0, _ACK_LEN))
    packets.append(FlowPacket(_C2S, _FIN_ACK, clock.tick(rng.uniform(0.05, 0.4)), 0, _FIN_LEN))
    packets.append(FlowPacket(_S2C, _FIN_ACK, clock.tick(rng.uniform(0.001, 0.02)), 0, _FIN_LEN))
    packets.append(FlowPacket(_C2S, _ACK, clock.tick(rng.uniform(0.001, 0.02)), 0, _ACK_LEN))
    return packets


def _slowloris_flow(rng: np.random.Generator, start: float) -> list[FlowPacket]:
    clock = _Clock(start)
    packets = _handshake(clock, rng)
    drips = int(rng.integers(6, 11))
    for _ in range(drips):
        payload = int(rng.integers(4, 24))
        packets.append(FlowPacket(_C2S, _ACK_PSH, clock.tick(min(rng.exponential(3.2), 9.0)),
                                  payload, _ACK_LEN + payload))
        if rng.random() < 0.45:
            packets.append(FlowPacket(_S2C, _ACK, clock.tick(rng.uniform(0.001, 0.05)), 0, _ACK_LEN))
    # Server gives up on the starved connection.
    packets.append(FlowPacket(_S2C, _RST_ACK, clock.tick(min(rng.exponential(3.2), 9.0)),
                              0, _RST_LEN))
    return packets


_PROFILES = {
    PROFILE_NORMAL: (_normal_flow, 0.79, TRUTH_NORMAL, "nor"),
    PROFILE_SLOWLORIS: (_slowloris_flow, 0.043, TRUTH_ATTACK, "atk"),
}


def generate_flows(profile: str, count: int, seed: int) -> list[Flow]:
    """Generates count flows of one profile; fully determined by the seed."""
    if count < 1:
        raise DataError(f"flow count must be >= 1, got {count}")
    if profile not in _PROFILES:
        raise DataError(f"unknown traffic profile {profile!r}")
    builder, spacing, truth, prefix = _PROFILES[profile]
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(count):
        client = (f"10.0.{int(rng.integers(0, 8))}.{int(rng.integers(2, 250))}",
                  int(rng.integers(20000, 60000)))
        start = _START_TIME + i * spacing + float(rng.uniform(0, spacing / 2))
        flows.append(
            Flow(
                flow_id=f"{prefix}-{i:05d}",
                client=client,
                server=_SERVER,
                packets=tuple(builder(rng, start)),
                truth=truth,
            )
        )
    return flows


def write_corpus(flows: list[Flow], out_dir: str | Path) -> tuple[Path, Path]:
    """Writes flows.csv and events.jsonl for a generated corpus."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flows_csv = out_dir / "flows.csv"
    events_path = out_dir / "events.jsonl"
    write_flows_csv(flows, flows_csv)
    write_flow_events(flows, events_path)
    return flows_csv, events_path
