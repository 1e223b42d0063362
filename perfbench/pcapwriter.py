"""Streaming classic-PCAP writer for generated flows.

Each frame reproduces the generated packet's ``total_len`` and
``payload_len``, so ingesting the file and assembling its flows gives back
the generator's features: Ethernet + IPv4 + a TCP header of 40 bytes on
SYN, 32 bytes (timestamp option) elsewhere, and for RST a bare 20-byte
header plus Ethernet padding up to the 60-byte minimum frame. Records are
written one at a time in timestamp order, so memory stays bounded by the
flows already held by the caller.
"""
from __future__ import annotations

import heapq
import socket
import struct
from pathlib import Path

MAGIC_NANO_LE = b"\x4d\x3c\xb2\xa1"
LINKTYPE_ETHERNET = 1

_ETHERNET = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
_IP_LEN = 20
_MIN_FRAME = 60
_FLAG_BITS = {"FIN": 0x01, "SYN": 0x02, "RST": 0x04, "PSH": 0x08, "ACK": 0x10, "URG": 0x20}


def frame_layout(flags: frozenset[str], total_len: int, payload_len: int) -> tuple[int, int]:
    """(TCP header length, Ethernet padding) of a frame of the given lengths."""
    tcp_len = 40 if "SYN" in flags else 20 if "RST" in flags else 32
    padding = total_len - len(_ETHERNET) - _IP_LEN - tcp_len - payload_len
    if padding < 0 or (padding and total_len != _MIN_FRAME):
        raise ValueError(
            f"no frame layout for flags={sorted(flags)} total_len={total_len} "
            f"payload_len={payload_len}"
        )
    return tcp_len, padding


def _frame(src: tuple[str, int], dst: tuple[str, int], pkt) -> bytes:
    tcp_len, padding = frame_layout(pkt.flags, pkt.total_len, pkt.payload_len)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, _IP_LEN + tcp_len + pkt.payload_len, 0, 0, 64, 6, 0,
        socket.inet_aton(src[0]), socket.inet_aton(dst[0]),
    )
    tcp = struct.pack(
        ">HHIIBBHHH",
        src[1], dst[1], 0, 0, (tcp_len // 4) << 4,
        sum(_FLAG_BITS[f] for f in pkt.flags), 65535, 0, 0,
    )
    return b"".join((
        _ETHERNET, ip, tcp, bytes(tcp_len - 20 + pkt.payload_len + padding),
    ))


def write_pcap(flows, path: str | Path) -> int:
    """Writes the packets of all flows, merged by timestamp, as a
    nanosecond-resolution little-endian classic PCAP. Returns the number
    of records written."""
    def packets(index, flow):
        for pkt in flow.packets:
            c2s = pkt.direction.value == "C_to_S"
            src, dst = (flow.client, flow.server) if c2s else (flow.server, flow.client)
            yield pkt.timestamp, index, src, dst, pkt

    merged = heapq.merge(*(packets(i, f) for i, f in enumerate(flows)), key=lambda r: r[:2])
    written = 0
    with Path(path).open("wb", buffering=1 << 20) as fh:
        fh.write(MAGIC_NANO_LE + struct.pack("<HHiIII", 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
        for ts, _, src, dst, pkt in merged:
            frame = _frame(src, dst, pkt)
            sec = int(ts)
            nsec = round((ts - sec) * 1e9)
            if nsec == 1_000_000_000:
                sec, nsec = sec + 1, 0
            fh.write(struct.pack("<IIII", sec, nsec, len(frame), len(frame)))
            fh.write(frame)
            written += 1
    return written
