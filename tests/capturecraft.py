"""Hand-assembled classic PCAP captures for tests."""
from __future__ import annotations

import socket
import struct

MAGIC_MICRO_BE = b"\xa1\xb2\xc3\xd4"
MAGIC_MICRO_LE = b"\xd4\xc3\xb2\xa1"
MAGIC_NANO_BE = b"\xa1\xb2\x3c\x4d"
MAGIC_NANO_LE = b"\x4d\x3c\xb2\xa1"

_FLAG_BITS = {"FIN": 0x01, "SYN": 0x02, "RST": 0x04, "PSH": 0x08, "ACK": 0x10, "URG": 0x20}

LINKTYPE_NULL = 0
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101


def ipv4_tcp_frame(
    src_ip: str,
    dst_ip: str,
    sport: int,
    dport: int,
    flags: tuple[str, ...] = (),
    payload: bytes = b"",
    vlan: int | None = None,
) -> bytes:
    tcp = struct.pack(
        ">HHIIBBHHH",
        sport, dport, 0, 0,
        5 << 4,
        sum(_FLAG_BITS[f] for f in flags),
        8192, 0, 0,
    ) + payload
    total_len = 20 + len(tcp)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total_len, 0, 0, 64, 6, 0,
        socket.inet_aton(src_ip), socket.inet_aton(dst_ip),
    ) + tcp
    ether_src = b"\x02\x00\x00\x00\x00\x01"
    ether_dst = b"\x02\x00\x00\x00\x00\x02"
    if vlan is None:
        return ether_dst + ether_src + struct.pack(">H", 0x0800) + ip
    return (
        ether_dst + ether_src + struct.pack(">H", 0x8100)
        + struct.pack(">HH", vlan, 0x0800) + ip
    )


def ipv4_udp_frame(src_ip: str, dst_ip: str, sport: int, dport: int) -> bytes:
    udp = struct.pack(">HHHH", sport, dport, 8, 0)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0,
        socket.inet_aton(src_ip), socket.inet_aton(dst_ip),
    ) + udp
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0800) + ip


def ipv6_tcp_frame(
    sport: int,
    dport: int,
    flags: tuple[str, ...] = (),
    fragment_offset: int | None = None,
    authentication: bool = False,
    payload: bytes = b"",
) -> bytes:
    """An IPv6 TCP segment; with fragment_offset (in 8-byte units) it sits
    behind a fragment header with the more-fragments bit set. With
    authentication, an Authentication Header with a 12-byte ICV (24 bytes
    in all) comes first."""
    tcp = struct.pack(
        ">HHIIBBHHH",
        sport, dport, 0, 0, 5 << 4,
        sum(_FLAG_BITS[f] for f in flags), 8192, 0, 0,
    ) + payload
    next_header = 6
    if fragment_offset is not None:
        tcp = struct.pack(">BBHI", 6, 0, fragment_offset << 3 | 1, 0x1234) + tcp
        next_header = 44
    if authentication:
        # Length field: the header's 4-byte units minus 2; SPI, sequence, ICV.
        tcp = struct.pack(">BBHII", next_header, 24 // 4 - 2, 0, 0x100, 1) + b"\xaa" * 12 + tcp
        next_header = 51
    ip6 = struct.pack(
        ">IHBB16s16s",
        0x60000000, len(tcp), next_header, 64,
        socket.inet_pton(socket.AF_INET6, "2001:db8::1"),
        socket.inet_pton(socket.AF_INET6, "2001:db8::2"),
    ) + tcp
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x86DD) + ip6


def relink(frame: bytes, linktype: int) -> bytes:
    """An untagged Ethernet frame re-framed for another link type: the bare
    IP datagram for raw IP (101), behind a 4-byte address family for BSD
    loopback (0)."""
    datagram = frame[14:]
    if linktype == LINKTYPE_RAW:
        return datagram
    if linktype == LINKTYPE_NULL:
        family = socket.AF_INET if datagram[0] >> 4 == 4 else 24  # BSD AF_INET6
        return struct.pack("<I", family) + datagram
    return frame


def pcap_bytes(
    packets: list[tuple[float, bytes]],
    magic: bytes = MAGIC_MICRO_LE,
    linktype: int = LINKTYPE_ETHERNET,
) -> bytes:
    order = ">" if magic in (MAGIC_MICRO_BE, MAGIC_NANO_BE) else "<"
    nano = magic in (MAGIC_NANO_BE, MAGIC_NANO_LE)
    out = magic + struct.pack(order + "HHiIII", 2, 4, 0, 0, 65535, linktype)
    for ts, frame in packets:
        sec = int(ts)
        frac = round((ts - sec) * (1e9 if nano else 1e6))
        out += struct.pack(order + "IIII", sec, frac, len(frame), len(frame))
        out += frame
    return out


def handshake_fin_frames(
    client: str = "10.0.0.1",
    server: str = "10.0.0.2",
    cport: int = 34567,
    sport: int = 80,
) -> list[tuple[float, bytes]]:
    """3-way handshake plus a FIN/FIN/ACK close: 6 packets.

    Hand count: SYN x2 (SYN, SYN+ACK), FIN x2, ACK x5 (all but the bare SYN).
    """
    return [
        (1.000, ipv4_tcp_frame(client, server, cport, sport, ("SYN",))),
        (1.001, ipv4_tcp_frame(server, client, sport, cport, ("SYN", "ACK"))),
        (1.002, ipv4_tcp_frame(client, server, cport, sport, ("ACK",))),
        (1.010, ipv4_tcp_frame(client, server, cport, sport, ("FIN", "ACK"))),
        (1.011, ipv4_tcp_frame(server, client, sport, cport, ("FIN", "ACK"))),
        (1.012, ipv4_tcp_frame(client, server, cport, sport, ("ACK",))),
    ]
