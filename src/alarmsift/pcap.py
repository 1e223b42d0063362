"""Classic-format PCAP ingestion.

Reads the legacy libpcap container (not pcapng): a 24-byte global header
followed by 16-byte per-record headers. Micro- and nanosecond timestamp
variants are supported in both byte orders. The accepted link types are
0 (BSD loopback), 1 (Ethernet, with any number of 802.1Q/802.1ad tags)
and 101 (raw IP); any other raises PcapFormatError.

The capture is read into one buffer, and one parser per header
(_strip_link_layer, _parse_ipv4, _parse_ipv6, _parse_tcp) reads its
fields from that buffer by offset, never past the end of its frame. Only
TCP segments survive ingestion. A frame is counted as ``non_tcp`` when
it carries no IP (another ethertype, or too short for its link header),
when its IP header is short or malformed, when it is a non-first IPv4 or
IPv6 fragment, when its transport is not TCP, or when its TCP header is
short or has a data offset below 20 bytes.
"""
from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .errors import PcapFormatError

# (struct byte-order prefix, timestamp fraction unit) keyed by the magic
# bytes exactly as they appear at the start of the file.
_MAGICS = {
    b"\xa1\xb2\xc3\xd4": (">", 1e-6),
    b"\xd4\xc3\xb2\xa1": ("<", 1e-6),
    b"\xa1\xb2\x3c\x4d": (">", 1e-9),
    b"\x4d\x3c\xb2\xa1": ("<", 1e-9),
}

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER_LEN = 16
# Anything above this captured length is a corrupt record header, not
# jumbo traffic.
_SANE_CAPLEN = 1 << 18

LINKTYPE_NULL = 0
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
_LINKTYPES = (LINKTYPE_NULL, LINKTYPE_ETHERNET, LINKTYPE_RAW)

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = (0x8100, 0x88A8)

_IP_PROTO_TCP = 6
# IPv6 extension headers we chase: hop-by-hop, routing, fragment,
# authentication, dest opts.
_IPV6_EXT = {0, 43, 44, 51, 60}

# Each header's fields, read in place from the capture buffer.
_U16 = struct.Struct(">H").unpack_from
# version/IHL, total length, flags/fragment offset, protocol, addresses
_IPV4 = struct.Struct(">BxHxxHxBxx4s4s").unpack_from
# payload length, next header, addresses
_IPV6 = struct.Struct(">4xHBx16s16s").unpack_from
# ports, data offset, flag byte
_TCP = struct.Struct(">HH8xBB").unpack_from

# TCP flag bits in the low byte of the offset/flags word, in wire order.
_FLAG_BITS = (
    ("FIN", 0x01),
    ("SYN", 0x02),
    ("RST", 0x04),
    ("PSH", 0x08),
    ("ACK", 0x10),
    ("URG", 0x20),
)
# The flag set of every flag byte, shared by all packets that carry it.
_FLAG_SETS = tuple(
    frozenset(name for name, bit in _FLAG_BITS if byte & bit) for byte in range(256)
)


@dataclass(slots=True)
class PacketRecord:
    """One captured TCP segment, reduced to what the pipeline needs."""

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    flags: frozenset[str]
    payload_len: int
    total_len: int


@dataclass
class IngestResult:
    """Packets plus ingest bookkeeping.

    ``partial`` is set when a malformed record header stopped the scan
    mid-file; ``truncated`` counts records dropped because the file ended
    before their payload did.
    """

    packets: list[PacketRecord] = field(default_factory=list)
    non_tcp: int = 0
    filtered: int = 0
    truncated: int = 0
    partial: bool = False


class _AddressNames(dict):
    """Printable form of each raw 4- or 16-byte address, made once."""

    def __missing__(self, raw: bytes) -> str:
        name = self[raw] = socket.inet_ntop(
            socket.AF_INET if len(raw) == 4 else socket.AF_INET6, raw
        )
        return name


def _strip_link_layer(linktype: int, buf: bytes, start: int, end: int) -> int | None:
    """Offset of the IP datagram in the frame buf[start:end], or None when
    the frame carries no IP."""
    if linktype == LINKTYPE_ETHERNET:
        if end - start < 14:
            return None
        ethertype = _U16(buf, start + 12)[0]
        offset = start + 14
        while ethertype in _ETHERTYPE_VLAN:
            if end - offset < 4:
                return None
            ethertype = _U16(buf, offset + 2)[0]
            offset += 4
        if ethertype not in (_ETHERTYPE_IPV4, _ETHERTYPE_IPV6):
            return None
        return offset
    if linktype == LINKTYPE_RAW:
        return start
    # LINKTYPE_NULL: a 4-byte address family, then the datagram.
    if end - start < 4:
        return None
    return start + 4


def _parse_ipv4(buf: bytes, ip: int, end: int) -> tuple[bytes, bytes, int, int] | None:
    """(raw source, raw destination, IP payload length, TCP offset)."""
    if end - ip < 20:
        return None
    ver_ihl, total_length, frag, proto, src, dst = _IPV4(buf, ip)
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or end - ip < ihl:
        return None
    if frag & 0x1FFF:
        # Non-first fragment: no TCP header present.
        return None
    if proto != _IP_PROTO_TCP:
        return None
    return src, dst, max(total_length - ihl, 0), ip + ihl


def _parse_ipv6(buf: bytes, ip: int, end: int) -> tuple[bytes, bytes, int, int] | None:
    """(raw source, raw destination, IP payload length, TCP offset)."""
    if end - ip < 40:
        return None
    if buf[ip] >> 4 != 6:
        return None
    payload_len, nxt, src, dst = _IPV6(buf, ip)
    offset = ip + 40
    while nxt in _IPV6_EXT:
        if end - offset < 8:
            return None
        if nxt == 44:
            if _U16(buf, offset + 2)[0] & 0xFFF8:
                # Non-first fragment: no TCP header present.
                return None
            ext_len = 8
        elif nxt == 51:
            # Authentication header (RFC 4302): 4-byte units, minus 2.
            ext_len = (buf[offset + 1] + 2) * 4
        else:
            ext_len = (buf[offset + 1] + 1) * 8
        nxt = buf[offset]
        offset += ext_len
    if nxt != _IP_PROTO_TCP:
        return None
    return src, dst, max(payload_len - (offset - ip - 40), 0), offset


def _parse_tcp(
    buf: bytes, seg: int, end: int, ip_payload_len: int
) -> tuple[int, int, frozenset[str], int] | None:
    """(source port, destination port, flags, TCP payload length)."""
    if end - seg < 20:
        return None
    sport, dport, offset_byte, flag_byte = _TCP(buf, seg)
    data_offset = (offset_byte >> 4) * 4
    if data_offset < 20:
        return None
    return sport, dport, _FLAG_SETS[flag_byte], max(ip_payload_len - data_offset, 0)


def ingest_pcap(path: str | Path, ports: frozenset[int] = frozenset()) -> IngestResult:
    """Reads a classic PCAP file and returns its TCP packets in capture order.

    A packet is admitted when either endpoint port is in ports; an empty
    set admits all TCP traffic. Raises PcapFormatError when the global
    header is malformed, its link type is not one of 0, 1 or 101, or the
    file cannot be read. A malformed record header mid-file stops the
    scan and flags the result as partial; a record truncated at
    end-of-file is dropped and counted.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise PcapFormatError(f"{path}: cannot read capture: {exc}") from exc
    if len(raw) < _GLOBAL_HEADER_LEN:
        raise PcapFormatError(f"{path}: file shorter than a PCAP global header")
    magic = raw[:4]
    if magic not in _MAGICS:
        raise PcapFormatError(f"{path}: unknown PCAP magic {magic.hex()}")
    order, frac_unit = _MAGICS[magic]
    network = struct.unpack_from(order + "I", raw, 20)[0]
    if network not in _LINKTYPES:
        raise PcapFormatError(
            f"{path}: unsupported link type {network}; "
            "expected 0 (BSD loopback), 1 (Ethernet) or 101 (raw IP)"
        )
    record_header = struct.Struct(order + "IIII").unpack_from

    result = IngestResult()
    packets = result.packets
    names = _AddressNames()
    offset = _GLOBAL_HEADER_LEN
    size = len(raw)
    while offset < size:
        if size - offset < _RECORD_HEADER_LEN:
            result.truncated += 1
            break
        ts_sec, ts_frac, incl_len, orig_len = record_header(raw, offset)
        if incl_len > _SANE_CAPLEN:
            result.partial = True
            break
        start = offset + _RECORD_HEADER_LEN
        offset = start + incl_len
        if offset > size:
            result.truncated += 1
            break

        ip = _strip_link_layer(network, raw, start, offset)
        fields = tcp = None
        if ip is not None and ip < offset:
            version = raw[ip] >> 4
            if version == 4:
                fields = _parse_ipv4(raw, ip, offset)
            elif version == 6:
                fields = _parse_ipv6(raw, ip, offset)
        if fields is not None:
            src, dst, ip_payload_len, seg = fields
            tcp = _parse_tcp(raw, seg, offset, ip_payload_len)
        if tcp is None:
            result.non_tcp += 1
            continue
        sport, dport, flags, payload_len = tcp
        if ports and sport not in ports and dport not in ports:
            result.filtered += 1
            continue
        packets.append(PacketRecord(
            ts_sec + ts_frac * frac_unit, names[src], names[dst],
            sport, dport, flags, payload_len, orig_len,
        ))
    return result
