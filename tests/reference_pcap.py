"""A test-only copy of classic-PCAP ingestion as it stood before the
parsers read the capture buffer by offset.

It slices each frame out of the file, slices each header out of the
frame, unpacks one field at a time and builds a flag set per packet. The
result types are the package's own, so alarmsift.pcap.ingest_pcap must
return an IngestResult equal to reference_ingest's for every capture of
link type 0, 1 or 101.
"""
from __future__ import annotations

import socket
import struct
from pathlib import Path

from alarmsift.errors import PcapFormatError
from alarmsift.pcap import IngestResult, PacketRecord

_MAGICS = {
    b"\xa1\xb2\xc3\xd4": (">", 1e-6),
    b"\xd4\xc3\xb2\xa1": ("<", 1e-6),
    b"\xa1\xb2\x3c\x4d": (">", 1e-9),
    b"\x4d\x3c\xb2\xa1": ("<", 1e-9),
}

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER_LEN = 16
_SANE_CAPLEN = 1 << 18

LINKTYPE_NULL = 0
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = (0x8100, 0x88A8)

_IP_PROTO_TCP = 6
_IPV6_EXT = {0, 43, 44, 51, 60}

_FLAG_BITS = (
    ("FIN", 0x01),
    ("SYN", 0x02),
    ("RST", 0x04),
    ("PSH", 0x08),
    ("ACK", 0x10),
    ("URG", 0x20),
)


def _parse_ipv4(data: bytes) -> tuple[str, str, int, bytes] | None:
    if len(data) < 20:
        return None
    ver_ihl = data[0]
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        return None
    total_length = struct.unpack(">H", data[2:4])[0]
    frag = struct.unpack(">H", data[6:8])[0]
    if frag & 0x1FFF:
        return None
    proto = data[9]
    src = socket.inet_ntop(socket.AF_INET, data[12:16])
    dst = socket.inet_ntop(socket.AF_INET, data[16:20])
    ip_payload_len = max(total_length - ihl, 0)
    if proto != _IP_PROTO_TCP:
        return None
    return src, dst, ip_payload_len, data[ihl:]


def _parse_ipv6(data: bytes) -> tuple[str, str, int, bytes] | None:
    if len(data) < 40:
        return None
    if data[0] >> 4 != 6:
        return None
    payload_len = struct.unpack(">H", data[4:6])[0]
    nxt = data[6]
    src = socket.inet_ntop(socket.AF_INET6, data[8:24])
    dst = socket.inet_ntop(socket.AF_INET6, data[24:40])
    offset = 40
    consumed = 0
    while nxt in _IPV6_EXT:
        if len(data) < offset + 8:
            return None
        if nxt == 44:
            if struct.unpack(">H", data[offset + 2:offset + 4])[0] & 0xFFF8:
                return None
            ext_len = 8
        elif nxt == 51:
            ext_len = (data[offset + 1] + 2) * 4
        else:
            ext_len = (data[offset + 1] + 1) * 8
        nxt = data[offset]
        offset += ext_len
        consumed += ext_len
    if nxt != _IP_PROTO_TCP:
        return None
    return src, dst, max(payload_len - consumed, 0), data[offset:]


def _strip_link_layer(linktype: int, data: bytes) -> bytes | None:
    if linktype == LINKTYPE_ETHERNET:
        if len(data) < 14:
            return None
        ethertype = struct.unpack(">H", data[12:14])[0]
        offset = 14
        while ethertype in _ETHERTYPE_VLAN:
            if len(data) < offset + 4:
                return None
            ethertype = struct.unpack(">H", data[offset + 2:offset + 4])[0]
            offset += 4
        if ethertype not in (_ETHERTYPE_IPV4, _ETHERTYPE_IPV6):
            return None
        return data[offset:]
    if linktype == LINKTYPE_RAW:
        return data
    if linktype == LINKTYPE_NULL:
        if len(data) < 4:
            return None
        return data[4:]
    return None


def _parse_tcp(ip_fields: tuple[str, str, int, bytes]) -> tuple | None:
    src, dst, ip_payload_len, seg = ip_fields
    if len(seg) < 20:
        return None
    sport, dport = struct.unpack(">HH", seg[0:4])
    data_offset = (seg[12] >> 4) * 4
    if data_offset < 20:
        return None
    flag_byte = seg[13]
    flags = frozenset(name for name, bit in _FLAG_BITS if flag_byte & bit)
    payload_len = max(ip_payload_len - data_offset, 0)
    return src, dst, sport, dport, flags, payload_len


def reference_ingest(path: str | Path, ports: frozenset[int] = frozenset()) -> IngestResult:
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
    _, _, _, _, snaplen, network = struct.unpack(order + "HHiIII", raw[4:_GLOBAL_HEADER_LEN])

    result = IngestResult()
    offset = _GLOBAL_HEADER_LEN
    size = len(raw)
    while offset < size:
        if size - offset < _RECORD_HEADER_LEN:
            result.truncated += 1
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(
            order + "IIII", raw[offset:offset + _RECORD_HEADER_LEN]
        )
        if incl_len > _SANE_CAPLEN:
            result.partial = True
            break
        offset += _RECORD_HEADER_LEN
        if size - offset < incl_len:
            result.truncated += 1
            break
        data = raw[offset:offset + incl_len]
        offset += incl_len

        ip = _strip_link_layer(network, data)
        fields = None
        if ip is not None:
            version = ip[0] >> 4 if ip else 0
            if version == 4:
                fields = _parse_ipv4(ip)
            elif version == 6:
                fields = _parse_ipv6(ip)
        tcp = _parse_tcp(fields) if fields else None
        if tcp is None:
            result.non_tcp += 1
            continue
        src, dst, sport, dport, flags, payload_len = tcp
        if ports and sport not in ports and dport not in ports:
            result.filtered += 1
            continue
        result.packets.append(
            PacketRecord(
                timestamp=ts_sec + ts_frac * frac_unit,
                src_ip=src,
                dst_ip=dst,
                src_port=sport,
                dst_port=dport,
                flags=flags,
                payload_len=payload_len,
                total_len=orig_len,
            )
        )
    return result
