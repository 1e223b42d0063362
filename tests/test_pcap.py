"""Classic PCAP ingestion against hand-assembled captures."""
import struct

import pytest

from alarmsift.errors import PcapFormatError
from alarmsift.pcap import ingest_pcap

from capturecraft import (
    MAGIC_MICRO_BE,
    MAGIC_MICRO_LE,
    MAGIC_NANO_BE,
    MAGIC_NANO_LE,
    ipv4_tcp_frame,
    ipv4_udp_frame,
    ipv6_tcp_frame,
    pcap_bytes,
)


def _write(tmp_path, data, name="cap.pcap"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _syn_exchange():
    return [
        (1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",))),
        (1.1, ipv4_tcp_frame("10.0.0.2", "10.0.0.1", 80, 1111, ("SYN", "ACK"))),
        (1.2, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("ACK",))),
        (1.3, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("FIN", "ACK"))),
    ]


def test_four_packet_capture_in_order(tmp_path):
    path = _write(tmp_path, pcap_bytes(_syn_exchange()))
    result = ingest_pcap(path)
    assert len(result.packets) == 4
    assert [p.flags for p in result.packets] == [
        frozenset({"SYN"}), frozenset({"SYN", "ACK"}),
        frozenset({"ACK"}), frozenset({"FIN", "ACK"}),
    ]
    assert [p.timestamp for p in result.packets] == pytest.approx([1.0, 1.1, 1.2, 1.3])
    assert result.packets[0].src_ip == "10.0.0.1"
    assert result.packets[1].src_port == 80
    assert not result.partial and result.truncated == 0


def test_empty_capture(tmp_path):
    path = _write(tmp_path, pcap_bytes([]))
    assert ingest_pcap(path).packets == []


def test_udp_dropped(tmp_path):
    frames = [
        (1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",))),
        (1.1, ipv4_udp_frame("10.0.0.1", "10.0.0.2", 5353, 53)),
        (1.2, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("ACK",))),
    ]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames)))
    assert len(result.packets) == 2
    assert result.non_tcp == 1


@pytest.mark.parametrize("magic", [MAGIC_MICRO_BE, MAGIC_MICRO_LE, MAGIC_NANO_BE, MAGIC_NANO_LE])
def test_all_magic_variants(tmp_path, magic):
    frames = [(1.5, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",)))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames, magic=magic)))
    assert len(result.packets) == 1
    assert result.packets[0].timestamp == pytest.approx(1.5, abs=1e-9)


def test_nanosecond_resolution_preserved(tmp_path):
    frames = [(2.000000123, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1, 2, ("SYN",)))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames, magic=MAGIC_NANO_LE)))
    assert result.packets[0].timestamp == pytest.approx(2.000000123, abs=1e-12)


def test_bad_magic_is_fatal(tmp_path):
    path = _write(tmp_path, b"\x00\x01\x02\x03" + b"\x00" * 20)
    with pytest.raises(PcapFormatError):
        ingest_pcap(path)


def test_short_global_header_is_fatal(tmp_path):
    with pytest.raises(PcapFormatError):
        ingest_pcap(_write(tmp_path, MAGIC_MICRO_LE + b"\x00" * 4))


def test_truncated_trailing_record_dropped(tmp_path):
    data = pcap_bytes(_syn_exchange())
    result = ingest_pcap(_write(tmp_path, data[:-10]))
    assert len(result.packets) == 3
    assert result.truncated == 1
    assert not result.partial


def test_corrupt_midfile_header_flags_partial(tmp_path):
    good = pcap_bytes(_syn_exchange()[:2])
    garbage = struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 64) + b"\x00" * 32
    result = ingest_pcap(_write(tmp_path, good + garbage))
    assert len(result.packets) == 2
    assert result.partial


def test_port_filter(tmp_path):
    frames = [
        (1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",))),
        (1.1, ipv4_tcp_frame("10.0.0.1", "10.0.0.3", 2222, 8443, ("SYN",))),
    ]
    result = ingest_pcap(
        _write(tmp_path, pcap_bytes(frames)), ports=frozenset({80})
    )
    assert len(result.packets) == 1
    assert result.packets[0].dst_port == 80
    assert result.filtered == 1


def test_vlan_tagged_frame(tmp_path):
    frames = [(1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",), vlan=42))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames)))
    assert len(result.packets) == 1
    assert result.packets[0].flags == frozenset({"SYN"})


def test_ipv6_frame(tmp_path):
    frames = [(1.0, ipv6_tcp_frame(4242, 443, ("SYN",)))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames)))
    assert len(result.packets) == 1
    pkt = result.packets[0]
    assert pkt.src_ip == "2001:db8::1" and pkt.dst_port == 443


@pytest.mark.parametrize("offset, admitted", [(0, 1), (1, 0), (8191, 0)],
                         ids=["first", "second", "last-offset"])
def test_ipv6_only_first_fragment_carries_tcp(tmp_path, offset, admitted):
    # A non-first fragment holds payload bytes, not a TCP header, however
    # much they look like one.
    frames = [(1.0, ipv6_tcp_frame(8080, 443, ("SYN",), fragment_offset=offset))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames)))
    assert len(result.packets) == admitted
    assert result.non_tcp == 1 - admitted


def test_ipv6_tcp_behind_authentication_header(tmp_path):
    # AH counts its length in 4-byte units (plus 2), unlike the other
    # extension headers' 8-byte units.
    frames = [(1.0, ipv6_tcp_frame(4242, 443, ("SYN",), authentication=True))]
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames)))
    assert len(result.packets) == 1
    assert result.non_tcp == 0
    pkt = result.packets[0]
    assert (pkt.dst_port, pkt.flags, pkt.payload_len) == (443, frozenset({"SYN"}), 0)


def test_payload_and_total_lengths(tmp_path):
    frame = ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("ACK", "PSH"), payload=b"x" * 100)
    result = ingest_pcap(_write(tmp_path, pcap_bytes([(1.0, frame)])))
    pkt = result.packets[0]
    assert pkt.payload_len == 100
    assert pkt.total_len == len(frame)
