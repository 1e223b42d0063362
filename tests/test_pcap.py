"""Classic PCAP ingestion against hand-assembled captures."""
import struct

import pytest
from hypothesis import given, settings, strategies as st

from alarmsift.errors import PcapFormatError
from alarmsift.pcap import IngestResult, ingest_pcap

from capturecraft import (
    LINKTYPE_ETHERNET,
    LINKTYPE_NULL,
    LINKTYPE_RAW,
    MAGIC_MICRO_BE,
    MAGIC_MICRO_LE,
    MAGIC_NANO_BE,
    MAGIC_NANO_LE,
    handshake_fin_frames,
    ipv4_tcp_frame,
    ipv4_udp_frame,
    ipv6_tcp_frame,
    pcap_bytes,
    relink,
)
from reference_pcap import reference_ingest


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


@pytest.mark.parametrize("size, partial", [(1 << 18, False), ((1 << 18) + 1, True)])
def test_record_length_limit_is_inclusive(tmp_path, size, partial):
    frame = ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("SYN",))
    result = ingest_pcap(_write(tmp_path, pcap_bytes([(1.0, frame.ljust(size, b"\x00"))])))
    assert result.partial is partial
    assert len(result.packets) == (0 if partial else 1)


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


def test_unsupported_link_type_is_refused(tmp_path):
    # Linux cooked capture: its 16-byte header is not Ethernet, so reading
    # it as one would drop every packet as non-TCP without a word.
    path = _write(tmp_path, pcap_bytes(handshake_fin_frames(), linktype=113))
    with pytest.raises(PcapFormatError, match="unsupported link type 113"):
        ingest_pcap(path)


@pytest.mark.parametrize("linktype", [LINKTYPE_NULL, LINKTYPE_RAW])
def test_loopback_and_raw_ip_link_types(tmp_path, linktype):
    frames = [(ts, relink(frame, linktype)) for ts, frame in _syn_exchange()]
    frames.append((1.4, relink(ipv6_tcp_frame(4242, 443, ("SYN",)), linktype)))
    result = ingest_pcap(_write(tmp_path, pcap_bytes(frames, linktype=linktype)))
    assert [(p.src_port, p.dst_port) for p in result.packets] == [
        (1111, 80), (80, 1111), (1111, 80), (1111, 80), (4242, 443),
    ]
    assert result.non_tcp == 0


# A whole frame of each header chain, cut at every length and with each
# byte overwritten, before and after an intact frame: a parser that reads
# past the end of its frame reads the next record, or past the buffer.
_SWEPT_FRAMES = {
    "ipv4-vlan": ipv4_tcp_frame("10.0.0.1", "10.0.0.2", 1111, 80, ("ACK", "PSH"),
                                b"x" * 8, vlan=7),
    "ipv6-fragment-ah": ipv6_tcp_frame(4242, 443, ("SYN",), fragment_offset=0,
                                       authentication=True, payload=b"y" * 8),
}


@pytest.mark.parametrize("kind", sorted(_SWEPT_FRAMES))
def test_every_cut_and_overwritten_byte_ingests_as_the_reference(tmp_path, kind):
    frame = _SWEPT_FRAMES[kind]
    intact = ipv4_tcp_frame("10.0.0.3", "10.0.0.4", 2222, 8080, ("SYN",))
    variants = [frame[:n] for n in range(len(frame))] + [
        frame[:at] + bytes([value]) + frame[at + 1:]
        for at in range(len(frame))
        for value in (0x00, 0x0F, 0x33, 0x45, 0x60, 0x81, 0xFF)
    ]
    path = tmp_path / "swept.pcap"
    for variant in variants:
        for frames in ([(1.0, variant), (1.1, intact)], [(1.0, intact), (1.1, variant)]):
            path.write_bytes(pcap_bytes(frames))
            assert ingest_pcap(path) == reference_ingest(path), variant.hex()


_PORTS = (80, 443, 1111, 8080)
_FLAGS = st.lists(st.sampled_from(("FIN", "SYN", "RST", "PSH", "ACK", "URG")), unique=True)
_IPV4 = st.sampled_from(("10.0.0.1", "10.0.0.2", "192.168.7.200"))


@st.composite
def _frames(draw):
    """One Ethernet frame: TCP over IPv4 (tagged or not) or IPv6 (behind
    fragment and authentication headers or not), or UDP."""
    kind = draw(st.sampled_from(("ipv4", "ipv4-vlan", "ipv6", "udp")))
    sport, dport = draw(st.sampled_from(_PORTS)), draw(st.sampled_from(_PORTS))
    if kind == "udp":
        return ipv4_udp_frame(draw(_IPV4), draw(_IPV4), sport, dport)
    flags = tuple(draw(_FLAGS))
    payload = bytes(draw(st.integers(0, 40)))
    if kind == "ipv6":
        offset = draw(st.one_of(st.none(), st.integers(0, 3)))
        return ipv6_tcp_frame(sport, dport, flags, fragment_offset=offset,
                              authentication=draw(st.booleans()), payload=payload)
    vlan = draw(st.integers(1, 4094)) if kind == "ipv4-vlan" else None
    return ipv4_tcp_frame(draw(_IPV4), draw(_IPV4), sport, dport, flags, payload, vlan)


@st.composite
def _captures(draw):
    """A capture of any magic and link type, and a port filter. Frames of
    link type 0 or 101 are mostly re-framed for it; the rest stay Ethernet,
    which those link types must still read without failing. Some frames
    are cut short or have one byte overwritten, mostly in their headers."""
    linktype = draw(st.sampled_from((LINKTYPE_NULL, LINKTYPE_ETHERNET, LINKTYPE_RAW, 113, 228)))
    frames = []
    for i, frame in enumerate(draw(st.lists(_frames(), max_size=8))):
        if draw(st.integers(0, 3)):
            frame = relink(frame, linktype)
        damage = draw(st.sampled_from(("none", "none", "cut", "byte")))
        if damage == "cut":
            frame = frame[:draw(st.integers(0, len(frame)))]
        elif damage == "byte":
            at = draw(st.integers(0, min(len(frame), 80) - 1))
            frame = frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1:]
        frames.append((1.0 + i * draw(st.floats(0.0, 2.0)), frame))
    magic = draw(st.sampled_from((MAGIC_MICRO_BE, MAGIC_MICRO_LE, MAGIC_NANO_BE, MAGIC_NANO_LE)))
    ports = frozenset(draw(st.lists(st.sampled_from(_PORTS), max_size=2)))
    return pcap_bytes(frames, magic=magic, linktype=linktype), linktype, ports


def _ingest_both(path, ports):
    """ingest_pcap's outcome and the reference's: an IngestResult, or the
    message of the PcapFormatError raised. Any other exception fails."""
    outcomes = []
    for ingest in (ingest_pcap, reference_ingest):
        try:
            outcomes.append(ingest(path, ports))
        except PcapFormatError as exc:
            outcomes.append(str(exc))
    return outcomes


@given(_captures())
@settings(max_examples=150, deadline=None)
def test_ingest_equals_the_reference_parsers(tmp_path_factory, capture):
    data, linktype, ports = capture
    path = tmp_path_factory.getbasetemp() / "oracle.pcap"
    path.write_bytes(data)
    got, want = _ingest_both(path, ports)
    if linktype in (LINKTYPE_NULL, LINKTYPE_ETHERNET, LINKTYPE_RAW):
        assert got == want
    else:
        assert got.startswith(f"{path}: unsupported link type {linktype};")


@given(_captures(), st.lists(st.integers(0, 1 << 16), max_size=6), st.integers(0, 1 << 16))
@settings(max_examples=150, deadline=None)
def test_damaged_captures_ingest_or_raise_pcap_format_error(
    tmp_path_factory, capture, flips, cut
):
    # Bit flips anywhere, the global header included, then a cut end.
    data, _, ports = capture
    damaged = bytearray(data)
    for bit in flips:
        damaged[bit // 8 % len(damaged)] ^= 1 << bit % 8
    path = tmp_path_factory.getbasetemp() / "damaged.pcap"
    path.write_bytes(bytes(damaged[:len(damaged) - cut % (len(damaged) + 1)]))
    got, want = _ingest_both(path, ports)
    assert isinstance(got, (IngestResult, str))
    if not (isinstance(got, str) and "unsupported link type" in got):
        assert got == want
