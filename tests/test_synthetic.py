"""Synthetic corpus generator: regimes, grammar, determinism."""
import hashlib

import numpy as np
import pytest

from alarmsift.errors import DataError
from alarmsift.events import flow_to_record
from alarmsift.flowmeter import FEATURE_NAMES
from alarmsift.synthetic import (
    PROFILE_NORMAL,
    PROFILE_SLOWLORIS,
    generate_flows,
    write_corpus,
)

_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}

# sha256 of flows.csv and events.jsonl for 30 normal flows (seed 6) followed
# by 20 Slowloris flows (seed 7). test_golden reads the corpus back, so a
# float written differently but parsed equal ("1e-05" vs "1.0e-05") passes
# it; these digests do not.
CORPUS_DIGESTS = (
    "a3e9f4e5e2ae2baf2af8fdd59dd2d6be54d99a54269aa7829faacce339290c0a",
    "fb1e6b001e4f1b81a6f185882d44b75316dc08d22e94574a7da6023134cff194",
)


def _records(profile, count, seed):
    return [flow_to_record(f) for f in generate_flows(profile, count, seed)]


def _mean(records, name):
    return float(np.mean([r.features[_IDX[name]] for r in records]))


def test_packet_length_regimes():
    normal = _records(PROFILE_NORMAL, 80, seed=3)
    slow = _records(PROFILE_SLOWLORIS, 80, seed=4)
    nor_len = _mean(normal, "pkt_len_mean")
    gsl_len = _mean(slow, "pkt_len_mean")
    # Table-anchored regimes at +/-50%: bulk download vs low-and-slow.
    assert 1389 * 0.5 <= nor_len <= 1389 * 1.5
    assert 69 * 0.5 <= gsl_len <= 69 * 1.5
    assert nor_len > 10 * gsl_len


def test_slowloris_shape():
    slow = _records(PROFILE_SLOWLORIS, 80, seed=9)
    packets = _mean(slow, "packets_total")
    assert 9 <= packets <= 20  # around 14 +/- 3
    assert _mean(slow, "rst_count") > 0.9
    assert _mean(slow, "fin_count") == 0.0
    assert 15 <= _mean(slow, "duration") <= 60


def test_normal_shape():
    normal = _records(PROFILE_NORMAL, 40, seed=2)
    assert _mean(normal, "rst_count") == 0.0
    assert _mean(normal, "fin_count") == 2.0
    assert _mean(normal, "syn_count") == 2.0
    assert _mean(normal, "packets_total") > 80


def test_grammar_discriminators():
    normal = _records(PROFILE_NORMAL, 30, seed=6)
    slow = _records(PROFILE_SLOWLORIS, 30, seed=7)
    push = "C_to_S_ACK+PSH"
    for rec in normal:
        # A client push is always answered before the next one.
        assert all(
            not (a == push and b == push) for a, b in zip(rec.events, rec.events[1:])
        )
        assert rec.events[-3:] == ("C_to_S_ACK+FIN", "S_to_C_ACK+FIN", "C_to_S_ACK")
    assert any(
        any(a == push and b == push for a, b in zip(r.events, r.events[1:]))
        for r in slow
    )
    assert all("RST" in r.events[-1] for r in slow)


def test_truth_labels_and_ids():
    normal = generate_flows(PROFILE_NORMAL, 3, seed=1)
    slow = generate_flows(PROFILE_SLOWLORIS, 3, seed=1)
    assert {f.truth for f in normal} == {"normal"}
    assert {f.truth for f in slow} == {"attack"}
    assert len({f.flow_id for f in normal + slow}) == 6


def test_deterministic_corpus(tmp_path):
    for sub in ("one", "two"):
        flows = generate_flows(PROFILE_SLOWLORIS, 25, seed=77)
        write_corpus(flows, tmp_path / sub)
    assert (tmp_path / "one" / "flows.csv").read_bytes() == (tmp_path / "two" / "flows.csv").read_bytes()
    assert (tmp_path / "one" / "events.jsonl").read_bytes() == (tmp_path / "two" / "events.jsonl").read_bytes()


def test_count_and_profile_validation():
    with pytest.raises(DataError):
        generate_flows(PROFILE_NORMAL, 0, seed=1)
    with pytest.raises(DataError):
        generate_flows("ddos", 5, seed=1)


def test_corpus_bytes_match_recorded_digests(tmp_path):
    flows = generate_flows(PROFILE_NORMAL, 30, seed=6) + generate_flows(PROFILE_SLOWLORIS, 20, seed=7)
    paths = write_corpus(flows, tmp_path)
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == CORPUS_DIGESTS
