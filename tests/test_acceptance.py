"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines).
"""
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from alarmsift import pipeline, synthetic
from alarmsift.alignment import MoveKind, align
from alarmsift.config import RunConfig
from alarmsift.discovery import SEQUENCE, ProcessTree, discover, leaf, tree_to_net
from alarmsift.events import flow_to_record
from alarmsift.flowmeter import FEATURE_NAMES, assemble_flows, featurize
from alarmsift.pcap import ingest_pcap
from alarmsift.rating import BandedConfusion, SeverityBands, banded_metrics, cos_sim

from capturecraft import handshake_fin_frames, ipv4_tcp_frame, pcap_bytes
from treegen import log_projection, oracle_align_cost, perturb_trace, random_tree, sample_trace


def test_criterion_1_alignment_optimality_vs_bruteforce():
    """>= 200 random desk-scale instances: align cost == oracle cost, < 60 s."""
    rng = random.Random(2024)
    started = time.monotonic()
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 5000, "net generator starved"
        tree = random_tree(rng, list("abcdef"), max_depth=3)
        net = tree_to_net(tree)
        if len(net.transitions) > 8:
            continue
        base = sample_trace(tree, rng)
        trace = base if rng.random() < 0.4 else perturb_trace(base, rng, list("abcdef"))
        trace = trace[:10]
        expected = oracle_align_cost(net, trace)
        assert expected is not None
        got = align(net, trace).cost
        assert got == expected, f"tree={tree} trace={trace}: {got} != {expected}"
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 alignment-optimality: PASS "
          f"({checked} instances exact in {elapsed:.1f}s)")


def test_criterion_2_rediscovery_zero_cost_replay():
    """>= 50 random trees: every sampled trace replays at alignment cost 0."""
    rng = random.Random(99)
    trees = 0
    traces_checked = 0
    while trees < 50:
        alphabet = list("abcdef")[: rng.randint(2, 6)]
        tree = random_tree(rng, alphabet, max_depth=3)
        log = [sample_trace(tree, rng) for _ in range(40)]
        net = discover(log)
        for trace in set(log):
            assert align(net, trace).cost == 0, f"tree={tree} trace={trace}"
            traces_checked += 1
        trees += 1
    print(f"ACCEPTANCE 2 rediscovery: PASS "
          f"({trees} trees, {traces_checked} distinct traces at cost 0)")


def test_criterion_3_paper_alignment_example():
    """Split-handshake net vs the push-before-ack trace: exactly one
    non-synchronous move, a model-only C_to_S_ACK."""
    pattern = ("C_to_S_SYN", "S_to_C_SYN", "C_to_S_ACK", "S_to_C_ACK+PSH", "C_to_S_ACK")
    net = tree_to_net(ProcessTree(op=SEQUENCE, children=tuple(leaf(e) for e in pattern)))
    trace = ("C_to_S_SYN", "S_to_C_SYN", "S_to_C_ACK+PSH", "C_to_S_ACK")
    result = align(net, trace)
    assert result.cost == 1
    non_sync = result.misaligned()
    assert len(non_sync) == 1
    assert non_sync[0].kind is MoveKind.MODEL_ONLY
    assert non_sync[0].label == "C_to_S_ACK"
    assert log_projection(result) == trace
    print("ACCEPTANCE 3 paper-alignment-example: PASS (cost 1, ModelOnly C_to_S_ACK)")


def test_criterion_4_metric_arithmetic():
    """TP_incl=14141, FP_incl=2, TP_excl=8, FN=0 at k=4."""
    confusion = BandedConfusion(tp={1: 628, 2: 1484, 3: 11036, 4: 993, 5: 8},
                                fp={4: 2, 5: 8}, fn=0)
    assert sum(confusion.tp_at(i) for i in range(1, 5)) == 14141
    recall, precision = banded_metrics(confusion, 4)
    assert abs(recall * 100 - 99.943) <= 0.001, recall
    assert abs(precision * 100 - 99.986) <= 0.001, precision
    print(f"ACCEPTANCE 4 metric-arithmetic: PASS "
          f"(recall {recall*100:.3f}%, precision {precision*100:.3f}%)")


def test_criterion_5_rating_separation_five_seeds(tmp_path):
    """500+500 synthetic flows, 5 runs: Recall_4/Precision_4 >= 95%, band
    concentration >= 80% on each side, < 5 min."""
    started = time.monotonic()
    corpus = tmp_path / "corpus"
    flows = synthetic.generate_flows("normal", 500, seed=101)
    flows += synthetic.generate_flows("slowloris", 500, seed=202)
    synthetic.write_corpus(flows, corpus)
    config = RunConfig(corpus=corpus, output_dir=tmp_path / "eval", runs=5, seed=17).validate()
    report = pipeline.evaluate(config)

    recall4 = report.aggregate["recall"][4]["mean"]
    precision4 = report.aggregate["precision"][4]["mean"]
    assert precision4 is not None
    assert recall4 >= 0.95, f"Recall_4 {recall4:.4f}"
    assert precision4 >= 0.95, f"Precision_4 {precision4:.4f}"

    tp_low = sum(sum(o.confusion.tp_at(b) for b in (1, 2, 3)) for o in report.runs)
    tp_all = sum(sum(o.confusion.tp_at(b) for b in range(1, 6)) for o in report.runs)
    fp_high = sum(sum(o.confusion.fp_at(b) for b in (4, 5)) for o in report.runs)
    fp_all = sum(sum(o.confusion.fp_at(b) for b in range(1, 6)) for o in report.runs)
    assert tp_all > 0 and fp_all > 0
    assert tp_low / tp_all >= 0.80, f"TP band share {tp_low}/{tp_all}"
    assert fp_high / fp_all >= 0.80, f"FP band share {fp_high}/{fp_all}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 rating-separation: PASS "
          f"(Recall_4 {recall4:.4f}, Precision_4 {precision4:.4f}, "
          f"TP<=3 {tp_low}/{tp_all}, FP>=4 {fp_high}/{fp_all}, {elapsed:.0f}s)")


def test_criterion_6_cossim_contract():
    """Identity, orthogonality, scale invariance to 1e-12, band totality."""
    assert cos_sim({"a": 2.0, "b": 3.0}, {"a": 2.0, "b": 3.0}) == pytest.approx(1.0, abs=1e-15)
    assert cos_sim({"a": 1.0}, {"b": 1.0}) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        ref = {f"l{i}": float(v) for i, v in enumerate(rng.uniform(0, 9, size=4))}
        flow = {f"l{i}": float(v) for i, v in enumerate(rng.uniform(0, 9, size=4))}
        c = float(rng.uniform(1e-6, 1e6))
        base = cos_sim(ref, flow)
        scaled = cos_sim({k: v * c for k, v in ref.items()}, flow)
        assert abs(base - scaled) <= 1e-12
    bands = SeverityBands()
    grid = [round(i * 0.005, 10) for i in range(201)]
    assert grid[0] == 0.0 and grid[-1] == 1.0
    seen = set()
    for score in grid:
        seen.add(bands.band_of(score))
    assert seen == {1, 2, 3, 4, 5}
    print("ACCEPTANCE 6 cossim-contract: PASS (exact conventions, 1e-12 scale invariance)")


def test_criterion_7_flow_metering_exact(tmp_path):
    """Crafted captures reproduce hand-derived flows and features exactly."""
    # (a) interleaved conversations on distinct ports
    conv_a = [
        (1.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 1111, 80, ("SYN",))),
        (3.0, ipv4_tcp_frame("10.0.0.9", "10.0.0.1", 80, 1111, ("SYN", "ACK"))),
        (5.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",))),
    ]
    conv_b = [
        (2.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 2222, 80, ("SYN",))),
        (4.0, ipv4_tcp_frame("10.0.0.9", "10.0.0.1", 80, 2222, ("SYN", "ACK"))),
        (6.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 2222, 80, ("ACK",))),
    ]
    frames = sorted(conv_a + conv_b)
    path = tmp_path / "interleaved.pcap"
    path.write_bytes(pcap_bytes(frames))
    flows = assemble_flows(ingest_pcap(path).packets)
    assert len(flows) == 2
    assert [f.client[1] for f in flows] == [1111, 2222]
    assert all(len(f.packets) == 3 for f in flows)

    # (b) timeout split: same key, 300 s idle with a 120 s timeout
    frames = [
        (10.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",))),
        (310.0, ipv4_tcp_frame("10.0.0.1", "10.0.0.9", 1111, 80, ("ACK",))),
    ]
    path = tmp_path / "gap.pcap"
    path.write_bytes(pcap_bytes(frames))
    flows = assemble_flows(ingest_pcap(path).packets, timeout=120.0)
    assert [len(f.packets) for f in flows] == [1, 1]

    # (c) handshake + close: hand-counted feature values, exact
    frames = [(float(i + 1), frame) for i, (_, frame) in enumerate(handshake_fin_frames())]
    path = tmp_path / "handshake.pcap"
    path.write_bytes(pcap_bytes(frames))
    (flow,) = assemble_flows(ingest_pcap(path).packets)
    frame_len = len(frames[0][1])
    features = dict(zip(FEATURE_NAMES, featurize(flow)))
    expect = {
        "duration": 5.0,
        "packets_total": 6.0, "packets_c2s": 4.0, "packets_s2c": 2.0,
        "bytes_total": 6.0 * frame_len,
        "syn_count": 2.0, "ack_count": 5.0, "fin_count": 2.0,
        "rst_count": 0.0, "psh_count": 0.0, "urg_count": 0.0,
        "pkt_len_mean": float(frame_len), "pkt_len_std": 0.0,
        "pkt_len_min": float(frame_len), "pkt_len_max": float(frame_len),
        "iat_mean": 1.0, "iat_std": 0.0,
        "packets_per_s": 6.0 / 5.0,
    }
    for name, want in expect.items():
        assert features[name] == want, (name, features[name], want)
    record = flow_to_record(flow)
    assert record.events == (
        "C_to_S_SYN", "S_to_C_SYN+ACK", "C_to_S_ACK",
        "C_to_S_ACK+FIN", "S_to_C_ACK+FIN", "C_to_S_ACK",
    )
    print("ACCEPTANCE 7 flow-metering: PASS (interleave, timeout split, hand counts exact)")


DATASET_DIR = os.environ.get("USB_IDS_TC_DIR")
DATASET_SCORES = os.environ.get("USB_IDS_TC_SCORES")


@pytest.mark.skipif(
    not (DATASET_DIR and DATASET_SCORES),
    reason=(
        "optional dataset reproduction: set USB_IDS_TC_DIR to a directory with "
        "NOR.pcap plus attack PCAPs (GSL/HSL/HSP) and USB_IDS_TC_SCORES to a "
        "flow_id,score[,truth] CSV exported from the external detector"
    ),
)
def test_criterion_8_dataset_reproduction(tmp_path):
    """With imported external scores: Recall_4 >= 99%, Precision_4 >= 99.5%."""
    dataset = Path(DATASET_DIR)
    captures = [{"path": str(dataset / "NOR.pcap"), "truth": "normal"}]
    for name in ("GSL.pcap", "HSL.pcap", "HSP.pcap"):
        if (dataset / name).exists():
            captures.append({"path": str(dataset / name), "truth": "attack"})
    from alarmsift.config import load_config

    config = load_config(None, {
        "captures": captures,
        "external_scores": Path(DATASET_SCORES),
        "external_threshold": float(os.environ.get("USB_IDS_TC_THRESHOLD", "0.5")),
        "output_dir": tmp_path / "dataset_eval",
        "runs": 5,
        "seed": 17,
    })
    report = pipeline.evaluate(config)
    recall4 = report.aggregate["recall"][4]["mean"]
    precision4 = report.aggregate["precision"][4]["mean"]
    assert recall4 >= 0.99
    assert precision4 is not None and precision4 >= 0.995
    print(f"ACCEPTANCE 8 dataset-reproduction: PASS "
          f"(Recall_4 {recall4:.4f}, Precision_4 {precision4:.4f})")
