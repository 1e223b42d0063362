"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PER_LAYER, REACHES, LayerProbe  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),   # overlaps a: [1, 6] is covered once
        Span("c", 8.0, 12.0, 0),  # clipped to the root's end: [8, 10]
        Span("a.x", 2.0, 3.0, 1),  # a grandchild does not count for the root
        Span("lone", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.5])


def test_nested_spans_record_their_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0),
    ]
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_a_renamed_function_fails_loudly():
    with pytest.raises(AttributeError):
        Tracer().wrap(types.SimpleNamespace(), "ingest_pcap", "pcap.ingest_pcap")


def test_every_patched_name_exists_and_unreached_ones_are_reported():
    probe = LayerProbe()
    probe.install()
    try:
        assert probe.unreached("cmd_rate") == list(REACHES["cmd_rate"])
    finally:
        probe.tracer.restore()


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_at_a_tiny_size(name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, flows=40)
    assert result["correct"], result["notes"]
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_a_failing_call_counts_its_flows_as_failed():
    # 30 flows leave 8 validation flows, below the detector's minimum of 10,
    # so every evaluate call raises DataError.
    result = run.run_workload("eval_whole_trace", seed=3, seconds=0, trace=False, flows=30)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 60
    assert result["metrics"]["completed_share"]["value"] == 0
    assert any("DataError" in note for note in result["notes"])


def test_exits_nonzero_without_the_package_source():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate_pcap", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
