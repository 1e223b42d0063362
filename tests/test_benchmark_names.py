"""The names the benchmark's traced run patches must keep resolving, the
traced workloads must reach every layer they name, and the captures the
benchmark writes must read back as the flows they were written from.

perfbench/layers.py wraps package functions by module and attribute name;
a rename, or a call that moves to a name the probe does not wrap, breaks
only a traced benchmark run, so both are checked here too. The benchmark
files are imported, never modified.
"""
import importlib
import sys
from pathlib import Path

from alarmsift import pipeline, synthetic
from alarmsift.config import CaptureSpec, RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_every_patched_name_resolves_to_a_callable(monkeypatch):
    layers = _perfbench_module(monkeypatch, "layers")
    entries = layers.SPANNED + layers.COUNTED
    assert entries
    for name, module, attr in entries:
        owner, leaf = layers._resolve(module, attr)
        assert callable(getattr(owner, leaf, None)), f"{name}: {module}.{attr} is not callable"


def test_traced_workloads_reach_every_layer(monkeypatch, tmp_path):
    layers = _perfbench_module(monkeypatch, "layers")
    pcapwriter = _perfbench_module(monkeypatch, "pcapwriter")
    normal = synthetic.generate_flows(synthetic.PROFILE_NORMAL, 40, seed=3)
    attack = synthetic.generate_flows(synthetic.PROFILE_SLOWLORIS, 40, seed=4)
    synthetic.write_corpus(normal + attack, tmp_path / "corpus")
    bundle = pipeline.cmd_train(RunConfig(output_dir=tmp_path / "train", corpus=tmp_path / "corpus"))
    captures = []
    for truth, flows in (("normal", normal[:10]), ("attack", attack[:10])):
        path = tmp_path / f"{truth}.pcap"
        pcapwriter.write_pcap(flows, path)
        captures.append(CaptureSpec(path, truth))
    calls = {
        "evaluate": lambda: pipeline.evaluate(
            RunConfig(output_dir=tmp_path / "eval", corpus=tmp_path / "corpus", runs=1)
        ),
        "cmd_rate": lambda: pipeline.cmd_rate(
            RunConfig(output_dir=tmp_path / "rate", captures=tuple(captures)), bundle
        ),
    }
    for kind, call in calls.items():
        probe = layers.LayerProbe()
        probe.install()
        try:
            call()
        finally:
            probe.tracer.restore()
        assert probe.unreached(kind) == [], kind


def test_written_captures_assemble_into_the_generated_flows(monkeypatch, tmp_path):
    # The rate_pcap set-up check: pcapwriter reads each synthetic packet's
    # direction, flags and lengths, and ingest_pcap plus assemble_flows must
    # give back flows with exactly the generated features.
    workloads = _perfbench_module(monkeypatch, "workloads")
    pcapwriter = _perfbench_module(monkeypatch, "pcapwriter")
    captures = []
    for truth, profile, seed in (("normal", synthetic.PROFILE_NORMAL, 5),
                                 ("attack", synthetic.PROFILE_SLOWLORIS, 6)):
        flows = synthetic.generate_flows(profile, 10, seed=seed)
        path = tmp_path / f"{truth}.pcap"
        assert pcapwriter.write_pcap(flows, path) == sum(len(f.packets) for f in flows)
        captures.append((path, flows))
    inputs = workloads.Inputs(entry="cmd_rate", config={}, flows=20, scored=20,
                              rating_dirs=[], captures=captures)
    workloads.check_round_trip(inputs)
