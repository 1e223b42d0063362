"""The benchmark's workloads: how each generates its inputs from the seed
(set-up), which pipeline entry point it measures, and the checks on what
that call writes.

The package is driven from outside through its public API only; the
pipeline receives generated files and a RunConfig whose seed keeps its
default, so the workload seed changes the inputs and nothing else.
"""
from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from alarmsift import pipeline, synthetic
from alarmsift.config import RunConfig
from alarmsift.flowmeter import Flow, assemble_flows, featurize
from alarmsift.pcap import ingest_pcap
from alarmsift.rating import BandedConfusion, banded_metrics
from pcapwriter import write_pcap


class CheckFailed(Exception):
    """An output or input of the benchmark is not what it must be."""


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "evaluate" or "cmd_rate"
    flows: int  # flows of each profile (normal, slowloris) in the measured input
    clusters: int = RunConfig.clusters


# The normal traffic the nets are mined from comes from this fixed seed;
# the workload seed varies the traffic being rated. The nets mined from a
# pool of a few false positives change the alignment work per call
# several-fold, so with mined traffic drawn from the workload seed the
# run-to-run spread of wall time exceeds any usable bound (IQR/median
# 0.2-0.4 over five seeds, even when averaging eight inputs per run).
MODEL_SEED = 1_000_003

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval_fragments", "evaluate", flows=100),
        Workload("eval_whole_trace", "evaluate", flows=100, clusters=1),
        Workload("rate_pcap", "cmd_rate", flows=200),
    )
}


@dataclass
class Inputs:
    """What set-up leaves on disk, and what the measured call must produce."""

    entry: str
    config: dict  # RunConfig fields as JSON values
    flows: int  # input flows of one measured call
    scored: int  # flows each rating must score
    rating_dirs: list[str]  # relative to the output directory
    bundle: str | None = None
    captures: list[tuple[Path, list[Flow]]] = field(default_factory=list)


def set_up(workload: Workload, seed: int, work: Path, flows: int | None = None) -> Inputs:
    """Generates the workload's inputs under ``work / "input"``; the same
    seed gives byte-identical files."""
    n = flows or workload.flows
    inp, out = work / "input", work / "output"
    attack = synthetic.generate_flows(synthetic.PROFILE_SLOWLORIS, n, seed * 10 + 2)
    defaults = RunConfig()
    if workload.entry == "evaluate":
        # evaluate mines its nets from the normal flows: they are model traffic.
        normal = synthetic.generate_flows(synthetic.PROFILE_NORMAL, n, MODEL_SEED)
        synthetic.write_corpus(normal + attack, inp / "corpus")
        rest = n - int(round(defaults.train_fraction * n)) - int(round(defaults.validation_fraction * n))
        return Inputs(
            entry="evaluate",
            config={"output_dir": str(out), "corpus": str(inp / "corpus"),
                    "clusters": workload.clusters},
            flows=2 * n,
            scored=rest + n,
            rating_dirs=[f"runs/run_{i}/rating" for i in range(defaults.runs)],
        )
    normal = synthetic.generate_flows(synthetic.PROFILE_NORMAL, n, seed * 10 + 1)
    # cmd_train mines its nets from its own corpus of 2n normal flows.
    train = synthetic.generate_flows(synthetic.PROFILE_NORMAL, 2 * n, MODEL_SEED)
    synthetic.write_corpus(train, inp / "train_corpus")
    bundle = pipeline.cmd_train(
        RunConfig(output_dir=inp / "train", corpus=inp / "train_corpus", clusters=workload.clusters)
    )
    captures = [(inp / "normal.pcap", normal), (inp / "attack.pcap", attack)]
    for path, generated in captures:
        write_pcap(generated, path)
    return Inputs(
        entry="cmd_rate",
        config={"output_dir": str(out), "clusters": workload.clusters,
                "captures": [[str(inp / "normal.pcap"), "normal"],
                             [str(inp / "attack.pcap"), "attack"]]},
        flows=2 * n,
        scored=2 * n,
        rating_dirs=["rating"],
        bundle=str(bundle),
        captures=captures,
    )


def check_round_trip(inputs: Inputs) -> None:
    """Every flow assembled from a written capture has exactly the features
    of the generated flow it came from."""
    timeout = RunConfig().flow_timeout
    for path, generated in inputs.captures:
        result = ingest_pcap(path)
        if result.partial or result.truncated or result.non_tcp or result.filtered:
            raise CheckFailed(f"{path.name}: ingest dropped records: {result!r:.200}")
        assembled = assemble_flows(result.packets, timeout=timeout)
        if len(assembled) != len(generated):
            raise CheckFailed(
                f"{path.name}: {len(assembled)} flows assembled from {len(generated)} written"
            )
        for got, want in zip(assembled, generated):
            if not np.array_equal(featurize(got), featurize(want)):
                raise CheckFailed(
                    f"{path.name}: features of {got.flow_id} differ from generated {want.flow_id}"
                )


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over the relative paths and contents of every file under root,
    and the total size in bytes."""
    digest, total = hashlib.sha256(), 0
    for path in sorted((p for p in root.rglob("*") if p.is_file()), key=lambda p: p.as_posix()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
        total += len(data)
    return digest.hexdigest(), total


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        if fh.readline().startswith("# schema:"):
            return list(csv.DictReader(fh))
        fh.seek(0)
        return list(csv.DictReader(fh))


def check_outputs(inputs: Inputs, out: Path) -> tuple[float, float]:
    """Checks the count identities of every rating the call wrote and
    returns the banded recall and precision at k=4, averaged over ratings."""
    runs = json.loads((out / "report.json").read_text())["runs"] if inputs.entry == "evaluate" else None
    recalls, precisions = [], []
    for i, rel in enumerate(inputs.rating_dirs):
        rating = out / rel
        scores = _rows(rating / "scores.csv")
        alarms = _rows(rating / "rated_alarms.csv")
        histogram = _rows(rating / "band_histogram.csv")
        if len(scores) != inputs.scored:
            raise CheckFailed(f"{rel}: {len(scores)} flows scored, {inputs.scored} input")
        if sum(int(row["count"]) for row in histogram) != len(alarms):
            raise CheckFailed(f"{rel}: band histogram does not sum to {len(alarms)} alarms")
        positives = sum(row["predicted"] == "positive" for row in scores)
        if positives != len(alarms) or (runs and runs[i]["positives"] != len(alarms)):
            raise CheckFailed(f"{rel}: {positives} positives but {len(alarms)} rated alarms")
        tp, fp = Counter(), Counter()
        for alarm in alarms:
            (tp if alarm["truth"] == "attack" else fp)[int(alarm["band"])] += 1
        fn = sum(row["predicted"] == "negative" and row["truth"] == "attack" for row in scores)
        recall, precision = banded_metrics(BandedConfusion(tp=dict(tp), fp=dict(fp), fn=fn), 4)
        if precision is None:
            raise CheckFailed(f"{rel}: no alarm rated in bands 1-4")
        recalls.append(recall)
        precisions.append(precision)
    return sum(recalls) / len(recalls), sum(precisions) / len(precisions)
