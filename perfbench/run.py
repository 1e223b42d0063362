"""Benchmark of the alarmsift pipeline on generated traffic.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed (set-up, repeated
SETUP_REPEATS times and timed), then for S seconds repeats the measured
pipeline call, each time in a fresh child process with the set-up files
already on disk. Every call's output tree is checked. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (input flows), and the metrics — end-to-end with --trace 0,
per-layer from traced calls with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

# One compute thread, so the load is a single thread and floating-point
# results do not depend on thread scheduling. Set before numpy loads.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _run_child(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        env={**os.environ, **SINGLE_THREAD},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured call crashed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 flows: int | None = None) -> dict:
    """One benchmark run of one workload. ``flows`` overrides the input
    size (tests use it); the recorded output digest applies only to the
    default size."""
    from alarmsift.errors import BudgetError, DataError
    from layers import PER_LAYER
    from workloads import WORKLOADS, CheckFailed, check_outputs, check_round_trip, set_up, tree_digest

    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures: list[str] = []

    setup_s, input_digests = [], set()
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(work / "input", ignore_errors=True)
            start = time.perf_counter()
            inputs = set_up(workload, seed, work, flows)
            setup_s.append(time.perf_counter() - start)
            input_digests.add(tree_digest(work / "input")[0])
    except (BudgetError, DataError) as exc:
        attempted = 2 * (flows or workload.flows)
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {},
                "notes": [f"set-up failed: {type(exc).__name__}: {exc}"]}
    if len(input_digests) != 1:
        failures.append("set-up wrote different inputs for the same seed")
    try:
        check_round_trip(inputs)
    except CheckFailed as exc:
        failures.append(f"PCAP round trip: {exc}")

    recorded = json.loads(REFERENCE.read_text())
    reference = recorded["sha256"][name] if flows is None and seed == recorded["seed"] else None
    out = work / "output"
    spec = {"src": str(SRC), "entry": inputs.entry, "config": inputs.config,
            "bundle": inputs.bundle, "spans": str(work / "spans.jsonl")}
    plain: list[dict] = []
    traced: list[dict] = []
    output_digests = set()
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        tracing = trace and len(traced) < len(plain)
        shutil.rmtree(out, ignore_errors=True)
        result = _run_child({**spec, "trace": tracing}, work / "spec.json")
        (traced if tracing else plain).append(result)
        if result["error"]:
            continue
        if result.get("unreached"):
            raise RuntimeError(f"{name}: traced call never reached {result['unreached']}")
        digest, result["output_bytes"] = tree_digest(out)
        output_digests.add(digest)
        try:
            result["quality"] = check_outputs(inputs, out)
        except CheckFailed as exc:
            failures.append(str(exc))

    if len(output_digests) > 1:
        failures.append("the output tree differs between identical calls")
    if reference is not None and output_digests - {reference}:
        failures.append(f"output sha256 {sorted(output_digests)} != reference {reference}")
    calls = plain + traced
    failed_calls = [r for r in calls if r["error"]]
    attempted = inputs.flows * len(calls)
    failed = inputs.flows * len(failed_calls)
    done = [r for r in plain if not r["error"]] or plain
    quality = next((r["quality"] for r in calls if "quality" in r), None)
    if quality is None:
        failures.append("no call completed with checked outputs")
        quality = (0.0, 0.0)

    if trace:
        done_traced = [r for r in traced if not r["error"]] or traced
        metrics = {
            key: statistics.median(r["layers"][key] for r in done_traced)
            for key in PER_LAYER if key not in ("pipeline.output_bytes", "trace.overhead_s")
        }
        metrics["pipeline.output_bytes"] = done_traced[0].get("output_bytes", 0)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in done_traced) - statistics.median(r["wall_s"] for r in done)
        )
        units = {key: unit for key, (unit, _) in PER_LAYER.items()}
    else:
        wall = statistics.median(r["wall_s"] for r in done)
        metrics = {
            "wall_s": wall,
            "flows_per_s": inputs.flows / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "setup_s": statistics.median(setup_s),
            "recall_4": quality[0],
            "precision_4": quality[1],
            "completed_share": 1 - failed / attempted,
        }
        units = {"wall_s": "s", "flows_per_s": "flows/s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "setup_s": "s", "recall_4": "ratio", "precision_4": "ratio",
                 "completed_share": "ratio"}
    notes = failures + [f"call failed: {r['error']}" for r in failed_calls[:3]]
    notes.append(f"{len(setup_s)} set-ups (s): " + " ".join(f"{t:.3f}" for t in setup_s))
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            notes.append(f"{len(group)} {kind} calls (wall s): "
                         + " ".join(f"{r['wall_s']:.3f}" for r in group))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "alarmsift" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC / 'alarmsift'} not found", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    }
    for name, result in results.items():
        for note in result["notes"]:
            print(f"# {name}: {note}")
        for metric, m in result["metrics"].items():
            print(f"{name:<17} {metric:<30} {m['value']:>14.6g} {m['unit']}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "notes"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
