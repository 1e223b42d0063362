"""One measured iteration of a workload, in a fresh process.

Usage: python3 child.py SPEC_JSON

The spec names the package source directory, the pipeline entry point,
its RunConfig fields and whether to trace. The process does nothing but
import the package before the measured call, so its peak RSS is that of
the call. It
prints one JSON object: wall and CPU seconds, peak RSS, the error of a
failed call, and with tracing the per-layer metrics.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _config(fields: dict):
    from alarmsift.config import CaptureSpec, RunConfig

    fields = dict(fields)
    fields["output_dir"] = Path(fields["output_dir"])
    if "corpus" in fields:
        fields["corpus"] = Path(fields["corpus"])
    if "captures" in fields:
        fields["captures"] = tuple(CaptureSpec(Path(p), truth) for p, truth in fields["captures"])
    return RunConfig(**fields).validate()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import alarmsift
    from alarmsift import pipeline
    from alarmsift.errors import BudgetError, DataError

    if src not in Path(alarmsift.__file__).resolve().parents:
        raise SystemExit(f"imported alarmsift from {alarmsift.__file__}, not from {src}")
    config = _config(spec["config"])
    if spec["entry"] == "evaluate":
        call = lambda: pipeline.evaluate(config)
    else:
        call = lambda: pipeline.cmd_rate(config, spec["bundle"])

    probe = None
    if spec["trace"]:
        from layers import LayerProbe

        probe = LayerProbe()
        probe.install()
        traced = call

        def call():
            with probe.tracer.span(f"pipeline.{spec['entry']}"):
                traced()

    error = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        call()
    except (BudgetError, DataError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    t1, cpu1 = time.perf_counter(), time.process_time()
    out = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
    }
    if probe is not None:
        probe.tracer.restore()
        out["unreached"] = probe.unreached(spec["entry"])
        out["layers"] = probe.metrics()
        probe.tracer.dump(spec["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
