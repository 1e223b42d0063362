"""Per-layer instrumentation of ``alarmsift`` for the traced run.

Every entry names the module attribute a caller looks the function up by:
``pipeline`` imports ``ingest_pcap`` by name, so the ingest span patches
``alarmsift.pipeline.ingest_pcap``; ``alignment.align_fragments`` calls the
module global ``align``, so the alignment span patches
``alarmsift.alignment.align``.
"""
from __future__ import annotations

import importlib
from collections import Counter

from tracer import Tracer, self_times

# (span name, module, attribute): one span per call.
SPANNED = (
    ("pcap.ingest_pcap", "alarmsift.pipeline", "ingest_pcap"),
    ("flowmeter.read_corpus", "alarmsift.pipeline", "read_corpus"),
    ("flowmeter.assemble_flows", "alarmsift.pipeline", "assemble_flows"),
    ("flowmeter.featurize", "alarmsift.events", "featurize"),
    ("detector.fit_baseline", "alarmsift.detector", "fit_baseline"),
    ("detector.calibrate_threshold", "alarmsift.detector", "calibrate_threshold"),
    ("detector.score_flows", "alarmsift.detector", "score_flows"),
    ("detector.classify", "alarmsift.detector", "classify"),
    ("events.fit_states", "alarmsift.events", "fit_states"),
    ("events.split_by_state", "alarmsift.events", "split_by_state"),
    ("events.build_logs", "alarmsift.events", "build_logs"),
    ("discovery.discover", "alarmsift.discovery", "discover"),
    ("alignment.align", "alarmsift.alignment", "align"),
    ("alignment.profile_reference", "alarmsift.alignment", "profile_reference"),
    ("rating.rate_all", "alarmsift.pipeline", "rate_all"),
    ("pipeline.load_bundle", "alarmsift.pipeline", "load_bundle"),
    ("pipeline.save_bundle", "alarmsift.pipeline", "save_bundle"),
    ("pipeline.write_rate_report", "alarmsift.pipeline", "write_rate_report"),
)

# (counter name, module, attribute): counted only. ``align`` calls
# ``enabled_indexes`` once per A* expansion, far too often to span.
COUNTED = (
    ("petri.enabled_indexes", "alarmsift.petri", "PetriNet.enabled_indexes"),
    ("petri.fire_index", "alarmsift.petri", "PetriNet.fire_index"),
)

# Functions each kind of workload must reach; a traced run that records no
# call of one of them fails.
REACHES = {
    "evaluate": (
        "flowmeter.read_corpus", "detector.fit_baseline", "detector.calibrate_threshold",
        "detector.score_flows", "detector.classify", "events.fit_states",
        "events.split_by_state", "events.build_logs", "discovery.discover",
        "alignment.align", "alignment.profile_reference", "rating.rate_all",
        "pipeline.save_bundle", "pipeline.write_rate_report",
        "petri.enabled_indexes", "petri.fire_index",
    ),
    "cmd_rate": (
        "pcap.ingest_pcap", "flowmeter.assemble_flows", "flowmeter.featurize",
        "detector.score_flows", "detector.classify", "events.split_by_state",
        "alignment.align", "rating.rate_all", "pipeline.load_bundle",
        "pipeline.write_rate_report", "petri.enabled_indexes", "petri.fire_index",
    ),
}

# name -> (unit, better). The traced run reports exactly these, in this order.
PER_LAYER = {
    "pcap.ingest_s": ("s", "lower"),
    "pcap.packets": ("count", "higher"),
    "pcap.non_tcp": ("count", "lower"),
    "pcap.truncated": ("count", "lower"),
    "flowmeter.read_corpus_s": ("s", "lower"),
    "flowmeter.assemble_s": ("s", "lower"),
    "flowmeter.featurize_s": ("s", "lower"),
    "flowmeter.flows": ("count", "higher"),
    "detector.fit_s": ("s", "lower"),
    "detector.score_s": ("s", "lower"),
    "detector.positives": ("count", "lower"),
    "events.fit_states_s": ("s", "lower"),
    "events.split_s": ("s", "lower"),
    "events.build_logs_s": ("s", "lower"),
    "events.fragments": ("count", "lower"),
    "discovery.discover_s": ("s", "lower"),
    "discovery.places_max": ("count", "lower"),
    "discovery.transitions_max": ("count", "lower"),
    "petri.enabled_calls": ("count", "lower"),
    "petri.fire_calls": ("count", "lower"),
    "alignment.align_s": ("s", "lower"),
    "alignment.calls": ("count", "lower"),
    "alignment.distinct_calls": ("count", "lower"),
    "alignment.distinct_ratio": ("ratio", "higher"),
    "alignment.expansions_per_call": ("count/call", "lower"),
    "alignment.cost_mean": ("cost", "lower"),
    "alignment.budget_errors": ("count", "lower"),
    "alignment.profile_reference_s": ("s", "lower"),
    "rating.rate_all_s": ("s", "lower"),
    "rating.alarms": ("count", "lower"),
    "rating.band_1": ("count", "higher"),
    "rating.band_2": ("count", "higher"),
    "rating.band_3": ("count", "higher"),
    "rating.band_4": ("count", "higher"),
    "rating.band_5": ("count", "higher"),
    "pipeline.load_bundle_s": ("s", "lower"),
    "pipeline.save_bundle_s": ("s", "lower"),
    "pipeline.write_rate_report_s": ("s", "lower"),
    "pipeline.output_bytes": ("B", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _resolve(module: str, attr: str) -> tuple[object, str]:
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class LayerProbe:
    """Installs the spans, counters and result observers, and derives the
    per-layer metrics from what they recorded."""

    def __init__(self):
        self.tracer = Tracer()
        self.results: Counter[str] = Counter()
        self.nets: dict[int, object] = {}  # holds the nets so their ids stay unique
        self.align_keys: set[tuple[int, tuple[str, ...]]] = set()

    def install(self) -> None:
        from alarmsift.errors import BudgetError

        calls, results = self.tracer.calls, self.results

        def counting(update):
            def observer(original, args, kwargs):
                result = original(*args, **kwargs)
                update(result)
                return result
            return observer

        def ingest(result):
            results["packets"] += len(result.packets)
            results["non_tcp"] += result.non_tcp
            results["truncated"] += result.truncated

        def rated(result):
            alarms, histogram = result
            results["alarms"] += len(alarms)
            for band, count in histogram.items():
                results[f"band_{band}"] += count

        def align(original, args, kwargs):
            net, trace = args[:2]
            self.nets.setdefault(id(net), net)
            self.align_keys.add((id(net), tuple(trace)))
            before = calls["petri.enabled_indexes"]
            try:
                result = original(*args, **kwargs)
            except BudgetError:
                results["budget_errors"] += 1
                raise
            finally:
                results["expansions"] += calls["petri.enabled_indexes"] - before
            results["cost"] += result.cost
            return result

        observers = {
            "pcap.ingest_pcap": counting(ingest),
            "flowmeter.read_corpus": counting(lambda r: results.update(flows=len(r))),
            "flowmeter.assemble_flows": counting(lambda r: results.update(flows=len(r))),
            "detector.classify": counting(
                lambda r: results.update(positives=sum(s.positive for s in r))
            ),
            "events.split_by_state": counting(lambda r: results.update(fragments=len(r))),
            "discovery.discover": counting(lambda r: self.nets.setdefault(id(r), r)),
            "alignment.align": align,
            "rating.rate_all": counting(rated),
        }
        for name, module, attr in COUNTED:
            self.tracer.count(*_resolve(module, attr), name)
        for name, module, attr in SPANNED:
            owner, leaf = _resolve(module, attr)
            if name in observers:
                self.tracer.observe(owner, leaf, observers[name])
            self.tracer.wrap(owner, leaf, name)

    def unreached(self, kind: str) -> list[str]:
        return [name for name in REACHES[kind] if not self.tracer.calls[name]]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, except the two the parent process adds
        (pipeline.output_bytes and trace.overhead_s)."""
        spans = self.tracer.spans
        d, calls, r = self.tracer.durations(), self.tracer.calls, self.results
        selfs = self_times(spans)
        n_align = calls["alignment.align"]
        return {
            "pcap.ingest_s": d["pcap.ingest_pcap"],
            "pcap.packets": r["packets"],
            "pcap.non_tcp": r["non_tcp"],
            "pcap.truncated": r["truncated"],
            "flowmeter.read_corpus_s": d["flowmeter.read_corpus"],
            "flowmeter.assemble_s": d["flowmeter.assemble_flows"],
            "flowmeter.featurize_s": d["flowmeter.featurize"],
            "flowmeter.flows": r["flows"],
            "detector.fit_s": d["detector.fit_baseline"] + d["detector.calibrate_threshold"],
            "detector.score_s": d["detector.score_flows"],
            "detector.positives": r["positives"],
            "events.fit_states_s": d["events.fit_states"],
            "events.split_s": d["events.split_by_state"],
            "events.build_logs_s": d["events.build_logs"],
            "events.fragments": r["fragments"],
            "discovery.discover_s": d["discovery.discover"],
            "discovery.places_max": max((len(n.places) for n in self.nets.values()), default=0),
            "discovery.transitions_max": max(
                (len(n.transitions) for n in self.nets.values()), default=0
            ),
            "petri.enabled_calls": calls["petri.enabled_indexes"],
            "petri.fire_calls": calls["petri.fire_index"],
            "alignment.align_s": d["alignment.align"],
            "alignment.calls": n_align,
            "alignment.distinct_calls": len(self.align_keys),
            "alignment.distinct_ratio": len(self.align_keys) / n_align if n_align else 0.0,
            "alignment.expansions_per_call": r["expansions"] / n_align if n_align else 0.0,
            "alignment.cost_mean": r["cost"] / n_align if n_align else 0.0,
            "alignment.budget_errors": r["budget_errors"],
            "alignment.profile_reference_s": d["alignment.profile_reference"],
            "rating.rate_all_s": d["rating.rate_all"],
            "rating.alarms": r["alarms"],
            **{f"rating.band_{k}": r[f"band_{k}"] for k in range(1, 6)},
            "pipeline.load_bundle_s": d["pipeline.load_bundle"],
            "pipeline.save_bundle_s": d["pipeline.save_bundle"],
            "pipeline.write_rate_report_s": d["pipeline.write_rate_report"],
            # The root span is the pipeline entry point the child called.
            "pipeline.self_s": sum(t for t, s in zip(selfs, spans) if s.parent < 0),
        }
