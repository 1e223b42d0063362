"""End-to-end orchestration: training the bundle, rating captures, and the
seeded multi-run evaluation protocol.

Every stage reads and writes documented file artifacts, so any stage can
be rerun from persisted intermediates. All randomness flows from the
master seed via named sub-seeds.

This is the one module that reports dropped input. The stages (pcap,
flowmeter, detector) return what they dropped and log nothing.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment as al
from . import detector as det
from . import discovery, events
from .artifacts import read_json, write_csv, write_jsonl, write_schema_json
from .config import RunConfig, derive_seed, echo_config, semantic_echo
from .errors import ConfigError, DataError, PcapFormatError, SchemaError
from .flowmeter import FEATURE_NAMES, FlowRecord, assemble_flows, read_corpus
from .pcap import ingest_pcap
from .petri import check_soundness, export_pnml, import_pnml, workflow_shape_errors
from .rating import (
    BAND_NAMES,
    NUM_BANDS,
    BandedConfusion,
    RatedAlarm,
    SeverityBands,
    banded_metrics,
    rate_all,
)

logger = logging.getLogger(__name__)

BUNDLE_SCHEMA = "alarmsift-bundle/1"
REPORT_SCHEMA = "alarmsift-report/1"

_BANDS = range(1, NUM_BANDS + 1)  # band k of rating.BAND_NAMES, 1 = most severe


# --- input loading ---------------------------------------------------------

def load_records(config: RunConfig) -> list[FlowRecord]:
    """Loads flow records from the configured corpus or PCAP captures; setting
    both is a ConfigError. A corpus without a flow raises DataError naming
    its directory. Flow ids must be distinct: a capture's ids are prefixed
    with its file stem, and two captures that yield the same id raise
    DataError naming both. A capture that ingest_pcap cannot read
    (PcapFormatError: unreadable, a bad global header, an unsupported link
    type) or that is malformed mid-file is refused with a warning naming it,
    and the rest still load; a warning counts records cut off at a capture's
    end. DataError is raised when every capture was refused, and when the
    captures yield no flow, with the packets that server_ports filtered and
    the non-TCP packets counted."""
    if config.corpus is not None and config.captures:
        raise ConfigError("set either corpus or captures, not both")
    if config.corpus is not None:
        corpus = read_corpus(config.corpus / "flows.csv", config.corpus / "events.jsonl")
        if not corpus:
            raise DataError(f"corpus {config.corpus} holds no flow")
        return corpus
    if not config.captures:
        raise ConfigError("no input configured: set either corpus or captures")
    records: list[FlowRecord] = []
    origin: dict[str, Path] = {}  # flow id -> the capture it came from
    refused = filtered = non_tcp = 0
    for spec in config.captures:
        try:
            result = ingest_pcap(spec.path, config.server_ports)
            if result.partial:
                read = len(result.packets) + result.non_tcp + result.filtered
                raise PcapFormatError(f"{spec.path}: corrupt record header after {read} record(s)")
        except PcapFormatError as exc:
            logger.warning("%s; refusing it", exc)
            refused += 1
            continue
        if result.truncated:
            logger.warning(
                "%s: dropped %d truncated trailing record(s)", spec.path, result.truncated
            )
        filtered += result.filtered
        non_tcp += result.non_tcp
        flows = assemble_flows(
            result.packets,
            timeout=config.flow_timeout,
            id_prefix=spec.path.stem,
            truth=spec.truth,
        )
        for flow in flows:
            if flow.flow_id in origin:
                raise DataError(
                    f"flow id {flow.flow_id} occurs in captures {origin[flow.flow_id]} "
                    f"and {spec.path}; give the captures distinct file names"
                )
            origin[flow.flow_id] = spec.path
            records.append(events.flow_to_record(flow))
    if refused == len(config.captures):
        raise DataError(f"all {refused} capture(s) are unreadable or malformed; no input left")
    if refused:
        logger.warning("refused %d of %d capture(s)", refused, len(config.captures))
    if not records:
        raise DataError(
            f"no flow was assembled from the captures: {filtered} packet(s) filtered "
            f"by server_ports, {non_tcp} non-TCP packet(s)"
        )
    return records


def _features_matrix(records: list[FlowRecord]) -> np.ndarray:
    return np.stack([r.features for r in records]) if records else np.empty((0, 0))


# --- bundle ----------------------------------------------------------------

@dataclass
class TrainedBundle:
    # A bundle without a model rates external scores at config.external_threshold.
    model: det.DetectorModel | None
    # echo_config(semantic_echo(...)) of the training config, as a loaded bundle holds it.
    config: RunConfig
    params: events.ExtractionParams
    # Holds the nets. After training it also holds the reference profile's
    # alignments, so rating does not search those fragments again.
    aligner: al.Aligner
    reference: dict[str, float]
    fp_pool: tuple[str, ...]

    @property
    def threshold(self) -> float:
        return self.config.external_threshold if self.model is None else self.model.threshold


def split_normals(
    normals: list[FlowRecord], config: RunConfig, seed: int
) -> tuple[list[FlowRecord], list[FlowRecord], list[FlowRecord]]:
    """Seeded (train, validation, rest) partition by the config fractions."""
    rng = np.random.default_rng(derive_seed(seed, "split"))
    order = rng.permutation(len(normals))
    n_train = int(round(config.train_fraction * len(normals)))
    n_val = int(round(config.validation_fraction * len(normals)))
    train = [normals[i] for i in order[:n_train]]
    val = [normals[i] for i in order[n_train:n_train + n_val]]
    rest = [normals[i] for i in order[n_train + n_val:]]
    if not train or not val:
        raise DataError(
            f"split produced {len(train)} training / {len(val)} validation flows"
        )
    return train, val, rest


def train_bundle(
    records: list[FlowRecord], config: RunConfig, seed: int
) -> tuple[TrainedBundle, dict[int, list[events.Fragment]]]:
    """Training phase: detector fit + calibration, then the process-based
    characterization mined from misclassified validation flows. Returns the
    bundle and the state event logs it was mined from."""
    normals = [r for r in records if r.truth == det.TRUTH_NORMAL or r.truth == det.TRUTH_UNKNOWN]
    if not normals:
        raise DataError("training requires normal flows")
    train_recs, val_recs, _ = split_normals(normals, config, seed)
    scores = det.read_scores_csv(config.external_scores)
    return _train_from_split(train_recs, val_recs, config, seed, scores)


def _train_from_split(
    train_recs: list[FlowRecord],
    val_recs: list[FlowRecord],
    config: RunConfig,
    seed: int,
    scores: dict[str, float] | None,
    memo: al.AlignmentMemo | None = None,
) -> tuple[TrainedBundle, dict[int, list[events.Fragment]]]:
    """Training on a given split, on the scores table if there is one; the
    bundle's Aligner keeps its results in memo, or in a memo of its own."""
    model = None
    if scores is None:
        model = det.fit_baseline(
            _features_matrix(train_recs), config.components,
            derive_seed(seed, "detector"), FEATURE_NAMES,
        )
        model = det.calibrate_threshold(model, _features_matrix(val_recs), config.percentile)
    _, fp_records = _detect(model, config.external_threshold, val_recs, scores)
    if not fp_records:
        raise DataError(
            "no validation false positives available for mining; "
            "apply a more restrictive (lower) percentile"
        )
    params = events.fit_states(
        [r.events for r in fp_records], config.clusters, config.window,
        derive_seed(seed, "extraction"),
    )
    per_flow = [events.split_by_state(r.flow_id, r.events, params) for r in fp_records]
    logs = events.build_logs(per_flow, params)
    nets = {state: discovery.discover([f.events for f in logs[state]]) for state in sorted(logs)}
    aligner = al.Aligner(nets, config.alignment_budget, memo)
    reference = al.profile_reference(per_flow, aligner)
    return TrainedBundle(
        model=model,
        config=echo_config(semantic_echo(config)),
        params=params,
        aligner=aligner,
        reference=reference,
        fp_pool=tuple(r.flow_id for r in fp_records),
    ), logs


def _manifest_payload(bundle: TrainedBundle) -> dict:
    return {
        "kind": det.KIND_EXTERNAL if bundle.model is None else det.KIND_BASELINE,
        "threshold": bundle.threshold,
        "states": sorted(bundle.aligner.nets),
        "fp_pool": list(bundle.fp_pool),
        "config": semantic_echo(bundle.config),
    }


def save_bundle(
    bundle: TrainedBundle,
    logs: dict[int, list[events.Fragment]],
    out_dir: str | Path,
) -> Path:
    out_dir = Path(out_dir)
    (out_dir / "nets").mkdir(parents=True, exist_ok=True)
    (out_dir / "logs").mkdir(exist_ok=True)
    write_schema_json(out_dir / "manifest.json", BUNDLE_SCHEMA, _manifest_payload(bundle))
    if bundle.model is not None:
        det.save_model(bundle.model, out_dir / "detector.json")
    events.save_params(bundle.params, out_dir / "extraction.json")
    for state, net in sorted(bundle.aligner.nets.items()):
        export_pnml(net, out_dir / "nets" / f"state_{state}.pnml", net_id=f"state_{state}")
    for state, fragments in sorted(logs.items()):
        events.export_xes(state, fragments, out_dir / "logs" / f"state_{state}.xes")
    events.export_logs_jsonl(logs, out_dir / "logs" / "state_logs.jsonl")
    al.write_profile_csv(bundle.reference, out_dir / "reference_profile.csv")
    return out_dir


def load_bundle(bundle_dir: str | Path, budget: int = al.DEFAULT_BUDGET) -> TrainedBundle:
    """Reads a bundle: its config is echo_config of the manifest's echo, and
    manifest.json is valid exactly when _manifest_payload writes it back
    (artifacts.read_json), so the manifest's threshold is detector.json's
    or, without a model, the echoed external_threshold. Besides, the echo's
    clusters and window must be extraction.json's, and each net must be a
    sound workflow net. Raises SchemaError naming the file at fault. The
    bundle's Aligner searches its nets with the given budget."""
    bundle_dir = Path(bundle_dir)

    def build(manifest: dict) -> TrainedBundle:
        config = echo_config(manifest["config"])
        external = config.external_scores is not None
        model = None if external else det.load_model(bundle_dir / "detector.json")
        params = events.load_params(bundle_dir / "extraction.json")
        if (config.clusters, config.window) != (params.clusters, params.window):
            raise ValueError("config clusters and window differ from extraction.json's")
        nets = {}
        for state in range(params.clusters):
            path = bundle_dir / "nets" / f"state_{state}.pnml"
            nets[state] = import_pnml(path)
            problems = workflow_shape_errors(nets[state]) or check_soundness(nets[state])
            if problems:
                raise SchemaError(f"{path}: not a sound workflow net: {problems}")
        return TrainedBundle(
            model=model,
            config=config,
            params=params,
            aligner=al.Aligner(nets, budget),
            reference=al.read_profile_csv(bundle_dir / "reference_profile.csv"),
            fp_pool=tuple(str(flow_id) for flow_id in manifest["fp_pool"]),
        )

    return read_json(bundle_dir / "manifest.json", BUNDLE_SCHEMA, build, _manifest_payload)


def cmd_train(config: RunConfig) -> Path:
    records = load_records(config)
    bundle, logs = train_bundle(records, config, config.seed)
    return save_bundle(bundle, logs, config.output_dir / "bundle")


# --- rating ----------------------------------------------------------------

@dataclass
class RateReport:
    scored: list[det.ScoredFlow]
    alarms: list[RatedAlarm]
    histogram: dict[int, int]
    explanations: list[dict]  # per alarm: {"unseen_labels": [...], "fragments": [record, ...]}

    @property
    def negatives(self) -> list[det.ScoredFlow]:
        return [s for s in self.scored if not s.positive]


def _detect(
    model: det.DetectorModel | None, threshold: float | None,
    records: list[FlowRecord], scores: dict[str, float] | None,
) -> tuple[list[det.ScoredFlow], list[FlowRecord]]:
    """The detector decision for each record, in record order, and the
    records decided positive. Without a model, the scores table is decided
    at threshold; records without a score are left out, counted in a warning."""
    ids, truths = [r.flow_id for r in records], [r.truth for r in records]
    if model is not None:
        scored = det.classify(model, _features_matrix(records), ids, truths)
    else:
        scored = det.import_scores(scores, threshold, ids, truths)
        if len(scored) < len(records):
            missing = len(records) - len(scored)
            logger.warning("external scores: %d input flow(s) have no score; excluded", missing)
    flagged = {s.flow_id for s in scored if s.positive}
    return scored, [r for r in records if r.flow_id in flagged]


def _warn_stray_scores(records: list[FlowRecord], scores: dict[str, float] | None) -> None:
    """Warns once about the external score rows that name none of records."""
    if scores is not None:
        stray = set(scores) - {r.flow_id for r in records}
        if stray:
            logger.warning("external scores: skipped %d unknown flow id(s)", len(stray))


def _rate(
    bundle: TrainedBundle, records: list[FlowRecord], config: RunConfig
) -> tuple[list[RatedAlarm], dict[int, int], list[dict]]:
    """Rates each record against the bundle's reference profile. Returns the
    alarms and the band histogram (rate_all), and one explanation per record
    in record order: the labels of its trace outside the trained alphabet
    and its fragment alignments."""
    rows, explanations = [], []
    for record in records:
        fragments = events.split_by_state(record.flow_id, record.events, bundle.params)
        profile, aligned = al.profile_flow(fragments, bundle.aligner)
        rows.append((record.flow_id, profile, record.truth))
        explanations.append({
            "unseen_labels": list(events.unseen_labels(record.events, bundle.params)),
            "fragments": [al.fragment_alignment_record(f, a) for f, a in aligned],
        })
    alarms, histogram = rate_all(bundle.reference, rows, SeverityBands(config.band_boundaries))
    return alarms, histogram, explanations


def rate_records(
    bundle: TrainedBundle, records: list[FlowRecord], config: RunConfig,
    scores: dict[str, float] | None,
) -> RateReport:
    """Inference phase: classify, then rate the positives only. Score rows
    for other flows are the caller's to report (_warn_stray_scores)."""
    scored, positives = _detect(bundle.model, bundle.threshold, records, scores)
    return RateReport(scored, *_rate(bundle, positives, config))


def write_rate_report(report: RateReport, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "rated_alarms.csv", ["flow_id", "cos_sim", "band", "band_name", "truth"], (
        [a.flow_id, repr(a.cos_sim), a.band, a.band_name, a.truth] for a in report.alarms
    ))
    write_csv(out_dir / "band_histogram.csv", ["band", "band_name", "count"], (
        [band, BAND_NAMES[band], report.histogram[band]] for band in sorted(report.histogram)
    ))
    write_jsonl(out_dir / "alignments.jsonl", al.ALIGNMENTS_SCHEMA, (
        {**frag, "unseen_labels": e["unseen_labels"]}
        for e in report.explanations for frag in e["fragments"]
    ))
    det.write_scores_csv(report.scored, out_dir / "scores.csv")
    _write_band_profiles(report.alarms, out_dir / "band_mean_profiles.csv")


def _write_band_profiles(alarms: list[RatedAlarm], path: Path) -> None:
    """Mean misalignment profile per (band, truth): the explanation data
    behind per-band bar plots."""
    groups: dict[tuple[int, str], list[dict[str, float]]] = {}
    for alarm in alarms:
        groups.setdefault((alarm.band, alarm.truth), []).append(alarm.profile)
    write_csv(path, ["band", "truth", "event_type", "mean_count"], (
        [band, truth, label, repr(mean)]
        for (band, truth), profiles in sorted(groups.items())
        for label, mean in al.mean_profile(profiles).items()
    ))


def cmd_rate(config: RunConfig, bundle_dir: str | Path) -> RateReport:
    bundle = load_bundle(bundle_dir, config.alignment_budget)
    if bundle.model is not None and tuple(bundle.model.feature_names) != FEATURE_NAMES:
        raise SchemaError("bundle feature list does not match this build")
    if config.external_threshold != bundle.config.external_threshold:
        raise ConfigError(f"bundle's external_threshold is {bundle.config.external_threshold!r}")
    records = load_records(config)
    scores = det.read_scores_csv(config.external_scores)
    report = rate_records(bundle, records, config, scores)
    _warn_stray_scores(records, scores)
    write_rate_report(report, config.output_dir / "rating")
    return report


# --- evaluation ------------------------------------------------------------

@dataclass
class RunOutcome:
    seed: int
    confusion: BandedConfusion
    fp_pool: int


@dataclass
class ExperimentReport:
    runs: list[RunOutcome]
    aggregate: dict


def _confusion_from(report: RateReport) -> BandedConfusion:
    tp: dict[int, int] = {}
    fp: dict[int, int] = {}
    for alarm in report.alarms:
        target = tp if alarm.truth == det.TRUTH_ATTACK else fp
        target[alarm.band] = target.get(alarm.band, 0) + 1
    fn = sum(1 for s in report.negatives if s.truth == det.TRUTH_ATTACK)
    return BandedConfusion(tp=tp, fp=fp, fn=fn)


def evaluate(config: RunConfig) -> ExperimentReport:
    """Repeats train + rate over seeded splits and aggregates mean +/- std."""
    records = load_records(config)
    unknown = [r.flow_id for r in records if r.truth not in (det.TRUTH_NORMAL, det.TRUTH_ATTACK)]
    if unknown:
        raise DataError(
            f"evaluation requires truth labels; {len(unknown)} flow(s) are unlabeled"
        )
    normals = [r for r in records if r.truth == det.TRUTH_NORMAL]
    attacks = [r for r in records if r.truth == det.TRUTH_ATTACK]
    if not normals or not attacks:
        raise DataError("evaluation requires both normal and attack flows")

    scores = det.read_scores_csv(config.external_scores)
    outcomes: list[RunOutcome] = []
    out_root = config.output_dir
    # Runs often mine the same net, so their Aligners share one memo.
    memo: al.AlignmentMemo = {}
    for run in range(config.runs):
        run_seed = derive_seed(config.seed, f"run-{run}")
        train_recs, val_recs, test_normals = split_normals(normals, config, run_seed)
        bundle, logs = _train_from_split(train_recs, val_recs, config, run_seed, scores, memo)
        run_dir = out_root / "runs" / f"run_{run}"
        save_bundle(bundle, logs, run_dir / "bundle")
        report = rate_records(bundle, test_normals + attacks, config, scores)
        write_rate_report(report, run_dir / "rating")
        outcomes.append(RunOutcome(
            seed=run_seed, confusion=_confusion_from(report), fp_pool=len(bundle.fp_pool)
        ))
    # A run rates part of the corpus; a stray score row names no corpus flow.
    _warn_stray_scores(records, scores)
    report = ExperimentReport(runs=outcomes, aggregate=_aggregate(outcomes))
    _write_experiment(report, config, out_root)
    return report


def _mean_std(values: list[float]) -> dict:
    if not values:
        return {"mean": None, "std": None, "n": 0}
    arr = np.array(values, dtype=float)
    return {"mean": float(arr.mean()), "std": float(arr.std()), "n": len(values)}


def _aggregate(outcomes: list[RunOutcome]) -> dict:
    agg: dict = {"recall": {}, "precision": {}, "tp_band": {}, "fp_band": {}}
    for k in _BANDS:
        metrics = [banded_metrics(o.confusion, k) for o in outcomes]
        agg["recall"][k] = _mean_std([recall for recall, _ in metrics])
        agg["precision"][k] = _mean_std([p for _, p in metrics if p is not None])
        agg["tp_band"][k] = _mean_std([o.confusion.tp_at(k) for o in outcomes])
        agg["fp_band"][k] = _mean_std([o.confusion.fp_at(k) for o in outcomes])
    agg["fn"] = _mean_std([o.confusion.fn for o in outcomes])
    return agg


def _report_entry(run: int, o: RunOutcome) -> dict:
    """One run's entry in report.json, its metrics derived from the confusion."""
    metrics = {k: banded_metrics(o.confusion, k) for k in _BANDS}
    return {
        "seed": o.seed,
        "tp": o.confusion.tp,
        "fp": o.confusion.fp,
        "fn": o.confusion.fn,
        "recall": {k: recall for k, (recall, _) in metrics.items()},
        "precision": {k: precision for k, (_, precision) in metrics.items()},
        "positives": sum(o.confusion.tp.values()) + sum(o.confusion.fp.values()),
        "fp_pool": o.fp_pool,
        "artifacts": {  # paths relative to the output dir
            "bundle": f"runs/run_{run}/bundle",
            "rating": f"runs/run_{run}/rating",
        },
    }


def _write_experiment(report: ExperimentReport, config: RunConfig, out_root: Path) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    agg = report.aggregate
    write_schema_json(out_root / "report.json", REPORT_SCHEMA, {
        "config": semantic_echo(config),
        "runs": [_report_entry(run, o) for run, o in enumerate(report.runs)],
        "aggregate": agg,
    })

    def precision(k: int, stat: str) -> str:
        return repr(agg["precision"][k][stat]) if agg["precision"][k]["n"] else "absent"

    write_csv(out_root / "metrics.csv", [
        "band", "k", "tp_mean", "tp_std", "fp_mean", "fp_std",
        "recall_mean", "recall_std", "precision_mean", "precision_std",
    ], (
        [BAND_NAMES[k], k,
         repr(agg["tp_band"][k]["mean"]), repr(agg["tp_band"][k]["std"]),
         repr(agg["fp_band"][k]["mean"]), repr(agg["fp_band"][k]["std"]),
         repr(agg["recall"][k]["mean"]), repr(agg["recall"][k]["std"]),
         precision(k, "mean"), precision(k, "std")]
        for k in reversed(_BANDS)
    ))
    total_tp = sum(agg["tp_band"][k]["mean"] for k in _BANDS) or 1.0
    total_fp = sum(agg["fp_band"][k]["mean"] for k in _BANDS) or 1.0
    write_csv(out_root / "fig_performance.csv", [
        "k", "band", "recall_mean", "precision_mean", "tp_share", "fp_share",
    ], (
        [k, BAND_NAMES[k], repr(agg["recall"][k]["mean"]), precision(k, "mean"),
         repr(agg["tp_band"][k]["mean"] / total_tp), repr(agg["fp_band"][k]["mean"] / total_fp)]
        for k in _BANDS
    ))


# --- explain ---------------------------------------------------------------

def explain_flows(
    config: RunConfig, bundle_dir: str | Path, flow_ids: list[str] | None = None
) -> list[dict]:
    """Per-flow alignment explanations (any flow, not just positives)."""
    bundle = load_bundle(bundle_dir, config.alignment_budget)
    records = load_records(config)
    if flow_ids:
        wanted = set(flow_ids)
        records = [r for r in records if r.flow_id in wanted]
        missing = wanted - {r.flow_id for r in records}
        if missing:
            raise DataError(f"unknown flow id(s): {sorted(missing)}")
    alarms, _, explanations = _rate(bundle, records, config)
    return [
        {
            "flow_id": alarm.flow_id,
            "truth": alarm.truth,
            "cos_sim": alarm.cos_sim,
            "band": alarm.band,
            "profile": alarm.profile,
            **explanation,
        }
        for alarm, explanation in zip(alarms, explanations)
    ]
