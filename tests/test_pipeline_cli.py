"""End-to-end pipeline stages and the CLI surface."""
import argparse
import csv
import dataclasses
import json
import logging
import math
import re
import shutil
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from alarmsift import alignment, detector, discovery, pipeline, synthetic
from alarmsift.cli import _add_common, main
from alarmsift.config import (
    _FIELDS, MAX_RUNS, CaptureSpec, RunConfig, derive_seed, echo_config, load_config,
    semantic_echo,
)
from alarmsift.errors import ConfigError, DataError, SchemaError
from alarmsift.petri import PetriNet, Transition, export_pnml, import_pnml
from capturecraft import handshake_fin_frames, ipv4_udp_frame, pcap_bytes


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    flows = synthetic.generate_flows("normal", 120, seed=31)
    flows += synthetic.generate_flows("slowloris", 60, seed=32)
    synthetic.write_corpus(flows, out)
    return out


@pytest.fixture(scope="module")
def normal_only_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("normal_only")
    synthetic.write_corpus(synthetic.generate_flows("normal", 100, seed=41), out)
    return out


def _cfg(corpus, out, **kw):
    defaults = dict(corpus=Path(corpus), output_dir=Path(out), runs=2, seed=7)
    defaults.update(kw)
    return RunConfig(**defaults).validate()


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_train_produces_bundle_artifacts(normal_only_dir, tmp_path):
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    bundle_dir = pipeline.cmd_train(cfg)
    for name in ("manifest.json", "detector.json", "extraction.json", "reference_profile.csv"):
        assert (bundle_dir / name).exists()
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    assert manifest["states"] == [0, 1]
    assert len(manifest["fp_pool"]) > 0
    assert (bundle_dir / "nets" / "state_0.pnml").exists()
    assert (bundle_dir / "logs" / "state_0.xes").exists()


def test_train_is_byte_identical_across_reruns(normal_only_dir, tmp_path):
    t1 = pipeline.cmd_train(_cfg(normal_only_dir, tmp_path / "one"))
    t2 = pipeline.cmd_train(_cfg(normal_only_dir, tmp_path / "two"))
    files1, files2 = _tree_bytes(t1), _tree_bytes(t2)
    assert files1.keys() == files2.keys()
    for name in files1:
        assert files1[name] == files2[name], f"bundle file differs: {name}"


def test_train_percentile_one_advises_lower(normal_only_dir, tmp_path):
    cfg = _cfg(normal_only_dir, tmp_path / "out", percentile=1.0)
    with pytest.raises(DataError, match="lower"):
        pipeline.cmd_train(cfg)


def test_train_on_external_scores_advises_a_lower_external_threshold(normal_only_dir, tmp_path):
    # No validation flow scores above 0.5; the percentile plays no part.
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    scores_csv = tmp_path / "scores.csv"
    rows = [f"{r.flow_id},0.0" for r in pipeline.load_records(cfg)]
    scores_csv.write_text("flow_id,score\n" + "\n".join(rows) + "\n")
    ext = dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)
    with pytest.raises(DataError, match="apply a lower external_threshold$"):
        pipeline.cmd_train(ext)


def test_train_refuses_a_training_flow_whose_features_overflow(normal_only_dir, tmp_path):
    # 1e308 is finite, but the std of its column overflows to inf; a model
    # fitted on it would be written, and then refused by rate.
    corpus = tmp_path / "corpus"
    shutil.copytree(normal_only_dir, corpus)
    cfg = _cfg(corpus, tmp_path / "out")
    train, _, _ = pipeline.split_normals(pipeline.load_records(cfg), cfg, cfg.seed)
    lines = (corpus / "flows.csv").read_text().splitlines(keepends=True)
    column = lines[1].split(",").index("bytes_total")
    for i, line in enumerate(lines):
        if line.startswith(f"{train[0].flow_id},"):
            fields = line.split(",")
            fields[column] = "1e308"
            lines[i] = ",".join(fields)
    (corpus / "flows.csv").write_text("".join(lines))
    with pytest.raises(DataError, match="their mean and std must be finite"):
        pipeline.cmd_train(cfg)
    assert main(["train", "--corpus", str(corpus), "--output-dir", str(tmp_path / "cli")]) == 3
    assert not (tmp_path / "cli" / "bundle" / "detector.json").exists()


def test_rate_from_persisted_bundle(corpus_dir, normal_only_dir, tmp_path):
    train_cfg = _cfg(normal_only_dir, tmp_path / "train")
    bundle_dir = pipeline.cmd_train(train_cfg)
    rate_cfg = _cfg(corpus_dir, tmp_path / "rate")
    report = pipeline.cmd_rate(rate_cfg, bundle_dir)
    # Attacks dominate the alarms and sit in severe bands.
    attack_alarms = [a for a in report.alarms if a.truth == "attack"]
    assert len(attack_alarms) >= 55
    assert sum(1 for a in attack_alarms if a.band <= 3) / len(attack_alarms) >= 0.8
    out = tmp_path / "rate" / "rating"
    for name in ("rated_alarms.csv", "band_histogram.csv", "alignments.jsonl",
                 "scores.csv", "band_mean_profiles.csv"):
        assert (out / name).exists()
    # Negatives pass through untouched: classified, never rated.
    rated_ids = {a.flow_id for a in report.alarms}
    for neg in report.negatives:
        assert neg.flow_id not in rated_ids


def test_rate_external_scores_all_negative_is_empty(corpus_dir, normal_only_dir, tmp_path):
    bundle_dir = pipeline.cmd_train(_cfg(normal_only_dir, tmp_path / "train"))
    records = pipeline.load_records(_cfg(corpus_dir, tmp_path / "x"))
    scores_csv = tmp_path / "scores.csv"
    lines = ["flow_id,score"] + [f"{r.flow_id},0.25" for r in records]
    scores_csv.write_text("\n".join(lines) + "\n")

    bundle = pipeline.load_bundle(bundle_dir)
    bundle.model = None
    cfg = _cfg(corpus_dir, tmp_path / "rate2",
               external_scores=scores_csv, external_threshold=5.0)
    bundle.config = echo_config(semantic_echo(cfg))
    report = pipeline.rate_records(bundle, records, cfg, detector.read_scores_csv(scores_csv))
    assert report.alarms == []
    assert len(report.scored) == len(records)


def _external(cfg, records, scores_csv, extra_rows=()):
    """cfg rating external scores at 0.5: 1.0 for every fourth record, else
    0.0, plus extra_rows."""
    rows = [f"{r.flow_id},{1.0 if i % 4 == 0 else 0.0}" for i, r in enumerate(records)]
    scores_csv.write_text("flow_id,score\n" + "\n".join([*rows, *extra_rows]) + "\n")
    return dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)


def _pipeline_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "alarmsift.pipeline"]


def test_external_scores_skip_unknown_ids(corpus_dir, tmp_path, caplog):
    cfg = _cfg(corpus_dir, tmp_path / "x")
    records = pipeline.load_records(cfg)
    ext = _external(cfg, records, tmp_path / "scores.csv", ["ghost-1,9.9"])
    scored = detector.import_scores(
        detector.read_scores_csv(ext.external_scores), threshold=0.5,
        known_ids=[r.flow_id for r in records[:10]],
    )
    assert len(scored) == 10
    bundle_dir = pipeline.cmd_train(ext)
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        pipeline.cmd_rate(ext, bundle_dir)
    assert _pipeline_warnings(caplog) == ["external scores: skipped 1 unknown flow id(s)"]


def test_rating_warns_about_flows_without_a_score(normal_only_dir, tmp_path, caplog):
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    records = pipeline.load_records(cfg)
    ext = _external(cfg, records, tmp_path / "scores.csv")
    bundle_dir = pipeline.cmd_train(ext)
    _external(cfg, records[3:], ext.external_scores)
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        report = pipeline.cmd_rate(ext, bundle_dir)
    assert len(report.scored) == len(records) - 3
    assert _pipeline_warnings(caplog) == [
        "external scores: 3 input flow(s) have no score; excluded",
    ]


def test_external_fp_pool_is_exactly_the_flagged_flows(normal_only_dir, tmp_path):
    # One validation flow has no score; the pool must still hold exactly the
    # flows scored above the threshold, never a neighbour of one.
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    records = pipeline.load_records(cfg)
    _, val, _ = pipeline.split_normals(records, cfg, cfg.seed)
    flagged = [r.flow_id for r in val[-3:]]
    scores_csv = tmp_path / "scores.csv"
    rows = [f"{r.flow_id},{1.0 if r.flow_id in flagged else 0.0}" for r in val[1:]]
    scores_csv.write_text("flow_id,score\n" + "\n".join(rows) + "\n")
    ext = dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)
    bundle, _ = pipeline.train_bundle(records, ext, ext.seed)
    assert bundle.fp_pool == tuple(flagged)


def test_baseline_fp_pool_is_the_validation_positives(normal_only_dir, tmp_path):
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    records = pipeline.load_records(cfg)
    _, val, _ = pipeline.split_normals(records, cfg, cfg.seed)
    bundle, _ = pipeline.train_bundle(records, cfg, cfg.seed)
    scored = detector.classify(
        bundle.model, np.stack([r.features for r in val]), [r.flow_id for r in val]
    )
    assert bundle.fp_pool == tuple(s.flow_id for s in scored if s.positive)
    assert bundle.fp_pool


@pytest.mark.parametrize("first_fragment_only", [False, True], ids=["as-mined", "underfit"])
def test_reference_is_the_mean_fp_rating_profile(
    normal_only_dir, tmp_path, monkeypatch, first_fragment_only
):
    # Nets mined from all of a log replay every fragment in it, so the
    # reference is the zero profile; nets mined from one fragment per state
    # misalign the others, so the mean is taken over nonzero profiles too.
    if first_fragment_only:
        discover = pipeline.discovery.discover
        monkeypatch.setattr(pipeline.discovery, "discover", lambda log: discover(log[:1]))
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    records = pipeline.load_records(cfg)
    bundle, _ = pipeline.train_bundle(records, cfg, cfg.seed)
    by_id = {r.flow_id: r for r in records}
    alarms, _, _ = pipeline._rate(bundle, [by_id[f] for f in bundle.fp_pool], cfg)
    labels = sorted({label for a in alarms for label in a.profile})
    assert bundle.reference == {
        label: sum(a.profile.get(label, 0.0) for a in alarms) / len(alarms) for label in labels
    }
    assert bool(bundle.reference) == first_fragment_only


def test_external_skipped_ids_warn_only_when_rating(normal_only_dir, tmp_path, caplog):
    # The scores file covers the whole corpus plus one stray id. Training
    # looks up only its validation flows, so only rating reports the stray.
    cfg = _cfg(normal_only_dir, tmp_path / "out")
    records = pipeline.load_records(cfg)
    scores_csv = tmp_path / "scores.csv"
    rows = [f"{r.flow_id},{1.0 if i % 4 == 0 else 0.0}" for i, r in enumerate(records)]
    scores_csv.write_text("flow_id,score\n" + "\n".join(rows + ["ghost-1,9.9"]) + "\n")
    ext = dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)
    with caplog.at_level(logging.WARNING):
        bundle_dir = pipeline.cmd_train(ext)
        assert "skipped" not in caplog.text
        pipeline.cmd_rate(ext, bundle_dir)
    assert "external scores: skipped 1 unknown flow id(s)" in caplog.text


@pytest.mark.parametrize("rate_threshold, code", [(0.5, 0), (0.95, 2)], ids=["equal", "differs"])
def test_an_external_bundle_rates_only_at_its_own_threshold(
    normal_only_dir, tmp_path, rate_threshold, code
):
    # Every score is 0.0 or 1.0, so both thresholds would flag the same flows.
    cfg = _cfg(normal_only_dir, tmp_path / "train")
    records = pipeline.load_records(cfg)
    scores_csv = tmp_path / "scores.csv"
    rows = [f"{r.flow_id},{1.0 if i % 4 == 0 else 0.0}" for i, r in enumerate(records)]
    scores_csv.write_text("flow_id,score\n" + "\n".join(rows) + "\n")
    ext = dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)
    trained, logs = pipeline.train_bundle(records, ext, ext.seed)
    bundle_dir = pipeline.save_bundle(trained, logs, tmp_path / "bundle")
    report = pipeline.rate_records(trained, records, ext, detector.read_scores_csv(scores_csv))
    pipeline.write_rate_report(report, tmp_path / "as_trained")
    argv = ["rate", "--corpus", str(normal_only_dir), "--bundle", str(bundle_dir),
            "--external-scores", str(scores_csv), "--external-threshold", str(rate_threshold),
            "--output-dir", str(tmp_path / "rate")]
    assert main(argv) == code
    if code == 0:
        assert _tree_bytes(tmp_path / "rate" / "rating") == _tree_bytes(tmp_path / "as_trained")
    else:
        assert not (tmp_path / "rate").exists()


@pytest.mark.parametrize("extra_rows, warnings", [
    ([], []),
    (["ghost-1,9.9"], ["external scores: skipped 1 unknown flow id(s)"]),
], ids=["corpus-exact", "one-stray-id"])
def test_evaluate_warns_once_about_ids_outside_the_corpus(
    corpus_dir, tmp_path, caplog, extra_rows, warnings
):
    # Each run rates only its test normals and the attacks; the train and
    # validation flows of a run are in the corpus, so they are not unknown.
    cfg = _cfg(corpus_dir, tmp_path / "eval", runs=2)
    records = pipeline.load_records(cfg)
    scores_csv = tmp_path / "scores.csv"
    rows = [f"{r.flow_id},{1.0 if i % 4 == 0 else 0.0}" for i, r in enumerate(records)]
    scores_csv.write_text("flow_id,score\n" + "\n".join(rows + extra_rows) + "\n")
    ext = dataclasses.replace(cfg, external_scores=scores_csv, external_threshold=0.5)
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        pipeline.evaluate(ext)
    assert [r.getMessage() for r in caplog.records if r.name == "alarmsift.pipeline"] == warnings


def test_evaluate_report_shape_and_determinism(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, tmp_path / "eval", runs=2)
    report = pipeline.evaluate(cfg)
    assert len(report.runs) == 2
    assert set(report.aggregate["recall"]) == {1, 2, 3, 4, 5}
    recalls = [report.aggregate["recall"][k]["mean"] for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
    for name in ("report.json", "metrics.csv", "fig_performance.csv"):
        assert (tmp_path / "eval" / name).exists()
    assert (tmp_path / "eval" / "runs" / "run_0" / "bundle" / "manifest.json").exists()

    cfg2 = _cfg(corpus_dir, tmp_path / "eval2", runs=2)
    pipeline.evaluate(cfg2)
    assert (tmp_path / "eval" / "report.json").read_bytes() == (
        tmp_path / "eval2" / "report.json"
    ).read_bytes()


def test_evaluate_searches_each_distinct_fragment_once(corpus_dir, tmp_path, monkeypatch):
    # Rating reuses the Aligner that profiled the reference, and the runs'
    # Aligners share one memo, so no (net, trace) is searched twice in one
    # evaluate, even when a later run mines a net an earlier run mined.
    searches = []
    mined = []
    search, mine = alignment.align, discovery.discover

    def counting(net, trace, *args):
        searches.append((net.key, tuple(trace)))
        return search(net, trace, *args)

    def recording(*args):
        net = mine(*args)
        mined.append(net.key)
        return net

    monkeypatch.setattr(alignment, "align", counting)
    monkeypatch.setattr(discovery, "discover", recording)
    pipeline.evaluate(_cfg(corpus_dir, tmp_path / "eval", runs=2, clusters=1))
    assert len(mined) == 2 and len(set(mined)) == 1  # both runs mine one net
    assert searches
    assert len(searches) == len(set(searches))


def test_evaluate_single_run_has_zero_std(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, tmp_path / "eval1", runs=1)
    report = pipeline.evaluate(cfg)
    assert report.aggregate["recall"][5]["std"] == 0.0


def test_evaluate_requires_labels(tmp_path):
    flows = synthetic.generate_flows("normal", 100, seed=41)
    for flow in flows[:5]:
        flow.truth = "unknown"
    synthetic.write_corpus(flows, tmp_path / "unlabeled")
    with pytest.raises(DataError, match="truth"):
        pipeline.evaluate(_cfg(tmp_path / "unlabeled", tmp_path / "evalz"))


def test_explain_selected_flow(corpus_dir, normal_only_dir, tmp_path):
    bundle_dir = pipeline.cmd_train(_cfg(normal_only_dir, tmp_path / "train"))
    records = pipeline.load_records(_cfg(corpus_dir, tmp_path / "x"))
    target = records[-1].flow_id  # a slowloris flow
    out = pipeline.explain_flows(_cfg(corpus_dir, tmp_path / "ex"), bundle_dir, [target])
    assert len(out) == 1
    assert out[0]["flow_id"] == target
    assert out[0]["fragments"]
    assert 0.0 <= out[0]["cos_sim"] <= 1.0
    with pytest.raises(DataError):
        pipeline.explain_flows(_cfg(corpus_dir, tmp_path / "ex2"), bundle_dir, ["nope"])


def test_explain_rates_a_positive_as_rate_does(corpus_dir, normal_only_dir, tmp_path):
    bundle_dir = pipeline.cmd_train(_cfg(normal_only_dir, tmp_path / "train"))
    cfg = _cfg(corpus_dir, tmp_path / "rate")
    pipeline.cmd_rate(cfg, bundle_dir)
    with (tmp_path / "rate" / "rating" / "rated_alarms.csv").open(newline="") as fh:
        rated = {row["flow_id"]: row for row in csv.DictReader(fh)}
    first_per_band = {row["band"]: flow_id for flow_id, row in reversed(rated.items())}
    explained = pipeline.explain_flows(cfg, bundle_dir, list(first_per_band.values()))
    assert len(explained) == len(first_per_band) >= 2
    for entry in explained:
        row = rated[entry["flow_id"]]
        assert (repr(entry["cos_sim"]), str(entry["band"])) == (row["cos_sim"], row["band"])


def _assert_fields_equal(trained, loaded):
    for field in dataclasses.fields(trained):
        a, b = getattr(trained, field.name), getattr(loaded, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        elif isinstance(a, alignment.Aligner):
            assert {s: n.key for s, n in a.nets.items()} == {s: n.key for s, n in b.nets.items()}
            assert a.budget == b.budget
        elif dataclasses.is_dataclass(a):
            _assert_fields_equal(a, b)
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("clusters", [1, 2])
def test_a_loaded_bundle_rates_and_explains_as_trained(corpus_dir, tmp_path, clusters, seed):
    # evaluate rates with the bundle it trained; rate and explain load it.
    cfg = _cfg(corpus_dir, tmp_path, clusters=clusters, seed=seed)
    records = pipeline.load_records(cfg)
    trained, logs = pipeline.train_bundle(records, cfg, seed)
    loaded = pipeline.load_bundle(pipeline.save_bundle(trained, logs, tmp_path / "bundle"))
    _assert_fields_equal(trained, loaded)
    assert pipeline._rate(loaded, records, cfg) == pipeline._rate(trained, records, cfg)


@pytest.fixture(scope="module")
def trained_bundle(normal_only_dir, tmp_path_factory):
    return pipeline.cmd_train(_cfg(normal_only_dir, tmp_path_factory.mktemp("trained")))


def test_rate_explores_each_net_once(corpus_dir, trained_bundle, tmp_path, monkeypatch):
    # load_bundle's soundness check builds each net's reachability graph,
    # and every alignment cmd_rate runs reads it.
    calls = []
    enabled_indexes = PetriNet.enabled_indexes
    monkeypatch.setattr(PetriNet, "enabled_indexes",
                        lambda net, m: calls.append(m) or enabled_indexes(net, m))
    report = pipeline.cmd_rate(_cfg(corpus_dir, tmp_path / "rate"), trained_bundle)
    explored = len(calls)
    assert report.alarms
    nets = [import_pnml(path, path.stem)
            for path in sorted((trained_bundle / "nets").glob("*.pnml"))]
    assert explored == sum(len(net.reachability().markings) for net in nets)


def _edit_json(name, edit):
    def corrupt(bundle: Path) -> None:
        payload = json.loads((bundle / name).read_text())
        (bundle / name).write_text(json.dumps(edit(payload)))
    return corrupt


def _truncate(name):
    def corrupt(bundle: Path) -> None:
        text = (bundle / name).read_text()
        (bundle / name).write_text(text[: len(text) // 2])
    return corrupt


def _append(name, text):
    def corrupt(bundle: Path) -> None:
        with (bundle / name).open("a") as fh:
            fh.write(text)
    return corrupt


def _without(payload, key):
    del payload[key]
    return payload


def _with(payload, **changes):
    payload.update(changes)
    return payload


def _net_file(net):
    def corrupt(bundle: Path) -> None:
        export_pnml(net, bundle / "nets" / "state_1.pnml")
    return corrupt


def _edit_net(edit):
    def corrupt(bundle: Path) -> None:
        path = bundle / "nets" / "state_1.pnml"
        tree = ET.parse(path)
        edit(tree.getroot().find("net"))
        tree.write(path)
    return corrupt


def _empty_text(element_path):
    def edit(net):
        net.find(element_path).text = None
    return edit


def _unknown_net_encoding(bundle: Path) -> None:
    path = bundle / "nets" / "state_1.pnml"
    data = path.read_bytes()
    assert data.startswith(b"<?xml version='1.0' encoding='utf-8'?>")
    path.write_bytes(data.replace(b"utf-8", b"utf-9", 1))


def _negative_initial_marking(net):
    net.find("page/place/initialMarking/text").text = "-1"


def _unwrap_page(net):
    page = net.find("page")
    net.remove(page)
    net.extend(page)


def _first_entry(key, value):
    # Sets entry [0][0] of a matrix such as centroids or basis.
    def edit(payload):
        payload[key][0][0] = value
        return payload
    return edit


def _active_std_entry(value):
    # Replaces the std of the first active feature.
    def edit(model):
        model["std"][model["mask"].index(True)] = value
        return model
    return edit


def _inactive_mask_entry(model):
    # Sets the first true mask entry false and drops the basis column of its
    # feature, so the shapes still agree and only std > 0 tells them apart.
    model["mask"][model["mask"].index(True)] = False
    model["basis"] = [row[1:] for row in model["basis"]]
    return model


def _active_mask_entry(value):
    # Replaces the first true mask entry, so the active count stays the same.
    def edit(model):
        model["mask"][model["mask"].index(True)] = value
        return model
    return edit


def _echo(edit):
    # Edits the manifest's config echo.
    def manifest(payload):
        payload["config"] = edit(payload["config"])
        return payload
    return manifest


def _external_echo(config):
    return _with(config, external=True, external_threshold=0.5)


# A workflow-shaped net that can deadlock: after b, the join d waits on p.
_DEADLOCKING_NET = PetriNet(
    ["i", "p", "q", "o"],
    [Transition("a", "a"), Transition("b", "b"), Transition("c", "c"), Transition("d", "d")],
    [("i", "a"), ("a", "p"), ("i", "b"), ("b", "q"), ("p", "c"), ("c", "o"),
     ("p", "d"), ("q", "d"), ("d", "o")],
    {"i": 1}, {"o": 1},
)


@pytest.mark.parametrize("corrupt, culprit", [
    (_edit_json("manifest.json", lambda m: _without(m, "states")), "manifest.json"),
    (_edit_json("manifest.json", lambda m: _with(m, threshold="0.5")), "manifest.json"),
    (_edit_json("manifest.json", lambda m: _with(m, fp_pool="nor-00001")), "manifest.json"),
    (_edit_json("manifest.json", lambda m: _with(m, states=[0])), "manifest.json"),
    (_edit_json("manifest.json", lambda m: [m]), "manifest.json"),
    (_truncate("manifest.json"), "manifest.json"),
    (_edit_json("extraction.json",
                lambda e: _with(e, centroids=[row[:-1] for row in e["centroids"]])),
     "extraction.json"),
    (_edit_json("extraction.json", lambda e: _without(e, "alphabet")), "extraction.json"),
    (_edit_json("extraction.json", lambda e: _with(e, alphabet=[1, *e["alphabet"][1:]])),
     "extraction.json"),
    (_edit_json("extraction.json",
                lambda e: _with(e, alphabet=[[e["alphabet"][0]], *e["alphabet"][1:]])),
     "extraction.json"),
    (_edit_json("extraction.json",
                lambda e: _with(e, alphabet=[e["alphabet"][1], *e["alphabet"][1:]])),
     "extraction.json"),
    (_edit_json("extraction.json", lambda e: _with(e, clusters=float(e["clusters"]))),
     "extraction.json"),
    (_edit_json("extraction.json", lambda e: _with(e, window=float(e["window"]))),
     "extraction.json"),
    (_truncate("detector.json"), "detector.json"),
    (_edit_json("detector.json", lambda d: _without(d, "basis")), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, mean=d["mean"][:-1])), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, std=d["std"][:-1])), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, mask=d["mask"][:-1])), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, basis=[r[:-1] for r in d["basis"]])),
     "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, std=[math.nan, *d["std"][1:]])),
     "detector.json"),
    (_edit_json("detector.json",
                lambda d: _with(d, basis=[[math.inf, *r[1:]] for r in d["basis"]])),
     "detector.json"),
    (_edit_json("detector.json", _active_std_entry(0.0)), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, threshold=str(d["threshold"]))),
     "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, threshold=math.inf)), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, kind="other-detector")), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, seed=str(d["seed"]))), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, percentile=True)), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, percentile=[d["percentile"]])),
     "detector.json"),
    (_edit_json("manifest.json", lambda m: _with(m, threshold=1e9)), "manifest.json"),
    (_net_file(PetriNet(["i", "o"], [Transition("a", "a")], [("i", "a")], {"i": 1}, {"o": 1})),
     "state_1.pnml"),
    (_net_file(_DEADLOCKING_NET), "state_1.pnml"),
    (_append("reference_profile.csv", "C_to_S_ACK;0.5\n"), "reference_profile.csv"),
    (_append("reference_profile.csv", "C_to_S_ACK,nan\n"), "reference_profile.csv"),
    (_edit_json("detector.json", lambda d: _with(d, components=float(d["components"]))),
     "detector.json"),
    (_edit_net(_empty_text("finalmarkings/marking/place/text")), "state_1.pnml"),
    (_edit_net(lambda net: net.remove(net.find("finalmarkings"))), "state_1.pnml"),
    (_edit_net(_unwrap_page), "state_1.pnml"),
    (_edit_net(_empty_text("page/transition/name/text")), "state_1.pnml"),
    (_edit_json("manifest.json", lambda m: _with(m, kind="x")), "manifest.json"),
    (_edit_json("extraction.json", _first_entry("centroids", -1)), "extraction.json"),
    (_edit_json("extraction.json", _first_entry("centroids", 1e308)), "extraction.json"),
    (_edit_json("manifest.json", lambda m: _with(m, config="x")), "manifest.json"),
    (_edit_json("manifest.json", _echo(lambda c: _with(c, window=c["window"] + 1))),
     "manifest.json"),
    (_edit_json("manifest.json", _echo(_external_echo)), "manifest.json"),
    (_edit_json("manifest.json", lambda m: _echo(_external_echo)(_with(m, kind="x"))),
     "manifest.json"),
    (_edit_json("detector.json", _active_mask_entry(1)), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, mean=[True, *d["mean"][1:]])),
     "detector.json"),
    (_edit_json("detector.json", _active_std_entry(True)), "detector.json"),
    (_edit_json("detector.json", _first_entry("basis", True)), "detector.json"),
    (_edit_json("extraction.json", _first_entry("centroids", True)), "extraction.json"),
    # "x" sorts after every event label, so only the label check refuses it.
    (_edit_json("extraction.json", lambda e: _with(e, alphabet=[*e["alphabet"][:-1], "x"])),
     "extraction.json"),
    (_edit_json("detector.json", lambda d: _with(d, mean=[0, *d["mean"][1:]])), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, extra=1)), "detector.json"),
    (_edit_json("extraction.json", lambda e: _with(e, clusters=math.inf)), "extraction.json"),
    (_edit_json("detector.json", lambda d: _with(d, components=math.inf)), "detector.json"),
    (_append("reference_profile.csv", "x,0.5\n"), "reference_profile.csv"),
    (_edit_json("detector.json", _inactive_mask_entry), "detector.json"),
    (_edit_json("detector.json", lambda d: _with(d, percentile=0.5)), "manifest.json"),
    (_edit_net(_negative_initial_marking), "state_1.pnml"),
    (_unknown_net_encoding, "state_1.pnml"),
], ids=[
    "no-states", "string-threshold", "string-fp-pool", "one-state-of-two", "not-an-object",
    "truncated-manifest", "short-centroids", "no-alphabet", "int-in-alphabet",
    "list-in-alphabet", "repeated-alphabet-entry", "float-clusters", "float-window",
    "truncated-detector", "no-basis", "short-mean", "short-std", "short-mask",
    "basis-one-column-short", "nan-std", "inf-basis", "zero-active-std",
    "string-detector-threshold", "inf-detector-threshold", "unknown-detector-kind",
    "string-detector-seed", "bool-detector-percentile", "list-detector-percentile",
    "manifest-threshold-differs", "not-a-workflow-net", "unsound-net", "profile-row-without-comma",
    "nan-profile-count", "float-detector-components", "empty-final-marking-text",
    "no-finalmarkings", "no-page", "emptied-transition-name", "unknown-manifest-kind",
    "negative-centroid", "centroid-beyond-window", "config-not-an-object",
    "config-window-differs", "external-config-on-baseline", "unknown-kind-external-config",
    "int-mask-entry", "bool-mean-entry", "bool-std-entry", "bool-basis-entry",
    "bool-centroid-entry", "non-label-alphabet-entry", "int-mean-entry", "extra-detector-key",
    "infinite-clusters", "infinite-components", "unknown-reference-label",
    "inactive-mask-entry-on-positive-std", "detector-percentile-differs", "negative-token-count",
    "unknown-net-encoding",
])
def test_corrupt_bundle_is_a_schema_error(trained_bundle, tmp_path, corrupt, culprit):
    bundle = tmp_path / "bundle"
    shutil.copytree(trained_bundle, bundle)
    corrupt(bundle)
    with pytest.raises(SchemaError, match=re.escape(culprit)):
        pipeline.load_bundle(bundle)
    assert main(["rate", "--corpus", str(tmp_path / "unused"), "--bundle", str(bundle),
                 "--output-dir", str(tmp_path / "out")]) == 3


def test_rate_refuses_a_model_whose_scores_overflow(corpus_dir, trained_bundle, tmp_path, caplog):
    bundle = tmp_path / "bundle"
    shutil.copytree(trained_bundle, bundle)
    _edit_json("detector.json", _first_entry("basis", 1e308))(bundle)
    assert main(["rate", "--corpus", str(corpus_dir), "--bundle", str(bundle),
                 "--output-dir", str(tmp_path / "out")]) == 3
    assert "detector scores are not finite" in caplog.text


def test_rate_leaves_out_only_a_flow_whose_score_overflows(trained_bundle, tmp_path, caplog):
    # A bytes_total of 1e308 is finite, but the flow's squared residual
    # overflows; the other nine flows are still scored and rated.
    corpus = tmp_path / "corpus"
    flows = synthetic.generate_flows("normal", 6, seed=3)
    synthetic.write_corpus(flows + synthetic.generate_flows("slowloris", 4, seed=4), corpus)
    lines = (corpus / "flows.csv").read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[lines[1].split(",").index("bytes_total")] = "1e308"
    lines[2] = ",".join(fields)
    (corpus / "flows.csv").write_text("".join(lines))
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        assert main(["rate", "--corpus", str(corpus), "--bundle", str(trained_bundle),
                     "--output-dir", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "rating" / "scores.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[2:]  # after the schema line and the header
    assert len(rows) == 9
    assert _pipeline_warnings(caplog) == [
        "1 input flow(s) have a non-finite detector score; excluded",
    ]


@pytest.mark.parametrize("cfg", [
    RunConfig(), RunConfig(external_scores=Path("s.csv"), external_threshold=0.5, clusters=3),
], ids=["baseline", "external"])
def test_only_what_semantic_echo_writes_is_an_echo(cfg):
    def written_back(value) -> bool:
        try:
            built = echo_config(value)
        except (ConfigError, KeyError, TypeError, ValueError):
            return False
        return json.dumps(semantic_echo(built), sort_keys=True) == json.dumps(
            value, sort_keys=True
        )

    echo = json.loads(json.dumps(semantic_echo(cfg)))
    assert written_back(echo)
    for changed in ({**echo, "window": 3.0}, {**echo, "output_dir": "o"}, {**echo, "external": 1},
                    {k: v for k, v in echo.items() if k != "seed"}, [echo]):
        assert not written_back(changed)


def test_seed_derivation_stable():
    assert derive_seed(7, "run-0") == derive_seed(7, "run-0")
    assert derive_seed(7, "run-0") != derive_seed(7, "run-1")
    assert derive_seed(8, "run-0") != derive_seed(7, "run-0")


# --- config ---------------------------------------------------------------

def test_config_precedence_and_env(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 3, "runs": 4, "output_dir": "from_file"}))
    cfg = load_config(cfg_file, {"runs": 9})
    assert cfg.seed == 3 and cfg.runs == 9
    assert cfg.output_dir == Path("from_file")
    monkeypatch.setenv("ALARMSIFT_OUTPUT_DIR", str(tmp_path / "env_out"))
    cfg = load_config(cfg_file, {})
    assert cfg.output_dir == tmp_path / "env_out"
    cfg = load_config(cfg_file, {"output_dir": Path("from_flag")})
    assert cfg.output_dir == Path("from_flag")


def test_run_count_is_bounded(corpus_dir, tmp_path):
    # evaluate writes a run directory per run; it would write these until
    # stopped.
    assert RunConfig(runs=MAX_RUNS).runs == MAX_RUNS
    cfg_file = tmp_path / "cfg.json"
    for runs in (MAX_RUNS + 1, 1e308):
        cfg_file.write_text(json.dumps({"runs": runs}))
        with pytest.raises(ConfigError, match="run count"):
            load_config(cfg_file)
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg_file), "--corpus", str(corpus_dir),
            "--output-dir", str(out)]
    assert main(argv) == 2
    assert not (out / "runs").exists()


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps([["runs", 2]]))
    with pytest.raises(ConfigError, match="object"):
        load_config(bad)
    with pytest.raises(ConfigError):
        RunConfig(percentile=1.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(train_fraction=0.8, validation_fraction=0.4).validate()
    with pytest.raises(ConfigError):
        RunConfig(runs=0).validate()


# Every field set to each JSON value of another shape, and values that a
# RunConfig built in code once kept although a file refuses them.
_PROBES = [{f.name: value} for f in dataclasses.fields(RunConfig)
           for value in ["x", [], {}, -1, 0, 1.5, True, [1], {"a": 1}]]
_ONCE_KEPT = [
    {"runs": 2.5}, {"clusters": 1.5}, {"seed": 1.5}, {"window": True},
    {"train_fraction": math.nan}, {"validation_fraction": math.nan},
    {"flow_timeout": math.nan}, {"percentile": "0.9"},
    {"external_threshold": math.nan, "external_scores": "s.csv"},
]


@pytest.mark.parametrize(
    "values", _PROBES + [v for v in _ONCE_KEPT if v not in _PROBES],
    ids=lambda values: "-".join(map(str, next(iter(values.items())))),
)
def test_validate_refuses_what_load_config_refuses(tmp_path, monkeypatch, values):
    # A config built in code is refused exactly when the same values in a
    # file are, with the same message, and otherwise equals the file's.
    monkeypatch.delenv("ALARMSIFT_OUTPUT_DIR", raising=False)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(values))
    try:
        from_file = load_config(cfg_file)
    except ConfigError as refused:
        with pytest.raises(ConfigError) as built:
            RunConfig(**values).validate()
        assert str(built.value) == str(refused)
        if values in _ONCE_KEPT:
            assert str(refused).startswith(f"config key {next(iter(values))!r}")
        return
    built = RunConfig(**values).validate()
    assert built == from_file
    assert all(getattr(built, key) == _FIELDS[key](value) for key, value in values.items())


def test_built_config_converts_what_only_code_can_hold(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="config key 'server_ports'"):
        RunConfig(server_ports=frozenset({80.5, True}))
    assert RunConfig(captures=("a.pcap",)) == RunConfig(captures=(CaptureSpec(Path("a.pcap")),))
    assert RunConfig(captures=(CaptureSpec("a.pcap"),)).captures[0].path == Path("a.pcap")
    # An int is a valid number, and manifests echo it as the file's float.
    monkeypatch.delenv("ALARMSIFT_OUTPUT_DIR", raising=False)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"flow_timeout": 30, "percentile": 1}))
    built = semantic_echo(RunConfig(flow_timeout=30, percentile=1))
    assert json.dumps(built) == json.dumps(semantic_echo(load_config(cfg_file)))


def test_every_common_option_names_a_run_config_field():
    # _config_from hands the parsed options to load_config, which ignores
    # any dest that names no RunConfig field.
    parser = argparse.ArgumentParser()
    _add_common(parser)
    dests = {action.dest for action in parser._actions} - {"help", "config"}
    assert dests <= {f.name for f in dataclasses.fields(RunConfig)}


def test_config_file_sets_every_field(tmp_path, monkeypatch):
    monkeypatch.delenv("ALARMSIFT_OUTPUT_DIR", raising=False)
    payload = {
        "output_dir": "o", "corpus": "c",
        "captures": ["a.pcap", {"path": "b.pcap", "truth": "attack"}],
        "server_ports": [80, 443], "flow_timeout": 30.0, "components": 3,
        "percentile": 0.9, "external_scores": "s.csv", "external_threshold": 0.5,
        "clusters": 3, "window": 4, "band_boundaries": [0.1, 0.2, 0.3, 0.4],
        "train_fraction": 0.5, "validation_fraction": 0.3, "runs": 2, "seed": 11,
        "alignment_budget": 1000,
    }
    assert set(payload) == {f.name for f in dataclasses.fields(RunConfig)}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    cfg = load_config(cfg_file)
    assert cfg == RunConfig(
        output_dir=Path("o"), corpus=Path("c"),
        captures=(CaptureSpec(Path("a.pcap")), CaptureSpec(Path("b.pcap"), "attack")),
        server_ports=frozenset({80, 443}), flow_timeout=30.0, components=3,
        percentile=0.9, external_scores=Path("s.csv"), external_threshold=0.5,
        clusters=3, window=4, band_boundaries=(0.1, 0.2, 0.3, 0.4),
        train_fraction=0.5, validation_fraction=0.3, runs=2, seed=11,
        alignment_budget=1000,
    )
    # Manifests and reports record exactly these parameters.
    assert semantic_echo(cfg) == {
        "flow_timeout": 30.0, "components": 3, "percentile": 0.9, "clusters": 3,
        "window": 4, "band_boundaries": [0.1, 0.2, 0.3, 0.4], "train_fraction": 0.5,
        "validation_fraction": 0.3, "runs": 2, "seed": 11, "external": True,
        "external_threshold": 0.5,
    }


def test_config_null_means_default(tmp_path, monkeypatch):
    monkeypatch.delenv("ALARMSIFT_OUTPUT_DIR", raising=False)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({f.name: None for f in dataclasses.fields(RunConfig)}))
    assert load_config(cfg_file) == RunConfig()


@pytest.mark.parametrize("key, value", [
    ("runs", "abc"), ("seed", [1]), ("captures", [{"truth": "attack"}]),
    ("server_ports", ["http"]), ("band_boundaries", 0.5),
    ("runs", 2.7), ("runs", True), ("captures", "ab.pcap"), ("server_ports", "80"),
    ("percentile", True), ("flow_timeout", "30"), ("band_boundaries", ["0.2", 0.4, 0.6, 0.8]),
    ("flow_timeout", float("nan")), ("external_threshold", float("nan")),
    ("band_boundaries", [0.2, 0.4, 0.6, float("inf")]),
    ("captures", [{"path": "a.pcap", "truth": "atack"}]),
    ("captures", [7]), ("captures", ["a.pcap", 1]),
    ("captures", [{"path": "a.pcap", "truht": "attack"}]),
    ("captures", [{"path": "a.pcap", "truth": ""}]),
    ("alignment_budget", 0), ("alignment_budget", -3), ("server_ports", [70000, -1]),
    ("external_threshold", 0.5),
])
def test_config_unconvertible_value_names_key(tmp_path, key, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(cfg_file)
    assert main(["train", "--config", str(cfg_file), "--output-dir", str(tmp_path / "o")]) == 2


def test_captures_without_a_flow_are_refused_with_counts(tmp_path):
    # Six port-80 segments that a server_ports filter of 8080 drops, and
    # one UDP datagram.
    frames = handshake_fin_frames() + [(1.02, ipv4_udp_frame("10.0.0.1", "10.0.0.2", 53, 53))]
    (tmp_path / "web.pcap").write_bytes(pcap_bytes(frames))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "captures": [str(tmp_path / "web.pcap")], "server_ports": [8080],
    }))
    message = "no flow was assembled from the captures: 6 packet(s) filtered by server_ports, 1 "
    with pytest.raises(DataError, match=re.escape(message)):
        pipeline.load_records(load_config(cfg_file))
    assert main(["train", "--config", str(cfg_file), "--output-dir", str(tmp_path / "o")]) == 3


def test_an_empty_corpus_is_refused(trained_bundle, tmp_path):
    synthetic.write_corpus([], tmp_path / "empty")
    with pytest.raises(DataError, match=re.escape(f"corpus {tmp_path / 'empty'} holds no flow")):
        pipeline.load_records(_cfg(tmp_path / "empty", tmp_path / "o"))
    common = ["--corpus", str(tmp_path / "empty"), "--bundle", str(trained_bundle)]
    assert main(["rate", *common, "--output-dir", str(tmp_path / "rate")]) == 3
    assert main(["explain", *common, "--out", str(tmp_path / "explain.json")]) == 3


def test_corpus_and_captures_together_are_a_config_error(normal_only_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "corpus": str(normal_only_dir), "captures": [str(tmp_path / "nonexistent.pcap")],
    }))
    with pytest.raises(ConfigError, match="set either corpus or captures, not both"):
        pipeline.load_records(load_config(cfg_file))
    assert main(["train", "--config", str(cfg_file), "--output-dir", str(tmp_path / "o")]) == 2


def test_an_external_bundle_under_a_baseline_config_is_a_config_error(
    corpus_dir, normal_only_dir, tmp_path
):
    cfg = _cfg(normal_only_dir, tmp_path / "train")
    bundle_dir = pipeline.cmd_train(_external(cfg, pipeline.load_records(cfg), tmp_path / "s.csv"))
    with pytest.raises(ConfigError, match=re.escape("bundle's external_threshold is 0.5")):
        pipeline.cmd_rate(_cfg(corpus_dir, tmp_path / "rate"), bundle_dir)
    # The check comes before any input is read: a missing corpus is not reached.
    for corpus in (corpus_dir, tmp_path / "missing"):
        assert main(["rate", "--corpus", str(corpus), "--bundle", str(bundle_dir),
                     "--output-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_each_command_reads_the_score_file_once(corpus_dir, tmp_path, monkeypatch):
    cfg = _cfg(corpus_dir, tmp_path / "out", runs=2)
    ext = _external(cfg, pipeline.load_records(cfg), tmp_path / "scores.csv", ["ghost-1,9.9"])
    reads = []
    read_scores_csv = detector.read_scores_csv
    monkeypatch.setattr(
        detector, "read_scores_csv", lambda path: reads.append(path) or read_scores_csv(path)
    )
    counts = {}
    for command, run in (
        ("train", lambda: pipeline.cmd_train(ext)),
        ("rate", lambda: pipeline.cmd_rate(ext, tmp_path / "out" / "bundle")),
        ("evaluate", lambda: pipeline.evaluate(ext)),
    ):
        reads.clear()
        run()
        counts[command] = len(reads)
    assert counts == {"train": 1, "rate": 1, "evaluate": 1}


def test_external_scores_for_a_baseline_bundle_are_a_config_error(
    corpus_dir, trained_bundle, tmp_path
):
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("flow_id,score\n")
    cfg = _cfg(corpus_dir, tmp_path / "rate", external_scores=scores_csv, external_threshold=0.5)
    with pytest.raises(ConfigError, match="bundle's external_threshold is None"):
        pipeline.cmd_rate(cfg, trained_bundle)
    assert main(["rate", "--corpus", str(corpus_dir), "--bundle", str(trained_bundle),
                 "--external-scores", str(scores_csv), "--external-threshold", "0.5",
                 "--output-dir", str(tmp_path / "o")]) == 2


def _captures_sharing_a_stem(tmp_path, corpus):
    specs = []
    for sub, truth in (("a", "normal"), ("b", "attack")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "cap.pcap").write_bytes(pcap_bytes(handshake_fin_frames()))
        specs.append(CaptureSpec(tmp_path / sub / "cap.pcap", truth))
    cfg = RunConfig(output_dir=tmp_path / "out", captures=tuple(specs)).validate()
    pattern = re.escape(f"cap-000000 occurs in captures {specs[0].path} and {specs[1].path}")
    return (lambda: pipeline.load_records(cfg)), DataError, pattern


def test_a_capture_corrupt_mid_file_is_refused_alone(tmp_path, caplog):
    good, bad, worse = (tmp_path / f"{name}.pcap" for name in ("good", "bad", "worse"))
    good.write_bytes(pcap_bytes(handshake_fin_frames()))
    absurd_record_header = struct.pack("<IIII", 1, 0, 1 << 30, 64)
    for path in (bad, worse):
        path.write_bytes(pcap_bytes(handshake_fin_frames()) + absurd_record_header)

    def load(*paths):
        specs = tuple(CaptureSpec(p, "normal") for p in paths)
        cfg = RunConfig(output_dir=tmp_path / "out", captures=specs).validate()
        return pipeline.load_records(cfg)

    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        assert [r.flow_id for r in load(good, bad)] == ["good-000000"]
    assert [r.getMessage() for r in caplog.records if r.name == "alarmsift.pipeline"] == [
        f"{bad}: corrupt record header after 6 record(s); refusing it",
        "refused 1 of 2 capture(s)",
    ]
    with pytest.raises(DataError, match=re.escape("all 2 capture(s) are unreadable or malformed")):
        load(bad, worse)


def test_truncated_trailing_records_are_counted_in_a_warning(tmp_path, caplog):
    good, cut = tmp_path / "good.pcap", tmp_path / "cut.pcap"
    good.write_bytes(pcap_bytes(handshake_fin_frames()))
    cut.write_bytes(pcap_bytes(handshake_fin_frames()) + struct.pack("<IIII", 1, 0, 64, 64))
    specs = tuple(CaptureSpec(p, "normal") for p in (good, cut))
    cfg = RunConfig(output_dir=tmp_path / "out", captures=specs).validate()
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        records = pipeline.load_records(cfg)
    assert [r.flow_id for r in records] == ["good-000000", "cut-000000"]
    assert _pipeline_warnings(caplog) == [f"{cut}: dropped 1 truncated trailing record(s)"]


def test_a_flow_whose_timestamps_go_backwards_is_left_out_and_counted(tmp_path, caplog):
    # Its first record stamped 5 s late, the flow's duration and gaps would
    # read negative. The flow beside it loads.
    late = handshake_fin_frames()
    late[0] = (late[0][0] + 5.0, late[0][1])
    capture = tmp_path / "mixed.pcap"
    capture.write_bytes(pcap_bytes(handshake_fin_frames(cport=40000) + late))
    specs = (CaptureSpec(capture, "normal"),)
    cfg = RunConfig(output_dir=tmp_path / "out", captures=specs).validate()
    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        records = pipeline.load_records(cfg)
    assert [r.flow_id for r in records] == ["mixed-000000"]
    assert (records[0].features >= 0).all()
    assert _pipeline_warnings(caplog) == [
        f"{capture}: left out 1 flow(s) whose packet timestamps go backwards"
    ]


def test_a_capture_with_a_bad_global_header_is_refused_alone(tmp_path, caplog):
    # A bad magic and a Linux cooked capture (link type 113) fail in the
    # global header, before any record is read.
    good, zeros, cooked = (tmp_path / f"{name}.pcap" for name in ("good", "zeros", "cooked"))
    good.write_bytes(pcap_bytes(handshake_fin_frames()))
    zeros.write_bytes(bytes(40))
    cooked.write_bytes(pcap_bytes(handshake_fin_frames(), linktype=113))

    def load(*paths):
        specs = tuple(CaptureSpec(p, "normal") for p in paths)
        cfg = RunConfig(output_dir=tmp_path / "out", captures=specs).validate()
        return pipeline.load_records(cfg)

    with caplog.at_level(logging.WARNING, logger="alarmsift.pipeline"):
        assert [r.flow_id for r in load(zeros, good, cooked)] == ["good-000000"]
    messages = [r.getMessage() for r in caplog.records if r.name == "alarmsift.pipeline"]
    assert messages[0] == f"{zeros}: unknown PCAP magic 00000000; refusing it"
    assert messages[1].startswith(f"{cooked}: unsupported link type 113;")
    assert messages[1].endswith("; refusing it")
    assert messages[2:] == ["refused 2 of 3 capture(s)"]
    with pytest.raises(DataError, match=re.escape("all 2 capture(s) are unreadable or malformed")):
        load(zeros, cooked)


def _corpus_repeating_a_row(name, index):
    def build(tmp_path, corpus):
        out = tmp_path / "corpus"
        shutil.copytree(corpus, out)
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines + [lines[index]]))
        pattern = re.escape(f"{out / name}: line {len(lines) + 1}: repeated flow id")
        return (lambda: pipeline.load_records(_cfg(out, tmp_path / "out"))), SchemaError, pattern
    return build


def _scores_repeating_an_id(tmp_path, corpus):
    scores = tmp_path / "scores.csv"
    scores.write_text("flow_id,score\nf1,3\nf2,1\nf1,0\n")
    pattern = re.escape(f"{scores}: line 4: repeated flow id 'f1'")
    return (lambda: detector.read_scores_csv(scores)), SchemaError, pattern


@pytest.mark.parametrize("build", [
    _captures_sharing_a_stem,
    _corpus_repeating_a_row("events.jsonl", 1),
    _corpus_repeating_a_row("flows.csv", 2),
    _scores_repeating_an_id,
], ids=["capture-stems", "events-row", "flows-row", "scores-row"])
def test_repeated_flow_ids_are_rejected(corpus_dir, tmp_path, build):
    # Rating walks records and external scores join on flow ids, so a
    # repeated id would rate or score one flow with another's data.
    load, error, pattern = build(tmp_path, corpus_dir)
    with pytest.raises(error, match=pattern):
        load()


def test_flows_csv_cut_short_is_rejected(tmp_path):
    # A flows CSV cut at a row boundary must not load as a smaller corpus.
    corpus = tmp_path / "corpus"
    synthetic.write_corpus(synthetic.generate_flows("normal", 70, seed=41), corpus)
    lines = (corpus / "flows.csv").read_text().splitlines(keepends=True)
    first_cut = lines[-10].split(",", 1)[0]
    (corpus / "flows.csv").write_text("".join(lines[:-10]))
    pattern = re.escape(f"{corpus / 'events.jsonl'}: 10 flow id(s) missing from ") + (
        f".*first {first_cut!r}"
    )
    with pytest.raises(SchemaError, match=pattern):
        pipeline.load_records(_cfg(corpus, tmp_path / "out"))
    assert main(["train", "--corpus", str(corpus), "--output-dir", str(tmp_path / "o")]) == 3


# --- CLI ------------------------------------------------------------------

def test_cli_gen_train_rate_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    rc = main(["gen-synthetic", "--normal", "80", "--slowloris", "30",
               "--seed", "5", "--out", str(corpus)])
    assert rc == 0
    rc = main(["train", "--corpus", str(corpus), "--output-dir", str(tmp_path / "out"),
               "--seed", "11"])
    assert rc == 0
    rc = main(["rate", "--corpus", str(corpus), "--output-dir", str(tmp_path / "rated"),
               "--bundle", str(tmp_path / "out" / "bundle")])
    assert rc == 0
    assert (tmp_path / "rated" / "rating" / "rated_alarms.csv").exists()


def test_cli_exit_codes(tmp_path):
    # config error: bad percentile
    rc = main(["train", "--corpus", str(tmp_path / "missing"), "--percentile", "2.0"])
    assert rc == 2
    # data error: percentile 1.0 -> empty FP pool
    corpus = tmp_path / "c2"
    main(["gen-synthetic", "--normal", "60", "--seed", "3", "--out", str(corpus)])
    rc = main(["train", "--corpus", str(corpus), "--percentile", "1.0",
               "--output-dir", str(tmp_path / "o2")])
    assert rc == 3
    # config error: no flows requested
    rc = main(["gen-synthetic", "--out", str(tmp_path / "c3")])
    assert rc == 2
    # config error: band boundaries out of order in the config file
    cfg_file = tmp_path / "bands.json"
    cfg_file.write_text(json.dumps({"band_boundaries": [0.5, 0.25, 0.75, 0.99]}))
    rc = main(["train", "--config", str(cfg_file), "--corpus", str(corpus),
               "--output-dir", str(tmp_path / "o3")])
    assert rc == 2
    # config error: a config path that cannot be read as a file
    rc = main(["train", "--config", str(tmp_path), "--output-dir", str(tmp_path / "o3")])
    assert rc == 2
    # config error: a NaN threshold would make every external score negative
    rc = main(["train", "--corpus", str(corpus), "--external-scores", str(tmp_path / "s.csv"),
               "--external-threshold", "nan", "--output-dir", str(tmp_path / "o4")])
    assert rc == 2
    # data error: a corpus, a score file or a capture that does not exist
    rc = main(["train", "--corpus", str(tmp_path / "nonexist"),
               "--output-dir", str(tmp_path / "o5")])
    assert rc == 3
    rc = main(["train", "--corpus", str(corpus), "--external-scores", str(tmp_path / "nope.csv"),
               "--external-threshold", "0.5", "--output-dir", str(tmp_path / "o6")])
    assert rc == 3
    cfg_file = tmp_path / "capture.json"
    cfg_file.write_text(json.dumps({"captures": [str(tmp_path / "nope.pcap")]}))
    rc = main(["train", "--config", str(cfg_file), "--output-dir", str(tmp_path / "o7")])
    assert rc == 3
    # data error: an output that cannot be written (a file where a directory
    # must go, a directory that does not exist)
    not_a_dir = tmp_path / "plain_file"
    not_a_dir.write_text("")
    rc = main(["train", "--corpus", str(corpus), "--output-dir", str(not_a_dir)])
    assert rc == 3
    assert main(["train", "--corpus", str(corpus), "--output-dir", str(tmp_path / "o8")]) == 0
    rc = main(["explain", "--corpus", str(corpus), "--bundle", str(tmp_path / "o8" / "bundle"),
               "--out", str(tmp_path / "nodir" / "x.json")])
    assert rc == 3


def test_cli_budget_exceeded_exit_code(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-synthetic", "--normal", "80", "--slowloris", "10",
          "--seed", "5", "--out", str(corpus)])
    assert main(["train", "--corpus", str(corpus),
                 "--output-dir", str(tmp_path / "out"), "--seed", "11"]) == 0
    cfg_file = tmp_path / "tiny_budget.json"
    cfg_file.write_text(json.dumps({"alignment_budget": 1}))
    rc = main(["rate", "--config", str(cfg_file), "--corpus", str(corpus),
               "--output-dir", str(tmp_path / "rated"),
               "--bundle", str(tmp_path / "out" / "bundle")])
    assert rc == 4


def test_cli_explain_writes_json(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-synthetic", "--normal", "80", "--seed", "5", "--out", str(corpus)])
    main(["train", "--corpus", str(corpus), "--output-dir", str(tmp_path / "out"), "--seed", "2"])
    out_json = tmp_path / "explained.json"
    rc = main(["explain", "--corpus", str(corpus),
               "--bundle", str(tmp_path / "out" / "bundle"),
               "--flow-id", "nor-00000", "--out", str(out_json)])
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload[0]["flow_id"] == "nor-00000"
