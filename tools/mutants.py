"""Mutation catalogue: one-line faults that a named test must catch.

    python3 tools/mutants.py

Each mutant replaces the exact string `old` with `new` in one file of a
fresh temporary copy of src/, tests/, pyproject.toml and perfbench/*.py,
then runs its one test there with pytest. The mutant is caught when that
test fails. The script exits 1 naming every mutant that survived (or whose
`old` string no longer occurs exactly once), and 0 when all were caught.
tests/test_mutants.py checks the catalogue itself in tier-1, without
running the mutants. Stdlib only.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # pytest node id, relative to the repository root


MUTANTS = (
    Mutant(
        "flow-timeout-inclusive", "src/alarmsift/flowmeter.py",
        "pkt.timestamp - builder.packets[-1].timestamp > timeout",
        "pkt.timestamp - builder.packets[-1].timestamp >= timeout",
        "tests/test_flowmeter.py::test_idle_gap_must_exceed_the_timeout_to_split",
    ),
    Mutant(
        "caplen-limit-exclusive", "src/alarmsift/pcap.py",
        "if incl_len > _SANE_CAPLEN:",
        "if incl_len >= _SANE_CAPLEN:",
        "tests/test_pcap.py::test_record_length_limit_is_inclusive",
    ),
    Mutant(
        "no-centroid-collapse-check", "src/alarmsift/events.py",
        "if len(set(map(tuple, cents.tolist()))) < clusters:",
        "if False:",
        "tests/test_events.py::test_fit_states_refuses_collapsed_centroids",
    ),
    Mutant(
        "band-upper-inclusive", "src/alarmsift/rating.py",
        "if score < upper:",
        "if score <= upper:",
        "tests/test_rating.py::test_band_boundaries",
    ),
    Mutant(
        "nearest-rank-off-by-one", "src/alarmsift/detector.py",
        "threshold = float(scores[rank - 1])",
        "threshold = float(scores[rank - 2])",
        "tests/test_detector.py::test_calibrate_threshold_on_model_scores",
    ),
    Mutant(
        "close-after-one-fin", "src/alarmsift/flowmeter.py",
        "both_fins_before = len(self.fin_sides) >= 2",
        "both_fins_before = len(self.fin_sides) >= 1",
        "tests/test_acceptance.py::test_criterion_7_flow_metering_exact",
    ),
    Mutant(
        "score-tie-positive", "src/alarmsift/detector.py",
        "positive=score > threshold",
        "positive=score >= threshold",
        "tests/test_detector.py::test_classify_tie_is_negative",
    ),
    Mutant(
        "negatives-selected", "src/alarmsift/pipeline.py",
        "flagged = {s.flow_id for s in scored if s.positive}",
        "flagged = {s.flow_id for s in scored if not s.positive}",
        "tests/test_pipeline_cli.py::test_baseline_fp_pool_is_the_validation_positives",
    ),
    Mutant(
        "vlan-tag-half-read", "src/alarmsift/pcap.py",
        "if end - offset < 4:",
        "if end - offset < 2:",
        "tests/test_pcap.py::test_every_cut_and_overwritten_byte_ingests_as_the_reference[ipv4-vlan]",
    ),
    Mutant(
        "ipv6-extension-headers-in-payload", "src/alarmsift/pcap.py",
        "max(payload_len - (offset - ip - 40), 0)",
        "max(payload_len, 0)",
        "tests/test_pcap.py::test_ipv6_tcp_behind_authentication_header",
    ),
    Mutant(
        "no-tcp-data-offset-check", "src/alarmsift/pcap.py",
        "    if data_offset < 20:\n        return None\n",
        "",
        "tests/test_pcap.py::test_every_cut_and_overwritten_byte_ingests_as_the_reference[ipv4-vlan]",
    ),
    Mutant(
        "bad-capture-aborts-batch", "src/alarmsift/pipeline.py",
        "except PcapFormatError as exc:",
        "except SchemaError as exc:",
        "tests/test_pipeline_cli.py::test_a_capture_with_a_bad_global_header_is_refused_alone",
    ),
    Mutant(
        "no-alignment-budget", "src/alarmsift/alignment.py",
        "if expansions > budget:",
        "if False:",
        "tests/test_alignment.py::test_budget_error_carries_lower_bound",
    ),
    Mutant(
        "memo-ignores-budget", "src/alarmsift/alignment.py",
        "(net.key, budget)",
        "(net.key, 0)",
        "tests/test_alignment.py::test_shared_memo_shares_equal_nets_and_keeps_budgets_apart",
    ),
    Mutant(
        "built-config-unconverted", "src/alarmsift/config.py",
        "object.__setattr__(self, f.name, _FIELDS[f.name](value))",
        "_FIELDS[f.name](value)",
        "tests/test_pipeline_cli.py::test_validate_refuses_what_load_config_refuses",
    ),
    Mutant(
        "no-centroid-bound", "src/alarmsift/events.py",
        "if ((params.centroids < 0) | (params.centroids > params.window)).any():",
        "if False:",
        "tests/test_pipeline_cli.py::test_corrupt_bundle_is_a_schema_error[centroid-beyond-window]",
    ),
    Mutant(
        "non-finite-scores-kept", "src/alarmsift/detector.py",
        "if not np.isfinite(scores).all():",
        "if False:",
        "tests/test_pipeline_cli.py::test_rate_refuses_a_model_whose_scores_overflow",
    ),
    Mutant(
        "net-declaration-order", "src/alarmsift/petri.py",
        "tuple(sorted(transitions, key=lambda t: t.tid))",
        "tuple(transitions)",
        "tests/test_alignment.py::test_a_net_aligns_alike_however_declared_or_loaded",
    ),
    Mutant(
        "round-trip-unchecked", "src/alarmsift/artifacts.py",
        "if json.dumps(written, sort_keys=True) != json.dumps(raw, sort_keys=True):",
        "if False:",
        "tests/test_pipeline_cli.py::test_corrupt_bundle_is_a_schema_error[bool-mean-entry]",
    ),
    Mutant(
        "alphabet-any-string", "src/alarmsift/events.py",
        "parse_event_label(label)",
        "label",
        "tests/test_pipeline_cli.py::test_corrupt_bundle_is_a_schema_error"
        "[non-label-alphabet-entry]",
    ),
    Mutant(
        "reference-any-label", "src/alarmsift/alignment.py",
        "parse_event_label(label)",
        "label",
        "tests/test_pipeline_cli.py::test_corrupt_bundle_is_a_schema_error"
        "[unknown-reference-label]",
    ),
    Mutant(
        "truncated-unreported", "src/alarmsift/pipeline.py",
        "if result.truncated:",
        "if False:",
        "tests/test_pipeline_cli.py::test_truncated_trailing_records_are_counted_in_a_warning",
    ),
    Mutant(
        "stray-scores-unwarned", "src/alarmsift/pipeline.py",
        "if stray:",
        "if False:",
        "tests/test_pipeline_cli.py::test_external_scores_skip_unknown_ids",
    ),
    Mutant(
        "runs-unbounded", "src/alarmsift/config.py",
        "if not 1 <= self.runs <= MAX_RUNS:",
        "if self.runs < 1:",
        "tests/test_pipeline_cli.py::test_run_count_is_bounded",
    ),
    Mutant(
        "bundle-fit-unchecked", "src/alarmsift/pipeline.py",
        "if config.external_threshold != bundle.config.external_threshold:",
        "if False:",
        "tests/test_pipeline_cli.py::test_an_external_bundle_rates_only_at_its_own_threshold"
        "[differs]",
    ),
    Mutant(
        "features-overflow-kept", "src/alarmsift/detector.py",
        "if not (np.isfinite(mean).all() and np.isfinite(std).all()):",
        "if False:",
        "tests/test_pipeline_cli.py::test_train_refuses_a_training_flow_whose_features_overflow",
    ),
)


def _copy_tree(dest: Path) -> None:
    """Copies what the tests need: src/, tests/, pyproject.toml and the
    benchmark's modules (not its work directory)."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "perfbench").mkdir()
    for module in (ROOT / "perfbench").glob("*.py"):
        shutil.copy2(module, dest / "perfbench" / module.name)


def apply(mutant: Mutant, root: Path) -> None:
    """Applies mutant to the tree at root; its old string must occur once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.path}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def caught(mutant: Mutant) -> bool:
    """Whether mutant.test fails on a copy of the tree with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        apply(mutant, root)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
                cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TEST_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True  # the mutant made its test hang: it does not pass
    # pytest exits 1 when a test failed; anything else (no test collected,
    # a usage error) is not evidence that the test catches the mutant.
    return result.returncode == 1


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        try:
            ok = caught(mutant)
        except ValueError as exc:
            print(f"stale   {mutant.name}: {exc}")
            survivors.append(mutant.name)
            continue
        print(f"{'caught' if ok else 'SURVIVED'}  {mutant.name}  ({mutant.test})")
        if not ok:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutant(s) not caught: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutant(s) caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
