"""A test-only copy of the three row-file readers as they stood before they
shared one keyed-table reader.

Each reader keeps its own row loop over a csv.DictReader (or the JSONL
rows), its own repeated-key check and its own error messages; the CSV
readers add one to the DictReader's line count for the schema line.
read_scores_csv names data rows (1-based) rather than file lines. A flows
CSV row with more fields than its header loads. The result types are the
package's own: read_corpus must return equal FlowRecords, and the other
two equal dicts, or both readers must raise a package error.
"""
from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from alarmsift.alignment import PROFILE_CSV_SCHEMA
from alarmsift.artifacts import open_text, read_jsonl
from alarmsift.detector import TRUTH_LABELS
from alarmsift.errors import DataError, SchemaError
from alarmsift.flowmeter import (
    FEATURE_NAMES,
    FLOW_EVENTS_SCHEMA,
    FLOWS_CSV_SCHEMA,
    FlowRecord,
    parse_event_label,
)


@contextmanager
def read_csv(path: str | Path, schema: str | None) -> Iterator[csv.DictReader]:
    """A DictReader over path after its first line, which must be exactly
    "# schema: <schema>"; with schema None, a leading "#" line is skipped."""
    with open_text(path, newline="") as fh:
        first = fh.readline()
        if schema is None and not first.startswith("#"):
            fh.seek(0)
        elif schema is not None and first.rstrip("\r\n") != f"# schema: {schema}":
            raise SchemaError(f"{path}: expected schema {schema}")
        yield csv.DictReader(fh)


_UNKEPT_COLUMNS = (("client_port", int), ("server_port", int), ("first_ts", float),
                   ("last_ts", float))


def read_corpus(flows_csv: str | Path, events_path: str | Path) -> list[FlowRecord]:
    flows_csv, events_path = Path(flows_csv), Path(events_path)
    events: dict[str, tuple[str, ...]] = {}
    for lineno, row in read_jsonl(events_path, FLOW_EVENTS_SCHEMA):
        try:
            if row["flow_id"] in events:
                raise SchemaError(
                    f"{events_path}: line {lineno}: repeated flow id {row['flow_id']!r}"
                )
            events[row["flow_id"]] = tuple(
                f"{direction}_{flags}" for direction, flags, _ts in row["events"]
            )
            if not events[row["flow_id"]]:
                raise ValueError("a flow has at least one event")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{events_path}: line {lineno}: malformed row: {exc!r}") from exc
    for label in sorted({label for trace in events.values() for label in trace}):
        try:
            parse_event_label(label)
        except DataError as exc:
            raise SchemaError(f"{events_path}: {exc}") from exc
    records: list[FlowRecord] = []
    seen: set[str] = set()
    with read_csv(flows_csv, FLOWS_CSV_SCHEMA) as reader:
        for row in reader:
            try:
                flow_id = row["flow_id"]
                if flow_id not in events:
                    raise DataError(f"{flows_csv}: flow {flow_id} missing from events file")
                if flow_id in seen:
                    raise SchemaError(
                        f"{flows_csv}: line {reader.line_num + 1}: repeated flow id {flow_id!r}"
                    )
                seen.add(flow_id)
                if row["truth"] not in TRUTH_LABELS:
                    raise ValueError(f"truth {row['truth']!r} is not one of {TRUTH_LABELS}")
                features = np.array([float(row[name]) for name in FEATURE_NAMES])
                if not np.isfinite(features).all():
                    raise ValueError("feature values must be finite")
                for name, parse in _UNKEPT_COLUMNS:
                    parse(row[name])
                records.append(FlowRecord(flow_id, row["truth"], features, events[flow_id]))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(
                    f"{flows_csv}: line {reader.line_num + 1}: malformed row: {exc!r}"
                ) from exc
    orphans = [flow_id for flow_id in events if flow_id not in seen]
    if orphans:
        raise SchemaError(
            f"{events_path}: {len(orphans)} flow id(s) missing from {flows_csv}, "
            f"first {orphans[0]!r}"
        )
    return records


def read_scores_csv(path: str | Path) -> dict[str, float]:
    with read_csv(path, None) as reader:
        fields = reader.fieldnames or []
        if "flow_id" not in fields or "score" not in fields:
            raise SchemaError(f"{path}: scores CSV needs flow_id and score columns, got {fields}")
        scores: dict[str, float] = {}
        for i, row in enumerate(reader, start=1):
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                score = math.nan
            if not math.isfinite(score):
                raise SchemaError(
                    f"{path}: row {i}: score {row['score']!r} is not a finite number"
                )
            if row["flow_id"] in scores:
                raise SchemaError(f"{path}: row {i}: repeated flow id {row['flow_id']!r}")
            scores[row["flow_id"]] = score
    return scores


def read_profile_csv(path: str | Path) -> dict[str, float]:
    profile: dict[str, float] = {}
    with read_csv(path, PROFILE_CSV_SCHEMA) as reader:
        for row in reader:
            label, value = row.get("event_type"), row.get("count")
            try:
                parse_event_label(label)
                count = float(value)
            except (DataError, TypeError, ValueError):
                count = math.nan
            if None in row or not 0 <= count < math.inf:
                raise SchemaError(
                    f"{path}: line {reader.line_num + 1}: malformed profile row {row!r}"
                )
            if label in profile:
                raise SchemaError(
                    f"{path}: line {reader.line_num + 1}: repeated event type {label!r}"
                )
            profile[label] = count
    return profile
