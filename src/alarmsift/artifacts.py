"""The on-disk containers of every artifact file: the only module that writes
an artifact or checks its schema tag.

Containers:
- JSON: one object with sorted keys, indent 1, its "schema" key the schema
  id, and a trailing newline.
- JSONL: a header line that is exactly {"schema": <id>}, then one object
  with sorted keys per line; lines end in LF.
- CSV: a first line "# schema: <id>" (ending in LF) when schema-tagged, then
  a header row and data rows; csv rows end in CRLF unless stated.
- XML: indented, with an XML declaration; lines end in LF.

Artifacts (container, schema id, line ending):
- Corpus: flows.csv (CSV, alarmsift-flows/1, CRLF) and events.jsonl
  (JSONL, alarmsift-flow-events/1).
- Bundle: manifest.json (JSON, alarmsift-bundle/1), detector.json (JSON,
  alarmsift-detector/1; baseline detector only), extraction.json (JSON,
  alarmsift-extraction/1), nets/state_<k>.pnml (PNML XML with a
  finalmarkings element, no schema id; read by petri.import_pnml),
  logs/state_<k>.xes (XES 1849-2016 XML, no schema id),
  logs/state_logs.jsonl (JSONL, alarmsift-state-logs/1) and
  reference_profile.csv (CSV, alarmsift-profile/1, rows end in LF).
- Rating: rated_alarms.csv, band_histogram.csv and band_mean_profiles.csv
  (CSV, no schema line, CRLF), alignments.jsonl (JSONL,
  alarmsift-alignments/1) and scores.csv (CSV, alarmsift-scores/1, CRLF).
- Evaluate root: report.json (JSON, alarmsift-report/1), metrics.csv and
  fig_performance.csv (CSV, no schema line, CRLF), plus runs/run_<i>/bundle
  and runs/run_<i>/rating as above.

An external scores CSV is read with read_csv(path, None): its "#" first
line, if any, is skipped.
"""
import csv
import json
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .errors import SchemaError


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """path opened for reading text. A file that cannot be opened, read or
    decoded raises SchemaError naming it."""
    try:
        with Path(path).open(newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc


def write_schema_json(path: str | Path, schema: str, payload: dict) -> None:
    """Writes payload plus its "schema" key as one JSON object."""
    text = json.dumps({"schema": schema, **payload}, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def read_schema_json(path: str | Path, schema: str) -> dict:
    """The JSON object in path, whose "schema" key must equal schema.
    Raises SchemaError naming the file otherwise."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        raise SchemaError(f"{path}: expected a JSON object of schema {schema}")
    return payload


def write_jsonl(path: str | Path, schema: str, rows: Iterable[dict]) -> None:
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"schema": schema}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path: str | Path, schema: str) -> Iterator[tuple[int, Any]]:
    """Yields (line number, decoded row) for each line after the header,
    which must be exactly {"schema": schema}. A header or row that is not
    JSON, or a file that cannot be read, raises SchemaError naming the file."""
    with open_text(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if header != {"schema": schema}:
            raise SchemaError(f"{path}: expected schema {schema}")
        for lineno, line in enumerate(fh, start=2):
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{path}: line {lineno}: malformed row: {exc!r}") from exc
            yield lineno, row


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
              schema: str | None = None, lineterminator: str = "\r\n") -> None:
    with Path(path).open("w", newline="") as fh:
        if schema is not None:
            fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def read_csv(path: str | Path, schema: str | None) -> Iterator[csv.DictReader]:
    """A DictReader over path after its first line, which must be exactly
    "# schema: <schema>"; with schema None, a leading "#" line is skipped.
    Raises SchemaError naming the file otherwise or if it cannot be read."""
    with open_text(path, newline="") as fh:
        first = fh.readline()
        if schema is None and not first.startswith("#"):
            fh.seek(0)
        elif schema is not None and first.rstrip("\r\n") != f"# schema: {schema}":
            raise SchemaError(f"{path}: expected schema {schema}")
        yield csv.DictReader(fh)


def write_xml(root: ET.Element, path: str | Path) -> None:
    ET.indent(root)
    Path(path).write_bytes(ET.tostring(root, xml_declaration=True, encoding="utf-8"))
