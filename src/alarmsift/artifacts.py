"""The on-disk containers of every artifact file: the only module that writes
an artifact, decodes its JSON or checks its schema tag.

One rule reads a bundle's JSON files (manifest.json, detector.json and
extraction.json): a file is valid exactly when its writer's payload function
writes back the value read from it (read_json). What a writer could write
but is still wrong stays an explicit check of its reader: array shapes,
finiteness, a positive std on active features, the percentile range,
centroid bounds, event labels, the config echo's clusters and window
against extraction.json's, and net soundness.

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
  alarmsift-extraction/1), nets/state_<k>.pnml (PNML XML with a page and
  a finalmarkings element, no schema id; petri.import_pnml reads only the
  shape petri.export_pnml writes),
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
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import ConfigError, DataError, SchemaError

T = TypeVar("T")


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


def read_json(path: str | Path, schema: str, build: Callable[[dict], T],
              payload: Callable[[T], dict]) -> T:
    """The value build makes from the JSON object in path, whose "schema" key
    must be schema. build uses plain constructors (float, int, bool, str,
    tuple) and raises for what it cannot build or its checks refuse. Unless
    payload, the writer's, gives back the same JSON text (True == 1 == 1.0 in
    Python), raises SchemaError naming the file; a SchemaError that build
    raises for another file passes through."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read JSON: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("schema") != schema:
        raise SchemaError(f"{path}: expected a JSON object of schema {schema}")
    try:
        value = build(raw)
        written = {"schema": schema, **payload(value)}
    except SchemaError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError, ConfigError, DataError) as exc:
        raise SchemaError(f"{path}: malformed: {exc!r}") from exc
    if json.dumps(written, sort_keys=True) != json.dumps(raw, sort_keys=True):
        raise SchemaError(f"{path}: not what its writer writes for the value read from it")
    return value


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
