"""Artifact files are written and their JSON decoded only through
alarmsift.artifacts, and each reader accepts exactly its own schema tag."""
import ast
import json
from pathlib import Path

import pytest

import alarmsift
from alarmsift import synthetic
from alarmsift.alignment import read_profile_csv, write_profile_csv
from alarmsift.errors import SchemaError
from alarmsift.flowmeter import read_corpus

# cli.py is exempt: `explain --out` writes the JSON it would otherwise print.
EXEMPT = {"artifacts.py", "cli.py"}
# config.py is exempt: the config file it reads is not an artifact.
JSON_READ_EXEMPT = {"artifacts.py", "config.py"}


def _modules(exempt: set[str]):
    """(file name, syntax tree) of each package module outside exempt."""
    for path in sorted(Path(alarmsift.__file__).parent.glob("*.py")):
        if path.name not in exempt:
            yield path.name, ast.parse(path.read_text(), filename=str(path))


def _write_mode(call: ast.Call) -> str | None:
    """The mode of an open(path, mode) or path.open(mode) call if it writes."""
    position = 0 if isinstance(call.func, ast.Attribute) else 1
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[position:position + 1]
    for mode in modes:
        if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
            return mode.value
    return None


def _writes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name in ("write_text", "write_bytes") or (owner, name) in (
            ("csv", "writer"), ("ET", "tostring"),
        ):
            found.append(f"line {node.lineno}: {name}")
        elif name == "open" and (mode := _write_mode(node)):
            found.append(f"line {node.lineno}: open({mode!r})")
    return found


def _json_reads(tree: ast.AST) -> list[str]:
    """Each use of json.load or json.loads, called or not, and each import of
    either."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads"):
            if getattr(node.value, "id", None) == "json":
                found.append(f"line {node.lineno}: json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"line {node.lineno}: from json import {alias.name}"
                      for alias in node.names if alias.name in ("load", "loads")]
    return found


def test_only_artifacts_writes_files():
    writers = [f"{name}: {w}" for name, tree in _modules(EXEMPT) for w in _writes(tree)]
    assert writers == []


def test_only_artifacts_decodes_json():
    readers = [
        f"{name}: {r}" for name, tree in _modules(JSON_READ_EXEMPT) for r in _json_reads(tree)
    ]
    assert readers == []


def test_write_detection_sees_each_kind_of_writer():
    source = """
Path(p).write_text(t)
p.write_bytes(b)
csv.writer(fh)
ET.tostring(root)
open(p, "a")
p.open("w", newline="")
p.open(mode="x")
open(p)
p.open()
open(p, "r")
"""
    assert len(_writes(ast.parse(source))) == 7


def test_json_read_detection_sees_each_kind_of_reader():
    source = """
json.load(fh)
json.loads(text)
map(json.loads, lines)
from json import loads
from json import dumps, load
json.dumps(value)
pickle.loads(data)
payload.load()
"""
    assert len(_json_reads(ast.parse(source))) == 5


def _corpus(tmp_path: Path) -> Path:
    synthetic.write_corpus(synthetic.generate_flows("normal", 5, seed=1), tmp_path)
    return tmp_path


def _retag(path: Path, first_line: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(first_line + "\n" + "".join(lines[1:]))


@pytest.mark.parametrize("tag", [
    "# schema: alarmsift-flows/10",
    "# schema: alarmsift-flows/1 ",
    "#schema: alarmsift-flows/1",
])
def test_flows_csv_needs_its_exact_schema_line(tmp_path, tag):
    corpus = _corpus(tmp_path)
    _retag(corpus / "flows.csv", tag)
    with pytest.raises(SchemaError, match="flows.csv: expected schema alarmsift-flows/1"):
        read_corpus(corpus / "flows.csv", corpus / "events.jsonl")


def test_events_jsonl_needs_its_exact_header(tmp_path):
    corpus = _corpus(tmp_path)
    _retag(corpus / "events.jsonl", json.dumps({"schema": "alarmsift-flow-events/1", "x": 1}))
    with pytest.raises(SchemaError, match="events.jsonl: expected schema"):
        read_corpus(corpus / "flows.csv", corpus / "events.jsonl")


def test_profile_csv_needs_its_exact_schema_line(tmp_path):
    path = tmp_path / "reference_profile.csv"
    write_profile_csv({"C_to_S_ACK": 0.5}, path)
    assert read_profile_csv(path) == {"C_to_S_ACK": 0.5}
    _retag(path, "# schema: alarmsift-profile/1beta")
    with pytest.raises(SchemaError, match="reference_profile.csv: expected schema"):
        read_profile_csv(path)
