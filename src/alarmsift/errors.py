"""Exception hierarchy shared across the package, and the readers that
raise SchemaError naming an input file that cannot be read.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
BudgetError -> 4.
"""
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class AlarmsiftError(Exception):
    """Base class for all package errors."""


class ConfigError(AlarmsiftError):
    """Invalid or inconsistent run configuration."""


class DataError(AlarmsiftError):
    """Input data violates a documented precondition or schema."""


class SchemaError(DataError):
    """A persisted artifact does not match its documented schema/version."""


class PcapFormatError(DataError):
    """A capture file is not valid classic PCAP."""


class ContractError(AlarmsiftError):
    """A caller violated an API contract (e.g. negative profile entries)."""


class BudgetError(AlarmsiftError):
    """A search exceeded its state-space budget.

    Carries the best known lower bound on the optimal cost at the moment
    the search was abandoned.
    """

    def __init__(self, message: str, cost_lower_bound: float | None = None):
        super().__init__(message)
        self.cost_lower_bound = cost_lower_bound


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """path opened for reading text. A file that cannot be opened, read or
    decoded raises SchemaError naming it."""
    try:
        with Path(path).open(newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read: {exc}") from exc


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
