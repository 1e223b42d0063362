"""Run configuration: single JSON file plus flag overrides.

Precedence is flags > environment > file > defaults. The only environment
variable is ALARMSIFT_OUTPUT_DIR, which sets the output directory.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .alignment import DEFAULT_BUDGET
from .detector import TRUTH_LABELS, TRUTH_UNKNOWN
from .errors import ConfigError, DataError
from .rating import DEFAULT_BAND_BOUNDARIES, SeverityBands

OUTPUT_DIR_ENV = "ALARMSIFT_OUTPUT_DIR"


@dataclass(frozen=True)
class CaptureSpec:
    path: Path
    truth: str = "unknown"


@dataclass(frozen=True)
class RunConfig:
    output_dir: Path = Path("out")
    corpus: Path | None = None
    captures: tuple[CaptureSpec, ...] = ()
    server_ports: frozenset[int] = frozenset()
    flow_timeout: float = 120.0
    components: int = 5
    percentile: float = 0.85
    external_scores: Path | None = None
    external_threshold: float | None = None
    clusters: int = 2
    window: int = 3
    band_boundaries: tuple[float, float, float, float] = DEFAULT_BAND_BOUNDARIES
    train_fraction: float = 0.6
    validation_fraction: float = 0.25
    runs: int = 5
    seed: int = 7
    alignment_budget: int = DEFAULT_BUDGET

    def validate(self) -> "RunConfig":
        if self.flow_timeout <= 0:
            raise ConfigError("flow timeout must be > 0")
        if not 0 < self.percentile <= 1:
            raise ConfigError("detector percentile must be in (0, 1]")
        if self.components < 1:
            raise ConfigError("detector component count must be >= 1")
        if self.clusters < 1 or self.window < 1:
            raise ConfigError("extraction clusters and window must be >= 1")
        if self.runs < 1:
            raise ConfigError("run count must be >= 1")
        if self.alignment_budget < 1:
            raise ConfigError("config key 'alignment_budget' must be >= 1")
        bad_ports = sorted(p for p in self.server_ports if not 0 <= p <= 65535)
        if bad_ports:
            raise ConfigError(f"config key 'server_ports' holds ports outside 0-65535: {bad_ports}")
        fractions = (self.train_fraction, self.validation_fraction)
        if any(f <= 0 for f in fractions) or sum(fractions) > 1:
            raise ConfigError(
                f"split fractions must be positive and sum to at most 1, got {fractions}"
            )
        if self.external_scores is not None and self.external_threshold is None:
            raise ConfigError("external scores require an external threshold")
        if self.external_threshold is not None and self.external_scores is None:
            raise ConfigError("config key 'external_threshold' needs external_scores")
        try:
            SeverityBands(self.band_boundaries)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        return self


def _capture_spec(item: str | dict) -> CaptureSpec:
    if isinstance(item, str):
        return CaptureSpec(path=Path(item))
    if not isinstance(item, dict):
        raise TypeError(f"{item!r} is neither a path nor an object")
    unknown = set(item) - {"path", "truth"}
    if unknown:
        raise ValueError(f"unknown capture keys {sorted(unknown)}")
    # A null truth keeps the default; an empty one is a typo, not "unknown".
    truth = TRUTH_UNKNOWN if item.get("truth") is None else item["truth"]
    if truth not in TRUTH_LABELS:
        raise ValueError(f"truth {truth!r} is not one of {TRUTH_LABELS}")
    return CaptureSpec(path=Path(item["path"]), truth=truth)


def _integer(value) -> int:
    # int() alone would accept true and "2" and truncate 2.7.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _number(value) -> float:
    # float() alone would accept true and "30"; NaN and infinities slip
    # past comparisons such as flow_timeout <= 0 in validate.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def _json_list(value) -> list:
    # Iterating a string would split it into characters.
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


# Converters for the fields that are not plain ints or floats.
_CONVERTERS = {
    "output_dir": Path,
    "corpus": Path,
    "captures": lambda items: tuple(_capture_spec(item) for item in _json_list(items)),
    "server_ports": lambda ports: frozenset(_integer(p) for p in _json_list(ports)),
    "external_scores": Path,
    "external_threshold": _number,
    "band_boundaries": lambda bounds: tuple(_number(b) for b in _json_list(bounds)),
}

#: Config-file key -> converter from its JSON value, one per RunConfig field.
_FIELDS = {
    f.name: _CONVERTERS.get(f.name) or {int: _integer, float: _number}[type(f.default)]
    for f in fields(RunConfig)
}

# Fields that do not determine results: paths, so reruns into other
# directories stay byte-identical, and settings that persisted manifests
# have never recorded.
_NOT_ECHOED = {
    "output_dir", "corpus", "captures", "server_ports", "external_scores", "alignment_budget",
}


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Builds a RunConfig from an optional JSON file and flag overrides.

    A null or absent value keeps the default. Override keys that name no
    RunConfig field are ignored, so an argparse namespace can be passed.
    """
    values: dict = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file must hold a JSON object: {path}")
        unknown = set(payload) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(payload)
    if os.environ.get(OUTPUT_DIR_ENV):
        values["output_dir"] = os.environ[OUTPUT_DIR_ENV]
    if overrides:
        values.update({k: v for k, v in overrides.items() if k in _FIELDS and v is not None})

    kwargs = {}
    for key, value in values.items():
        if value is None:
            continue
        try:
            kwargs[key] = _FIELDS[key](value)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot use {value!r}") from exc
    return RunConfig(**kwargs).validate()


def semantic_echo(cfg: RunConfig) -> dict:
    """The parameters that determine results; used in persisted manifests."""
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in _NOT_ECHOED}
    echo["band_boundaries"] = list(cfg.band_boundaries)
    echo["external"] = cfg.external_scores is not None
    return echo


def derive_seed(master: int, name: str) -> int:
    """Stable named sub-seed; all stage randomness flows from the master."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
