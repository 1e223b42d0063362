"""Reference anomaly detector: principal-direction reconstruction error
over z-scored flow features, with a nearest-rank percentile threshold
calibrated on a validation split. External scores can be imported so any
black-box IDS's alarms can be rated.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_csv, read_schema_json, write_csv, write_schema_json
from .errors import DataError, SchemaError

logger = logging.getLogger(__name__)

MODEL_SCHEMA = "alarmsift-detector/1"
SCORES_CSV_SCHEMA = "alarmsift-scores/1"

KIND_BASELINE = "reconstruction-baseline"

TRUTH_NORMAL = "normal"
TRUTH_ATTACK = "attack"
TRUTH_UNKNOWN = "unknown"
# The ground-truth labels a flow may carry, in corpora and capture configs.
TRUTH_LABELS = (TRUTH_NORMAL, TRUTH_ATTACK, TRUTH_UNKNOWN)


@dataclass(frozen=True)
class DetectorModel:
    feature_names: tuple[str, ...]
    mean: np.ndarray          # per raw feature
    std: np.ndarray           # per raw feature (population)
    mask: np.ndarray          # bool; constant training columns are excluded
    basis: np.ndarray         # (d, n_active) top principal directions
    components: int
    seed: int
    threshold: float | None = None
    percentile: float | None = None
    kind: str = KIND_BASELINE

    @property
    def calibrated(self) -> bool:
        return self.threshold is not None


@dataclass(frozen=True)
class ScoredFlow:
    flow_id: str
    score: float
    positive: bool
    truth: str = TRUTH_UNKNOWN


def fit_baseline(
    train: np.ndarray,
    components: int,
    seed: int,
    feature_names: Sequence[str],
) -> DetectorModel:
    """Fits the reconstruction baseline on normal-flow features.

    Features are z-scored with training statistics; constant columns are
    masked out and recorded. The score of a flow is the squared residual
    after projecting its normalized vector onto the top-d principal
    directions of the training data.
    """
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[1] != len(feature_names):
        raise DataError("training matrix does not match the feature list")
    if not np.isfinite(train).all():
        raise DataError("training features must be finite")
    if components < 1:
        raise DataError("component count must be >= 1")
    if len(train) <= components:
        raise DataError(f"need more than {components} training flows, got {len(train)}")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    mask = std > 0
    if not mask.any():
        raise DataError("every feature column is constant; nothing to model")
    z = (train[:, mask] - mean[mask]) / std[mask]
    d = min(components, min(z.shape))
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    basis = vt[:d].copy()
    # Deterministic sign convention: largest-magnitude entry positive.
    for row in basis:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return DetectorModel(
        feature_names=tuple(feature_names),
        mean=mean,
        std=std,
        mask=mask,
        basis=basis,
        components=d,
        seed=seed,
    )


def score_flows(model: DetectorModel, features: np.ndarray) -> np.ndarray:
    """Squared reconstruction error of each normalized feature vector."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[None, :]
    if features.shape[1] != len(model.feature_names):
        raise DataError(
            f"feature dimension mismatch: expected {len(model.feature_names)} "
            f"columns (active mask {model.mask.astype(int).tolist()}), got {features.shape[1]}"
        )
    z = (features[:, model.mask] - model.mean[model.mask]) / model.std[model.mask]
    recon = (z @ model.basis.T) @ model.basis
    return ((z - recon) ** 2).sum(axis=1)


def calibrate_threshold(
    model: DetectorModel, validation: np.ndarray, percentile: float
) -> DetectorModel:
    """Sets the decision threshold to the nearest-rank percentile of the
    validation scores. A lower percentile leaves more validation flows
    above the threshold, enriching the false-positive pool used for
    process mining."""
    if not 0.0 < percentile <= 1.0:
        raise DataError(f"percentile must be in (0, 1], got {percentile}")
    validation = np.asarray(validation, dtype=float)
    if len(validation) == 0:
        raise DataError("validation set is empty")
    if len(validation) < 10:
        raise DataError(f"validation set too small ({len(validation)} < 10 flows)")
    scores = np.sort(score_flows(model, validation))
    rank = int(np.ceil(percentile * len(scores)))
    threshold = float(scores[rank - 1])
    return replace(model, threshold=threshold, percentile=percentile)


def classify(
    model: DetectorModel,
    features: np.ndarray,
    flow_ids: Sequence[str],
    truths: Sequence[str] | None = None,
) -> list[ScoredFlow]:
    """Decision rule: positive iff score > threshold (ties are negative)."""
    if not model.calibrated:
        raise DataError("detector model has no calibrated threshold")
    scores = score_flows(model, features)
    if len(scores) != len(flow_ids):
        raise DataError("flow id list does not match the feature matrix")
    truths = truths or [TRUTH_UNKNOWN] * len(flow_ids)
    return [
        ScoredFlow(
            flow_id=fid,
            score=float(s),
            positive=bool(s > model.threshold),
            truth=truth,
        )
        for fid, s, truth in zip(flow_ids, scores, truths)
    ]


# --- external scores -------------------------------------------------------

def read_scores_csv(path: str | Path) -> dict[str, float]:
    """Reads flow_id -> score, in row order, from a scores CSV; other
    columns, such as truth, are ignored.

    Each score must be a finite number and each flow id may occur once;
    anything else, or a file that cannot be read, raises SchemaError naming
    the file (and the data row, 1-based).
    """
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


def import_scores(
    path: str | Path,
    threshold: float,
    known_ids: Sequence[str],
    truths: Sequence[str] | None = None,
) -> tuple[list[ScoredFlow], list[str]]:
    """Turns an external score file into classified flows.

    Mirrors classify: the same decision rule, results in the order of
    known_ids, and truth labels from the caller. A known flow without a
    score is left out; score rows for flow ids not in known_ids are
    skipped and returned (sorted) for the caller to report. Raises
    DataError when no known flow has a score.
    """
    scores = read_scores_csv(path)
    skipped = sorted(set(scores) - set(known_ids))
    truths = truths or [TRUTH_UNKNOWN] * len(known_ids)
    scored = [
        ScoredFlow(flow_id=fid, score=scores[fid], positive=scores[fid] > threshold, truth=truth)
        for fid, truth in zip(known_ids, truths)
        if fid in scores
    ]
    if not scored:
        raise DataError("external scores match none of the input flows")
    if len(scored) < len(known_ids):
        logger.warning(
            "external scores: %d input flow(s) have no score; excluded",
            len(known_ids) - len(scored),
        )
    return scored, skipped


def write_scores_csv(scored: Sequence[ScoredFlow], path: str | Path) -> None:
    rows = (
        [s.flow_id, repr(s.score), "positive" if s.positive else "negative", s.truth]
        for s in scored
    )
    write_csv(path, ["flow_id", "score", "predicted", "truth"], rows, schema=SCORES_CSV_SCHEMA)


# --- persistence -----------------------------------------------------------

def save_model(model: DetectorModel, path: str | Path) -> None:
    write_schema_json(path, MODEL_SCHEMA, {
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "mean": [float(v) for v in model.mean],
        "std": [float(v) for v in model.std],
        "mask": [bool(v) for v in model.mask],
        "basis": [[float(v) for v in row] for row in model.basis],
        "components": model.components,
        "seed": model.seed,
        "threshold": model.threshold,
        "percentile": model.percentile,
    })


def load_model(path: str | Path) -> DetectorModel:
    """Reads save_model's file. Raises SchemaError naming the file for a
    missing or mistyped key, for mean, std, mask or basis shapes that do not
    fit the feature list and the active mask, for a non-finite value, for a
    std that is not positive on an active column, for a threshold that is
    not a finite number, for components or a seed that is not an integer,
    for a percentile outside (0, 1], and for a kind other than KIND_BASELINE."""
    payload = read_schema_json(path, MODEL_SCHEMA)
    try:
        model = DetectorModel(
            feature_names=tuple(payload["feature_names"]),
            mean=np.array(payload["mean"], dtype=float),
            std=np.array(payload["std"], dtype=float),
            mask=np.array(payload["mask"], dtype=bool),
            basis=np.array(payload["basis"], dtype=float),
            components=payload["components"],
            seed=payload["seed"],
            threshold=payload["threshold"],
            percentile=payload["percentile"],
            kind=payload["kind"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed detector model: {exc!r}") from exc
    n, active = len(model.feature_names), int(model.mask.sum())
    if any(v.shape != (n,) for v in (model.mean, model.std, model.mask)):
        problem = f"mean, std and mask must have {n} entries, one per feature"
    elif type(model.components) is not int:
        problem = f"components {model.components!r} is not an integer"
    elif model.basis.shape != (model.components, active):
        problem = f"basis must be components x active features ({model.components} x {active})"
    elif not all(np.isfinite(v).all() for v in (model.mean, model.std, model.basis)):
        problem = "mean, std and basis must be finite"
    elif not (model.std[model.mask] > 0).all():
        problem = "std must be positive on every active feature"
    elif type(model.threshold) not in (int, float) or not math.isfinite(model.threshold):
        problem = f"threshold {model.threshold!r} is not a finite number"
    elif type(model.seed) is not int:
        problem = f"seed {model.seed!r} is not an integer"
    elif type(model.percentile) not in (int, float) or not 0.0 < model.percentile <= 1.0:
        problem = f"percentile {model.percentile!r} is not a number in (0, 1]"
    elif model.kind != KIND_BASELINE:
        problem = f"kind {model.kind!r} is not {KIND_BASELINE!r}"
    else:
        return model
    raise SchemaError(f"{path}: malformed detector model: {problem}")
