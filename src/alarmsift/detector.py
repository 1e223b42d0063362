"""Reference anomaly detector: principal-direction reconstruction error
over z-scored flow features, with a nearest-rank percentile threshold
calibrated on a validation split. External scores can be imported so any
black-box IDS's alarms can be rated. One rule decides both the baseline's
flows and imported scores: a flow is positive iff its score exceeds the
threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_csv, read_json, write_csv, write_schema_json
from .errors import DataError, SchemaError

MODEL_SCHEMA = "alarmsift-detector/1"
SCORES_CSV_SCHEMA = "alarmsift-scores/1"

# The two detectors a bundle can be trained on, as its manifest names them.
KIND_BASELINE = "reconstruction-baseline"
KIND_EXTERNAL = "external-scores"

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
    if components < 1:
        raise DataError("component count must be >= 1")
    if len(train) <= components:
        raise DataError(f"need more than {components} training flows, got {len(train)}")
    # A finite feature near the float limit can still overflow the std.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise DataError("training features and their mean and std must be finite")
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
    with np.errstate(over="ignore", invalid="ignore"):
        z = (features[:, model.mask] - model.mean[model.mask]) / model.std[model.mask]
        recon = (z @ model.basis.T) @ model.basis
        scores = ((z - recon) ** 2).sum(axis=1)
    # Finite features overflow through a corrupt model or through a value
    # near the float limit, such as a bytes_total of 1e308.
    if not np.isfinite(scores).all():
        raise DataError("detector scores are not finite; a feature or the model is out of range")
    return scores


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
    """The baseline's decision for each flow, at the calibrated threshold."""
    if not model.calibrated:
        raise DataError("detector model has no calibrated threshold")
    scores = score_flows(model, features)
    if len(scores) != len(flow_ids):
        raise DataError("flow id list does not match the feature matrix")
    return _decide(flow_ids, scores.tolist(), model.threshold, truths)


def _decide(
    flow_ids: Sequence[str], scores: Sequence[float], threshold: float,
    truths: Sequence[str] | None,
) -> list[ScoredFlow]:
    """Decision rule: positive iff score > threshold (ties are negative).
    Without truths, each flow reads TRUTH_UNKNOWN."""
    truths = truths or [TRUTH_UNKNOWN] * len(flow_ids)
    return [
        ScoredFlow(flow_id=fid, score=score, positive=score > threshold, truth=truth)
        for fid, score, truth in zip(flow_ids, scores, truths)
    ]


# --- external scores -------------------------------------------------------

def read_scores_csv(path: str | Path | None) -> dict[str, float] | None:
    """Reads flow_id -> score, in row order, from a scores CSV, or None
    without a path; other columns, such as truth, are ignored.

    Each score must be a finite number and each flow id may occur once;
    anything else, or a file that cannot be read, raises SchemaError naming
    the file (and the data row, 1-based).
    """
    if path is None:
        return None
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
    scores: dict[str, float],
    threshold: float,
    known_ids: Sequence[str],
    truths: Sequence[str] | None = None,
) -> list[ScoredFlow]:
    """Turns an external scores table (read_scores_csv) into classified flows.

    Mirrors classify, which takes features: the same decision rule, results in
    the order of known_ids, and truth labels from the caller. Only known flows
    with a score are returned; the caller counts the known flows left out and
    the score rows for other ids. Raises DataError when no known flow has one.
    """
    ids = [fid for fid in known_ids if fid in scores]
    truths = truths and [t for fid, t in zip(known_ids, truths) if fid in scores]
    scored = _decide(ids, [scores[fid] for fid in ids], threshold, truths)
    if not scored:
        raise DataError("external scores match none of the input flows")
    return scored


def write_scores_csv(scored: Sequence[ScoredFlow], path: str | Path) -> None:
    rows = (
        [s.flow_id, repr(s.score), "positive" if s.positive else "negative", s.truth]
        for s in scored
    )
    write_csv(path, ["flow_id", "score", "predicted", "truth"], rows, schema=SCORES_CSV_SCHEMA)


# --- persistence -----------------------------------------------------------

def _model_payload(model: DetectorModel) -> dict:
    return {
        "kind": KIND_BASELINE,
        "feature_names": list(model.feature_names),
        "mean": [float(v) for v in model.mean],
        "std": [float(v) for v in model.std],
        "mask": [bool(v) for v in model.mask],
        "basis": [[float(v) for v in row] for row in model.basis],
        "components": model.components,
        "seed": model.seed,
        "threshold": model.threshold,
        "percentile": model.percentile,
    }


def save_model(model: DetectorModel, path: str | Path) -> None:
    write_schema_json(path, MODEL_SCHEMA, _model_payload(model))


def load_model(path: str | Path) -> DetectorModel:
    """Reads save_model's file, valid exactly when _model_payload writes it
    back (artifacts.read_json), mean, std and mask have one entry per
    feature, basis is components x active features, mean, std, basis and
    threshold are finite, std > 0 on every active feature and the
    percentile is in (0, 1]; else raises SchemaError naming the file."""
    return read_json(path, MODEL_SCHEMA, _model_from, _model_payload)


def _model_from(payload: dict) -> DetectorModel:
    model = DetectorModel(
        feature_names=tuple(str(name) for name in payload["feature_names"]),
        mean=np.array([float(v) for v in payload["mean"]]),
        std=np.array([float(v) for v in payload["std"]]),
        mask=np.array([bool(v) for v in payload["mask"]], dtype=bool),
        basis=np.array([[float(v) for v in row] for row in payload["basis"]]),
        components=int(payload["components"]),
        seed=int(payload["seed"]),
        threshold=float(payload["threshold"]),
        percentile=float(payload["percentile"]),
    )
    n, active = len(model.feature_names), int(model.mask.sum())
    if any(v.shape != (n,) for v in (model.mean, model.std, model.mask)):
        raise ValueError(f"mean, std and mask must have {n} entries, one per feature")
    if model.basis.shape != (model.components, active):
        raise ValueError(f"basis must be {model.components} x {active}: components x active")
    if not np.isfinite([*model.mean, *model.std, *model.basis.ravel(), model.threshold]).all():
        raise ValueError("mean, std, basis and threshold must be finite")
    if not (model.std[model.mask] > 0).all():
        raise ValueError("std must be positive on every active feature")
    if not 0.0 < model.percentile <= 1.0:
        raise ValueError(f"percentile {model.percentile!r} is not in (0, 1]")
    return model
